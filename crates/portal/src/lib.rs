#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! The portal site of paper §5.2: a page built from back-end search
//! results fetched through the caching client. `wsrc-bench` drives it
//! for Figures 3 and 4; the benchmark serves it over loopback TCP.

pub(crate) mod site;

pub use site::PortalSite;
