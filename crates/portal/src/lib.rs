#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_types,
    reason = "the load generator's counters are shared between its callers; no cached value holds them"
)]

//! The portal-site scenario of paper §5.2.
//!
//! A portal web site calls the dummy Google back-end through the caching
//! client middleware; a closed-loop load simulator stresses the portal
//! while the cache-hit ratio is swept from 0% to 100%. [`scenario`] wires
//! the whole thing up and produces the throughput / response-time points
//! of the paper's Figures 3 and 4.

pub(crate) mod loadgen;
pub mod scenario;
pub(crate) mod site;

pub use loadgen::LoadReport;
pub use scenario::ScenarioResult;
pub use site::PortalSite;
