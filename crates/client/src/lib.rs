#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Every cached call runs through this crate: errors propagate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Web services client middleware — the Apache-Axis analog.
//!
//! [`call::Call`] is the low-level invocation object (serialize → POST →
//! deserialize). [`client::ServiceClient`] is the full middleware: it
//! owns the operation descriptors, the type registry and —
//! transparently to the application — the response cache.
//! "This response cache can be used without any changes to the user
//! client application running on the middleware" (paper §3.2); the
//! application-facing API is identical with or without a cache attached.

pub(crate) mod call;
pub(crate) mod client;
pub(crate) mod error;

pub use call::Call;
pub use client::{Disposition, ServiceClient, ServiceClientBuilder};
pub use error::ClientError;
