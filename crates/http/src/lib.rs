#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_types,
    reason = "the worker pool and the connection pool are shared mutable state; a `Body` is a plain `Arc<[u8]>`"
)]
// Every cached call runs through this crate: errors propagate, and a
// poisoned lock is recovered via `wsrc_obs::sync`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Minimal HTTP/1.1 substrate for the wsrcache project.
//!
//! SOAP "is independent of transport protocols like HTTP, \[but\] in many
//! cases, HTTP is used" (paper §3.2) — so this crate provides the HTTP
//! layer the client middleware and the dummy services run on:
//!
//! - `message` — request/response model with case-insensitive headers.
//! - `client` — a blocking keep-alive client over `std::net` with a
//!   bounded per-destination connection pool.
//! - `server` — a bounded worker-pool server with backpressure
//!   (503 + `Retry-After` once the connection queue fills) and graceful
//!   shutdown that joins every worker.
//! - [`cache_control`] — the server side of the `If-Modified-Since` /
//!   `304` handshake of the paper's §3.2 discussion of HTTP consistency.
//! - `transport` — a pluggable transport abstraction: real TCP, direct
//!   in-process dispatch, and a simulated-latency wrapper for
//!   deterministic benchmarks.

pub(crate) mod body;
pub mod cache_control;
pub(crate) mod client;
pub mod date;
pub(crate) mod error;
pub(crate) mod message;
pub(crate) mod server;
pub(crate) mod transport;
pub(crate) mod url;

pub use body::Body;
pub use client::HttpClient;
pub use error::HttpError;
pub use message::{Headers, Method, Request, Response, Status};
pub use server::{Handler, MetricsRoute, Server, ServerConfig};
pub use transport::{InProcTransport, LatencyTransport, Transport};
pub use url::Url;
