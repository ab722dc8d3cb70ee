#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! The portal-site scenario of paper §5.2.
//!
//! A portal web site calls the dummy Google back-end through the caching
//! client middleware; a closed-loop load simulator stresses the portal
//! while the cache-hit ratio is swept from 0% to 100%. [`scenario`] wires
//! the whole thing up and produces the throughput / response-time points
//! of the paper's Figures 3 and 4.

pub mod loadgen;
pub mod scenario;
pub mod site;

pub use loadgen::{LoadConfig, LoadReport};
pub use scenario::{run_portal_scenario, ScenarioConfig, ScenarioResult, TransportMode};
pub use site::PortalSite;
