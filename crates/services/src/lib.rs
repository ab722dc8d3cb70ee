#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_types,
    reason = "the type registry and validators are the back end's shared state; no cached value holds them"
)]

//! Dummy back-end Web services for the evaluation.
//!
//! The paper's portal experiment uses "dummy Google Web services \[that\]
//! actually return the same response XML messages every time" — the real
//! Google SOAP API has been defunct since 2006, so this crate *is* the
//! faithful substitute (see DESIGN.md). It provides:
//!
//! - [`google`] — the three Google operations with the exact response
//!   shapes of paper Table 5 (`doSpellingSuggestion` → small simple
//!   string; `doGetCachedPage` → large simple byte array;
//!   `doGoogleSearch` → large complex `GoogleSearchResult`), generated
//!   deterministically per query, with a request builder per operation
//!   and the paper's three fixtures ([`google::fixtures`]).
//! - [`dispatch`] — a SOAP dispatcher that hosts any [`SoapService`] on
//!   the `wsrc-http` server.

#[cfg(test)]
mod bean;
pub mod dispatch;
pub mod google;

pub use dispatch::{SoapDispatcher, SoapService};
