#![warn(missing_docs)]
#![forbid(unsafe_code)]

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
//!   deterministically per query.
//! - [`amazon`] — the 26 Amazon operations of paper Table 1 (20 cacheable
//!   search operations, 6 stateful shopping-cart operations).
//! - [`stock`], [`news`] — the other two back-end services of the
//!   introduction's portal scenario (stock quotes with a short TTL,
//!   news headlines with a medium TTL).
//! - [`dispatch`] — a SOAP dispatcher that hosts any [`SoapService`] on
//!   the `wsrc-http` server.

pub mod amazon;
pub mod dispatch;
pub mod google;
pub mod news;
pub mod stock;

pub use dispatch::{SoapDispatcher, SoapService};
