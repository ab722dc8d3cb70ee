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
//! - [`dispatch`] — a SOAP dispatcher that hosts any [`SoapService`] on
//!   the `wsrc-http` server.

pub mod amazon;
pub mod dispatch;
pub mod google;

pub use dispatch::{SoapDispatcher, SoapService};

use std::sync::OnceLock;
use wsrc_model::typeinfo::TypeRegistry;

/// The services that keep a type registry.
#[derive(Debug, Clone, Copy)]
enum Service {
    Amazon,
    Google,
}

impl Service {
    /// One past the last variant: the length of [`registry_of`]'s table.
    const COUNT: usize = Service::Google as usize + 1;
}

/// `service`'s registry, made by `build` the first time it is asked for
/// and shared from then on: every response the service instantiates and
/// every client-side registry handed out carry one set of shapes and
/// names, so a decoded struct and a served one can share theirs.
fn registry_of(service: Service, build: fn() -> TypeRegistry) -> TypeRegistry {
    static REGISTRIES: [OnceLock<TypeRegistry>; Service::COUNT] =
        [const { OnceLock::new() }; Service::COUNT];
    REGISTRIES[service as usize].get_or_init(build).clone()
}
