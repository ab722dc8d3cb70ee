#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Every cached call runs through this crate: errors propagate, and a
// poisoned lock is recovered via `wsrc_obs::sync`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! The paper's contribution: a transparent response cache for Web
//! services client middleware, with selectable cache-key and cache-value
//! data representations.
//!
//! - [`key`] — the three key-generation methods of Table 2/6:
//!   request XML message, binary ("Java") serialization, `toString`
//!   concatenation.
//! - [`repr`] — the six cache-value representations of Table 3/7:
//!   XML message, SAX events sequence, serialized form, reflection copy,
//!   clone copy, pass-by-reference. The last is the one object form the
//!   cache picks: values are copy-on-write, so sharing needs no
//!   immutability and no assertion; the two copy forms are measurement
//!   modes.
//! - [`policy`] — per-operation cacheability, TTL and optional forced
//!   representation, configured by the client-side administrator
//!   (paper §3.2).
//! - `classify` — the paper's §6 table for Java objects, for the
//!   reproduced tables; the cache itself stores the shared object unless
//!   the policy forces a form.
//! - `entry` — cache entries: one response under one stored form.
//! - [`store`] — the concurrent sharded cache table with TTL expiry and
//!   size-aware LRU eviction.
//! - `cache` — [`cache::ResponseCache`], the facade the client
//!   middleware plugs in.
//! - `stats` — hit/miss/eviction counters.

pub(crate) mod cache;
pub(crate) mod classify;
pub(crate) mod entry;
pub(crate) mod error;
pub mod key;
pub mod policy;
pub mod repr;
pub(crate) mod stats;
pub mod store;

// Remnant `benchmark/src/stack.rs` names; goes with ROADMAP item 1.
#[doc(hidden)]
pub use cache::AdaptivePolicy;
pub use cache::{CacheOutcome, CachedCall, ResponseCache, ResponseCacheBuilder, ResponseData};
pub use classify::paper_choice;
pub use entry::CacheEntry;
pub use error::CacheError;
pub use key::{CacheKey, KeyStrategy};
pub use policy::{CachePolicy, OperationPolicy};
pub use repr::{StoredResponse, ValueHandle, ValueRepresentation};
pub use stats::StatsSnapshot;
pub use store::{CacheStore, Capacity};
