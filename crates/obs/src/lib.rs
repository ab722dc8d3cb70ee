#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_types,
    reason = "counters, histograms, the tracer and the lock witness are shared mutable state by design; no cached value holds one"
)]

//! `wsrc-obs` — a dependency-free observability layer.
//!
//! The paper's core claim is quantitative: caching a *better* data
//! representation removes measurable per-stage costs — parsing,
//! deserialization, copying (Takase & Tatsubori, ICDCS'04, Tables 6–9).
//! This crate provides the instrumentation substrate that lets every
//! other crate in the workspace attribute time and traffic to a stage
//! and a representation:
//!
//! - `metrics` — a [`MetricsRegistry`] of named atomic counters,
//!   gauges and fixed log2-bucket latency histograms. Recording is
//!   lock-free (plain atomics); only registration takes a lock, so hot
//!   paths pre-register handles. The registry is also the one handle
//!   through which time and traces enter a component: it owns its
//!   [`Clock`] and the [`Tracer`] over it.
//! - `stage` — [`Stage`], the one way to time a stage: one clock
//!   reading at entry and one at exit make both the histogram sample
//!   and, under an active trace, the span.
//! - [`trace`] — per-request distributed tracing: a [`TraceContext`]
//!   propagated over the wire and [`trace::ActiveSpan`]s recorded
//!   against the registry's clock.
//! - [`sampler`] — the [`TraceStore`]: the last 64 traces, one entry
//!   per trace id, rendered as span trees for `GET /trace`.
//! - [`clock`] — the mockable time source; [`clock::ManualClock`] keeps
//!   TTL, timer and trace tests deterministic.
//! - `render` — the Prometheus-style text exposition (the build
//!   environment is offline: no `prometheus` crate).
//! - [`mod@global`] — the process-wide default registry: where any
//!   cache, client or server built without a registry of its own
//!   records.
//! - [`sync`] — poison-tolerant `Mutex`/`Condvar` helpers so hot paths
//!   stay panic-free (`clippy::unwrap_used` is denied there) without
//!   sprinkling `unwrap_or_else(PoisonError::into_inner)` everywhere.

pub mod clock;
pub mod global;
pub(crate) mod metrics;
pub(crate) mod render;
pub mod sampler;
pub(crate) mod stage;
pub mod sync;
pub mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use global::global;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricId, MetricsRegistry, MetricsSnapshot,
};
pub use render::to_prometheus;
pub use sampler::{StoredTrace, TraceStore};
pub use stage::{Stage, Timing};
pub use trace::{TraceContext, Tracer, TRACEPARENT_HEADER};
