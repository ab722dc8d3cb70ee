#![warn(missing_docs)]
#![forbid(unsafe_code)]

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
//!   propagated over the wire, [`trace::ActiveSpan`]s recorded against
//!   the registry's clock, and histogram exemplars linking aggregate
//!   buckets back to full span trees.
//! - [`sampler`] — the tail-sampling [`TraceStore`]: keeps error
//!   traces, the slowest-N per route, and a probabilistic sample of
//!   the rest, rendered as span trees for `GET /trace`.
//! - [`clock`] — the mockable time source; [`clock::ManualClock`] keeps
//!   TTL, timer and trace tests deterministic.
//! - `render` — Prometheus-style text exposition and a hand-rolled
//!   JSON renderer (the build environment is offline: no `prometheus`,
//!   no `serde`).
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
pub use render::{to_json, to_prometheus};
pub use sampler::{StoredTrace, TraceStore};
pub use stage::{Stage, Timing};
pub use trace::{TraceContext, Tracer, TRACEPARENT_HEADER};
