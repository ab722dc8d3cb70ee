//! The metrics registry: named atomic counters, gauges, and fixed
//! log2-bucket latency histograms.
//!
//! Recording through a handle ([`Counter::inc`], [`Gauge::set`],
//! [`Histogram::record_nanos`]) is lock-free — plain relaxed atomics.
//! Only *registration* (get-or-create by name + labels) takes a mutex,
//! so hot paths register once and keep the handle (a cheap `Arc` clone)
//! in a struct field.

use crate::clock::{Clock, MonotonicClock};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket `i` counts samples with a value
/// of at most 2^i nanoseconds; the last bucket is unbounded (+Inf).
/// 2^38 ns ≈ 275 s, far beyond any per-request stage.
pub(crate) const BUCKETS: usize = 40;

/// A metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    /// Metric name (Prometheus conventions: `snake_case`, unit suffix).
    pub name: String,
    /// Label pairs, sorted by key for a stable identity and rendering.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Builds an id, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    /// The value of one label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Renders `{k="v",…}` (empty string when there are no labels).
    pub fn render_labels(&self) -> String {
        self.render_labels_with_extra(&[])
    }

    /// Renders labels with extra pairs appended (used for `le`).
    pub(crate) fn render_labels_with_extra(&self, extra: &[(&str, &str)]) -> String {
        if self.labels.is_empty() && extra.is_empty() {
            return String::new();
        }
        let mut out = String::from("{");
        let mut first = true;
        for (k, v) in self
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra.iter().copied())
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(
                &v.replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n"),
            );
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge handle (a value that can go up and down).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Shared histogram state. All fields are atomics: `record` never locks.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// The bucket a sample of `nanos` falls into.
    pub(crate) fn bucket_index(nanos: u64) -> usize {
        if nanos <= 1 {
            0
        } else {
            let i = 64 - (nanos - 1).leading_zeros() as usize;
            i.min(BUCKETS - 1)
        }
    }

    /// The inclusive upper bound of bucket `i` in nanoseconds, or `None`
    /// for the unbounded last bucket.
    pub(crate) fn bucket_bound_nanos(i: usize) -> Option<u64> {
        if i + 1 < BUCKETS {
            Some(1u64 << i)
        } else {
            None
        }
    }

    fn record_nanos(&self, nanos: u64) {
        self.buckets[Self::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A latency histogram handle. Intervals are timed through a
/// [`crate::Stage`] over it.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.core.count)
            .finish()
    }
}

impl Histogram {
    /// Records one sample, lock-free.
    pub fn record_nanos(&self, nanos: u64) {
        self.core.record_nanos(nanos);
    }

    /// Point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core.snapshot()
    }
}

#[derive(Debug)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

/// A registry of metrics, keyed by name + labels — and the one handle
/// through which time, metrics and traces enter a component: it owns
/// the [`Clock`] its histograms time against and the [`Tracer`] built
/// over that same clock, so whatever is handed a registry puts its TTLs,
/// its samples and its spans on one axis.
pub struct MetricsRegistry {
    clock: Arc<dyn Clock>,
    tracer: Arc<Tracer>,
    slots: Mutex<BTreeMap<MetricId, Slot>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MetricsRegistry({} metrics)",
            crate::sync::lock_class("MetricsRegistry.slots", &self.slots).len()
        )
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A registry over a fresh [`MonotonicClock`].
    pub fn new() -> Self {
        MetricsRegistry::with_clock(MonotonicClock::new())
    }

    /// A registry over the given clock — tests pass a
    /// [`crate::clock::ManualClock`] handle for deterministic durations,
    /// expiries and span trees.
    pub fn with_clock(clock: impl Clock + 'static) -> Self {
        let clock: Arc<dyn Clock> = Arc::new(clock);
        MetricsRegistry {
            tracer: Tracer::new(clock.clone()),
            clock,
            slots: Mutex::new(BTreeMap::new()),
        }
    }

    /// The clock this registry's histograms, its tracer and every
    /// component built over it read.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The tracer over [`clock`](MetricsRegistry::clock): where a
    /// component handed this registry records its spans, and what
    /// `GET /trace` renders.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Gets or creates a counter.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered as a different kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = MetricId::new(name, labels);
        let mut slots = crate::sync::lock_class("MetricsRegistry.slots", &self.slots);
        let slot = slots
            .entry(id)
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(cell) => Counter { cell: cell.clone() },
            _ => panic!("metric '{name}' is already registered as a different kind"),
        }
    }

    /// Gets or creates a gauge.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered as a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = MetricId::new(name, labels);
        let mut slots = crate::sync::lock_class("MetricsRegistry.slots", &self.slots);
        let slot = slots
            .entry(id)
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicI64::new(0))));
        match slot {
            Slot::Gauge(cell) => Gauge { cell: cell.clone() },
            _ => panic!("metric '{name}' is already registered as a different kind"),
        }
    }

    /// Gets or creates a latency histogram.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered as a different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let id = MetricId::new(name, labels);
        let mut slots = crate::sync::lock_class("MetricsRegistry.slots", &self.slots);
        let slot = slots
            .entry(id)
            .or_insert_with(|| Slot::Histogram(Arc::new(HistogramCore::new())));
        match slot {
            Slot::Histogram(core) => Histogram { core: core.clone() },
            _ => panic!("metric '{name}' is already registered as a different kind"),
        }
    }

    /// A point-in-time copy of every metric. Values are read with
    /// relaxed loads — the snapshot is consistent per metric, not
    /// across metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = crate::sync::lock_class("MetricsRegistry.slots", &self.slots);
        let mut snap = MetricsSnapshot::default();
        for (id, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => snap.counters.push((id.clone(), c.load(Ordering::Relaxed))),
                Slot::Gauge(g) => snap.gauges.push((id.clone(), g.load(Ordering::Relaxed))),
                Slot::Histogram(h) => snap.histograms.push((id.clone(), h.snapshot())),
            }
        }
        snap
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, Default)]
pub struct HistogramSnapshot {
    /// Non-cumulative bucket counts (`BUCKETS` entries).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_nanos: u64,
}

/// A point-in-time copy of a whole registry; each list is sorted by
/// [`MetricId`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauge values.
    pub gauges: Vec<(MetricId, i64)>,
    /// Histogram states.
    pub histograms: Vec<(MetricId, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The value of one counter, if present.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let id = MetricId::new(name, labels);
        self.counters
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, v)| *v)
    }

    /// One histogram, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        let id = MetricId::new(name, labels);
        self.histograms
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = MetricsRegistry::new();
        let c = r.counter("requests_total", &[("op", "get")]);
        c.inc();
        c.add(2);
        assert_eq!(c.value(), 3);
        // Same id → same cell.
        assert_eq!(r.counter("requests_total", &[("op", "get")]).value(), 3);
        // Label order does not matter.
        let c2 = r.counter("x", &[("a", "1"), ("b", "2")]);
        c2.inc();
        assert_eq!(r.counter("x", &[("b", "2"), ("a", "1")]).value(), 1);

        let g = r.gauge("entries", &[]);
        g.set(10);
        g.add(-3);
        assert_eq!(g.value(), 7);
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(HistogramCore::bucket_index(0), 0);
        assert_eq!(HistogramCore::bucket_index(1), 0);
        assert_eq!(HistogramCore::bucket_index(2), 1);
        assert_eq!(HistogramCore::bucket_index(3), 2);
        assert_eq!(HistogramCore::bucket_index(1024), 10);
        assert_eq!(HistogramCore::bucket_index(1025), 11);
        assert_eq!(HistogramCore::bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(HistogramCore::bucket_bound_nanos(10), Some(1024));
        assert_eq!(HistogramCore::bucket_bound_nanos(BUCKETS - 1), None);
    }

    #[test]
    fn snapshot_covers_all_kinds() {
        let r = MetricsRegistry::new();
        r.counter("c", &[]).inc();
        r.gauge("g", &[]).set(5);
        r.histogram("h", &[]).record_nanos(10);
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("c", &[]), Some(1));
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.histogram("h", &[]).unwrap().count, 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("dual", &[]);
        r.histogram("dual", &[]);
    }

    #[test]
    fn recording_is_concurrent_safe() {
        let r = std::sync::Arc::new(MetricsRegistry::new());
        let c = r.counter("n", &[]);
        let h = r.histogram("t", &[]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.record_nanos(i);
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
        assert_eq!(h.snapshot().count, 8000);
    }
}
