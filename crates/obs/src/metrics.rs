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
pub const BUCKETS: usize = 40;

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
    pub fn render_labels_with_extra(&self, extra: &[(&str, &str)]) -> String {
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
            out.push_str(&v.replace('\\', "\\\\").replace('"', "\\\""));
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
pub struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    // Exemplars: the last trace id (128-bit, split across two cells)
    // that landed in each bucket. Best-effort — a concurrent pair of
    // writers can interleave hi/lo, which at worst yields a stale or
    // mixed id; exemplars are debugging breadcrumbs, not ground truth.
    exemplar_hi: [AtomicU64; BUCKETS],
    exemplar_lo: [AtomicU64; BUCKETS],
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            exemplar_hi: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplar_lo: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The bucket a sample of `nanos` falls into.
    pub fn bucket_index(nanos: u64) -> usize {
        if nanos <= 1 {
            0
        } else {
            let i = 64 - (nanos - 1).leading_zeros() as usize;
            i.min(BUCKETS - 1)
        }
    }

    /// The inclusive upper bound of bucket `i` in nanoseconds, or `None`
    /// for the unbounded last bucket.
    pub fn bucket_bound_nanos(i: usize) -> Option<u64> {
        if i + 1 < BUCKETS {
            Some(1u64 << i)
        } else {
            None
        }
    }

    fn record_nanos(&self, nanos: u64, trace_id: u128) {
        let i = Self::bucket_index(nanos);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        if trace_id != 0 {
            self.exemplar_hi[i].store((trace_id >> 64) as u64, Ordering::Relaxed);
            self.exemplar_lo[i].store(trace_id as u64, Ordering::Relaxed);
        }
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
            exemplars: (0..BUCKETS)
                .map(|i| {
                    let hi = self.exemplar_hi[i].load(Ordering::Relaxed) as u128;
                    let lo = self.exemplar_lo[i].load(Ordering::Relaxed) as u128;
                    (hi << 64) | lo
                })
                .collect(),
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
    /// Records one sample, lock-free. When the recording thread is
    /// inside a sampled trace span ([`crate::trace`]), the sample's
    /// bucket remembers that trace id as its exemplar.
    pub fn record_nanos(&self, nanos: u64) {
        self.core
            .record_nanos(nanos, crate::trace::current_trace_id());
    }

    /// Records one sample with an explicit exemplar trace id (0 for
    /// none), for callers that carry a context across threads.
    pub fn record_nanos_with_exemplar(&self, nanos: u64, trace_id: u128) {
        self.core.record_nanos(nanos, trace_id);
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
    /// Per-bucket exemplar trace ids (0 = no exemplar). May be empty
    /// for snapshots built by hand; index-aligned with `buckets`.
    pub exemplars: Vec<u128>,
}

impl HistogramSnapshot {
    /// The quantile `q` in `[0, 1]`, reported as the upper bound of the
    /// bucket containing it (0 when empty). The unbounded last bucket
    /// reports its lower bound.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return HistogramCore::bucket_bound_nanos(i).unwrap_or(1u64 << (BUCKETS - 2));
            }
        }
        1u64 << (BUCKETS - 2)
    }

    /// Median upper bound in nanoseconds.
    pub fn p50_nanos(&self) -> u64 {
        self.quantile_nanos(0.50)
    }

    /// 99th-percentile upper bound in nanoseconds.
    pub fn p99_nanos(&self) -> u64 {
        self.quantile_nanos(0.99)
    }

    /// 99.9th-percentile upper bound in nanoseconds — the SLO tail the
    /// loadgen summary reports alongside p50/p99.
    pub fn p999_nanos(&self) -> u64 {
        self.quantile_nanos(0.999)
    }

    /// The exemplar trace id of bucket `i` (0 when none was recorded).
    pub fn exemplar(&self, i: usize) -> u128 {
        self.exemplars.get(i).copied().unwrap_or(0)
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> u64 {
        self.sum_nanos.checked_div(self.count).unwrap_or(0)
    }
}

/// A point-in-time copy of a whole registry (or several merged).
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

    /// Sums counters named `name` grouped by the value of label `key`
    /// (e.g. hits by `repr` across several caches).
    pub fn sum_counters_by_label(&self, name: &str, key: &str) -> Vec<(String, u64)> {
        let mut by: BTreeMap<String, u64> = BTreeMap::new();
        for (id, v) in &self.counters {
            if id.name == name {
                if let Some(label) = id.label(key) {
                    *by.entry(label.to_string()).or_insert(0) += v;
                }
            }
        }
        by.into_iter().collect()
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
    fn histogram_quantiles_from_buckets() {
        let r = MetricsRegistry::new();
        let h = r.histogram("stage_seconds", &[("stage", "parse")]);
        for _ in 0..99 {
            h.record_nanos(1000); // bucket bound 1024
        }
        h.record_nanos(1_000_000); // one slow outlier
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.p50_nanos(), 1024);
        assert_eq!(snap.p99_nanos(), 1024);
        assert_eq!(snap.p999_nanos(), 1 << 20);
        assert_eq!(snap.quantile_nanos(1.0), 1 << 20);
        assert!(snap.mean_nanos() > 1000 && snap.mean_nanos() < 1_000_000);
    }

    #[test]
    fn exemplars_remember_the_last_trace_id_per_bucket() {
        let r = MetricsRegistry::new();
        let h = r.histogram("stage_seconds", &[]);
        h.record_nanos_with_exemplar(1000, 0xabcd);
        h.record_nanos_with_exemplar(1000, 0xef01);
        h.record_nanos_with_exemplar(1_000_000, 7);
        h.record_nanos(500_000); // no trace context: keeps prior exemplar
        let snap = h.snapshot();
        let fast = HistogramCore::bucket_index(1000);
        let slow = HistogramCore::bucket_index(1_000_000);
        assert_eq!(snap.exemplar(fast), 0xef01, "last writer wins");
        assert_eq!(snap.exemplar(slow), 7);
        assert_eq!(snap.exemplar(0), 0, "untouched bucket has none");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let snap = HistogramSnapshot::default();
        assert_eq!(snap.p50_nanos(), 0);
        assert_eq!(snap.mean_nanos(), 0);
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
    fn grouping_by_label_sums_across_ids() {
        let r = MetricsRegistry::new();
        r.counter("hits", &[("cache", "a"), ("repr", "xml-text")])
            .add(2);
        r.counter("hits", &[("cache", "b"), ("repr", "xml-text")])
            .add(3);
        r.counter("hits", &[("cache", "a"), ("repr", "sax-events")])
            .add(1);
        let by_repr = r.snapshot().sum_counters_by_label("hits", "repr");
        assert_eq!(
            by_repr,
            vec![("sax-events".to_string(), 1), ("xml-text".to_string(), 5)]
        );
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
