//! Cache statistics — a thin view over `wsrc-obs` counters.
//!
//! Historically these were free-standing `AtomicU64`s; they are now
//! registered in a [`MetricsRegistry`] so the same numbers appear in the
//! `/metrics` exposition, labelled by cache and by representation. The
//! public [`snapshot`](CacheStats::snapshot)/[`StatsSnapshot`] API is
//! unchanged (plus per-representation breakdowns and
//! [`StatsSnapshot::to_json`]).

use crate::repr::ValueRepresentation;
use crate::store::EvictionSummary;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wsrc_obs::{Counter, MetricsRegistry};

/// Distinguishes caches sharing one registry: each cache built without
/// an explicit label gets `cache-0`, `cache-1`, …
static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(0);

/// Next auto-assigned `cache=<label>` value (`cache-0`, `cache-1`, …).
pub(crate) fn auto_label() -> String {
    format!("cache-{}", NEXT_CACHE_ID.fetch_add(1, Ordering::SeqCst))
}

/// Thread-safe hit/miss/eviction counters, labelled `cache=<label>` in
/// the owning registry; hits and inserts carry a `repr` label too.
#[derive(Debug)]
pub(crate) struct CacheStats {
    hits_by_repr: [Counter; ValueRepresentation::COUNT],
    inserts_by_repr: [Counter; ValueRepresentation::COUNT],
    misses: Counter,
    expired: Counter,
    evictions_expired: Counter,
    evictions_lru: Counter,
    uncacheable: Counter,
    store_failures: Counter,
    revalidated: Counter,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Lookups that found only an expired entry (counted in `misses` too).
    pub expired: u64,
    /// Entries stored.
    pub inserts: u64,
    /// Entries evicted for capacity (expired + live victims).
    pub evictions: u64,
    /// Evicted entries whose TTL had already lapsed (reaping).
    pub evictions_expired: u64,
    /// Evicted entries that were still live — true LRU displacement.
    pub evictions_lru: u64,
    /// Requests whose operation policy forbids caching.
    pub uncacheable: u64,
    /// Responses that could not be stored under any permitted
    /// representation.
    pub store_failures: u64,
    /// Stale entries renewed by a successful revalidation (304).
    pub revalidated: u64,
    /// Always 0: nothing converts a stored form any more. Kept because
    /// `benchmark/src/run.rs` reads it; goes with ROADMAP item 1.
    #[doc(hidden)]
    pub conversions: u64,
    /// Hits broken down by the stored entry's representation, indexed by
    /// `ValueRepresentation::index`.
    pub hits_by_repr: [u64; ValueRepresentation::COUNT],
    /// Inserts broken down by representation, same indexing.
    pub inserts_by_repr: [u64; ValueRepresentation::COUNT],
}

impl StatsSnapshot {
    /// Hit ratio over answered lookups (0.0 when nothing was looked up).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Hits for one representation.
    pub fn hits_for(&self, repr: ValueRepresentation) -> u64 {
        self.hits_by_repr[repr.index()]
    }

    /// Inserts for one representation.
    pub fn inserts_for(&self, repr: ValueRepresentation) -> u64 {
        self.inserts_by_repr[repr.index()]
    }

    /// Renders the snapshot as a JSON object (no external dependencies;
    /// the schema is documented in `EXPERIMENTS.md`).
    pub fn to_json(&self) -> String {
        let by_repr = |arr: &[u64; ValueRepresentation::COUNT]| -> String {
            ValueRepresentation::ALL_EXTENDED
                .iter()
                .map(|r| format!("\"{}\":{}", r.metric_label(), arr[r.index()]))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"hits\":{},\"misses\":{},\"expired\":{},\"inserts\":{},\
             \"evictions\":{},\"evictions_expired\":{},\"evictions_lru\":{},\
             \"uncacheable\":{},\"store_failures\":{},\
             \"revalidated\":{},\"hit_ratio\":{:.6},\
             \"hits_by_repr\":{{{}}},\"inserts_by_repr\":{{{}}}}}",
            self.hits,
            self.misses,
            self.expired,
            self.inserts,
            self.evictions,
            self.evictions_expired,
            self.evictions_lru,
            self.uncacheable,
            self.store_failures,
            self.revalidated,
            self.hit_ratio(),
            by_repr(&self.hits_by_repr),
            by_repr(&self.inserts_by_repr),
        )
    }
}

impl CacheStats {
    /// Counters registered in `registry` under `cache=<label>`.
    pub(crate) fn in_registry(registry: &Arc<MetricsRegistry>, label: &str) -> Self {
        let repr_counter = |name: &str, repr: ValueRepresentation| {
            registry.counter(name, &[("cache", label), ("repr", repr.metric_label())])
        };
        let counter = |name: &str| registry.counter(name, &[("cache", label)]);
        CacheStats {
            hits_by_repr: ValueRepresentation::ALL_EXTENDED
                .map(|r| repr_counter("wsrc_cache_hits_total", r)),
            inserts_by_repr: ValueRepresentation::ALL_EXTENDED
                .map(|r| repr_counter("wsrc_cache_inserts_total", r)),
            misses: counter("wsrc_cache_misses_total"),
            expired: counter("wsrc_cache_expired_total"),
            evictions_expired: registry.counter(
                "wsrc_cache_evictions_total",
                &[("cache", label), ("kind", "expired")],
            ),
            evictions_lru: registry.counter(
                "wsrc_cache_evictions_total",
                &[("cache", label), ("kind", "lru")],
            ),
            uncacheable: counter("wsrc_cache_uncacheable_total"),
            store_failures: counter("wsrc_cache_store_failures_total"),
            revalidated: counter("wsrc_cache_revalidated_total"),
        }
    }

    pub(crate) fn record_hit(&self, repr: ValueRepresentation) {
        self.hits_by_repr[repr.index()].inc();
    }
    pub(crate) fn record_miss(&self) {
        self.misses.inc();
    }
    pub(crate) fn record_expired(&self) {
        self.expired.inc();
    }
    pub(crate) fn record_insert(&self, repr: ValueRepresentation) {
        self.inserts_by_repr[repr.index()].inc();
    }
    pub(crate) fn record_evictions(&self, summary: EvictionSummary) {
        if summary.expired > 0 {
            self.evictions_expired.add(summary.expired);
        }
        if summary.live > 0 {
            self.evictions_lru.add(summary.live);
        }
    }
    pub(crate) fn record_uncacheable(&self) {
        self.uncacheable.inc();
    }
    pub(crate) fn record_store_failure(&self) {
        self.store_failures.inc();
    }
    pub(crate) fn record_revalidated(&self) {
        self.revalidated.inc();
    }

    /// Copies the counters.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let mut hits_by_repr = [0u64; ValueRepresentation::COUNT];
        let mut inserts_by_repr = [0u64; ValueRepresentation::COUNT];
        for i in 0..ValueRepresentation::COUNT {
            hits_by_repr[i] = self.hits_by_repr[i].value();
            inserts_by_repr[i] = self.inserts_by_repr[i].value();
        }
        let evictions_expired = self.evictions_expired.value();
        let evictions_lru = self.evictions_lru.value();
        StatsSnapshot {
            hits: hits_by_repr.iter().sum(),
            misses: self.misses.value(),
            expired: self.expired.value(),
            inserts: inserts_by_repr.iter().sum(),
            evictions: evictions_expired + evictions_lru,
            evictions_expired,
            evictions_lru,
            uncacheable: self.uncacheable.value(),
            store_failures: self.store_failures.value(),
            revalidated: self.revalidated.value(),
            hits_by_repr,
            inserts_by_repr,
            ..StatsSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn isolated() -> (Arc<MetricsRegistry>, CacheStats) {
        let registry = Arc::new(MetricsRegistry::new());
        let stats = CacheStats::in_registry(&registry, "test");
        (registry, stats)
    }

    #[test]
    fn counters_accumulate() {
        let (_r, s) = isolated();
        s.record_hit(ValueRepresentation::XmlMessage);
        s.record_hit(ValueRepresentation::ReflectionCopy);
        s.record_miss();
        s.record_expired();
        s.record_insert(ValueRepresentation::ReflectionCopy);
        s.record_evictions(EvictionSummary {
            expired: 1,
            live: 2,
        });
        s.record_uncacheable();
        s.record_store_failure();
        s.record_revalidated();
        let snap = s.snapshot();
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.expired, 1);
        assert_eq!(snap.inserts, 1);
        assert_eq!(snap.evictions, 3);
        assert_eq!(snap.evictions_expired, 1);
        assert_eq!(snap.evictions_lru, 2);
        assert_eq!(snap.uncacheable, 1);
        assert_eq!(snap.store_failures, 1);
        assert_eq!(snap.revalidated, 1);
        assert_eq!(snap.hits_for(ValueRepresentation::XmlMessage), 1);
        assert_eq!(snap.hits_for(ValueRepresentation::ReflectionCopy), 1);
        assert_eq!(snap.hits_for(ValueRepresentation::CloneCopy), 0);
        assert_eq!(snap.inserts_for(ValueRepresentation::ReflectionCopy), 1);
    }

    #[test]
    fn counters_are_visible_in_the_registry() {
        let (registry, s) = isolated();
        s.record_hit(ValueRepresentation::SaxEvents);
        s.record_miss();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value(
                "wsrc_cache_hits_total",
                &[("cache", "test"), ("repr", "sax-events")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("wsrc_cache_misses_total", &[("cache", "test")]),
            Some(1)
        );
    }

    #[test]
    fn hit_ratio_handles_zero() {
        assert_eq!(StatsSnapshot::default().hit_ratio(), 0.0);
        let snap = StatsSnapshot {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((snap.hit_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn json_rendering_is_wellformed_and_complete() {
        let (_r, s) = isolated();
        s.record_hit(ValueRepresentation::CloneCopy);
        s.record_miss();
        let json = s.snapshot().to_json();
        assert!(json.contains("\"hits\":1"));
        assert!(json.contains("\"misses\":1"));
        assert!(json.contains("\"evictions_expired\":0"));
        assert!(json.contains("\"evictions_lru\":0"));
        assert!(json.contains("\"hit_ratio\":0.5"));
        assert!(json.contains("\"clone-copy\":1"));
        assert!(json.contains("\"hits_by_repr\":{"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // All seven representations appear in both breakdowns.
        for repr in ValueRepresentation::ALL_EXTENDED {
            assert_eq!(json.matches(repr.metric_label()).count(), 2, "{repr}");
        }
    }
}
