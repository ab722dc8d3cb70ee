//! [`ResponseCache`] — the facade the client middleware plugs in.
//!
//! On each call the middleware resolves the request once
//! ([`ResponseCache::call`]: policy probe and key render) and asks the
//! handle first ([`CachedCall::lookup`]); on a miss it performs the real
//! exchange and hands the artifacts to [`CachedCall::insert`].
//! [`ResponseCache::lookup`] and [`ResponseCache::insert`] are the same
//! steps for a caller that has only one of them to make. Keying,
//! representation selection, per-operation policy and TTL all live
//! here, so the client application "does not need to be at all
//! conscious of how the response data is cached" (paper §6).
//!
//! # One call in [`TIME_ONE_CALL_IN`] is timed
//!
//! Every hit and miss is counted, but the `keygen`, `lookup` and
//! `retrieve` histograms are fed by the timed calls only: every traced
//! call, and one untraced call in [`TIME_ONE_CALL_IN`] on each thread,
//! picked by a per-thread counter whatever its lookup then finds, so the
//! samples are hits and misses in the proportion the calls are. An
//! untimed call renders its key without reading the clock and reads it
//! once at its lookup, for the TTL; a hit costs no other reading. Only
//! misses reach an insert, and every insert is timed.

#![expect(
    clippy::disallowed_types,
    reason = "a `CachedCall` carries its keygen reading between its own stages, and the per-thread timing counter; neither is ever stored"
)]

use crate::entry::CacheEntry;
use crate::error::CacheError;
use crate::key::{render_first_applicable, RenderedKey};
use crate::policy::{CachePolicy, OperationPolicy};
use crate::repr::{StoredResponse, ValueHandle, ValueRepresentation};
use crate::stats::{CacheStats, StatsSnapshot};
use crate::store::{CacheStore, Capacity, Lookup};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;
use wsrc_model::typeinfo::{FieldType, TypeRegistry};
use wsrc_obs::{Gauge, MetricsRegistry, Stage};
use wsrc_soap::rpc::RpcRequest;

pub use crate::repr::MissArtifacts as ResponseData;

/// One untraced call in this many, per thread, is timed (see the module
/// docs); every other hit reads the clock once and records no sample.
/// 64 keeps the cost of timing under 2 % of a hit while a second of
/// 100 000 hits still feeds each histogram about 1 500 samples.
pub const TIME_ONE_CALL_IN: u32 = 64;

thread_local! {
    /// Untraced calls left on this thread before the next timed one.
    static UNTIMED_LEFT: Cell<u32> = const { Cell::new(0) };
}

/// Whether the call starting now is timed: a traced one always, else
/// the first on each thread and one in [`TIME_ONE_CALL_IN`] after it.
fn timed_call() -> bool {
    if wsrc_obs::trace::active() {
        return true;
    }
    UNTIMED_LEFT
        .try_with(|left| match left.get() {
            0 => {
                left.set(TIME_ONE_CALL_IN - 1);
                true
            }
            n => {
                left.set(n - 1);
                false
            }
        })
        .unwrap_or(true)
}

/// Detailed result of [`ResponseCache::lookup_detailed`].
#[derive(Debug)]
pub enum CacheOutcome {
    /// A fresh entry answered the lookup.
    Fresh {
        /// The retrieved application object.
        handle: ValueHandle,
    },
    /// An expired entry with a revalidation token is available: the
    /// caller may revalidate (e.g. with `If-Modified-Since`) and either
    /// [`CachedCall::refresh`] the entry or replace it.
    Stale {
        /// The stale application object (usable if revalidation
        /// succeeds).
        handle: ValueHandle,
        /// The revalidation token stored with the entry. Shared with the
        /// store (`Arc<str>`) so stale lookups never copy the token.
        validator: Arc<str>,
    },
    /// Nothing usable is cached.
    Miss,
}

/// Per-stage timers and occupancy gauges for one cache, all registered
/// under its `cache=<label>` in a [`MetricsRegistry`]. Adjacent stages
/// share boundary readings: keygen ends where lookup starts, retrieve
/// ends where lookup ends, build starts where insert starts.
struct CacheTimers {
    /// `wsrc_cache_stage_seconds{stage="keygen"}`.
    keygen: Stage,
    /// `wsrc_cache_stage_seconds{stage="lookup"}` — store read and
    /// retrieve; disjoint from `keygen`. Traced as `cache-lookup`,
    /// annotated with the outcome.
    lookup: Stage,
    /// `wsrc_cache_stage_seconds{stage="insert"}` — build and store
    /// write; disjoint from `keygen`. Traced as `cache-build`.
    insert: Stage,
    /// `wsrc_cache_retrieve_seconds{repr=…}` — stored form → object.
    retrieve: [Stage; ValueRepresentation::COUNT],
    /// `wsrc_cache_build_seconds{repr=…}` — response artifacts → stored
    /// form (only the successful representation records a sample).
    build: [Stage; ValueRepresentation::COUNT],
    /// `wsrc_cache_entries` / `wsrc_cache_bytes` occupancy gauges.
    entries: Gauge,
    bytes: Gauge,
}

impl CacheTimers {
    fn new(registry: &Arc<MetricsRegistry>, label: &str) -> Self {
        let stage = |s: &str| {
            Stage::new(
                registry,
                "wsrc_cache_stage_seconds",
                &[("cache", label), ("stage", s)],
            )
        };
        let per_repr = |name: &str| {
            ValueRepresentation::ALL_EXTENDED.map(|r| {
                Stage::new(
                    registry,
                    name,
                    &[("cache", label), ("repr", r.metric_label())],
                )
            })
        };
        CacheTimers {
            keygen: stage("keygen"),
            lookup: stage("lookup").traced("cache-lookup", "lookup"),
            insert: stage("insert").traced("cache-build", "build"),
            retrieve: per_repr("wsrc_cache_retrieve_seconds"),
            build: per_repr("wsrc_cache_build_seconds"),
            entries: registry.gauge("wsrc_cache_entries", &[("cache", label)]),
            bytes: registry.gauge("wsrc_cache_bytes", &[("cache", label)]),
        }
    }
}

/// The response cache for Web services client middleware.
pub struct ResponseCache {
    store: CacheStore,
    policy: CachePolicy,
    registry: TypeRegistry,
    metrics: Arc<MetricsRegistry>,
    stats: CacheStats,
    timers: CacheTimers,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseCache")
            .field("entries", &self.store.len())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

impl ResponseCache {
    /// Starts building a cache; the type registry is the only mandatory
    /// ingredient.
    pub fn builder(registry: TypeRegistry) -> ResponseCacheBuilder {
        ResponseCacheBuilder {
            registry,
            policy: CachePolicy::new(),
            capacity: Capacity::default(),
            metrics: None,
            metrics_label: None,
        }
    }

    /// Resolves `request` against this cache once: probes the
    /// operation's policy and renders the cache key, the two things
    /// every later step of the call needs. `None` when the cache takes
    /// no part in the call — the policy excludes the operation, or no
    /// key method applies to the request — which is counted once, as
    /// uncacheable; the caller performs a plain exchange.
    pub fn call(&self, endpoint_url: &str, request: &RpcRequest) -> Option<CachedCall<'_>> {
        let policy = self.policy.for_operation(&request.operation);
        if !policy.cacheable {
            self.stats.record_uncacheable();
            return None;
        }
        let render = || render_first_applicable(endpoint_url, request, &self.registry);
        let timed = timed_call();
        let (key, keyed) = if timed {
            let timing = self.timers.keygen.start(None);
            let key = render();
            (key, Some(timing.end(None)))
        } else {
            (render(), None)
        };
        let Ok(key) = key else {
            self.stats.record_uncacheable();
            return None;
        };
        Some(CachedCall {
            cache: self,
            policy,
            key,
            timed,
            keyed: Cell::new(keyed),
        })
    }

    /// Looks up the response for `request`, returning the application
    /// object on a hit.
    ///
    /// Misses, expired entries and uncacheable operations all return
    /// `None`; the caller performs the real exchange.
    pub fn lookup(
        &self,
        endpoint_url: &str,
        request: &RpcRequest,
        expected: &FieldType,
    ) -> Option<ValueHandle> {
        match self.lookup_detailed(endpoint_url, request, expected) {
            CacheOutcome::Fresh { handle, .. } => Some(handle),
            // Without a revalidating caller a stale entry is a miss.
            CacheOutcome::Stale { .. } | CacheOutcome::Miss => None,
        }
    }

    /// Like [`lookup`](ResponseCache::lookup) but distinguishes stale
    /// entries that can be revalidated (paper §3.2's HTTP consistency
    /// mechanism applied to the response cache):
    /// [`call`](ResponseCache::call) then [`CachedCall::lookup`].
    pub fn lookup_detailed(
        &self,
        endpoint_url: &str,
        request: &RpcRequest,
        expected: &FieldType,
    ) -> CacheOutcome {
        match self.call(endpoint_url, request) {
            Some(call) => call.lookup(expected),
            None => CacheOutcome::Miss,
        }
    }

    /// Stores the artifacts of a completed exchange. Returns the
    /// representation actually used, or `None` when nothing was stored:
    /// the operation is uncacheable, the response could not be keyed or
    /// built, or the store refused it as larger than a shard's byte
    /// budget (counted in `store_failures`; the superseded entry, if
    /// any, is gone).
    pub fn insert(
        &self,
        endpoint_url: &str,
        request: &RpcRequest,
        data: ResponseData<'_>,
    ) -> Option<ValueRepresentation> {
        self.insert_validated(endpoint_url, request, data, None)
    }

    /// [`insert`](ResponseCache::insert) with a revalidation token
    /// (typically the response's `Last-Modified` header):
    /// [`call`](ResponseCache::call) then [`CachedCall::insert`].
    pub fn insert_validated(
        &self,
        endpoint_url: &str,
        request: &RpcRequest,
        data: ResponseData<'_>,
        validator: Option<String>,
    ) -> Option<ValueRepresentation> {
        self.call(endpoint_url, request)?.insert(data, validator)
    }

    /// Publishes the store's totals — two atomic loads; the insert that
    /// moved them locked only the shard it wrote.
    fn set_occupancy_gauges(&self) {
        let (entries, bytes) = self.store.occupancy();
        self.timers.entries.set(entries as i64);
        self.timers.bytes.set(bytes as i64);
    }

    /// Builds the entry under the form the policy forces, else the
    /// shared object (which every value supports), falling back down
    /// the always-applicable chain when a forced form is n/a for this
    /// value. The first attempt starts at `started`, the insert's start.
    fn build_entry(
        &self,
        policy: &OperationPolicy,
        data: ResponseData<'_>,
        started: u64,
    ) -> Option<(CacheEntry, ValueRepresentation)> {
        let chain = [
            preferred_form(policy),
            ValueRepresentation::SaxEvents,
            ValueRepresentation::XmlMessage,
        ];
        let mut started = Some(started);
        for repr in chain {
            // Failed attempts are dropped unrecorded — the histogram
            // measures the cost of the representation actually used.
            let timing = self.timers.build[repr.index()].start(started.take());
            match StoredResponse::build(repr, data, &self.registry) {
                Ok(stored) => {
                    timing.end(None);
                    return Some((CacheEntry::single(stored), repr));
                }
                Err(CacheError::NotApplicable(_)) => continue,
                Err(_) => break,
            }
        }
        self.stats.record_store_failure();
        None
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Number of live-or-expired entries currently stored.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Approximate bytes used by stored entries.
    pub fn bytes(&self) -> usize {
        self.store.bytes()
    }

    /// Cross-checks the store's incremental accounting against a
    /// recount ([`CacheStore::audit`](crate::store::CacheStore::audit));
    /// for tests and stress harnesses.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn audit(&self) -> Result<(), String> {
        self.store.audit()
    }

    /// Drops every entry.
    pub fn clear(&self) {
        self.store.clear();
        self.set_occupancy_gauges();
    }

    /// The metrics registry this cache records into (the process-wide
    /// one unless overridden at build time) — hand it to a `/metrics`
    /// endpoint for exposition. Its clock is the one entries expire by,
    /// and a client over this cache records its stages here too.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }
}

/// The form an entry is built under first: the one the policy forces,
/// else the shared object.
fn preferred_form(policy: &OperationPolicy) -> ValueRepresentation {
    policy
        .representation
        .unwrap_or(ValueRepresentation::PassByReference)
}

/// One call's view of a [`ResponseCache`]: the operation's policy and
/// the request's key, resolved once by [`ResponseCache::call`]. That the
/// lookup, the insert and the refresh of one call agree on both is held
/// by this type rather than by each step deriving them again. The key
/// lives in the thread's scratch until the call is dropped; the store
/// copies it only if the call inserts a new entry.
#[derive(Debug)]
pub struct CachedCall<'a> {
    cache: &'a ResponseCache,
    policy: OperationPolicy,
    key: RenderedKey,
    /// Whether this call's stages are timed (see the module docs).
    timed: bool,
    /// Keygen's end reading, until the stage that directly follows it
    /// (a lookup, or an insert with no lookup before it) starts there.
    keyed: Cell<Option<u64>>,
}

impl CachedCall<'_> {
    /// Saturating: a TTL beyond the clock's range never expires rather
    /// than wrapping to an arbitrary lifetime.
    fn expires_at(&self, now_millis: u64) -> u64 {
        let ttl = u64::try_from(self.policy.ttl.as_millis()).unwrap_or(u64::MAX);
        now_millis.saturating_add(ttl)
    }

    /// Whether the form this call's entry is built under keeps the
    /// response's SAX events (`sax-events`, `dom-tree`) — the one case
    /// where recording them while the miss is decoded pays. A form that
    /// needs them and finds none (a fallback down the chain) records them
    /// from the XML instead, so this is a hint, never a condition of
    /// correctness.
    pub fn keeps_events(&self) -> bool {
        matches!(
            preferred_form(&self.policy),
            ValueRepresentation::SaxEvents | ValueRepresentation::DomTree
        )
    }

    /// Reads the store and retrieves the application object from the
    /// stored form; `expected` is the operation's return type. Expiry
    /// is judged at the lookup's start reading — on an untimed call the
    /// only reading the lookup takes, and it records no sample.
    pub fn lookup(&self, expected: &FieldType) -> CacheOutcome {
        let cache = self.cache;
        let timing = self
            .timed
            .then(|| cache.timers.lookup.start(self.keyed.take()));
        let now = match &timing {
            Some(timing) => timing.started(),
            None => cache.metrics.clock().now_nanos(),
        };
        let timed = timing.is_some();
        // A successful timed retrieve's end reading is the lookup's end.
        let mut ended = None;
        // The entry's object and the form it came from; an entry that
        // cannot produce its object is poison — dropped, and a miss.
        let mut retrieve = |entry: CacheEntry| {
            let repr = entry.form().representation();
            let retrieving = timed.then(|| cache.timers.retrieve[repr.index()].start(None));
            let handle = entry.into_form().into_handle(expected, &cache.registry);
            if let Some(retrieving) = retrieving {
                let end = retrieving.end(None);
                ended = handle.is_ok().then_some(end);
            }
            match handle {
                Ok(handle) => Some((handle, repr)),
                Err(_) => {
                    cache.store.invalidate_ref(self.key.as_ref());
                    cache.stats.record_miss();
                    None
                }
            }
        };
        let outcome = match cache.store.get_ref(self.key.as_ref(), now / 1_000_000) {
            Lookup::Live(entry) => match retrieve(entry) {
                Some((handle, repr)) => {
                    cache.stats.record_hit(repr);
                    CacheOutcome::Fresh { handle }
                }
                None => CacheOutcome::Miss,
            },
            Lookup::Stale { entry, validator } => match retrieve(entry) {
                Some((handle, _)) => {
                    cache.stats.record_expired();
                    CacheOutcome::Stale { handle, validator }
                }
                None => CacheOutcome::Miss,
            },
            Lookup::Expired => {
                cache.stats.record_expired();
                cache.stats.record_miss();
                CacheOutcome::Miss
            }
            Lookup::Absent => {
                cache.stats.record_miss();
                CacheOutcome::Miss
            }
        };
        if let Some(mut timing) = timing {
            // A `/trace` reader tells hits from misses without
            // cross-referencing metrics.
            timing.annotate(match &outcome {
                CacheOutcome::Fresh { .. } => "outcome=hit",
                CacheOutcome::Stale { .. } => "outcome=stale",
                CacheOutcome::Miss => "outcome=miss",
            });
            timing.end(ended);
        }
        outcome
    }

    /// Stores the artifacts of the call's completed exchange under its
    /// key, with an optional revalidation token (typically the
    /// response's `Last-Modified` header). Entries with a token become
    /// *stale* instead of vanishing at TTL expiry, enabling the
    /// `If-Modified-Since`/304 handshake. Returns the representation
    /// used, or `None` when nothing was stored
    /// ([`ResponseCache::insert`] lists the reasons).
    pub fn insert(
        self,
        data: ResponseData<'_>,
        validator: Option<String>,
    ) -> Option<ValueRepresentation> {
        let cache = self.cache;
        // Build starts, and the entry's TTL runs, from the insert's start.
        let timing = cache.timers.insert.start(self.keyed.take());
        let now = timing.started() / 1_000_000;
        let expires = self.expires_at(now);
        let built = cache.build_entry(&self.policy, data, timing.started());
        let stored = built.and_then(|(entry, repr)| {
            let accepted =
                cache
                    .store
                    .put_validated(self.key.as_ref(), entry, expires, now, validator);
            cache.set_occupancy_gauges();
            match accepted {
                Some(evicted) => {
                    cache.stats.record_insert(repr);
                    cache.stats.record_evictions(evicted);
                    Some(repr)
                }
                None => {
                    cache.stats.record_store_failure();
                    None
                }
            }
        });
        timing.end(None);
        stored
    }

    /// Renews the TTL of the call's (stale) entry after a successful
    /// revalidation (e.g. a `304 Not Modified` response). Returns
    /// whether an entry was refreshed.
    pub fn refresh(&self) -> bool {
        let cache = self.cache;
        let expires = self.expires_at(cache.metrics.clock().now_millis());
        let refreshed = cache.store.refresh(self.key.as_ref(), expires);
        if refreshed {
            cache.stats.record_revalidated();
        }
        refreshed
    }
}

/// What [`ResponseCacheBuilder::adaptive`] takes. Kept, empty, because
/// `benchmark/src/stack.rs` names it; goes with ROADMAP item 1.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct AdaptivePolicy;

impl AdaptivePolicy {
    /// The only value there is.
    pub fn new() -> Self {
        AdaptivePolicy
    }
}

/// Builder for [`ResponseCache`].
pub struct ResponseCacheBuilder {
    registry: TypeRegistry,
    policy: CachePolicy,
    capacity: Capacity,
    metrics: Option<Arc<MetricsRegistry>>,
    metrics_label: Option<String>,
}

impl std::fmt::Debug for ResponseCacheBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseCacheBuilder")
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl ResponseCacheBuilder {
    /// Sets the operation policy table.
    pub fn policy(mut self, policy: CachePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Convenience: make every operation cacheable with one TTL.
    pub fn cache_everything(mut self, ttl: Duration) -> Self {
        self.policy =
            std::mem::take(&mut self.policy).with_default(OperationPolicy::cacheable(ttl));
        self
    }

    /// Accepted and ignored: there is no learner to install. Kept
    /// because `benchmark/src/stack.rs` calls it; goes with ROADMAP
    /// item 1.
    #[doc(hidden)]
    pub fn adaptive(self, _policy: Arc<AdaptivePolicy>) -> Self {
        self
    }

    /// Sets capacity limits.
    pub fn capacity(mut self, capacity: Capacity) -> Self {
        self.capacity = capacity;
        self
    }

    /// Records metrics into `registry` instead of the process-wide one,
    /// and expires entries by its clock (tests use an isolated registry
    /// for deterministic counters, built over a [`wsrc_obs::ManualClock`]
    /// for deterministic expiry).
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Sets the `cache=<label>` value on every metric this cache emits
    /// (default: an auto-assigned `cache-N`).
    pub fn metrics_label(mut self, label: impl Into<String>) -> Self {
        self.metrics_label = Some(label.into());
        self
    }

    /// Finishes the cache.
    pub fn build(self) -> ResponseCache {
        let metrics = self.metrics.unwrap_or_else(wsrc_obs::global);
        let label = self.metrics_label.unwrap_or_else(crate::stats::auto_label);
        let stats = CacheStats::in_registry(&metrics, &label);
        let timers = CacheTimers::new(&metrics, &label);
        ResponseCache {
            store: CacheStore::new(self.capacity),
            policy: self.policy,
            registry: self.registry,
            metrics,
            stats,
            timers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrc_model::typeinfo::{FieldDescriptor, TypeDescriptor};
    use wsrc_model::value::{StructValue, Value};
    use wsrc_obs::ManualClock;
    use wsrc_soap::deserializer::read_response_bytes_recording;
    use wsrc_soap::serializer::serialize_response;
    use wsrc_xml::event::SaxEventSequence;

    const URL: &str = "http://backend.test/soap";

    fn registry() -> TypeRegistry {
        TypeRegistry::builder()
            .register(TypeDescriptor::new(
                "Item",
                vec![
                    FieldDescriptor::new("name", FieldType::String),
                    FieldDescriptor::new("qty", FieldType::Int),
                ],
            ))
            .build()
    }

    struct Fixture {
        xml: Arc<[u8]>,
        events: Arc<SaxEventSequence>,
        value: Value,
        expected: FieldType,
    }

    fn fixture() -> Fixture {
        fixture_of(
            Value::Struct(StructValue::new("Item").with("name", "n").with("qty", 2)),
            FieldType::Struct("Item".into()),
        )
    }

    fn fixture_of(value: Value, expected: FieldType) -> Fixture {
        let xml = serialize_response("urn:t", "getItem", "return", &value, &registry()).unwrap();
        let (_, events) =
            read_response_bytes_recording(xml.as_bytes(), &expected, &registry()).unwrap();
        Fixture {
            xml: Arc::from(xml.into_bytes()),
            events: Arc::new(events),
            value,
            expected,
        }
    }

    fn request() -> RpcRequest {
        RpcRequest::new("urn:t", "getItem").with_param("id", 7)
    }

    fn cacheable_cache() -> ResponseCache {
        ResponseCache::builder(registry())
            .cache_everything(Duration::from_secs(60))
            .build()
    }

    /// A registry whose clock the test advances by hand.
    fn manual_metrics() -> (Arc<MetricsRegistry>, ManualClock) {
        let clock = ManualClock::new();
        let metrics = Arc::new(MetricsRegistry::with_clock(clock.handle()));
        (metrics, clock)
    }

    fn data(f: &Fixture) -> ResponseData<'_> {
        ResponseData {
            xml: &f.xml,
            events: &f.events,
            value: &f.value,
        }
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let cache = cacheable_cache();
        let f = fixture();
        assert!(cache.lookup(URL, &request(), &f.expected).is_none());
        let repr = cache.insert(URL, &request(), data(&f));
        assert!(repr.is_some());
        let hit = cache.lookup(URL, &request(), &f.expected).expect("hit");
        assert_eq!(hit.as_value(), &f.value);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.inserts, 1);
    }

    #[test]
    fn different_requests_do_not_collide() {
        let cache = cacheable_cache();
        let f = fixture();
        cache.insert(URL, &request(), data(&f));
        let other = RpcRequest::new("urn:t", "getItem").with_param("id", 8);
        assert!(cache.lookup(URL, &other, &f.expected).is_none());
        assert!(cache
            .lookup("http://elsewhere.test/", &request(), &f.expected)
            .is_none());
    }

    #[test]
    fn ttl_expiry_with_manual_clock() {
        let (metrics, handle) = manual_metrics();
        let cache = ResponseCache::builder(registry())
            .cache_everything(Duration::from_secs(60))
            .metrics(metrics)
            .build();
        let f = fixture();
        cache.insert(URL, &request(), data(&f));
        assert!(cache.lookup(URL, &request(), &f.expected).is_some());
        handle.advance_millis(59_999);
        assert!(cache.lookup(URL, &request(), &f.expected).is_some());
        handle.advance_millis(2);
        assert!(cache.lookup(URL, &request(), &f.expected).is_none());
        assert_eq!(cache.stats().expired, 1);
    }

    /// A TTL the millisecond axis cannot hold never expires. Truncating
    /// instead keeps the low 64 bits: 384 ms for the second TTL here, 0
    /// for the third.
    #[test]
    fn a_ttl_beyond_the_clocks_range_saturates_instead_of_wrapping() {
        let ttls = [
            Duration::from_secs(u64::MAX),
            Duration::from_secs(18_446_744_073_709_552),
            Duration::from_millis(u64::MAX) + Duration::from_millis(1),
        ];
        for ttl in ttls {
            let (metrics, clock) = manual_metrics();
            let cache = ResponseCache::builder(registry())
                .cache_everything(ttl)
                .metrics(metrics)
                .build();
            let f = fixture();
            cache.insert(URL, &request(), data(&f));
            clock.advance_millis(86_400_000);
            assert!(
                cache.lookup(URL, &request(), &f.expected).is_some(),
                "{ttl:?}"
            );
        }
    }

    #[test]
    fn uncacheable_operations_bypass_the_cache() {
        let cache = ResponseCache::builder(registry())
            .policy(
                CachePolicy::new()
                    .with("AddShoppingCartItems", OperationPolicy::uncacheable())
                    .with_default(OperationPolicy::cacheable(Duration::from_secs(60))),
            )
            .build();
        let f = fixture();
        let cart = RpcRequest::new("urn:t", "AddShoppingCartItems").with_param("id", 1);
        assert!(cache.insert(URL, &cart, data(&f)).is_none());
        assert!(cache.lookup(URL, &cart, &f.expected).is_none());
        assert_eq!(cache.stats().uncacheable, 2);
        assert_eq!(cache.len(), 0);
    }

    /// No unforced insert stores a copy form, whatever the response's
    /// type: the shapes of the three Google return types — a string, a
    /// byte array, a struct — where the paper's table copies two.
    #[test]
    fn the_default_pick_is_the_shared_object() {
        let cache = cacheable_cache();
        let fixtures = [
            fixture_of(Value::string("suggestion"), FieldType::String),
            fixture_of(Value::Bytes(vec![7; 64].into()), FieldType::Bytes),
            fixture(),
        ];
        for (id, f) in fixtures.iter().enumerate() {
            let request = RpcRequest::new("urn:t", "getItem").with_param("id", id as i32);
            let repr = cache.insert(URL, &request, data(f)).unwrap();
            assert_eq!(repr, ValueRepresentation::PassByReference, "{:?}", f.value);
            let hit = cache.lookup(URL, &request, &f.expected).expect("hit");
            assert!(hit.is_shared(), "{:?}", f.value);
        }
        let stats = cache.stats();
        assert_eq!(stats.inserts, 3);
        assert_eq!(stats.inserts_for(ValueRepresentation::PassByReference), 3);
    }

    /// An entry no shard can hold is not an insert: it is counted as a
    /// store failure, and the older response it would have replaced is
    /// not served in its place.
    #[test]
    fn a_refused_insert_is_reported_and_leaves_nothing_behind() {
        let f = fixture();
        let big = fixture_of(
            Value::Struct(
                StructValue::new("Item")
                    .with("name", "n".repeat(4096))
                    .with("qty", 2),
            ),
            FieldType::Struct("Item".into()),
        );
        let cache = ResponseCache::builder(registry())
            .cache_everything(Duration::from_secs(60))
            .capacity(Capacity {
                max_entries: 16,
                max_bytes: 16 * 2048,
            })
            .build();
        assert!(cache.insert(URL, &request(), data(&f)).is_some());
        assert!(cache.lookup(URL, &request(), &f.expected).is_some());
        let before = cache.stats();
        assert_eq!(cache.insert(URL, &request(), data(&big)), None);
        let after = cache.stats();
        assert_eq!(after.inserts, before.inserts);
        assert_eq!(after.inserts_by_repr, before.inserts_by_repr);
        assert_eq!(after.store_failures, before.store_failures + 1);
        assert!(cache.lookup(URL, &request(), &f.expected).is_none());
        assert_eq!(cache.stats().misses, before.misses + 1);
        assert_eq!((cache.len(), cache.bytes()), (0, 0));
        cache.audit().unwrap();
    }

    #[test]
    fn policy_override_forces_representation() {
        let cache = ResponseCache::builder(registry())
            .policy(
                CachePolicy::new().with(
                    "getItem",
                    OperationPolicy::cacheable(Duration::from_secs(60))
                        .with_representation(ValueRepresentation::XmlMessage),
                ),
            )
            .build();
        let f = fixture();
        assert_eq!(
            cache.insert(URL, &request(), data(&f)),
            Some(ValueRepresentation::XmlMessage)
        );
    }

    #[test]
    fn inapplicable_override_falls_back() {
        // Forcing clone on a bare string is n/a → falls back to SAX.
        let cache = ResponseCache::builder(registry())
            .policy(
                CachePolicy::new().with(
                    "getItem",
                    OperationPolicy::cacheable(Duration::from_secs(60))
                        .with_representation(ValueRepresentation::CloneCopy),
                ),
            )
            .build();
        let f = fixture_of(Value::string("bare"), FieldType::String);
        let repr = cache.insert(URL, &request(), data(&f)).unwrap();
        assert_eq!(repr, ValueRepresentation::SaxEvents);
        let hit = cache.lookup(URL, &request(), &f.expected).unwrap();
        assert_eq!(hit.as_value(), &f.value);
    }

    #[test]
    fn the_default_shares_and_a_write_through_a_hit_is_invisible_to_the_next() {
        let cache = cacheable_cache();
        let f = fixture();
        assert_eq!(
            cache.insert(URL, &request(), data(&f)),
            Some(ValueRepresentation::PassByReference)
        );
        let hit = cache.lookup(URL, &request(), &f.expected).unwrap();
        assert!(hit.is_shared());
        // The hit is the tree the miss decoded, not a copy of it…
        let cached = hit.as_value().as_struct().unwrap();
        assert!(cached.ptr_eq(f.value.as_struct().unwrap()));
        // …and it is the caller's to write to.
        let mut mine = hit.into_value();
        mine.as_struct_mut().unwrap().set("qty", 999);
        assert_ne!(mine, f.value);
        let next = cache.lookup(URL, &request(), &f.expected).unwrap();
        assert_eq!(next.as_value(), &f.value);
    }

    #[test]
    fn replacement_keeps_one_entry_per_key() {
        let cache = cacheable_cache();
        let f = fixture();
        cache.insert(URL, &request(), data(&f));
        cache.insert(URL, &request(), data(&f));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_policy_wide_forced_representation_is_honored() {
        let policy = CachePolicy::new()
            .with("other", OperationPolicy::uncacheable())
            .with_default(OperationPolicy::cacheable(Duration::from_secs(60)))
            .with_representation(ValueRepresentation::Serialization);
        assert!(!policy.for_operation("other").cacheable);
        let cache = ResponseCache::builder(registry()).policy(policy).build();
        let f = fixture();
        assert_eq!(
            cache.insert(URL, &request(), data(&f)),
            Some(ValueRepresentation::Serialization)
        );
    }

    #[test]
    fn clear_and_bytes() {
        let cache = cacheable_cache();
        let f = fixture();
        cache.insert(URL, &request(), data(&f));
        assert!(cache.bytes() > 0);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn metrics_registry_sees_stages_and_representations() {
        let metrics = Arc::new(MetricsRegistry::new());
        let cache = ResponseCache::builder(registry())
            .cache_everything(Duration::from_secs(60))
            .metrics(metrics.clone())
            .metrics_label("unit")
            .build();
        let f = fixture();
        // Traced, so every call is timed (see `one_untraced_call_in_n_is_timed`).
        let root = metrics.tracer().root_span("unit", "/unit");
        assert!(cache.lookup(URL, &request(), &f.expected).is_none());
        let repr = cache.insert(URL, &request(), data(&f)).unwrap();
        cache.lookup(URL, &request(), &f.expected).expect("hit");
        root.finish();

        let snap = metrics.snapshot();
        let unit = ("cache", "unit");
        assert_eq!(
            snap.counter_value(
                "wsrc_cache_hits_total",
                &[unit, ("repr", repr.metric_label())]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("wsrc_cache_misses_total", &[unit]),
            Some(1)
        );
        // Stage histograms: two lookups, one insert, one build and one
        // retrieve under the representation actually used, and a keygen
        // sample per keyed operation.
        let h = |name: &str, labels: &[(&str, &str)]| {
            snap.histogram(name, labels)
                .unwrap_or_else(|| panic!("missing histogram {name}"))
                .count
        };
        assert_eq!(
            h("wsrc_cache_stage_seconds", &[unit, ("stage", "lookup")]),
            2
        );
        assert_eq!(
            h("wsrc_cache_stage_seconds", &[unit, ("stage", "insert")]),
            1
        );
        assert_eq!(
            h("wsrc_cache_stage_seconds", &[unit, ("stage", "keygen")]),
            3
        );
        let repr_label = ("repr", repr.metric_label());
        assert_eq!(h("wsrc_cache_build_seconds", &[unit, repr_label]), 1);
        assert_eq!(h("wsrc_cache_retrieve_seconds", &[unit, repr_label]), 1);
        // Occupancy gauges track the store.
        let gauge = |name: &str| {
            let id = wsrc_obs::MetricId::new(name, &[unit]);
            snap.gauges
                .iter()
                .find(|(i, _)| *i == id)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing gauge {name}"))
        };
        assert_eq!(gauge("wsrc_cache_entries"), 1);
        assert!(gauge("wsrc_cache_bytes") > 0);
        cache.clear();
        assert_eq!(cache.metrics().snapshot().gauges.len(), snap.gauges.len());
        // Unlabelled caches sharing a registry stay distinguishable:
        // each counts its own miss.
        let shared = Arc::new(MetricsRegistry::new());
        for _ in 0..2 {
            let unlabelled = ResponseCache::builder(registry())
                .cache_everything(Duration::from_secs(60))
                .metrics(shared.clone())
                .build();
            assert!(unlabelled.lookup(URL, &request(), &f.expected).is_none());
        }
        let snap = shared.snapshot();
        let misses = snap.counters.iter();
        let misses = misses.filter(|(id, n)| id.name == "wsrc_cache_misses_total" && *n == 1);
        assert_eq!(misses.count(), 2);
    }

    /// Untraced, every hit is counted and one call in
    /// `TIME_ONE_CALL_IN` on a thread — its first among them — is timed.
    #[test]
    fn one_untraced_call_in_n_is_timed() {
        let metrics = Arc::new(MetricsRegistry::new());
        let cache = ResponseCache::builder(registry())
            .cache_everything(Duration::from_secs(60))
            .metrics(metrics.clone())
            .metrics_label("sampled")
            .build();
        let f = fixture();
        let hits = 2 * TIME_ONE_CALL_IN as u64;
        // A thread of its own, so the test knows where its counter is.
        std::thread::scope(|s| {
            s.spawn(|| {
                cache.insert(URL, &request(), data(&f)).unwrap();
                for _ in 0..hits {
                    cache.lookup(URL, &request(), &f.expected).expect("hit");
                }
            });
        });
        let snap = metrics.snapshot();
        let unit = ("cache", "sampled");
        let repr = ("repr", ValueRepresentation::PassByReference.metric_label());
        assert_eq!(
            snap.counter_value("wsrc_cache_hits_total", &[unit, repr]),
            Some(hits)
        );
        let count =
            |name: &str, label: (&str, &str)| snap.histogram(name, &[unit, label]).map(|h| h.count);
        // The insert was call 1; calls 65 and 129 were timed hits.
        assert_eq!(
            count("wsrc_cache_stage_seconds", ("stage", "keygen")),
            Some(3)
        );
        assert_eq!(
            count("wsrc_cache_stage_seconds", ("stage", "insert")),
            Some(1)
        );
        assert_eq!(
            count("wsrc_cache_stage_seconds", ("stage", "lookup")),
            Some(2)
        );
        assert_eq!(count("wsrc_cache_retrieve_seconds", repr), Some(2));
    }

    /// An untimed miss records no lookup sample, as an untimed hit does,
    /// so the lookup histogram samples hits and misses alike; the insert
    /// only a miss reaches is always timed.
    #[test]
    fn an_untimed_miss_records_no_lookup_but_times_its_insert() {
        let metrics = Arc::new(MetricsRegistry::new());
        let cache = ResponseCache::builder(registry())
            .cache_everything(Duration::from_secs(60))
            .metrics(metrics.clone())
            .metrics_label("miss")
            .build();
        let f = fixture();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Call 1 is timed; calls 2 and 3 are not.
                let warm = RpcRequest::new("urn:t", "getItem").with_param("id", 0);
                assert!(cache.lookup(URL, &warm, &f.expected).is_none());
                let call = cache.call(URL, &request()).unwrap();
                assert!(matches!(call.lookup(&f.expected), CacheOutcome::Miss));
                call.insert(data(&f), None).unwrap();
            });
        });
        let snap = metrics.snapshot();
        let unit = ("cache", "miss");
        let stage = |s| {
            snap.histogram("wsrc_cache_stage_seconds", &[unit, ("stage", s)])
                .map(|h| h.count)
        };
        assert_eq!(stage("keygen"), Some(1));
        assert_eq!(stage("lookup"), Some(1));
        assert_eq!(stage("insert"), Some(1));
        assert_eq!(
            snap.counter_value("wsrc_cache_misses_total", &[unit]),
            Some(2)
        );
    }

    #[test]
    fn concurrent_lookups_and_inserts() {
        let cache = Arc::new(cacheable_cache());
        let f = Arc::new(fixture());
        let mut threads = Vec::new();
        for t in 0..8 {
            let cache = cache.clone();
            let f = f.clone();
            threads.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let req = RpcRequest::new("urn:t", "getItem").with_param("id", (t + i) % 16);
                    match cache.lookup(URL, &req, &f.expected) {
                        Some(h) => assert_eq!(h.as_value(), &f.value),
                        None => {
                            cache.insert(
                                URL,
                                &req,
                                ResponseData {
                                    xml: &f.xml,
                                    events: &f.events,
                                    value: &f.value,
                                },
                            );
                        }
                    }
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let stats = cache.stats();
        assert!(stats.hits > 0);
        assert!(cache.len() <= 16);
    }
}
