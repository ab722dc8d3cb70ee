//! [`ResponseCache`] — the facade the client middleware plugs in.
//!
//! On each call the middleware asks the cache first ([`ResponseCache::lookup`]);
//! on a miss it performs the real exchange and hands the artifacts to
//! [`ResponseCache::insert`]. Key strategy, representation selection,
//! per-operation policy and TTL all live here, so the client application
//! "does not need to be at all conscious of how the response data is
//! cached" (paper §6).

use crate::classify::candidate_representations;
use crate::entry::CacheEntry;
use crate::error::CacheError;
use crate::key::{generate_key, CacheKey, KeyStrategy};
use crate::policy::{AdaptivePolicy, CachePolicy, OperationPolicy, SelectionMode};
use crate::repr::{StoredResponse, ValueHandle, ValueRepresentation};
use crate::stats::{CacheStats, StatsSnapshot};
use crate::store::{CacheStore, Capacity, FoundEntry, Lookup};
use std::sync::Arc;
use std::time::Duration;
use wsrc_model::typeinfo::{FieldType, TypeRegistry};
use wsrc_model::Value;
use wsrc_obs::{Clock, Gauge, Histogram, MetricsRegistry, SystemClock};
use wsrc_soap::rpc::RpcRequest;

pub use crate::repr::MissArtifacts as ResponseData;

/// Detailed result of [`ResponseCache::lookup_detailed`].
#[derive(Debug)]
pub enum CacheOutcome {
    /// A fresh entry answered the lookup.
    Fresh {
        /// The retrieved application object.
        handle: ValueHandle,
        /// When the hit triggered a convert-on-hit, the representation
        /// the entry was re-homed to (for tracing/diagnostics).
        converted: Option<ValueRepresentation>,
    },
    /// An expired entry with a revalidation token is available: the
    /// caller may revalidate (e.g. with `If-Modified-Since`) and either
    /// [`ResponseCache::refresh`] the entry or replace it.
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

/// Per-stage latency histograms and occupancy gauges for one cache, all
/// registered under its `cache=<label>` in a [`MetricsRegistry`].
struct CacheTimers {
    /// `wsrc_cache_stage_seconds{stage="keygen",strategy=…}`.
    keygen: Histogram,
    /// `wsrc_cache_stage_seconds{stage="lookup"}` — the whole lookup path.
    lookup: Histogram,
    /// `wsrc_cache_stage_seconds{stage="insert"}` — the whole insert path.
    insert: Histogram,
    /// `wsrc_cache_retrieve_seconds{repr=…}` — stored form → object.
    retrieve: [Histogram; ValueRepresentation::COUNT],
    /// `wsrc_cache_build_seconds{repr=…}` — response artifacts → stored
    /// form (only the successful representation records a sample).
    build: [Histogram; ValueRepresentation::COUNT],
    /// `wsrc_cache_convert_seconds{repr=…}` — building the target form
    /// of a published convert-on-hit (from the retrieved object, never
    /// the network).
    convert: [Histogram; ValueRepresentation::COUNT],
    /// `wsrc_cache_entries` / `wsrc_cache_bytes` occupancy gauges.
    entries: Gauge,
    bytes: Gauge,
}

impl CacheTimers {
    fn new(registry: &Arc<MetricsRegistry>, label: &str, strategy: KeyStrategy) -> Self {
        let stage = |s: &str| {
            registry.histogram(
                "wsrc_cache_stage_seconds",
                &[("cache", label), ("stage", s)],
            )
        };
        let per_repr = |name: &str| {
            ValueRepresentation::ALL_EXTENDED
                .map(|r| registry.histogram(name, &[("cache", label), ("repr", r.metric_label())]))
        };
        CacheTimers {
            keygen: registry.histogram(
                "wsrc_cache_stage_seconds",
                &[
                    ("cache", label),
                    ("stage", "keygen"),
                    ("strategy", strategy.metric_label()),
                ],
            ),
            lookup: stage("lookup"),
            insert: stage("insert"),
            retrieve: per_repr("wsrc_cache_retrieve_seconds"),
            build: per_repr("wsrc_cache_build_seconds"),
            convert: per_repr("wsrc_cache_convert_seconds"),
            entries: registry.gauge("wsrc_cache_entries", &[("cache", label)]),
            bytes: registry.gauge("wsrc_cache_bytes", &[("cache", label)]),
        }
    }
}

/// The response cache for Web services client middleware.
pub struct ResponseCache {
    store: CacheStore,
    policy: CachePolicy,
    key_strategy: KeyStrategy,
    adaptive: Option<Arc<AdaptivePolicy>>,
    clock: Arc<dyn Clock>,
    registry: TypeRegistry,
    metrics: Arc<MetricsRegistry>,
    stats: CacheStats,
    timers: CacheTimers,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseCache")
            .field("entries", &self.store.len())
            .field("key_strategy", &self.key_strategy)
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
            key_strategy: KeyStrategy::Auto,
            adaptive: None,
            clock: Arc::new(SystemClock),
            capacity: Capacity::default(),
            metrics: None,
            metrics_label: None,
        }
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
    /// mechanism applied to the response cache).
    pub fn lookup_detailed(
        &self,
        endpoint_url: &str,
        request: &RpcRequest,
        expected: &FieldType,
    ) -> CacheOutcome {
        let policy = self.policy.for_operation(&request.operation);
        if !policy.cacheable {
            self.stats.record_uncacheable();
            return CacheOutcome::Miss;
        }
        let _lookup_span = self.timers.lookup.timer();
        let key = match self
            .timers
            .keygen
            .time(|| generate_key(self.key_strategy, endpoint_url, request, &self.registry))
        {
            Ok(k) => k,
            Err(_) => {
                self.stats.record_miss();
                return CacheOutcome::Miss;
            }
        };
        match self.store.get(&key, self.clock.now_millis()) {
            Lookup::Live(found) => {
                let repr = found.entry.form().representation();
                let histogram = &self.timers.retrieve[repr.index()];
                let started = histogram.now_nanos();
                let result = found.entry.form().retrieve(expected, &self.registry);
                let elapsed = histogram.now_nanos().saturating_sub(started);
                histogram.record_nanos(elapsed);
                match result {
                    Ok(handle) => {
                        self.stats.record_hit(repr);
                        if let Some(ad) = &self.adaptive {
                            ad.record_retrieve(&request.operation, repr, elapsed);
                        }
                        let converted =
                            self.maybe_convert(&key, request, &found, handle.as_value(), expected);
                        CacheOutcome::Fresh { handle, converted }
                    }
                    Err(_) => {
                        // A cache entry that cannot produce its object is
                        // poison; drop it and treat as a miss.
                        self.store.invalidate(&key);
                        self.stats.record_miss();
                        CacheOutcome::Miss
                    }
                }
            }
            Lookup::Stale { entry, validator } => {
                // Stale entries never convert: they may be replaced
                // momentarily.
                let repr = entry.form().representation();
                match self.timers.retrieve[repr.index()]
                    .time(|| entry.form().retrieve(expected, &self.registry))
                {
                    Ok(handle) => {
                        self.stats.record_expired();
                        CacheOutcome::Stale { handle, validator }
                    }
                    Err(_) => {
                        self.store.invalidate(&key);
                        self.stats.record_miss();
                        CacheOutcome::Miss
                    }
                }
            }
            Lookup::Expired => {
                self.stats.record_expired();
                self.stats.record_miss();
                CacheOutcome::Miss
            }
            Lookup::Absent => {
                self.stats.record_miss();
                CacheOutcome::Miss
            }
        }
    }

    /// Renews the TTL of a (stale) entry after a successful revalidation
    /// (e.g. a `304 Not Modified` response). Returns whether an entry was
    /// refreshed.
    pub fn refresh(&self, endpoint_url: &str, request: &RpcRequest) -> bool {
        let policy = self.policy.for_operation(&request.operation);
        let Ok(key) = generate_key(self.key_strategy, endpoint_url, request, &self.registry) else {
            return false;
        };
        let now = self.clock.now_millis();
        let expires = now.saturating_add(policy.ttl.as_millis() as u64);
        let refreshed = self.store.refresh(&key, expires);
        if refreshed {
            self.stats.record_revalidated();
        }
        refreshed
    }

    /// Stores the artifacts of a completed exchange. Returns the
    /// representation actually used, or `None` when the operation is
    /// uncacheable or the response could not be keyed.
    pub fn insert(
        &self,
        endpoint_url: &str,
        request: &RpcRequest,
        data: ResponseData<'_>,
    ) -> Option<ValueRepresentation> {
        self.insert_validated(endpoint_url, request, data, None)
    }

    /// [`insert`](ResponseCache::insert) with a revalidation token
    /// (typically the response's `Last-Modified` header). Entries with a
    /// token become *stale* instead of vanishing at TTL expiry, enabling
    /// the `If-Modified-Since`/304 handshake.
    pub fn insert_validated(
        &self,
        endpoint_url: &str,
        request: &RpcRequest,
        data: ResponseData<'_>,
        validator: Option<String>,
    ) -> Option<ValueRepresentation> {
        let policy = self.policy.for_operation(&request.operation);
        if !policy.cacheable {
            self.stats.record_uncacheable();
            return None;
        }
        let _insert_span = self.timers.insert.timer();
        let key = self
            .timers
            .keygen
            .time(|| generate_key(self.key_strategy, endpoint_url, request, &self.registry))
            .ok()?;
        let (entry, repr, mode) = self.build_entry(&request.operation, &policy, data)?;
        let now = self.clock.now_millis();
        let expires = now.saturating_add(policy.ttl.as_millis() as u64);
        let accepted = self
            .store
            .put_validated(key, entry, expires, now, validator);
        self.stats.record_insert(repr);
        if let Some(mode) = mode {
            self.stats.record_selection(mode, repr);
        }
        if let Some(evicted) = accepted {
            // Only entries the store accepted count as inserts for the
            // adaptive policy — a refused (oversized) entry can never
            // serve a hit, and counting it would deflate
            // `expected_hits = hits / inserts`.
            if let Some(ad) = &self.adaptive {
                ad.record_insert(&request.operation);
            }
            self.stats.record_evictions(evicted);
        }
        self.set_occupancy_gauges();
        Some(repr)
    }

    /// Publishes the store's totals — two atomic loads; the insert or
    /// form swap that moved them locked only the shard it wrote.
    fn set_occupancy_gauges(&self) {
        let (entries, bytes) = self.store.occupancy();
        self.timers.entries.set(entries as i64);
        self.timers.bytes.set(bytes as i64);
    }

    /// Picks a representation and builds the entry, falling back down
    /// the always-applicable chain when the preferred choice is not
    /// applicable to this value.
    ///
    /// Precedence: forced
    /// ([`with_representation`](OperationPolicy::with_representation)),
    /// else adaptive if installed, else the §6 pick over the candidate
    /// set — the shared object, which every value supports. The returned
    /// mode is `None` for that pick (no decision counter is recorded for
    /// it).
    fn build_entry(
        &self,
        operation: &str,
        policy: &OperationPolicy,
        data: ResponseData<'_>,
    ) -> Option<(CacheEntry, ValueRepresentation, Option<SelectionMode>)> {
        // The candidate set costs a walk of the whole value and only
        // the adaptive policy reads it (here and, through the entry's
        // mask, in `maybe_convert`).
        let candidates = if self.adaptive.is_some() {
            candidate_representations(data.value, &self.registry)
        } else {
            Vec::new()
        };
        let (preferred, mode) = if let Some(forced) = policy.representation {
            (forced, Some(SelectionMode::Forced))
        } else if let Some(ad) = &self.adaptive {
            let selection = ad.select_insert(operation, &candidates);
            (selection.representation, Some(selection.mode))
        } else {
            // The §6 function over a candidate set always lands on the
            // shared object (every value supports it).
            (ValueRepresentation::PassByReference, None)
        };
        let chain = [
            preferred,
            ValueRepresentation::SaxEvents,
            ValueRepresentation::XmlMessage,
        ];
        for repr in chain {
            let histogram = &self.timers.build[repr.index()];
            let started = histogram.now_nanos();
            match StoredResponse::build(repr, data, &self.registry) {
                Ok(stored) => {
                    let elapsed = histogram.now_nanos().saturating_sub(started);
                    histogram.record_nanos(elapsed);
                    if let Some(ad) = &self.adaptive {
                        ad.record_build(operation, repr, elapsed, stored.approximate_size());
                    }
                    let mask = candidates.iter().fold(0u8, |m, r| m | r.bit());
                    let entry = CacheEntry::single(stored).with_candidates(mask);
                    return Some((entry, repr, mode));
                }
                // Failed attempts record no sample — the histogram
                // measures the cost of the representation actually used.
                Err(CacheError::NotApplicable(_)) => continue,
                Err(_) => break,
            }
        }
        self.stats.record_store_failure();
        None
    }

    /// Convert-on-hit: when the adaptive policy judges that a cheaper
    /// representation would pay for its one-time build cost under this
    /// key's observed hit rate, build it from the object this hit just
    /// retrieved and swap it in for the stored form.
    /// [`CacheStore::replace_form`] publishes only if the slot still
    /// holds the payload this hit was served from (`found.generation`),
    /// so a conversion raced by an insert, an invalidation, an eviction
    /// or another converter publishes nothing — concurrent hits may each
    /// build the form, but exactly one lands and only that one counts.
    fn maybe_convert(
        &self,
        key: &CacheKey,
        request: &RpcRequest,
        found: &FoundEntry,
        value: &Value,
        expected: &FieldType,
    ) -> Option<ValueRepresentation> {
        let ad = self.adaptive.as_ref()?;
        let operation = &request.operation;
        let served = found.entry.form().representation();
        let target =
            ad.conversion_target(operation, found.hits, served, found.entry.candidates_mask())?;
        let mut span = wsrc_obs::trace::child_span("cache-convert", "cache");
        let histogram = &self.timers.convert[target.index()];
        let started = histogram.now_nanos();
        let built = StoredResponse::from_value(
            target,
            value,
            &request.namespace,
            operation,
            expected,
            &self.registry,
        );
        let elapsed = histogram.now_nanos().saturating_sub(started);
        let Ok(form) = built else {
            if let Some(span) = span.as_mut() {
                span.set_error();
            }
            return None;
        };
        let size = form.approximate_size();
        // `None`: raced with a replacement, an eviction or another
        // converter, or the form no longer fits — nothing was stored.
        let evicted =
            self.store
                .replace_form(key, found.generation, form, self.clock.now_millis())?;
        histogram.record_nanos(elapsed);
        self.stats.record_conversion(target);
        self.stats.record_evictions(evicted);
        ad.record_build(operation, target, elapsed, size);
        self.set_occupancy_gauges();
        if let Some(span) = span.as_mut() {
            span.annotate(format!(
                "converted {} -> {}",
                served.metric_label(),
                target.metric_label()
            ));
        }
        Some(target)
    }

    /// The cache key this cache would use for `request`, if the strategy
    /// applies. Exposed so the middleware can coalesce concurrent misses
    /// on the same key (single-flight).
    pub fn key_for(
        &self,
        endpoint_url: &str,
        request: &RpcRequest,
    ) -> Option<crate::key::CacheKey> {
        generate_key(self.key_strategy, endpoint_url, request, &self.registry).ok()
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
    /// endpoint for exposition.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The `cache=<label>` value on every metric this cache emits.
    pub fn metrics_label(&self) -> &str {
        self.stats.label()
    }

    /// The registry this cache types values with.
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }
}

/// Builder for [`ResponseCache`].
pub struct ResponseCacheBuilder {
    registry: TypeRegistry,
    policy: CachePolicy,
    key_strategy: KeyStrategy,
    adaptive: Option<Arc<AdaptivePolicy>>,
    clock: Arc<dyn Clock>,
    capacity: Capacity,
    metrics: Option<Arc<MetricsRegistry>>,
    metrics_label: Option<String>,
}

impl std::fmt::Debug for ResponseCacheBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseCacheBuilder")
            .field("key_strategy", &self.key_strategy)
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

    /// Sets the cache-key strategy (default: [`KeyStrategy::Auto`]).
    pub fn key_strategy(mut self, strategy: KeyStrategy) -> Self {
        self.key_strategy = strategy;
        self
    }

    /// Installs the online [`AdaptivePolicy`]: inserts score the
    /// candidate representations from observed build/retrieve costs and
    /// sizes, hits may convert the entry to a cheaper form in place.
    /// Takes an `Arc` so callers can keep a handle for inspection or
    /// pre-seeding. Forced `with_representation` overrides still win;
    /// without an adaptive policy the §6 table decides.
    pub fn adaptive(mut self, policy: Arc<AdaptivePolicy>) -> Self {
        self.adaptive = Some(policy);
        self
    }

    /// Sets the clock (tests use [`wsrc_obs::ManualClock`]).
    pub fn clock(mut self, clock: impl Clock + 'static) -> Self {
        self.clock = Arc::new(clock);
        self
    }

    /// Sets capacity limits.
    pub fn capacity(mut self, capacity: Capacity) -> Self {
        self.capacity = capacity;
        self
    }

    /// Records metrics into `registry` instead of the process-wide one
    /// (tests use an isolated registry for deterministic counters).
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
        let timers = CacheTimers::new(&metrics, &label, self.key_strategy);
        if let Some(ad) = &self.adaptive {
            // Share the cache's own latency histograms with the policy
            // so scoring starts from live observations even for
            // representations this operation has not tried yet.
            ad.attach_observations(timers.build.clone(), timers.retrieve.clone());
        }
        ResponseCache {
            store: CacheStore::new(self.capacity),
            policy: self.policy,
            key_strategy: self.key_strategy,
            adaptive: self.adaptive,
            clock: self.clock,
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
    use wsrc_soap::deserializer::read_response_xml_recording;
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
        let value = Value::Struct(StructValue::new("Item").with("name", "n").with("qty", 2));
        let expected = FieldType::Struct("Item".into());
        let xml = serialize_response("urn:t", "getItem", "return", &value, &registry()).unwrap();
        let (_, events) = read_response_xml_recording(&xml, &expected, &registry()).unwrap();
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
            .clock(ManualClock::new())
            .build()
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
        let clock = ManualClock::new();
        let handle = clock.handle();
        let cache = ResponseCache::builder(registry())
            .cache_everything(Duration::from_secs(60))
            .clock(clock)
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

    #[test]
    fn uncacheable_operations_bypass_the_cache() {
        let cache = ResponseCache::builder(registry())
            .policy(
                CachePolicy::new()
                    .with("AddShoppingCartItems", OperationPolicy::uncacheable())
                    .with_default(OperationPolicy::cacheable(Duration::from_secs(60))),
            )
            .clock(ManualClock::new())
            .build();
        let f = fixture();
        let cart = RpcRequest::new("urn:t", "AddShoppingCartItems").with_param("id", 1);
        assert!(cache.insert(URL, &cart, data(&f)).is_none());
        assert!(cache.lookup(URL, &cart, &f.expected).is_none());
        assert_eq!(cache.stats().uncacheable, 2);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn the_default_pick_is_the_shared_object() {
        let cache = cacheable_cache();
        let f = fixture();
        let repr = cache.insert(URL, &request(), data(&f)).unwrap();
        assert_eq!(repr, ValueRepresentation::PassByReference);
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
            .clock(ManualClock::new())
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
            .clock(ManualClock::new())
            .build();
        let value = Value::string("bare");
        let xml = serialize_response("urn:t", "getItem", "return", &value, &registry()).unwrap();
        let (_, events) =
            read_response_xml_recording(&xml, &FieldType::String, &registry()).unwrap();
        let xml: Arc<[u8]> = Arc::from(xml.into_bytes());
        let events = Arc::new(events);
        let repr = cache
            .insert(
                URL,
                &request(),
                ResponseData {
                    xml: &xml,
                    events: &events,
                    value: &value,
                },
            )
            .unwrap();
        assert_eq!(repr, ValueRepresentation::SaxEvents);
        let hit = cache.lookup(URL, &request(), &FieldType::String).unwrap();
        assert_eq!(hit.as_value(), &value);
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
        let cache = ResponseCache::builder(registry())
            .policy(policy)
            .clock(ManualClock::new())
            .build();
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
            .clock(ManualClock::new())
            .metrics(metrics.clone())
            .metrics_label("unit")
            .build();
        assert_eq!(cache.metrics_label(), "unit");
        let f = fixture();
        assert!(cache.lookup(URL, &request(), &f.expected).is_none());
        let repr = cache.insert(URL, &request(), data(&f)).unwrap();
        cache.lookup(URL, &request(), &f.expected).expect("hit");

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
            h(
                "wsrc_cache_stage_seconds",
                &[unit, ("stage", "keygen"), ("strategy", "auto")]
            ),
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
