//! [`ServiceClient`] — the full client middleware with the transparent
//! response cache.

use crate::call::{Call, ConditionalOutcome, Exchange};
use crate::coalesce::{InflightTable, Role};
use crate::error::ClientError;
use crate::TypedCall;
use std::sync::Arc;
use wsrc_cache::repr::MissArtifacts;
use wsrc_cache::{CacheOutcome, ResponseCache, ValueHandle};
use wsrc_http::{Transport, Url};
use wsrc_model::typeinfo::TypeRegistry;
use wsrc_model::Value;
use wsrc_soap::rpc::{OperationDescriptor, RpcRequest};

/// How an invocation was satisfied — exposed for tests, stats and the
/// benchmark harness; the application can ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Answered from the response cache; no network traffic occurred.
    CacheHit,
    /// Full exchange performed; the response was stored.
    CacheMiss,
    /// Full exchange performed; the operation is uncacheable (or no cache
    /// is attached).
    Uncached,
    /// A stale entry was revalidated with `If-Modified-Since`; the server
    /// answered `304 Not Modified` and the cached object was reused
    /// (paper §3.2's HTTP consistency handshake).
    Revalidated,
}

/// The client middleware: operation table, registry, transport and an
/// optional transparent response cache.
pub struct ServiceClient {
    call: Call,
    endpoint_url: String,
    operations: Vec<OperationDescriptor>,
    cache: Option<Arc<ResponseCache>>,
    inflight: Option<Arc<InflightTable>>,
}

impl std::fmt::Debug for ServiceClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClient")
            .field("endpoint", &self.endpoint_url)
            .field("operations", &self.operations.len())
            .field("cached", &self.cache.is_some())
            .finish()
    }
}

impl ServiceClient {
    /// Starts building a client.
    pub fn builder(endpoint: Url, transport: Arc<dyn Transport>) -> ServiceClientBuilder {
        ServiceClientBuilder {
            endpoint,
            transport,
            registry: TypeRegistry::new(),
            operations: Vec::new(),
            cache: None,
            coalesce: false,
        }
    }

    /// Invokes `request`, consulting the cache first when one is attached.
    ///
    /// # Errors
    ///
    /// Unknown operations, transport failures and SOAP faults. Faults are
    /// never cached.
    pub fn invoke(&self, request: &RpcRequest) -> Result<(ValueHandle, Disposition), ClientError> {
        let descriptor = self
            .operations
            .iter()
            .find(|o| o.name == request.operation)
            .ok_or_else(|| ClientError::UnknownOperation(request.operation.clone()))?;
        let Some(cache) = &self.cache else {
            let exchange = self.call.invoke(descriptor, request)?;
            return Ok((ValueHandle::Owned(exchange.value), Disposition::Uncached));
        };
        loop {
            // Under an active trace the cache interaction becomes its own
            // span, annotated with the outcome so a `/trace` reader can
            // tell hits from misses without cross-referencing metrics.
            let lookup = {
                let span = wsrc_obs::trace::child_span("cache-lookup", "lookup");
                let outcome =
                    cache.lookup_detailed(&self.endpoint_url, request, &descriptor.return_type);
                if let Some(mut span) = span {
                    span.annotate(match &outcome {
                        CacheOutcome::Fresh { .. } => "outcome=hit",
                        CacheOutcome::Stale { .. } => "outcome=stale",
                        CacheOutcome::Miss => "outcome=miss",
                    });
                    span.finish();
                }
                outcome
            };
            match lookup {
                CacheOutcome::Fresh { handle, .. } => {
                    if let Some(span) = wsrc_obs::trace::child_span("cache-retrieve", "retrieve") {
                        span.finish();
                    }
                    return Ok((handle, Disposition::CacheHit));
                }
                CacheOutcome::Stale { handle, validator } => {
                    // Expired but revalidatable: ask the server whether the
                    // response changed since the cached copy.
                    match self
                        .call
                        .invoke_conditional(descriptor, request, &validator)?
                    {
                        ConditionalOutcome::NotModified => {
                            cache.refresh(&self.endpoint_url, request);
                            return Ok((handle, Disposition::Revalidated));
                        }
                        ConditionalOutcome::Fresh(exchange) => {
                            return Ok((
                                self.store_exchange(cache, request, exchange),
                                Disposition::CacheMiss,
                            ));
                        }
                    }
                }
                CacheOutcome::Miss => {
                    // Single-flight: when enabled, only one thread fetches
                    // a given key; the others wait and re-read the cache.
                    if let (Some(inflight), Some(key)) =
                        (&self.inflight, cache.key_for(&self.endpoint_url, request))
                    {
                        match inflight.join(key) {
                            Role::Leader(guard) => {
                                // A lookup that missed before an earlier
                                // leader inserted, followed by a join after
                                // that leader released, wins a fresh flight
                                // for a key the cache now holds: re-read
                                // once instead of repeating the exchange.
                                if let CacheOutcome::Fresh { handle, .. } = cache.lookup_detailed(
                                    &self.endpoint_url,
                                    request,
                                    &descriptor.return_type,
                                ) {
                                    return Ok((handle, Disposition::CacheHit));
                                }
                                // Store BEFORE completing the guard: a
                                // follower released earlier could re-read
                                // the cache ahead of the insert, miss, and
                                // start a duplicate exchange. (Error paths
                                // release via the guard's Drop.)
                                let exchange = self.call.invoke(descriptor, request)?;
                                let handle = self.store_exchange(cache, request, exchange);
                                guard.complete();
                                return Ok((handle, Disposition::CacheMiss));
                            }
                            Role::Follower => {
                                // The leader finished (or failed); retry the
                                // cache. A failed leader leads this thread to
                                // become the next leader.
                                continue;
                            }
                        }
                    }
                    let exchange = self.call.invoke(descriptor, request)?;
                    let handle = self.store_exchange(cache, request, exchange);
                    return Ok((handle, Disposition::CacheMiss));
                }
            }
        }
    }

    fn store_exchange(
        &self,
        cache: &Arc<ResponseCache>,
        request: &RpcRequest,
        exchange: Exchange,
    ) -> ValueHandle {
        let span = wsrc_obs::trace::child_span("cache-build", "build");
        let Exchange {
            response_xml,
            response_events,
            value,
            last_modified,
        } = exchange;
        cache.insert_validated(
            &self.endpoint_url,
            request,
            MissArtifacts {
                xml: &response_xml,
                events: &response_events,
                value: &value,
            },
            last_modified,
        );
        if let Some(span) = span {
            span.finish();
        }
        ValueHandle::Owned(value)
    }

    /// Invokes and unwraps the handle to a value the caller may write
    /// to. Nothing is copied, even on a shared hit: the value's nodes
    /// are copy-on-write.
    ///
    /// # Errors
    ///
    /// Same conditions as [`invoke`](ServiceClient::invoke).
    pub fn invoke_owned(&self, request: &RpcRequest) -> Result<Value, ClientError> {
        Ok(self.invoke(request)?.0.into_value())
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<ResponseCache>> {
        self.cache.as_ref()
    }

    /// The operation descriptors this client knows.
    pub fn operations(&self) -> &[OperationDescriptor] {
        &self.operations
    }

    /// The endpoint URL string used in cache keys.
    pub fn endpoint_url(&self) -> &str {
        &self.endpoint_url
    }
}

impl TypedCall for ServiceClient {
    type Error = ClientError;

    fn invoke(&self, request: RpcRequest) -> Result<Value, ClientError> {
        self.invoke_owned(&request)
    }
}

impl TypedCall for Arc<ServiceClient> {
    type Error = ClientError;

    fn invoke(&self, request: RpcRequest) -> Result<Value, ClientError> {
        self.invoke_owned(&request)
    }
}

/// Builder for [`ServiceClient`].
pub struct ServiceClientBuilder {
    endpoint: Url,
    transport: Arc<dyn Transport>,
    registry: TypeRegistry,
    operations: Vec<OperationDescriptor>,
    cache: Option<Arc<ResponseCache>>,
    coalesce: bool,
}

impl std::fmt::Debug for ServiceClientBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClientBuilder")
            .field("endpoint", &self.endpoint.to_string())
            .finish()
    }
}

impl ServiceClientBuilder {
    /// Sets the type registry (usually from the WSDL compiler).
    pub fn registry(mut self, registry: TypeRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Adds operation descriptors.
    pub fn operations(mut self, operations: impl IntoIterator<Item = OperationDescriptor>) -> Self {
        self.operations.extend(operations);
        self
    }

    /// Attaches a response cache. Without one, every call goes to the
    /// network.
    pub fn cache(mut self, cache: Arc<ResponseCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Enables miss coalescing (single-flight): concurrent misses on the
    /// same cache key perform only one back-end exchange. Only effective
    /// when a cache is attached.
    pub fn coalesce_misses(mut self, enabled: bool) -> Self {
        self.coalesce = enabled;
        self
    }

    /// Finishes the client.
    pub fn build(self) -> ServiceClient {
        let endpoint_url = self.endpoint.to_string();
        ServiceClient {
            call: Call::new(self.endpoint, self.transport, self.registry),
            endpoint_url,
            operations: self.operations,
            inflight: if self.coalesce && self.cache.is_some() {
                Some(InflightTable::new())
            } else {
                None
            },
            cache: self.cache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    use std::time::Duration;
    use wsrc_http::{Handler, InProcTransport, Request, Response};
    use wsrc_model::typeinfo::{FieldDescriptor, FieldType};
    use wsrc_obs::ManualClock;
    use wsrc_soap::serializer::serialize_response;

    fn op() -> OperationDescriptor {
        OperationDescriptor::new(
            "urn:Up",
            "upper",
            vec![FieldDescriptor::new("text", FieldType::String)],
            FieldType::String,
        )
    }

    /// Uppercases the `text` parameter.
    fn upper_handler() -> Arc<dyn Handler> {
        Arc::new(|request: &Request| {
            let registry = TypeRegistry::new();
            let req = wsrc_soap::deserializer::parse_request(
                request.body_text().expect("soap request is utf-8"),
                &[op()],
                &registry,
            )
            .expect("valid request");
            let text = req
                .param("text")
                .and_then(Value::as_str)
                .unwrap_or_default();
            let xml = serialize_response(
                "urn:Up",
                "upper",
                "return",
                &Value::string(text.to_uppercase()),
                &registry,
            )
            .unwrap();
            Response::ok("text/xml", xml.into_bytes())
        })
    }

    fn cached_client() -> (ServiceClient, Arc<InProcTransport>, ManualClock) {
        let transport = Arc::new(InProcTransport::new(upper_handler()));
        let clock = ManualClock::new();
        let cache = Arc::new(
            ResponseCache::builder(TypeRegistry::new())
                .cache_everything(Duration::from_secs(60))
                .clock(clock.handle())
                .build(),
        );
        let client = ServiceClient::builder(Url::new("svc.test", 80, "/soap"), transport.clone())
            .operations([op()])
            .cache(cache)
            .build();
        (client, transport, clock)
    }

    fn request(text: &str) -> RpcRequest {
        RpcRequest::new("urn:Up", "upper").with_param("text", text)
    }

    #[test]
    fn hit_bypasses_the_network() {
        let (client, transport, _clock) = cached_client();
        let (v1, d1) = client.invoke(&request("abc")).unwrap();
        assert_eq!(v1.as_value(), &Value::string("ABC"));
        assert_eq!(d1, Disposition::CacheMiss);
        assert_eq!(transport.requests_served(), 1);

        let (v2, d2) = client.invoke(&request("abc")).unwrap();
        assert_eq!(v2.as_value(), &Value::string("ABC"));
        assert_eq!(d2, Disposition::CacheHit);
        // No additional network traffic for the hit.
        assert_eq!(transport.requests_served(), 1);
    }

    #[test]
    fn distinct_requests_miss() {
        let (client, transport, _clock) = cached_client();
        client.invoke(&request("a")).unwrap();
        client.invoke(&request("b")).unwrap();
        assert_eq!(transport.requests_served(), 2);
    }

    #[test]
    fn ttl_expiry_refetches() {
        let (client, transport, clock) = cached_client();
        client.invoke(&request("x")).unwrap();
        clock.advance_millis(61_000);
        let (_, d) = client.invoke(&request("x")).unwrap();
        assert_eq!(d, Disposition::CacheMiss);
        assert_eq!(transport.requests_served(), 2);
    }

    #[test]
    fn without_cache_every_call_is_uncached() {
        let transport = Arc::new(InProcTransport::new(upper_handler()));
        let client = ServiceClient::builder(Url::new("svc.test", 80, "/soap"), transport.clone())
            .operations([op()])
            .build();
        for _ in 0..3 {
            let (_, d) = client.invoke(&request("x")).unwrap();
            assert_eq!(d, Disposition::Uncached);
        }
        assert_eq!(transport.requests_served(), 3);
    }

    #[test]
    fn unknown_operations_are_rejected() {
        let (client, _t, _c) = cached_client();
        let err = client
            .invoke(&RpcRequest::new("urn:Up", "lower"))
            .unwrap_err();
        assert!(matches!(err, ClientError::UnknownOperation(_)));
    }

    #[test]
    fn faults_are_not_cached() {
        let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let calls2 = calls.clone();
        let faulty: Arc<dyn Handler> = Arc::new(move |_req: &Request| {
            calls2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let xml =
                wsrc_soap::serializer::serialize_fault(&wsrc_soap::SoapFault::server("x")).unwrap();
            Response::new(
                wsrc_http::Status::INTERNAL_SERVER_ERROR,
                "text/xml",
                xml.into_bytes(),
            )
        });
        let cache = Arc::new(
            ResponseCache::builder(TypeRegistry::new())
                .cache_everything(Duration::from_secs(60))
                .clock(ManualClock::new())
                .build(),
        );
        let client = ServiceClient::builder(
            Url::new("svc.test", 80, "/soap"),
            Arc::new(InProcTransport::new(faulty)),
        )
        .operations([op()])
        .cache(cache.clone())
        .build();
        assert!(client.invoke(&request("x")).is_err());
        assert!(client.invoke(&request("x")).is_err());
        // Both attempts hit the server; the fault was never stored.
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 2);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn typed_call_trait_unwraps_values() {
        let (client, _t, _c) = cached_client();
        let v = TypedCall::invoke(&client, request("hi")).unwrap();
        assert_eq!(v, Value::string("HI"));
    }

    #[test]
    fn coalescing_deduplicates_concurrent_misses() {
        // A slow backend: every exchange takes ~40ms, so 8 threads racing
        // on the same key would all miss without coalescing.
        let slow: Arc<dyn Handler> = {
            let inner = upper_handler();
            Arc::new(move |req: &Request| {
                std::thread::sleep(Duration::from_millis(40));
                inner.handle(req)
            })
        };
        let transport = Arc::new(InProcTransport::new(slow));
        let cache = Arc::new(
            ResponseCache::builder(TypeRegistry::new())
                .cache_everything(Duration::from_secs(60))
                .clock(ManualClock::new())
                .build(),
        );
        let client = Arc::new(
            ServiceClient::builder(Url::new("svc.test", 80, "/soap"), transport.clone())
                .operations([op()])
                .cache(cache)
                .coalesce_misses(true)
                .build(),
        );
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let client = client.clone();
                scope.spawn(move || {
                    let (v, _) = client.as_ref().invoke(&request("same")).expect("call");
                    assert_eq!(v.as_value(), &Value::string("SAME"));
                });
            }
        });
        assert_eq!(
            transport.requests_served(),
            1,
            "one exchange for 8 racing threads"
        );
        let stats = client.cache().unwrap().stats();
        assert_eq!(stats.hits, 7);
        assert_eq!(stats.inserts, 1);
    }

    /// A tracer clock that runs one whole leader flight for the same key
    /// at the first reading taken after the traced caller's lookup has
    /// missed: its `cache-lookup` span finishes between the lookup and
    /// the join, which is where the interleaving has to happen.
    struct LeaderBetweenLookupAndJoin {
        client: Arc<ServiceClient>,
        armed: AtomicBool,
    }

    impl wsrc_obs::Clock for LeaderBetweenLookupAndJoin {
        fn now_millis(&self) -> u64 {
            let missed = self.client.cache().is_some_and(|c| c.stats().misses > 0);
            if missed && self.armed.swap(false, SeqCst) {
                let leader = self.client.as_ref().invoke(&request("late"));
                assert_eq!(leader.expect("leader flight").1, Disposition::CacheMiss);
            }
            0
        }
    }

    #[test]
    fn join_after_a_completed_flight_does_not_exchange_again() {
        let transport = Arc::new(InProcTransport::new(upper_handler()));
        let cache = Arc::new(
            ResponseCache::builder(TypeRegistry::new())
                .cache_everything(Duration::from_secs(60))
                .clock(ManualClock::new())
                .build(),
        );
        let client = Arc::new(
            ServiceClient::builder(Url::new("svc.test", 80, "/soap"), transport.clone())
                .operations([op()])
                .cache(cache)
                .coalesce_misses(true)
                .build(),
        );
        let clock = Arc::new(LeaderBetweenLookupAndJoin {
            client: client.clone(),
            armed: AtomicBool::new(true),
        });
        let tracer = wsrc_obs::Tracer::new(clock.clone());
        let root = tracer.root_span("late-joiner", "/test");
        let (v, d) = client.as_ref().invoke(&request("late")).expect("late call");
        root.finish();
        assert!(!clock.armed.load(SeqCst), "the leader flight ran");
        assert_eq!(v.as_value(), &Value::string("LATE"));
        assert_eq!(d, Disposition::CacheHit);
        assert_eq!(
            transport.requests_served(),
            1,
            "a leader that finds the entry cached must not exchange"
        );
    }

    #[test]
    fn coalescing_survives_leader_errors() {
        // First exchange fails; followers retry, one becomes the next
        // leader, and the system makes progress.
        let failures = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let f2 = failures.clone();
        let flaky: Arc<dyn Handler> = {
            let inner = upper_handler();
            Arc::new(move |req: &Request| {
                std::thread::sleep(Duration::from_millis(10));
                if f2.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                    return Response::error(wsrc_http::Status::NOT_FOUND, "flaky");
                }
                inner.handle(req)
            })
        };
        let transport = Arc::new(InProcTransport::new(flaky));
        let cache = Arc::new(
            ResponseCache::builder(TypeRegistry::new())
                .cache_everything(Duration::from_secs(60))
                .clock(ManualClock::new())
                .build(),
        );
        let client = Arc::new(
            ServiceClient::builder(Url::new("svc.test", 80, "/soap"), transport)
                .operations([op()])
                .cache(cache)
                .coalesce_misses(true)
                .build(),
        );
        let mut successes = 0;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let client = client.clone();
                    scope.spawn(move || client.as_ref().invoke(&request("retry")).is_ok())
                })
                .collect();
            for h in handles {
                if h.join().expect("thread") {
                    successes += 1;
                }
            }
        });
        // Exactly one thread saw the injected failure; the rest succeeded.
        assert_eq!(successes, 3, "one leader fails, followers recover");
    }

    #[test]
    fn cache_stats_reflect_traffic() {
        let (client, _t, _c) = cached_client();
        client.invoke(&request("q")).unwrap();
        client.invoke(&request("q")).unwrap();
        client.invoke(&request("q")).unwrap();
        let stats = client.cache().unwrap().stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }
}
