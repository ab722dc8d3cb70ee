//! [`ServiceClient`] — the full client middleware with the transparent
//! response cache.

use crate::call::{Call, ConditionalOutcome};
use crate::error::ClientError;
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
    /// Full exchange performed and nothing stored: no cache is attached,
    /// the policy excludes the operation, or no key strategy applies to
    /// the request.
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
        // Policy and key are resolved here, once, for whichever of
        // lookup, refresh and insert the call goes on to need.
        let cached = self
            .cache
            .as_ref()
            .and_then(|cache| cache.call(&self.endpoint_url, request));
        let Some(cached) = cached else {
            let exchange = self.call.invoke(descriptor, request)?;
            return Ok((ValueHandle::Owned(exchange.value), Disposition::Uncached));
        };
        // The miss records the response's events only for a form that
        // stores them.
        let record = cached.keeps_events();
        let exchange = match cached.lookup(&descriptor.return_type) {
            CacheOutcome::Fresh { handle } => return Ok((handle, Disposition::CacheHit)),
            // Expired but revalidatable: ask the server whether the
            // response changed since the cached copy.
            CacheOutcome::Stale { handle, validator } => {
                match self
                    .call
                    .exchange(descriptor, request, Some(&validator), record)?
                {
                    ConditionalOutcome::NotModified => {
                        cached.refresh();
                        return Ok((handle, Disposition::Revalidated));
                    }
                    ConditionalOutcome::Fresh(exchange) => exchange,
                }
            }
            CacheOutcome::Miss => self
                .call
                .exchange(descriptor, request, None, record)?
                .into_fresh()?,
        };
        cached.insert(
            MissArtifacts {
                xml: &exchange.response_xml,
                events: &exchange.response_events,
                value: &exchange.value,
            },
            exchange.last_modified,
        );
        Ok((ValueHandle::Owned(exchange.value), Disposition::CacheMiss))
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

    /// The endpoint URL string used in cache keys.
    pub fn endpoint_url(&self) -> &str {
        &self.endpoint_url
    }
}

/// Builder for [`ServiceClient`].
pub struct ServiceClientBuilder {
    endpoint: Url,
    transport: Arc<dyn Transport>,
    registry: TypeRegistry,
    operations: Vec<OperationDescriptor>,
    cache: Option<Arc<ResponseCache>>,
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
    /// network. The client records its stage durations in the cache's
    /// registry (the process-wide one without a cache), so a registry
    /// injected into the cache holds the whole call.
    pub fn cache(mut self, cache: Arc<ResponseCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Finishes the client.
    pub fn build(self) -> ServiceClient {
        let endpoint_url = self.endpoint.to_string();
        let metrics = self
            .cache
            .as_ref()
            .map_or_else(wsrc_obs::global, |cache| cache.metrics().clone());
        ServiceClient {
            call: Call::in_registry(self.endpoint, self.transport, self.registry, &metrics),
            endpoint_url,
            operations: self.operations,
            cache: self.cache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wsrc_cache::{CachePolicy, OperationPolicy};
    use wsrc_http::{Handler, InProcTransport, Request, Response};
    use wsrc_model::typeinfo::{FieldDescriptor, FieldType};
    use wsrc_obs::{ManualClock, MetricsRegistry};
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

    fn client_over(
        handler: Arc<dyn Handler>,
        cache: wsrc_cache::ResponseCacheBuilder,
    ) -> (ServiceClient, Arc<InProcTransport>) {
        let transport = Arc::new(InProcTransport::new(handler));
        let client = ServiceClient::builder(Url::new("svc.test", 80, "/soap"), transport.clone())
            .operations([op()])
            .cache(Arc::new(cache.build()))
            .build();
        (client, transport)
    }

    fn cached_client() -> (ServiceClient, Arc<InProcTransport>, ManualClock) {
        let clock = ManualClock::new();
        let (client, transport) = client_over(
            upper_handler(),
            ResponseCache::builder(TypeRegistry::new())
                .cache_everything(Duration::from_secs(60))
                .metrics(Arc::new(MetricsRegistry::with_clock(clock.handle()))),
        );
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
    fn uncacheable_operations_skip_the_cache_and_say_so() {
        let policy = CachePolicy::new().with("upper", OperationPolicy::uncacheable());
        let (client, transport) = client_over(
            upper_handler(),
            ResponseCache::builder(TypeRegistry::new()).policy(policy),
        );
        let cache = client.cache().unwrap();
        for calls in 1..=2 {
            let (v, d) = client.invoke(&request("cart")).unwrap();
            assert_eq!(v.as_value(), &Value::string("CART"));
            assert_eq!(d, Disposition::Uncached);
            let stats = cache.stats();
            assert_eq!(stats.uncacheable, calls, "counted once per call");
            assert_eq!((stats.misses, stats.store_failures), (0, 0));
            assert_eq!(transport.requests_served(), calls);
        }
        assert_eq!(cache.len(), 0);
    }

    /// A miss, a hit and a 304 revalidation each render the cache key
    /// once, counted by the keygen samples of traced (so timed) calls.
    /// (That `lookup_detailed` and `insert_validated` called on
    /// their own still render one each is `wsrc-cache`'s
    /// `metrics_registry_sees_stages_and_representations`.)
    #[test]
    fn every_call_renders_its_key_once() {
        let revalidating: Arc<dyn Handler> = {
            let inner = upper_handler();
            Arc::new(move |req: &Request| {
                if req.headers.contains("If-Modified-Since") {
                    Response::not_modified()
                } else {
                    inner
                        .handle(req)
                        .with_header("Last-Modified", "Thu, 01 Jan 2004 00:00:00 GMT")
                }
            })
        };
        let clock = ManualClock::new();
        let metrics = Arc::new(MetricsRegistry::with_clock(clock.handle()));
        let (client, _transport) = client_over(
            revalidating,
            ResponseCache::builder(TypeRegistry::new())
                .cache_everything(Duration::from_secs(60))
                .metrics(metrics.clone())
                .metrics_label("unit"),
        );
        let renders = || {
            let labels = [("cache", "unit"), ("stage", "keygen")];
            metrics
                .snapshot()
                .histogram("wsrc_cache_stage_seconds", &labels)
                .map_or(0, |h| h.count)
        };
        let steps = [
            (0, Disposition::CacheMiss),
            (0, Disposition::CacheHit),
            (61_000, Disposition::Revalidated),
        ];
        for (calls, (advance, expected)) in (1..).zip(steps) {
            clock.advance_millis(advance);
            // Traced, so the render is timed whatever the thread's
            // one-in-N counter says.
            let root = metrics.tracer().root_span("unit", "/unit");
            let (_, disposition) = client.invoke(&request("once")).unwrap();
            root.finish();
            assert_eq!(disposition, expected);
            assert_eq!(renders(), calls, "{expected:?}");
        }
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
