//! The system under test, assembled the way `examples/quickstart.rs`
//! assembles it: dummy Google back end behind an in-process transport,
//! response cache with builder defaults, caching client, and — for the
//! portal workloads — `PortalSite` behind a real `Server` on loopback.
//!
//! With `traced` the portal and the back end are wrapped in the
//! benchmark's own `Handler` / `Transport`, which open spans when
//! recording is on; without it nothing of the benchmark sits between the
//! layers.

use crate::fixtures::backend_url;
use crate::trace::{self, Layer, Link, LINK_HEADER};
use std::sync::Arc;
use wsrc_cache::repr::MissArtifacts;
use wsrc_cache::{AdaptivePolicy, CacheOutcome, Capacity, ResponseCache, ValueHandle};
use wsrc_client::ServiceClient;
use wsrc_http::{
    Handler, HttpClient, HttpError, InProcTransport, Request, Response, Server, ServerConfig,
    Status, Transport, Url,
};
use wsrc_model::typeinfo::TypeRegistry;
use wsrc_obs::MetricsRegistry;
use wsrc_portal::PortalSite;
use wsrc_services::google::{self, GoogleService};
use wsrc_services::SoapDispatcher;
use wsrc_soap::deserializer::read_response_bytes_recording;
use wsrc_soap::rpc::{OperationDescriptor, RpcRequest};
use wsrc_soap::serializer::serialize_request;

/// Worker threads of the portal server; with the load generator's one or
/// two callers this keeps the process within the two cores of the host.
pub const SERVER_WORKERS: usize = 2;

/// What a workload states about its cache; everything else is the
/// builder's default.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheConfig {
    pub max_entries: Option<usize>,
    pub max_bytes: Option<usize>,
    pub adaptive: bool,
}

/// Opens a span around the wrapped handler while recording is on: under
/// the span a request header links to (the portal, entered from a server
/// worker), or under the calling thread's open span (the back end).
struct SpanHandler {
    inner: Arc<dyn Handler>,
    layer: Layer,
}

impl Handler for SpanHandler {
    fn handle(&self, request: &Request) -> Response {
        if !trace::enabled() {
            return self.inner.handle(request);
        }
        match request.headers.get(LINK_HEADER).and_then(Link::from_header) {
            Some(link) => {
                let _span = trace::linked(self.layer, link);
                self.inner.handle(request)
            }
            None => trace::span(self.layer, || self.inner.handle(request)),
        }
    }
}

/// Opens an `http` span around the wrapped transport while recording is
/// on.
struct SpanTransport {
    inner: Arc<InProcTransport>,
}

impl Transport for SpanTransport {
    fn execute(&self, url: &Url, request: &Request) -> Result<Response, HttpError> {
        if !trace::enabled() {
            return self.inner.execute(url, request);
        }
        trace::span(Layer::Http, || self.inner.execute(url, request))
    }
}

/// The dummy Google service behind the SOAP dispatcher.
pub fn google_backend() -> Arc<dyn Handler> {
    Arc::new(SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new())))
}

/// A caching (or, without `cache`, cache-less) client of the back end.
pub fn service_client(
    transport: Arc<dyn Transport>,
    cache: Option<Arc<ResponseCache>>,
) -> Arc<ServiceClient> {
    let builder = ServiceClient::builder(backend_url(), transport)
        .registry(google::registry())
        .operations(google::operations());
    Arc::new(match cache {
        Some(cache) => builder.cache(cache).build(),
        None => builder.build(),
    })
}

/// The response cache as the codebase ships it, plus what `config`
/// states.
pub fn response_cache(config: CacheConfig) -> Arc<ResponseCache> {
    let mut builder = ResponseCache::builder(google::registry()).policy(google::default_policy());
    if config.max_entries.is_some() || config.max_bytes.is_some() {
        let default = Capacity::default();
        builder = builder.capacity(Capacity {
            max_entries: config.max_entries.unwrap_or(default.max_entries),
            max_bytes: config.max_bytes.unwrap_or(default.max_bytes),
        });
    }
    if config.adaptive {
        builder = builder.adaptive(Arc::new(AdaptivePolicy::new()));
    }
    Arc::new(builder.build())
}

/// The portal site behind a real server, and the pooled client the load
/// generator reaches it with.
pub struct PortalFront {
    pub server: Server,
    pub http: Arc<HttpClient>,
    pub base: Url,
    metrics: Arc<MetricsRegistry>,
}

impl PortalFront {
    fn bind(handler: Arc<dyn Handler>) -> PortalFront {
        let metrics = Arc::new(MetricsRegistry::new());
        let config = ServerConfig {
            workers: SERVER_WORKERS,
            registry: metrics.clone(),
            ..ServerConfig::default()
        };
        let server = Server::bind_with_config("127.0.0.1:0", handler, config)
            .expect("an ephemeral loopback port is free");
        let base = Url::new("127.0.0.1", server.port(), "/");
        PortalFront {
            server,
            http: Arc::new(HttpClient::new()),
            base,
            metrics,
        }
    }

    /// Connections the server turned away with a 503.
    pub fn rejected(&self) -> u64 {
        self.metrics
            .counter("wsrc_http_rejected_total", &[])
            .value()
    }
}

/// Everything one workload run drives and reads counters from.
pub struct Stack {
    pub cache: Arc<ResponseCache>,
    /// The in-process transport in front of the back end; counts the
    /// requests that reached it.
    pub backend: Arc<InProcTransport>,
    pub client: Arc<ServiceClient>,
    pub portal: Option<PortalFront>,
    /// What the client sends misses through (`backend`, wrapped in a
    /// span when traced).
    transport: Arc<dyn Transport>,
    registry: TypeRegistry,
    operations: Vec<OperationDescriptor>,
    endpoint: String,
}

impl Stack {
    pub fn build(config: CacheConfig, with_portal: bool, traced: bool) -> Stack {
        let backend_handler = if traced {
            Arc::new(SpanHandler {
                inner: google_backend(),
                layer: Layer::Services,
            })
        } else {
            google_backend()
        };
        let backend = Arc::new(InProcTransport::new(backend_handler));
        let transport: Arc<dyn Transport> = if traced && with_portal {
            // On the middleware path the benchmark's own pipeline opens
            // this span; behind the portal only a wrapper can.
            Arc::new(SpanTransport {
                inner: backend.clone(),
            })
        } else {
            backend.clone()
        };
        let cache = response_cache(config);
        let client = service_client(transport.clone(), Some(cache.clone()));
        let portal = with_portal.then(|| {
            let site: Arc<dyn Handler> = Arc::new(PortalSite::new(client.clone()));
            PortalFront::bind(if traced {
                Arc::new(SpanHandler {
                    inner: site,
                    layer: Layer::Portal,
                })
            } else {
                site
            })
        });
        Stack {
            cache,
            backend,
            client,
            portal,
            transport,
            registry: google::registry(),
            operations: google::operations(),
            endpoint: backend_url().to_string(),
        }
    }

    /// One middleware op with a span around each public call it is made
    /// of, mirroring `ServiceClient::invoke` (lookup, and on a miss
    /// serialize → exchange → read → insert). Only the traced pass uses
    /// it; the untraced passes call `ServiceClient::invoke` itself.
    pub fn traced_invoke(&self, request: &RpcRequest, op: u64) -> Result<ValueHandle, String> {
        let _root = trace::root(Layer::Client, op);
        let descriptor = self
            .operations
            .iter()
            .find(|o| o.name == request.operation)
            .ok_or("unknown operation")?;
        let lookup = trace::span(Layer::CoreLookup, || {
            self.cache
                .lookup_detailed(&self.endpoint, request, &descriptor.return_type)
        });
        match lookup {
            CacheOutcome::Fresh { handle, .. } => return Ok(handle),
            CacheOutcome::Stale { .. } => return Err("entry went stale within the run".into()),
            CacheOutcome::Miss => {}
        }
        descriptor
            .check_request(request)
            .map_err(|e| e.to_string())?;
        let request_xml = trace::span(Layer::SoapSerialize, || {
            serialize_request(request, &self.registry)
        })
        .map_err(|e| e.to_string())?;
        let url = backend_url();
        let http_request =
            Request::post(url.path(), wsrc_soap::envelope::CONTENT_TYPE, request_xml)
                .with_header("SOAPAction", format!("\"{}\"", descriptor.soap_action));
        let response = trace::span(Layer::Http, || self.transport.execute(&url, &http_request))
            .map_err(|e| e.to_string())?;
        if response.status != Status::OK {
            return Err(format!("back end answered {}", response.status));
        }
        let (outcome, events) = trace::span(Layer::SoapDeserialize, || {
            read_response_bytes_recording(
                response.body.as_bytes(),
                &descriptor.return_type,
                &self.registry,
            )
        })
        .map_err(|e| e.to_string())?;
        let value = outcome.into_return().map_err(|e| e.to_string())?;
        trace::span(Layer::CoreInsert, || {
            self.cache.insert_validated(
                &self.endpoint,
                request,
                MissArtifacts {
                    xml: &response.body.shared(),
                    events: &Arc::new(events),
                    value: &value,
                },
                response.headers.get("Last-Modified").map(str::to_string),
            )
        });
        Ok(ValueHandle::Owned(value))
    }
}
