//! Isolated calls: the paper's tables, one public function at a time, on
//! the shared search fixture. Each metric is the median time of one call
//! on one thread; calls of well under a microsecond are timed in small
//! batches so the clock reads do not dominate. Six calls are also made
//! from two threads at once (suffix `.t2`), where a shared lock or the
//! allocator shows.

use crate::fixtures::{backend_url, key, portal_path, Fixture, Op, Truth, SHARED_KEY};
use crate::metrics::{keygen_metric, repr_metric, Values};
use crate::stack::{google_backend, response_cache, service_client, CacheConfig, SERVER_WORKERS};
use crate::stats::median;
use std::convert::Infallible;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use wsrc_cache::key::generate_key;
use wsrc_cache::{
    CacheEntry, CacheKey, CacheStore, Capacity, KeyStrategy, StoredResponse, ValueRepresentation,
};
use wsrc_client::Call;
use wsrc_http::{
    Handler, HttpClient, InProcTransport, Request, Response, Server, ServerConfig, Transport, Url,
};
use wsrc_model::{binser, deep_clone, reflect};
use wsrc_obs::MetricsRegistry;
use wsrc_portal::PortalSite;
use wsrc_services::google;
use wsrc_soap::deserializer::{parse_request, read_response_bytes_recording, read_response_events};
use wsrc_soap::serializer::{serialize_request, serialize_response};
use wsrc_wsdl::CompileOptions;
use wsrc_xml::sax::ContentHandler;
use wsrc_xml::XmlReader;

/// Calls per metric at full scale.
pub const FULL_CALLS: usize = 20_000;
/// A sample spans at least this long, so two clock reads are under 3 %
/// of it.
const MIN_SAMPLE: Duration = Duration::from_micros(2);
/// Even under a time cap a metric makes this many calls (or all of them).
const MIN_CALLS: usize = 200;
/// Entries of the small caches and stores that evict on every insert.
const EVICTING_ENTRIES: usize = 1024;

/// How much each metric may measure.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub calls: usize,
    /// Stop a metric early once it has run this long.
    pub cap: Option<Duration>,
}

/// Swallows replayed events: what any consumer of a recording pays.
struct NullHandler;

impl ContentHandler for NullHandler {
    type Error = Infallible;
}

/// Times `effort.calls` calls of `op`, each on an input `prep` makes
/// outside the timed interval, and returns nanoseconds per call, one
/// value per sample. Dropping the result is part of the call, as it is
/// for the caller of the real thing.
fn sample<I, O>(
    effort: Effort,
    mut prep: impl FnMut(usize) -> I,
    mut op: impl FnMut(I) -> O,
) -> Vec<f64> {
    let calls = effort.calls.max(1);
    // A few untimed calls warm the caches and size the batch.
    let probe = calls.min(16);
    let inputs: Vec<I> = (0..probe).map(&mut prep).collect();
    let t = Instant::now();
    for input in inputs {
        black_box(op(input));
    }
    let per_call = t.elapsed() / probe as u32;
    let batch = (MIN_SAMPLE.as_nanos() / per_call.as_nanos().max(1)).clamp(1, 256) as usize;

    let started = Instant::now();
    let mut samples = Vec::with_capacity(calls / batch + 1);
    let mut done = 0;
    while done < calls {
        let n = batch.min(calls - done);
        let inputs: Vec<I> = (done..done + n).map(|i| prep(probe + i)).collect();
        let t = Instant::now();
        for input in inputs {
            black_box(op(input));
        }
        samples.push(t.elapsed().as_nanos() as f64 / n as f64);
        done += n;
        if done >= MIN_CALLS && effort.cap.is_some_and(|cap| started.elapsed() >= cap) {
            break;
        }
    }
    samples
}

struct Isolated {
    effort: Effort,
    values: Values,
}

impl Isolated {
    /// Median microseconds per call.
    fn us<I, O>(&mut self, name: &str, prep: impl FnMut(usize) -> I, op: impl FnMut(I) -> O) {
        let ns = median(&mut sample(self.effort, prep, op));
        self.values.set(name, ns / 1000.0);
    }

    /// Median nanoseconds per call.
    fn ns<O>(&mut self, name: &str, mut op: impl FnMut() -> O) {
        let ns = median(&mut sample(self.effort, |_| (), |()| op()));
        self.values.set(name, ns);
    }

    /// `name` on one thread, then `name.t2` on two threads at once.
    /// `make(thread)` builds that thread's `(prep, op)` over whatever the
    /// threads share.
    fn us_and_t2<I, O, P, F>(&mut self, name: &str, make: impl Fn(usize) -> (P, F) + Sync)
    where
        P: FnMut(usize) -> I,
        F: FnMut(I) -> O,
    {
        let (prep, op) = make(0);
        self.us(name, prep, op);
        let effort = self.effort;
        let barrier = Barrier::new(2);
        let mut both: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=2)
                .map(|thread| {
                    let (make, barrier) = (&make, &barrier);
                    s.spawn(move || {
                        let (prep, op) = make(thread);
                        barrier.wait();
                        sample(effort, prep, op)
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("an isolated call panicked"))
                .collect()
        });
        self.values
            .set(format!("{name}.t2"), median(&mut both) / 1000.0);
    }
}

/// A search request nobody has sent before: `thread` and `i` pick the
/// key.
fn unique_search(thread: usize, i: usize) -> wsrc_soap::RpcRequest {
    Op::Search.request(&key(thread as u64, 'i', i))
}

fn soap_post(f: &Fixture) -> Request {
    Request::post(
        google::PATH,
        wsrc_soap::envelope::CONTENT_TYPE,
        f.request_xml.clone(),
    )
    .with_header("SOAPAction", format!("\"urn:{}\"", f.op.name()))
}

fn static_ok() -> Arc<dyn Handler> {
    Arc::new(|_: &Request| Response::ok("text/plain", b"ok".to_vec()))
}

fn evicting() -> CacheConfig {
    CacheConfig {
        max_entries: Some(EVICTING_ENTRIES),
        ..CacheConfig::default()
    }
}

/// Runs every isolated call and returns its metric.
pub fn run_all(effort: Effort) -> Values {
    let truth = Truth::new();
    let f = truth.fixture(Op::Search, SHARED_KEY);
    let registry = google::registry();
    let operations = google::operations();
    let endpoint = backend_url().to_string();
    let mut iso = Isolated {
        effort,
        values: Values::default(),
    };

    // xml
    iso.us(
        "xml.read_sequence_us",
        |_| (),
        |()| XmlReader::from_bytes(&f.xml).and_then(XmlReader::read_sequence),
    );
    iso.us(
        "xml.replay_us",
        |_| (),
        |()| f.events.replay(&mut NullHandler),
    );

    // model
    iso.us_and_t2("model.reflect_copy_us", |_| {
        (|_| (), |()| reflect::reflect_copy(&f.value, &registry))
    });
    iso.us(
        "model.clone_copy_us",
        |_| (),
        |()| deep_clone::clone_copy(&f.value, &registry),
    );
    iso.us(
        "model.binser_serialize_us",
        |_| (),
        |()| binser::serialize_checked(&f.value, &registry),
    );
    let serialized = binser::serialize(&f.value);
    iso.us(
        "model.binser_deserialize_us",
        |_| (),
        |()| binser::deserialize(&serialized),
    );

    // soap
    iso.us(
        "soap.serialize_request_us",
        |_| (),
        |()| serialize_request(&f.request, &registry),
    );
    iso.us(
        "soap.serialize_response_us",
        |_| (),
        |()| {
            serialize_response(
                google::NAMESPACE,
                f.op.name(),
                "return",
                &f.value,
                &registry,
            )
        },
    );
    iso.us(
        "soap.parse_request_us",
        |_| (),
        |()| parse_request(&f.request_xml, &operations, &registry),
    );
    iso.us_and_t2("soap.read_response_bytes_us", |_| {
        (
            |_| (),
            |()| read_response_bytes_recording(&f.xml, &f.return_type, &registry),
        )
    });
    iso.us(
        "soap.read_response_events_us",
        |_| (),
        |()| read_response_events(&f.events, &f.return_type, &registry),
    );

    // core: keys and representations
    for strategy in KeyStrategy::CONCRETE {
        iso.us(
            &keygen_metric(strategy),
            |_| (),
            |()| generate_key(strategy, &endpoint, &f.request, &registry),
        );
    }
    for repr in ValueRepresentation::ALL_EXTENDED {
        iso.us(
            &repr_metric("build_us", repr),
            |_| (),
            |()| StoredResponse::build(repr, f.artifacts(), &registry),
        );
        let stored = StoredResponse::build(repr, f.artifacts(), &registry)
            .expect("every representation applies to the search result");
        iso.us(
            &repr_metric("retrieve_us", repr),
            |_| (),
            |()| stored.retrieve(&f.return_type, &registry),
        );
        iso.values.set(
            repr_metric("stored_bytes", repr),
            stored.approximate_size() as f64,
        );
    }

    // core: the store alone
    let entry = CacheEntry::single(StoredResponse::XmlMessage(f.xml.clone()));
    let store_key = |i: usize| CacheKey::Text(format!("{endpoint}\n{i}"));
    let never = u64::MAX;
    {
        let store = CacheStore::new(Capacity::default());
        let keys: Vec<CacheKey> = (0..EVICTING_ENTRIES).map(store_key).collect();
        for k in &keys {
            store.put(k.clone(), entry.clone(), never, 0);
        }
        iso.us(
            "core.store_get_us",
            |i| &keys[i % keys.len()],
            |k| store.get(k, 0),
        );
    }
    {
        let store = CacheStore::new(Capacity {
            max_entries: usize::MAX,
            max_bytes: usize::MAX,
        });
        iso.us(
            "core.store_put_us",
            |i| (store_key(i), entry.clone()),
            |(k, e)| store.put(k, e, never, 0),
        );
    }
    {
        let store = CacheStore::new(Capacity {
            max_entries: EVICTING_ENTRIES,
            ..Capacity::default()
        });
        for i in 0..2 * EVICTING_ENTRIES {
            store.put(store_key(usize::MAX - i), entry.clone(), never, 0);
        }
        iso.us(
            "core.store_put_evict_us",
            |i| (store_key(i), entry.clone()),
            |(k, e)| store.put(k, e, never, 0),
        );
    }

    // core: the cache facade
    {
        let cache = response_cache(CacheConfig::default());
        cache.insert(&endpoint, &f.request, f.artifacts());
        iso.us_and_t2("core.lookup_hit_us", |_| {
            (
                |_| (),
                |()| cache.lookup_detailed(&endpoint, &f.request, &f.return_type),
            )
        });
        let absent = Op::Search.request("absent");
        iso.us(
            "core.lookup_miss_us",
            |_| (),
            |()| cache.lookup_detailed(&endpoint, &absent, &f.return_type),
        );
        // Emptied now and then (untimed) so no insert evicts and the
        // entries of 20 000 inserts are never all alive.
        iso.us(
            "core.insert_us",
            |i| {
                if i % EVICTING_ENTRIES == 0 {
                    cache.clear();
                }
                unique_search(0, i)
            },
            |request| cache.insert(&endpoint, &request, f.artifacts()),
        );
    }
    {
        let cache = response_cache(evicting());
        for i in 0..2 * EVICTING_ENTRIES {
            cache.insert(&endpoint, &unique_search(9, i), f.artifacts());
        }
        iso.us_and_t2("core.insert_evict_us", |thread| {
            (
                move |i| unique_search(thread, i),
                |request| cache.insert(&endpoint, &request, f.artifacts()),
            )
        });
    }

    // client
    let backend = || -> Arc<dyn Transport> { Arc::new(InProcTransport::new(google_backend())) };
    {
        let client = service_client(backend(), Some(response_cache(CacheConfig::default())));
        client
            .invoke(&f.request)
            .expect("the fixture request succeeds");
        iso.us(
            "client.invoke_hit_us",
            |_| (),
            |()| client.invoke(&f.request),
        );
    }
    {
        let client = service_client(backend(), Some(response_cache(evicting())));
        for i in 0..2 * EVICTING_ENTRIES {
            client.invoke(&unique_search(9, i)).expect("warm-up miss");
        }
        iso.us_and_t2("client.invoke_miss_us", |thread| {
            (
                move |i| unique_search(thread, i),
                |request| client.invoke(&request),
            )
        });
    }
    {
        let call = Call::new(backend_url(), backend(), registry.clone());
        let descriptor = operations
            .iter()
            .find(|o| o.name == f.op.name())
            .expect("the search operation is described");
        iso.us(
            "client.call_invoke_us",
            |_| (),
            |()| call.invoke(descriptor, &f.request),
        );
    }

    // http: framing of the search messages, then bare forwarding
    let host = backend_url().authority();
    let post = soap_post(&f);
    let reply = Response::ok(wsrc_soap::envelope::CONTENT_TYPE, f.xml.clone());
    let buffer = |_| Vec::<u8>::with_capacity(16 * 1024);
    iso.us("http.request_write_us", buffer, |mut b| {
        post.write_to(&mut b, &host).map(|()| b)
    });
    iso.us("http.response_write_us", buffer, |mut b| {
        reply.write_to(&mut b).map(|()| b)
    });
    let mut post_bytes = Vec::new();
    post.write_to(&mut post_bytes, &host)
        .expect("write to memory");
    let mut reply_bytes = Vec::new();
    reply.write_to(&mut reply_bytes).expect("write to memory");
    iso.us(
        "http.request_read_us",
        |_| &post_bytes[..],
        |mut bytes| Request::read_from(&mut bytes),
    );
    iso.us(
        "http.response_read_us",
        |_| &reply_bytes[..],
        |mut bytes| Response::read_from(&mut bytes),
    );
    {
        let transport = InProcTransport::new(static_ok());
        let (url, get) = (Url::new("static.test", 80, "/"), Request::get("/"));
        iso.us(
            "http.inproc_execute_us",
            |_| (),
            |()| transport.execute(&url, &get),
        );
    }
    {
        let config = ServerConfig {
            workers: SERVER_WORKERS,
            registry: Arc::new(MetricsRegistry::new()),
            ..ServerConfig::default()
        };
        let server = Server::bind_with_config("127.0.0.1:0", static_ok(), config)
            .expect("an ephemeral loopback port is free");
        let client = HttpClient::new();
        let url = Url::new("127.0.0.1", server.port(), "/");
        iso.us("http.tcp_roundtrip_us", |_| (), |()| client.get(&url));
    }

    // services and portal
    {
        let dispatcher = google_backend();
        iso.us_and_t2("services.handle_us", |_| {
            (|_| (), |()| dispatcher.handle(&post))
        });
    }
    {
        let site = PortalSite::new(service_client(
            backend(),
            Some(response_cache(CacheConfig::default())),
        ));
        let get = Request::get(portal_path(SHARED_KEY));
        site.handle(&get);
        iso.us("portal.handle_hit_us", |_| (), |()| site.handle(&get));
    }

    // obs: what the program's own instrumentation costs per call
    let histogram = MetricsRegistry::new().histogram("benchmark_probe_seconds", &[]);
    iso.ns("obs.histogram_record_ns", || histogram.record_nanos(1234));
    iso.ns("obs.child_span_untraced_ns", || {
        wsrc_obs::trace::child_span("probe", "probe")
    });

    // wsdl: configuration time
    let definitions = google::wsdl(&endpoint);
    iso.us(
        "wsdl.compile_us",
        |_| (),
        |()| wsrc_wsdl::compile(&definitions, CompileOptions::default()),
    );

    iso.values
}
