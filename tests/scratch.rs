// reason: the counting `#[global_allocator]` below implements
// `GlobalAlloc`, an unsafe trait; it is this file's only unsafe code.
#![allow(unsafe_code)]

//! The per-thread scratch of the four SOAP passes, end to end: over
//! `InProcTransport` the client and the back end write and read on one
//! thread, each pass in buffers the other just used, and every message
//! is byte for byte what a fresh thread writes; after a 1 MiB message
//! the thread keeps at most 64 KiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use wsrcache::client::ServiceClient;
use wsrcache::http::{Body, Handler, InProcTransport, Request, Response, Url};
use wsrcache::services::google::{self, GoogleService};
use wsrcache::services::{SoapDispatcher, SoapService};
use wsrcache::soap::serializer::{serialize_request, serialize_response};
use wsrcache::soap::RpcRequest;

/// Tracks the bytes this thread holds: allocated less freed.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the tally is
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|n| n.set(n.get() + layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The back end, keeping each request and response body it saw.
struct Recording {
    dispatcher: SoapDispatcher,
    seen: Mutex<Vec<(Body, Body)>>,
}

impl Handler for Recording {
    fn handle(&self, request: &Request) -> Response {
        let response = self.dispatcher.handle(request);
        self.seen
            .lock()
            .expect("no test thread panics holding it")
            .push((request.body.clone(), response.body.clone()));
        response
    }
}

fn search(q: &str) -> RpcRequest {
    RpcRequest::new(google::NAMESPACE, "doGoogleSearch")
        .with_param("key", "k")
        .with_param("q", q)
        .with_param("start", 0)
        .with_param("maxResults", 10)
        .with_param("filter", true)
        .with_param("restrict", "")
        .with_param("safeSearch", false)
        .with_param("lr", "")
        .with_param("ie", "utf-8")
        .with_param("oe", "utf-8")
}

fn requests() -> Vec<RpcRequest> {
    let spelling = |phrase: &str| {
        RpcRequest::new(google::NAMESPACE, "doSpellingSuggestion")
            .with_param("key", "k")
            .with_param("phrase", phrase)
    };
    let page = RpcRequest::new(google::NAMESPACE, "doGetCachedPage")
        .with_param("key", "k")
        .with_param("url", "http://pages.test/a & b");
    vec![
        search("scratch <one>"),
        spelling("helo wrld"),
        page,
        search("scratch two"),
        spelling("a"),
    ]
}

/// An uncached client of the dummy Google back end in this process.
fn client(backend: Arc<dyn Handler>) -> ServiceClient {
    ServiceClient::builder(
        Url::new("backend.test", 80, google::PATH),
        Arc::new(InProcTransport::new(backend)),
    )
    .registry(google::registry())
    .operations(google::operations())
    .build()
}

#[test]
fn client_and_back_end_on_one_thread_write_what_a_fresh_thread_writes() {
    let backend = Arc::new(Recording {
        dispatcher: SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new())),
        seen: Mutex::new(Vec::new()),
    });
    let client = client(backend.clone());
    let served: Vec<_> = std::thread::scope(|s| {
        s.spawn(|| {
            requests()
                .iter()
                .map(|request| client.invoke(request).expect("the back end answers").0)
                .collect()
        })
        .join()
        .expect("the calling thread finishes")
    });
    let seen = backend.seen.lock().expect("no test thread panicked");
    let registry = google::registry();
    let service = GoogleService::new();
    for ((request, (request_body, response_body)), handle) in
        requests().iter().zip(seen.iter()).zip(served)
    {
        // Each message on a thread of its own: no scratch shared.
        let (want_request, want_response, value) = std::thread::scope(|s| {
            s.spawn(|| {
                let value = service.call(request).expect("the service answers");
                let xml = serialize_request(request, &registry).expect("serializes");
                let response = serialize_response(
                    google::NAMESPACE,
                    &request.operation,
                    "return",
                    &value,
                    &registry,
                )
                .expect("serializes");
                (xml, response, value)
            })
            .join()
            .expect("the fresh thread finishes")
        });
        assert_eq!(request_body.as_bytes(), want_request.as_bytes());
        assert_eq!(response_body.as_bytes(), want_response.as_bytes());
        assert_eq!(*handle.as_value(), value, "{}", request.operation);
    }
}

#[test]
fn a_thread_keeps_at_most_64_kib_after_a_1_mib_message() {
    let backend: Arc<dyn Handler> =
        Arc::new(SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new())));
    let client = client(backend);
    let huge = "x".repeat(1 << 20);
    let request = RpcRequest::new(google::NAMESPACE, "doSpellingSuggestion")
        .with_param("key", "k")
        .with_param("phrase", huge.as_str());
    let kept = std::thread::scope(|s| {
        s.spawn(|| {
            let start = LIVE.with(Cell::get);
            let (handle, _) = client.invoke(&request).expect("the back end answers");
            let peak_message = handle.as_value().as_str().map_or(0, str::len);
            drop(handle);
            assert!(peak_message >= 1 << 20, "the reply echoes the phrase");
            LIVE.with(Cell::get) - start
        })
        .join()
        .expect("the calling thread finishes")
    });
    assert!(kept <= 64 << 10, "the thread kept {kept} bytes");
}
