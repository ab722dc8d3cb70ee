// reason: the counting `#[global_allocator]` below implements
// `GlobalAlloc`, an unsafe trait; it is this file's only unsafe code.
#![allow(unsafe_code)]

//! Exact work counts per call: clock reads, histogram records, classed
//! lock acquisitions and heap allocations of one `ServiceClient::invoke`
//! over `InProcTransport`, for each forced production form × {hit, miss,
//! stale → 304, refused oversize insert, uncacheable}, untraced and
//! traced. The table is committed below: a change that adds work to a
//! path edits it, so the diff states the claim.
//!
//! Locks and allocations are checked in debug builds only (the lock
//! count lives next to the debug-only lock witness, and release builds
//! may elide allocations); clock reads and records in every build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};
use wsrcache::cache::store::Capacity;
use wsrcache::cache::{CachePolicy, OperationPolicy, ResponseCache, ValueRepresentation};
use wsrcache::client::{Disposition, ServiceClient};
use wsrcache::http::{Handler, InProcTransport, Request, Response, Url};
use wsrcache::obs::{Clock, ManualClock, MetricsRegistry};
use wsrcache::services::google::{self, GoogleService};
use wsrcache::services::SoapDispatcher;
use wsrcache::soap::RpcRequest;

/// Counts allocations per thread, so tests running in parallel do not
/// see each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the tally is
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A manual clock that counts its readings.
struct CountingClock {
    clock: ManualClock,
    reads: AtomicU64,
}

impl Clock for CountingClock {
    fn now_nanos(&self) -> u64 {
        self.reads.fetch_add(1, Ordering::SeqCst);
        self.clock.now_nanos()
    }
}

/// The back end, counting the allocations its own `handle` makes.
struct Backend {
    dispatcher: SoapDispatcher,
    allocations: AtomicU64,
}

impl Handler for Backend {
    fn handle(&self, request: &Request) -> Response {
        let before = allocations();
        let response = self.dispatcher.handle(request);
        self.allocations
            .fetch_add(allocations() - before, Ordering::SeqCst);
        response
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Hit,
    Miss,
    Revalidated,
    Refused,
    Uncacheable,
}

/// One invoke's work. `backend_allocs` is the part of `allocs` the
/// dummy service's dispatcher made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    reads: u64,
    records: u64,
    locks: u64,
    allocs: u64,
    backend_allocs: u64,
}

const fn w(reads: u64, records: u64, locks: u64, allocs: u64, backend_allocs: u64) -> Work {
    Work {
        reads,
        records,
        locks,
        allocs,
        backend_allocs,
    }
}

const FORMS: [ValueRepresentation; 4] = [
    ValueRepresentation::XmlMessage,
    ValueRepresentation::SaxEvents,
    ValueRepresentation::Serialization,
    ValueRepresentation::PassByReference,
];

const PATHS: [Path; 5] = [
    Path::Hit,
    Path::Miss,
    Path::Revalidated,
    Path::Refused,
    Path::Uncacheable,
];

/// The committed table, indexed [form][path][untraced, traced]:
/// `w(clock reads, records, locks, allocations, of which the back end's)`.
#[rustfmt::skip]
const EXPECTED: [[[Work; 2]; 5]; 4] = [
    // xml-message
    [
        [w(4, 3, 1, 86, 0), w(6, 3, 4, 103, 0)], // Hit
        [w(10, 7, 2, 208, 96), w(12, 7, 5, 226, 96)], // Miss
        [w(8, 5, 2, 108, 1), w(10, 5, 5, 124, 1)], // Revalidated
        [w(10, 7, 2, 205, 96), w(12, 7, 5, 223, 96)], // Refused
        [w(4, 3, 0, 192, 96), w(6, 3, 3, 205, 96)], // Uncacheable
    ],
    // sax-events
    [
        [w(4, 3, 1, 66, 0), w(6, 3, 4, 82, 0)], // Hit
        [w(10, 7, 2, 211, 96), w(12, 7, 5, 229, 96)], // Miss
        [w(8, 5, 2, 88, 1), w(10, 5, 5, 104, 1)], // Revalidated
        [w(10, 7, 2, 208, 96), w(12, 7, 5, 226, 96)], // Refused
        [w(4, 3, 0, 192, 96), w(6, 3, 3, 205, 96)], // Uncacheable
    ],
    // serialization
    [
        [w(4, 3, 1, 104, 0), w(6, 3, 4, 120, 0)], // Hit
        [w(10, 7, 2, 224, 96), w(12, 7, 5, 242, 96)], // Miss
        [w(8, 5, 2, 126, 1), w(10, 5, 5, 142, 1)], // Revalidated
        [w(10, 7, 2, 221, 96), w(12, 7, 5, 239, 96)], // Refused
        [w(4, 3, 0, 192, 96), w(6, 3, 3, 205, 96)], // Uncacheable
    ],
    // pass-by-reference
    [
        [w(4, 3, 1, 34, 0), w(6, 3, 4, 50, 0)], // Hit
        [w(10, 7, 2, 208, 96), w(12, 7, 5, 226, 96)], // Miss
        [w(8, 5, 2, 56, 1), w(10, 5, 5, 72, 1)], // Revalidated
        [w(10, 7, 2, 205, 96), w(12, 7, 5, 223, 96)], // Refused
        [w(4, 3, 0, 192, 96), w(6, 3, 3, 205, 96)], // Uncacheable
    ],
];

fn search() -> RpcRequest {
    RpcRequest::new(google::NAMESPACE, "doGoogleSearch")
        .with_param("key", "k")
        .with_param("q", "work counts")
        .with_param("start", 0)
        .with_param("maxResults", 10)
        .with_param("filter", true)
        .with_param("restrict", "")
        .with_param("safeSearch", false)
        .with_param("lr", "")
        .with_param("ie", "utf-8")
        .with_param("oe", "utf-8")
}

/// Measures the one invoke `path` is about, after the calls that set it
/// up.
fn measure(form: ValueRepresentation, path: Path, traced: bool) -> Work {
    let ttl = Duration::from_secs(3600);
    let epoch = SystemTime::UNIX_EPOCH + Duration::from_secs(1_700_000_000);
    let backend = Arc::new(Backend {
        dispatcher: SoapDispatcher::new()
            .mount(google::PATH, Arc::new(GoogleService::new()))
            .with_validation(epoch, ttl),
        allocations: AtomicU64::new(0),
    });
    let clock = Arc::new(CountingClock {
        clock: ManualClock::new(),
        reads: AtomicU64::new(0),
    });
    let metrics = Arc::new(MetricsRegistry::with_clock(clock.clone()));
    let policy = match path {
        Path::Uncacheable => {
            CachePolicy::new().with("doGoogleSearch", OperationPolicy::uncacheable())
        }
        _ => CachePolicy::new()
            .with_default(OperationPolicy::cacheable(ttl).with_representation(form)),
    };
    let mut cache = ResponseCache::builder(google::registry())
        .policy(policy)
        .metrics(metrics.clone());
    if path == Path::Refused {
        cache = cache.capacity(Capacity {
            max_entries: 16,
            max_bytes: 64,
        });
    }
    let cache = Arc::new(cache.build());
    let client = ServiceClient::builder(
        Url::new("backend.test", 80, google::PATH),
        Arc::new(InProcTransport::new(backend.clone())),
    )
    .registry(google::registry())
    .operations(google::operations())
    .cache(cache.clone())
    .build();
    match path {
        Path::Hit | Path::Revalidated => {
            client.invoke(&search()).expect("warming miss");
        }
        _ => {}
    }
    if path == Path::Revalidated {
        clock.clock.advance_millis(3_600_001);
    }
    backend.allocations.store(0, Ordering::SeqCst);

    let records = || -> u64 {
        let snapshot = metrics.snapshot();
        snapshot.histograms.iter().map(|(_, h)| h.count).sum()
    };
    let (reads, recorded) = (clock.reads.load(Ordering::SeqCst), records());
    let locks = wsrcache::obs::sync::acquisitions();
    let allocs = allocations();
    let root = traced.then(|| metrics.tracer().root_span("work-counts", "/work"));
    let (handle, disposition) = client.invoke(&search()).expect("invoke");
    drop(root);
    let allocs = allocations() - allocs;
    let locks = wsrcache::obs::sync::acquisitions()
        .zip(locks)
        .map_or(0, |(after, before)| after - before);
    let work = Work {
        reads: clock.reads.load(Ordering::SeqCst) - reads,
        records: records() - recorded,
        locks,
        allocs,
        backend_allocs: backend.allocations.load(Ordering::SeqCst),
    };
    drop(handle);

    let expected = match path {
        Path::Hit => Disposition::CacheHit,
        Path::Miss | Path::Refused => Disposition::CacheMiss,
        Path::Revalidated => Disposition::Revalidated,
        Path::Uncacheable => Disposition::Uncached,
    };
    assert_eq!(disposition, expected, "{form} {path:?}");
    if path == Path::Refused {
        assert_eq!((cache.stats().store_failures, cache.len()), (1, 0));
    }
    work
}

#[test]
fn every_path_does_exactly_the_committed_work() {
    let mut measured = String::new();
    let mut mismatched = false;
    for (f, form) in FORMS.into_iter().enumerate() {
        measured.push_str(&format!("    // {}\n    [\n", form.metric_label()));
        for (p, path) in PATHS.into_iter().enumerate() {
            let mut row = Vec::new();
            for (t, traced) in [false, true].into_iter().enumerate() {
                let mut got = measure(form, path, traced);
                let mut want = EXPECTED[f][p][t];
                if !cfg!(debug_assertions) {
                    (got.locks, got.allocs, got.backend_allocs) = (0, 0, 0);
                    (want.locks, want.allocs, want.backend_allocs) = (0, 0, 0);
                }
                mismatched |= got != want;
                let Work {
                    reads,
                    records,
                    locks,
                    allocs,
                    backend_allocs,
                } = got;
                row.push(format!(
                    "w({reads}, {records}, {locks}, {allocs}, {backend_allocs})"
                ));
            }
            measured.push_str(&format!("        [{}], // {path:?}\n", row.join(", ")));
        }
        measured.push_str("    ],\n");
    }
    assert!(!mismatched, "measured table:\n{measured}");
}

/// For `pass-by-reference` on every path:
/// tracing a call adds only its root span's two readings.
#[test]
fn tracing_adds_only_the_roots_two_readings() {
    for path in PATHS {
        let untraced = measure(ValueRepresentation::PassByReference, path, false);
        let traced = measure(ValueRepresentation::PassByReference, path, true);
        assert!(traced.reads <= untraced.reads + 2, "{path:?}");
        assert_eq!(traced.records, untraced.records, "{path:?}");
    }
}
