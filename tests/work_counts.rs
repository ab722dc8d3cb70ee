// reason: the counting `#[global_allocator]` below implements
// `GlobalAlloc`, an unsafe trait; it is this file's only unsafe code.
#![allow(unsafe_code)]

//! Exact work counts per call: clock reads, histogram records, classed
//! lock acquisitions, heap allocations and the bytes they asked for, of
//! one `ServiceClient::invoke`
//! over `InProcTransport`, for each forced production form × {hit, miss,
//! stale → 304, refused oversize insert, uncacheable}, as an untimed
//! call (the cache times one untraced call in `TIME_ONE_CALL_IN` per
//! thread), as the timed one, and traced. The table is committed below:
//! a change that adds work to a path edits it, so the diff states the
//! claim.
//!
//! The call is the search request Tables 6–9 measure
//! (`google::fixtures`), built before the counted window. Locks are
//! checked in debug builds only, where the lock witness that counts
//! them lives; everything else in every build. A reallocation counts as
//! an allocation of its new size, so a buffer that grows by doubling
//! shows as a ladder in both columns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};
use wsrcache::cache::store::Capacity;
use wsrcache::cache::{
    CachePolicy, OperationPolicy, ResponseCache, ValueRepresentation, TIME_ONE_CALL_IN,
};
use wsrcache::client::{Disposition, ServiceClient};
use wsrcache::http::{Handler, InProcTransport, Request, Response, Url};
use wsrcache::obs::{Clock, ManualClock, MetricsRegistry};
use wsrcache::services::google::{self, GoogleService};
use wsrcache::services::SoapDispatcher;
use wsrcache::soap::RpcRequest;

/// Counts allocations and their bytes per thread, so tests running in
/// parallel do not see each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the tally is
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| {
            let (count, bytes) = n.get();
            n.set((count + 1, bytes + layout.size() as u64));
        });
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

/// Allocations so far on this thread, and the bytes they asked for.
fn allocations() -> (u64, u64) {
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
        let before = allocations().0;
        let response = self.dispatcher.handle(request);
        self.allocations
            .fetch_add(allocations().0 - before, Ordering::SeqCst);
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

/// One invoke's work. `bytes` is what `allocs` asked for;
/// `backend_allocs` is the part of `allocs` the dummy service's
/// dispatcher made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    reads: u64,
    records: u64,
    locks: u64,
    allocs: u64,
    bytes: u64,
    backend_allocs: u64,
}

const fn w(
    reads: u64,
    records: u64,
    locks: u64,
    allocs: u64,
    bytes: u64,
    backend_allocs: u64,
) -> Work {
    Work {
        reads,
        records,
        locks,
        allocs,
        bytes,
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

/// How the measured call is made: as one of the untraced calls the cache
/// does not time, as the one in `TIME_ONE_CALL_IN` it does, or traced
/// (always timed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Untimed,
    Timed,
    Traced,
}

const MODES: [Mode; 3] = [Mode::Untimed, Mode::Timed, Mode::Traced];

/// The committed table, indexed [form][path][untimed, timed, traced]:
/// `w(clock reads, records, locks, allocations, bytes allocated, of the
/// allocations the back end's)`.
#[rustfmt::skip]
const EXPECTED: [[[Work; 3]; 5]; 4] = [
    // xml-message
    [
        [w(1, 0, 1, 5, 7728, 0), w(4, 3, 1, 5, 7728, 0), w(6, 3, 3, 10, 8832, 0)], // Hit
        [w(8, 5, 2, 50, 26626, 30), w(10, 7, 2, 50, 26626, 30), w(12, 7, 8, 55, 28499, 30)], // Miss
        [w(5, 2, 2, 17, 8996, 1), w(8, 5, 2, 17, 8996, 1), w(10, 5, 6, 21, 9846, 1)], // Revalidated
        [w(8, 5, 2, 46, 25799, 30), w(10, 7, 2, 46, 25799, 30), w(12, 7, 8, 51, 27672, 30)], // Refused
        [w(4, 3, 0, 46, 25799, 30), w(4, 3, 0, 46, 25799, 30), w(6, 3, 4, 49, 26636, 30)], // Uncacheable
    ],
    // sax-events
    [
        [w(1, 0, 1, 5, 7728, 0), w(4, 3, 1, 5, 7728, 0), w(6, 3, 3, 9, 8576, 0)], // Hit
        [w(8, 5, 2, 54, 42898, 30), w(10, 7, 2, 54, 42898, 30), w(12, 7, 8, 59, 44771, 30)], // Miss
        [w(5, 2, 2, 17, 8996, 1), w(8, 5, 2, 17, 8996, 1), w(10, 5, 6, 21, 9846, 1)], // Revalidated
        [w(8, 5, 2, 50, 42071, 30), w(10, 7, 2, 50, 42071, 30), w(12, 7, 8, 55, 43944, 30)], // Refused
        [w(4, 3, 0, 46, 25799, 30), w(4, 3, 0, 46, 25799, 30), w(6, 3, 4, 49, 26636, 30)], // Uncacheable
    ],
    // serialization
    [
        [w(1, 0, 1, 47, 13860, 0), w(4, 3, 1, 47, 13860, 0), w(6, 3, 3, 51, 14708, 0)], // Hit
        [w(8, 5, 2, 66, 48494, 30), w(10, 7, 2, 66, 48494, 30), w(12, 7, 8, 71, 50367, 30)], // Miss
        [w(5, 2, 2, 59, 15128, 1), w(8, 5, 2, 59, 15128, 1), w(10, 5, 6, 63, 15978, 1)], // Revalidated
        [w(8, 5, 2, 62, 47667, 30), w(10, 7, 2, 62, 47667, 30), w(12, 7, 8, 67, 49540, 30)], // Refused
        [w(4, 3, 0, 46, 25799, 30), w(4, 3, 0, 46, 25799, 30), w(6, 3, 4, 49, 26636, 30)], // Uncacheable
    ],
    // pass-by-reference
    [
        [w(1, 0, 1, 0, 0, 0), w(4, 3, 1, 0, 0, 0), w(6, 3, 3, 4, 848, 0)], // Hit
        [w(8, 5, 2, 50, 26626, 30), w(10, 7, 2, 50, 26626, 30), w(12, 7, 8, 55, 28499, 30)], // Miss
        [w(5, 2, 2, 12, 1268, 1), w(8, 5, 2, 12, 1268, 1), w(10, 5, 6, 16, 2118, 1)], // Revalidated
        [w(8, 5, 2, 46, 25799, 30), w(10, 7, 2, 46, 25799, 30), w(12, 7, 8, 51, 27672, 30)], // Refused
        [w(4, 3, 0, 46, 25799, 30), w(4, 3, 0, 46, 25799, 30), w(6, 3, 4, 49, 26636, 30)], // Uncacheable
    ],
];

/// The search request of the paper's fixtures.
fn search() -> RpcRequest {
    google::fixtures().pop().expect("three fixtures").request
}

/// Moves this thread's timing counter to where the next cached call is
/// the timed one (`Mode::Timed`) or one of the untimed calls after it:
/// hits on a probe client of its own until one reads the clock more than
/// once, then, for `Mode::Timed`, the untimed calls between it and the
/// next timed one.
fn align_timing(mode: Mode) {
    if mode == Mode::Traced {
        return;
    }
    let clock = Arc::new(CountingClock {
        clock: ManualClock::new(),
        reads: AtomicU64::new(0),
    });
    let probe = client(
        Arc::new(MetricsRegistry::with_clock(clock.clone())),
        CachePolicy::new().with_default(OperationPolicy::cacheable(Duration::from_secs(3600))),
        Arc::new(InProcTransport::new(Arc::new(
            SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new())),
        ))),
        None,
    )
    .0;
    let request = google::spelling_request("probe");
    probe.invoke(&request).expect("probe miss");
    for _ in 0..=TIME_ONE_CALL_IN {
        let before = clock.reads.load(Ordering::SeqCst);
        probe.invoke(&request).expect("probe hit");
        if clock.reads.load(Ordering::SeqCst) - before > 1 {
            if mode == Mode::Timed {
                for _ in 1..TIME_ONE_CALL_IN {
                    probe.invoke(&request).expect("probe hit");
                }
            }
            return;
        }
    }
    panic!("no timed call in {} hits", TIME_ONE_CALL_IN + 1);
}

/// A caching client of `transport`, and its cache.
fn client(
    metrics: Arc<MetricsRegistry>,
    policy: CachePolicy,
    transport: Arc<InProcTransport>,
    capacity: Option<Capacity>,
) -> (ServiceClient, Arc<ResponseCache>) {
    let mut cache = ResponseCache::builder(google::registry())
        .policy(policy)
        .metrics(metrics);
    if let Some(capacity) = capacity {
        cache = cache.capacity(capacity);
    }
    let cache = Arc::new(cache.build());
    let client = ServiceClient::builder(Url::new("backend.test", 80, google::PATH), transport)
        .registry(google::registry())
        .operations(google::operations())
        .cache(cache.clone())
        .build();
    (client, cache)
}

/// Measures the one invoke of `request` that `path` is about, after the
/// calls that set it up.
fn measure(request: &RpcRequest, form: ValueRepresentation, path: Path, mode: Mode) -> Work {
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
    let capacity = (path == Path::Refused).then_some(Capacity {
        max_entries: 16,
        max_bytes: 64,
    });
    let (client, cache) = client(
        metrics.clone(),
        policy,
        Arc::new(InProcTransport::new(backend.clone())),
        capacity,
    );
    match path {
        Path::Hit | Path::Revalidated => {
            client.invoke(request).expect("warming miss");
        }
        _ => {}
    }
    if path == Path::Revalidated {
        clock.clock.advance_millis(3_600_001);
    }
    align_timing(mode);
    backend.allocations.store(0, Ordering::SeqCst);

    let records = || -> u64 {
        let snapshot = metrics.snapshot();
        snapshot.histograms.iter().map(|(_, h)| h.count).sum()
    };
    let (reads, recorded) = (clock.reads.load(Ordering::SeqCst), records());
    let locks = wsrcache::obs::sync::acquisitions();
    let (allocs, bytes) = allocations();
    let root = (mode == Mode::Traced).then(|| metrics.tracer().root_span("work-counts", "/work"));
    let (handle, disposition) = client.invoke(request).expect("invoke");
    drop(root);
    let (allocs, bytes) = (allocations().0 - allocs, allocations().1 - bytes);
    let locks = wsrcache::obs::sync::acquisitions()
        .zip(locks)
        .map_or(0, |(after, before)| after - before);
    let work = Work {
        reads: clock.reads.load(Ordering::SeqCst) - reads,
        records: records() - recorded,
        locks,
        allocs,
        bytes,
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
    let request = search();
    let mut measured = String::new();
    let mut mismatched = false;
    for (f, form) in FORMS.into_iter().enumerate() {
        measured.push_str(&format!("    // {}\n    [\n", form.metric_label()));
        for (p, path) in PATHS.into_iter().enumerate() {
            let mut row = Vec::new();
            for (m, mode) in MODES.into_iter().enumerate() {
                let mut got = measure(&request, form, path, mode);
                let mut want = EXPECTED[f][p][m];
                if !cfg!(debug_assertions) {
                    (got.locks, want.locks) = (0, 0);
                }
                mismatched |= got != want;
                let Work {
                    reads,
                    records,
                    locks,
                    allocs,
                    bytes,
                    backend_allocs,
                } = got;
                row.push(format!(
                    "w({reads}, {records}, {locks}, {allocs}, {bytes}, {backend_allocs})"
                ));
            }
            measured.push_str(&format!("        [{}], // {path:?}\n", row.join(", ")));
        }
        measured.push_str("    ],\n");
    }
    assert!(!mismatched, "measured table:\n{measured}");
}

/// For `pass-by-reference` on every path:
/// tracing a call adds only its root span's two readings to the timed
/// call.
#[test]
fn tracing_adds_only_the_roots_two_readings() {
    let request = search();
    for path in PATHS {
        let form = ValueRepresentation::PassByReference;
        let untraced = measure(&request, form, path, Mode::Timed);
        let traced = measure(&request, form, path, Mode::Traced);
        assert!(traced.reads <= untraced.reads + 2, "{path:?}");
        assert_eq!(traced.records, untraced.records, "{path:?}");
    }
}

/// The hit the cache exists for: an untimed `pass-by-reference` hit
/// reads the clock once, for the TTL, records nothing and allocates
/// nothing.
#[test]
fn an_untimed_shared_hit_reads_the_clock_once_and_allocates_nothing() {
    let hit = measure(
        &search(),
        ValueRepresentation::PassByReference,
        Path::Hit,
        Mode::Untimed,
    );
    assert_eq!(
        (hit.reads, hit.records, hit.allocs, hit.bytes),
        (1, 0, 0, 0)
    );
}
