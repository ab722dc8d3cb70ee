//! Stress test: 16 worker threads record spans and histogram samples
//! while `/metrics`- and `/trace`-style renderings run concurrently.
//! Deterministic under [`ManualClock`]: when the dust settles, no trace
//! lost a span, no span was duplicated, every `/trace` rendering had the
//! stable JSON shape and the histogram counted every sample.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use wsrc_obs::clock::ManualClock;
use wsrc_obs::sampler::RECENT_CAPACITY;
use wsrc_obs::{to_prometheus, MetricsRegistry};

const WORKERS: usize = 16;
/// Every trace fits in the store's ring, so the test asserts exact
/// counts.
const TRACES_PER_WORKER: usize = 4;
const _: () = assert!(WORKERS * TRACES_PER_WORKER <= RECENT_CAPACITY);
/// Spans per trace: one root plus two children.
const SPANS_PER_TRACE: usize = 3;

#[test]
fn concurrent_rendering_never_loses_or_duplicates_spans() {
    let registry = Arc::new(MetricsRegistry::with_clock(ManualClock::new()));
    let tracer = registry.tracer().clone();
    let histogram = registry.histogram("wsrc_test_stage_seconds", &[("stage", "work")]);
    let writers_done = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Two readers render both expositions as fast as they can while
        // the writers are still recording; every intermediate rendering
        // must already be well-formed. One final pass runs after the
        // last writer finishes.
        for _ in 0..2 {
            let tracer = tracer.clone();
            let registry = registry.clone();
            let writers_done = &writers_done;
            scope.spawn(move || {
                let mut renders = 0usize;
                let mut final_pass = false;
                while !final_pass {
                    final_pass = writers_done.load(Ordering::SeqCst) == WORKERS;
                    let trace_json = tracer.store().to_json();
                    assert!(trace_json.starts_with("{\"recent\":["), "{trace_json}");
                    assert!(trace_json.contains("\"dropped\":"), "{trace_json}");
                    assert_eq!(
                        trace_json.matches('{').count(),
                        trace_json.matches('}').count(),
                        "unbalanced braces mid-render"
                    );
                    let prom = to_prometheus(&registry.snapshot());
                    assert!(!prom.contains("\u{0}"), "prometheus text is clean");
                    renders += 1;
                }
                assert!(renders > 0);
            });
        }
        for worker in 0..WORKERS {
            let tracer = tracer.clone();
            let histogram = histogram.clone();
            let writers_done = &writers_done;
            scope.spawn(move || {
                for i in 0..TRACES_PER_WORKER {
                    let root = tracer.root_span("stress", &format!("/w{worker}"));
                    for stage in ["lookup", "build"] {
                        if let Some(span) = wsrc_obs::trace::child_span("step", stage) {
                            span.finish();
                        }
                    }
                    histogram.record_nanos((i as u64 + 1) * 1_000);
                    root.finish();
                }
                writers_done.fetch_add(1, Ordering::SeqCst);
            });
        }
    });

    // Every trace was kept with its exact span complement — nothing lost
    // to a race, nothing recorded twice.
    let recent = tracer.store().recent();
    assert_eq!(recent.len(), WORKERS * TRACES_PER_WORKER);
    assert_eq!(tracer.store().dropped(), 0);
    let mut seen_span_ids = std::collections::HashSet::new();
    for trace in &recent {
        assert_eq!(
            trace.spans.len(),
            SPANS_PER_TRACE,
            "trace {:x} lost or duplicated spans",
            trace.trace_id
        );
        assert_eq!(
            trace.spans.iter().filter(|s| s.stage == "root").count(),
            1,
            "exactly one root per trace"
        );
        for span in &trace.spans {
            assert!(
                seen_span_ids.insert((trace.trace_id, span.span_id)),
                "span {:x} duplicated",
                span.span_id
            );
        }
    }
    // The histogram absorbed every sample.
    let snap = histogram.snapshot();
    assert_eq!(snap.count, (WORKERS * TRACES_PER_WORKER) as u64);
}
