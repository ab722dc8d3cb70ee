//! Closed-loop load simulator — the Web Performance Tool analog.
//!
//! `concurrency` workers issue portal page requests back-to-back ("the
//! next request was not issued until after the reply was received", §5.2)
//! and the query schedule forces a target cache-hit ratio: request *i* is
//! a repeat of a hot query when the Bresenham accumulator for the target
//! ratio ticks, and a globally unique query otherwise.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;
use wsrc_http::{Request, Status, Transport, Url};
use wsrc_obs::Clock;

/// Load parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoadConfig {
    /// Number of closed-loop workers (1 for Figure 3, 25 for Figure 4).
    pub concurrency: usize,
    /// Total measured requests across all workers.
    pub requests: usize,
    /// Target cache-hit ratio in `[0, 1]`.
    pub hit_ratio: f64,
    /// Number of distinct hot (repeated) queries.
    pub hot_queries: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            concurrency: 1,
            requests: 1000,
            hit_ratio: 0.5,
            hot_queries: 8,
        }
    }
}

/// Aggregated measurements from one load run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Requests that completed successfully.
    pub completed: usize,
    /// Requests that failed.
    pub errors: usize,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
    /// Mean response time over completed requests.
    pub mean_response: Duration,
    /// Completed requests per second.
    pub throughput_rps: f64,
}

/// The deterministic query schedule controlling the hit ratio.
#[derive(Debug)]
pub(crate) struct QuerySchedule {
    hit_ratio: f64,
    hot_queries: usize,
    counter: AtomicUsize,
}

impl QuerySchedule {
    /// Creates a schedule for the target ratio.
    pub(crate) fn new(hit_ratio: f64, hot_queries: usize) -> Self {
        QuerySchedule {
            hit_ratio: hit_ratio.clamp(0.0, 1.0),
            hot_queries: hot_queries.max(1),
            counter: AtomicUsize::new(0),
        }
    }

    /// The hot queries that must be primed (fetched once) before
    /// measurement so their first use is not a miss.
    pub(crate) fn prime_queries(&self) -> Vec<String> {
        (0..self.hot_queries)
            .map(|i| format!("hot-query-{i}"))
            .collect()
    }

    /// The next query in the global schedule.
    pub(crate) fn next_query(&self) -> String {
        let i = self.counter.fetch_add(1, Ordering::SeqCst);
        // Bresenham-style accumulator: request i is a "hit" request when
        // the integer part of i*ratio advances.
        let before = (i as f64 * self.hit_ratio) as u64;
        let after = ((i + 1) as f64 * self.hit_ratio) as u64;
        if after > before {
            format!("hot-query-{}", i % self.hot_queries)
        } else {
            format!("unique-query-{i}")
        }
    }
}

/// Runs the load against the portal at `base` (its path is the page's,
/// `/portal`) and aggregates the report. `transport` decides how a page
/// is fetched — [`wsrc_http::InProcTransport`] over the portal handler,
/// or a pooled TCP client — and a page counts as completed when it comes
/// back `200 OK`.
///
/// The workers share the global schedule, so the aggregate mix matches
/// the target hit ratio regardless of per-worker interleaving. Report
/// timing comes from `clock`, so it is deterministic under
/// [`wsrc_obs::ManualClock`]. With a `tracer`, every
/// measured request becomes a root span in it (the load generator is the
/// designated trace root — servers and clients only continue propagated
/// contexts), so slow requests are explainable from the tracer's
/// tail-sampled store. Pass one registry's
/// [`clock`](wsrc_obs::MetricsRegistry::clock) and
/// [`tracer`](wsrc_obs::MetricsRegistry::tracer) and the report and the
/// spans share an axis.
pub(crate) fn run_load(
    transport: &dyn Transport,
    base: &Url,
    config: &LoadConfig,
    clock: &dyn Clock,
    tracer: Option<&std::sync::Arc<wsrc_obs::Tracer>>,
) -> LoadReport {
    let schedule = QuerySchedule::new(config.hit_ratio, config.hot_queries);
    // The URL's path is what a TCP transport puts on the wire, the
    // request's target what an in-process handler reads: name both.
    let fetch = |query: &str| {
        let url = base.with_path(format!("{}?q={query}", base.path()));
        let page = Request::get(url.path());
        matches!(transport.execute(&url, &page), Ok(response) if response.status == Status::OK)
    };
    // Priming phase: hot queries are warmed so the measured phase sees
    // the intended hit ratio (the paper likewise measures after warmup).
    for q in schedule.prime_queries() {
        fetch(&q);
    }
    let remaining = AtomicUsize::new(config.requests);
    let completed = AtomicUsize::new(0);
    let errors = AtomicUsize::new(0);
    let total_latency_nanos = AtomicU64::new(0);
    let start = clock.now_nanos();
    std::thread::scope(|scope| {
        for _ in 0..config.concurrency.max(1) {
            scope.spawn(|| {
                loop {
                    // Claim one request slot.
                    let prev = remaining.fetch_sub(1, Ordering::SeqCst);
                    if prev == 0 || prev > config.requests {
                        remaining.store(0, Ordering::SeqCst);
                        return;
                    }
                    let query = schedule.next_query();
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the load generator is the edge of the world: a trace starts here"
                    )]
                    let root = tracer.map(|t| t.root_span("loadgen", "/portal"));
                    let t0 = clock.now_nanos();
                    let ok = fetch(&query);
                    if let Some(mut root) = root {
                        if !ok {
                            root.set_error();
                        }
                        root.finish();
                    }
                    if ok {
                        completed.fetch_add(1, Ordering::SeqCst);
                        let nanos = clock.now_nanos().saturating_sub(t0);
                        total_latency_nanos.fetch_add(nanos, Ordering::SeqCst);
                    } else {
                        errors.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    let elapsed = Duration::from_nanos(clock.now_nanos().saturating_sub(start));
    let completed = completed.load(Ordering::SeqCst);
    let errors = errors.load(Ordering::SeqCst);
    let mean_response = if completed > 0 {
        Duration::from_nanos(total_latency_nanos.load(Ordering::SeqCst) / completed as u64)
    } else {
        Duration::ZERO
    };
    LoadReport {
        completed,
        errors,
        elapsed,
        mean_response,
        throughput_rps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::sync::Mutex;
    use wsrc_http::{InProcTransport, Response};
    use wsrc_obs::MonotonicClock;

    fn base() -> Url {
        Url::new("portal.test", 80, "/portal")
    }

    fn page() -> Response {
        Response::ok("text/html", Vec::new())
    }

    fn portal(handler: impl Fn(&Request) -> Response + Send + Sync + 'static) -> InProcTransport {
        InProcTransport::new(Arc::new(handler))
    }

    /// A portal that counts the pages asked for a second time.
    fn counting_portal() -> (InProcTransport, Arc<AtomicUsize>) {
        let repeats = Arc::new(AtomicUsize::new(0));
        let (seen, counter) = (Mutex::new(HashSet::new()), repeats.clone());
        let portal = portal(move |request| {
            if !seen.lock().unwrap().insert(request.target.clone()) {
                counter.fetch_add(1, Ordering::SeqCst);
            }
            page()
        });
        (portal, repeats)
    }

    #[test]
    fn schedule_achieves_target_ratio() {
        for ratio in [0.0, 0.2, 0.5, 0.8, 1.0] {
            let (portal, repeats) = counting_portal();
            let config = LoadConfig {
                concurrency: 1,
                requests: 1000,
                hit_ratio: ratio,
                hot_queries: 8,
            };
            let report = run_load(&portal, &base(), &config, &MonotonicClock::new(), None);
            assert_eq!(report.completed, 1000);
            // Measured repeats / measured requests (priming excluded).
            let observed = repeats.load(Ordering::SeqCst) as f64 / 1000.0;
            assert!(
                (observed - ratio).abs() < 0.02,
                "ratio {ratio}: observed {observed}"
            );
        }
    }

    #[test]
    fn concurrency_preserves_the_ratio_and_count() {
        let (portal, repeats) = counting_portal();
        let config = LoadConfig {
            concurrency: 8,
            requests: 2000,
            hit_ratio: 0.6,
            hot_queries: 8,
        };
        let report = run_load(&portal, &base(), &config, &MonotonicClock::new(), None);
        assert_eq!(report.completed, 2000);
        assert_eq!(report.errors, 0);
        let observed = repeats.load(Ordering::SeqCst) as f64 / 2000.0;
        assert!((observed - 0.6).abs() < 0.03, "observed {observed}");
    }

    #[test]
    fn report_math_is_consistent() {
        let (portal, _repeats) = counting_portal();
        let config = LoadConfig {
            concurrency: 2,
            requests: 100,
            hit_ratio: 0.5,
            hot_queries: 4,
        };
        let report = run_load(&portal, &base(), &config, &MonotonicClock::new(), None);
        assert!(report.throughput_rps > 0.0);
        assert!(report.elapsed > Duration::ZERO);
        assert!(report.mean_response <= report.elapsed);
    }

    #[test]
    fn errors_are_counted_separately() {
        let served = AtomicUsize::new(0);
        let every_other_fails = portal(move |_request| {
            if served.fetch_add(1, Ordering::SeqCst) % 2 == 1 {
                Response::error(Status::INTERNAL_SERVER_ERROR, "boom")
            } else {
                page()
            }
        });
        let report = run_load(
            &every_other_fails,
            &base(),
            &LoadConfig {
                concurrency: 1,
                requests: 100,
                hit_ratio: 0.0,
                hot_queries: 1,
            },
            &MonotonicClock::new(),
            None,
        );
        assert_eq!((report.completed, report.errors), (50, 50));
    }

    #[test]
    fn manual_clock_makes_report_timing_deterministic() {
        use wsrc_obs::ManualClock;
        let clock = ManualClock::new();
        // Every fetch "takes" exactly 2ms of fake time.
        let ticking = {
            let clock = clock.handle();
            portal(move |_request| {
                clock.advance_millis(2);
                page()
            })
        };
        let config = LoadConfig {
            concurrency: 1,
            requests: 10,
            hit_ratio: 0.0,
            hot_queries: 1,
        };
        let report = run_load(&ticking, &base(), &config, &clock, None);
        assert_eq!(report.completed, 10);
        // Priming (1 hot query) happens before the measured window, so
        // the window is exactly 10 fetches × 2ms.
        assert_eq!(report.elapsed, Duration::from_millis(20));
        assert_eq!(report.mean_response, Duration::from_millis(2));
        assert!((report.throughput_rps - 500.0).abs() < 1e-6);
    }

    #[test]
    fn traced_runs_root_every_request_and_break_down_stages() {
        use wsrc_obs::ManualClock;
        // A traced fetch contributes a child stage span, the way the
        // real portal's client middleware does.
        let plain = portal(|_request| {
            if let Some(span) = wsrc_obs::trace::child_span("fetch", "transfer") {
                span.finish();
            }
            page()
        });
        let registry = wsrc_obs::MetricsRegistry::with_clock(ManualClock::new());
        let tracer = registry.tracer();
        let config = LoadConfig {
            concurrency: 2,
            requests: 20,
            hit_ratio: 0.0,
            hot_queries: 1,
        };
        let report = run_load(&plain, &base(), &config, registry.clock(), Some(tracer));
        assert_eq!(report.completed, 20);
        // Every request rooted a trace; the tail-sampling store retained
        // at least the slowest-N for the route.
        let recent = tracer.store().recent();
        assert!(!recent.is_empty(), "traced load retains traces");
        assert!(recent.iter().all(|t| t.route == "/portal"));
        assert!(recent
            .iter()
            .all(|t| t.spans.iter().any(|s| s.stage == "transfer")));
        let breakdown = wsrc_obs::sampler::stage_breakdown(&recent);
        assert!(
            breakdown.iter().any(|(stage, _)| stage == "root")
                || breakdown.iter().any(|(stage, _)| stage == "transfer"),
            "breakdown covers recorded stages: {breakdown:?}"
        );
    }

    #[test]
    fn zero_ratio_never_repeats_and_full_ratio_always_repeats() {
        let s = QuerySchedule::new(0.0, 4);
        for _ in 0..100 {
            assert!(s.next_query().starts_with("unique-"));
        }
        let s = QuerySchedule::new(1.0, 4);
        for _ in 0..100 {
            assert!(s.next_query().starts_with("hot-"));
        }
    }
}
