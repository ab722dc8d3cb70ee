//! Regenerates the paper's Figures 3 and 4 (§5.2): portal throughput and
//! mean response time vs cache-hit ratio, one series per cache-value
//! representation.
//!
//! A closed loop of callers asks the portal for pages; the share of
//! repeated queries sets the hit ratio. One cell is one (form, ratio)
//! point on the stack of the paper's Figure 2: portal page → caching
//! client → dummy Google back end, all in process.

use crate::render_table;
use std::sync::Arc;
use std::time::Duration;
use wsrc_cache::{ResponseCache, ValueRepresentation};
use wsrc_client::ServiceClient;
use wsrc_http::{Handler, InProcTransport, LatencyTransport, Request, Status, Transport, Url};
use wsrc_obs::{Clock, MetricsRegistry};
use wsrc_portal::PortalSite;
use wsrc_services::google::{self, GoogleService};
use wsrc_services::SoapDispatcher;

/// The x-axis of both figures: 0 % to 100 % in 20 % steps.
pub const HIT_RATIOS: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

/// Distinct repeated queries, each fetched once before a cell is timed.
pub const HOT_QUERIES: usize = 8;

/// What one cell measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Pages answered `200 OK`.
    pub completed: usize,
    /// Pages answered otherwise.
    pub errors: usize,
    /// Wall time of the measured requests.
    pub elapsed: Duration,
    /// Mean response time over completed pages.
    pub mean_response: Duration,
    /// Cache hits among the measured requests.
    pub hits: u64,
    /// Requests that reached the back end, priming included.
    pub backend_calls: u64,
}

impl Cell {
    /// Completed pages per second.
    pub fn throughput_rps(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Hits per measured request; the priming misses are not counted.
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.completed + self.errors).max(1) as f64
    }
}

/// Runs one cell: `requests` pages from `callers` closed-loop callers,
/// against a cache storing `form`, with `backend_latency` slept before
/// every back-end call. The cell's metrics go to a registry of its own,
/// dropped with it.
///
/// The paper: "We used the toString method approach for cache key
/// generation. We then compared each cache approach for cached data
/// retrieval and artificially changed the cache-hit ratio from 0% to
/// 100%."
pub fn run_cell(
    form: ValueRepresentation,
    hit_ratio: f64,
    callers: usize,
    requests: usize,
    backend_latency: Duration,
) -> Cell {
    let dispatcher: Arc<dyn Handler> =
        Arc::new(SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new())));
    let backend = Arc::new(InProcTransport::new(dispatcher));
    let transport: Arc<dyn Transport> = if backend_latency.is_zero() {
        backend.clone()
    } else {
        Arc::new(LatencyTransport::new(backend.clone(), backend_latency))
    };
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(google::default_policy().with_representation(form))
            .metrics(Arc::new(MetricsRegistry::new()))
            .build(),
    );
    let client = ServiceClient::builder(Url::new("backend.test", 80, google::PATH), transport)
        .registry(google::registry())
        .operations(google::operations())
        .cache(cache.clone())
        .build();
    let portal = PortalSite::new(Arc::new(client));
    // Warm-up, as in the paper: a hot query is a hit from its first use.
    for i in 0..HOT_QUERIES {
        portal.handle(&page(&format!("hot-query-{i}")));
    }
    let primed = cache.stats().hits;
    let mut cell = closed_loop(
        &portal,
        cache.metrics().clock().as_ref(),
        hit_ratio,
        callers,
        requests,
    );
    cell.hits = cache.stats().hits - primed;
    cell.backend_calls = backend.requests_served();
    cell
}

/// The page for `query`.
fn page(query: &str) -> Request {
    Request::get(format!("/portal?q={query}"))
}

/// Request `i` of the one global schedule at `hit_ratio`: a hot query
/// when ⌊(i + 1)·h⌋ passes ⌊i·h⌋, else a query no request repeats. The
/// first n requests therefore hold exactly ⌊n·h⌋ hot ones.
fn query(i: usize, hit_ratio: f64) -> String {
    let hot_before = |n: usize| (n as f64 * hit_ratio) as usize;
    if hot_before(i + 1) > hot_before(i) {
        format!("hot-query-{}", i % HOT_QUERIES)
    } else {
        format!("unique-query-{i}")
    }
}

/// The measured requests: caller `c` of `callers` issues requests
/// c, c + callers, … of the schedule back to back ("the next request was
/// not issued until after the reply was received", §5.2), timed on
/// `clock`. Leaves `hits` and `backend_calls` zero.
fn closed_loop(
    portal: &dyn Handler,
    clock: &dyn Clock,
    hit_ratio: f64,
    callers: usize,
    requests: usize,
) -> Cell {
    let callers = callers.max(1);
    let start = clock.now_nanos();
    let (completed, errors, response_nanos) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|first| {
                scope.spawn(move || {
                    let (mut completed, mut errors, mut nanos) = (0, 0, 0);
                    for i in (first..requests).step_by(callers) {
                        let sent = clock.now_nanos();
                        if portal.handle(&page(&query(i, hit_ratio))).status == Status::OK {
                            completed += 1;
                            nanos += clock.now_nanos().saturating_sub(sent);
                        } else {
                            errors += 1;
                        }
                    }
                    (completed, errors, nanos)
                })
            })
            .collect();
        handles.into_iter().fold((0, 0, 0), |sum, caller| {
            let (c, e, n) = caller.join().expect("a caller panicked");
            (sum.0 + c, sum.1 + e, sum.2 + n)
        })
    });
    Cell {
        completed,
        errors,
        elapsed: Duration::from_nanos(clock.now_nanos().saturating_sub(start)),
        mean_response: Duration::from_nanos(response_nanos / completed.max(1) as u64),
        hits: 0,
        backend_calls: 0,
    }
}

/// One figure: every representation at every ratio of [`HIT_RATIOS`],
/// with `callers` callers (1 for Figure 3, 25 for Figure 4).
pub fn run_figure(
    callers: usize,
    requests: usize,
    backend_latency: Duration,
) -> Vec<(ValueRepresentation, Vec<Cell>)> {
    ValueRepresentation::ALL
        .iter()
        .map(|&form| {
            let cells = HIT_RATIOS
                .iter()
                .map(|&ratio| run_cell(form, ratio, callers, requests, backend_latency))
                .collect();
            (form, cells)
        })
        .collect()
}

/// Renders a figure's two panels (throughput, mean response time) as text
/// tables, one row per representation, one column per hit ratio.
pub fn render_figure(title: &str, series: &[(ValueRepresentation, Vec<Cell>)]) -> String {
    let ratios: Vec<String> = HIT_RATIOS
        .iter()
        .map(|r| format!("{:.0}%", r * 100.0))
        .collect();
    let mut header: Vec<&str> = vec!["method"];
    header.extend(ratios.iter().map(String::as_str));
    let rows = |cell: fn(&Cell) -> String| -> Vec<Vec<String>> {
        series
            .iter()
            .map(|(form, cells)| {
                let mut row = vec![form.label().to_string()];
                row.extend(cells.iter().map(cell));
                row
            })
            .collect()
    };
    let mut out = render_table(
        &format!("{title} — throughput (requests/second) vs cache-hit ratio"),
        &header,
        &rows(|c| format!("{:.0}", c.throughput_rps())),
    );
    out.push('\n');
    out.push_str(&render_table(
        &format!("{title} — average response time (msec) vs cache-hit ratio"),
        &header,
        &rows(|c| format!("{:.3}", c.mean_response.as_secs_f64() * 1e3)),
    ));
    out
}

/// Headline numbers the paper quotes for a figure: throughput and
/// response-time improvement of each representation at 100% hit ratio
/// relative to 0%.
pub fn speedups_at_full_hit(
    series: &[(ValueRepresentation, Vec<Cell>)],
) -> Vec<(ValueRepresentation, f64, f64)> {
    series
        .iter()
        .filter_map(|(form, cells)| {
            let (zero, full) = (cells.first()?, cells.last()?);
            let throughput_gain = full.throughput_rps() / zero.throughput_rps().max(1e-9);
            let latency_gain =
                zero.mean_response.as_secs_f64() / full.mean_response.as_secs_f64().max(1e-12);
            Some((*form, throughput_gain, latency_gain))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrc_http::Response;
    use wsrc_obs::{ManualClock, MonotonicClock};

    #[test]
    fn errors_are_counted_apart_from_completions() {
        let served = std::sync::atomic::AtomicUsize::new(0);
        let every_other_fails = move |_: &Request| {
            if served.fetch_add(1, std::sync::atomic::Ordering::SeqCst) % 2 == 1 {
                Response::error(Status::INTERNAL_SERVER_ERROR, "boom")
            } else {
                Response::ok("text/html", Vec::new())
            }
        };
        let cell = closed_loop(&every_other_fails, &MonotonicClock::new(), 0.0, 1, 100);
        assert_eq!((cell.completed, cell.errors), (50, 50));
    }

    #[test]
    fn report_arithmetic_is_exact_under_a_manual_clock() {
        let clock = ManualClock::new();
        let ticking = {
            let clock = clock.handle();
            move |_: &Request| {
                clock.advance_millis(2);
                Response::ok("text/html", Vec::new())
            }
        };
        let cell = closed_loop(&ticking, &clock, 0.0, 1, 10);
        assert_eq!(cell.completed, 10);
        assert_eq!(cell.elapsed, Duration::from_millis(20));
        assert_eq!(cell.mean_response, Duration::from_millis(2));
        assert!((cell.throughput_rps() - 500.0).abs() < 1e-6);
    }
}
