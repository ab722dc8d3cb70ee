//! End-to-end trace smoke, run by the `trace_smoke_passes_end_to_end`
//! test below.
//!
//! Drives one miss and one hit through the full stack — pooled HTTP
//! client → worker-pool server → portal site → caching client middleware
//! → latency-wrapped back-end — with one [`MetricsRegistry`] over a
//! [`ManualClock`] handed to the cache, the server and the route, then
//! fetches `GET /trace` and checks that the retained span tree names
//! every pipeline stage and that the root span's direct children account
//! for at least [`MIN_COVERAGE`] of its wall time. Under the fake clock
//! the only time that passes is the injected back-end latency, so the
//! check is deterministic: a span accounting bug fails it every run, not
//! one run in ten. Because the registry is the one place time enters,
//! the same run checks that spans, histogram samples and TTLs share an
//! axis: the latency shows up once in the stage histograms and once in
//! the spans' self time, in the same stage, and the entry expires at its
//! TTL on the clock that timed both.

use std::sync::Arc;
use std::time::Duration;
use wsrc_cache::{ResponseCache, ValueRepresentation};
use wsrc_client::ServiceClient;
use wsrc_http::{
    Handler, HttpClient, InProcTransport, LatencyTransport, MetricsRoute, Server, ServerConfig,
    Status, Transport, Url,
};
use wsrc_obs::{Clock, ManualClock, MetricsRegistry, StoredTrace};
use wsrc_portal::PortalSite;
use wsrc_services::google::{self, GoogleService};
use wsrc_services::SoapDispatcher;

/// Injected portal→back-end latency (the only source of elapsed fake
/// time, so it dominates every traced miss).
const BACKEND_LATENCY: Duration = Duration::from_millis(2);

/// Required fraction of the root span's wall time covered by its direct
/// children.
pub const MIN_COVERAGE: f64 = 0.9;

/// Stages that must appear somewhere in the miss trace's span tree.
pub const REQUIRED_STAGES: &[&str] = &[
    "queue", "checkout", "transfer", "server", "lookup", "parse", "build",
];

/// Runs the smoke. Returns a human-readable report on success and a
/// description of the first violated invariant on failure.
///
/// # Errors
///
/// Fails when the stack cannot be driven, `/trace` does not serve what
/// the store retained, a required stage is missing, root coverage falls
/// below [`MIN_COVERAGE`], a histogram and the spans disagree about
/// where the injected latency went, or the entry does not expire at its
/// TTL on the registry's clock.
pub fn run_trace_smoke() -> Result<String, String> {
    let clock = ManualClock::new();
    let registry = Arc::new(MetricsRegistry::with_clock(clock.handle()));
    let tracer = registry.tracer();
    let dispatcher: Arc<dyn Handler> =
        Arc::new(SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new())));
    let backend: Arc<dyn Transport> = Arc::new(LatencyTransport::with_clock(
        InProcTransport::new(dispatcher),
        BACKEND_LATENCY,
        registry.clock().clone(),
    ));
    let policy = google::default_policy().with_representation(ValueRepresentation::PassByReference);
    let ttl = policy.for_operation("doGoogleSearch").ttl;
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(policy)
            .metrics(registry.clone())
            .build(),
    );
    let service = Arc::new(
        ServiceClient::builder(Url::new("backend.test", 80, google::PATH), backend)
            .registry(google::registry())
            .operations(google::operations())
            .cache(cache.clone())
            .build(),
    );
    let portal: Arc<dyn Handler> = Arc::new(PortalSite::new(service));
    let routed: Arc<dyn Handler> = Arc::new(MetricsRoute::with_registry(registry.clone(), portal));
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        routed,
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            registry: registry.clone(),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind smoke server: {e}"))?;
    let client = HttpClient::with_timeout(Some(Duration::from_secs(10)));
    let base = Url::new("127.0.0.1", server.port(), "/portal");
    let page = base.with_path("/portal?q=trace-smoke".to_string());

    // One miss (pays the back-end latency) and one hit on the same query.
    for _ in 0..2 {
        #[expect(
            clippy::disallowed_methods,
            reason = "the smoke driver is the edge of the world: a trace starts here"
        )]
        let mut root = tracer.root_span("trace-smoke", "/portal");
        let outcome = client.get(&page);
        let ok = matches!(&outcome, Ok(resp) if resp.status == Status::OK);
        if !ok {
            root.set_error();
        }
        root.finish();
        match outcome {
            Ok(resp) if resp.status == Status::OK => {}
            Ok(resp) => return Err(format!("portal answered {}", resp.status)),
            Err(e) => return Err(format!("portal request failed: {e}")),
        }
    }

    // The endpoint must serve the same trees the store retained.
    let trace_url = base.with_path("/trace".to_string());
    let body = client
        .get(&trace_url)
        .map_err(|e| format!("GET /trace failed: {e}"))?;
    if body.status != Status::OK {
        return Err(format!("GET /trace answered {}", body.status));
    }
    let text = body
        .body_text()
        .map_err(|e| format!("/trace body not utf-8: {e}"))?;
    if text != tracer.store().to_json() {
        return Err(format!("/trace is not the store's rendering: {text}"));
    }
    let recent = tracer.store().recent();
    if recent.is_empty() {
        return Err("/trace retained no traces".to_string());
    }

    // Deterministic structural checks on the slowest retained trace (the
    // miss: the only request that advanced the clock).
    let traces = tracer.store().slowest();
    let miss = traces
        .iter()
        .max_by_key(|t| t.duration_nanos)
        .ok_or("trace store retained nothing")?;
    for stage in REQUIRED_STAGES {
        if !miss.spans.iter().any(|s| s.stage == *stage) {
            return Err(format!(
                "miss trace lacks stage '{stage}' (has: {:?})",
                miss.spans.iter().map(|s| s.stage).collect::<Vec<_>>()
            ));
        }
    }
    let coverage = root_coverage(miss)?;
    if coverage < MIN_COVERAGE {
        return Err(format!(
            "root span coverage {:.1}% below {:.0}%",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    one_axis(&registry, &recent)?;
    let report = format!(
        "trace_smoke: {} traces retained, {} spans in miss trace, \
         root coverage {:.1}%, /trace payload {} bytes\n{}",
        recent.len(),
        miss.spans.len(),
        coverage * 100.0,
        text.len(),
        crate::obs_report::slowest_traces_table(tracer.store())
    );

    // The entry went in when the miss returned, which is now: nothing
    // has moved the clock since. One millisecond short of its TTL the
    // page is a hit; one past it, an expired miss.
    let before = cache.stats();
    let near_ttl = [
        (ttl - Duration::from_millis(1), (before.hits + 1, 0)),
        (Duration::from_millis(2), (before.hits + 1, 1)),
    ];
    for (advance, expected) in near_ttl {
        clock.sleep(advance);
        let answered = client.get(&page).map(|resp| resp.status);
        let stats = cache.stats();
        if !matches!(answered, Ok(Status::OK)) || (stats.hits, stats.expired) != expected {
            return Err(format!(
                "{} ms into a {ttl:?} TTL the portal answered {answered:?} with {stats:?}",
                clock.now_millis()
            ));
        }
    }
    Ok(report)
}

/// Histograms and spans agree stage by stage: the injected latency is
/// the `transport` stage's and nobody else's, exactly, on both.
fn one_axis(registry: &MetricsRegistry, traces: &[StoredTrace]) -> Result<(), String> {
    let latency = BACKEND_LATENCY.as_nanos() as u64;
    for (id, histogram) in &registry.snapshot().histograms {
        let transport =
            id.name == "wsrc_client_stage_seconds" && id.label("stage") == Some("transport");
        let expected = if transport { latency } else { 0 };
        if histogram.sum_nanos != expected {
            return Err(format!(
                "{}{} sums to {} ns, expected {expected}",
                id.name,
                id.render_labels(),
                histogram.sum_nanos
            ));
        }
    }
    for (stage, self_nanos) in wsrc_obs::sampler::stage_breakdown(traces) {
        let expected = if stage == "transport" { latency } else { 0 };
        if self_nanos != expected {
            return Err(format!(
                "stage '{stage}' spans {self_nanos} ns of self time, expected {expected}"
            ));
        }
    }
    Ok(())
}

/// Fraction of the root span's wall time accounted for by its direct
/// children.
fn root_coverage(trace: &StoredTrace) -> Result<f64, String> {
    let root = trace
        .spans
        .iter()
        .find(|s| s.stage == "root")
        .ok_or("miss trace has no root span")?;
    let total = root.duration_nanos();
    if total == 0 {
        return Err("miss trace root has zero duration".to_string());
    }
    let children: u64 = trace
        .spans
        .iter()
        .filter(|s| s.parent_span_id == Some(root.span_id))
        .map(|s| s.duration_nanos())
        .sum();
    Ok(children as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_smoke_passes_end_to_end() {
        let report = run_trace_smoke().expect("trace smoke");
        assert!(report.contains("root coverage"), "{report}");
    }
}
