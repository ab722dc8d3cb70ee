//! End-to-end trace smoke, run by the `trace_smoke_passes_end_to_end`
//! test below.
//!
//! Drives one miss and one hit through the full stack — pooled HTTP
//! client → worker-pool server → portal site → caching client middleware
//! → latency-wrapped back-end — with a shared [`ManualClock`], then
//! fetches `GET /trace` and checks that the retained span tree names
//! every pipeline stage and that the root span's direct children account
//! for at least [`MIN_COVERAGE`] of its wall time. Under the fake clock
//! the only time that passes is the injected back-end latency, so the
//! check is deterministic: a span accounting bug fails it every run, not
//! one run in ten.

use std::sync::Arc;
use std::time::Duration;
use wsrc_cache::{ResponseCache, ValueRepresentation};
use wsrc_client::ServiceClient;
use wsrc_http::{
    Handler, HttpClient, InProcTransport, LatencyTransport, MetricsRoute, Server, ServerConfig,
    Status, Transport, Url,
};
use wsrc_obs::{ManualClock, MetricsRegistry, StoredTrace, Tracer};
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
/// the store retained, a required stage is missing, or root coverage
/// falls below [`MIN_COVERAGE`].
pub fn run_trace_smoke() -> Result<String, String> {
    let clock = ManualClock::new();
    let tracer = Tracer::new(Arc::new(clock.handle()));
    let dispatcher: Arc<dyn Handler> =
        Arc::new(SoapDispatcher::new().mount(google::PATH, Arc::new(GoogleService::new())));
    let backend: Arc<dyn Transport> = Arc::new(LatencyTransport::with_clock(
        InProcTransport::new(dispatcher),
        BACKEND_LATENCY,
        Arc::new(clock.handle()),
    ));
    let cache = Arc::new(
        ResponseCache::builder(google::registry())
            .policy(
                google::default_policy().with_representation(ValueRepresentation::PassByReference),
            )
            .build(),
    );
    let service = Arc::new(
        ServiceClient::builder(Url::new("backend.test", 80, google::PATH), backend)
            .registry(google::registry())
            .operations(google::operations())
            .cache(cache)
            .build(),
    );
    let portal: Arc<dyn Handler> = Arc::new(PortalSite::new(service));
    let registry = Arc::new(MetricsRegistry::new());
    let routed: Arc<dyn Handler> =
        Arc::new(MetricsRoute::with_registry(registry.clone(), portal).tracer(tracer.clone()));
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        routed,
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            registry,
            clock: Arc::new(clock.handle()),
            tracer: tracer.clone(),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind smoke server: {e}"))?;
    let client = HttpClient::with_timeout(Some(Duration::from_secs(10)));
    let base = Url::new("127.0.0.1", server.port(), "/portal");

    // One miss (pays the back-end latency) and one hit on the same query.
    for _ in 0..2 {
        #[expect(
            clippy::disallowed_methods,
            reason = "the smoke driver is the edge of the world: a trace starts here"
        )]
        let mut root = tracer.root_span("trace-smoke", "/portal");
        let url = base.with_path("/portal?q=trace-smoke".to_string());
        let outcome = client.get(&url);
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
    Ok(format!(
        "trace_smoke: {} traces retained, {} spans in miss trace, \
         root coverage {:.1}%, /trace payload {} bytes\n{}",
        recent.len(),
        miss.spans.len(),
        coverage * 100.0,
        text.len(),
        crate::obs_report::slowest_traces_table(tracer.store())
    ))
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
