//! Per-stage metrics reporting for the `reproduce` binary.
//!
//! After the benchmark artifacts run, the process-wide
//! [`MetricsRegistry`](wsrc_obs::MetricsRegistry) holds everything the
//! instrumented pipeline recorded: cache hit/insert counters labelled by
//! representation, and latency histograms for every stage the cache,
//! the client and the HTTP layer own (key generation, lookup, insert,
//! retrieve/build per representation; serialize / transport /
//! deserialize; queue and pool waits). This module renders that
//! snapshot as human tables; the machine-readable form of the same
//! accounting is the per-layer ledger `benchmark/` prints.

use crate::render_table;
use wsrc_obs::MetricsSnapshot;

fn fmt_usec_from_nanos(nanos: u64) -> String {
    format!("{:.1}", nanos as f64 / 1_000.0)
}

/// Renders the "hits by representation" and "latency per stage" tables.
pub fn summary_tables(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();

    let hits = snapshot.sum_counters_by_label("wsrc_cache_hits_total", "repr");
    let inserts = snapshot.sum_counters_by_label("wsrc_cache_inserts_total", "repr");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (repr, hit_count) in &hits {
        let insert_count = inserts
            .iter()
            .find(|(r, _)| r == repr)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        rows.push(vec![
            repr.clone(),
            hit_count.to_string(),
            insert_count.to_string(),
        ]);
    }
    for (repr, insert_count) in &inserts {
        if !hits.iter().any(|(r, _)| r == repr) {
            rows.push(vec![repr.clone(), "0".into(), insert_count.to_string()]);
        }
    }
    if rows.is_empty() {
        out.push_str("Cache traffic by representation: (no samples)\n");
    } else {
        out.push_str(&render_table(
            "Cache traffic by representation",
            &["representation", "hits", "inserts"],
            &rows,
        ));
    }
    out.push('\n');

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (id, h) in &snapshot.histograms {
        if h.count == 0 {
            continue;
        }
        rows.push(vec![
            format!("{}{}", id.name, id.render_labels()),
            h.count.to_string(),
            fmt_usec_from_nanos(h.p50_nanos()),
            fmt_usec_from_nanos(h.p99_nanos()),
            fmt_usec_from_nanos(h.p999_nanos()),
            fmt_usec_from_nanos(h.mean_nanos()),
        ]);
    }
    if rows.is_empty() {
        out.push_str("Latency per stage: (no samples)\n");
    } else {
        out.push_str(&render_table(
            "Latency per stage (microseconds; log2-bucket upper bounds)",
            &["stage", "count", "p50", "p99", "p999", "mean"],
            &rows,
        ));
    }
    out
}

/// Renders the tracer's slowest retained traces: route, trace id, total
/// duration and the top per-stage self times — the table that links an
/// aggregate tail percentile back to concrete span trees.
pub fn slowest_traces_table(store: &wsrc_obs::TraceStore) -> String {
    let slowest = store.slowest();
    if slowest.is_empty() {
        return "Slowest traces: (none retained)\n".to_string();
    }
    let rows: Vec<Vec<String>> = slowest
        .iter()
        .map(|t| {
            let mut stages = wsrc_obs::sampler::stage_breakdown(std::slice::from_ref(t));
            // Breakdown comes back stage-alphabetical; "top" means by
            // self time here.
            stages.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let top = stages
                .iter()
                .take(3)
                .map(|(stage, nanos)| format!("{stage}={}", fmt_usec_from_nanos(*nanos)))
                .collect::<Vec<_>>()
                .join(" ");
            vec![
                t.route.clone(),
                wsrc_obs::trace::format_trace_id(t.trace_id),
                fmt_usec_from_nanos(t.duration_nanos),
                if t.error { "yes" } else { "no" }.to_string(),
                top,
            ]
        })
        .collect();
    render_table(
        "Slowest traces (tail-sampled, per route)",
        &[
            "route",
            "trace id",
            "total us",
            "error",
            "top stages (self us)",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wsrc_obs::MetricsRegistry;

    fn populated() -> MetricsSnapshot {
        let r = Arc::new(MetricsRegistry::new());
        r.counter(
            "wsrc_cache_hits_total",
            &[("cache", "a"), ("repr", "dom-tree")],
        )
        .add(4);
        r.counter(
            "wsrc_cache_hits_total",
            &[("cache", "b"), ("repr", "dom-tree")],
        )
        .add(1);
        r.counter(
            "wsrc_cache_inserts_total",
            &[("cache", "a"), ("repr", "sax-events")],
        )
        .add(2);
        let h = r.histogram("wsrc_cache_stage_seconds", &[("stage", "lookup")]);
        h.record_nanos(1_000);
        h.record_nanos(2_000);
        r.histogram("wsrc_cache_stage_seconds", &[("stage", "insert")]);
        r.snapshot()
    }

    #[test]
    fn tables_aggregate_across_caches_and_skip_empty_histograms() {
        let text = summary_tables(&populated());
        // 4 + 1 dom-tree hits summed across the two cache labels.
        assert!(text.contains("dom-tree"), "{text}");
        assert!(text.contains("| 5"), "{text}");
        assert!(text.contains("sax-events"), "{text}");
        assert!(
            text.contains("wsrc_cache_stage_seconds{stage=\"lookup\"}"),
            "{text}"
        );
        // The never-recorded insert histogram is not listed.
        assert!(!text.contains("stage=\"insert\""), "{text}");
    }

    #[test]
    fn slowest_traces_render_as_a_table() {
        let registry = MetricsRegistry::new();
        assert!(slowest_traces_table(registry.tracer().store()).contains("none retained"));
        registry.tracer().root_span("bench", "/portal").finish();
        let text = slowest_traces_table(registry.tracer().store());
        assert!(text.contains("/portal"), "{text}");
        assert!(text.contains("trace id"), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_placeholders() {
        let snap = Arc::new(MetricsRegistry::new()).snapshot();
        let text = summary_tables(&snap);
        assert!(text.contains("(no samples)"));
    }
}
