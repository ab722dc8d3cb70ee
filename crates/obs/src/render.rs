//! Exposition formats: Prometheus-style text and hand-rolled JSON.
//!
//! No `serde`, no `prometheus` crate — the build environment is
//! offline, so both renderers are written against [`MetricsSnapshot`]
//! directly.

use crate::metrics::{HistogramCore, HistogramSnapshot, MetricId, MetricsSnapshot};
use crate::trace::format_trace_id;

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_seconds(nanos: u64) -> String {
    // Prometheus convention: durations in seconds. Render with enough
    // precision that nanosecond samples survive.
    format!("{:.9}", nanos as f64 / 1e9)
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Counters become `name{labels} value`, gauges likewise, histograms
/// become the conventional `_bucket{le="…"}` (cumulative, in seconds),
/// `_sum` and `_count` series. Buckets that remember an exemplar trace
/// id append it OpenMetrics-style: `… 5 # {trace_id="<32 hex>"}`.
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut emit_type = String::new();
    let push_type = |out: &mut String, seen: &mut String, name: &str, kind: &str| {
        let tag = format!("\u{0}{name}\u{0}");
        if !seen.contains(&tag) {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            seen.push_str(&tag);
        }
    };

    for (id, value) in &snap.counters {
        push_type(&mut out, &mut emit_type, &id.name, "counter");
        out.push_str(&id.name);
        out.push_str(&id.render_labels());
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    for (id, value) in &snap.gauges {
        push_type(&mut out, &mut emit_type, &id.name, "gauge");
        out.push_str(&id.name);
        out.push_str(&id.render_labels());
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    for (id, h) in &snap.histograms {
        push_type(&mut out, &mut emit_type, &id.name, "histogram");
        let mut cumulative = 0u64;
        for (i, count) in h.buckets.iter().enumerate() {
            cumulative += count;
            // Skip interior empty buckets to keep the output readable,
            // but always emit +Inf.
            let bound = HistogramCore::bucket_bound_nanos(i);
            if *count == 0 && bound.is_some() {
                continue;
            }
            let le = match bound {
                Some(nanos) => fmt_seconds(nanos),
                None => "+Inf".to_string(),
            };
            out.push_str(&id.name);
            out.push_str("_bucket");
            out.push_str(&id.render_labels_with_extra(&[("le", &le)]));
            out.push(' ');
            out.push_str(&cumulative.to_string());
            let exemplar = h.exemplar(i);
            if exemplar != 0 {
                out.push_str(" # {trace_id=\"");
                out.push_str(&format_trace_id(exemplar));
                out.push_str("\"}");
            }
            out.push('\n');
        }
        out.push_str(&id.name);
        out.push_str("_sum");
        out.push_str(&id.render_labels());
        out.push(' ');
        out.push_str(&fmt_seconds(h.sum_nanos));
        out.push('\n');
        out.push_str(&id.name);
        out.push_str("_count");
        out.push_str(&id.render_labels());
        out.push(' ');
        out.push_str(&h.count.to_string());
        out.push('\n');
    }
    out
}

fn json_id(id: &MetricId) -> String {
    let labels: Vec<String> = id
        .labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!(
        "\"name\":\"{}\",\"labels\":{{{}}}",
        json_escape(&id.name),
        labels.join(",")
    )
}

fn json_histogram(h: &HistogramSnapshot) -> String {
    let exemplars: Vec<String> = h
        .exemplars
        .iter()
        .enumerate()
        .filter(|(_, id)| **id != 0)
        .map(|(i, id)| {
            format!(
                "{{\"bucket\":{i},\"trace_id\":\"{}\"}}",
                format_trace_id(*id)
            )
        })
        .collect();
    format!(
        "\"count\":{},\"sum_nanos\":{},\"mean_nanos\":{},\"p50_nanos\":{},\"p99_nanos\":{},\"p999_nanos\":{},\"exemplars\":[{}]",
        h.count,
        h.sum_nanos,
        h.mean_nanos(),
        h.p50_nanos(),
        h.p99_nanos(),
        h.p999_nanos(),
        exemplars.join(",")
    )
}

/// Renders a snapshot as JSON:
/// `{"counters":[{"name":…,"labels":{…},"value":…}],`
/// `"gauges":[…],"histograms":[{…,"count":…,"sum_nanos":…,`
/// `"mean_nanos":…,"p50_nanos":…,"p99_nanos":…,"p999_nanos":…,`
/// `"exemplars":[{"bucket":…,"trace_id":"…"}]}]}`.
pub fn to_json(snap: &MetricsSnapshot) -> String {
    let counters: Vec<String> = snap
        .counters
        .iter()
        .map(|(id, v)| format!("{{{},\"value\":{v}}}", json_id(id)))
        .collect();
    let gauges: Vec<String> = snap
        .gauges
        .iter()
        .map(|(id, v)| format!("{{{},\"value\":{v}}}", json_id(id)))
        .collect();
    let histograms: Vec<String> = snap
        .histograms
        .iter()
        .map(|(id, h)| format!("{{{},{}}}", json_id(id), json_histogram(h)))
        .collect();
    format!(
        "{{\"counters\":[{}],\"gauges\":[{}],\"histograms\":[{}]}}",
        counters.join(","),
        gauges.join(","),
        histograms.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.counter("wsrc_cache_hits_total", &[("repr", "xml-text")])
            .add(5);
        r.gauge("wsrc_cache_entries", &[]).set(3);
        let h = r.histogram("wsrc_stage_seconds", &[("stage", "parse")]);
        h.record_nanos(1000);
        h.record_nanos(2000);
        r.snapshot()
    }

    #[test]
    fn prometheus_counters_and_gauges() {
        let text = to_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE wsrc_cache_hits_total counter"));
        assert!(text.contains("wsrc_cache_hits_total{repr=\"xml-text\"} 5"));
        assert!(text.contains("# TYPE wsrc_cache_entries gauge"));
        assert!(text.contains("wsrc_cache_entries 3\n"));
    }

    #[test]
    fn prometheus_histogram_is_cumulative_in_seconds() {
        let text = to_prometheus(&sample_snapshot());
        // 1000ns → bucket bound 1024ns = 0.000001024s; 2000ns → 2048ns.
        assert!(
            text.contains("wsrc_stage_seconds_bucket{stage=\"parse\",le=\"0.000001024\"} 1"),
            "missing first bucket in:\n{text}"
        );
        assert!(text.contains("wsrc_stage_seconds_bucket{stage=\"parse\",le=\"0.000002048\"} 2"));
        assert!(text.contains("wsrc_stage_seconds_bucket{stage=\"parse\",le=\"+Inf\"} 2"));
        assert!(text.contains("wsrc_stage_seconds_sum{stage=\"parse\"} 0.000003000"));
        assert!(text.contains("wsrc_stage_seconds_count{stage=\"parse\"} 2"));
    }

    #[test]
    fn prometheus_type_line_once_per_name() {
        let r = MetricsRegistry::new();
        r.counter("hits", &[("repr", "a")]).inc();
        r.counter("hits", &[("repr", "b")]).inc();
        let text = to_prometheus(&r.snapshot());
        assert_eq!(text.matches("# TYPE hits counter").count(), 1);
    }

    #[test]
    fn json_round_trips_structure() {
        let json = to_json(&sample_snapshot());
        assert!(json.starts_with("{\"counters\":["));
        assert!(json.contains(
            "{\"name\":\"wsrc_cache_hits_total\",\"labels\":{\"repr\":\"xml-text\"},\"value\":5}"
        ));
        assert!(json.contains("\"p50_nanos\":1024"));
        assert!(json.contains("\"p99_nanos\":2048"));
        assert!(json.contains("\"count\":2,\"sum_nanos\":3000"));
        // Minimal well-formedness: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_snapshot_renders_empty_documents() {
        let snap = MetricsSnapshot::default();
        assert_eq!(to_prometheus(&snap), "");
        assert_eq!(
            to_json(&snap),
            "{\"counters\":[],\"gauges\":[],\"histograms\":[]}"
        );
    }

    #[test]
    fn exemplars_render_in_both_expositions() {
        let r = MetricsRegistry::new();
        let h = r.histogram("wsrc_stage_seconds", &[("stage", "build")]);
        h.record_nanos_with_exemplar(1000, 0xdead_beef);
        let snap = r.snapshot();
        let text = to_prometheus(&snap);
        assert!(
            text.contains(
                "wsrc_stage_seconds_bucket{stage=\"build\",le=\"0.000001024\"} 1 \
                 # {trace_id=\"000000000000000000000000deadbeef\"}"
            ),
            "missing Prometheus exemplar in:\n{text}"
        );
        let json = to_json(&snap);
        assert!(json.contains("\"p999_nanos\":1024"));
        assert!(json.contains(
            "\"exemplars\":[{\"bucket\":10,\"trace_id\":\"000000000000000000000000deadbeef\"}]"
        ));
    }

    #[test]
    fn histograms_without_exemplars_render_plain_buckets() {
        let text = to_prometheus(&sample_snapshot());
        assert!(
            !text.contains(" # {trace_id="),
            "no stray exemplars:\n{text}"
        );
        let json = to_json(&sample_snapshot());
        assert!(json.contains("\"exemplars\":[]"));
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let r = MetricsRegistry::new();
        r.counter("c", &[("path", "a\"b")]).inc();
        let text = to_prometheus(&r.snapshot());
        assert!(text.contains("c{path=\"a\\\"b\"} 1"));
    }
}
