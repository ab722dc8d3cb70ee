//! Exposition format: Prometheus-style text, plus the JSON string
//! escape `/trace` uses.
//!
//! No `prometheus` crate — the build environment is offline, so the
//! renderer is written against [`MetricsSnapshot`] directly.

use crate::metrics::{HistogramCore, MetricsSnapshot};

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
/// `_sum` and `_count` series.
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    // Each list is sorted by `MetricId`, name first, so one name's
    // series are adjacent and its `# TYPE` line precedes the first.
    let push_type = |out: &mut String, prev: Option<&String>, name: &String, kind: &str| {
        if prev != Some(name) {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
        }
    };

    let mut prev = None;
    for (id, value) in &snap.counters {
        push_type(&mut out, prev, &id.name, "counter");
        prev = Some(&id.name);
        out.push_str(&id.name);
        out.push_str(&id.render_labels());
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    let mut prev = None;
    for (id, value) in &snap.gauges {
        push_type(&mut out, prev, &id.name, "gauge");
        prev = Some(&id.name);
        out.push_str(&id.name);
        out.push_str(&id.render_labels());
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    let mut prev = None;
    for (id, h) in &snap.histograms {
        push_type(&mut out, prev, &id.name, "histogram");
        prev = Some(&id.name);
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
    fn json_escapes_special_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_snapshot_renders_empty_documents() {
        let snap = MetricsSnapshot::default();
        assert_eq!(to_prometheus(&snap), "");
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let r = MetricsRegistry::new();
        r.counter("c", &[("path", "a\"b")]).inc();
        r.counter("c", &[("path", "edge\nwest")]).inc();
        let text = to_prometheus(&r.snapshot());
        assert!(text.contains("c{path=\"a\\\"b\"} 1"));
        assert!(text.contains("c{path=\"edge\\nwest\"} 1\n"), "{text}");
    }
}
