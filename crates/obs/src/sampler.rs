//! The trace store: the last [`RECENT_CAPACITY`] traces, one entry per
//! trace id, each holding at most 128 spans.
//!
//! A span joins its trace's entry when it finishes; a trace the store
//! does not hold opens an entry at the back and pushes the oldest out.
//! An entry takes its route and duration from the span that has no
//! parent, and until that span arrives from the first root continued
//! from a wire context. What the two bounds throw away is counted, and
//! every span takes the one inner mutex once.

use crate::render::json_escape;
use crate::sync;
use crate::trace::{format_span_id, format_trace_id, SpanRecord};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Traces the store holds; opening one more pushes the oldest out.
pub const RECENT_CAPACITY: usize = 64;
/// Spans kept per trace; later ones are dropped.
pub(crate) const MAX_SPANS_PER_TRACE: usize = 128;

/// One held trace with its finished spans.
#[derive(Debug, Clone)]
pub struct StoredTrace {
    /// The trace id (hex form is the wire spelling).
    pub trace_id: u128,
    /// The route of the trace's own root, the span with no parent; until
    /// that arrives, of the first root continued from a wire context.
    pub route: String,
    /// That root's wall time in nanoseconds.
    pub duration_nanos: u64,
    /// Whether any span recorded for the trace errored.
    pub error: bool,
    /// The spans, in the order they reached the store.
    pub spans: Vec<SpanRecord>,
}

impl StoredTrace {
    /// Renders the trace as a JSON object whose `spans` array nests
    /// children under their parents.
    pub fn to_json(&self) -> String {
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        let ids: HashSet<u64> = self.spans.iter().map(|s| s.span_id).collect();
        let mut roots: Vec<&SpanRecord> = Vec::new();
        for span in &self.spans {
            match span.parent_span_id {
                // A parent outside this trace's span set (e.g. in
                // another process) makes the span a local root.
                Some(parent) if ids.contains(&parent) => {
                    children.entry(parent).or_default().push(span);
                }
                _ => roots.push(span),
            }
        }
        for list in children.values_mut() {
            list.sort_by_key(|s| s.start_nanos);
        }
        roots.sort_by_key(|s| s.start_nanos);
        let rendered: Vec<String> = roots.iter().map(|s| render_span(s, &children, 0)).collect();
        format!(
            "{{\"trace_id\":\"{}\",\"route\":\"{}\",\"duration_nanos\":{},\"error\":{},\"spans\":[{}]}}",
            format_trace_id(self.trace_id),
            json_escape(&self.route),
            self.duration_nanos,
            self.error,
            rendered.join(",")
        )
    }
}

fn render_span(
    span: &SpanRecord,
    children: &BTreeMap<u64, Vec<&SpanRecord>>,
    depth: usize,
) -> String {
    let kids = if depth >= 32 {
        // Depth guard against pathological parent links.
        String::new()
    } else {
        children
            .get(&span.span_id)
            .map(|list| {
                list.iter()
                    .map(|c| render_span(c, children, depth + 1))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .unwrap_or_default()
    };
    let opt = |v: &Option<String>| match v {
        Some(s) => format!("\"{}\"", json_escape(s)),
        None => "null".to_string(),
    };
    format!(
        "{{\"span_id\":\"{}\",\"parent_span_id\":{},\"name\":\"{}\",\"stage\":\"{}\",\
         \"start_nanos\":{},\"end_nanos\":{},\"duration_nanos\":{},\
         \"annotation\":{},\"error\":{},\"children\":[{}]}}",
        format_span_id(span.span_id),
        span.parent_span_id
            .map(|p| format!("\"{}\"", format_span_id(p)))
            .unwrap_or_else(|| "null".to_string()),
        json_escape(span.name),
        json_escape(span.stage),
        span.start_nanos,
        span.end_nanos,
        span.duration_nanos(),
        opt(&span.annotation),
        span.error,
        kids
    )
}

/// Sums per-stage *self time* (span duration minus direct children)
/// across traces — the critical-path breakdown the trace smoke checks.
pub fn stage_breakdown(traces: &[StoredTrace]) -> Vec<(String, u64)> {
    let mut by_stage: BTreeMap<String, u64> = BTreeMap::new();
    for trace in traces {
        let mut child_sum: HashMap<u64, u64> = HashMap::new();
        let ids: HashSet<u64> = trace.spans.iter().map(|s| s.span_id).collect();
        for span in &trace.spans {
            if let Some(parent) = span.parent_span_id {
                if ids.contains(&parent) {
                    *child_sum.entry(parent).or_insert(0) += span.duration_nanos();
                }
            }
        }
        for span in &trace.spans {
            let nested = child_sum.get(&span.span_id).copied().unwrap_or(0);
            let self_nanos = span.duration_nanos().saturating_sub(nested);
            *by_stage.entry(span.stage.to_string()).or_insert(0) += self_nanos;
        }
    }
    by_stage.into_iter().collect()
}

/// The ring of recent traces. See the module docs.
#[derive(Default)]
pub struct TraceStore {
    /// Oldest first.
    inner: Mutex<VecDeque<StoredTrace>>,
    dropped: AtomicU64,
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceStore")
    }
}

impl TraceStore {
    /// Adds a finished span to its trace's entry. `route` is given when
    /// the span is a local root: the entry takes the route and the
    /// span's duration if the span has no parent, or if no root has set
    /// them yet.
    pub(crate) fn record(&self, span: SpanRecord, route: Option<String>) {
        let mut ring = sync::lock_class("TraceStore.inner", &self.inner);
        let at = match ring.iter().rposition(|t| t.trace_id == span.trace_id) {
            Some(at) => at,
            None => {
                if ring.len() == RECENT_CAPACITY {
                    let pushed_out = ring.pop_front().map_or(0, |t| t.spans.len());
                    self.dropped.fetch_add(pushed_out as u64, Ordering::SeqCst);
                }
                ring.push_back(StoredTrace {
                    trace_id: span.trace_id,
                    route: String::new(),
                    duration_nanos: 0,
                    error: false,
                    spans: Vec::new(),
                });
                ring.len() - 1
            }
        };
        let trace = &mut ring[at];
        if let Some(route) =
            route.filter(|_| span.parent_span_id.is_none() || trace.route.is_empty())
        {
            trace.route = route;
            trace.duration_nanos = span.duration_nanos();
        }
        trace.error |= span.error;
        if trace.spans.len() < MAX_SPANS_PER_TRACE {
            trace.spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Held traces, newest first.
    pub fn recent(&self) -> Vec<StoredTrace> {
        sync::lock_class("TraceStore.inner", &self.inner)
            .iter()
            .rev()
            .cloned()
            .collect()
    }

    /// Spans thrown away: those of traces pushed out of the ring and
    /// those past a trace's span cap.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// Renders the store for `GET /trace`: `{"recent":[…],"dropped":N}`
    /// where each trace is a [`StoredTrace::to_json`] span tree.
    pub fn to_json(&self) -> String {
        let recent: Vec<String> = self.recent().iter().map(StoredTrace::to_json).collect();
        format!(
            "{{\"recent\":[{}],\"dropped\":{}}}",
            recent.join(","),
            self.dropped()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::trace::{TraceContext, Tracer};
    use std::sync::Arc;

    fn span(trace_id: u128, span_id: u64, parent: Option<u64>, stage: &'static str) -> SpanRecord {
        SpanRecord {
            trace_id,
            span_id,
            parent_span_id: parent,
            name: stage,
            stage,
            start_nanos: 0,
            end_nanos: 100,
            annotation: None,
            error: false,
        }
    }

    fn store() -> TraceStore {
        TraceStore::default()
    }

    /// Continues each `traceparent` value as the server does, one
    /// fragment of one span each, on a tracer of its own.
    fn continue_fragments(values: impl Iterator<Item = String>) -> Arc<Tracer> {
        let tracer = Tracer::new(Arc::new(ManualClock::new()));
        for value in values {
            let ctx = TraceContext::parse_traceparent(&value).expect("well-formed");
            tracer
                .span_from(ctx, "server", "server", "/hostile")
                .finish();
        }
        tracer
    }

    #[test]
    fn recent_ring_is_bounded() {
        let last = RECENT_CAPACITY as u128 + 8;
        let tracer =
            continue_fragments((1..=last).map(|id| format!("00-{id:032x}-0000000000000001-01")));
        let recent = tracer.store().recent();
        assert_eq!(recent.len(), RECENT_CAPACITY);
        assert_eq!(recent[0].trace_id, last, "newest first");
        assert_eq!(
            recent[RECENT_CAPACITY - 1].trace_id,
            9,
            "the oldest 8 pushed out"
        );
        assert_eq!(tracer.store().dropped(), 8);
    }

    #[test]
    fn pending_capacity_is_enforced() {
        let fragments = MAX_SPANS_PER_TRACE as u64 + 8;
        let tracer =
            continue_fragments((1..=fragments).map(|span| format!("00-{:032x}-{span:016x}-01", 7)));
        let recent = tracer.store().recent();
        assert_eq!(recent.len(), 1, "one entry per trace id");
        assert_eq!(recent[0].spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(tracer.store().dropped(), 8);
    }

    #[test]
    fn a_wire_fragment_merges_into_its_roots_entry() {
        let s = store();
        s.record(span(7, 2, Some(1), "server"), Some("/server-route".into()));
        assert_eq!(
            s.recent()[0].route,
            "/server-route",
            "the fragment's until the root"
        );
        let mut root = span(7, 1, None, "root");
        root.end_nanos = 120;
        s.record(root.clone(), Some("/client-route".into()));
        // The same trace with its root first: a later fragment keeps out.
        root.trace_id = 8;
        s.record(root, Some("/client-route".into()));
        s.record(span(8, 2, Some(1), "server"), Some("/server-route".into()));
        let recent = s.recent();
        assert_eq!(recent.len(), 2);
        for trace in recent {
            assert_eq!(trace.route, "/client-route", "the root's route wins");
            assert_eq!(trace.duration_nanos, 120);
            assert_eq!(trace.spans.len(), 2);
        }
    }

    #[test]
    fn a_lone_wire_fragment_keeps_its_own_route() {
        let s = store();
        s.record(span(7, 2, Some(1), "server"), Some("/server-route".into()));
        s.record(span(7, 3, Some(1), "server"), Some("/other-route".into()));
        let recent = s.recent();
        assert_eq!(recent.len(), 1, "standalone server fragment retained");
        assert_eq!(recent[0].route, "/server-route", "the first fragment's");
    }

    #[test]
    fn json_nests_children_and_orphans_become_roots() {
        let s = store();
        s.record(span(0xab, 1, None, "root"), None);
        s.record(span(0xab, 2, Some(1), "transfer"), None);
        s.record(span(0xab, 3, Some(2), "server"), None);
        // Parent in another process.
        s.record(span(0xab, 4, Some(99), "orphan"), Some("/r".into()));
        let json = s.to_json();
        assert!(json.starts_with("{\"recent\":["));
        assert!(json.contains("\"trace_id\":\"000000000000000000000000000000ab\""));
        assert!(json.contains("\"stage\":\"transfer\""));
        // transfer nests under root, server under transfer.
        let root_pos = json.find("\"stage\":\"root\"").expect("root");
        let transfer_pos = json.find("\"stage\":\"transfer\"").expect("transfer");
        let server_pos = json.find("\"stage\":\"server\"").expect("server");
        assert!(root_pos < transfer_pos && transfer_pos < server_pos);
        // The orphan renders as a top-level span, not lost.
        assert!(json.contains("\"stage\":\"orphan\""));
        assert!(json.contains("\"parent_span_id\":\"0000000000000063\""));
        // Balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn stage_breakdown_attributes_self_time() {
        let mut root = span(1, 1, None, "root");
        root.end_nanos = 1000;
        let mut transfer = span(1, 2, Some(1), "transfer");
        transfer.end_nanos = 900;
        let mut server = span(1, 3, Some(2), "server");
        server.end_nanos = 400;
        let trace = StoredTrace {
            trace_id: 1,
            route: "/r".to_string(),
            duration_nanos: 1000,
            error: false,
            spans: vec![root, transfer, server],
        };
        let breakdown = stage_breakdown(&[trace]);
        let get = |stage: &str| {
            breakdown
                .iter()
                .find(|(s, _)| s == stage)
                .map(|(_, n)| *n)
                .unwrap_or(0)
        };
        assert_eq!(get("root"), 100, "1000 - 900 nested");
        assert_eq!(get("transfer"), 500, "900 - 400 nested");
        assert_eq!(get("server"), 400);
    }
}
