//! Tail-based trace retention: the store decides which traces to keep
//! *after* they finish, when their duration and outcome are known.
//!
//! Head sampling (flip a coin at the root) would throw away exactly the
//! traces the paper's analysis needs — the slow tail. This store keeps:
//!
//! - every **error** trace,
//! - the **slowest N per route** (so the first request on a route is
//!   always retained, which keeps single-request smokes deterministic),
//! - and a probabilistic **one-in-k** of the rest, id-hashed so the
//!   decision is stable for a given trace id.
//!
//! Retained traces land in a fixed-capacity ring of recent traces plus
//! a per-route slowest table; everything else is counted and dropped.
//! All accessors take the single inner mutex exactly once.

use crate::render::json_escape;
use crate::sync;
use crate::trace::{format_span_id, format_trace_id, SpanRecord};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Capacity of the recent-traces ring.
pub const RECENT_CAPACITY: usize = 64;
/// Slowest traces kept per route.
pub const SLOWEST_PER_ROUTE: usize = 8;
/// One in this many non-error, non-slowest traces is kept.
pub(crate) const SAMPLE_ONE_IN: u128 = 16;
/// Maximum traces with spans awaiting finalization; batches for new
/// traces beyond this are dropped (and counted).
pub(crate) const MAX_PENDING: usize = 256;
/// Maximum spans buffered per pending trace.
pub(crate) const MAX_SPANS_PER_TRACE: usize = 128;

/// One retained trace with its finished spans.
#[derive(Debug, Clone)]
pub struct StoredTrace {
    /// The trace id (hex form is the exemplar/wire spelling).
    pub trace_id: u128,
    /// The route of the root (or local root) that finalized the trace.
    pub route: String,
    /// Root wall time in nanoseconds.
    pub duration_nanos: u64,
    /// Whether any span errored.
    pub error: bool,
    /// All spans, in completion order.
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
/// across traces — the critical-path breakdown loadgen reports print.
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

#[derive(Default)]
struct StoreInner {
    /// Spans of traces still in flight, keyed by trace id.
    pending: HashMap<u128, Vec<SpanRecord>>,
    /// Trace ids whose global root lives in this process.
    open_roots: HashSet<u128>,
    /// Ring of retained traces, oldest first.
    recent: VecDeque<StoredTrace>,
    /// Slowest retained traces per route, sorted slowest-first.
    slowest: BTreeMap<String, Vec<StoredTrace>>,
}

/// The tail-sampling trace store. See the module docs for the
/// retention policy.
#[derive(Default)]
pub struct TraceStore {
    inner: Mutex<StoreInner>,
    dropped: AtomicU64,
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceStore")
    }
}

impl TraceStore {
    /// Registers `trace_id` as owned by an in-process global root, so
    /// provisional (wire-continued) finalizations leave it pending.
    pub(crate) fn open_root(&self, trace_id: u128) {
        sync::lock_class("TraceStore.inner", &self.inner)
            .open_roots
            .insert(trace_id);
    }

    /// Accepts a batch of finished spans from a thread buffer.
    pub(crate) fn record_batch(&self, batch: Vec<SpanRecord>) {
        let mut dropped = 0u64;
        {
            let mut inner = sync::lock_class("TraceStore.inner", &self.inner);
            for span in batch {
                let known = inner.pending.contains_key(&span.trace_id);
                if !known && inner.pending.len() >= MAX_PENDING {
                    dropped += 1;
                    continue;
                }
                let spans = inner.pending.entry(span.trace_id).or_default();
                if spans.len() >= MAX_SPANS_PER_TRACE {
                    dropped += 1;
                    continue;
                }
                spans.push(span);
            }
        }
        if dropped > 0 {
            self.dropped.fetch_add(dropped, Ordering::SeqCst);
        }
    }

    /// Completes a trace and applies the tail-retention policy.
    /// `provisional` finalizations (from wire-continued local roots)
    /// are skipped while an in-process global root owns the trace.
    pub(crate) fn finalize(
        &self,
        trace_id: u128,
        route: &str,
        duration_nanos: u64,
        error: bool,
        provisional: bool,
    ) {
        let retained = {
            let mut inner = sync::lock_class("TraceStore.inner", &self.inner);
            if provisional && inner.open_roots.contains(&trace_id) {
                return;
            }
            inner.open_roots.remove(&trace_id);
            let spans = inner.pending.remove(&trace_id).unwrap_or_default();
            if spans.is_empty() {
                return;
            }
            let trace = StoredTrace {
                trace_id,
                route: route.to_string(),
                duration_nanos,
                error,
                spans,
            };

            // Slowest-N per route: always keep while the table is
            // filling, then only when beating the current floor.
            let slot = inner.slowest.entry(route.to_string()).or_default();
            let qualifies_slowest = slot.len() < SLOWEST_PER_ROUTE
                || slot
                    .last()
                    .is_some_and(|floor| duration_nanos > floor.duration_nanos);
            if qualifies_slowest {
                slot.push(trace.clone());
                slot.sort_by_key(|t| std::cmp::Reverse(t.duration_nanos));
                slot.truncate(SLOWEST_PER_ROUTE);
            }

            let sampled_in = trace_id.is_multiple_of(SAMPLE_ONE_IN);
            let retained = error || qualifies_slowest || sampled_in;
            if retained {
                inner.recent.push_back(trace);
                while inner.recent.len() > RECENT_CAPACITY {
                    inner.recent.pop_front();
                }
            }
            retained
        };
        if !retained {
            self.dropped.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Retained traces, newest first.
    pub fn recent(&self) -> Vec<StoredTrace> {
        sync::lock_class("TraceStore.inner", &self.inner)
            .recent
            .iter()
            .rev()
            .cloned()
            .collect()
    }

    /// The slowest retained traces across all routes, slowest first.
    pub fn slowest(&self) -> Vec<StoredTrace> {
        let mut all: Vec<StoredTrace> = sync::lock_class("TraceStore.inner", &self.inner)
            .slowest
            .values()
            .flatten()
            .cloned()
            .collect();
        all.sort_by_key(|t| std::cmp::Reverse(t.duration_nanos));
        all
    }

    /// Traces discarded by retention or capacity limits.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// Traces with spans still awaiting finalization.
    #[cfg(test)]
    pub(crate) fn pending_traces(&self) -> usize {
        sync::lock_class("TraceStore.inner", &self.inner)
            .pending
            .len()
    }

    /// Renders the store for `GET /trace`:
    /// `{"recent":[…],"slowest":[…],"dropped":N}` where each trace is a
    /// [`StoredTrace::to_json`] span tree.
    pub fn to_json(&self) -> String {
        let recent: Vec<String> = self.recent().iter().map(StoredTrace::to_json).collect();
        let slowest: Vec<String> = self.slowest().iter().map(StoredTrace::to_json).collect();
        format!(
            "{{\"recent\":[{}],\"slowest\":[{}],\"dropped\":{}}}",
            recent.join(","),
            slowest.join(","),
            self.dropped()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Finishes a one-span trace on route `/r`.
    fn finish(s: &TraceStore, id: u128, duration: u64, error: bool) {
        s.record_batch(vec![span(id, 1, None, "root")]);
        s.finalize(id, "/r", duration, error, false);
    }

    /// Fills `/r`'s slowest table with traces no later one outlasts, so
    /// what follows is retained only as an error or by the id sample.
    /// Their ids (2001…) are outside the sample.
    fn fill_slowest(s: &TraceStore) {
        for i in 0..SLOWEST_PER_ROUTE as u128 {
            finish(s, 2001 + i, 1_000_000, false);
        }
    }

    #[test]
    fn slowest_per_route_keeps_the_tail() {
        let s = store();
        // Ten traces, none in the id sample: durations 100, 200, … 1000.
        for i in 1..=10u64 {
            finish(&s, u128::from(i), i * 100, false);
        }
        let slow: Vec<u64> = s.slowest().iter().map(|t| t.duration_nanos).collect();
        assert_eq!(slow, [1000, 900, 800, 700, 600, 500, 400, 300]);
        // Every one beat the floor when it arrived, so all ten were
        // retained in the ring; a late short one is not.
        assert_eq!(s.dropped(), 0);
        finish(&s, 11, 50, false);
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn error_traces_are_always_retained() {
        let s = store();
        fill_slowest(&s);
        finish(&s, 9, 1, true);
        let recent = s.recent();
        assert!(recent.iter().any(|t| t.trace_id == 9 && t.error));
    }

    #[test]
    fn probabilistic_sampling_is_id_stable() {
        let s = store();
        fill_slowest(&s);
        for id in 1u128..=48 {
            finish(&s, id, 10, false);
        }
        let kept: Vec<u128> = s.recent().iter().map(|t| t.trace_id).collect();
        assert_eq!(kept[..3], [48, 32, 16], "ids divisible by 16, newest first");
        assert_eq!(kept.len(), 3 + SLOWEST_PER_ROUTE);
    }

    #[test]
    fn recent_ring_is_bounded() {
        let s = store();
        let last = RECENT_CAPACITY as u128 + 6;
        for id in 1..=last {
            finish(&s, id, 10, true);
        }
        let recent = s.recent();
        assert_eq!(recent.len(), RECENT_CAPACITY);
        assert_eq!(recent[0].trace_id, last, "newest first");
    }

    #[test]
    fn provisional_finalize_defers_to_the_open_root() {
        let s = store();
        s.open_root(7);
        s.record_batch(vec![
            span(7, 1, None, "root"),
            span(7, 2, Some(1), "server"),
        ]);
        s.finalize(7, "/server-route", 50, false, true);
        assert_eq!(s.recent().len(), 0, "still pending");
        assert_eq!(s.pending_traces(), 1);
        s.finalize(7, "/client-route", 120, false, false);
        let recent = s.recent();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].route, "/client-route");
        assert_eq!(recent[0].spans.len(), 2);
    }

    #[test]
    fn provisional_finalize_stands_alone_without_a_root() {
        let s = store();
        s.record_batch(vec![span(7, 2, Some(1), "server")]);
        s.finalize(7, "/server-route", 50, false, true);
        let recent = s.recent();
        assert_eq!(recent.len(), 1, "standalone server fragment retained");
        assert_eq!(recent[0].route, "/server-route");
    }

    #[test]
    fn pending_capacity_is_enforced() {
        let s = store();
        for id in 1..=MAX_PENDING as u128 + 2 {
            s.record_batch(vec![span(id, 1, None, "root")]);
        }
        assert_eq!(s.pending_traces(), MAX_PENDING);
        assert_eq!(s.dropped(), 2);
        let many: Vec<SpanRecord> = (1..=MAX_SPANS_PER_TRACE as u64 + 20)
            .map(|i| span(1, i, None, "x"))
            .collect();
        s.record_batch(many);
        assert!(s.dropped() > 2, "per-trace span cap counted");
    }

    #[test]
    fn json_nests_children_and_orphans_become_roots() {
        let s = store();
        s.record_batch(vec![
            span(0xab, 1, None, "root"),
            span(0xab, 2, Some(1), "transfer"),
            span(0xab, 3, Some(2), "server"),
            span(0xab, 4, Some(99), "orphan"), // parent in another process
        ]);
        s.finalize(0xab, "/r", 100, false, false);
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
