//! Distributed request tracing: contexts, spans, and propagation.
//!
//! The paper attributes end-to-end cost to per-stage work — parse,
//! build, retrieve, transfer (Tables 6–9) — but aggregate histograms
//! cannot say why one *specific* p99 request was slow. This module adds
//! the per-request causal view: a [`TraceContext`] (128-bit trace id,
//! 64-bit span id, parent link, sampled flag) is minted at a request
//! root, travels across the wire in a `traceparent`-style header, and
//! every instrumented stage records a [`SpanRecord`] into the tracer's
//! [`crate::sampler::TraceStore`].
//!
//! Design constraints, in order:
//!
//! - **No signature churn.** The current span lives in a thread-local
//!   stack, so `Handler::handle` and the client call path stay
//!   unchanged; stages call [`child_span`] and get `None` when no
//!   trace is active.
//! - **One path to the store.** A span goes into its trace's entry
//!   when it finishes, under one store lock, so `/trace` shows the
//!   finished stages of a request that has not yet returned.
//! - **Deterministic.** All timestamps come from the clock of the
//!   [`crate::MetricsRegistry`] that owns the tracer, so span trees are
//!   exact under a [`crate::clock::ManualClock`]. A [`crate::Stage`]
//!   whose clock shares that axis emits its span from the two readings
//!   its histogram sample is made of.
//!
//! Root discipline (`clippy.toml` disallows [`Tracer::root_span`]):
//! request-path spans must descend from a propagated context. Only
//! designated root sites — the trace smoke driver and tests — may mint
//! fresh roots; servers *continue* a received context via
//! [`Tracer::span_from`].

use crate::clock::Clock;
use crate::sampler::TraceStore;
use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The propagation header carrying a [`TraceContext`] across HTTP hops
/// (requests and echoed responses).
pub const TRACEPARENT_HEADER: &str = "traceparent";

/// Renders a 128-bit trace id as 32 lowercase hex digits (the wire
/// format).
pub fn format_trace_id(id: u128) -> String {
    format!("{id:032x}")
}

/// Renders a 64-bit span id as 16 lowercase hex digits.
pub(crate) fn format_span_id(id: u64) -> String {
    format!("{id:016x}")
}

fn mix(n: u64) -> u64 {
    // One process-wide random hash seed; ids are hashes of a global
    // serial, unique without consulting a wall clock (`clippy.toml`
    // keeps `Instant::now` out of library code).
    static SEED: OnceLock<RandomState> = OnceLock::new();
    let mut h = SEED.get_or_init(RandomState::new).build_hasher();
    h.write_u64(n);
    h.finish()
}

fn next_serial() -> u64 {
    static SERIAL: AtomicU64 = AtomicU64::new(1);
    SERIAL.fetch_add(1, Ordering::SeqCst)
}

fn fresh_trace_id() -> u128 {
    let n = next_serial();
    let hi = mix(n) as u128;
    let lo = mix(n ^ 0x9e37_79b9_7f4a_7c15) as u128;
    let id = (hi << 64) | lo;
    if id == 0 {
        1
    } else {
        id
    }
}

fn fresh_span_id() -> u64 {
    let id = mix(next_serial() ^ 0x2545_f491_4f6c_dd1d);
    if id == 0 {
        1
    } else {
        id
    }
}

/// The identity a request carries: which trace it belongs to, which
/// span is current, and whether spans are being recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id, never zero.
    pub trace_id: u128,
    /// The current span's id, never zero.
    pub span_id: u64,
    /// The parent span, `None` for the trace root (or for a context
    /// parsed off the wire, whose parent lives in another process).
    pub parent_span_id: Option<u64>,
    /// Whether spans under this context are recorded.
    pub sampled: bool,
}

impl TraceContext {
    /// Mints a fresh root context (always sampled).
    pub(crate) fn root() -> TraceContext {
        TraceContext {
            trace_id: fresh_trace_id(),
            span_id: fresh_span_id(),
            parent_span_id: None,
            sampled: true,
        }
    }

    /// A child context: same trace, fresh span id, parented here.
    pub(crate) fn child(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: fresh_span_id(),
            parent_span_id: Some(self.span_id),
            sampled: self.sampled,
        }
    }

    /// Renders the `traceparent` header value:
    /// `00-<32 hex trace id>-<16 hex span id>-<01|00>`.
    pub fn to_traceparent(&self) -> String {
        format!(
            "00-{:032x}-{:016x}-{:02x}",
            self.trace_id,
            self.span_id,
            u8::from(self.sampled)
        )
    }

    /// Parses a `traceparent` header value. Returns `None` for
    /// malformed input, unknown versions, or all-zero ids.
    pub fn parse_traceparent(value: &str) -> Option<TraceContext> {
        let mut parts = value.trim().split('-');
        let version = parts.next()?;
        let trace_hex = parts.next()?;
        let span_hex = parts.next()?;
        let flags_hex = parts.next()?;
        if parts.next().is_some() || version != "00" {
            return None;
        }
        if trace_hex.len() != 32 || span_hex.len() != 16 || flags_hex.len() != 2 {
            return None;
        }
        let trace_id = u128::from_str_radix(trace_hex, 16).ok()?;
        let span_id = u64::from_str_radix(span_hex, 16).ok()?;
        let flags = u8::from_str_radix(flags_hex, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            span_id,
            parent_span_id: None,
            sampled: flags & 1 == 1,
        })
    }
}

/// One finished span: a causally-linked interval of a specific request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The owning trace.
    pub trace_id: u128,
    /// This span's id.
    pub span_id: u64,
    /// The parent span (`None` at the trace root).
    pub parent_span_id: Option<u64>,
    /// Human name, e.g. `"transfer"`.
    pub name: &'static str,
    /// Stage tag matching the stage-histogram labels, e.g. `"parse"`.
    pub stage: &'static str,
    /// Start reading of the tracer clock.
    pub start_nanos: u64,
    /// End reading of the tracer clock.
    pub end_nanos: u64,
    /// Free-form annotation, e.g. the cache outcome.
    pub annotation: Option<String>,
    /// Whether the span ended in an error.
    pub error: bool,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }
}

/// Records spans against its registry's clock and keeps the recent ones
/// in a [`TraceStore`]. Every [`crate::MetricsRegistry`] owns
/// one ([`crate::MetricsRegistry::tracer`]); there is no other way to
/// build it.
pub struct Tracer {
    clock: Arc<dyn Clock>,
    /// `clock.axis()`, compared against a stage's on every traced stage.
    axis: usize,
    store: TraceStore,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Tracer")
    }
}

impl Tracer {
    pub(crate) fn new(clock: Arc<dyn Clock>) -> Arc<Tracer> {
        Arc::new(Tracer {
            axis: clock.axis(),
            clock,
            store: TraceStore::default(),
        })
    }

    /// A reading on this tracer's axis: `at = (axis, nanos)`, a reading
    /// a [`crate::Stage`] already took, when `axis` is this tracer's;
    /// else this tracer's own clock, read now.
    fn reading(&self, at: Option<(usize, u64)>) -> u64 {
        match at {
            Some((axis, nanos)) if axis == self.axis => nanos,
            _ => self.clock.now_nanos(),
        }
    }

    /// The backing trace store (for `/trace` rendering and reports).
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// Mints a fresh trace root. Only designated root sites (the trace
    /// smoke driver and tests) may call this — `clippy.toml` disallows
    /// it elsewhere, because a request-path span created from thin air
    /// breaks end-to-end attribution.
    pub fn root_span(self: &Arc<Self>, name: &'static str, route: &str) -> ActiveSpan {
        let route = Some(route.to_string());
        ActiveSpan::start(
            self.clone(),
            TraceContext::root(),
            name,
            "root",
            route,
            None,
        )
    }

    /// Continues a context received over the wire: the returned span is
    /// a child of the remote parent and acts as this process's local
    /// root — the store's entry for the trace takes `route` from it
    /// until the trace's own root arrives.
    pub fn span_from(
        self: &Arc<Self>,
        parent: TraceContext,
        name: &'static str,
        stage: &'static str,
        route: &str,
    ) -> ActiveSpan {
        let route = Some(route.to_string());
        ActiveSpan::start(self.clone(), parent.child(), name, stage, route, None)
    }
}

struct Frame {
    tracer: Arc<Tracer>,
    ctx: TraceContext,
}

thread_local! {
    /// The thread's open spans, innermost last.
    static STACK: RefCell<Vec<Frame>> = RefCell::default();
}

/// Whether a trace is active on this thread, so that a stage timed now
/// emits a span.
pub fn active() -> bool {
    STACK
        .try_with(|s| s.try_borrow().is_ok_and(|s| !s.is_empty()))
        .unwrap_or(false)
}

/// Starts a child of the current thread's active span, or returns
/// `None` when no trace is active (untraced callers pay only a TLS
/// read). The span finishes on drop or [`ActiveSpan::finish`].
pub fn child_span(name: &'static str, stage: &'static str) -> Option<ActiveSpan> {
    child_span_at(name, stage, None)
}

/// [`child_span`] starting at `started` (see [`Tracer::reading`]).
pub(crate) fn child_span_at(
    name: &'static str,
    stage: &'static str,
    started: Option<(usize, u64)>,
) -> Option<ActiveSpan> {
    let (tracer, parent) = STACK
        .try_with(|s| {
            s.try_borrow()
                .ok()
                .and_then(|s| s.last().map(|f| (f.tracer.clone(), f.ctx)))
        })
        .ok()
        .flatten()?;
    Some(ActiveSpan::start(
        tracer,
        parent.child(),
        name,
        stage,
        None,
        started,
    ))
}

fn push_frame(tracer: &Arc<Tracer>, ctx: TraceContext) {
    let _ = STACK.try_with(|s| {
        if let Ok(mut s) = s.try_borrow_mut() {
            s.push(Frame {
                tracer: tracer.clone(),
                ctx,
            });
        }
    });
}

fn pop_frame(span_id: u64) {
    let _ = STACK.try_with(|s| {
        if let Ok(mut s) = s.try_borrow_mut() {
            // Defensive: also discard any frames stacked above a span
            // that was finished out of order.
            if let Some(pos) = s.iter().rposition(|f| f.ctx.span_id == span_id) {
                s.truncate(pos);
            }
        }
    });
}

/// A live span. Created through [`Tracer::root_span`],
/// [`Tracer::span_from`], or [`child_span`]; records a [`SpanRecord`]
/// when finished or dropped. While alive it is the current span of the
/// creating thread, so nested [`child_span`] calls parent onto it.
#[must_use = "an active span records on drop; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct ActiveSpan {
    tracer: Arc<Tracer>,
    ctx: TraceContext,
    name: &'static str,
    stage: &'static str,
    start_nanos: u64,
    annotation: Option<String>,
    error: bool,
    /// A local root's route; `None` for an interior span.
    route: Option<String>,
    finished: bool,
}

impl ActiveSpan {
    fn start(
        tracer: Arc<Tracer>,
        ctx: TraceContext,
        name: &'static str,
        stage: &'static str,
        route: Option<String>,
        started: Option<(usize, u64)>,
    ) -> ActiveSpan {
        let start_nanos = tracer.reading(started);
        push_frame(&tracer, ctx);
        ActiveSpan {
            tracer,
            ctx,
            name,
            stage,
            start_nanos,
            annotation: None,
            error: false,
            route,
            finished: false,
        }
    }

    /// The span's context (what a propagation header should carry).
    pub fn context(&self) -> TraceContext {
        self.ctx
    }

    /// The clock reading when the span started (for retroactive
    /// children ending where this span began).
    pub fn start_nanos(&self) -> u64 {
        self.start_nanos
    }

    /// Attaches a free-form annotation (e.g. the cache outcome).
    pub fn annotate(&mut self, text: impl Into<String>) {
        self.annotation = Some(text.into());
    }

    /// Marks the span, and so its stored trace, as errored.
    pub fn set_error(&mut self) {
        self.error = true;
    }

    /// Emits an already-finished child span with explicit timestamps —
    /// used for retroactive intervals such as the queue wait a request
    /// experienced *before* the server span could exist.
    pub fn child_record(
        &self,
        name: &'static str,
        stage: &'static str,
        start_nanos: u64,
        end_nanos: u64,
    ) {
        if !self.ctx.sampled {
            return;
        }
        let child = self.ctx.child();
        let record = SpanRecord {
            trace_id: child.trace_id,
            span_id: child.span_id,
            parent_span_id: child.parent_span_id,
            name,
            stage,
            start_nanos,
            end_nanos,
            annotation: None,
            error: false,
        };
        self.tracer.store.record(record, None);
    }

    /// Finishes the span now (same as dropping it).
    pub fn finish(mut self) {
        self.finish_inner(None);
    }

    /// Finishes the span at `ended` (see [`Tracer::reading`]).
    pub(crate) fn finish_at(mut self, ended: (usize, u64)) {
        self.finish_inner(Some(ended));
    }

    fn finish_inner(&mut self, ended: Option<(usize, u64)>) {
        if self.finished {
            return;
        }
        self.finished = true;
        let end_nanos = self.tracer.reading(ended);
        pop_frame(self.ctx.span_id);
        if !self.ctx.sampled {
            return;
        }
        let record = SpanRecord {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_span_id: self.ctx.parent_span_id,
            name: self.name,
            stage: self.stage,
            start_nanos: self.start_nanos,
            end_nanos,
            annotation: self.annotation.take(),
            error: self.error,
        };
        self.tracer.store.record(record, self.route.take());
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        self.finish_inner(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn manual_tracer() -> (Arc<Tracer>, ManualClock) {
        let clock = ManualClock::new();
        (Tracer::new(Arc::new(clock.handle())), clock)
    }

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceContext::root();
        let wire = ctx.to_traceparent();
        assert_eq!(wire.len(), 2 + 1 + 32 + 1 + 16 + 1 + 2);
        let parsed = TraceContext::parse_traceparent(&wire).expect("round trip");
        assert_eq!(parsed.trace_id, ctx.trace_id);
        assert_eq!(parsed.span_id, ctx.span_id);
        assert!(parsed.sampled);
        assert_eq!(parsed.parent_span_id, None);
    }

    #[test]
    fn traceparent_rejects_malformed_values() {
        for bad in [
            "",
            "garbage",
            "01-00000000000000000000000000000001-0000000000000001-01",
            "00-0000000000000000000000000000000g-0000000000000001-01",
            "00-00000000000000000000000000000000-0000000000000001-01",
            "00-00000000000000000000000000000001-0000000000000000-01",
            "00-0001-0001-01",
            "00-00000000000000000000000000000001-0000000000000001-01-extra",
        ] {
            assert!(
                TraceContext::parse_traceparent(bad).is_none(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn unsampled_flag_survives_the_wire() {
        let mut ctx = TraceContext::root();
        ctx.sampled = false;
        let parsed = TraceContext::parse_traceparent(&ctx.to_traceparent()).expect("parses");
        assert!(!parsed.sampled);
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let ctx = TraceContext::root();
            assert_ne!(ctx.trace_id, 0);
            assert_ne!(ctx.span_id, 0);
            assert!(seen.insert(ctx.trace_id), "duplicate trace id");
        }
    }

    #[test]
    fn root_and_children_form_a_tree_in_the_store() {
        let (tracer, clock) = manual_tracer();
        {
            let root = tracer.root_span("request", "/portal");
            clock.advance_nanos(10);
            {
                let mut child = child_span("cache-lookup", "lookup").expect("trace active");
                child.annotate("outcome=miss");
                clock.advance_nanos(90);
            }
            root.finish();
        }
        let traces = tracer.store().recent();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.route, "/portal");
        assert_eq!(t.duration_nanos, 100);
        assert_eq!(t.spans.len(), 2);
        let root = t
            .spans
            .iter()
            .find(|s| s.parent_span_id.is_none())
            .expect("root");
        let child = t
            .spans
            .iter()
            .find(|s| s.parent_span_id.is_some())
            .expect("child");
        assert_eq!(child.parent_span_id, Some(root.span_id));
        assert_eq!(child.stage, "lookup");
        assert_eq!(child.annotation.as_deref(), Some("outcome=miss"));
        assert_eq!(child.duration_nanos(), 90);
    }

    #[test]
    fn a_finished_stage_is_in_the_store_before_its_request_ends() {
        let (tracer, _clock) = manual_tracer();
        let root = tracer.root_span("request", "/portal");
        child_span("cache-lookup", "lookup")
            .expect("trace active")
            .finish();
        let traces = tracer.store().recent();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].spans.len(), 1);
        assert_eq!(traces[0].spans[0].stage, "lookup");
        root.finish();
        assert_eq!(tracer.store().recent()[0].spans.len(), 2);
    }

    #[test]
    fn no_active_trace_means_no_child_span() {
        assert!(child_span("x", "y").is_none());
    }

    #[test]
    fn wire_continuation_parents_onto_the_remote_span() {
        let (tracer, clock) = manual_tracer();
        let root = tracer.root_span("request", "/r");
        let wire = root.context().to_traceparent();
        let remote = TraceContext::parse_traceparent(&wire).expect("parses");
        {
            let server = tracer.span_from(remote, "server", "server", "/r");
            assert_eq!(server.context().trace_id, root.context().trace_id);
            assert_eq!(
                server.context().parent_span_id,
                Some(root.context().span_id)
            );
            clock.advance_nanos(5);
        }
        root.finish();
        let traces = tracer.store().recent();
        assert_eq!(traces.len(), 1, "one finalized trace, not two");
        assert_eq!(traces[0].spans.len(), 2);
    }

    #[test]
    fn retro_child_records_carry_explicit_times() {
        let (tracer, clock) = manual_tracer();
        clock.advance_nanos(1000);
        let root = tracer.root_span("request", "/r");
        root.child_record("queue-wait", "queue", 400, 1000);
        root.finish();
        let traces = tracer.store().recent();
        let queue = traces[0]
            .spans
            .iter()
            .find(|s| s.stage == "queue")
            .expect("queue span");
        let root = traces[0]
            .spans
            .iter()
            .find(|s| s.stage == "root")
            .expect("root span");
        assert_eq!(queue.duration_nanos(), 600);
        assert_eq!(queue.parent_span_id, Some(root.span_id));
    }

    #[test]
    fn error_marks_propagate_to_the_stored_trace() {
        let (tracer, _clock) = manual_tracer();
        let mut root = tracer.root_span("request", "/err");
        root.set_error();
        root.finish();
        let traces = tracer.store().recent();
        assert!(traces[0].error);
    }

    #[test]
    fn a_server_error_under_a_clean_root_marks_the_trace() {
        let (tracer, _clock) = manual_tracer();
        let root = tracer.root_span("request", "/r");
        let mut server = tracer.span_from(root.context(), "server", "server", "/r");
        server.set_error();
        server.finish();
        root.finish();
        let traces = tracer.store().recent();
        assert_eq!(traces.len(), 1);
        assert!(traces[0].error, "the server span errored");
    }

    #[test]
    fn spans_record_through_thread_boundaries() {
        let (tracer, _clock) = manual_tracer();
        let root = tracer.root_span("request", "/multi");
        let ctx = root.context();
        std::thread::scope(|scope| {
            let tracer = tracer.clone();
            scope.spawn(move || {
                // The worker continues the context it received.
                let server = tracer.span_from(ctx, "server", "server", "/multi");
                server.finish();
            });
        });
        root.finish();
        let traces = tracer.store().recent();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].spans.len(), 2);
    }
}
