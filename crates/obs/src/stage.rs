//! [`Stage`] — the one way to time a pipeline stage: a registered
//! histogram plus, for a stage that appears in traces, a static span
//! name and stage tag. One clock reading at entry and one at exit make
//! one sample and, under an active trace on the same clock axis, the
//! span. A stage that starts or ends where another does is handed that
//! reading instead of taking its own.

use crate::clock::Clock;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::trace::ActiveSpan;
use std::sync::Arc;

/// A timed stage: a histogram in one registry, timed on that registry's
/// clock, optionally traced as a child span.
#[derive(Clone)]
pub struct Stage {
    histogram: Histogram,
    clock: Arc<dyn Clock>,
    axis: usize,
    /// Span name and stage tag, for stages that appear in traces.
    span: Option<(&'static str, &'static str)>,
}

impl Stage {
    /// Registers (or finds) the histogram `name{labels}` in `registry`,
    /// timed on the registry's clock.
    pub fn new(registry: &MetricsRegistry, name: &str, labels: &[(&str, &str)]) -> Stage {
        let clock = registry.clock().clone();
        Stage {
            histogram: registry.histogram(name, labels),
            axis: clock.axis(),
            clock,
            span: None,
        }
    }

    /// The same stage, emitted as a child span `span` tagged `stage`
    /// while a trace is active on the timing thread.
    pub fn traced(self, span: &'static str, stage: &'static str) -> Stage {
        Stage {
            span: Some((span, stage)),
            ..self
        }
    }

    /// Starts timing at `at`, a reading of this stage's clock the stage
    /// before it already took, or (`None`) at a reading of its own.
    pub fn start(&self, at: Option<u64>) -> Timing<'_> {
        let started = at.unwrap_or_else(|| self.clock.now_nanos());
        Timing {
            stage: self,
            started,
            span: self.span.and_then(|(name, stage)| {
                crate::trace::child_span_at(name, stage, Some((self.axis, started)))
            }),
        }
    }
}

/// One timing of a [`Stage`]. Ending it records the sample and finishes
/// the span; dropped without ending (an abandoned attempt, a panic), it
/// records no sample and its span ends on the tracer's clock.
#[must_use = "a timing records nothing until it is ended"]
pub struct Timing<'a> {
    stage: &'a Stage,
    started: u64,
    span: Option<ActiveSpan>,
}

impl Timing<'_> {
    /// The start reading — also the "now" of work inside the stage (a
    /// TTL, a deadline) that needs no reading of its own.
    pub fn started(&self) -> u64 {
        self.started
    }

    /// Annotates the span, if the stage is being traced.
    pub fn annotate(&mut self, text: &'static str) {
        if let Some(span) = &mut self.span {
            span.annotate(text);
        }
    }

    /// Marks the span failed, if the stage is being traced.
    pub fn set_error(&mut self) {
        if let Some(span) = &mut self.span {
            span.set_error();
        }
    }

    /// Ends the timing at `at`, a reading a nested stage ending with
    /// this one already took, or (`None`) at a reading of its own.
    /// Returns the end reading, where a following stage starts.
    pub fn end(self, at: Option<u64>) -> u64 {
        let ended = at.unwrap_or_else(|| self.stage.clock.now_nanos());
        let stage = self.stage;
        stage
            .histogram
            .record_nanos(ended.saturating_sub(self.started));
        if let Some(span) = self.span {
            span.finish_at((stage.axis, ended));
        }
        ended
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    /// A chained stage takes its predecessor's end as its start, and a
    /// traced one emits its span from the readings its sample is made of.
    #[test]
    fn chained_and_traced_stages_share_their_readings() {
        let clock = ManualClock::new();
        let r = MetricsRegistry::with_clock(clock.handle());
        let first = Stage::new(&r, "op_seconds", &[("stage", "a")]);
        let second = Stage::new(&r, "op_seconds", &[("stage", "b")]).traced("op", "lookup");
        let root = r.tracer().root_span("request", "/r");
        let timing = first.start(None);
        clock.advance_nanos(300);
        let mut timing = second.start(Some(timing.end(None)));
        clock.advance_nanos(40);
        timing.annotate("outcome=hit");
        timing.end(None);
        root.finish();
        let sum = |stage| {
            r.snapshot()
                .histogram("op_seconds", &[("stage", stage)])
                .unwrap()
                .sum_nanos
        };
        assert_eq!((sum("a"), sum("b")), (300, 40));
        let traces = r.tracer().store().recent();
        let span = traces[0]
            .spans
            .iter()
            .find(|s| s.stage == "lookup")
            .unwrap();
        assert_eq!((span.start_nanos, span.end_nanos), (300, 340));
        assert_eq!(span.annotation.as_deref(), Some("outcome=hit"));
        drop(first.start(None));
        assert_eq!(sum("a"), 300, "an abandoned timing records nothing");
    }
}
