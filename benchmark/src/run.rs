//! One workload, one process: set-up, warm-up, the measured window, the
//! correctness sweep, and the metrics of the pass that was asked for.
//!
//! The end-to-end pass (`--trace 0`) has none of the benchmark's wrappers
//! or spans in the stack. The per-layer pass (`--trace 1`) measures an
//! untraced reference window, then a traced one on the same stack, then
//! the isolated calls.

use crate::isolated::{self, Effort};
use crate::metrics::{Outcome, Values};
use crate::stack::Stack;
use crate::stats::median;
use crate::trace::{self, Layer};
use crate::window::{self, Budget, Window};
use crate::workloads::{self, Prepared, Spec, WORKLOADS};
use std::time::{Duration, Instant};
use wsrc_cache::StatsSnapshot;

/// Op count of the traced window relative to the untraced one, when
/// windows are sized by op count.
const TRACED_OPS_SHARE: f64 = 0.2;

/// How much a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    /// The workload's own op counts: window, warm-up, isolated calls.
    Full,
    /// A thousandth of them.
    Smoke,
    /// Windows bounded by time, as the driver asks: the whole pass
    /// measures for this long. Warm-up keeps its full op count.
    Seconds(f64),
}

impl Size {
    /// The factor on the workload's op counts.
    pub fn scale(self) -> f64 {
        match self {
            Size::Smoke => 0.001,
            Size::Full | Size::Seconds(_) => 1.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub size: Size,
    pub trace: bool,
}

impl Options {
    /// The budget of one window: `of_ops` of the workload's (scaled) op
    /// count, or `of_seconds` of the time the whole pass may measure.
    fn window(&self, spec: &Spec, of_ops: f64, of_seconds: f64) -> Budget {
        match self.size {
            Size::Seconds(s) => Budget::Time(Duration::from_secs_f64(s * of_seconds)),
            size => Budget::Ops(((spec.ops as f64 * size.scale() * of_ops) as u64).max(1)),
        }
    }
}

/// Ops issued and ops that failed or answered wrongly, over everything a
/// run does (warm-up, windows, sweeps).
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, (attempted, failed): (u64, u64)) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn add_window(&mut self, w: &Window) {
        self.add((w.attempted, w.failed + w.mismatched));
    }
}

fn set_up(spec: &Spec, opts: &Options, tally: &mut Tally) -> Prepared {
    let scale = opts.size.scale();
    let mut prepared = workloads::prepare(spec, opts.seed, scale, opts.trace);
    tally.add(workloads::warm_up(spec, &mut prepared, scale));
    prepared
}

/// Set-up and nothing else: what a run starts again, in processes of
/// their own, to time set-up more than once. Returns the seconds from
/// `process_start` to where the first measured op would begin, and
/// whether every warm-up op succeeded.
pub fn set_up_only(spec: &Spec, opts: &Options, process_start: Instant) -> (f64, bool) {
    let mut tally = Tally::default();
    let prepared = set_up(spec, opts, &mut tally);
    let seconds = process_start.elapsed().as_secs_f64();
    drop(prepared);
    (seconds, tally.failed == 0)
}

fn us(nanos: f64) -> f64 {
    nanos / 1000.0
}

/// Runs `spec` as `opts` asks and prints each metric as it is known.
/// `process_start` is when `main` began: the first set-up is timed from
/// there.
pub fn run(spec: &Spec, opts: &Options, process_start: Instant) -> Outcome {
    let mut tally = Tally::default();
    let values = if opts.trace {
        per_layer(spec, opts, &mut tally)
    } else {
        end_to_end(spec, opts, process_start, &mut tally)
    };
    Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        values,
    }
}

fn end_to_end(spec: &Spec, opts: &Options, process_start: Instant, tally: &mut Tally) -> Values {
    let mut prepared = set_up(spec, opts, tally);
    let setup_s = process_start.elapsed().as_secs_f64();

    let w = window::run(&mut prepared.callers, opts.window(spec, 1.0, 1.0), false);
    tally.add_window(&w);
    tally.add(prepared.callers[0].sweep_hot());

    // Not gated (see README, *Unresolved*), so not in the result line;
    // the per-layer pass reports the same three as `loadgen.*`.
    let time = TimeMetrics::of(&w);
    println!(
        "{}: {} ops in {} segments, {} latency samples, {} failed, {} mismatched",
        spec.name,
        w.attempted,
        w.segments.len(),
        w.latency.count(),
        w.failed,
        w.mismatched
    );
    println!("  segment throughput: {:.0?} ops/s", w.ops_per_s());
    println!("  segment cpu: {:.2?} us/op", w.cpu_us_per_op());
    println!(
        "  window: {:.0} ops/s, p50 {:.2} us, {:.2} cpu-us/op (median segment; p50 of all samples)",
        time.throughput_ops_s, time.latency_p50_us, time.cpu_us_per_op
    );

    let mut v = Values::default();
    v.set("setup_s", setup_s);
    v.set("peak_rss_mib", w.peak_rss_mib);
    v
}

/// The three time metrics of a window as the issue defines them.
struct TimeMetrics {
    /// Completed ops ÷ timed seconds, summed over callers: the median
    /// segment.
    throughput_ops_s: f64,
    /// Median per-op wall latency over all samples of the window.
    latency_p50_us: f64,
    /// Process CPU time ÷ ops: the median segment.
    cpu_us_per_op: f64,
}

impl TimeMetrics {
    fn of(w: &Window) -> TimeMetrics {
        TimeMetrics {
            throughput_ops_s: median(&mut w.ops_per_s()),
            latency_p50_us: us(w.latency.percentile_nanos(0.5)),
            cpu_us_per_op: median(&mut w.cpu_us_per_op()),
        }
    }
}

/// The counters of the program under test that the count metrics are
/// differences of.
struct Counters {
    cache: StatsSnapshot,
    backend_calls: u64,
    served: u64,
    rejected: u64,
}

impl Counters {
    fn read(stack: &Stack) -> Counters {
        Counters {
            cache: stack.cache.stats(),
            backend_calls: stack.backend.requests_served(),
            served: stack
                .portal
                .as_ref()
                .map_or(0, |p| p.server.requests_served()),
            rejected: stack.portal.as_ref().map_or(0, |p| p.rejected()),
        }
    }
}

fn per_layer(spec: &Spec, opts: &Options, tally: &mut Tally) -> Values {
    // The isolated calls do not depend on the workload: the first
    // workload measures them in full, the others (whose result must name
    // every per-layer metric all the same) with a tenth of the effort.
    let isolated_effort = if spec.name == WORKLOADS[0].name {
        1.0
    } else {
        0.1
    };
    let isolated_share = 0.4 * isolated_effort;
    let window_share = (1.0 - isolated_share) / 2.0;
    let mut prepared = set_up(spec, opts, tally);
    let mut v = Values::default();

    // Counts, from an untraced window on the stack the spans will use.
    let before = Counters::read(&prepared.stack);
    let reference = window::run(
        &mut prepared.callers,
        opts.window(spec, 1.0, window_share),
        false,
    );
    let after = Counters::read(&prepared.stack);
    tally.add_window(&reference);
    count_metrics(&mut v, &prepared.stack, &before, &after, &reference);

    // Self times, from a traced window.
    let traced_budget = opts.window(spec, TRACED_OPS_SHARE, window_share);
    trace::drain();
    trace::set_enabled(true);
    let traced = window::run(&mut prepared.callers, traced_budget, true);
    trace::set_enabled(false);
    let spans = trace::drain();
    tally.add_window(&traced);
    tally.add(prepared.callers[0].sweep_hot());
    ledger_metrics(&mut v, spec, &spans, &reference, &traced);
    drop(prepared);

    let effort = match opts.size {
        Size::Seconds(s) => Effort {
            calls: isolated::FULL_CALLS,
            cap: Some(Duration::from_secs_f64(
                s * isolated_share / isolated_metric_count() as f64,
            )),
        },
        size => Effort {
            calls: ((isolated::FULL_CALLS as f64 * size.scale() * isolated_effort) as usize).max(1),
            cap: None,
        },
    };
    v.extend(isolated::run_all(effort));
    v
}

/// Isolated metrics that take time to measure (sizes are read).
fn isolated_metric_count() -> usize {
    crate::metrics::isolated()
        .iter()
        .filter(|m| m.unit != "B")
        .count()
}

fn count_metrics(v: &mut Values, stack: &Stack, before: &Counters, after: &Counters, w: &Window) {
    let d = |f: fn(&StatsSnapshot) -> u64| (f(&after.cache) - f(&before.cache)) as f64;
    let (hits, misses) = (d(|s| s.hits), d(|s| s.misses));
    v.set("core.hit_ratio", hits / (hits + misses).max(1.0));
    v.set("core.hits", hits);
    v.set("core.misses", misses);
    v.set("core.inserts", d(|s| s.inserts));
    v.set("core.evictions", d(|s| s.evictions));
    v.set("core.conversions", d(|s| s.conversions));
    let (entries, bytes) = (stack.cache.len() as f64, stack.cache.bytes() as f64);
    v.set("core.entries", entries);
    v.set("core.accounted_bytes", bytes);
    v.set("core.bytes_per_entry", bytes / entries.max(1.0));
    v.set(
        "services.backend_calls",
        (after.backend_calls - before.backend_calls) as f64,
    );
    v.set(
        "http.requests_served",
        (after.served - before.served) as f64,
    );
    v.set("http.rejected", (after.rejected - before.rejected) as f64);
    let time = TimeMetrics::of(w);
    v.set("loadgen.throughput_ops_s", time.throughput_ops_s);
    v.set("loadgen.latency_p50_us", time.latency_p50_us);
    v.set("loadgen.cpu_us_per_op", time.cpu_us_per_op);
    for (name, q) in [
        ("loadgen.latency_p90_us", 0.9),
        ("loadgen.latency_p99_us", 0.99),
        ("loadgen.latency_p999_us", 0.999),
    ] {
        v.set(name, us(w.latency.percentile_nanos(q)));
    }
    v.set("loadgen.latency_max_us", us(w.latency.max_nanos() as f64));
    let cpu = w.cpu();
    v.set(
        "loadgen.cpu_sys_share",
        cpu.system_us as f64 / cpu.total_us().max(1) as f64,
    );
    v.set(
        "loadgen.ctx_switches_per_op",
        w.ctx_switches() as f64 / w.attempted.max(1) as f64,
    );
    println!(
        "  reference window: {} ops, {} latency samples, hit ratio {:.4}",
        w.attempted,
        w.latency.count(),
        hits / (hits + misses).max(1.0)
    );
}

fn ledger_metrics(
    v: &mut Values,
    spec: &Spec,
    spans: &[trace::Span],
    reference: &Window,
    traced: &Window,
) {
    let self_ns = trace::self_times(spans);
    let ops = traced.attempted.max(1) as f64;
    let mut attributed = 0.0;
    for layer in Layer::ALL {
        let per_op = us(self_ns.get(&layer).copied().unwrap_or(0) as f64) / ops;
        attributed += per_op;
        v.set(layer.metric(), per_op);
    }
    // What one op costs a caller when nobody traces it. The remainder
    // may be negative: the spans slow the traced ops down.
    let untraced_rate = TimeMetrics::of(reference).throughput_ops_s.max(1e-9);
    let traced_rate = median(&mut traced.ops_per_s());
    let untraced_us_per_op = spec.callers as f64 * 1e6 / untraced_rate;
    v.set("ledger.attributed_us_per_op", attributed);
    v.set(
        "ledger.unattributed_pct",
        100.0 * (untraced_us_per_op - attributed) / untraced_us_per_op,
    );
    v.set(
        "trace.overhead_pct",
        100.0 * (1.0 - traced_rate / untraced_rate),
    );
    println!(
        "  traced window: {} ops, {} spans; untraced op {:.2} us, attributed {:.2} us",
        traced.attempted,
        spans.len(),
        untraced_us_per_op,
        attributed
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{end_to_end as end_to_end_metrics, per_layer as per_layer_metrics};

    fn sized(name: &str, seed: u64, size: Size, trace: bool) -> Outcome {
        let _alone = trace::RECORDING_TEST
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let opts = Options { seed, size, trace };
        run(workloads::find(name).unwrap(), &opts, Instant::now())
    }

    fn small(name: &str, seed: u64, trace: bool) -> Outcome {
        sized(name, seed, Size::Smoke, trace)
    }

    fn core_counts(o: &Outcome) -> Vec<f64> {
        ["core.hits", "core.misses", "core.inserts", "core.evictions"]
            .iter()
            .map(|m| o.values.get(m).unwrap())
            .collect()
    }

    #[test]
    fn same_seed_same_core_counts_on_the_middleware_workloads() {
        for name in ["mw-hot", "mw-churn"] {
            let a = small(name, 11, true);
            let b = small(name, 11, true);
            assert!(a.correct && b.correct, "{name} failed ops");
            assert_eq!(core_counts(&a), core_counts(&b), "{name}");
        }
        let hot = core_counts(&small("mw-hot", 11, true));
        assert_eq!(hot[1], 0.0, "mw-hot misses inside the window");
        let churn = core_counts(&small("mw-churn", 11, true));
        assert_eq!(churn[0], 0.0, "mw-churn hits");
        assert_eq!(churn[1], churn[2], "every miss inserts");
    }

    #[test]
    fn every_workload_emits_every_end_to_end_metric_and_no_failure() {
        for spec in &workloads::WORKLOADS {
            let o = small(spec.name, 3, false);
            assert!(
                o.correct,
                "{}: {} of {} failed",
                spec.name, o.failed, o.attempted
            );
            for m in end_to_end_metrics() {
                let v = o.values.get(&m.name).unwrap();
                assert!(v.is_finite() && v >= 0.0, "{} {} = {v}", spec.name, m.name);
            }
        }
    }

    #[test]
    fn the_traced_pass_attributes_time_to_the_layers_a_workload_uses() {
        let hot = small("mw-hot", 5, true);
        assert!(hot.values.get("core.lookup_self_us_per_op").unwrap() > 0.0);
        assert_eq!(hot.values.get("services.self_us_per_op"), Some(0.0));
        assert_eq!(hot.values.get("http.self_us_per_op"), Some(0.0));
        let churn = small("mw-churn", 5, true);
        for m in [
            "services.self_us_per_op",
            "soap.serialize_self_us_per_op",
            "soap.deserialize_self_us_per_op",
            "core.insert_self_us_per_op",
        ] {
            assert!(churn.values.get(m).unwrap() > 0.0, "{m}");
        }
        let zipf = small("portal-zipf", 5, true);
        for m in [
            "http.self_us_per_op",
            "portal.self_us_per_op",
            "services.self_us_per_op",
        ] {
            assert!(zipf.values.get(m).unwrap() > 0.0, "{m}");
        }
        assert!(zipf.correct);
    }

    #[test]
    fn time_bounded_passes_emit_exactly_the_catalogue() {
        // The driver's path: windows end on a deadline, not an op count.
        for (trace, catalogue) in [(false, end_to_end_metrics()), (true, per_layer_metrics())] {
            let o = sized("mw-churn", 7, Size::Seconds(0.5), trace);
            assert!(o.correct, "{} of {} failed", o.failed, o.attempted);
            let listed: Vec<&str> = catalogue.iter().map(|m| m.name.as_str()).collect();
            let mut sorted = listed.clone();
            sorted.sort_unstable();
            assert_eq!(o.values.names(), sorted, "trace={trace}");
            for name in listed {
                assert!(o.values.get(name).unwrap().is_finite(), "{name}");
            }
        }
    }
}
