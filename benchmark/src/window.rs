//! The measured window: closed-loop callers, five segments, per-op
//! latency, and process CPU and context switches per segment.
//!
//! A window is cut into [`SEGMENTS`] segments of equal op count (or, when
//! bounded by time, equal duration) and each is measured on its own; the
//! median segment is reported. Between timed batches a caller stages its
//! next requests and checks a reply; that time is in no reported wall
//! interval, and is taken out of the segment's CPU time.

use crate::stats::LatencyHist;
use crate::sys::{self, CpuTime};
use crate::workloads::{Caller, BATCH};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const SEGMENTS: usize = 5;

/// How long a window runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// This many ops, split evenly over callers and segments.
    Ops(u64),
    /// This long, split evenly over segments; every caller runs until
    /// the segment's deadline.
    Time(Duration),
}

/// What one caller did in one segment.
#[derive(Clone, Copy, Default)]
struct CallerSegment {
    ops: u64,
    failed: u64,
    mismatched: u64,
    timed: Duration,
    /// Staging and checking between the timed batches.
    untimed: Duration,
}

/// One segment of the window, all callers together.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segment {
    pub ops: u64,
    /// Sum over callers of ops ÷ that caller's timed seconds.
    pub ops_per_s: f64,
    /// Process CPU time from barrier to barrier.
    pub cpu: CpuTime,
    /// What the callers spent staging and checking between their timed
    /// batches, in microseconds of wall time. A caller is on a CPU for
    /// all of it bar a rare preemption, so this is the load generator's
    /// part of `cpu`.
    pub untimed_us: u64,
    pub ctx_switches: u64,
}

impl Segment {
    /// CPU time of the program under test: the process's, less the
    /// callers' staging and checking.
    pub fn cpu_us(&self) -> u64 {
        self.cpu.total_us().saturating_sub(self.untimed_us)
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_us() as f64 / self.ops.max(1) as f64
    }
}

pub struct Window {
    pub segments: Vec<Segment>,
    pub latency: LatencyHist,
    pub attempted: u64,
    /// Ops that returned an error or a status other than 200.
    pub failed: u64,
    /// Spot-checked replies that differed from the truth.
    pub mismatched: u64,
    pub peak_rss_mib: f64,
}

impl Window {
    pub fn ops_per_s(&self) -> Vec<f64> {
        self.segments.iter().map(|s| s.ops_per_s).collect()
    }

    pub fn cpu_us_per_op(&self) -> Vec<f64> {
        self.segments.iter().map(Segment::cpu_us_per_op).collect()
    }

    pub fn cpu(&self) -> CpuTime {
        self.segments
            .iter()
            .fold(CpuTime::default(), |a, s| CpuTime {
                user_us: a.user_us + s.cpu.user_us,
                system_us: a.system_us + s.cpu.system_us,
            })
    }

    pub fn ctx_switches(&self) -> u64 {
        self.segments.iter().map(|s| s.ctx_switches).sum()
    }
}

fn caller_loop(
    caller: &mut Caller,
    index: usize,
    callers: usize,
    budget: Budget,
    traced: bool,
    barrier: &Barrier,
) -> (Vec<CallerSegment>, LatencyHist) {
    // Allocated before the first segment: the sample store is not part
    // of what `peak_rss_mib` sees grow during the window.
    let mut latency = LatencyHist::new();
    let mut segments = vec![CallerSegment::default(); SEGMENTS];
    let mut op = (index as u64) << 40;
    for seg in &mut segments {
        barrier.wait();
        let (quota, deadline) = match budget {
            Budget::Ops(n) => ((n / (callers * SEGMENTS) as u64).max(1), None),
            Budget::Time(d) => (u64::MAX, Some(Instant::now() + d / SEGMENTS as u32)),
        };
        let mut expired = false;
        while seg.ops < quota && !expired {
            let n = (BATCH as u64).min(quota - seg.ops) as usize;
            let staging = Instant::now();
            caller.prepare(n);
            let batch_start = Instant::now();
            let mut t = batch_start;
            for i in 0..n {
                let ok = if traced {
                    op += 1;
                    caller.run_traced(i, op)
                } else {
                    caller.run(i)
                };
                let done = Instant::now();
                latency.record((done - t).as_nanos() as u64);
                t = done;
                seg.ops += 1;
                seg.failed += u64::from(!ok);
                if deadline.is_some_and(|d| t >= d) {
                    expired = true;
                    break;
                }
            }
            seg.timed += t - batch_start;
            seg.mismatched += u64::from(!caller.check_last());
            seg.untimed += (batch_start - staging) + t.elapsed();
        }
        barrier.wait();
    }
    (segments, latency)
}

/// Runs one window over `callers`, one thread each, while this thread
/// reads the process counters at the segment boundaries.
pub fn run(callers: &mut [Caller], budget: Budget, traced: bool) -> Window {
    let n = callers.len();
    let barrier = Barrier::new(n + 1);
    let mut readings = Vec::with_capacity(SEGMENTS);
    let per_caller: Vec<(Vec<CallerSegment>, LatencyHist)> = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter_mut()
            .enumerate()
            .map(|(i, caller)| {
                let barrier = &barrier;
                s.spawn(move || caller_loop(caller, i, n, budget, traced, barrier))
            })
            .collect();
        for _ in 0..SEGMENTS {
            barrier.wait();
            let (cpu0, ctx0) = (sys::cpu_time(), sys::context_switches());
            barrier.wait();
            readings.push((
                sys::cpu_time().since(cpu0),
                sys::context_switches().saturating_sub(ctx0),
            ));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a caller panicked"))
            .collect()
    });
    let peak_rss_mib = sys::peak_rss_mib();

    let mut window = Window {
        segments: Vec::with_capacity(SEGMENTS),
        latency: LatencyHist::new(),
        attempted: 0,
        failed: 0,
        mismatched: 0,
        peak_rss_mib,
    };
    for (i, (cpu, ctx_switches)) in readings.into_iter().enumerate() {
        let mut segment = Segment {
            cpu,
            ctx_switches,
            ..Segment::default()
        };
        for (segments, _) in &per_caller {
            let c = &segments[i];
            segment.ops += c.ops;
            segment.ops_per_s += c.ops as f64 / c.timed.as_secs_f64().max(1e-9);
            segment.untimed_us += c.untimed.as_micros() as u64;
            window.failed += c.failed;
            window.mismatched += c.mismatched;
        }
        window.attempted += segment.ops;
        window.segments.push(segment);
    }
    for (_, latency) in &per_caller {
        window.latency.merge(latency);
    }
    window
}
