//! The paper's measurement protocol (§5.1): run 10,000 warmup iterations
//! first "so that the compilation time of the JIT compiler would be
//! excluded", then measure 10,000 more. Rust has no JIT, but the warmup
//! still settles caches, allocator arenas and branch predictors.

use std::time::Duration;
use wsrc_obs::{Clock, MonotonicClock};

/// Iteration counts for a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Protocol {
    /// Unmeasured warmup iterations.
    pub warmup: usize,
    /// Measured iterations.
    pub measured: usize,
}

impl Protocol {
    /// The paper's 10,000 + 10,000.
    pub fn paper() -> Self {
        Protocol {
            warmup: 10_000,
            measured: 10_000,
        }
    }

    /// A fast protocol for smoke runs (`reproduce --quick`).
    pub fn quick() -> Self {
        Protocol {
            warmup: 500,
            measured: 1_000,
        }
    }
}

/// Measures the mean time of `f` under the protocol.
///
/// `f`'s return value is passed through `std::hint::black_box` so the
/// optimizer cannot delete the work.
pub fn measure<T>(protocol: Protocol, mut f: impl FnMut() -> T) -> Duration {
    for _ in 0..protocol.warmup {
        std::hint::black_box(f());
    }
    let clock = MonotonicClock::new();
    let start = clock.now_nanos();
    for _ in 0..protocol.measured {
        std::hint::black_box(f());
    }
    let elapsed = Duration::from_nanos(clock.now_nanos().saturating_sub(start));
    elapsed / protocol.measured.max(1) as u32
}

/// Formats a per-operation duration the way the paper's tables do
/// (milliseconds with enough precision for sub-microsecond values).
pub fn fmt_msec(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms >= 0.1 {
        format!("{ms:.3}")
    } else {
        format!("{ms:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_a_plausible_mean() {
        let d = measure(
            Protocol {
                warmup: 10,
                measured: 100,
            },
            || std::hint::black_box((0..100).sum::<u64>()),
        );
        assert!(d < Duration::from_millis(1));
    }

    #[test]
    fn measure_scales_with_work() {
        let p = Protocol {
            warmup: 5,
            measured: 50,
        };
        let small = measure(p, || (0..100).map(std::hint::black_box).sum::<u64>());
        let large = measure(p, || (0..100_000).map(std::hint::black_box).sum::<u64>());
        assert!(large > small * 10, "large {large:?} vs small {small:?}");
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_msec(Duration::from_millis(3)), "3.000");
        assert_eq!(fmt_msec(Duration::from_nanos(1500)), "0.001500");
    }
}
