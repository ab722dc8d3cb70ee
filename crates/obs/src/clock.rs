//! A mockable time source so timing behaviour (TTL expiry, span
//! durations) is testable without sleeping. It lives here because the
//! observability layer sits below every other crate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Supplies the current time on some monotone axis.
pub trait Clock: Send + Sync {
    /// Nanoseconds since the clock's epoch. Must be non-decreasing: TTL
    /// expiry, span timestamps and histogram samples all read this one
    /// axis, so a step backwards would stretch an entry's life past its
    /// TTL.
    fn now_nanos(&self) -> u64;

    /// Whole milliseconds since the clock's epoch (the TTL resolution).
    fn now_millis(&self) -> u64 {
        self.now_nanos() / 1_000_000
    }

    /// Blocks the caller until `duration` has passed *on this clock*.
    ///
    /// Real clocks sleep the thread; [`ManualClock`] advances itself
    /// instead, so latency injection routed through the clock (e.g.
    /// `wsrc_http::LatencyTransport`) is instantaneous and deterministic
    /// in tests.
    fn sleep(&self, duration: std::time::Duration) {
        crate::sync::assert_unlocked("Clock::sleep");
        std::thread::sleep(duration);
    }

    /// Names the axis this clock reads: two clocks on one axis give the
    /// same reading at the same instant, so a reading of one stands for
    /// a reading of the other. Every [`MonotonicClock`] shares one
    /// process-wide axis and a [`ManualClock`] shares its with its
    /// handles; any other clock is an axis of its own.
    fn axis(&self) -> usize {
        std::ptr::from_ref(self).cast::<()>() as usize
    }
}

/// The instant every [`MonotonicClock`] counts from.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// A monotonic clock on one process-wide axis — the default for metric
/// registries, and so for everything built over one. Any two read the
/// same value at the same instant, whichever registry owns them.
#[derive(Debug, Default, Clone, Copy)]
pub struct MonotonicClock;

impl MonotonicClock {
    /// A handle to the process-wide monotonic axis.
    pub fn new() -> Self {
        MonotonicClock
    }
}

impl Clock for MonotonicClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "the one place real time enters the workspace"
    )]
    fn now_nanos(&self) -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    fn axis(&self) -> usize {
        std::ptr::from_ref(&EPOCH) as usize
    }
}

/// A hand-advanced clock for tests.
///
/// ```
/// use wsrc_obs::clock::{Clock, ManualClock};
/// let clock = ManualClock::new();
/// assert_eq!(clock.now_millis(), 0);
/// clock.advance_millis(1500);
/// assert_eq!(clock.now_millis(), 1500);
/// ```
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: Arc<AtomicU64>,
}

impl ManualClock {
    /// A clock starting at 0.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advances the clock by whole milliseconds.
    pub fn advance_millis(&self, delta: u64) {
        self.advance_nanos(delta.saturating_mul(1_000_000));
    }

    /// Advances the clock by nanoseconds (for span-timing tests).
    pub(crate) fn advance_nanos(&self, delta: u64) {
        self.nanos.fetch_add(delta, Ordering::SeqCst);
    }

    /// A second handle to the same underlying clock.
    pub fn handle(&self) -> ManualClock {
        ManualClock {
            nanos: self.nanos.clone(),
        }
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }

    /// Fake time never blocks: sleeping advances the clock (and every
    /// handle to it) without suspending the thread.
    fn sleep(&self, duration: std::time::Duration) {
        self.advance_nanos(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    fn axis(&self) -> usize {
        Arc::as_ptr(&self.nanos) as usize
    }
}

impl<C: Clock + ?Sized> Clock for Arc<C> {
    fn now_nanos(&self) -> u64 {
        (**self).now_nanos()
    }

    fn sleep(&self, duration: std::time::Duration) {
        (**self).sleep(duration);
    }

    fn axis(&self) -> usize {
        (**self).axis()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(c.now_nanos() > a);
    }

    #[test]
    fn axes_are_shared_exactly_where_readings_are() {
        let (a, b) = (MonotonicClock::new(), MonotonicClock::new());
        assert_eq!(a.axis(), b.axis(), "one process-wide epoch");
        let manual = ManualClock::new();
        let shared: Arc<dyn Clock> = Arc::new(manual.handle());
        assert_eq!(manual.axis(), shared.axis(), "handles share an axis");
        assert_ne!(manual.axis(), ManualClock::new().axis());
        assert_ne!(manual.axis(), a.axis());
    }

    #[test]
    fn manual_clock_advances_and_shares() {
        let c = ManualClock::new();
        let h = c.handle();
        c.advance_millis(10);
        h.advance_millis(5);
        assert_eq!(c.now_millis(), 15);
        assert_eq!(h.now_millis(), 15);
        c.advance_nanos(500);
        assert_eq!(c.now_nanos(), 15_000_500);
    }

    #[test]
    fn arc_clock_forwards_both_resolutions() {
        let manual = ManualClock::new();
        manual.advance_nanos(42);
        let c: Arc<dyn Clock> = Arc::new(manual);
        assert_eq!(c.now_nanos(), 42);
        assert_eq!(c.now_millis(), 0);
    }

    #[test]
    fn manual_clock_sleep_advances_without_blocking() {
        let c = ManualClock::new();
        let h = c.handle();
        c.sleep(std::time::Duration::from_millis(250));
        assert_eq!(c.now_millis(), 250);
        assert_eq!(h.now_millis(), 250, "handles share the advance");
        let arc: Arc<dyn Clock> = Arc::new(h);
        arc.sleep(std::time::Duration::from_millis(250));
        assert_eq!(c.now_millis(), 500, "Arc forwards sleep to the impl");
    }

    #[test]
    fn real_clock_sleep_actually_elapses() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        c.sleep(std::time::Duration::from_millis(2));
        assert!(c.now_nanos() - a >= 2_000_000);
    }

    #[test]
    fn millis_derive_from_the_one_required_reading() {
        struct Fixed;
        impl Clock for Fixed {
            fn now_nanos(&self) -> u64 {
                7_999_999
            }
        }
        assert_eq!(Fixed.now_millis(), 7);
    }
}
