//! Poison-tolerant locking helpers, plus a debug-only lock witness.
//!
//! The cache hot path must be panic-free (`clippy::unwrap_used` and
//! `clippy::expect_used` are denied in `core`, `client` and `http`),
//! which rules out `.lock().unwrap()`. Poisoning only signals that
//! *another* thread panicked while holding the guard; for the cache's
//! own state — monotone maps, counters, condvar-paired flags — the data
//! is still structurally valid, so every caller in this workspace
//! prefers recovering the guard over propagating a secondary panic.
//!
//! # Lock witness
//!
//! No thread in this workspace ever holds two classed locks, and none
//! blocks while holding one — so there is no lock order to get wrong.
//! [`lock_class`] is a poison-recovering `lock()` with a *lock class*
//! label (`"Owner.field"`; five classes: `CacheStore.shards`,
//! `HttpClient.pool`, `Shared.queue`, `MetricsRegistry.slots`,
//! `TraceStore.inner`), and in debug builds it asserts exactly that:
//! each thread remembers the one class it holds, acquiring a second
//! **panics** naming both, and [`assert_unlocked`] — called where the
//! workspace blocks (HTTP message reads and writes, the server's
//! keep-alive poll and thread joins, `TcpStream::connect`,
//! `Clock::sleep`) — panics under any held class. A condvar wait
//! releases the guard it waits on, so [`wait_class`] is not a blocking
//! call in this sense. Every debug test run checks the property on
//! every path it executes; in release builds the witness is compiled
//! out, [`lock_class`] costs exactly one poison-recovering `lock()` and
//! [`assert_unlocked`] nothing.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// Acquires `mutex`, recovering the guard if a previous holder panicked.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A [`MutexGuard`] labelled with its lock class. Dereferences to the
/// protected data; tells the witness the thread holds nothing again
/// when dropped. Obtain one via [`lock_class`].
pub struct ClassGuard<'a, T> {
    // `Option` so `wait_class` can move the inner guard out while the
    // wrapper (and its witness registration) stays alive across the
    // wait; `None` only ever transiently inside this module.
    guard: Option<MutexGuard<'a, T>>,
    class: &'static str,
}

impl<T> ClassGuard<'_, T> {
    /// The lock class this guard was acquired under.
    pub fn class(&self) -> &'static str {
        self.class
    }

    fn inner(&self) -> &MutexGuard<'_, T> {
        match &self.guard {
            Some(g) => g,
            // Unreachable: the Option is only `None` mid-`wait_class`,
            // while the wrapper is exclusively borrowed there.
            None => unreachable!("ClassGuard dereferenced without its guard"),
        }
    }
}

impl<T> std::ops::Deref for ClassGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner()
    }
}

impl<T> std::ops::DerefMut for ClassGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.guard {
            Some(g) => g,
            None => unreachable!("ClassGuard dereferenced without its guard"),
        }
    }
}

impl<T> Drop for ClassGuard<'_, T> {
    fn drop(&mut self) {
        // Drop the inner guard (releasing the mutex) before telling the
        // witness.
        if self.guard.take().is_some() {
            witness::released();
        }
    }
}

/// Acquires `mutex` under its lock class, recovering the guard if a
/// previous holder panicked.
///
/// `class` names `mutex` as `"Owner.field"`. The witness check runs
/// *before* the mutex is touched, so a nested acquisition panics
/// instead of deadlocking.
pub fn lock_class<'a, T>(class: &'static str, mutex: &'a Mutex<T>) -> ClassGuard<'a, T> {
    witness::acquiring(class);
    ClassGuard {
        guard: Some(lock(mutex)),
        class,
    }
}

/// Blocks on `cv`, atomically releasing and reacquiring the guard's
/// mutex (recovered on poison). The class stays held for the
/// witness — the wait returns holding the same lock, so a nested
/// acquisition after wake-up is as wrong as one before it.
pub fn wait_class<'a, T>(cv: &Condvar, mut guard: ClassGuard<'a, T>) -> ClassGuard<'a, T> {
    if let Some(inner) = guard.guard.take() {
        guard.guard = Some(cv.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }
    guard
}

/// [`wait_class`] for at most `timeout`.
///
/// Callers deciding deadlines should re-check their own clock rather than
/// trusting the [`WaitTimeoutResult`] alone — spurious wakeups return
/// early with `timed_out() == false`.
pub fn wait_timeout_class<'a, T>(
    cv: &Condvar,
    mut guard: ClassGuard<'a, T>,
    timeout: Duration,
) -> (ClassGuard<'a, T>, WaitTimeoutResult) {
    // The Option is always `Some` here: no public API removes the inner
    // guard.
    let inner = guard.guard.take();
    match inner {
        Some(g) => {
            let (g, r) = cv
                .wait_timeout(g, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            guard.guard = Some(g);
            (guard, r)
        }
        None => unreachable!("wait_timeout_class on an empty ClassGuard"),
    }
}

/// Panics (debug builds only) if this thread holds a classed lock.
/// `what` names the blocking operation about to start; call it where a
/// thread may park on something other than the condvar of its own
/// guard.
#[inline]
pub fn assert_unlocked(what: &'static str) {
    witness::assert_unlocked(what);
}

/// Classed-lock acquisitions this thread has made so far, for tests
/// that pin how many locks a path takes — counted in debug builds next
/// to the witness; `None` in release builds, where it is compiled out.
pub fn acquisitions() -> Option<u64> {
    witness::acquisitions()
}

/// Debug-build witness: the one class this thread holds, if any, and
/// how many classed locks it has taken.
#[cfg(debug_assertions)]
mod witness {
    use std::cell::Cell;

    thread_local! {
        static HELD: Cell<Option<&'static str>> = const { Cell::new(None) };
        static ACQUIRED: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn acquiring(class: &'static str) {
        if let Some(held) = HELD.get() {
            panic!(
                "lock witness: acquiring `{class}` while holding `{held}`; no thread \
                 holds two classed locks"
            );
        }
        HELD.set(Some(class));
        ACQUIRED.set(ACQUIRED.get() + 1);
    }

    pub(super) fn acquisitions() -> Option<u64> {
        Some(ACQUIRED.get())
    }

    pub(super) fn released() {
        HELD.set(None);
    }

    pub(super) fn assert_unlocked(what: &'static str) {
        if let Some(held) = HELD.get() {
            panic!(
                "lock witness: {what} while holding `{held}`; nothing blocks under a classed lock"
            );
        }
    }
}

/// Release builds: the witness costs nothing.
#[cfg(not(debug_assertions))]
mod witness {
    pub(super) fn acquiring(_class: &'static str) {}
    pub(super) fn acquisitions() -> Option<u64> {
        None
    }
    pub(super) fn released() {}
    pub(super) fn assert_unlocked(_what: &'static str) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Condvar, Mutex};

    #[test]
    fn lock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the mutex");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7, "data survives the panic");
    }

    #[test]
    fn class_guard_locks_and_releases() {
        let m = Mutex::new(41u32);
        {
            let mut g = lock_class("tests.m", &m);
            *g += 1;
            assert_eq!(g.class(), "tests.m");
        }
        let before = acquisitions();
        drop(lock_class("tests.m", &m));
        assert_eq!(acquisitions(), before.map(|n| n + 1), "counted per thread");
        // Released: a plain lock succeeds immediately.
        assert_eq!(*lock(&m), 42);
    }

    #[test]
    fn wait_timeout_class_returns_after_deadline() {
        let pair = (Mutex::new(false), Condvar::new());
        let guard = lock_class("tests.pair", &pair.0);
        let (guard, result) =
            wait_timeout_class(&pair.1, guard, std::time::Duration::from_millis(5));
        assert!(result.timed_out());
        assert!(!*guard);
    }

    #[test]
    fn wait_class_wakes_on_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waker = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            *lock_class("tests.wake", m) = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = lock_class("tests.wake", m);
        while !*done {
            done = wait_class(cv, done);
        }
        waker.join().unwrap();
    }
}
