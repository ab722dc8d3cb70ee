//! The debug-only lock witness: a thread holds at most one classed
//! lock and never blocks under it.
#![cfg(debug_assertions)]

use std::sync::{Arc, Condvar, Mutex};
use wsrc_obs::sync::{assert_unlocked, lock_class, wait_class};

const ALPHA: &str = "witness.alpha";
const BETA: &str = "witness.beta";

/// Runs `f` on its own thread and returns its panic message.
fn panic_of(f: impl FnOnce() + Send + 'static) -> String {
    let err = std::thread::spawn(f)
        .join()
        .expect_err("the witness must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn a_second_class_under_a_held_one_panics_naming_both() {
    let msg = panic_of(|| {
        let (alpha, beta) = (Mutex::new(0u64), Mutex::new(0u64));
        let _ga = lock_class(ALPHA, &alpha);
        let _gb = lock_class(BETA, &beta);
    });
    assert!(msg.contains("lock witness"), "{msg}");
    assert!(
        msg.contains(&format!("acquiring `{BETA}` while holding `{ALPHA}`")),
        "{msg}"
    );
}

#[test]
fn back_to_back_acquisitions_pass() {
    let (alpha, beta) = (Mutex::new(0u64), Mutex::new(0u64));
    for _ in 0..100 {
        *lock_class(ALPHA, &alpha) += 1;
        *lock_class(BETA, &beta) += 1;
        // Either order: with one lock at a time there is no order.
        *lock_class(ALPHA, &alpha) += 1;
    }
    assert_eq!(*lock_class(ALPHA, &alpha), 200);
    assert_eq!(*lock_class(BETA, &beta), 100);
}

#[test]
fn the_class_stays_held_across_a_wait() {
    // 0: start, 1: the waiter is parked (it set this under the lock and
    // only `wait_class` released it), 2: woken.
    let pair = Arc::new((Mutex::new(0u8), Condvar::new()));
    let waker = {
        let pair = Arc::clone(&pair);
        std::thread::spawn(move || loop {
            let (state, cv) = &*pair;
            let mut state = lock_class(ALPHA, state);
            if *state == 1 {
                *state = 2;
                cv.notify_all();
                return;
            }
            drop(state);
            std::thread::yield_now();
        })
    };
    let msg = panic_of(move || {
        let (state, cv) = &*pair;
        let mut state = lock_class(ALPHA, state);
        *state = 1;
        while *state != 2 {
            state = wait_class(cv, state);
        }
        let beta = Mutex::new(0u64);
        let _gb = lock_class(BETA, &beta); // nested after wake-up
    });
    waker.join().expect("the waker holds one lock at a time");
    assert!(
        msg.contains(&format!("acquiring `{BETA}` while holding `{ALPHA}`")),
        "{msg}"
    );
}

#[test]
fn assert_unlocked_panics_under_a_guard_and_is_silent_without_one() {
    assert_unlocked("a blocking call");
    let msg = panic_of(|| {
        let alpha = Mutex::new(0u64);
        let _ga = lock_class(ALPHA, &alpha);
        assert_unlocked("a blocking call");
    });
    assert!(
        msg.contains(&format!("a blocking call while holding `{ALPHA}`")),
        "{msg}"
    );
    // The guard died with its thread; this one holds nothing.
    assert_unlocked("a blocking call");
}
