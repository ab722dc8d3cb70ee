//! Miss coalescing (single-flight): when several threads miss on the same
//! cache key simultaneously, only one performs the exchange; the others
//! wait and re-read the cache.
//!
//! The paper observes (§3.2) that response caching absorbs floods of
//! identical requests; coalescing closes the remaining gap where a burst
//! arrives *before* the first response lands, which would otherwise fan
//! out as duplicate back-end calls.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use wsrc_cache::CacheKey;
use wsrc_obs::{sync, Counter};

/// `wsrc_client_coalesce_total{role=…}` — how often a miss led the
/// exchange vs. piggybacked on another thread's in-flight fetch.
fn role_counter(role: &'static str) -> &'static Counter {
    static LEADER: OnceLock<Counter> = OnceLock::new();
    static FOLLOWER: OnceLock<Counter> = OnceLock::new();
    let cell = match role {
        "leader" => &LEADER,
        _ => &FOLLOWER,
    };
    cell.get_or_init(|| wsrc_obs::global().counter("wsrc_client_coalesce_total", &[("role", role)]))
}

/// One in-progress fetch that followers can wait on.
#[derive(Debug, Default)]
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
    /// The leader's active trace span id (0 when the leader was not
    /// tracing). Followers reference it from their coalesce-wait span so
    /// a trace reader can jump to the exchange that actually ran.
    leader_span: AtomicU64,
}

impl Flight {
    fn wait(&self) {
        let mut done = sync::lock_class("Flight.done", &self.done);
        while !*done {
            done = sync::wait_class(&self.cv, done);
        }
    }

    fn complete(&self) {
        *sync::lock_class("Flight.done", &self.done) = true;
        self.cv.notify_all();
    }
}

/// The per-client table of in-flight fetches.
#[derive(Debug, Default)]
pub struct InflightTable {
    flights: Mutex<HashMap<CacheKey, Arc<Flight>>>,
}

/// What [`InflightTable::join`] decided for this thread.
#[derive(Debug)]
pub enum Role {
    /// This thread fetches; it MUST call [`LeaderGuard::complete`] (or
    /// drop the guard) when done, success or failure.
    Leader(LeaderGuard),
    /// Another thread is already fetching the same key; [`Role::Follower`]
    /// has already waited for it — re-read the cache.
    Follower,
}

/// Completion guard held by the fetching thread. Dropping it (even on
/// panic or error paths) releases all waiting followers.
#[derive(Debug)]
pub struct LeaderGuard {
    table: Arc<InflightTable>,
    key: CacheKey,
    flight: Arc<Flight>,
}

impl LeaderGuard {
    /// Explicitly releases followers (same as dropping the guard).
    pub fn complete(self) {}
}

impl Drop for LeaderGuard {
    fn drop(&mut self) {
        sync::lock_class("InflightTable.flights", &self.table.flights).remove(&self.key);
        self.flight.complete();
    }
}

impl InflightTable {
    /// A fresh table.
    pub fn new() -> Arc<Self> {
        Arc::new(InflightTable::default())
    }

    /// Joins the flight for `key`: the first caller becomes the leader,
    /// later callers block until the leader finishes and then return as
    /// followers.
    pub fn join(self: &Arc<Self>, key: CacheKey) -> Role {
        let joined = {
            let mut flights = sync::lock_class("InflightTable.flights", &self.flights);
            match flights.get(&key) {
                Some(existing) => Err(existing.clone()),
                None => {
                    let flight = Arc::new(Flight::default());
                    if let Some(ctx) = wsrc_obs::trace::current_context() {
                        flight.leader_span.store(ctx.span_id, Ordering::SeqCst);
                    }
                    flights.insert(key.clone(), flight.clone());
                    // The guard exists from the moment the flight is
                    // registered: whatever panics later releases followers.
                    Ok(LeaderGuard {
                        table: self.clone(),
                        key,
                        flight,
                    })
                }
            }
        };
        let flight = match joined {
            Ok(guard) => {
                // Counted outside the table's critical section: the first
                // leader in a process resolves the counter by name through
                // the global registry's lock.
                role_counter("leader").inc();
                return Role::Leader(guard);
            }
            Err(existing) => existing,
        };
        // A tracing follower records its wait as a span referencing the
        // leader's exchange span, so coalesced requests stay correlatable.
        let span = wsrc_obs::trace::child_span("coalesce-wait", "coalesce");
        flight.wait();
        if let Some(mut span) = span {
            let leader = flight.leader_span.load(Ordering::SeqCst);
            if leader != 0 {
                span.annotate(format!(
                    "leader_span={}",
                    wsrc_obs::trace::format_span_id(leader)
                ));
            }
            span.finish();
        }
        role_counter("follower").inc();
        Role::Follower
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn key(n: usize) -> CacheKey {
        CacheKey::Text(format!("k{n}"))
    }

    #[test]
    fn single_thread_is_always_leader() {
        let table = InflightTable::new();
        match table.join(key(1)) {
            Role::Leader(guard) => guard.complete(),
            Role::Follower => panic!("expected leader"),
        }
        // Key released: leader again.
        assert!(matches!(table.join(key(1)), Role::Leader(_)));
    }

    #[test]
    fn concurrent_joins_elect_one_leader() {
        let table = InflightTable::new();
        let leaders = Arc::new(AtomicUsize::new(0));
        let followers = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let table = table.clone();
                let leaders = leaders.clone();
                let followers = followers.clone();
                scope.spawn(move || match table.join(key(7)) {
                    Role::Leader(guard) => {
                        leaders.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(30));
                        guard.complete();
                    }
                    Role::Follower => {
                        followers.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        // Rounds of 8 threads: at least one leader; every thread finished.
        let l = leaders.load(Ordering::SeqCst);
        let f = followers.load(Ordering::SeqCst);
        assert!(l >= 1);
        assert_eq!(l + f, 8);
        // With a 30ms hold, most threads should have been followers.
        assert!(f >= 5, "expected most joins to follow, got {f}");
    }

    #[test]
    fn different_keys_do_not_interfere() {
        let table = InflightTable::new();
        let g1 = match table.join(key(1)) {
            Role::Leader(g) => g,
            Role::Follower => panic!(),
        };
        // A different key is an independent flight.
        assert!(matches!(table.join(key(2)), Role::Leader(_)));
        g1.complete();
    }

    #[test]
    fn guard_drop_releases_followers_on_error_paths() {
        let table = InflightTable::new();
        let t2 = table.clone();
        let follower = std::thread::spawn(move || {
            // Give the leader time to acquire.
            std::thread::sleep(Duration::from_millis(20));
            matches!(t2.join(key(3)), Role::Follower)
        });
        {
            let _guard = match table.join(key(3)) {
                Role::Leader(g) => g,
                Role::Follower => panic!(),
            };
            std::thread::sleep(Duration::from_millis(60));
            // guard dropped here without explicit complete()
        }
        assert!(
            follower.join().unwrap(),
            "follower should have been released"
        );
    }
}
