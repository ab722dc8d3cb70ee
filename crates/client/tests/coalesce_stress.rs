//! Stress test for the single-flight leader/follower protocol.
//!
//! Regression coverage for the PR 1 race: the leader must store the
//! fetched response into the cache *before* completing its guard —
//! otherwise a released follower can re-read the cache, still miss, and
//! issue a duplicate back-end exchange. Under N concurrent identical
//! calls there must be exactly one exchange per round, and every
//! follower must observe the value the leader cached.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use wsrc_cache::CacheKey;
use wsrc_client::{InflightTable, Role};
use wsrc_obs::sync;

const THREADS: usize = 16;
const ROUNDS: usize = 30;

/// A stand-in result cache: the coalescing contract is between the
/// inflight table and *any* store the leader fills before releasing.
type ResultCache = Mutex<HashMap<CacheKey, String>>;

#[test]
fn one_exchange_per_round_and_cache_before_release() {
    let table = InflightTable::new();
    let cache: Arc<ResultCache> = Arc::new(Mutex::new(HashMap::new()));
    let exchanges = Arc::new(AtomicUsize::new(0));

    for round in 0..ROUNDS {
        let key = CacheKey::Text(format!("round-{round}"));
        let round_exchanges = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(THREADS));

        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let table = table.clone();
                let cache = Arc::clone(&cache);
                let exchanges = Arc::clone(&exchanges);
                let round_exchanges = Arc::clone(&round_exchanges);
                let barrier = Arc::clone(&barrier);
                let key = key.clone();
                scope.spawn(move || {
                    barrier.wait();
                    // Fast path: cache hit needs no coalescing.
                    if sync::lock(&cache).contains_key(&key) {
                        return;
                    }
                    match table.join(key.clone()) {
                        Role::Leader(guard) => {
                            // A thread that missed before the round's
                            // leader inserted and joined after it released
                            // wins a fresh flight: re-read before
                            // exchanging, as `ServiceClient::invoke` does.
                            if sync::lock(&cache).contains_key(&key) {
                                return;
                            }
                            // The "exchange": exactly one per round.
                            exchanges.fetch_add(1, Ordering::SeqCst);
                            round_exchanges.fetch_add(1, Ordering::SeqCst);
                            let value = format!("value-{round}");
                            // Store BEFORE completing the guard — the
                            // ordering under test.
                            sync::lock(&cache).insert(key.clone(), value);
                            guard.complete();
                        }
                        Role::Follower => {
                            // join() only returns after the leader
                            // completed, and the leader cached first: a
                            // follower must never miss.
                            assert!(
                                sync::lock(&cache).contains_key(&key),
                                "follower released before the leader cached (round {round})"
                            );
                        }
                    }
                });
            }
        });

        assert_eq!(
            round_exchanges.load(Ordering::SeqCst),
            1,
            "round {round}: exactly one leader exchange expected"
        );
        assert_eq!(
            sync::lock(&cache).get(&key).map(String::as_str),
            Some(format!("value-{round}").as_str())
        );
    }

    assert_eq!(
        exchanges.load(Ordering::SeqCst),
        ROUNDS,
        "one exchange per round across the whole run"
    );
}
