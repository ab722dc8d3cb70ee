//! Stress and property tests for the sharded intrusive-LRU store:
//! eviction order against a reference model, per-shard capacity
//! boundaries, multi-threaded accounting drift, hits racing inserts of
//! one key, and two callers evicting each other's decoded responses from
//! one byte-budgeted cache.
//!
//! The build environment is offline (no `proptest`), so these use a
//! hand-rolled deterministic xorshift generator with fixed seeds, like
//! `proptests.rs`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use wsrc_cache::repr::{StoredResponse, ValueRepresentation};
use wsrc_cache::store::{CacheStore, Capacity, Lookup};
use wsrc_cache::{CacheEntry, CacheKey, CachePolicy, OperationPolicy, ResponseCache, ResponseData};
use wsrc_model::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor, TypeRegistry};
use wsrc_model::value::{StructValue, Value};
use wsrc_soap::deserializer::read_response_bytes_recording;
use wsrc_soap::rpc::RpcRequest;
use wsrc_soap::serializer::serialize_response;
use wsrc_xml::event::SaxEventSequence;

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn key(n: usize) -> CacheKey {
    CacheKey::Text(format!("key-{n}"))
}

fn value(size: usize) -> CacheEntry {
    CacheEntry::single(StoredResponse::XmlMessage(Arc::from(
        "x".repeat(size).into_bytes(),
    )))
}

const FAR_FUTURE: u64 = u64::MAX;

/// A straightforward reference LRU: most-recent key at the back.
struct ModelLru {
    order: Vec<usize>,
    cap: usize,
}

impl ModelLru {
    fn new(cap: usize) -> Self {
        ModelLru {
            order: Vec::new(),
            cap,
        }
    }

    fn touch(&mut self, k: usize) -> bool {
        match self.order.iter().position(|&x| x == k) {
            Some(pos) => {
                self.order.remove(pos);
                self.order.push(k);
                true
            }
            None => false,
        }
    }

    /// Returns the evicted key, if inserting `k` displaced one.
    fn put(&mut self, k: usize) -> Option<usize> {
        if self.touch(k) {
            return None;
        }
        self.order.push(k);
        if self.order.len() > self.cap {
            Some(self.order.remove(0))
        } else {
            None
        }
    }
}

/// Under interleaved gets and puts (no expiry in play), the store's
/// eviction order must equal the classic LRU access order, eviction by
/// eviction.
#[test]
fn lru_eviction_order_matches_reference_model() {
    for seed in 1..=8u64 {
        let mut rng = Rng::new(seed);
        let cap = 2 + rng.below(14);
        let store = CacheStore::with_shards(
            Capacity {
                max_entries: cap,
                max_bytes: usize::MAX,
            },
            1,
        );
        let mut model = ModelLru::new(cap);
        let keyspace = cap * 3;
        for step in 0..2000 {
            let k = rng.below(keyspace);
            if rng.below(3) == 0 {
                // Lookup: both sides must agree on presence, and a hit
                // promotes on both sides.
                let hit = matches!(store.get(&key(k), 0), Lookup::Live(_));
                assert_eq!(
                    hit,
                    model.touch(k),
                    "seed {seed} step {step}: presence of key {k} diverged"
                );
            } else {
                let summary = store.put(key(k), value(8), FAR_FUTURE, 0);
                match model.put(k) {
                    Some(victim) => {
                        assert_eq!(
                            summary.total(),
                            1,
                            "seed {seed} step {step}: model evicted {victim}, store evicted \
                             {summary:?}"
                        );
                        assert!(
                            matches!(store.get(&key(victim), 0), Lookup::Absent),
                            "seed {seed} step {step}: store kept key {victim}, the model's victim"
                        );
                    }
                    None => assert_eq!(
                        summary.total(),
                        0,
                        "seed {seed} step {step}: store evicted without model displacement"
                    ),
                }
            }
        }
        assert_eq!(store.len(), model.order.len(), "seed {seed}: final sizes");
        for &k in &model.order {
            assert!(
                matches!(store.get(&key(k), 0), Lookup::Live(_)),
                "seed {seed}: model key {k} missing from store"
            );
        }
        store.audit().expect("accounting after property run");
    }
}

/// Entry budgets hold exactly at the boundary: a shard accepts up to its
/// slice of `max_entries` and displaces beyond it.
#[test]
fn per_shard_entry_budget_boundary() {
    let store = CacheStore::with_shards(
        Capacity {
            max_entries: 8,
            max_bytes: usize::MAX,
        },
        4,
    );
    assert_eq!(store.shard_budget().max_entries, 2);
    for i in 0..100 {
        store.put(key(i), value(8), FAR_FUTURE, 0);
    }
    // Whatever the key distribution, no shard exceeds 2, so the global
    // cap is a hard invariant.
    assert!(store.len() <= 8, "len={}", store.len());
    assert!(store.len() >= 4, "every shard should hold something");
    store.audit().expect("accounting at the entry boundary");
}

/// Byte budgets hold exactly at the boundary: an entry of exactly the
/// shard budget is accepted, one byte more is refused outright.
#[test]
fn per_shard_byte_budget_boundary() {
    // Learn the exact accounted size of one entry from an uncapped store.
    let probe = CacheStore::with_shards(Capacity::default(), 1);
    probe.put(key(0), value(100), FAR_FUTURE, 0);
    let exact = probe.bytes();

    let fits = CacheStore::with_shards(
        Capacity {
            max_entries: usize::MAX,
            max_bytes: exact,
        },
        1,
    );
    fits.put(key(0), value(100), FAR_FUTURE, 0);
    assert_eq!(fits.len(), 1, "entry of exactly the budget is accepted");

    let refuses = CacheStore::with_shards(
        Capacity {
            max_entries: usize::MAX,
            max_bytes: exact - 1,
        },
        1,
    );
    refuses.put(key(0), value(100), FAR_FUTURE, 0);
    assert_eq!(
        refuses.len(),
        0,
        "entry one byte over the budget is refused"
    );

    // At exactly two budgets, a second insert keeps both; a third
    // displaces the least recent.
    let two = CacheStore::with_shards(
        Capacity {
            max_entries: usize::MAX,
            max_bytes: exact * 2,
        },
        1,
    );
    two.put(key(0), value(100), FAR_FUTURE, 0);
    two.put(key(1), value(100), FAR_FUTURE, 0);
    assert_eq!(two.len(), 2);
    let summary = two.put(key(2), value(100), FAR_FUTURE, 0);
    assert_eq!(summary.live, 1);
    assert_eq!(two.len(), 2);
    assert!(matches!(two.get(&key(0), 0), Lookup::Absent));
    two.audit().expect("accounting at the byte boundary");
}

/// The ISSUE's eviction-pressure scenario: 10k unique inserts into a
/// 1k-entry store. Every insert displaces within one locked shard; the
/// eviction count reconciles exactly with the final occupancy.
#[test]
fn eviction_pressure_ten_k_inserts_into_one_k_store() {
    let store = CacheStore::new(Capacity {
        max_entries: 1000,
        max_bytes: 64 * 1024 * 1024,
    });
    let mut evicted = 0u64;
    for i in 0..10_000 {
        let summary = store.put(key(i), value(64), FAR_FUTURE, 0);
        assert_eq!(summary.expired, 0, "nothing expires in this run");
        evicted += summary.total();
    }
    assert!(store.len() <= 1000, "len={}", store.len());
    assert_eq!(
        evicted + store.len() as u64,
        10_000,
        "every insert is either resident or evicted"
    );
    store.audit().expect("accounting under eviction pressure");
}

/// Sixteen writer threads hammer overlapping keys through get/put/
/// invalidate while an auditor thread repeatedly cross-checks every
/// shard's accounting; counters must never drift.
#[test]
fn sixteen_thread_stress_accounting_never_drifts() {
    let store = Arc::new(CacheStore::new(Capacity {
        max_entries: 256,
        max_bytes: 512 * 1024,
    }));
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let auditor = {
        let store = store.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let mut audits = 0u32;
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                store.audit_shards().expect("mid-flight audit");
                audits += 1;
                std::thread::yield_now();
            }
            audits
        })
    };
    let mut workers = Vec::new();
    for t in 0..16u64 {
        let store = store.clone();
        workers.push(std::thread::spawn(move || {
            let mut rng = Rng::new(t + 1);
            for i in 0..2000usize {
                let k = rng.below(600);
                match rng.below(10) {
                    0 => {
                        store.invalidate(&key(k));
                    }
                    1..=3 => {
                        let _ = store.get(&key(k), i as u64);
                    }
                    _ => {
                        let size = 16 + rng.below(240);
                        let ttl = 1 + rng.below(5000) as u64;
                        store.put(key(k), value(size), i as u64 + ttl, i as u64);
                    }
                }
            }
        }));
    }
    for w in workers {
        w.join().expect("worker");
    }
    done.store(true, std::sync::atomic::Ordering::SeqCst);
    let audits = auditor.join().expect("auditor");
    assert!(audits > 0, "auditor must have run at least once");
    store.audit().expect("final audit");
    let (entries, bytes) = store.occupancy();
    assert!(entries <= 256, "entries={entries}");
    assert!(bytes <= 512 * 1024, "bytes={bytes}");
}

/// While one thread alternates two different responses under one key,
/// every concurrent hit equals one of the two, and from the moment an
/// insert returns every hit equals the response it stored — checked by
/// the writer after each insert and by everyone after the last. Once per
/// form the cache stores in production, forced by policy.
#[test]
fn hits_racing_inserts_never_see_a_superseded_response() {
    const URL: &str = "http://backend.test/soap";
    let registry = search_registry();
    let expected = FieldType::Struct("Result".into());
    let request = RpcRequest::new("urn:search", "search").with_param("n", 7);
    let exchange = |answer| Exchange::answering(&answer, &expected, &registry);
    let (a, b) = (exchange(search_result(0, 1)), exchange(search_result(1, 2)));
    assert_ne!(a.value, b.value);
    /// Stops the readers when the writer is done, even by a failed
    /// assertion — the scope would otherwise wait on them forever.
    struct StopReaders<'a>(&'a AtomicBool);
    impl Drop for StopReaders<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    for form in [
        ValueRepresentation::XmlMessage,
        ValueRepresentation::SaxEvents,
        ValueRepresentation::Serialization,
        ValueRepresentation::PassByReference,
    ] {
        let cache = ResponseCache::builder(registry.clone())
            .policy(
                CachePolicy::new()
                    .with_default(OperationPolicy::cacheable(Duration::from_secs(3600)))
                    .with_representation(form),
            )
            .build();
        let insert = |x: &Exchange| {
            assert_eq!(cache.insert(URL, &request, x.data()), Some(form));
        };
        insert(&a);
        let writer_done = AtomicBool::new(false);
        // Readers and writer leave the barrier together, so the hits
        // overlap the inserts from the first round on.
        let start = Barrier::new(5);
        std::thread::scope(|scope| {
            let _stop = StopReaders(&writer_done);
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    while !writer_done.load(Ordering::SeqCst) {
                        let hit = cache.lookup(URL, &request, &expected).expect("hit");
                        let got = hit.as_value();
                        assert!(
                            got == &a.value || got == &b.value,
                            "{form}: hit equals neither inserted response: {got:?}"
                        );
                    }
                });
            }
            start.wait();
            for round in 0..2000 {
                let x = if round % 2 == 0 { &b } else { &a };
                insert(x);
                let hit = cache.lookup(URL, &request, &expected).expect("hit");
                assert_eq!(
                    hit.as_value(),
                    &x.value,
                    "{form}, round {round}: a superseded response was served"
                );
            }
        });
        // The last insert (round 1999) stored `a`.
        for _ in 0..20 {
            let hit = cache.lookup(URL, &request, &expected).expect("hit");
            assert_eq!(hit.as_value(), &a.value, "{form}");
        }
        let stats = cache.stats();
        assert_eq!(stats.inserts_for(form), 2001, "{form}");
        assert_eq!(stats.hits, stats.hits_for(form), "{form}");
        assert_eq!(cache.len(), 1);
        cache.audit().expect("accounting after the race");
    }
}

/// A search-result-like schema: a struct of an array of structs of
/// structs, most leaves strings.
fn search_registry() -> TypeRegistry {
    let string = |name: &str| FieldDescriptor::new(name, FieldType::String);
    TypeRegistry::builder()
        .register(TypeDescriptor::new(
            "Category",
            vec![string("name"), string("encoding")],
        ))
        .register(TypeDescriptor::new(
            "Element",
            vec![
                string("title"),
                string("url"),
                FieldDescriptor::new("rank", FieldType::Int),
                FieldDescriptor::new("category", FieldType::Struct("Category".into())),
            ],
        ))
        .register(TypeDescriptor::new(
            "Result",
            vec![
                string("query"),
                FieldDescriptor::new(
                    "elements",
                    FieldType::ArrayOf(Box::new(FieldType::Struct("Element".into()))),
                ),
                FieldDescriptor::new("seconds", FieldType::Double),
            ],
        ))
        .build()
}

/// The artifacts of the exchange in which the back end answered `value`,
/// decoded as the client does.
struct Exchange {
    xml: Arc<[u8]>,
    events: Arc<SaxEventSequence>,
    value: Value,
}

impl Exchange {
    fn answering(answer: &Value, expected: &FieldType, registry: &TypeRegistry) -> Exchange {
        let xml = serialize_response("urn:search", "search", "return", answer, registry).unwrap();
        let xml: Arc<[u8]> = Arc::from(xml.into_bytes());
        let (outcome, events) = read_response_bytes_recording(&xml, expected, registry).unwrap();
        let value = outcome.into_return().expect("not a fault");
        assert_eq!(&value, answer);
        Exchange {
            xml,
            events: Arc::new(events),
            value,
        }
    }

    fn data(&self) -> ResponseData<'_> {
        ResponseData {
            xml: &self.xml,
            events: &self.events,
            value: &self.value,
        }
    }
}

/// What the back end answers to request `n` of `caller`: distinct per
/// pair, and the same every time it is asked.
fn search_result(caller: usize, n: usize) -> Value {
    let elements: Vec<Value> = (0..6)
        .map(|rank| {
            let category = StructValue::from_fields(
                "Category",
                [
                    ("name", Value::string(format!("Top/{caller}/{}", n % 7))),
                    ("encoding", Value::string("")),
                ],
            );
            Value::Struct(StructValue::from_fields(
                "Element",
                [
                    (
                        "title",
                        Value::string(format!("result {rank} of {caller}:{n}")),
                    ),
                    (
                        "url",
                        Value::string(format!("http://{caller}.test/{n}/{rank}")),
                    ),
                    ("rank", Value::Int(rank)),
                    ("category", Value::Struct(category)),
                ],
            ))
        })
        .collect();
    Value::Struct(StructValue::from_fields(
        "Result",
        [
            ("query", Value::string(format!("q{caller}-{n}"))),
            ("elements", Value::from(elements)),
            ("seconds", Value::Double(n as f64 / 1000.0)),
        ],
    ))
}

/// Two callers miss on distinct requests, decode the responses and
/// insert the decoded trees into one cache whose byte budget holds two
/// or three entries per shard — so nearly every insert evicts, and the
/// tree it frees is as often as not one the *other* thread decoded —
/// while each also looks up what the other has inserted. Correctness
/// only: every hit is the response its key's miss decoded, the budget
/// holds throughout, the accounting reconciles. Timings are the
/// benchmark's (`portal-zipf`).
#[test]
fn two_callers_evict_each_others_decoded_responses() {
    const URL: &str = "http://backend.test/soap";
    const REQUESTS: usize = 1500;
    let registry = search_registry();
    let expected = FieldType::Struct("Result".into());
    let request = |caller: usize, n: usize| {
        RpcRequest::new("urn:search", "search")
            .with_param("caller", caller as i32)
            .with_param("n", n as i32)
    };
    /// One miss: the exchange's artifacts, decoded as the client does.
    fn miss(
        cache: &ResponseCache,
        registry: &TypeRegistry,
        expected: &FieldType,
        request: &RpcRequest,
        answer: &Value,
    ) {
        let exchange = Exchange::answering(answer, expected, registry);
        cache
            .insert(URL, request, exchange.data())
            .expect("cacheable");
    }
    let cache_of = |capacity: Capacity| {
        ResponseCache::builder(registry.clone())
            .cache_everything(Duration::from_secs(3600))
            .capacity(capacity)
            .build()
    };
    // What one entry weighs, to size a budget of 2.5 entries per shard.
    let entry_bytes = {
        let probe = cache_of(Capacity::default());
        miss(
            &probe,
            &registry,
            &expected,
            &request(0, 0),
            &search_result(0, 0),
        );
        probe.bytes()
    };
    let capacity = Capacity {
        max_entries: usize::MAX,
        max_bytes: 16 * (entry_bytes * 5 / 2),
    };
    let cache = cache_of(capacity);
    let progress = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let start = Barrier::new(2);
    let hits: Vec<usize> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..2)
            .map(|me| {
                let (cache, registry, expected) = (&cache, &registry, &expected);
                let (progress, start) = (&progress, &start);
                scope.spawn(move || {
                    let other = 1 - me;
                    let mut rng = Rng::new(me as u64 + 1);
                    let mut hits = 0;
                    start.wait();
                    for n in 0..REQUESTS {
                        miss(
                            cache,
                            registry,
                            expected,
                            &request(me, n),
                            &search_result(me, n),
                        );
                        progress[me].store(n + 1, Ordering::SeqCst);
                        assert!(cache.bytes() <= capacity.max_bytes);
                        // One of the other caller's latest, and one of
                        // our own: whatever is still there is exact.
                        for who in [other, me] {
                            let done = progress[who].load(Ordering::SeqCst);
                            if done == 0 {
                                continue;
                            }
                            let n = done - 1 - rng.below(done.min(24));
                            if let Some(hit) = cache.lookup(URL, &request(who, n), expected) {
                                assert_eq!(hit.as_value(), &search_result(who, n));
                                hits += 1;
                            }
                        }
                    }
                    hits
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|caller| caller.join().expect("a caller panicked"))
            .collect()
    });
    assert!(hits.iter().all(|&h| h > 0), "hits per caller: {hits:?}");
    let stats = cache.stats();
    assert_eq!(stats.inserts, 2 * REQUESTS as u64);
    assert!(
        stats.evictions > 2 * REQUESTS as u64 * 9 / 10,
        "nearly every insert evicts: {} of {}",
        stats.evictions,
        2 * REQUESTS
    );
    cache.audit().expect("accounting after two-caller eviction");
    assert!(cache.bytes() <= capacity.max_bytes);
    assert!(cache.len() <= 16 * 2);
}
