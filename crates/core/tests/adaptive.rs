//! Integration tests for adaptive representation selection and
//! convert-on-hit (a generation-checked replace of the stored form).
//!
//! The adaptive policy is pre-seeded with observations that dominate
//! the (tiny, real) latencies the cache records during the test, so
//! every decision below is deterministic.

use std::sync::Arc;
use std::time::Duration;
use wsrc_cache::classify::candidate_representations;
use wsrc_cache::policy::{AdaptivePolicy, CachePolicy, OperationPolicy, SelectionMode};
use wsrc_cache::repr::{StoredResponse, ValueRepresentation};
use wsrc_cache::store::{CacheStore, Lookup};
use wsrc_cache::{CacheEntry, CacheKey, ResponseCache, ResponseData};
use wsrc_model::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor, TypeRegistry};
use wsrc_model::value::{StructValue, Value};
use wsrc_obs::ManualClock;
use wsrc_soap::deserializer::read_response_xml_recording;
use wsrc_soap::rpc::RpcRequest;
use wsrc_soap::serializer::serialize_response;
use wsrc_xml::event::SaxEventSequence;

const URL: &str = "http://backend.test/soap";
const OP: &str = "getItem";

/// One seeded nanosecond figure that dwarfs any real latency the test
/// machine can record (1 second), so seeded means stay decisive.
const SLOW: u64 = 1_000_000_000;
const FAST: u64 = 10;

fn registry() -> TypeRegistry {
    TypeRegistry::builder()
        .register(TypeDescriptor::new(
            "Item",
            vec![
                FieldDescriptor::new("name", FieldType::String),
                FieldDescriptor::new("qty", FieldType::Int),
            ],
        ))
        .build()
}

struct Fixture {
    xml: Arc<[u8]>,
    events: Arc<SaxEventSequence>,
    value: Value,
    expected: FieldType,
}

fn fixture() -> Fixture {
    fixture_of(Value::Struct(
        StructValue::new("Item").with("name", "n").with("qty", 2),
    ))
}

fn fixture_of(value: Value) -> Fixture {
    let expected = FieldType::Struct("Item".into());
    let xml = serialize_response("urn:t", OP, "return", &value, &registry()).unwrap();
    let (outcome, events) = read_response_xml_recording(&xml, &expected, &registry()).unwrap();
    assert_eq!(outcome.as_return(), Some(&value));
    Fixture {
        xml: Arc::from(xml.into_bytes()),
        events: Arc::new(events),
        // As a miss leaves it: decoded, under the registry's shape.
        value: outcome.into_return().unwrap(),
        expected,
    }
}

fn request() -> RpcRequest {
    RpcRequest::new("urn:t", OP).with_param("id", 7)
}

fn data(f: &Fixture) -> ResponseData<'_> {
    ResponseData {
        xml: &f.xml,
        events: &f.events,
        value: &f.value,
    }
}

/// A cache whose entries are forced to start as `XmlMessage`, with an
/// adaptive policy seeded so that a conversion to the shared object is
/// clearly worthwhile from the very first hit.
fn convert_ready_cache() -> (ResponseCache, Arc<AdaptivePolicy>) {
    let adaptive = Arc::new(
        AdaptivePolicy::new()
            .with_size_weight(0)
            .with_convert_after_hits(1),
    );
    // Retrieval from the stored XML is "slow", the shared object is
    // "fast" and cheap to build: the payoff test passes at one hit.
    adaptive.record_retrieve(OP, ValueRepresentation::XmlMessage, SLOW);
    adaptive.record_retrieve(OP, ValueRepresentation::PassByReference, FAST);
    adaptive.record_build(OP, ValueRepresentation::PassByReference, FAST, 64);
    let cache = ResponseCache::builder(registry())
        .policy(
            CachePolicy::new().with(
                OP,
                OperationPolicy::cacheable(Duration::from_secs(600))
                    .with_representation(ValueRepresentation::XmlMessage),
            ),
        )
        .clock(ManualClock::new())
        .adaptive(adaptive.clone())
        .build();
    (cache, adaptive)
}

#[test]
fn convert_on_hit_happens_exactly_once() {
    let (cache, _adaptive) = convert_ready_cache();
    let f = fixture();
    assert_eq!(
        cache.insert(URL, &request(), data(&f)),
        Some(ValueRepresentation::XmlMessage)
    );
    // First hit serves the XML form and converts once to the object.
    let hit = cache.lookup(URL, &request(), &f.expected).expect("hit");
    assert_eq!(hit.as_value(), &f.value);
    let stats = cache.stats();
    assert_eq!(stats.conversions, 1);
    assert_eq!(
        stats.conversions_for(ValueRepresentation::PassByReference),
        1
    );
    assert_eq!(stats.hits_for(ValueRepresentation::XmlMessage), 1);
    // Every further hit is served from the converted form; the counter
    // never moves again because the entry already holds the target.
    for _ in 0..10 {
        let hit = cache.lookup(URL, &request(), &f.expected).expect("hit");
        assert_eq!(hit.as_value(), &f.value);
    }
    let stats = cache.stats();
    assert_eq!(stats.conversions, 1, "conversion must happen exactly once");
    assert_eq!(stats.hits_for(ValueRepresentation::PassByReference), 10);
    // The converted entry is charged for one form, not two.
    let probe = ResponseCache::builder(registry())
        .policy(
            CachePolicy::new().with(
                OP,
                OperationPolicy::cacheable(Duration::from_secs(600))
                    .with_representation(ValueRepresentation::PassByReference),
            ),
        )
        .build();
    probe.insert(URL, &request(), data(&f));
    assert_eq!(cache.bytes(), probe.bytes());
}

#[test]
fn concurrent_converters_coalesce() {
    for round in 0..8 {
        let (cache, _adaptive) = convert_ready_cache();
        let cache = Arc::new(cache);
        let f = Arc::new(fixture());
        cache.insert(URL, &request(), data(&f));
        // Many threads hammer the same hot key. Several may build the
        // form, but the store publishes exactly one and only published
        // conversions count.
        let mut threads = Vec::new();
        for _ in 0..8 {
            let cache = cache.clone();
            let f = f.clone();
            threads.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let hit = cache.lookup(URL, &request(), &f.expected).expect("hit");
                    assert_eq!(hit.as_value(), &f.value);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            cache.stats().conversions,
            1,
            "concurrent converters must coalesce to one conversion (round {round})"
        );
    }
}

/// The scoring flip, end to end under a [`ManualClock`]: with no hit
/// history the policy picks the cheap-to-build form; once hits dominate
/// it flips to the cheap-to-retrieve form. Running the same schedule
/// twice must make identical decisions.
#[test]
fn scoring_flips_deterministically_under_manual_clock() {
    let run = || {
        // Convert-on-hit is disabled so the flip is visible purely
        // through insert-time selections.
        let adaptive = AdaptivePolicy::new()
            .with_min_samples(0)
            .with_size_weight(0)
            .with_convert_after_hits(u64::MAX);
        // Seed both candidates' build costs only: XmlMessage is cheap to
        // build, the object (seeded) expensive. With zero observed hits the
        // expected-hits term vanishes and build cost decides.
        adaptive.record_build(OP, ValueRepresentation::XmlMessage, FAST, 64);
        adaptive.record_build(OP, ValueRepresentation::PassByReference, SLOW / 2, 64);
        let adaptive = Arc::new(adaptive);
        let clock = ManualClock::new();
        let handle = clock.handle();
        let cache = ResponseCache::builder(registry())
            .cache_everything(Duration::from_secs(1))
            .clock(clock)
            .adaptive(adaptive.clone())
            .build();
        let f = fixture();

        // Expected hits per insert are ~0: score reduces to build cost,
        // and the cheap-to-build XML form wins.
        let first = cache.insert(URL, &request(), data(&f)).unwrap();

        // Record a burst of (seeded) hits so the expected-hits term
        // dominates, then let the entry expire and re-insert.
        for _ in 0..8 {
            adaptive.record_retrieve(OP, ValueRepresentation::XmlMessage, SLOW);
            adaptive.record_retrieve(OP, ValueRepresentation::PassByReference, FAST);
        }
        handle.advance_millis(2_000);
        let second = cache.insert(URL, &request(), data(&f)).unwrap();
        let stats = cache.stats();
        (first, second, stats)
    };

    let (first, second, stats) = run();
    assert_eq!(first, ValueRepresentation::XmlMessage);
    assert_eq!(
        second,
        ValueRepresentation::PassByReference,
        "hit-dominated scoring must flip to the cheap-to-retrieve form"
    );
    assert_eq!(
        stats.selections_for(SelectionMode::Exploit, ValueRepresentation::XmlMessage),
        1
    );
    assert_eq!(
        stats.selections_for(SelectionMode::Exploit, ValueRepresentation::PassByReference),
        1
    );

    // Determinism: an identical second run makes identical decisions.
    let (first2, second2, stats2) = run();
    assert_eq!((first, second), (first2, second2));
    assert_eq!(stats.selections, stats2.selections);
}

/// A conversion raced by `insert` never publishes a form built from the
/// superseded response: while one thread alternates two different
/// responses under one key, every concurrent hit equals one of the two,
/// and from the moment an insert returns every hit equals the response
/// it stored — checked by the writer after each insert and by everyone
/// after the last.
#[test]
fn hits_racing_inserts_never_see_a_superseded_response() {
    let (cache, _adaptive) = convert_ready_cache();
    let a = fixture();
    let b = fixture_of(Value::Struct(
        StructValue::new("Item")
            .with("name", "other")
            .with("qty", 9),
    ));
    cache.insert(URL, &request(), data(&a));
    /// Stops the readers when the writer is done, even by a failed
    /// assertion — the scope would otherwise wait on them forever.
    struct StopReaders<'a>(&'a std::sync::atomic::AtomicBool);
    impl Drop for StopReaders<'_> {
        fn drop(&mut self) {
            self.0.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }
    let writer_done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let _stop = StopReaders(&writer_done);
        for _ in 0..4 {
            scope.spawn(|| {
                while !writer_done.load(std::sync::atomic::Ordering::SeqCst) {
                    let hit = cache.lookup(URL, &request(), &a.expected).expect("hit");
                    let got = hit.as_value();
                    assert!(
                        got == &a.value || got == &b.value,
                        "hit equals neither inserted response: {got:?}"
                    );
                }
            });
        }
        for round in 0..2000 {
            let f = if round % 2 == 0 { &b } else { &a };
            cache.insert(URL, &request(), data(f));
            let hit = cache.lookup(URL, &request(), &a.expected).expect("hit");
            assert_eq!(
                hit.as_value(),
                &f.value,
                "round {round}: a form built from the superseded response was published"
            );
        }
    });
    // The last insert (round 1999) stored `a`.
    for _ in 0..20 {
        let hit = cache.lookup(URL, &request(), &a.expected).expect("hit");
        assert_eq!(hit.as_value(), &a.value);
    }
    assert!(cache.stats().conversions >= 1);
}

/// Representation equivalence across the replace: for every source form
/// and every candidate target, what a hit retrieves after the form was
/// swapped equals what the miss path returned, and mutating a returned
/// value is invisible to the next hit.
#[test]
fn retrieve_after_replace_equals_the_miss_path_for_every_pair() {
    let r = registry();
    let f = fixture();
    let targets = candidate_representations(&f.value, &r);
    let mask = targets.iter().fold(0u8, |m, t| m | t.bit());
    let key = CacheKey::Text("k".into());
    let retrieve = |store: &CacheStore| match store.get(&key, 0) {
        Lookup::Live(found) => {
            let handle = found.entry.form().retrieve(&f.expected, &r).unwrap();
            (found, handle)
        }
        other => panic!("expected live, got {other:?}"),
    };
    for source in ValueRepresentation::ALL_EXTENDED {
        for &target in targets.iter().filter(|t| **t != source) {
            let store = CacheStore::default();
            let form = StoredResponse::build(source, data(&f), &r).unwrap();
            store.put(
                key.clone(),
                CacheEntry::single(form).with_candidates(mask),
                1000,
                0,
            );
            let (found, handle) = retrieve(&store);
            let converted =
                StoredResponse::from_value(target, handle.as_value(), "urn:t", OP, &f.expected, &r)
                    .unwrap_or_else(|e| panic!("{source} -> {target}: {e}"));
            store
                .replace_form(&key, found.generation, converted, 0)
                .unwrap_or_else(|| panic!("{source} -> {target}: publish refused"));
            store.audit().unwrap();
            let (found, handle) = retrieve(&store);
            assert_eq!(found.entry.form().representation(), target);
            assert_eq!(handle.as_value(), &f.value, "{source} -> {target}");
            // The client mutates what it got back…
            let mut mine = handle.into_value();
            mine.as_struct_mut().unwrap().set("qty", 999);
            // …and the next hit still sees the original (§3.1).
            let (_, again) = retrieve(&store);
            assert_eq!(again.as_value(), &f.value, "{source} -> {target}");
        }
    }
}

/// One object form: an unseen operation explores exactly the four
/// candidates — the XML message, the SAX events, the serialized object
/// and the shared object — starting from the shared object, and no
/// insert, whatever the mode, stores a reflection or clone copy. (With
/// three object forms in the set, which of them the exploit phase landed
/// on depended on a sub-microsecond difference in two samples each.)
#[test]
fn the_explore_phase_has_no_second_object_form_to_land_in() {
    let adaptive = Arc::new(AdaptivePolicy::new().with_convert_after_hits(u64::MAX));
    let cache = ResponseCache::builder(registry())
        .cache_everything(Duration::from_secs(600))
        .clock(ManualClock::new())
        .adaptive(adaptive)
        .build();
    let f = fixture();
    let inserts = 32;
    let mut picked = Vec::new();
    for id in 0..inserts {
        let request = RpcRequest::new("urn:t", OP).with_param("id", id);
        picked.push(cache.insert(URL, &request, data(&f)).expect("stored"));
        cache.lookup(URL, &request, &f.expected).expect("hit");
    }
    assert_eq!(picked[0], ValueRepresentation::PassByReference);
    let candidates = candidate_representations(&f.value, &registry());
    assert_eq!(candidates.len(), 4);
    let stats = cache.stats();
    let explored: u64 = candidates
        .iter()
        .map(|&r| stats.selections_for(SelectionMode::Explore, r))
        .sum();
    // Two build samples per candidate (the default) and then exploit.
    assert_eq!(explored, 2 * candidates.len() as u64);
    for &repr in &candidates {
        assert_eq!(stats.selections_for(SelectionMode::Explore, repr), 2);
    }
    for repr in [
        ValueRepresentation::ReflectionCopy,
        ValueRepresentation::CloneCopy,
        ValueRepresentation::DomTree,
    ] {
        assert!(!picked.contains(&repr), "{repr} was stored");
        assert_eq!(stats.inserts_for(repr), 0, "{repr}");
    }
    let exploited: u64 = candidates
        .iter()
        .map(|&r| stats.selections_for(SelectionMode::Exploit, r))
        .sum();
    assert_eq!(explored + exploited, inserts as u64);
}
