//! Randomized tests for the cache core: key injectivity across
//! strategies, representation equivalence, and store capacity
//! invariants.
//!
//! The build environment is offline (no `proptest`), so these use a
//! hand-rolled deterministic xorshift generator with fixed seeds.

use std::sync::Arc;
use wsrc_cache::key::{generate_key, KeyStrategy};
use wsrc_cache::repr::{MissArtifacts, StoredResponse, ValueRepresentation};
use wsrc_cache::store::{CacheStore, Capacity};
use wsrc_cache::CacheKey;
use wsrc_model::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor, TypeRegistry};
use wsrc_model::value::{StructValue, Value};
use wsrc_soap::deserializer::read_response_bytes_recording;
use wsrc_soap::rpc::RpcRequest;
use wsrc_soap::serializer::serialize_response;

const CASES: u64 = 128;

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

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn bytes(&mut self, max: usize) -> Vec<u8> {
        let n = self.below(max);
        (0..n).map(|_| self.next() as u8).collect()
    }

    fn printable(&mut self, max: usize) -> String {
        let n = self.below(max + 1);
        (0..n)
            .map(|_| (b' ' + self.below(95) as u8) as char)
            .collect()
    }

    fn lower(&mut self, min: usize, max: usize) -> String {
        let n = min + self.below(max - min + 1);
        (0..n)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }
}

fn registry() -> TypeRegistry {
    TypeRegistry::builder()
        .register(TypeDescriptor::new(
            "Rec",
            vec![
                FieldDescriptor::new("s", FieldType::String),
                FieldDescriptor::new("i", FieldType::Int),
                FieldDescriptor::new("b", FieldType::Bytes),
                FieldDescriptor::new(
                    "kids",
                    FieldType::ArrayOf(Box::new(FieldType::Struct("Rec".into()))),
                ),
            ],
        ))
        .build()
}

fn arb_params(rng: &mut Rng) -> Vec<(String, Value)> {
    let n = rng.below(4);
    let mut seen = std::collections::HashSet::new();
    (0..n)
        .map(|_| {
            let name = rng.lower(1, 6);
            let value = match rng.below(3) {
                0 => Value::string(rng.printable(12)),
                1 => Value::Int(rng.next() as i32),
                _ => Value::Bool(rng.bool()),
            };
            (name, value)
        })
        // Parameter names must be unique for a well-formed call.
        .filter(|(name, _)| seen.insert(name.clone()))
        .collect()
}

fn arb_rec(rng: &mut Rng, depth: u32) -> Value {
    let mut s = StructValue::new("Rec")
        .with("s", rng.printable(10))
        .with("i", rng.next() as i32)
        .with("b", rng.bytes(16));
    if depth > 0 {
        let kids: Vec<Value> = (0..rng.below(3)).map(|_| arb_rec(rng, depth - 1)).collect();
        s.set("kids", Value::Array(kids.into()));
    }
    Value::Struct(s)
}

#[test]
fn keys_are_stable_and_injective() {
    let r = registry();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let req1 = RpcRequest {
            namespace: "urn:t".into(),
            operation: "op".into(),
            params: arb_params(&mut rng),
        };
        let req2 = RpcRequest {
            namespace: "urn:t".into(),
            operation: "op".into(),
            params: arb_params(&mut rng),
        };
        for strategy in KeyStrategy::CONCRETE {
            let k1a = generate_key(strategy, "http://e/", &req1, &r).unwrap();
            let k1b = generate_key(strategy, "http://e/", &req1, &r).unwrap();
            assert_eq!(&k1a, &k1b, "stability under {strategy:?} (seed {seed})");
            let k2 = generate_key(strategy, "http://e/", &req2, &r).unwrap();
            if req1 == req2 {
                assert_eq!(&k1a, &k2, "seed {seed}");
            } else {
                assert_ne!(&k1a, &k2, "collision under {strategy:?} (seed {seed})");
            }
        }
    }
}

#[test]
fn applicable_representations_agree_on_retrieval() {
    let r = registry();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 1000);
        let value = arb_rec(&mut rng, 2);
        let expected = FieldType::Struct("Rec".into());
        let xml = serialize_response("urn:t", "op", "return", &value, &r).unwrap();
        let (outcome, events) =
            read_response_bytes_recording(xml.as_bytes(), &expected, &r).unwrap();
        assert_eq!(outcome.as_return().unwrap(), &value, "seed {seed}");
        let xml: std::sync::Arc<[u8]> = std::sync::Arc::from(xml.into_bytes());
        let events = std::sync::Arc::new(events);
        let artifacts = MissArtifacts {
            xml: &xml,
            events: &events,
            value: &value,
        };
        for repr in ValueRepresentation::ALL {
            match StoredResponse::build(repr, artifacts, &r) {
                Ok(stored) => {
                    let got = stored.retrieve(&expected, &r).unwrap();
                    assert_eq!(got.as_value(), &value, "{repr} disagreed (seed {seed})");
                }
                Err(wsrc_cache::CacheError::NotApplicable(_)) => {}
                Err(other) => panic!("{repr} failed (seed {seed}): {other}"),
            }
        }
    }
}

#[test]
fn store_never_exceeds_capacity() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 2000);
        let store = CacheStore::new(Capacity {
            max_entries: 10,
            max_bytes: 4096,
        });
        for _ in 0..1 + rng.below(119) {
            let k = rng.below(40);
            let size = 1 + rng.below(399);
            let key = CacheKey::Text(format!("k{k}"));
            let value = wsrc_cache::CacheEntry::single(StoredResponse::XmlMessage(Arc::from(
                "v".repeat(size).into_bytes(),
            )));
            store.put(key, value, u64::MAX, 0);
            assert!(store.len() <= 10, "len {} > 10 (seed {seed})", store.len());
            assert!(
                store.bytes() <= 4096,
                "bytes {} > 4096 (seed {seed})",
                store.bytes()
            );
        }
    }
}

#[test]
fn store_get_after_put_returns_live_until_expiry() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 3000);
        let ttl = 1 + rng.next() % 999;
        let probe = rng.next() % 2000;
        let store = CacheStore::new(Capacity::default());
        let key = CacheKey::Text("k".into());
        store.put(
            key.clone(),
            wsrc_cache::CacheEntry::single(StoredResponse::XmlMessage(Arc::from(&b"v"[..]))),
            ttl,
            0,
        );
        let lookup = store.get(&key, probe);
        if probe < ttl {
            assert!(
                matches!(lookup, wsrc_cache::store::Lookup::Live(_)),
                "seed {seed}"
            );
        } else {
            assert!(
                matches!(lookup, wsrc_cache::store::Lookup::Expired),
                "seed {seed}"
            );
        }
    }
}
