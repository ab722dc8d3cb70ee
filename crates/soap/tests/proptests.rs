//! Randomized tests: serialize→deserialize is the identity for typed
//! values, and the SAX-replay path always agrees with the XML-parse path.
//!
//! The build environment is offline (no `proptest`), so these use a
//! hand-rolled deterministic xorshift generator with fixed seeds.

use wsrc_model::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor, TypeRegistry};
use wsrc_model::value::{StructValue, Value};
use wsrc_soap::deserializer::{
    read_response_bytes_recording, read_response_events, read_response_xml,
};
use wsrc_soap::rpc::RpcOutcome;
use wsrc_soap::serializer::serialize_response;

const CASES: u64 = 192;

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

    /// Printable ASCII (space through tilde).
    fn printable(&mut self, max: usize) -> String {
        let n = self.below(max + 1);
        (0..n)
            .map(|_| (b' ' + self.below(95) as u8) as char)
            .collect()
    }

    /// A finite double in ±1e9, never -0.0.
    fn double(&mut self) -> f64 {
        let d = ((self.next() % 2_000_001) as f64 / 1_000_000.0 - 1.0) * 1.0e9;
        if d == 0.0 {
            0.0
        } else {
            d
        }
    }
}

fn registry() -> TypeRegistry {
    TypeRegistry::builder()
        .register(TypeDescriptor::new(
            "Node",
            vec![
                FieldDescriptor::new("label", FieldType::String),
                FieldDescriptor::new("weight", FieldType::Double),
                FieldDescriptor::new("count", FieldType::Int),
                FieldDescriptor::new("flag", FieldType::Bool),
                FieldDescriptor::new("blob", FieldType::Bytes),
                FieldDescriptor::new(
                    "children",
                    FieldType::ArrayOf(Box::new(FieldType::Struct("Node".into()))),
                ),
            ],
        ))
        .build()
}

fn arb_scalar(rng: &mut Rng) -> (Value, FieldType) {
    match rng.below(7) {
        0 => (Value::string(rng.printable(30)), FieldType::String),
        1 => (Value::Int(rng.next() as i32), FieldType::Int),
        2 => (Value::Long(rng.next() as i64), FieldType::Long),
        3 => (Value::Bool(rng.bool()), FieldType::Bool),
        4 => (Value::Double(rng.double()), FieldType::Double),
        5 => (Value::Bytes(rng.bytes(64).into()), FieldType::Bytes),
        _ => (Value::Null, FieldType::String),
    }
}

/// A typed value together with its declared type.
fn arb_typed(rng: &mut Rng, depth: u32) -> (Value, FieldType) {
    if depth == 0 {
        return arb_scalar(rng);
    }
    match rng.below(3) {
        0 => arb_scalar(rng),
        1 => {
            // A homogeneous array: generate one element type, then more
            // elements until one comes out a different type.
            let (first, ty) = arb_scalar(rng);
            let mut values = vec![first];
            for _ in 0..rng.below(4) {
                let (v, t) = arb_scalar(rng);
                if t == ty {
                    values.push(v);
                }
            }
            (
                Value::Array(values.into()),
                FieldType::ArrayOf(Box::new(ty)),
            )
        }
        _ => (arb_node(rng, depth), FieldType::Struct("Node".into())),
    }
}

fn arb_node(rng: &mut Rng, depth: u32) -> Value {
    let mut s = StructValue::new("Node")
        .with("label", rng.printable(16))
        .with("count", rng.next() as i32)
        .with("flag", rng.bool());
    if depth > 0 {
        let kids: Vec<Value> = (0..rng.below(3))
            .map(|_| arb_node(rng, depth - 1))
            .collect();
        s.set("children", Value::Array(kids.into()));
    }
    Value::Struct(s)
}

fn unwrap_return(o: RpcOutcome) -> Value {
    match o {
        RpcOutcome::Return(v) => v,
        RpcOutcome::Fault(f) => panic!("unexpected fault {f}"),
    }
}

#[test]
fn typed_roundtrip_is_identity() {
    let r = registry();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (value, ty) = arb_typed(&mut rng, 3);
        let xml = serialize_response("urn:p", "op", "return", &value, &r).unwrap();
        let back = unwrap_return(read_response_xml(&xml, &ty, &r).unwrap());
        assert_eq!(back, value, "seed {seed}");
    }
}

#[test]
fn sax_replay_equals_direct_parse() {
    let r = registry();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 1000);
        let (value, ty) = arb_typed(&mut rng, 3);
        let xml = serialize_response("urn:p", "op", "return", &value, &r).unwrap();
        let (direct, events) = read_response_bytes_recording(xml.as_bytes(), &ty, &r).unwrap();
        let replayed = read_response_events(&events, &ty, &r).unwrap();
        assert_eq!(direct, replayed, "seed {seed}");
    }
}

#[test]
fn reader_never_panics_on_arbitrary_wellformed_xml() {
    let r = registry();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 2000);
        let tag: String = (0..1 + rng.below(8))
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        let text = rng.printable(30);
        let xml = format!("<{tag}>{}</{tag}>", wsrc_xml::escape::escape_text(&text));
        let _ = read_response_xml(&xml, &FieldType::String, &r);
    }
}

#[test]
fn reader_never_panics_on_garbage() {
    let r = registry();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 3000);
        let n = rng.below(160);
        let s: String = (0..n)
            .map(|_| char::from_u32(rng.next() as u32 % 0x300).unwrap_or('?'))
            .collect();
        let _ = read_response_xml(&s, &FieldType::String, &r);
    }
}
