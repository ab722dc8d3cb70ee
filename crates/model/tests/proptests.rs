//! Randomized tests: all copy mechanisms agree, copies are independent,
//! serialization round-trips, rendering is stable.
//!
//! The build environment is offline (no `proptest`), so these use a
//! hand-rolled deterministic xorshift generator with fixed seeds.

use wsrc_model::binser;
use wsrc_model::deep_clone::clone_unchecked;
use wsrc_model::reflect::reflect_copy;
use wsrc_model::sizeof::deep_size;
use wsrc_model::tostring::to_string_key;
use wsrc_model::tree::TreeBuilder;
use wsrc_model::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor, TypeRegistry};
use wsrc_model::value::{StructValue, Value};

const CASES: u64 = 256;

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

    fn ascii(&mut self, max: usize) -> String {
        const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
        let n = self.below(max + 1);
        (0..n)
            .map(|_| CHARS[self.below(CHARS.len())] as char)
            .collect()
    }

    /// A finite double in ±1e12, never -0.0.
    fn double(&mut self) -> f64 {
        let d = ((self.next() % 2_000_001) as f64 / 1_000_000.0 - 1.0) * 1.0e12;
        if d == 0.0 {
            0.0
        } else {
            d
        }
    }
}

/// All generated structs use one of these registered bean types.
fn registry() -> TypeRegistry {
    TypeRegistry::builder()
        .register(TypeDescriptor::new(
            "A",
            vec![
                FieldDescriptor::new("f0", FieldType::String),
                FieldDescriptor::new("f1", FieldType::Int),
                FieldDescriptor::new("f2", FieldType::Struct("B".into())),
            ],
        ))
        .register(TypeDescriptor::new(
            "B",
            vec![
                FieldDescriptor::new("f0", FieldType::Double),
                FieldDescriptor::new("f1", FieldType::ArrayOf(Box::new(FieldType::String))),
            ],
        ))
        .build()
}

fn arb_value(rng: &mut Rng, depth: u32) -> Value {
    // At depth 0 only leaves; deeper levels sometimes nest.
    let choice = if depth == 0 {
        rng.below(7)
    } else {
        rng.below(9)
    };
    match choice {
        0 => Value::Null,
        1 => Value::Bool(rng.bool()),
        2 => Value::Int(rng.next() as i32),
        3 => Value::Long(rng.next() as i64),
        4 => Value::Double(rng.double()),
        5 => Value::string(rng.ascii(20)),
        6 => Value::from(rng.bytes(64)),
        7 => {
            let n = rng.below(6);
            Value::Array((0..n).map(|_| arb_value(rng, depth - 1)).collect())
        }
        _ => {
            let ty = if rng.bool() { "A" } else { "B" };
            let mut s = StructValue::new(ty);
            for i in 0..rng.below(3) {
                s.set(format!("f{i}"), arb_value(rng, depth - 1));
            }
            Value::Struct(s)
        }
    }
}

/// `v` again, built the way a decoder builds it: every string in one
/// text block, the containers of one nesting level in one node block.
fn rebuilt(v: &Value) -> Value {
    fn add(tree: &mut TreeBuilder, v: &Value) {
        match v {
            Value::String(s) => {
                let start = tree.text_len();
                tree.push_text(s);
                tree.string_at(start..tree.text_len());
            }
            Value::Array(items) => {
                tree.open(items.len());
                items.iter().for_each(|item| add(tree, item));
                tree.close_array();
            }
            Value::Struct(s) => {
                tree.open(s.len());
                s.fields().for_each(|(_, field)| add(tree, field));
                tree.close_struct(s.shape().clone());
            }
            other => tree.value(other.clone()),
        }
    }
    let mut tree = TreeBuilder::new();
    add(&mut tree, v);
    tree.finish().expect("small trees fit")
}

/// Nesting depth (a leaf is 0) and number of `byte[]` leaves.
fn depth_and_buffers(v: &Value) -> (usize, usize) {
    let children: Vec<&Value> = match v {
        Value::Bytes(_) => return (0, 1),
        Value::Array(items) => items.iter().collect(),
        Value::Struct(s) => s.fields().map(|(_, fv)| fv).collect(),
        _ => return (0, 0),
    };
    let below = children.into_iter().map(depth_and_buffers);
    let (depth, buffers) = below.fold((0, 0), |(d, b), (cd, cb)| (d.max(cd), b + cb));
    (depth + 1, buffers)
}

fn distinct_blocks(v: &Value, ids: &mut std::collections::HashSet<usize>) {
    ids.extend(v.block().map(|b| b.id));
    match v {
        Value::Array(items) => items.iter().for_each(|item| distinct_blocks(item, ids)),
        Value::Struct(s) => s.fields().for_each(|(_, fv)| distinct_blocks(fv, ids)),
        _ => {}
    }
}

#[test]
fn a_tree_through_the_builder_equals_the_one_made_by_hand() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 9000);
        let by_hand = arb_value(&mut rng, 4);
        let built = rebuilt(&by_hand);
        assert_eq!(built, by_hand, "seed {seed}");
        assert_eq!(
            binser::deserialize(&binser::serialize(&built)).unwrap(),
            by_hand,
            "seed {seed}"
        );
        // One text block, one node block per level below the root, one
        // buffer per `byte[]` — however many nodes there are.
        let (depth, buffers) = depth_and_buffers(&built);
        let mut ids = std::collections::HashSet::new();
        distinct_blocks(&built, &mut ids);
        assert!(
            ids.len() <= depth + 1 + buffers,
            "seed {seed}: {}",
            ids.len()
        );
        assert!(deep_size(&built) >= std::mem::size_of::<Value>() * built.node_count());
    }
}

#[test]
fn binser_roundtrip_is_identity() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let v = arb_value(&mut rng, 4);
        let bytes = binser::serialize(&v);
        assert_eq!(binser::deserialize(&bytes).unwrap(), v, "seed {seed}");
    }
}

#[test]
fn binser_never_panics_on_garbage() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 1000);
        let data = rng.bytes(256);
        let _ = binser::deserialize(&data);
    }
}

#[test]
fn binser_never_panics_on_flipped_bytes() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 2000);
        let v = arb_value(&mut rng, 3);
        let mut bytes = binser::serialize(&v);
        let i = rng.below(bytes.len());
        bytes[i] ^= 1 << rng.below(8);
        let _ = binser::deserialize(&bytes); // may error, must not panic
    }
}

#[test]
fn clone_unchecked_equals_original() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 3000);
        let v = arb_value(&mut rng, 4);
        assert_eq!(clone_unchecked(&v), v, "seed {seed}");
    }
}

#[test]
fn all_copy_mechanisms_agree() {
    let r = registry();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 4000);
        let v = arb_value(&mut rng, 4);
        let serial = binser::deserialize(&binser::serialize(&v)).unwrap();
        assert_eq!(&serial, &v, "seed {seed}");
        if r.is_reflect_copyable(&v) {
            assert_eq!(reflect_copy(&v, &r).unwrap(), v.clone(), "seed {seed}");
        }
        assert_eq!(clone_unchecked(&v), v, "seed {seed}");
    }
}

#[test]
fn copies_are_independent() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 5000);
        let v = arb_value(&mut rng, 4);
        // Mutating a serialization-based copy never affects the original.
        let original_bytes = binser::serialize(&v);
        let mut copy = binser::deserialize(&original_bytes).unwrap();
        mutate_first_mutable(&mut copy);
        assert_eq!(binser::serialize(&v), original_bytes, "seed {seed}");
    }
}

#[test]
fn tostring_is_deterministic_and_injective_for_equal_values() {
    let r = registry();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 6000);
        let a = arb_value(&mut rng, 3);
        let b = arb_value(&mut rng, 3);
        let ka = to_string_key(&a, &r);
        let kb = to_string_key(&b, &r);
        if let (Ok(ka), Ok(kb)) = (ka, kb) {
            if a == b {
                assert_eq!(&ka, &kb, "seed {seed}");
            } else {
                // Canonical rendering must distinguish distinct values.
                assert_ne!(&ka, &kb, "seed {seed}");
            }
        }
    }
}

#[test]
fn deep_size_is_positive_and_monotone_under_wrapping() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 7000);
        let v = arb_value(&mut rng, 3);
        let base = deep_size(&v);
        assert!(base >= std::mem::size_of::<Value>());
        let wrapped = Value::Array(vec![v].into());
        assert!(deep_size(&wrapped) > base, "seed {seed}");
    }
}

/// Writes through the first container found (a byte, else an appended
/// field), copying whatever shared nodes lie on the way there.
fn mutate_first_mutable(v: &mut Value) -> bool {
    match v {
        Value::Bytes(b) if b.is_empty() => false,
        Value::Bytes(_) => {
            v.as_bytes_mut().expect("bytes")[0] ^= 0xAB;
            true
        }
        Value::Array(items) if items.is_empty() => false,
        Value::Array(_) => {
            let items = v.as_array_mut().expect("array");
            if !items.iter_mut().any(mutate_first_mutable) {
                items[0] = Value::Int(-1);
            }
            true
        }
        Value::Struct(s) => {
            if !s.fields_mut().any(|(_, fv)| mutate_first_mutable(fv)) {
                s.set("__mutation", 1);
            }
            true
        }
        _ => false,
    }
}

/// The containers of `v` in pre-order: `(path, node)`, a path being the
/// child indices from the root.
fn containers<'v>(v: &'v Value, path: &mut Vec<usize>, out: &mut Vec<(Vec<usize>, &'v Value)>) {
    let children: Vec<&Value> = match v {
        Value::Bytes(_) => Vec::new(),
        Value::Array(items) => items.iter().collect(),
        Value::Struct(s) => s.fields().map(|(_, fv)| fv).collect(),
        _ => return,
    };
    out.push((path.clone(), v));
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        containers(child, path, out);
        path.pop();
    }
}

/// Descends `path` through the mutable accessors and writes at its end:
/// a byte of a byte buffer, the first element of an array, a new field
/// of a struct.
fn write_at(v: &mut Value, path: &[usize]) {
    match (v, path) {
        (v @ Value::Bytes(_), []) => match v.as_bytes_mut().expect("bytes").first_mut() {
            Some(byte) => *byte ^= 0x5A,
            None => {}
        },
        (v @ Value::Array(_), []) => match v.as_array_mut().expect("array").first_mut() {
            Some(item) => *item = Value::string("written"),
            None => {}
        },
        (Value::Struct(s), []) => s.set("__written", 1),
        (v @ Value::Array(_), [i, rest @ ..]) => {
            write_at(&mut v.as_array_mut().expect("array")[*i], rest)
        }
        (Value::Struct(s), [i, rest @ ..]) => {
            let (_, child) = s.fields_mut().nth(*i).expect("path names a field");
            write_at(child, rest)
        }
        _ => unreachable!("paths end at containers"),
    }
}

#[test]
fn a_write_is_invisible_to_earlier_clones_and_equals_writing_a_deep_copy() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 8000);
        let by_hand = arb_value(&mut rng, 4);
        let mut found = Vec::new();
        containers(&by_hand, &mut Vec::new(), &mut found);
        if found.is_empty() {
            continue;
        }
        let path = found[rng.below(found.len())].0.clone();
        // Independent of any sharing: what the value looked like.
        let before = binser::serialize(&by_hand);

        // A block per node, and the few blocks of a built tree, where a
        // written container leaves a block its siblings still share.
        for original in [by_hand.clone(), rebuilt(&by_hand)] {
            let snapshot = original.clone();
            let mut shared = original.clone();
            write_at(&mut shared, &path);
            let mut deep = clone_unchecked(&original);
            write_at(&mut deep, &path);

            assert_eq!(shared, deep, "seed {seed} path {path:?}");
            assert_eq!(binser::serialize(&original), before, "seed {seed}");
            assert_eq!(binser::serialize(&snapshot), before, "seed {seed}");
        }
    }
}
