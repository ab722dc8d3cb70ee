//! Self-describing binary serialization — the Java serialization analog.
//!
//! Faithful to the mechanism, not just the bytes:
//!
//! - **Class descriptors are written once per stream.** The first
//!   instance of a struct shape (type name + field names) writes a full
//!   descriptor; later instances reference it by id and write values
//!   only, exactly like `ObjectOutputStream`'s class-descriptor handles.
//! - **Shared strings serialize once.** String values are tracked by
//!   identity (the bytes of the block they view) in a per-stream handle
//!   table and later occurrences are back-references, like the Java
//!   handle table; deserialization reconstructs the sharing.
//! - The format carries type names and field names, so a value can be
//!   reconstructed without a registry. A reconstructed tree holds each
//!   shape once, in the stream's descriptor table; its instances share
//!   it. The tree itself is built as one ([`TreeBuilder`]): one text
//!   block, one node block per nesting level.
//!
//! Copying a value through [`serialize`] + [`deserialize`] yields a deep
//! copy (paper §4.2.3-A).

use crate::error::ModelError;
use crate::tree::TreeBuilder;
use crate::typeinfo::{StructPlan, TypeRegistry};
use crate::value::{Shape, Value};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"WSRB";
const VERSION: u8 = 2;

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_LONG: u8 = 3;
const TAG_DOUBLE: u8 = 4;
const TAG_STRING: u8 = 5;
const TAG_BYTES: u8 = 6;
const TAG_ARRAY: u8 = 7;
const TAG_STRUCT_DESC: u8 = 8;
const TAG_STRUCT_REF: u8 = 9;
const TAG_STRING_REF: u8 = 10;

/// Serializes a value to its binary form.
///
/// Never fails: any `Value` is structurally serializable. Use
/// [`serialize_checked`] to enforce the Java `Serializable` capability
/// the way the paper's middleware does.
pub fn serialize(value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    serialize_into(value, &mut out);
    out
}

/// [`serialize`], appending the binary form to `out` — how a cache key
/// made of several values is written into one buffer.
pub(crate) fn serialize_into(value: &Value, out: &mut Vec<u8>) {
    let mut w = Writer {
        out: std::mem::take(out),
        descriptors: HashMap::new(),
        strings: HashMap::new(),
    };
    w.out.extend_from_slice(MAGIC);
    w.out.push(VERSION);
    w.write_value(value);
    *out = w.out;
}

/// Serializes, first verifying that every struct type in the tree declares
/// the `serializable` capability — the analog of the Java runtime throwing
/// `NotSerializableException` (paper §4.2.3-A).
///
/// # Errors
///
/// Returns [`ModelError::NotSupported`] when some type in the tree is not
/// serializable.
pub fn serialize_checked(value: &Value, registry: &TypeRegistry) -> Result<Vec<u8>, ModelError> {
    check_serializable(value, None, registry)?;
    Ok(serialize(value))
}

/// [`serialize_checked`], appending to `out` as `serialize_into` does;
/// `out` is untouched when the check fails.
///
/// # Errors
///
/// Same conditions as [`serialize_checked`].
pub fn serialize_checked_into(
    value: &Value,
    registry: &TypeRegistry,
    out: &mut Vec<u8>,
) -> Result<(), ModelError> {
    check_serializable(value, None, registry)?;
    serialize_into(value, out);
    Ok(())
}

/// `declared` is the plan the parent's descriptor predicts for struct
/// nodes under `value`; it saves the by-name lookup when it matches.
fn check_serializable(
    value: &Value,
    declared: Option<&StructPlan>,
    registry: &TypeRegistry,
) -> Result<(), ModelError> {
    match value {
        Value::Array(items) => {
            for v in items.iter() {
                check_serializable(v, declared, registry)?;
            }
            Ok(())
        }
        Value::Struct(s) => {
            let plan = registry
                .plan_for(s, declared)
                .filter(|p| p.descriptor().capabilities.serializable)
                .ok_or_else(|| ModelError::NotSupported {
                    type_name: s.type_name().to_string(),
                    capability: "serialization",
                })?;
            for (position, (name, v)) in s.fields().enumerate() {
                if matches!(v, Value::Array(_) | Value::Struct(_)) {
                    let declared = plan.child_plan(name, position, registry);
                    check_serializable(v, declared, registry)?;
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Deserializes a value from its binary form, reconstructing a fresh
/// object tree (the cache-hit path of the Java-serialization method).
///
/// # Errors
///
/// Returns [`ModelError::Corrupt`] on malformed input.
pub fn deserialize(bytes: &[u8]) -> Result<Value, ModelError> {
    let mut r = Reader {
        bytes,
        pos: 0,
        descriptors: Vec::new(),
        strings: Vec::new(),
        tree: TreeBuilder::new(),
    };
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(ModelError::corrupt("bad magic"));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(ModelError::corrupt(format!(
            "unsupported version {version}"
        )));
    }
    r.read_value(0)?;
    if r.pos != r.bytes.len() {
        return Err(ModelError::corrupt("trailing bytes after value"));
    }
    r.tree.finish()
}

struct Writer {
    out: Vec<u8>,
    // (type name, field names in order) → descriptor id.
    descriptors: HashMap<Arc<Shape>, u32>,
    // string identity (where its bytes are, and how many) → handle id.
    strings: HashMap<(usize, usize), u32>,
}

impl Writer {
    fn write_value(&mut self, value: &Value) {
        match value {
            Value::Null => self.out.push(TAG_NULL),
            Value::Bool(b) => {
                self.out.push(TAG_BOOL);
                self.out.push(u8::from(*b));
            }
            Value::Int(i) => {
                self.out.push(TAG_INT);
                self.out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Long(l) => {
                self.out.push(TAG_LONG);
                self.out.extend_from_slice(&l.to_le_bytes());
            }
            Value::Double(d) => {
                self.out.push(TAG_DOUBLE);
                self.out.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            Value::String(s) => {
                // Handle table: aliased strings are written once.
                let identity = (s.as_ptr() as usize, s.len());
                if let Some(&id) = self.strings.get(&identity) {
                    self.out.push(TAG_STRING_REF);
                    write_len(&mut self.out, id as usize);
                } else {
                    let id = self.strings.len() as u32;
                    self.strings.insert(identity, id);
                    self.out.push(TAG_STRING);
                    write_len(&mut self.out, s.len());
                    self.out.extend_from_slice(s.as_bytes());
                }
            }
            Value::Bytes(b) => {
                self.out.push(TAG_BYTES);
                write_len(&mut self.out, b.len());
                self.out.extend_from_slice(b);
            }
            Value::Array(items) => {
                self.out.push(TAG_ARRAY);
                write_len(&mut self.out, items.len());
                for v in items.iter() {
                    self.write_value(v);
                }
            }
            Value::Struct(s) => {
                if let Some(&id) = self.descriptors.get(&**s.shape()) {
                    // Known shape: reference the descriptor, values only.
                    self.out.push(TAG_STRUCT_REF);
                    write_len(&mut self.out, id as usize);
                } else {
                    let id = self.descriptors.len() as u32;
                    self.out.push(TAG_STRUCT_DESC);
                    write_len(&mut self.out, s.type_name().len());
                    self.out.extend_from_slice(s.type_name().as_bytes());
                    write_len(&mut self.out, s.len());
                    for (name, _) in s.fields() {
                        write_len(&mut self.out, name.len());
                        self.out.extend_from_slice(name.as_bytes());
                    }
                    self.descriptors.insert(s.shape().clone(), id);
                }
                for (_, v) in s.fields() {
                    self.write_value(v);
                }
            }
        }
    }
}

fn write_len(out: &mut Vec<u8>, mut len: usize) {
    loop {
        let byte = (len & 0x7f) as u8;
        len >>= 7;
        if len == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

struct Reader<'b> {
    bytes: &'b [u8],
    pos: usize,
    // Descriptor table mirrored from the stream; every instance of a
    // shape shares it.
    descriptors: Vec<Arc<Shape>>,
    // String handle table for back-references: where in the tree's text
    // each string read so far lies.
    strings: Vec<Range<usize>>,
    tree: TreeBuilder,
}

const MAX_DEPTH: usize = 256;

/// Largest child count a length read from the stream may reserve up
/// front; the children that arrive decide the container.
const RESERVE_CAP: usize = 4096;

impl<'b> Reader<'b> {
    fn take(&mut self, n: usize) -> Result<&'b [u8], ModelError> {
        if n > self.remaining() {
            return Err(ModelError::corrupt("unexpected end of data"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ModelError> {
        Ok(self.take(1)?[0])
    }

    fn len(&mut self) -> Result<usize, ModelError> {
        let mut out: usize = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 63 {
                return Err(ModelError::corrupt("length varint too long"));
            }
            out |= ((byte & 0x7f) as usize) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    fn str(&mut self) -> Result<&'b str, ModelError> {
        let len = self.len()?;
        std::str::from_utf8(self.take(len)?).map_err(|_| ModelError::corrupt("invalid utf-8"))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads one value into the tree.
    fn read_value(&mut self, depth: usize) -> Result<(), ModelError> {
        if depth > MAX_DEPTH {
            return Err(ModelError::corrupt("nesting too deep"));
        }
        let scalar = match self.u8()? {
            TAG_NULL => Value::Null,
            TAG_BOOL => match self.u8()? {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                other => return Err(ModelError::corrupt(format!("invalid bool byte {other}"))),
            },
            TAG_INT => Value::Int(i32::from_le_bytes(
                self.take(4)?.try_into().expect("4 bytes"),
            )),
            TAG_LONG => Value::Long(i64::from_le_bytes(
                self.take(8)?.try_into().expect("8 bytes"),
            )),
            TAG_DOUBLE => Value::Double(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().expect("8 bytes"),
            ))),
            TAG_STRING => {
                let start = self.tree.text_len();
                let s = self.str()?;
                self.tree.push_text(s);
                self.strings.push(start..self.tree.text_len());
                self.tree.string_at(start..self.tree.text_len());
                return Ok(());
            }
            TAG_STRING_REF => {
                let id = self.len()?;
                let range = self
                    .strings
                    .get(id)
                    .ok_or_else(|| ModelError::corrupt(format!("dangling string handle {id}")))?;
                self.tree.string_at(range.clone());
                return Ok(());
            }
            TAG_BYTES => {
                let len = self.len()?;
                Value::Bytes(Arc::from(self.take(len)?))
            }
            TAG_ARRAY => {
                let count = self.len()?;
                if count > self.remaining() {
                    return Err(ModelError::corrupt("array count exceeds input"));
                }
                self.tree.open(count.min(RESERVE_CAP));
                for _ in 0..count {
                    self.read_value(depth + 1)?;
                }
                self.tree.close_array();
                return Ok(());
            }
            TAG_STRUCT_DESC => {
                let type_name = self.str()?;
                let count = self.len()?;
                if count > self.remaining() {
                    return Err(ModelError::corrupt("field count exceeds input"));
                }
                let mut names = Vec::with_capacity(count.min(RESERVE_CAP));
                let mut distinct = HashSet::with_capacity(count.min(RESERVE_CAP));
                for _ in 0..count {
                    let name = self.str()?;
                    if !distinct.insert(name) {
                        return Err(ModelError::corrupt(format!(
                            "field '{name}' declared twice in '{type_name}'"
                        )));
                    }
                    names.push(Arc::from(name));
                }
                self.descriptors
                    .push(Arc::new(Shape::new(type_name, names)));
                return self.read_struct_body(self.descriptors.len() - 1, depth);
            }
            TAG_STRUCT_REF => {
                let id = self.len()?;
                if id >= self.descriptors.len() {
                    return Err(ModelError::corrupt(format!(
                        "dangling descriptor handle {id}"
                    )));
                }
                return self.read_struct_body(id, depth);
            }
            other => return Err(ModelError::corrupt(format!("unknown tag {other}"))),
        };
        self.tree.value(scalar);
        Ok(())
    }

    fn read_struct_body(&mut self, descriptor_id: usize, depth: usize) -> Result<(), ModelError> {
        let shape = self.descriptors[descriptor_id].clone();
        self.tree.open(shape.names().len());
        for _ in shape.names() {
            self.read_value(depth + 1)?;
        }
        self.tree.close_struct(shape);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typeinfo::{Capabilities, TypeDescriptor, TypeRegistry};
    use crate::value::StructValue;

    fn complex_value() -> Value {
        Value::Struct(
            StructValue::new("Outer")
                .with("flag", true)
                .with("count", 42)
                .with("big", 1_234_567_890_123i64)
                .with("ratio", -2.5)
                .with("name", "hello ✓ world")
                .with("blob", vec![0u8, 1, 2, 255])
                .with(
                    "items",
                    vec![
                        Value::Struct(StructValue::new("Inner").with("v", 1)),
                        Value::Null,
                        Value::string(""),
                    ],
                ),
        )
    }

    #[test]
    fn roundtrip_complex_value() {
        let v = complex_value();
        let bytes = serialize(&v);
        assert_eq!(deserialize(&bytes).unwrap(), v);
    }

    #[test]
    fn roundtrip_every_scalar() {
        for v in [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(i32::MIN),
            Value::Int(i32::MAX),
            Value::Long(i64::MIN),
            Value::Double(f64::NAN),
            Value::Double(f64::INFINITY),
            Value::string("日本語"),
            Value::from(Vec::<u8>::new()),
            Value::from(Vec::<Value>::new()),
        ] {
            let back = deserialize(&serialize(&v)).unwrap();
            match (&v, &back) {
                (Value::Double(a), Value::Double(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                _ => assert_eq!(v, back),
            }
        }
    }

    #[test]
    fn class_descriptors_are_written_once() {
        // Ten structs of the same shape: the field names appear once.
        let one = Value::Struct(StructValue::new("Elem").with("fieldWithLongName", 1));
        let ten = Value::Array(
            (0..10)
                .map(|i| Value::Struct(StructValue::new("Elem").with("fieldWithLongName", i)))
                .collect(),
        );
        let one_bytes = serialize(&one).len();
        let ten_bytes = serialize(&ten).len();
        // If descriptors repeated, ten_bytes ≈ 10 * one_bytes; with
        // descriptor sharing it is far smaller.
        assert!(
            ten_bytes < one_bytes + 9 * 8 + 16,
            "ten={ten_bytes}, one={one_bytes}"
        );
        let text = String::from_utf8_lossy(&serialize(&ten)).into_owned();
        assert_eq!(text.matches("fieldWithLongName").count(), 1);
    }

    #[test]
    fn shared_strings_are_written_once_and_stay_shared() {
        let shared = Value::string("a long shared string payload");
        let v = Value::from(vec![shared.clone(), shared.clone(), shared]);
        let bytes = serialize(&v);
        let text = String::from_utf8_lossy(&bytes).into_owned();
        assert_eq!(text.matches("a long shared string payload").count(), 1);
        // Deserialization reconstructs the aliasing.
        match deserialize(&bytes).unwrap() {
            Value::Array(items) => match (&items[0], &items[1]) {
                (Value::String(a), Value::String(b)) => {
                    assert_eq!(a, b);
                    assert!(a.ptr_eq(b), "sharing must be reconstructed");
                }
                _ => panic!("expected strings"),
            },
            _ => panic!("expected array"),
        }
    }

    #[test]
    fn equal_but_unshared_strings_are_written_twice() {
        // Identity semantics, like the Java handle table.
        let v = Value::from(vec![Value::string("twin"), Value::string("twin")]);
        let text = String::from_utf8_lossy(&serialize(&v)).into_owned();
        assert_eq!(text.matches("twin").count(), 2);
    }

    #[test]
    fn deserialized_copy_is_independent() {
        let v = complex_value();
        let bytes = serialize(&v);
        let mut copy = deserialize(&bytes).unwrap();
        copy.as_struct_mut().unwrap().set("count", 99);
        let again = deserialize(&bytes).unwrap();
        assert_eq!(
            again.as_struct().unwrap().get("count"),
            Some(&Value::Int(42))
        );
    }

    #[test]
    fn corrupt_inputs_are_rejected_without_panic() {
        let good = serialize(&complex_value());
        assert!(matches!(deserialize(&[]), Err(ModelError::Corrupt(_))));
        assert!(deserialize(b"XXXX\x02\x00").is_err());
        assert!(deserialize(&good[..good.len() - 1]).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(deserialize(&trailing).is_err());
        let mut bad_tag = good.clone();
        bad_tag[5] = 0xEE;
        assert!(deserialize(&bad_tag).is_err());
        // Hostile array count.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(b"WSRB\x02");
        hostile.push(super::TAG_ARRAY);
        hostile.extend_from_slice(&[0xff, 0xff, 0xff, 0x7f]);
        assert!(deserialize(&hostile).is_err());
        // Dangling handles.
        let mut dangling = Vec::new();
        dangling.extend_from_slice(b"WSRB\x02");
        dangling.push(super::TAG_STRING_REF);
        dangling.push(7);
        assert!(deserialize(&dangling).is_err());
        let mut dangling2 = Vec::new();
        dangling2.extend_from_slice(b"WSRB\x02");
        dangling2.push(super::TAG_STRUCT_REF);
        dangling2.push(3);
        assert!(deserialize(&dangling2).is_err());
    }

    #[test]
    fn every_truncation_of_a_valid_stream_errors() {
        let bytes = serialize(&complex_value());
        for cut in 0..bytes.len() {
            assert!(
                deserialize(&bytes[..cut]).is_err(),
                "truncation at {cut} should fail"
            );
        }
    }

    #[test]
    fn checked_serialization_enforces_capability() {
        let registry = TypeRegistry::builder()
            .register(TypeDescriptor::new("Ok", vec![]))
            .register(TypeDescriptor::new("NoSer", vec![]).with_capabilities(Capabilities::none()))
            .build();
        let ok = Value::Struct(StructValue::new("Ok"));
        assert!(serialize_checked(&ok, &registry).is_ok());
        let nested_bad = Value::Struct(
            StructValue::new("Ok").with("f", Value::Struct(StructValue::new("NoSer"))),
        );
        let err = serialize_checked(&nested_bad, &registry).unwrap_err();
        assert!(matches!(
            err,
            ModelError::NotSupported {
                capability: "serialization",
                ..
            }
        ));
        let unknown = Value::Struct(StructValue::new("Mystery"));
        assert!(serialize_checked(&unknown, &registry).is_err());
    }

    #[test]
    fn serialized_form_is_self_describing() {
        let v = Value::Struct(StructValue::new("Named").with("theField", 7));
        let bytes = serialize(&v);
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.contains("Named"));
        assert!(text.contains("theField"));
    }

    #[test]
    fn varint_lengths_roundtrip() {
        let sizes = [0usize, 1, 127, 128, 300, 16_383, 16_384, 1_000_000];
        for n in sizes {
            let v = Value::from(vec![7u8; n]);
            assert_eq!(deserialize(&serialize(&v)).unwrap(), v);
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut v = Value::Int(0);
        for _ in 0..300 {
            v = Value::from(vec![v]);
        }
        let bytes = serialize(&v);
        assert!(matches!(deserialize(&bytes), Err(ModelError::Corrupt(_))));
    }

    #[test]
    fn same_type_different_shapes_get_distinct_descriptors() {
        let a = Value::Struct(StructValue::new("T").with("x", 1));
        let b = Value::Struct(StructValue::new("T").with("y", 2));
        let v = Value::from(vec![a.clone(), b.clone(), a, b]);
        assert_eq!(deserialize(&serialize(&v)).unwrap(), v);
    }
}
