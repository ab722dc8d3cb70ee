//! Deep copy through a generated `clone()` — the fastest copy mechanism.
//!
//! The paper's §4.2.3-C observes that a WSDL compiler can emit a proper
//! deep `clone()` on generated classes; calling it is a monomorphic
//! structural walk with no name lookups, and is therefore much faster than
//! reflection or serialization. [`clone_unchecked`] is that walk over a
//! `Value` tree: every container node is duplicated (into one block per
//! nesting level, through [`TreeBuilder`]), immutable strings and shapes
//! are shared. It is *not* `Value::clone()`, which shares the whole tree
//! copy-on-write and costs a reference bump; the eager copy stays so the
//! paper's Table 7 row keeps measuring a copy.
//! [`clone_copy`] refuses a bare string, primitive or `byte[]`, which
//! have no generated `clone()`: the paper's "n/a" cells.

use crate::error::ModelError;
use crate::tree::TreeBuilder;
use crate::typeinfo::TypeRegistry;
use crate::value::Value;
use std::sync::Arc;

/// Deep-copies `value` via its generated `clone()`.
///
/// # Errors
///
/// Returns [`ModelError::NotSupported`] when the value is a bare
/// string/primitive/`byte[]` (no deep-clone method, per the paper's
/// Table 7).
pub fn clone_copy(value: &Value, _registry: &TypeRegistry) -> Result<Value, ModelError> {
    match value {
        Value::Array(_) | Value::Struct(_) => Ok(clone_unchecked(value)),
        other => Err(ModelError::NotSupported {
            type_name: other.type_label().to_string(),
            capability: "clone copy",
        }),
    }
}

/// The generated `clone()` body itself: a plain structural deep clone of
/// any value. The result shares no node block with `value`.
pub fn clone_unchecked(value: &Value) -> Value {
    match value {
        Value::Bytes(b) => Value::Bytes(Arc::from(&b[..])),
        Value::Array(_) | Value::Struct(_) => {
            let mut copy = TreeBuilder::new();
            deep(&mut copy, value);
            copy.finish()
                .expect("no level of a copy outgrows what the original's handles address")
        }
        leaf => leaf.clone(),
    }
}

fn deep(copy: &mut TreeBuilder, value: &Value) {
    match value {
        Value::Bytes(b) => copy.value(Value::Bytes(Arc::from(&b[..]))),
        Value::Array(items) => {
            copy.open(items.len());
            items.iter().for_each(|item| deep(copy, item));
            copy.close_array();
        }
        Value::Struct(s) => {
            copy.open(s.len());
            s.fields().for_each(|(_, field)| deep(copy, field));
            copy.close_struct(s.shape().clone());
        }
        leaf => copy.value(leaf.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor};
    use crate::value::StructValue;
    use std::sync::Arc;

    fn registry() -> TypeRegistry {
        TypeRegistry::builder()
            .register(TypeDescriptor::new(
                "Doc",
                vec![
                    FieldDescriptor::new("title", FieldType::String),
                    FieldDescriptor::new("payload", FieldType::Bytes),
                ],
            ))
            .build()
    }

    fn doc() -> Value {
        Value::Struct(
            StructValue::new("Doc")
                .with("title", "t")
                .with("payload", vec![1u8, 2]),
        )
    }

    #[test]
    fn clone_copy_is_equal_and_independent() {
        let r = registry();
        let v = doc();
        let mut copy = clone_copy(&v, &r).unwrap();
        assert_eq!(copy, v);
        let payload = copy.as_struct_mut().unwrap().get_mut("payload").unwrap();
        payload.as_bytes_mut().unwrap()[0] = 3;
        assert_eq!(
            v.as_struct().unwrap().get("payload"),
            Some(&Value::from(vec![1u8, 2]))
        );
    }

    #[test]
    fn strings_are_shared_by_clone() {
        let r = registry();
        let v = doc();
        let copy = clone_copy(&v, &r).unwrap();
        match (
            v.as_struct().unwrap().get("title"),
            copy.as_struct().unwrap().get("title"),
        ) {
            (Some(Value::String(a)), Some(Value::String(b))) => assert!(a.ptr_eq(b)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn uncloneable_values_are_rejected() {
        let r = registry();
        for v in [Value::string("s"), Value::from(vec![1u8]), Value::Int(3)] {
            assert!(matches!(
                clone_copy(&v, &r),
                Err(ModelError::NotSupported { .. })
            ));
        }
    }

    #[test]
    fn arrays_of_cloneables_are_cloneable() {
        let r = registry();
        let arr = Value::from(vec![doc(), doc()]);
        assert_eq!(clone_copy(&arr, &r).unwrap(), arr);
        // Only the root's kind decides: nested types need no registration.
        let unknown =
            Value::Struct(StructValue::new("Doc").with("child", StructValue::new("Mystery")));
        assert_eq!(clone_copy(&unknown, &r).unwrap(), unknown);
    }

    #[test]
    fn unchecked_clone_works_for_anything() {
        let v = Value::from(vec![9u8; 4]);
        assert_eq!(clone_unchecked(&v), v);
    }

    #[test]
    fn the_clone_shares_no_container_node() {
        let v = Value::from(vec![doc(), doc()]);
        let copy = clone_unchecked(&v);
        let (Value::Array(a), Value::Array(b)) = (&v, &copy) else {
            unreachable!()
        };
        assert!(!a.ptr_eq(b));
        assert_ne!(v.block(), copy.block());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_ne!(x.block(), y.block());
            let (x, y) = (x.as_struct().unwrap(), y.as_struct().unwrap());
            assert!(Arc::ptr_eq(x.shape(), y.shape()), "names are shared");
            assert!(!x.ptr_eq(y));
            match (x.get("payload"), y.get("payload")) {
                (Some(Value::Bytes(p)), Some(Value::Bytes(q))) => assert!(!Arc::ptr_eq(p, q)),
                _ => unreachable!(),
            }
        }
        // Where `Value::clone` shares all of them.
        let (Value::Array(a), Value::Array(c)) = (&v, &v.clone()) else {
            unreachable!()
        };
        assert!(a.ptr_eq(c));
    }
}
