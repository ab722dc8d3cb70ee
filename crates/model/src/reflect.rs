//! Deep copy through run-time introspection — the reflection-API analog.
//!
//! The paper's reflection copier (§4.2.3-B) handles bean-type and
//! array-type objects: it creates a new instance with the default
//! constructor, then walks the getters/setters, recursively copying
//! mutable field values and sharing immutable ones. This module does the
//! same over [`Value`]: struct nodes are rebuilt through descriptor
//! lookups and name-based field access (paying the genuine "reflection"
//! overhead), arrays element-wise, immutable leaves shared. The copy is
//! built as one tree ([`TreeBuilder`]) and its structs carry the
//! descriptor's own shape — a Java instance does not carry its field
//! names either.

use crate::error::ModelError;
use crate::tree::TreeBuilder;
use crate::typeinfo::{StructPlan, TypeRegistry};
use crate::value::{Shape, Value};
use std::sync::Arc;

/// Deep-copies `value` using run-time introspection.
///
/// Applicable to structs (every struct in the tree must be registered:
/// a registered type is a bean), arrays, and `byte[]`. A bare immutable
/// value (string/primitive) is *not* accepted — those are shared, never
/// copied, matching the paper's Table 7 "n/a" cell for the
/// SpellingSuggestion response.
///
/// The copy shares no node block with `value` (it is an eager copy,
/// unlike `Value::clone()`); its containers are one exact-fit block per
/// nesting level, and its strings are `value`'s own.
///
/// # Errors
///
/// Returns [`ModelError::NotSupported`] for a bare string or primitive,
/// and [`ModelError::UnknownType`] for unregistered structs.
pub fn reflect_copy(value: &Value, registry: &TypeRegistry) -> Result<Value, ModelError> {
    match value {
        Value::Bytes(b) => Ok(Value::Bytes(Arc::from(&b[..]))),
        Value::Array(_) | Value::Struct(_) => {
            let mut copy = TreeBuilder::new();
            copy_into(&mut copy, value, None, registry)?;
            copy.finish()
        }
        other => Err(ModelError::NotSupported {
            type_name: other.type_label().to_string(),
            capability: "reflection copy (not a bean or array type)",
        }),
    }
}

/// `declared` is the plan the parent's descriptor predicts for struct
/// nodes under `value`; it saves the by-name lookup when it matches.
fn copy_into(
    copy: &mut TreeBuilder,
    value: &Value,
    declared: Option<&StructPlan>,
    registry: &TypeRegistry,
) -> Result<(), ModelError> {
    match value {
        // Immutable leaves are shared, not copied (paper §4.2.4).
        Value::Null
        | Value::Bool(_)
        | Value::Int(_)
        | Value::Long(_)
        | Value::Double(_)
        | Value::String(_) => copy.value(value.clone()),
        Value::Bytes(b) => copy.value(Value::Bytes(Arc::from(&b[..]))),
        Value::Array(items) => {
            copy.open(items.len());
            for item in items.iter() {
                copy_into(copy, item, declared, registry)?;
            }
            copy.close_array();
        }
        Value::Struct(s) => {
            // "Reflection": look the type up, instantiate via the default
            // constructor, then copy field-by-field through named access.
            let plan = registry
                .plan_for(s, declared)
                .ok_or_else(|| ModelError::UnknownType(s.type_name().to_string()))?;
            let descriptor = plan.descriptor();
            copy.open(s.len());
            let mut declared_present = 0;
            for (slot, field) in descriptor.fields.iter().enumerate() {
                // Getter by name…
                if let Some(v) = s.get(&field.name) {
                    // …setter by name.
                    copy_into(copy, v, plan.field_plan(slot, registry), registry)?;
                    declared_present += 1;
                }
            }
            if declared_present == s.len() && declared_present == descriptor.fields.len() {
                copy.close_struct(plan.shape().clone());
                return Ok(());
            }
            // Fields present on the instance but absent from the
            // descriptor would be silently dropped; treat that as a
            // mismatch instead of corrupting data.
            let undeclared = || {
                let fields = s.fields().zip(s.shape().names());
                fields.filter(|(_, name)| descriptor.field(name).is_none())
            };
            for ((_, v), _) in undeclared() {
                copy_into(copy, v, None, registry)?;
            }
            let declared = descriptor.fields.iter().map(|f| &f.name);
            let names = declared
                .filter(|name| s.get(name).is_some())
                .chain(undeclared().map(|(_, name)| name));
            copy.close_struct(Arc::new(Shape::new(
                descriptor.name.clone(),
                names.cloned(),
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizeof::deep_size;
    use crate::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor};
    use crate::value::{StructValue, BLOCK_HEADER};

    fn registry() -> TypeRegistry {
        TypeRegistry::builder()
            .register(TypeDescriptor::new(
                "Pair",
                vec![
                    FieldDescriptor::new("left", FieldType::String),
                    FieldDescriptor::new("right", FieldType::Struct("Leaf".into())),
                ],
            ))
            .register(TypeDescriptor::new(
                "Leaf",
                vec![FieldDescriptor::new("data", FieldType::Bytes)],
            ))
            .build()
    }

    fn pair() -> Value {
        Value::Struct(StructValue::new("Pair").with("left", "L").with(
            "right",
            Value::Struct(StructValue::new("Leaf").with("data", vec![1u8, 2, 3])),
        ))
    }

    #[test]
    fn copy_equals_original() {
        let r = registry();
        let v = pair();
        assert_eq!(reflect_copy(&v, &r).unwrap(), v);
    }

    #[test]
    fn copy_is_deep_for_mutables() {
        let r = registry();
        let v = pair();
        let mut copy = reflect_copy(&v, &r).unwrap();
        // Mutate nested bytes in the copy…
        let leaf = copy
            .as_struct_mut()
            .unwrap()
            .get_mut("right")
            .unwrap()
            .as_struct_mut()
            .unwrap();
        leaf.get_mut("data").unwrap().as_bytes_mut().unwrap()[0] = 99;
        // …original unchanged.
        let orig_data = v
            .as_struct()
            .unwrap()
            .get("right")
            .unwrap()
            .as_struct()
            .unwrap()
            .get("data")
            .unwrap();
        assert_eq!(orig_data, &Value::from(vec![1u8, 2, 3]));
    }

    #[test]
    fn immutable_strings_are_shared_not_copied() {
        let r = registry();
        let v = pair();
        let copy = reflect_copy(&v, &r).unwrap();
        let orig_left = v.as_struct().unwrap().get("left").unwrap();
        let copy_left = copy.as_struct().unwrap().get("left").unwrap();
        match (orig_left, copy_left) {
            (Value::String(a), Value::String(b)) => assert!(a.ptr_eq(b)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn arrays_and_byte_arrays_are_copyable() {
        let r = registry();
        let bytes = Value::from(vec![5u8; 8]);
        assert_eq!(reflect_copy(&bytes, &r).unwrap(), bytes);
        let arr = Value::from(vec![pair(), Value::Int(7)]);
        assert_eq!(reflect_copy(&arr, &r).unwrap(), arr);
    }

    #[test]
    fn bare_immutables_are_rejected() {
        let r = registry();
        assert!(matches!(
            reflect_copy(&Value::string("s"), &r),
            Err(ModelError::NotSupported { .. })
        ));
        assert!(reflect_copy(&Value::Int(1), &r).is_err());
        assert!(reflect_copy(&Value::Null, &r).is_err());
    }

    #[test]
    fn unknown_types_are_rejected() {
        let r = registry();
        let unknown = Value::Struct(StructValue::new("Mystery"));
        assert!(matches!(
            reflect_copy(&unknown, &r),
            Err(ModelError::UnknownType(_))
        ));
        // Nested failures propagate.
        let nested = Value::Struct(StructValue::new("Pair").with("left", unknown));
        assert!(matches!(
            reflect_copy(&nested, &r),
            Err(ModelError::UnknownType(_))
        ));
    }

    #[test]
    fn extra_fields_not_in_descriptor_are_still_copied() {
        let r = registry();
        let v = Value::Struct(StructValue::new("Pair").with("left", "x").with("extra", 9));
        let copy = reflect_copy(&v, &r).unwrap();
        assert_eq!(copy.as_struct().unwrap().get("extra"), Some(&Value::Int(9)));
    }

    #[test]
    fn a_copy_is_one_exact_block_per_level() {
        let r = TypeRegistry::builder()
            .merge(&registry())
            .register(TypeDescriptor::new(
                "Wide",
                (0..13)
                    .map(|i| FieldDescriptor::new(format!("f{i}"), FieldType::Int))
                    .chain([FieldDescriptor::new(
                        "pairs",
                        FieldType::ArrayOf(Box::new(FieldType::Struct("Pair".into()))),
                    )])
                    .collect(),
            ))
            .build();
        // 13 of 14 declared fields present plus one undeclared.
        let mut wide = StructValue::new("Wide");
        for i in 0..12 {
            wide.set(format!("f{i}"), i);
        }
        wide.set("pairs", vec![pair(), pair(), pair()]);
        wide.set("extra", 1);
        let v = Value::from(vec![Value::Struct(wide)]);
        let copy = reflect_copy(&v, &r).unwrap();
        assert_eq!(copy, v);
        // [Wide] / Wide's 14 / 3 pairs / 3 x (left, right) / 3 x data,
        // the three byte buffers, and the source's own three strings.
        let nodes = [1, 14, 3, 6, 3].map(|n| BLOCK_HEADER + n * std::mem::size_of::<Value>());
        // The pairs carry the registry's shape; Wide, a field short and
        // one over, a shape of its own: "Wide" and fourteen names, 36
        // bytes between them, each a handle and a block.
        let handle = std::mem::size_of::<Arc<str>>();
        let wide_shape = BLOCK_HEADER
            + std::mem::size_of::<Shape>()
            + (BLOCK_HEADER + 4)
            + 14 * (handle + BLOCK_HEADER)
            + 36;
        assert_eq!(
            deep_size(&copy),
            std::mem::size_of::<Value>()
                + nodes.iter().sum::<usize>()
                + 3 * (BLOCK_HEADER + 3)
                + 3 * (BLOCK_HEADER + 1)
                + wide_shape
        );
    }

    #[test]
    fn a_fully_populated_copy_carries_the_descriptors_shape() {
        let r = registry();
        let copy = reflect_copy(&pair(), &r).unwrap();
        let copy = copy.as_struct().unwrap();
        assert!(Arc::ptr_eq(copy.shape(), r.plan("Pair").unwrap().shape()));
        assert!(!Arc::ptr_eq(
            copy.shape(),
            pair().as_struct().unwrap().shape()
        ));
    }

    #[test]
    fn the_copy_shares_no_container_node() {
        let r = registry();
        let v = Value::from(vec![pair(), pair()]);
        let copy = reflect_copy(&v, &r).unwrap();
        let (Value::Array(a), Value::Array(b)) = (&v, &copy) else {
            unreachable!()
        };
        assert!(!a.ptr_eq(b));
        assert_ne!(v.block(), copy.block());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_ne!(x.block(), y.block());
            let (x, y) = (x.as_struct().unwrap(), y.as_struct().unwrap());
            assert!(!x.ptr_eq(y));
            let leaf = |s: &StructValue| s.get("right").unwrap().as_struct().unwrap().clone();
            assert!(!leaf(x).ptr_eq(&leaf(y)));
            assert_ne!(
                Value::Struct(leaf(x)).block(),
                Value::Struct(leaf(y)).block()
            );
            match (leaf(x).get("data"), leaf(y).get("data")) {
                (Some(Value::Bytes(p)), Some(Value::Bytes(q))) => assert!(!Arc::ptr_eq(p, q)),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn missing_fields_are_simply_absent() {
        let r = registry();
        let v = Value::Struct(StructValue::new("Pair").with("left", "only"));
        let copy = reflect_copy(&v, &r).unwrap();
        assert_eq!(copy.as_struct().unwrap().len(), 1);
    }
}
