//! Bean-conformance validation: does a value match its registered type
//! descriptor? Used by services to assert their responses are well-typed
//! before serialization, and by tests as a structural oracle.

use crate::error::ModelError;
use crate::typeinfo::{FieldType, TypeRegistry};
use crate::value::Value;

/// Checks that `value` conforms to `expected` under `registry`:
/// primitives match their variants, arrays are homogeneous in the element
/// type, and structs carry only declared fields of the declared types.
/// `Null` is accepted anywhere a reference type is expected (Java
/// semantics: object fields are nullable, primitives are not).
///
/// # Errors
///
/// Returns [`ModelError::TypeMismatch`] naming the expectation and the
/// offending value, [`ModelError::UnknownType`] for unregistered structs,
/// and [`ModelError::UnknownField`] for undeclared fields.
pub fn validate(
    value: &Value,
    expected: &FieldType,
    registry: &TypeRegistry,
) -> Result<(), ModelError> {
    let mismatch = || ModelError::TypeMismatch {
        expected: expected.to_string(),
        found: value.type_label().to_string(),
    };
    match (expected, value) {
        // Reference types are nullable; primitives are not.
        (
            FieldType::String | FieldType::Bytes | FieldType::ArrayOf(_) | FieldType::Struct(_),
            Value::Null,
        ) => Ok(()),
        (FieldType::Bool, Value::Bool(_)) => Ok(()),
        (FieldType::Int, Value::Int(_)) => Ok(()),
        (FieldType::Long, Value::Long(_)) => Ok(()),
        (FieldType::Double, Value::Double(_)) => Ok(()),
        (FieldType::String, Value::String(_)) => Ok(()),
        (FieldType::Bytes, Value::Bytes(_)) => Ok(()),
        (FieldType::ArrayOf(inner), Value::Array(items)) => {
            for item in items.iter() {
                validate(item, inner, registry)?;
            }
            Ok(())
        }
        (FieldType::Struct(type_name), Value::Struct(s)) => {
            if s.type_name() != type_name {
                return Err(ModelError::TypeMismatch {
                    expected: type_name.clone(),
                    found: s.type_name().to_string(),
                });
            }
            let descriptor = registry.require(type_name)?;
            for (field_name, field_value) in s.fields() {
                let field =
                    descriptor
                        .field(field_name)
                        .ok_or_else(|| ModelError::UnknownField {
                            type_name: type_name.clone(),
                            field: field_name.to_string(),
                        })?;
                validate(field_value, &field.field_type, registry)?;
            }
            Ok(())
        }
        _ => Err(mismatch()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typeinfo::{FieldDescriptor, TypeDescriptor};
    use crate::value::StructValue;

    fn registry() -> TypeRegistry {
        TypeRegistry::builder()
            .register(TypeDescriptor::new(
                "Node",
                vec![
                    FieldDescriptor::new("name", FieldType::String),
                    FieldDescriptor::new("weight", FieldType::Double),
                    FieldDescriptor::new(
                        "children",
                        FieldType::ArrayOf(Box::new(FieldType::Struct("Node".into()))),
                    ),
                ],
            ))
            .build()
    }

    fn node(name: &str) -> Value {
        Value::Struct(
            StructValue::new("Node")
                .with("name", name)
                .with("weight", 1.5)
                .with("children", Vec::<Value>::new()),
        )
    }

    #[test]
    fn conforming_values_validate() {
        let r = registry();
        let ty = FieldType::Struct("Node".into());
        assert!(validate(&node("a"), &ty, &r).is_ok());
        let nested = Value::Struct(
            StructValue::new("Node")
                .with("name", "root")
                .with("children", vec![node("x"), node("y")]),
        );
        assert!(validate(&nested, &ty, &r).is_ok());
    }

    #[test]
    fn scalars_validate_strictly() {
        let r = registry();
        assert!(validate(&Value::Int(1), &FieldType::Int, &r).is_ok());
        assert!(validate(&Value::Long(1), &FieldType::Int, &r).is_err());
        assert!(validate(&Value::Int(1), &FieldType::Long, &r).is_err());
        assert!(validate(&Value::string("1"), &FieldType::Int, &r).is_err());
    }

    #[test]
    fn nulls_are_allowed_for_reference_types_only() {
        let r = registry();
        assert!(validate(&Value::Null, &FieldType::String, &r).is_ok());
        assert!(validate(&Value::Null, &FieldType::Struct("Node".into()), &r).is_ok());
        assert!(validate(
            &Value::Null,
            &FieldType::ArrayOf(Box::new(FieldType::Int)),
            &r
        )
        .is_ok());
        assert!(validate(&Value::Null, &FieldType::Int, &r).is_err());
        assert!(validate(&Value::Null, &FieldType::Bool, &r).is_err());
    }

    #[test]
    fn heterogeneous_arrays_are_rejected() {
        let r = registry();
        let ty = FieldType::ArrayOf(Box::new(FieldType::Int));
        assert!(validate(
            &Value::Array(vec![Value::Int(1), Value::Int(2)].into()),
            &ty,
            &r
        )
        .is_ok());
        assert!(validate(
            &Value::Array(vec![Value::Int(1), Value::string("2")].into()),
            &ty,
            &r
        )
        .is_err());
    }

    #[test]
    fn undeclared_fields_and_wrong_types_are_rejected() {
        let r = registry();
        let ty = FieldType::Struct("Node".into());
        let extra = Value::Struct(StructValue::new("Node").with("bogus", 1));
        assert!(matches!(
            validate(&extra, &ty, &r),
            Err(ModelError::UnknownField { .. })
        ));
        let wrong = Value::Struct(StructValue::new("Node").with("weight", "heavy"));
        assert!(matches!(
            validate(&wrong, &ty, &r),
            Err(ModelError::TypeMismatch { .. })
        ));
        let wrong_name = Value::Struct(StructValue::new("Leaf"));
        assert!(validate(&wrong_name, &ty, &r).is_err());
        let unknown = Value::Struct(StructValue::new("Ghost"));
        assert!(matches!(
            validate(&unknown, &FieldType::Struct("Ghost".into()), &r),
            Err(ModelError::UnknownType(_))
        ));
    }

    #[test]
    fn partial_structs_validate() {
        // Beans may leave fields unset (Java default values).
        let r = registry();
        let partial = Value::Struct(StructValue::new("Node").with("name", "only-name"));
        assert!(validate(&partial, &FieldType::Struct("Node".into()), &r).is_ok());
    }
}
