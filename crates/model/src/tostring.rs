//! Canonical string rendering for cache keys — the `toString()` analog.
//!
//! The paper's fastest key-generation method concatenates the endpoint
//! URL, operation name and the `toString()` of every parameter (§4.1.2-B).
//! That only works when each parameter has a *value-based* `toString` —
//! `java.lang.Object`'s default renders a memory address and is unusable
//! as a key. We reproduce that constraint: structs must declare the
//! `has_to_string` capability, unregistered structs are rejected, and
//! `byte[]` is rejected (its Java `toString` is identity-based).

use crate::error::ModelError;
use crate::typeinfo::TypeRegistry;
use crate::value::Value;
use std::fmt::Write as _;

/// Renders a value to its canonical key string.
///
/// The rendering is unambiguous for the supported shapes: strings are
/// length-prefixed so `("ab","c")` and `("a","bc")` cannot collide when
/// concatenated by a caller.
///
/// # Errors
///
/// Returns [`ModelError::NotSupported`] for `byte[]` values and for struct
/// types that do not declare `has_to_string`, and
/// [`ModelError::UnknownType`] for unregistered structs.
pub fn to_string_key(value: &Value, registry: &TypeRegistry) -> Result<String, ModelError> {
    let mut out = String::with_capacity(32);
    render(value, registry, &mut out)?;
    Ok(out)
}

fn render(value: &Value, registry: &TypeRegistry, out: &mut String) -> Result<(), ModelError> {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Long(l) => {
            let _ = write!(out, "{l}L");
        }
        Value::Double(d) => {
            // Always include enough digits to distinguish distinct doubles.
            let _ = write!(out, "{d:?}");
        }
        Value::String(s) => {
            // Length prefix prevents concatenation ambiguity.
            let _ = write!(out, "{}:{s}", s.len());
        }
        Value::Bytes(_) => {
            return Err(ModelError::NotSupported {
                type_name: "bytes".to_string(),
                capability: "toString (byte[] toString is identity-based)",
            });
        }
        Value::Array(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(v, registry, out)?;
            }
            out.push(']');
        }
        Value::Struct(s) => {
            let descriptor = registry.require(s.type_name())?;
            if !descriptor.capabilities.has_to_string {
                return Err(ModelError::NotSupported {
                    type_name: s.type_name().to_string(),
                    capability: "toString (Object.toString is identity-based)",
                });
            }
            out.push_str(s.type_name());
            out.push('{');
            for (i, (name, v)) in s.fields().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(name);
                out.push('=');
                render(v, registry, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typeinfo::{Capabilities, FieldDescriptor, FieldType, TypeDescriptor};
    use crate::value::StructValue;

    fn registry() -> TypeRegistry {
        TypeRegistry::builder()
            .register(TypeDescriptor::new(
                "Query",
                vec![
                    FieldDescriptor::new("q", FieldType::String),
                    FieldDescriptor::new("max", FieldType::Int),
                ],
            ))
            .register(
                TypeDescriptor::new("NoToString", vec![]).with_capabilities(Capabilities {
                    has_to_string: false,
                    ..Capabilities::all()
                }),
            )
            .build()
    }

    #[test]
    fn scalars_render_distinctly() {
        let r = registry();
        assert_eq!(to_string_key(&Value::Null, &r).unwrap(), "null");
        assert_eq!(to_string_key(&Value::Bool(true), &r).unwrap(), "true");
        assert_eq!(to_string_key(&Value::Int(42), &r).unwrap(), "42");
        assert_eq!(to_string_key(&Value::Long(42), &r).unwrap(), "42L");
        assert_ne!(
            to_string_key(&Value::Int(42), &r).unwrap(),
            to_string_key(&Value::Long(42), &r).unwrap()
        );
        assert_eq!(to_string_key(&Value::string("ab"), &r).unwrap(), "2:ab");
    }

    #[test]
    fn string_length_prefix_prevents_concatenation_collisions() {
        let r = registry();
        let a = to_string_key(&Value::string("ab"), &r).unwrap()
            + &to_string_key(&Value::string("c"), &r).unwrap();
        let b = to_string_key(&Value::string("a"), &r).unwrap()
            + &to_string_key(&Value::string("bc"), &r).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn doubles_keep_precision() {
        let r = registry();
        let x = to_string_key(&Value::Double(0.1 + 0.2), &r).unwrap();
        let y = to_string_key(&Value::Double(0.3), &r).unwrap();
        assert_ne!(x, y);
    }

    #[test]
    fn structs_render_fields_in_order() {
        let r = registry();
        let v = Value::Struct(StructValue::new("Query").with("q", "rust").with("max", 10));
        assert_eq!(to_string_key(&v, &r).unwrap(), "Query{q=4:rust,max=10}");
    }

    #[test]
    fn arrays_render_recursively() {
        let r = registry();
        let v = Value::Array(vec![Value::Int(1), Value::string("x")].into());
        assert_eq!(to_string_key(&v, &r).unwrap(), "[1,1:x]");
    }

    #[test]
    fn unsupported_values_are_rejected() {
        let r = registry();
        assert!(to_string_key(&Value::Bytes(vec![1].into()), &r).is_err());
        let no_ts = Value::Struct(StructValue::new("NoToString"));
        assert!(matches!(
            to_string_key(&no_ts, &r),
            Err(ModelError::NotSupported { .. })
        ));
        let unknown = Value::Struct(StructValue::new("Mystery"));
        assert!(matches!(
            to_string_key(&unknown, &r),
            Err(ModelError::UnknownType(_))
        ));
        // Nested rejection propagates.
        let nested = Value::Array(vec![Value::Bytes(vec![0].into())].into());
        assert!(to_string_key(&nested, &r).is_err());
    }

    #[test]
    fn equal_values_render_equally() {
        let r = registry();
        let a = Value::Struct(StructValue::new("Query").with("q", "k").with("max", 3));
        let b = Value::Struct(StructValue::new("Query").with("q", "k").with("max", 3));
        assert_eq!(
            to_string_key(&a, &r).unwrap(),
            to_string_key(&b, &r).unwrap()
        );
    }
}
