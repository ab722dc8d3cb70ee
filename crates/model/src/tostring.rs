//! Canonical string rendering for cache keys — the `toString()` analog.
//!
//! The paper's fastest key-generation method concatenates the endpoint
//! URL, operation name and the `toString()` of every parameter (§4.1.2-B).
//! That only works when each parameter has a *value-based* `toString` —
//! `java.lang.Object`'s default renders a memory address and is unusable
//! as a key. We reproduce that constraint: a registered struct type
//! renders by value, an unregistered one is rejected, and `byte[]` is
//! rejected (its Java `toString` is identity-based).

use crate::error::ModelError;
use crate::typeinfo::TypeRegistry;
use crate::value::Value;
use std::io::Write as _;

/// Renders a value to its canonical key string.
///
/// The rendering is unambiguous for the supported shapes: strings and
/// struct field names are length-prefixed, so `("ab","c")` and
/// `("a","bc")` cannot collide when concatenated by a caller, and no
/// field name or value can pass for the text around it.
///
/// # Errors
///
/// Returns [`ModelError::NotSupported`] for `byte[]` values and
/// [`ModelError::UnknownType`] for unregistered structs.
pub fn to_string_key(value: &Value, registry: &TypeRegistry) -> Result<String, ModelError> {
    let mut out = Vec::with_capacity(32);
    render_into(value, registry, &mut out)?;
    // Everything rendered is UTF-8: `str`s and ASCII.
    Ok(String::from_utf8(out)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()))
}

/// [`to_string_key`], appending the rendering to `out` — how a cache key
/// is rendered into a buffer the thread reuses. On error `out` holds a
/// partial rendering; the caller discards it.
///
/// # Errors
///
/// Same conditions as [`to_string_key`].
pub fn render_into(
    value: &Value,
    registry: &TypeRegistry,
    out: &mut Vec<u8>,
) -> Result<(), ModelError> {
    match value {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Value::Int(i) => push_decimal(out, i64::from(*i)),
        Value::Long(l) => {
            push_decimal(out, *l);
            out.push(b'L');
        }
        Value::Double(d) => {
            // Always include enough digits to distinguish distinct doubles.
            let _ = write!(out, "{d:?}");
        }
        Value::String(s) => push_delimited(out, s),
        Value::Bytes(_) => {
            return Err(ModelError::NotSupported {
                type_name: "bytes".to_string(),
                capability: "toString (byte[] toString is identity-based)",
            });
        }
        Value::Array(items) => {
            out.push(b'[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                render_into(v, registry, out)?;
            }
            out.push(b']');
        }
        Value::Struct(s) => {
            registry.require(s.type_name())?;
            out.extend_from_slice(s.type_name().as_bytes());
            out.push(b'{');
            for (i, (name, v)) in s.fields().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                push_delimited(out, name);
                out.push(b'=');
                render_into(v, registry, out)?;
            }
            out.push(b'}');
        }
    }
    Ok(())
}

/// Appends `text` behind its byte length: `5:hello`. The length says
/// where the text ends, so nothing in it can pass for a delimiter.
pub fn push_delimited(out: &mut Vec<u8>, text: &str) {
    push_decimal(out, text.len() as i64);
    out.push(b':');
    out.extend_from_slice(text.as_bytes());
}

/// Appends `n` in decimal, as `{n}` formats it.
fn push_decimal(out: &mut Vec<u8>, n: i64) {
    // Most lengths and many values: one or two digits.
    match n {
        0..=9 => return out.push(b'0' + n as u8),
        10..=99 => return out.extend_from_slice(&[b'0' + (n / 10) as u8, b'0' + (n % 10) as u8]),
        _ => {}
    }
    if n < 0 {
        out.push(b'-');
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor};
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
        for n in [0, 7, -7, 10, i32::MIN, i32::MAX] {
            let got = to_string_key(&Value::Int(n), &r).unwrap();
            assert_eq!(got, n.to_string());
        }
        for n in [0, -1, i64::MIN, i64::MAX] {
            let got = to_string_key(&Value::Long(n), &r).unwrap();
            assert_eq!(got, format!("{n}L"));
        }
    }

    /// A field name holding the text that follows a name (`=`, a length,
    /// a value) renders differently from the fields it imitates.
    #[test]
    fn field_names_cannot_pass_for_the_text_around_them() {
        let r = TypeRegistry::builder()
            .register(TypeDescriptor::new(
                "Pair",
                vec![
                    FieldDescriptor::new("a", FieldType::String),
                    FieldDescriptor::new("b", FieldType::String),
                ],
            ))
            .build();
        let honest = Value::Struct(StructValue::new("Pair").with("a", "x").with("b", "y"));
        let forged = Value::Struct(StructValue::new("Pair").with("a=1:x,b", "y"));
        assert_ne!(
            to_string_key(&honest, &r).unwrap(),
            to_string_key(&forged, &r).unwrap()
        );
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
        assert_eq!(to_string_key(&v, &r).unwrap(), "Query{1:q=4:rust,3:max=10}");
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
        assert!(matches!(
            to_string_key(&Value::Bytes(vec![1].into()), &r),
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
