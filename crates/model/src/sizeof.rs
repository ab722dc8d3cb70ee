//! Deep retained-size accounting for values — used by the paper's
//! Tables 8 and 9 ("Memory size of cache keys / cached objects").
//!
//! Sizes are estimates of live bytes (inline enum size plus owned heap
//! content), not allocator-rounded figures. Which strings are charged
//! where:
//!
//! - A string *value* (`Value::String`) is charged its content to every
//!   value that references it, shared or not; this matches how the paper
//!   reports per-entry cache footprint.
//! - A type name or field name is charged as a handle — one `Arc<str>`
//!   per use, no bytes. The bytes live once in the schema the name came
//!   from (the registry's descriptor, a serialized stream's descriptor
//!   table, the XML symbol table) and belong to no single value, as a
//!   Java instance does not carry its `Class`.
//!
//! Container nodes are charged in full to every value that reaches them:
//! two clones of one tree each report the whole tree.

use crate::value::Value;
use std::sync::Arc;

/// Approximate retained size of a value tree in bytes.
///
/// ```
/// use wsrc_model::{sizeof::deep_size, Value};
/// assert!(deep_size(&Value::string("hello")) > deep_size(&Value::Int(1)) - 1);
/// ```
pub fn deep_size(value: &Value) -> usize {
    let inline = std::mem::size_of::<Value>();
    inline + heap_size(value)
}

fn heap_size(value: &Value) -> usize {
    match value {
        Value::Null | Value::Bool(_) | Value::Int(_) | Value::Long(_) | Value::Double(_) => 0,
        Value::String(s) => s.len(),
        Value::Bytes(b) => b.len(),
        Value::Array(items) => items
            .iter()
            .map(|v| std::mem::size_of::<Value>() + heap_size(v))
            .sum(),
        Value::Struct(s) => {
            std::mem::size_of::<Arc<str>>()
                + s.fields()
                    .map(|(_, v)| std::mem::size_of::<(Arc<str>, Value)>() + heap_size(v))
                    .sum::<usize>()
        }
    }
}

/// Approximate size of the value as a *Java* object graph — the
/// accounting the paper's Table 9 "Java object" column uses.
///
/// Java instances do not carry field names or type names (those live in
/// the `Class`), so this counts: a 16-byte object header per object, an
/// 8-byte slot per field or array element, and string/byte content. This
/// intentionally differs from [`deep_size`], which reports what *our*
/// dynamic representation retains (a handle per name, 24-byte values);
/// the cache store uses [`deep_size`]-based accounting, the Table 9
/// reproduction uses this.
pub fn java_object_size(value: &Value) -> usize {
    const HEADER: usize = 16;
    const SLOT: usize = 8;
    match value {
        // Primitives live in their holder's slot; no extra heap.
        Value::Null | Value::Bool(_) | Value::Int(_) | Value::Long(_) | Value::Double(_) => 0,
        Value::String(s) => HEADER + SLOT + s.len(),
        Value::Bytes(b) => HEADER + b.len(),
        Value::Array(items) => {
            HEADER + SLOT * items.len() + items.iter().map(java_object_size).sum::<usize>()
        }
        Value::Struct(s) => {
            HEADER
                + s.fields()
                    .map(|(_, v)| SLOT + java_object_size(v))
                    .sum::<usize>()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::StructValue;

    #[test]
    fn scalars_have_fixed_size() {
        assert_eq!(deep_size(&Value::Null), deep_size(&Value::Int(5)));
        assert_eq!(
            deep_size(&Value::Bool(true)),
            deep_size(&Value::Double(1.5))
        );
    }

    #[test]
    fn strings_and_bytes_scale_with_content() {
        let short = deep_size(&Value::string("ab"));
        let long = deep_size(&Value::string("ab".repeat(50)));
        assert_eq!(long - short, 98);
        let b1 = deep_size(&Value::Bytes(vec![0; 10].into()));
        let b2 = deep_size(&Value::Bytes(vec![0; 1000].into()));
        assert_eq!(b2 - b1, 990);
    }

    #[test]
    fn structures_add_per_node_overhead() {
        let flat = Value::Bytes(vec![0; 100].into());
        let nested = Value::Array((0..10).map(|_| Value::Bytes(vec![0; 10].into())).collect());
        // Same payload bytes, but the array of ten values carries more
        // per-node overhead — the "complex vs simple" distinction behind
        // the paper's GoogleSearch vs CachedPage comparison.
        assert!(deep_size(&nested) > deep_size(&flat));
    }

    #[test]
    fn names_are_charged_as_handles_once_per_use() {
        // Same structure, wildly different name lengths: neither
        // accounting changes.
        let short = Value::Struct(StructValue::new("T").with("f", "xy"));
        let long = Value::Struct(
            StructValue::new("AVeryLongTypeNameIndeed").with("aVeryLongFieldNameIndeed", "xy"),
        );
        assert_eq!(java_object_size(&short), java_object_size(&long));
        assert_eq!(deep_size(&short), deep_size(&long));
        // One handle for the type and one per field, per use: two
        // structs of one shape are charged twice.
        let handle = std::mem::size_of::<Arc<str>>();
        let value = std::mem::size_of::<Value>();
        assert_eq!(deep_size(&short), value + handle + (handle + value) + 2);
        let two = Value::from(vec![short.clone(), short.clone()]);
        assert_eq!(deep_size(&two), value + 2 * deep_size(&short));
    }

    #[test]
    fn java_object_size_counts_content_and_slots() {
        let bytes = Value::Bytes(vec![0; 100].into());
        assert_eq!(java_object_size(&bytes), 16 + 100);
        let arr = Value::Array(vec![Value::Int(1), Value::Int(2)].into());
        assert_eq!(java_object_size(&arr), 16 + 8 * 2);
        let s = Value::string("abcd");
        assert_eq!(java_object_size(&s), 16 + 8 + 4);
    }

    #[test]
    fn size_is_monotone_in_fields() {
        let one = Value::Struct(StructValue::new("T").with("a", 1));
        let two = Value::Struct(StructValue::new("T").with("a", 1).with("b", 2));
        assert!(deep_size(&two) > deep_size(&one));
    }
}
