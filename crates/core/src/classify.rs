//! Dynamic representation selection — the paper's §6 "optimal
//! configuration".
//!
//! "At run time, middleware can dynamically classify the target objects
//! … without requiring any configuration by an administrator":
//!
//! | object class                              | representation    |
//! |-------------------------------------------|-------------------|
//! | immutable (String, primitives)            | pass by reference |
//! | bean-type / array-type                    | copy by reflection|
//! | serializable                              | Java serialization|
//! | anything else                             | SAX event sequence|
//!
//! The table is about Java objects, where sharing a mutable object lets
//! one holder's write reach the other. [`paper_choice`] reproduces it
//! for the paper's tables. The cache itself does not classify: a
//! [`Value`] tree is copy-on-write, so every value is shareable, rule a)
//! always applies and the copy forms are never picked.

use crate::repr::ValueRepresentation;
use wsrc_model::typeinfo::TypeRegistry;
use wsrc_model::Value;

/// The §6 table as the paper states it, for a Java object graph shaped
/// like `value`: `shareable` says whether aliasing it is known to be
/// harmless beyond what its type shows (the paper's read-only assertion,
/// §4.2.4). Used by `reproduce`, the examples and the tests that check
/// the paper's configuration; the cache does not consult it.
pub fn paper_choice(
    value: &Value,
    registry: &TypeRegistry,
    shareable: bool,
) -> ValueRepresentation {
    // Rules a) to d) are a preference order over what the object
    // supports; SAX events always apply.
    let supports = registry.deep_capabilities(value);
    if shareable || value.is_deeply_immutable() {
        ValueRepresentation::PassByReference
    } else if supports.reflect_copyable {
        ValueRepresentation::ReflectionCopy
    } else if supports.serializable {
        ValueRepresentation::Serialization
    } else {
        ValueRepresentation::SaxEvents
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrc_model::typeinfo::{Capabilities, FieldDescriptor, FieldType, TypeDescriptor};
    use wsrc_model::value::StructValue;

    fn registry() -> TypeRegistry {
        TypeRegistry::builder()
            .register(TypeDescriptor::new(
                "Bean",
                vec![FieldDescriptor::new("x", FieldType::Int)],
            ))
            .register(
                TypeDescriptor::new("SerOnly", vec![]).with_capabilities(Capabilities {
                    serializable: true,
                    bean: false,
                    cloneable: false,
                    has_to_string: false,
                }),
            )
            .register(TypeDescriptor::new("Opaque", vec![]).with_capabilities(Capabilities::none()))
            .build()
    }

    #[test]
    fn paper_rule_a_immutables_pass_by_reference() {
        let r = registry();
        assert_eq!(
            paper_choice(&Value::string("spelling"), &r, false),
            ValueRepresentation::PassByReference
        );
        assert_eq!(
            paper_choice(&Value::Int(1), &r, false),
            ValueRepresentation::PassByReference
        );
    }

    #[test]
    fn paper_rule_a_read_only_assertion_shares_mutables() {
        let r = registry();
        let bean = Value::Struct(StructValue::new("Bean").with("x", 1));
        assert_eq!(
            paper_choice(&bean, &r, true),
            ValueRepresentation::PassByReference
        );
    }

    #[test]
    fn paper_rule_b_beans_and_arrays_reflect() {
        let r = registry();
        let bean = Value::Struct(StructValue::new("Bean").with("x", 1));
        assert_eq!(
            paper_choice(&bean, &r, false),
            ValueRepresentation::ReflectionCopy
        );
        assert_eq!(
            paper_choice(&Value::Bytes(vec![1, 2].into()), &r, false),
            ValueRepresentation::ReflectionCopy
        );
        assert_eq!(
            paper_choice(&Value::Array(vec![Value::Int(1)].into()), &r, false),
            ValueRepresentation::ReflectionCopy
        );
    }

    #[test]
    fn paper_rule_c_serializables_serialize() {
        let r = registry();
        let ser_only = Value::Struct(StructValue::new("SerOnly"));
        assert_eq!(
            paper_choice(&ser_only, &r, false),
            ValueRepresentation::Serialization
        );
    }

    #[test]
    fn paper_rule_d_everything_else_sax() {
        let r = registry();
        let opaque = Value::Struct(StructValue::new("Opaque"));
        assert_eq!(
            paper_choice(&opaque, &r, false),
            ValueRepresentation::SaxEvents
        );
        let unknown = Value::Struct(StructValue::new("NeverRegistered"));
        assert_eq!(
            paper_choice(&unknown, &r, false),
            ValueRepresentation::SaxEvents
        );
    }
}
