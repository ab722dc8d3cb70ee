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
//! for the paper's tables. The cache itself picks over
//! [`candidate_representations`], where every value is shareable — a
//! [`Value`] tree is copy-on-write — so rule a) always applies and the
//! copy forms are never candidates.

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
    let supports = registry.deep_capabilities(value);
    let mut applicable = Vec::with_capacity(3);
    if shareable || value.is_deeply_immutable() {
        applicable.push(ValueRepresentation::PassByReference);
    }
    if supports.reflect_copyable {
        applicable.push(ValueRepresentation::ReflectionCopy);
    }
    if supports.serializable {
        applicable.push(ValueRepresentation::Serialization);
    }
    paper_pick(&applicable)
}

/// The §6 table applied to a set of applicable representations: rules
/// a) to d) are a preference order over what the object supports
/// (sharing, reflection needing a bean or array type, serialization a
/// serializable one; SAX events always apply).
pub(crate) fn paper_pick(candidates: &[ValueRepresentation]) -> ValueRepresentation {
    [
        ValueRepresentation::PassByReference,
        ValueRepresentation::ReflectionCopy,
        ValueRepresentation::Serialization,
    ]
    .into_iter()
    .find(|repr| candidates.contains(repr))
    .unwrap_or(ValueRepresentation::SaxEvents)
}

/// Every representation `value` supports that is worth choosing — the
/// candidate set the adaptive policy scores and the targets an entry
/// may be converted to. The XML message, the SAX events and the shared
/// object apply to any response; serialization requires the registry
/// capability. Three forms are left out because a candidate beats each
/// on build cost, retrieve cost and size alike, so they are only ever
/// stored when forced: the DOM tree (by SAX events) and the reflection
/// and clone copies (by the shared object — same accounted size, and it
/// skips both the store-time and the per-hit copy). Ordered as
/// [`ValueRepresentation::ALL_EXTENDED`].
pub fn candidate_representations(
    value: &Value,
    registry: &TypeRegistry,
) -> Vec<ValueRepresentation> {
    let mut out = vec![
        ValueRepresentation::XmlMessage,
        ValueRepresentation::SaxEvents,
    ];
    if registry.deep_capabilities(value).serializable {
        out.push(ValueRepresentation::Serialization);
    }
    out.push(ValueRepresentation::PassByReference);
    out
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

    #[test]
    fn candidate_sets_hold_one_object_form() {
        let r = registry();
        let bean = Value::Struct(StructValue::new("Bean").with("x", 1));
        assert_eq!(
            candidate_representations(&bean, &r),
            vec![
                ValueRepresentation::XmlMessage,
                ValueRepresentation::SaxEvents,
                ValueRepresentation::Serialization,
                ValueRepresentation::PassByReference,
            ]
        );
        // Opaque types lose serialization only: sharing needs nothing
        // of the type. The dominated forms are never candidates.
        let opaque = Value::Struct(StructValue::new("Opaque"));
        assert_eq!(
            candidate_representations(&opaque, &r),
            vec![
                ValueRepresentation::XmlMessage,
                ValueRepresentation::SaxEvents,
                ValueRepresentation::PassByReference,
            ]
        );
        // So the §6 pick over a candidate set is always the shared
        // object, where the paper's Java table says reflection.
        for value in [&bean, &opaque, &Value::string("x")] {
            assert_eq!(
                paper_pick(&candidate_representations(value, &r)),
                ValueRepresentation::PassByReference
            );
        }
        assert_eq!(
            paper_choice(&bean, &r, false),
            ValueRepresentation::ReflectionCopy
        );
    }
}
