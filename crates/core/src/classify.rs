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

use crate::repr::ValueRepresentation;
use wsrc_model::typeinfo::TypeRegistry;
use wsrc_model::Value;

/// The §6 table: the representation the paper picks for `value`.
/// `read_only` is the administrator's assertion from the operation
/// policy (§4.2.4).
pub fn paper_choice(
    value: &Value,
    registry: &TypeRegistry,
    read_only: bool,
) -> ValueRepresentation {
    paper_pick(&candidate_representations(value, registry, read_only))
}

/// The §6 table applied to a set of applicable representations: rules
/// a) to d) are a preference order over what the object supports, and
/// [`candidate_representations`] already says what that is (sharing
/// needs immutability or the read-only assertion, reflection a bean or
/// array type, serialization a serializable one; SAX events always
/// apply).
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
/// may be converted to (the paper's Table 7 column minus its "n/a"
/// cells). The XML message and SAX events apply to any response; the
/// application-object forms require the matching registry capability,
/// and pass-by-reference additionally requires immutability or the
/// administrator's read-only assertion. The DOM tree is left out: SAX
/// events beat it on build cost, retrieve cost and size alike, so it is
/// only ever stored when forced. Ordered as
/// [`ValueRepresentation::ALL_EXTENDED`].
pub fn candidate_representations(
    value: &Value,
    registry: &TypeRegistry,
    read_only: bool,
) -> Vec<ValueRepresentation> {
    let mut out = vec![
        ValueRepresentation::XmlMessage,
        ValueRepresentation::SaxEvents,
    ];
    let supports = registry.deep_capabilities(value);
    if supports.serializable {
        out.push(ValueRepresentation::Serialization);
    }
    if supports.reflect_copyable {
        out.push(ValueRepresentation::ReflectionCopy);
    }
    if supports.cloneable {
        out.push(ValueRepresentation::CloneCopy);
    }
    if value.is_deeply_immutable() || read_only {
        out.push(ValueRepresentation::PassByReference);
    }
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
    fn candidate_sets_track_capabilities() {
        let r = registry();
        let bean = Value::Struct(StructValue::new("Bean").with("x", 1));
        let c = candidate_representations(&bean, &r, false);
        assert!(c.contains(&ValueRepresentation::XmlMessage));
        assert!(c.contains(&ValueRepresentation::SaxEvents));
        assert!(c.contains(&ValueRepresentation::ReflectionCopy));
        assert!(c.contains(&ValueRepresentation::CloneCopy));
        assert!(!c.contains(&ValueRepresentation::PassByReference));
        // The read-only assertion unlocks sharing for the same object.
        assert!(candidate_representations(&bean, &r, true)
            .contains(&ValueRepresentation::PassByReference));
        // Immutables share without any assertion; no object copies.
        let s = candidate_representations(&Value::string("x"), &r, false);
        assert!(s.contains(&ValueRepresentation::PassByReference));
        assert!(!s.contains(&ValueRepresentation::ReflectionCopy));
        // Opaque types still have the XML message and the events; the
        // dominated DOM tree is never a candidate.
        let o = candidate_representations(&Value::Struct(StructValue::new("Opaque")), &r, false);
        assert_eq!(
            o,
            vec![
                ValueRepresentation::XmlMessage,
                ValueRepresentation::SaxEvents,
            ]
        );
        assert!(!c.contains(&ValueRepresentation::DomTree));
    }
}
