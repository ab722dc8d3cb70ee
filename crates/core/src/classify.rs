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

/// Chooses the cache-value representation for a concrete response object.
pub trait RepresentationSelector: Send + Sync {
    /// Picks a representation for `value`. `read_only` is the
    /// administrator's assertion from the operation policy (§4.2.4).
    fn select(
        &self,
        value: &Value,
        registry: &TypeRegistry,
        read_only: bool,
    ) -> ValueRepresentation;
}

/// The selector exactly as printed in the paper's §6 summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperSelector;

impl RepresentationSelector for PaperSelector {
    fn select(
        &self,
        value: &Value,
        registry: &TypeRegistry,
        read_only: bool,
    ) -> ValueRepresentation {
        // a) Immutable types (and administrator-asserted read-only
        //    objects) are shared.
        if value.is_deeply_immutable() || read_only {
            return ValueRepresentation::PassByReference;
        }
        let supports = registry.deep_capabilities(value);
        if supports.reflect_copyable {
            // b) Bean-type and array-type objects: reflection copy.
            ValueRepresentation::ReflectionCopy
        } else if supports.serializable {
            // c) Serializable objects: Java serialization.
            ValueRepresentation::Serialization
        } else {
            // d) Everything else: SAX event sequences.
            ValueRepresentation::SaxEvents
        }
    }
}

/// A refinement the paper's Table 7 numbers motivate: when a type carries
/// the generated deep `clone()`, cloning beats reflection, so prefer it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastestSelector;

impl RepresentationSelector for FastestSelector {
    fn select(
        &self,
        value: &Value,
        registry: &TypeRegistry,
        read_only: bool,
    ) -> ValueRepresentation {
        if value.is_deeply_immutable() || read_only {
            return ValueRepresentation::PassByReference;
        }
        let supports = registry.deep_capabilities(value);
        if supports.cloneable {
            ValueRepresentation::CloneCopy
        } else if supports.reflect_copyable {
            ValueRepresentation::ReflectionCopy
        } else if supports.serializable {
            ValueRepresentation::Serialization
        } else {
            ValueRepresentation::SaxEvents
        }
    }
}

/// A selector that always returns one fixed representation — used by the
/// benchmarks to force each column of Table 7 / series of Figures 3-4.
#[derive(Debug, Clone, Copy)]
pub struct FixedSelector(pub ValueRepresentation);

impl RepresentationSelector for FixedSelector {
    fn select(&self, _: &Value, _: &TypeRegistry, _: bool) -> ValueRepresentation {
        self.0
    }
}

/// Every representation `value` supports — the candidate set the
/// adaptive policy scores and the conversion targets a multi-form
/// entry may grow into (the paper's Table 7 column minus its "n/a"
/// cells). The XML-derived forms apply to any response; the
/// application-object forms require the matching registry capability,
/// and pass-by-reference additionally requires immutability or the
/// administrator's read-only assertion. Ordered as
/// [`ValueRepresentation::ALL_EXTENDED`].
pub fn candidate_representations(
    value: &Value,
    registry: &TypeRegistry,
    read_only: bool,
) -> Vec<ValueRepresentation> {
    let mut out = vec![
        ValueRepresentation::XmlMessage,
        ValueRepresentation::DomTree,
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
        let s = PaperSelector;
        assert_eq!(
            s.select(&Value::string("spelling"), &r, false),
            ValueRepresentation::PassByReference
        );
        assert_eq!(
            s.select(&Value::Int(1), &r, false),
            ValueRepresentation::PassByReference
        );
    }

    #[test]
    fn paper_rule_a_read_only_assertion_shares_mutables() {
        let r = registry();
        let s = PaperSelector;
        let bean = Value::Struct(StructValue::new("Bean").with("x", 1));
        assert_eq!(
            s.select(&bean, &r, true),
            ValueRepresentation::PassByReference
        );
    }

    #[test]
    fn paper_rule_b_beans_and_arrays_reflect() {
        let r = registry();
        let s = PaperSelector;
        let bean = Value::Struct(StructValue::new("Bean").with("x", 1));
        assert_eq!(
            s.select(&bean, &r, false),
            ValueRepresentation::ReflectionCopy
        );
        assert_eq!(
            s.select(&Value::Bytes(vec![1, 2]), &r, false),
            ValueRepresentation::ReflectionCopy
        );
        assert_eq!(
            s.select(&Value::Array(vec![Value::Int(1)]), &r, false),
            ValueRepresentation::ReflectionCopy
        );
    }

    #[test]
    fn paper_rule_c_serializables_serialize() {
        let r = registry();
        let s = PaperSelector;
        let ser_only = Value::Struct(StructValue::new("SerOnly"));
        assert_eq!(
            s.select(&ser_only, &r, false),
            ValueRepresentation::Serialization
        );
    }

    #[test]
    fn paper_rule_d_everything_else_sax() {
        let r = registry();
        let s = PaperSelector;
        let opaque = Value::Struct(StructValue::new("Opaque"));
        assert_eq!(s.select(&opaque, &r, false), ValueRepresentation::SaxEvents);
        let unknown = Value::Struct(StructValue::new("NeverRegistered"));
        assert_eq!(
            s.select(&unknown, &r, false),
            ValueRepresentation::SaxEvents
        );
    }

    #[test]
    fn fastest_selector_prefers_clone_when_available() {
        let r = registry();
        let s = FastestSelector;
        let bean = Value::Struct(StructValue::new("Bean").with("x", 1));
        assert_eq!(s.select(&bean, &r, false), ValueRepresentation::CloneCopy);
        // byte[] has no clone — falls to reflection, as in the paper.
        assert_eq!(
            s.select(&Value::Bytes(vec![1]), &r, false),
            ValueRepresentation::ReflectionCopy
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
        // Opaque types still have the three XML-derived forms.
        let o = candidate_representations(&Value::Struct(StructValue::new("Opaque")), &r, false);
        assert_eq!(
            o,
            vec![
                ValueRepresentation::XmlMessage,
                ValueRepresentation::DomTree,
                ValueRepresentation::SaxEvents,
            ]
        );
    }

    #[test]
    fn fixed_selector_is_constant() {
        let r = registry();
        let s = FixedSelector(ValueRepresentation::XmlMessage);
        assert_eq!(
            s.select(&Value::Int(1), &r, true),
            ValueRepresentation::XmlMessage
        );
    }
}
