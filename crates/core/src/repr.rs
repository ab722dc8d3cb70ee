//! Cache-value data representations — the paper's Table 3.
//!
//! A [`StoredResponse`] is what sits in the cache table. Building one (on
//! a miss) and retrieving the application object from one (on a hit) have
//! per-representation costs; Table 7 of the paper measures the retrieval
//! side, and `wsrc-bench` reproduces it against these implementations.

use crate::error::CacheError;
use std::fmt;
use std::sync::Arc;
use wsrc_model::typeinfo::{FieldType, TypeRegistry};
use wsrc_model::value::Value;
use wsrc_model::{binser, deep_clone, reflect, sizeof};
use wsrc_soap::deserializer::{read_response_dom, read_response_events, read_response_xml};
use wsrc_soap::rpc::RpcOutcome;
use wsrc_xml::event::SaxEventSequence;
use wsrc_xml::XmlReader;

/// The six cache-value representations, in the paper's Table 7 order
/// (slowest to fastest retrieval).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueRepresentation {
    /// Cache the response XML text; a hit re-parses and re-deserializes.
    XmlMessage,
    /// Cache the recorded SAX events; a hit replays them through the
    /// deserializer (no parsing).
    SaxEvents,
    /// Cache the binary-serialized application object; a hit deserializes
    /// the bytes.
    Serialization,
    /// Cache the application object; a hit deep-copies it via run-time
    /// introspection. A measurement mode: never chosen, see
    /// [`PassByReference`](ValueRepresentation::PassByReference).
    ReflectionCopy,
    /// Cache the application object; a hit deep-copies it via the
    /// generated `clone()`. A measurement mode, like `ReflectionCopy`.
    CloneCopy,
    /// Cache the application object and *share* it with the client
    /// application. In the paper's Java this is only sound for immutable
    /// or asserted-read-only objects; here it is sound for every value,
    /// because a [`Value`] tree is copy-on-write — whoever writes through
    /// a shared node gets a node of their own — so this is the one
    /// object form the cache picks and the two copy forms above remain
    /// only so the paper's tables can measure what a copy costs.
    PassByReference,
    /// Cache the parsed DOM tree; a hit walks the tree into the
    /// application object. The paper's §3.3 names this as the
    /// post-parsing representation of DOM-based middleware; Axis is
    /// SAX-based so the paper's tables omit it — we provide it as a
    /// documented extension (cost lands between SAX events and the
    /// serialized object).
    DomTree,
}

impl ValueRepresentation {
    /// The six representations the paper's Table 7 measures, in its
    /// order. [`DomTree`](ValueRepresentation::DomTree) is excluded so
    /// the reproduced tables keep the paper's exact rows; use
    /// [`ALL_EXTENDED`](ValueRepresentation::ALL_EXTENDED) to include it.
    pub const ALL: [ValueRepresentation; 6] = [
        ValueRepresentation::XmlMessage,
        ValueRepresentation::SaxEvents,
        ValueRepresentation::Serialization,
        ValueRepresentation::ReflectionCopy,
        ValueRepresentation::CloneCopy,
        ValueRepresentation::PassByReference,
    ];

    /// Every representation including the DOM-tree extension.
    pub const ALL_EXTENDED: [ValueRepresentation; 7] = [
        ValueRepresentation::XmlMessage,
        ValueRepresentation::DomTree,
        ValueRepresentation::SaxEvents,
        ValueRepresentation::Serialization,
        ValueRepresentation::ReflectionCopy,
        ValueRepresentation::CloneCopy,
        ValueRepresentation::PassByReference,
    ];

    /// Number of representations (the length of
    /// [`ALL_EXTENDED`](ValueRepresentation::ALL_EXTENDED)); sizes
    /// per-representation metric arrays.
    pub const COUNT: usize = 7;

    /// Human-readable label matching the paper's tables and figures.
    pub fn label(&self) -> &'static str {
        match self {
            ValueRepresentation::XmlMessage => "XML message",
            ValueRepresentation::SaxEvents => "SAX events sequence",
            ValueRepresentation::Serialization => "Java serialization",
            ValueRepresentation::ReflectionCopy => "Copy by reflection",
            ValueRepresentation::CloneCopy => "Copy by clone",
            ValueRepresentation::PassByReference => "Pass by reference",
            ValueRepresentation::DomTree => "DOM tree",
        }
    }

    /// Stable kebab-case label for metric `repr` label values.
    pub fn metric_label(&self) -> &'static str {
        match self {
            ValueRepresentation::XmlMessage => "xml-message",
            ValueRepresentation::SaxEvents => "sax-events",
            ValueRepresentation::Serialization => "serialization",
            ValueRepresentation::ReflectionCopy => "reflection-copy",
            ValueRepresentation::CloneCopy => "clone-copy",
            ValueRepresentation::PassByReference => "pass-by-reference",
            ValueRepresentation::DomTree => "dom-tree",
        }
    }

    /// This representation's position in
    /// [`ALL_EXTENDED`](ValueRepresentation::ALL_EXTENDED) — the index
    /// into per-representation metric arrays.
    pub(crate) fn index(&self) -> usize {
        match self {
            ValueRepresentation::XmlMessage => 0,
            ValueRepresentation::DomTree => 1,
            ValueRepresentation::SaxEvents => 2,
            ValueRepresentation::Serialization => 3,
            ValueRepresentation::ReflectionCopy => 4,
            ValueRepresentation::CloneCopy => 5,
            ValueRepresentation::PassByReference => 6,
        }
    }
}

impl fmt::Display for ValueRepresentation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a cache miss produced, from which any representation can be built.
///
/// The XML bytes and the event sequence arrive as shared buffers: the
/// XML slice is the HTTP response body itself and the events are the
/// sequence recorded during deserialization, so building the
/// `XmlMessage` or `SaxEvents` representation is a reference-count bump
/// — no byte of the response is copied between socket read and store.
/// A miss records events only for a form that keeps them; an empty
/// sequence means none were, and a form that needs them records them
/// from `xml`.
#[derive(Debug, Clone, Copy)]
pub struct MissArtifacts<'m> {
    /// The raw response XML bytes, shared with the transport body.
    pub xml: &'m Arc<[u8]>,
    /// The SAX event sequence recorded while deserializing the response.
    pub events: &'m Arc<SaxEventSequence>,
    /// The deserialized application object.
    pub value: &'m Value,
}

/// The events the miss recorded — a reference bump — or, when it
/// recorded none (its call's form does not keep them, and this build is
/// a fallback down the chain), the events of the response XML, read
/// where it lies.
fn events_of(artifacts: MissArtifacts<'_>) -> Result<Arc<SaxEventSequence>, CacheError> {
    if !artifacts.events.is_empty() {
        return Ok(Arc::clone(artifacts.events));
    }
    let recorded = XmlReader::from_bytes(artifacts.xml)
        .and_then(XmlReader::read_sequence)
        .map_err(|e| CacheError::Soap(e.into()))?;
    Ok(Arc::new(recorded))
}

/// A response stored in the cache under some representation.
///
/// Shared pieces are wrapped in `Arc` so a stored entry can be retrieved
/// concurrently without copying the stored form itself.
#[derive(Debug, Clone)]
pub enum StoredResponse {
    /// Response XML bytes — the shared HTTP body slice itself.
    XmlMessage(Arc<[u8]>),
    /// Parsed DOM tree of the response.
    DomTree(Arc<wsrc_xml::Document>),
    /// Recorded post-parsing representation.
    SaxEvents(Arc<SaxEventSequence>),
    /// Binary-serialized application object.
    Serialized(Arc<[u8]>),
    /// Application object; retrieval copies by reflection.
    ReflectionCopy(Value),
    /// Application object; retrieval copies via `clone()`.
    CloneCopy(Value),
    /// Application object shared by reference: the tree the miss
    /// decoded, not a copy of it.
    SharedRef(Value),
}

/// The application object handed back on a cache hit: either a fresh
/// tree built for this hit, or the cached tree itself. Both are the
/// caller's to keep and to write to — a write through a shared tree
/// copies the nodes it touches first (see [`wsrc_model::value`]).
#[derive(Debug, Clone)]
pub enum ValueHandle {
    /// A fresh application object no one else holds.
    Owned(Value),
    /// The cached object itself (pass-by-reference): a reference bump.
    Shared(Value),
}

impl ValueHandle {
    /// Borrows the underlying value.
    pub fn as_value(&self) -> &Value {
        match self {
            ValueHandle::Owned(v) | ValueHandle::Shared(v) => v,
        }
    }

    /// Converts into the value; nothing is copied either way.
    pub fn into_value(self) -> Value {
        match self {
            ValueHandle::Owned(v) | ValueHandle::Shared(v) => v,
        }
    }

    /// Whether this handle shares the cached object.
    pub fn is_shared(&self) -> bool {
        matches!(self, ValueHandle::Shared(_))
    }
}

impl StoredResponse {
    /// Builds a stored entry under `repr` from the artifacts of a miss.
    ///
    /// The reflection- and clone-copy representations copy the response
    /// **at store time**, as §3.1 requires of a Java cache that must not
    /// alias an object the client application also holds.
    /// Pass-by-reference stores the decoded tree itself: the missing
    /// caller and the cache share it, and copy-on-write keeps either
    /// from seeing the other's writes.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::NotApplicable`] when the value does not
    /// support the requested representation (the paper's "n/a" cells).
    pub fn build(
        repr: ValueRepresentation,
        artifacts: MissArtifacts<'_>,
        registry: &TypeRegistry,
    ) -> Result<StoredResponse, CacheError> {
        match repr {
            ValueRepresentation::XmlMessage => {
                // Zero-copy: the stored entry shares the response body.
                Ok(StoredResponse::XmlMessage(Arc::clone(artifacts.xml)))
            }
            ValueRepresentation::DomTree => {
                // Rebuild the DOM from the recorded events (no re-parse).
                let document = wsrc_xml::Document::from_events(&*events_of(artifacts)?)
                    .map_err(|e| CacheError::Soap(e.into()))?;
                Ok(StoredResponse::DomTree(Arc::new(document)))
            }
            ValueRepresentation::SaxEvents => {
                // Zero-copy: the stored entry shares the recorded arena.
                Ok(StoredResponse::SaxEvents(events_of(artifacts)?))
            }
            ValueRepresentation::Serialization => {
                let bytes = binser::serialize_checked(artifacts.value, registry)?;
                Ok(StoredResponse::Serialized(Arc::from(
                    bytes.into_boxed_slice(),
                )))
            }
            ValueRepresentation::ReflectionCopy => {
                // Copy-on-store: the cache keeps its own private instance.
                let copy = reflect::reflect_copy(artifacts.value, registry)?;
                Ok(StoredResponse::ReflectionCopy(copy))
            }
            ValueRepresentation::CloneCopy => {
                let copy = deep_clone::clone_copy(artifacts.value, registry)?;
                Ok(StoredResponse::CloneCopy(copy))
            }
            ValueRepresentation::PassByReference => {
                Ok(StoredResponse::SharedRef(artifacts.value.clone()))
            }
        }
    }

    /// The representation of this entry.
    pub fn representation(&self) -> ValueRepresentation {
        match self {
            StoredResponse::XmlMessage(_) => ValueRepresentation::XmlMessage,
            StoredResponse::DomTree(_) => ValueRepresentation::DomTree,
            StoredResponse::SaxEvents(_) => ValueRepresentation::SaxEvents,
            StoredResponse::Serialized(_) => ValueRepresentation::Serialization,
            StoredResponse::ReflectionCopy(_) => ValueRepresentation::ReflectionCopy,
            StoredResponse::CloneCopy(_) => ValueRepresentation::CloneCopy,
            StoredResponse::SharedRef(_) => ValueRepresentation::PassByReference,
        }
    }

    /// Retrieves the application object — the cache-hit path whose cost
    /// the paper's Table 7 measures.
    ///
    /// `expected` and `registry` type the deserialization for the XML and
    /// SAX representations.
    ///
    /// # Errors
    ///
    /// Returns decoding errors if the stored form is corrupt, and
    /// propagates SOAP faults stored as XML (which the cache layer above
    /// refuses to store in the first place).
    pub fn retrieve(
        &self,
        expected: &FieldType,
        registry: &TypeRegistry,
    ) -> Result<ValueHandle, CacheError> {
        match self {
            StoredResponse::XmlMessage(xml) => {
                let text = std::str::from_utf8(xml).map_err(|e| {
                    CacheError::Unusable(format!("cached xml is not valid utf-8: {e}"))
                })?;
                match read_response_xml(text, expected, registry)? {
                    RpcOutcome::Return(v) => Ok(ValueHandle::Owned(v)),
                    RpcOutcome::Fault(f) => Err(CacheError::Soap(f.into())),
                }
            }
            StoredResponse::DomTree(document) => {
                match read_response_dom(document, expected, registry)? {
                    RpcOutcome::Return(v) => Ok(ValueHandle::Owned(v)),
                    RpcOutcome::Fault(f) => Err(CacheError::Soap(f.into())),
                }
            }
            StoredResponse::SaxEvents(events) => {
                match read_response_events(events, expected, registry)? {
                    RpcOutcome::Return(v) => Ok(ValueHandle::Owned(v)),
                    RpcOutcome::Fault(f) => Err(CacheError::Soap(f.into())),
                }
            }
            StoredResponse::Serialized(bytes) => {
                Ok(ValueHandle::Owned(binser::deserialize(bytes)?))
            }
            StoredResponse::ReflectionCopy(value) => {
                Ok(ValueHandle::Owned(reflect::reflect_copy(value, registry)?))
            }
            StoredResponse::CloneCopy(value) => {
                // The capability was proven at store time; the hit path is
                // the bare generated clone.
                Ok(ValueHandle::Owned(deep_clone::clone_unchecked(value)))
            }
            StoredResponse::SharedRef(value) => Ok(ValueHandle::Shared(value.clone())),
        }
    }

    /// Approximate memory footprint in bytes (the paper's Table 9). No
    /// wildcard arm: a new form does not compile until it says what it
    /// charges the byte budget.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn approximate_size(&self) -> usize {
        std::mem::size_of::<StoredResponse>()
            + match self {
                StoredResponse::XmlMessage(xml) => xml.len(),
                StoredResponse::DomTree(document) => document.approximate_size(),
                StoredResponse::SaxEvents(events) => events.approximate_size(),
                StoredResponse::Serialized(bytes) => bytes.len(),
                StoredResponse::ReflectionCopy(v)
                | StoredResponse::CloneCopy(v)
                | StoredResponse::SharedRef(v) => sizeof::deep_size(v),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrc_model::typeinfo::{Capabilities, FieldDescriptor, TypeDescriptor};
    use wsrc_model::value::StructValue;
    use wsrc_soap::deserializer::read_response_bytes_recording;
    use wsrc_soap::serializer::serialize_response;

    fn registry() -> TypeRegistry {
        TypeRegistry::builder()
            .register(TypeDescriptor::new(
                "Item",
                vec![
                    FieldDescriptor::new("name", FieldType::String),
                    FieldDescriptor::new("qty", FieldType::Int),
                ],
            ))
            .register(
                TypeDescriptor::new("NoClone", vec![FieldDescriptor::new("x", FieldType::Int)])
                    .with_capabilities(Capabilities::wsdl_generated()),
            )
            .build()
    }

    struct Fixture {
        xml: Arc<[u8]>,
        events: Arc<SaxEventSequence>,
        value: Value,
        expected: FieldType,
    }

    impl Fixture {
        fn artifacts(&self) -> MissArtifacts<'_> {
            MissArtifacts {
                xml: &self.xml,
                events: &self.events,
                value: &self.value,
            }
        }
    }

    fn fixture(value: Value, expected: FieldType) -> Fixture {
        let r = registry();
        let xml = serialize_response("urn:t", "op", "return", &value, &r).unwrap();
        let (outcome, events) =
            read_response_bytes_recording(xml.as_bytes(), &expected, &r).unwrap();
        assert_eq!(outcome.as_return().unwrap(), &value);
        Fixture {
            xml: Arc::from(xml.into_bytes()),
            events: Arc::new(events),
            // What the miss decoded: equal to the value made by hand,
            // and under the registry's shapes where that one has its own.
            value: outcome.into_return().unwrap(),
            expected,
        }
    }

    fn struct_fixture() -> Fixture {
        fixture(
            Value::Struct(
                StructValue::new("Item")
                    .with("name", "widget")
                    .with("qty", 3),
            ),
            FieldType::Struct("Item".into()),
        )
    }

    #[test]
    fn every_representation_retrieves_the_same_object() {
        let r = registry();
        let f = struct_fixture();
        let artifacts = f.artifacts();
        for repr in ValueRepresentation::ALL_EXTENDED {
            let stored = StoredResponse::build(repr, artifacts, &r)
                .unwrap_or_else(|e| panic!("{repr} failed to build: {e}"));
            assert_eq!(stored.representation(), repr);
            let handle = stored.retrieve(&f.expected, &r).unwrap();
            assert_eq!(handle.as_value(), &f.value, "{repr}");
        }
    }

    #[test]
    fn only_pass_by_reference_shares() {
        let r = registry();
        let f = struct_fixture();
        let artifacts = f.artifacts();
        for repr in ValueRepresentation::ALL {
            let stored = StoredResponse::build(repr, artifacts, &r).unwrap();
            let handle = stored.retrieve(&f.expected, &r).unwrap();
            assert_eq!(
                handle.is_shared(),
                repr == ValueRepresentation::PassByReference,
                "{repr}"
            );
        }
    }

    #[test]
    fn retrieved_copies_are_independent_of_the_cache() {
        let r = registry();
        let f = struct_fixture();
        let artifacts = f.artifacts();
        // Every form, the shared one included: its hit is the cached
        // tree itself, and the write below copies the node it lands on.
        for repr in ValueRepresentation::ALL_EXTENDED {
            let stored = StoredResponse::build(repr, artifacts, &r).unwrap();
            let mut first = stored.retrieve(&f.expected, &r).unwrap().into_value();
            // Client mutates what it got back…
            first.as_struct_mut().unwrap().set("qty", 999);
            // …the next hit still sees the original (no side effects, §3.1).
            let second = stored.retrieve(&f.expected, &r).unwrap();
            assert_eq!(second.as_value(), &f.value, "{repr}");
        }
    }

    #[test]
    fn the_stored_object_is_safe_from_later_mutation_of_the_response() {
        // §3.1: "The copy is required … at the time when the response
        // application objects from the server are stored into the cache."
        // The copy forms make it; the shared form does not need one.
        let r = registry();
        let f = struct_fixture();
        for repr in [
            ValueRepresentation::ReflectionCopy,
            ValueRepresentation::CloneCopy,
            ValueRepresentation::PassByReference,
        ] {
            let mut live = f.value.clone();
            let stored = StoredResponse::build(
                repr,
                MissArtifacts {
                    xml: &f.xml,
                    events: &f.events,
                    value: &live,
                },
                &r,
            )
            .unwrap();
            // The client mutates the object it was handed after the
            // cache stored it…
            live.as_struct_mut().unwrap().set("qty", -1);
            // …the cached object is unaffected.
            let got = stored.retrieve(&f.expected, &r).unwrap();
            assert_eq!(got.as_value(), &f.value, "{repr}");
        }
    }

    #[test]
    fn the_shared_form_stores_the_decoded_tree_itself() {
        let r = registry();
        let f = struct_fixture();
        let stored =
            StoredResponse::build(ValueRepresentation::PassByReference, f.artifacts(), &r).unwrap();
        let StoredResponse::SharedRef(kept) = &stored else {
            panic!("expected the shared form");
        };
        let miss = f.value.as_struct().unwrap();
        assert!(kept.as_struct().unwrap().ptr_eq(miss), "no store-time copy");
        // While the copy forms keep an instance of their own.
        for repr in [
            ValueRepresentation::ReflectionCopy,
            ValueRepresentation::CloneCopy,
        ] {
            match StoredResponse::build(repr, f.artifacts(), &r).unwrap() {
                StoredResponse::ReflectionCopy(kept) | StoredResponse::CloneCopy(kept) => {
                    assert!(!kept.as_struct().unwrap().ptr_eq(miss), "{repr}");
                }
                other => panic!("{repr} built {other:?}"),
            }
        }
    }

    #[test]
    fn the_three_object_forms_are_charged_alike() {
        let r = registry();
        let f = struct_fixture();
        let size = |repr| {
            StoredResponse::build(repr, f.artifacts(), &r)
                .unwrap()
                .approximate_size()
        };
        let shared = size(ValueRepresentation::PassByReference);
        assert_eq!(size(ValueRepresentation::ReflectionCopy), shared);
        assert_eq!(size(ValueRepresentation::CloneCopy), shared);
    }

    #[test]
    fn na_cells_match_paper_table7() {
        let r = registry();
        // Bare string (SpellingSuggestion): reflection and clone are n/a.
        let s = fixture(Value::string("suggestion"), FieldType::String);
        let art = s.artifacts();
        assert!(StoredResponse::build(ValueRepresentation::ReflectionCopy, art, &r).is_err());
        assert!(StoredResponse::build(ValueRepresentation::CloneCopy, art, &r).is_err());
        assert!(StoredResponse::build(ValueRepresentation::PassByReference, art, &r).is_ok());
        // Byte array (CachedPage): clone is n/a, reflection works.
        let b = fixture(Value::Bytes(vec![1; 64].into()), FieldType::Bytes);
        let art = b.artifacts();
        assert!(StoredResponse::build(ValueRepresentation::ReflectionCopy, art, &r).is_ok());
        assert!(StoredResponse::build(ValueRepresentation::CloneCopy, art, &r).is_err());
    }

    #[test]
    fn clone_requires_the_generated_method() {
        let r = registry();
        let f = fixture(
            Value::Struct(StructValue::new("NoClone").with("x", 1)),
            FieldType::Struct("NoClone".into()),
        );
        let art = f.artifacts();
        assert!(StoredResponse::build(ValueRepresentation::CloneCopy, art, &r).is_err());
        // But serialization and reflection work for this generated type.
        assert!(StoredResponse::build(ValueRepresentation::Serialization, art, &r).is_ok());
        assert!(StoredResponse::build(ValueRepresentation::ReflectionCopy, art, &r).is_ok());
    }

    #[test]
    fn sizes_follow_paper_table9_ordering_for_structs() {
        let r = registry();
        let f = struct_fixture();
        let art = f.artifacts();
        let xml = StoredResponse::build(ValueRepresentation::XmlMessage, art, &r).unwrap();
        let ser = StoredResponse::build(ValueRepresentation::Serialization, art, &r).unwrap();
        let obj = StoredResponse::build(ValueRepresentation::CloneCopy, art, &r).unwrap();
        // XML message is the largest for structured data.
        assert!(xml.approximate_size() > ser.approximate_size());
        assert!(xml.approximate_size() > obj.approximate_size());
    }

    #[test]
    fn corrupt_serialized_entries_error_cleanly() {
        let r = registry();
        let stored = StoredResponse::Serialized(Arc::from(vec![1u8, 2, 3].into_boxed_slice()));
        assert!(stored.retrieve(&FieldType::String, &r).is_err());
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<_> = ValueRepresentation::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(
            labels,
            [
                "XML message",
                "SAX events sequence",
                "Java serialization",
                "Copy by reflection",
                "Copy by clone",
                "Pass by reference"
            ]
        );
        assert_eq!(ValueRepresentation::DomTree.label(), "DOM tree");
        assert_eq!(ValueRepresentation::ALL_EXTENDED.len(), 7);
    }

    #[test]
    fn dom_tree_representation_is_parse_free_and_equivalent() {
        let r = registry();
        let f = struct_fixture();
        let artifacts = f.artifacts();
        let stored = StoredResponse::build(ValueRepresentation::DomTree, artifacts, &r).unwrap();
        assert_eq!(stored.representation(), ValueRepresentation::DomTree);
        let got = stored.retrieve(&f.expected, &r).unwrap();
        assert_eq!(got.as_value(), &f.value);
        assert!(
            stored.approximate_size() > f.xml.len(),
            "DOM trees cost more memory than text"
        );
    }

    /// A miss that recorded nothing still builds every form: the event
    /// forms record from the XML, equal to what the miss would have
    /// recorded.
    #[test]
    fn event_forms_record_from_the_xml_when_the_miss_did_not() {
        let r = registry();
        let f = struct_fixture();
        let none = Arc::new(SaxEventSequence::new());
        let artifacts = MissArtifacts {
            xml: &f.xml,
            events: &none,
            value: &f.value,
        };
        for repr in ValueRepresentation::ALL_EXTENDED {
            let stored = StoredResponse::build(repr, artifacts, &r).unwrap();
            assert_eq!(stored.approximate_size(), {
                StoredResponse::build(repr, f.artifacts(), &r)
                    .unwrap()
                    .approximate_size()
            });
            let handle = stored.retrieve(&f.expected, &r).unwrap();
            assert_eq!(handle.as_value(), &f.value, "{repr}");
        }
        match StoredResponse::build(ValueRepresentation::SaxEvents, artifacts, &r).unwrap() {
            StoredResponse::SaxEvents(events) => assert_eq!(*events, *f.events),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shared_handles_alias_the_cached_object() {
        let r = registry();
        let f = struct_fixture();
        let art = f.artifacts();
        let stored = StoredResponse::build(ValueRepresentation::PassByReference, art, &r).unwrap();
        let h1 = stored.retrieve(&f.expected, &r).unwrap();
        let h2 = stored.retrieve(&f.expected, &r).unwrap();
        match (&h1, &h2) {
            (ValueHandle::Shared(Value::Struct(a)), ValueHandle::Shared(Value::Struct(b))) => {
                assert!(a.ptr_eq(b))
            }
            _ => panic!("expected shared handles"),
        }
    }
}
