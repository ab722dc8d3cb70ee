//! What the value model shares and what it never does, on the paper's
//! three Google responses: names are the registry's own handles, eager
//! copies share names but no container node.

use std::sync::Arc;
use wsrcache::model::deep_clone::clone_copy;
use wsrcache::model::reflect::reflect_copy;
use wsrcache::model::typeinfo::{FieldType, TypeRegistry};
use wsrcache::model::Value;
use wsrcache::services::dispatch::SoapService;
use wsrcache::services::google::{self, GoogleService};
use wsrcache::soap::deserializer::read_response_xml_recording;
use wsrcache::soap::serializer::serialize_response;
use wsrcache::soap::RpcRequest;
use wsrcache::xml::event::SaxEventSequence;

/// One Google operation's response in every form a miss produces.
pub struct Fixture {
    pub operation: &'static str,
    pub return_type: FieldType,
    /// The value the reader decoded from `xml` — what a miss hands on.
    pub value: Value,
    pub xml: Arc<[u8]>,
    pub events: Arc<SaxEventSequence>,
}

/// SpellingSuggestion (a string), CachedPage (bytes), GoogleSearch (a
/// struct of arrays of structs), through the real service and reader.
pub fn google_fixtures() -> Vec<Fixture> {
    let service = GoogleService::new();
    let registry = google::registry();
    let request = |op: &str| RpcRequest::new(google::NAMESPACE, op).with_param("key", "k");
    let specs = [
        (
            "doSpellingSuggestion",
            request("doSpellingSuggestion").with_param("phrase", "sharring"),
            FieldType::String,
        ),
        (
            "doGetCachedPage",
            request("doGetCachedPage").with_param("url", "http://sharing.test/"),
            FieldType::Bytes,
        ),
        (
            "doGoogleSearch",
            request("doGoogleSearch")
                .with_param("q", "sharing")
                .with_param("start", 0)
                .with_param("maxResults", 10)
                .with_param("filter", true)
                .with_param("restrict", "")
                .with_param("safeSearch", false)
                .with_param("lr", "")
                .with_param("ie", "utf-8")
                .with_param("oe", "utf-8"),
            FieldType::Struct("GoogleSearchResult".into()),
        ),
    ];
    specs
        .into_iter()
        .map(|(operation, request, return_type)| {
            let served = service.call(&request).expect("the dummy service answers");
            let xml =
                serialize_response(google::NAMESPACE, operation, "return", &served, &registry)
                    .expect("responses serialize");
            let (outcome, events) = read_response_xml_recording(&xml, &return_type, &registry)
                .expect("the reader accepts the serializer's output");
            let value = outcome.into_return().expect("not a fault");
            assert_eq!(value, served, "{operation} does not survive a round trip");
            Fixture {
                operation,
                return_type,
                value,
                xml: Arc::from(xml.into_bytes()),
                events: Arc::new(events),
            }
        })
        .collect()
}

/// Calls `visit` on every struct under `value`, the root included.
fn for_each_struct(value: &Value, visit: &mut impl FnMut(&wsrcache::model::StructValue)) {
    match value {
        Value::Array(items) => items.iter().for_each(|v| for_each_struct(v, visit)),
        Value::Struct(s) => {
            visit(s);
            s.fields().for_each(|(_, v)| for_each_struct(v, visit));
        }
        _ => {}
    }
}

/// Every struct of `value` carries the registry's own handles: its type
/// name and each declared field name are the descriptor's `Arc<str>`.
fn assert_names_are_the_registrys(value: &Value, registry: &TypeRegistry, what: &str) {
    let mut structs = 0;
    for_each_struct(value, &mut |s| {
        structs += 1;
        let descriptor = registry
            .get(s.type_name())
            .unwrap_or_else(|| panic!("{what}: {} is not registered", s.type_name()));
        assert!(
            Arc::ptr_eq(s.shared_type_name(), &descriptor.name),
            "{what}: type name {} is a copy",
            s.type_name()
        );
        assert_eq!(s.len(), descriptor.fields.len(), "{what}: fully populated");
        for (name, _) in s.shared_fields() {
            let declared = descriptor
                .field(name)
                .unwrap_or_else(|| panic!("{what}: {name} is not declared"));
            assert!(
                Arc::ptr_eq(name, &declared.name),
                "{what}: field name {}.{name} is a copy",
                s.type_name()
            );
        }
    });
    assert!(structs > 10, "{what}: the search result nests structs");
}

/// No container node of `copy` is a node of `original`; the two are
/// equal and of one shape.
fn assert_no_shared_container(original: &Value, copy: &Value, what: &str) {
    match (original, copy) {
        (Value::Bytes(a), Value::Bytes(b)) => assert!(!Arc::ptr_eq(a, b), "{what}: bytes shared"),
        (Value::Array(a), Value::Array(b)) => {
            assert!(!Arc::ptr_eq(a, b), "{what}: array shared");
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_no_shared_container(x, y, what);
            }
        }
        (Value::Struct(a), Value::Struct(b)) => {
            assert!(!a.ptr_eq(b), "{what}: struct {} shared", a.type_name());
            assert_eq!(a.len(), b.len());
            for ((_, x), (_, y)) in a.fields().zip(b.fields()) {
                assert_no_shared_container(x, y, what);
            }
        }
        (a, b) => assert_eq!(a, b, "{what}"),
    }
}

#[test]
fn a_decoded_struct_carries_the_registrys_own_names() {
    let registry = google::registry();
    let search = google_fixtures().pop().expect("three fixtures");
    assert_eq!(search.operation, "doGoogleSearch");
    assert_names_are_the_registrys(&search.value, &registry, "decoded");
}

#[test]
fn eager_copies_share_names_but_no_container_node() {
    let registry = google::registry();
    for f in google_fixtures() {
        let copies = [
            ("reflect_copy", reflect_copy(&f.value, &registry)),
            ("clone_copy", clone_copy(&f.value, &registry)),
        ];
        for (mechanism, copy) in copies {
            let what = format!("{mechanism} of {}", f.operation);
            // The paper's n/a cells: a bare string has neither copy, a
            // bare byte[] no deep clone.
            let Ok(copy) = copy else {
                assert!(f.value.as_struct().is_none(), "{what} must apply");
                continue;
            };
            assert_eq!(copy, f.value, "{what}");
            assert_no_shared_container(&f.value, &copy, &what);
            if f.value.as_struct().is_some() {
                assert_names_are_the_registrys(&copy, &registry, &what);
            }
        }
    }
}
