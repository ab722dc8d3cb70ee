//! What the value model shares and what it never does, on the paper's
//! three Google responses: names are the registry's own handles, eager
//! copies share names but no container node, and — for every stored
//! form, however it was built — a hit equals the miss, and a write
//! through it reaches neither the cache nor the caller that missed.

use std::sync::Arc;
use wsrcache::cache::repr::MissArtifacts;
use wsrcache::cache::{
    CacheEntry, CacheError, CacheKey, CacheStore, StoredResponse, ValueRepresentation,
};
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
struct Fixture {
    operation: &'static str,
    return_type: FieldType,
    /// The value the reader decoded from `xml` — what a miss hands on.
    value: Value,
    xml: Arc<[u8]>,
    events: Arc<SaxEventSequence>,
}

/// SpellingSuggestion (a string), CachedPage (bytes), GoogleSearch (a
/// struct of arrays of structs), through the real service and reader.
fn google_fixtures() -> Vec<Fixture> {
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

fn field<'v>(value: &'v Value, name: &str) -> &'v Value {
    value
        .as_struct()
        .and_then(|s| s.get(name))
        .unwrap_or_else(|| panic!("no field {name}"))
}

/// Writes as deep as the shape allows: a field of a struct inside an
/// array element of the search result, a byte of the cached page. A bare
/// string has no inside to write to.
fn write_at_depth(value: &mut Value) -> bool {
    match value {
        Value::Bytes(_) => {
            value.as_bytes_mut().expect("bytes")[0] ^= 0xFF;
            true
        }
        Value::Struct(result) => {
            let elements = result
                .get_mut("resultElements")
                .and_then(Value::as_array_mut)
                .expect("the search result has elements");
            elements[0]
                .as_struct_mut()
                .expect("elements are structs")
                .set("title", "VANDALIZED");
            true
        }
        _ => false,
    }
}

#[test]
fn every_form_however_built_is_equivalent_and_isolated() {
    let registry = google::registry();
    let store = CacheStore::default();
    let mut stored_forms = 0;
    for f in google_fixtures() {
        // The missing caller keeps what the reader handed it.
        let held_by_the_missing_caller = f.value.clone();
        let pristine = wsrcache::model::deep_clone::clone_unchecked(&f.value);
        let artifacts = MissArtifacts {
            xml: &f.xml,
            events: &f.events,
            value: &f.value,
        };
        for repr in ValueRepresentation::ALL_EXTENDED {
            let builds = [
                ("miss", StoredResponse::build(repr, artifacts, &registry)),
                (
                    "from_value",
                    StoredResponse::from_value(
                        repr,
                        &f.value,
                        google::NAMESPACE,
                        f.operation,
                        &f.return_type,
                        &registry,
                    ),
                ),
            ];
            for (how, built) in builds {
                let what = format!("{} as {repr} built by {how}", f.operation);
                let stored = match built {
                    Ok(stored) => stored,
                    // The paper's n/a cells, and only those.
                    Err(CacheError::NotApplicable(_)) => {
                        let copy_form = matches!(
                            repr,
                            ValueRepresentation::ReflectionCopy | ValueRepresentation::CloneCopy
                        );
                        assert!(copy_form && f.value.as_struct().is_none(), "{what}");
                        continue;
                    }
                    Err(e) => panic!("{what}: {e}"),
                };
                assert_eq!(stored.representation(), repr, "{what}");
                let hit = stored.retrieve(&f.return_type, &registry).expect(&what);
                assert_eq!(
                    hit.as_value(),
                    &pristine,
                    "{what}: hit differs from the miss"
                );

                let mut mine = hit.into_value();
                if write_at_depth(&mut mine) {
                    assert_ne!(mine, pristine, "{what}: the write landed");
                }
                let next = stored.retrieve(&f.return_type, &registry).expect(&what);
                assert_eq!(
                    next.as_value(),
                    &pristine,
                    "{what}: the next hit saw the write"
                );
                assert_eq!(
                    held_by_the_missing_caller, pristine,
                    "{what}: the missing caller saw the write"
                );

                if repr == ValueRepresentation::PassByReference {
                    assert!(next.is_shared(), "{what}");
                    if let Value::Struct(cached) = next.as_value() {
                        // On the written path: copied.
                        let written = mine.as_struct().expect("still a struct");
                        assert!(!written.ptr_eq(cached), "{what}: root");
                        let elements =
                            |v: &Value| field(v, "resultElements").as_array().unwrap().to_vec();
                        let (ours, theirs) = (elements(&mine), elements(next.as_value()));
                        let same = |a: &Value, b: &Value| {
                            a.as_struct().unwrap().ptr_eq(b.as_struct().unwrap())
                        };
                        assert!(!same(&ours[0], &theirs[0]), "{what}: written element");
                        // Off it: still the cached tree's own nodes.
                        for (a, b) in ours.iter().zip(&theirs).skip(1) {
                            assert!(same(a, b), "{what}: untouched sibling was copied");
                        }
                        assert!(
                            same(
                                field(&ours[0], "directoryCategory"),
                                field(&theirs[0], "directoryCategory")
                            ),
                            "{what}: untouched child of the written element was copied"
                        );
                        match (
                            field(&mine, "directoryCategories"),
                            field(next.as_value(), "directoryCategories"),
                        ) {
                            (Value::Array(a), Value::Array(b)) => {
                                assert!(Arc::ptr_eq(a, b), "{what}: untouched array was copied")
                            }
                            _ => panic!("{what}: directoryCategories is an array"),
                        }
                    }
                }

                // The store charges what the form says, for every form.
                let key = CacheKey::Text(what);
                store.put(key, CacheEntry::single(stored), u64::MAX, 0);
                stored_forms += 1;
            }
        }
    }
    // 3 fixtures x 7 forms x 2 builds, less the n/a cells: reflection
    // and clone for the string, clone for the bytes.
    assert_eq!(stored_forms, 3 * 7 * 2 - 2 * (2 + 1));
    assert_eq!(store.len(), stored_forms);
    store.audit().expect("byte accounting reconciles");
}

#[test]
fn the_three_object_forms_of_a_response_weigh_the_same() {
    let registry = google::registry();
    for f in google_fixtures() {
        let sizes: Vec<usize> = [
            ValueRepresentation::ReflectionCopy,
            ValueRepresentation::CloneCopy,
            ValueRepresentation::PassByReference,
        ]
        .into_iter()
        .filter_map(|repr| {
            let artifacts = MissArtifacts {
                xml: &f.xml,
                events: &f.events,
                value: &f.value,
            };
            StoredResponse::build(repr, artifacts, &registry).ok()
        })
        .map(|stored| stored.approximate_size())
        .collect();
        assert!(
            sizes.windows(2).all(|w| w[0] == w[1]),
            "{}: {sizes:?}",
            f.operation
        );
    }
}
