//! What the value model shares and what it never does, on the paper's
//! three Google responses (`google::fixtures`): a decoded response is a
//! handful of blocks charged exactly, its structs carry the registry's
//! own shapes, eager copies share names and strings but no node block,
//! and — for every stored form — a hit equals the miss, and a write
//! through any mutator at any depth of it reaches neither the cache nor
//! the caller that missed.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use wsrcache::cache::repr::MissArtifacts;
use wsrcache::cache::{
    CacheEntry, CacheError, CacheKey, CacheStore, Capacity, StoredResponse, ValueRepresentation,
};
use wsrcache::model::deep_clone::clone_copy;
use wsrcache::model::reflect::reflect_copy;
use wsrcache::model::sizeof::deep_size;
use wsrcache::model::typeinfo::TypeRegistry;
use wsrcache::model::value::BLOCK_HEADER;
use wsrcache::model::Value;
use wsrcache::services::google::{self, fixtures};

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

/// Every struct of `value` carries the registry's own shape — one
/// handle for its type name and all its field names.
fn assert_names_are_the_registrys(value: &Value, registry: &TypeRegistry, what: &str) {
    let mut structs = 0;
    for_each_struct(value, &mut |s| {
        structs += 1;
        let plan = registry
            .plan(s.type_name())
            .unwrap_or_else(|| panic!("{what}: {} is not registered", s.type_name()));
        assert!(
            Arc::ptr_eq(s.shape(), plan.shape()),
            "{what}: the shape of a {} is a copy",
            s.type_name()
        );
        assert_eq!(s.len(), plan.descriptor().fields.len());
    });
    assert!(structs > 10, "{what}: the search result nests structs");
}

/// The blocks `value` reaches by a plain walk: id to bytes.
fn blocks(value: &Value, into: &mut HashMap<usize, usize>) {
    if let Some(block) = value.block() {
        into.insert(block.id, block.bytes);
    }
    match value {
        Value::Array(items) => items.iter().for_each(|v| blocks(v, into)),
        Value::Struct(s) => s.fields().for_each(|(_, v)| blocks(v, into)),
        _ => {}
    }
}

/// The blocks holding the nodes and byte buffers of `value` (not text,
/// which copies share).
fn container_blocks(value: &Value, into: &mut HashSet<usize>) {
    match value {
        Value::Bytes(_) => {}
        Value::Array(items) => items.iter().for_each(|v| container_blocks(v, into)),
        Value::Struct(s) => s.fields().for_each(|(_, v)| container_blocks(v, into)),
        _ => return,
    }
    into.extend(value.block().map(|b| b.id));
}

/// No node block or byte buffer of `copy` is one of `original`; the two
/// are equal.
fn assert_no_shared_container(original: &Value, copy: &Value, what: &str) {
    assert_eq!(original, copy, "{what}");
    let (mut ours, mut theirs) = (HashSet::new(), HashSet::new());
    container_blocks(original, &mut ours);
    container_blocks(copy, &mut theirs);
    assert!(!ours.is_empty(), "{what}: nothing to share");
    assert!(ours.is_disjoint(&theirs), "{what}: a block is shared");
}

#[test]
fn a_decoded_struct_carries_the_registrys_own_names() {
    let registry = google::registry();
    let search = fixtures().pop().expect("three fixtures");
    assert_eq!(search.request.operation, "doGoogleSearch");
    assert_names_are_the_registrys(&search.value, &registry, "decoded");
}

#[test]
fn eager_copies_share_names_but_no_container_node() {
    let registry = google::registry();
    for f in fixtures() {
        let copies = [
            ("reflect_copy", reflect_copy(&f.value, &registry)),
            ("clone_copy", clone_copy(&f.value, &registry)),
        ];
        for (mechanism, copy) in copies {
            let what = format!("{mechanism} of {}", f.request.operation);
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

/// The paths (child indices from the root) of every container of `v`,
/// byte buffers included, in pre-order.
fn container_paths(v: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&Value> = match v {
        Value::Bytes(_) => Vec::new(),
        Value::Array(items) => items.iter().collect(),
        Value::Struct(s) => s.fields().map(|(_, fv)| fv).collect(),
        _ => return,
    };
    out.push(path.clone());
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        container_paths(child, path, out);
        path.pop();
    }
}

fn at<'v>(v: &'v Value, path: &[usize]) -> &'v Value {
    path.iter().fold(v, |v, &i| match v {
        Value::Array(items) => &items[i],
        Value::Struct(s) => s.fields().nth(i).expect("path names a field").1,
        _ => unreachable!("paths run through containers"),
    })
}

/// The ways to write to a value: every mutating accessor of the model.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutator {
    Set,
    GetMut,
    FieldsMut,
    PushNew,
    AsArrayMut,
    AsBytesMut,
}

impl Mutator {
    /// The mutators that apply to the container `v`.
    fn of(v: &Value) -> &'static [Mutator] {
        match v {
            Value::Struct(_) => &[
                Mutator::Set,
                Mutator::GetMut,
                Mutator::FieldsMut,
                Mutator::PushNew,
            ],
            Value::Array(_) => &[Mutator::AsArrayMut],
            Value::Bytes(_) => &[Mutator::AsBytesMut],
            _ => &[],
        }
    }

    /// Descends `path` through the mutable accessors (structs by name,
    /// through `get_mut`) and writes with `self` at its end. Returns
    /// whether anything was there to write.
    fn write(self, v: &mut Value, path: &[usize]) -> bool {
        if let [i, rest @ ..] = path {
            let child = match v {
                Value::Array(_) => &mut v.as_array_mut().expect("array")[*i],
                Value::Struct(s) => {
                    let name = s
                        .fields()
                        .nth(*i)
                        .expect("path names a field")
                        .0
                        .to_string();
                    s.get_mut(&name).expect("the field is there")
                }
                _ => unreachable!("paths run through containers"),
            };
            return self.write(child, rest);
        }
        let first_field = |v: &Value| {
            let s = v.as_struct().expect("a struct mutator");
            s.fields().next().map(|(name, _)| name.to_string())
        };
        match self {
            Mutator::Set => match first_field(v) {
                Some(name) => v.as_struct_mut().expect("struct").set(name, -1),
                None => return false,
            },
            Mutator::GetMut => match first_field(v) {
                Some(name) => {
                    *v.as_struct_mut()
                        .expect("struct")
                        .get_mut(&name)
                        .expect("present") = Value::Int(-2)
                }
                None => return false,
            },
            Mutator::FieldsMut => {
                let s = v.as_struct_mut().expect("struct");
                if s.is_empty() {
                    return false;
                }
                s.fields_mut().for_each(|(_, field)| *field = Value::Null);
            }
            Mutator::PushNew => v.as_struct_mut().expect("struct").push_new("__pushed", 1),
            Mutator::AsArrayMut => match v.as_array_mut().expect("array").first_mut() {
                Some(item) => *item = Value::string("written"),
                None => return false,
            },
            Mutator::AsBytesMut => match v.as_bytes_mut().expect("bytes").first_mut() {
                Some(byte) => *byte ^= 0xFF,
                None => return false,
            },
        }
        true
    }
}

#[test]
fn every_form_however_built_is_equivalent_and_isolated() {
    let registry = google::registry();
    let store = CacheStore::default();
    let mut stored_forms = 0;
    let mut writes = 0;
    for f in fixtures() {
        // The missing caller keeps what the reader handed it.
        let held_by_the_missing_caller = f.value.clone();
        let pristine = wsrcache::model::deep_clone::clone_unchecked(&f.value);
        let mut paths = Vec::new();
        container_paths(&pristine, &mut Vec::new(), &mut paths);
        let artifacts = f.artifacts();
        for repr in ValueRepresentation::ALL_EXTENDED {
            let what = format!("{} as {repr}", f.request.operation);
            let stored = match StoredResponse::build(repr, artifacts, &registry) {
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
            let hit = || stored.retrieve(&f.return_type, &registry).expect(&what);
            assert_eq!(
                hit().as_value(),
                &pristine,
                "{what}: hit differs from the miss"
            );

            // Every mutator, at every container of the value.
            for path in &paths {
                for &mutator in Mutator::of(at(&pristine, path)) {
                    let what = format!("{what}, {mutator:?} at {path:?}");
                    let mut mine = hit().into_value();
                    if !mutator.write(&mut mine, path) {
                        continue;
                    }
                    writes += 1;
                    assert_ne!(mine, pristine, "{what}: the write landed");
                    let next = hit();
                    assert_eq!(
                        next.as_value(),
                        &pristine,
                        "{what}: the next hit saw the write"
                    );
                    assert_eq!(
                        held_by_the_missing_caller, pristine,
                        "{what}: the missing caller saw the write"
                    );
                    if repr != ValueRepresentation::PassByReference {
                        continue;
                    }
                    // The hit was the cached tree itself: on the
                    // written path its containers were copied out of
                    // their blocks, off it they still are the cached
                    // tree's own nodes in the cached tree's blocks.
                    assert!(next.is_shared(), "{what}");
                    let cached = next.as_value();
                    for other in &paths {
                        let on_path = path.starts_with(other);
                        let gone = mutator == Mutator::FieldsMut || mutator == Mutator::AsArrayMut;
                        if !on_path && other.starts_with(path) && gone {
                            continue; // overwritten along with its parent
                        }
                        let same = at(&mine, other).block() == at(cached, other).block();
                        assert_eq!(same, !on_path, "{what}: the container at {other:?}");
                    }
                }
            }

            // The store charges what the form says, for every form.
            let key = CacheKey::Text(what);
            store.put(key, CacheEntry::single(stored), u64::MAX, 0);
            stored_forms += 1;
        }
    }
    // 3 fixtures x 7 forms, less the n/a cells: reflection and clone
    // for the string, clone for the bytes.
    assert_eq!(stored_forms, 3 * 7 - (2 + 1));
    // The search result has 25 containers, 23 of them structs (four
    // mutators each); the page is one buffer; the string has no inside.
    assert_eq!(writes, 7 * (23 * 4 + 2) + 6);
    assert_eq!(store.len(), stored_forms);
    store.audit().expect("byte accounting reconciles");
}

#[test]
fn the_three_object_forms_of_a_response_weigh_the_same() {
    let registry = google::registry();
    for f in fixtures() {
        let sizes: Vec<usize> = [
            ValueRepresentation::ReflectionCopy,
            ValueRepresentation::CloneCopy,
            ValueRepresentation::PassByReference,
        ]
        .into_iter()
        .filter_map(|repr| {
            let artifacts = f.artifacts();
            StoredResponse::build(repr, artifacts, &registry).ok()
        })
        .map(|stored| stored.approximate_size())
        .collect();
        assert!(
            sizes.windows(2).all(|w| w[0] == w[1]),
            "{}: {sizes:?}",
            f.request.operation
        );
    }
}

#[test]
fn a_decoded_response_is_a_handful_of_blocks_charged_exactly() {
    let registry = google::registry();
    let value = std::mem::size_of::<Value>();
    assert_eq!(value, 32);
    for f in fixtures() {
        let mut pinned = HashMap::new();
        blocks(&f.value, &mut pinned);
        // What the cache is charged is what the tree pins: the inline
        // root and every block, whole, once.
        assert_eq!(
            deep_size(&f.value),
            value + pinned.values().sum::<usize>(),
            "{}",
            f.request.operation
        );
        if f.request.operation != "doGoogleSearch" {
            // A string, a byte buffer: one allocation.
            assert_eq!(pinned.len(), 1, "{}", f.request.operation);
            continue;
        }
        // 148 nodes in four levels below the root, and one block of
        // text: 5 allocations where there were 155.
        assert_eq!(f.value.node_count(), 148);
        assert_eq!(pinned.len(), 5);
        let text: usize = {
            let mut strings = Vec::new();
            fn collect<'v>(v: &'v Value, into: &mut Vec<&'v str>) {
                match v {
                    Value::String(s) => into.push(s),
                    Value::Array(items) => items.iter().for_each(|v| collect(v, into)),
                    Value::Struct(s) => s.fields().for_each(|(_, v)| collect(v, into)),
                    _ => {}
                }
            }
            collect(&f.value, &mut strings);
            strings.iter().map(|s| s.len()).sum()
        };
        assert_eq!(deep_size(&f.value), 148 * value + text + 5 * BLOCK_HEADER);
        // And so is each object form of it, below what the same tree
        // weighed as 155 allocations (8 872 bytes).
        let artifacts = f.artifacts();
        let stored =
            StoredResponse::build(ValueRepresentation::PassByReference, artifacts, &registry)
                .expect("every value can be shared");
        assert_eq!(
            stored.approximate_size(),
            std::mem::size_of::<StoredResponse>() + deep_size(&f.value)
        );
        assert!(
            stored.approximate_size() < 8_000,
            "{}",
            stored.approximate_size()
        );
    }
    // A string made on its own is one allocation of its size too.
    let alone = Value::string("alone");
    assert_eq!(alone.block().map(|b| b.bytes), Some(BLOCK_HEADER + 5));
    assert_eq!(deep_size(&alone), value + BLOCK_HEADER + 5);
}

#[test]
fn a_slice_stored_on_its_own_is_charged_the_blocks_it_pins() {
    let registry = google::registry();
    let search = fixtures().pop().expect("three fixtures");
    let elements = search.value.as_struct().unwrap().get("resultElements");
    let element = elements.and_then(Value::as_array).expect("ten elements")[3].clone();
    let (mut whole, mut pinned) = (HashMap::new(), HashMap::new());
    blocks(&search.value, &mut whole);
    blocks(&element, &mut pinned);
    // The element views 10 of the 104 nodes of its level, yet keeps the
    // level, the level below it and all the text alive.
    assert_eq!(pinned.len(), 3);
    let pinned_bytes: usize = pinned.values().sum();
    assert!(pinned_bytes > whole.values().sum::<usize>() * 8 / 10);
    assert!(deep_size(&element) >= std::mem::size_of::<Value>() + pinned_bytes);
    assert!(deep_size(&element) < deep_size(&search.value));

    // Stored as a response of its own it is charged all of that, and a
    // byte budget of ten such entries holds ten, not a hundred.
    let artifacts = MissArtifacts {
        xml: &search.xml,
        events: &search.events,
        value: &element,
    };
    let stored = StoredResponse::build(ValueRepresentation::PassByReference, artifacts, &registry)
        .expect("every value can be shared");
    assert!(stored.approximate_size() >= pinned_bytes);
    let key = |i: usize| CacheKey::Text(format!("slice {i:03}"));
    let entry_bytes =
        CacheEntry::single(stored.clone()).approximate_size() + key(0).approximate_size();
    let capacity = Capacity {
        max_entries: usize::MAX,
        max_bytes: 10 * entry_bytes + entry_bytes / 2,
    };
    let store = CacheStore::with_shards(capacity, 1);
    for i in 0..100 {
        store.put(key(i), CacheEntry::single(stored.clone()), u64::MAX, 0);
        assert!(store.bytes() <= capacity.max_bytes, "after insert {i}");
    }
    assert_eq!(store.len(), 10);
    assert_eq!(store.bytes(), 10 * entry_bytes);
    store.audit().expect("byte accounting reconciles");
}
