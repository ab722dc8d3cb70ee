//! Deep retained-size accounting for values — used by the paper's
//! Tables 8 and 9 ("Memory size of cache keys / cached objects") and, as
//! [`deep_size`], by the cache's byte budget.
//!
//! [`deep_size`] charges what a value *pins*: the inline root plus every
//! distinct block it keeps alive ([`Value::block`]), each in full —
//! [`BLOCK_HEADER`] and whole content,
//! whatever part of the block the value views. These are the sizes the
//! allocator is asked for; its own rounding and bookkeeping (a few bytes
//! per block) are not included, which is why a tree of few large blocks
//! is accounted nearly exactly and the figure is kept honest by keeping
//! trees that way.
//!
//! - A tree as [`TreeBuilder`](crate::tree::TreeBuilder) makes it — a
//!   decoded response, an eager copy — is charged nodes ×
//!   `size_of::<Value>()` + text bytes + one header per block (+ the
//!   shapes that are its own; last item).
//! - A value sliced out of a larger tree, or a container that copied
//!   itself out of a shared block on a write, is charged every block it
//!   still points into, whole, *and whatever the rest of that block
//!   pins*: the slots it does not view hold handles of their own.
//! - A block reached only as a whole (a string or container made by
//!   hand, viewed entirely) is charged once per reference, as it always
//!   was: two clones of one string in one tree count twice. A block
//!   viewed in part is charged once per walk. Over-counting what is
//!   shared is deliberate; under-counting would let the cache exceed its
//!   budget.
//! - A struct's [`Shape`] — type name and field names — is charged to
//!   the struct unless it is a registry's own
//!   ([`Shape::is_schema`]): that one is schema, pinned by the registry
//!   whatever the cache holds, as a Java instance does not carry its
//!   `Class`. It is what a decoded or instantiated struct holds when its
//!   fields are exactly its type's declared ones in order. Any other
//!   shape — of a struct that skips a declared field or has them out of
//!   order, of an unregistered type, of one built by hand — was
//!   allocated for that struct (or for a few that share it) and is
//!   charged to each in full: the shape, a handle per name, and the text
//!   of the type name and of every name, which over-counts the names it
//!   shares with a registry or a parser's symbol table.

use crate::value::{Shape, Value, BLOCK_HEADER};
use std::collections::HashSet;
use std::sync::Arc;

/// Retained size of a value tree in bytes; see the module docs.
///
/// ```
/// use wsrc_model::{sizeof::deep_size, Value};
/// assert!(deep_size(&Value::string("hello")) > deep_size(&Value::Int(1)));
/// ```
pub fn deep_size(value: &Value) -> usize {
    std::mem::size_of::<Value>() + pinned(value, &mut Seen::default())
}

/// The blocks viewed in part that a walk has charged already, by
/// address. Every string and container of a built tree asks (132 times
/// for the search fixture) and there are *depth* + 2 answers, so the
/// first few are scanned, not hashed: `deep_size` of the decoded search
/// result takes 0.65 µs this way and 2.1–2.8 µs with the `HashSet`
/// alone, against the 1.8–2.0 µs of a whole cache insert. A `Vec`
/// scanned to any length is as fast, and quadratic in the depth of a
/// hostile nest; the set bounds that. (0 is no block's address.)
#[derive(Default)]
struct Seen {
    few: [usize; 8],
    len: usize,
    more: HashSet<usize>,
}

impl Seen {
    /// Whether this is the walk's first sight of the block at `id`.
    fn first_sight(&mut self, id: usize) -> bool {
        if self.few.contains(&id) {
            return false;
        }
        if self.len < self.few.len() {
            self.few[self.len] = id;
            self.len += 1;
            return true;
        }
        self.more.insert(id)
    }
}

/// Bytes of the blocks `value` pins and `seen` has not charged.
fn pinned(value: &Value, seen: &mut Seen) -> usize {
    match value {
        Value::Null | Value::Bool(_) | Value::Int(_) | Value::Long(_) | Value::Double(_) => 0,
        Value::Bytes(b) => BLOCK_HEADER + b.len(),
        Value::String(s) => {
            let all = s.block_text();
            match s.len() == all.len() || seen.first_sight(all.as_ptr() as usize) {
                true => BLOCK_HEADER + all.len(),
                false => 0,
            }
        }
        Value::Array(items) => nodes(items.len(), items.block_nodes(), seen),
        Value::Struct(s) => nodes(s.len(), s.block_nodes(), seen) + shape(s.shape()),
    }
}

/// What a struct pins through its shape: nothing of a registry's own;
/// any other in full, names and all, per reference.
fn shape(shape: &Shape) -> usize {
    if shape.is_schema() {
        return 0;
    }
    let text = |s: &str| BLOCK_HEADER + s.len();
    let name = |n: &Arc<str>| std::mem::size_of::<Arc<str>>() + text(n);
    BLOCK_HEADER
        + std::mem::size_of::<Shape>()
        + text(shape.type_name())
        + shape.names().iter().map(name).sum::<usize>()
}

/// A container viewing `viewed` nodes of the block `all`: when that is
/// all of it, the block and what its nodes pin, per reference; when it
/// is a part, the block and what *all* its nodes pin, once per walk.
fn nodes(viewed: usize, all: &[Value], seen: &mut Seen) -> usize {
    if viewed != all.len() && !seen.first_sight(all.as_ptr() as usize) {
        return 0;
    }
    BLOCK_HEADER + std::mem::size_of_val(all) + all.iter().map(|v| pinned(v, seen)).sum::<usize>()
}

/// Approximate size of the value as a *Java* object graph — the
/// accounting the paper's Table 9 "Java object" column uses.
///
/// Java instances do not carry field names or type names (those live in
/// the `Class`), so this counts: a 16-byte object header per object, an
/// 8-byte slot per field or array element, and string/byte content. This
/// intentionally differs from [`deep_size`], which reports what *our*
/// dynamic representation pins (32-byte values in shared blocks); the
/// cache store uses [`deep_size`]-based accounting, the Table 9
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
    use crate::tree::TreeBuilder;
    use crate::value::{Shape, StructValue};
    use std::sync::Arc;

    const VALUE: usize = std::mem::size_of::<Value>();

    #[test]
    fn scalars_have_fixed_size() {
        assert_eq!(deep_size(&Value::Null), VALUE);
        assert_eq!(deep_size(&Value::Null), deep_size(&Value::Int(5)));
        assert_eq!(
            deep_size(&Value::Bool(true)),
            deep_size(&Value::Double(1.5))
        );
    }

    #[test]
    fn strings_and_bytes_are_a_header_and_their_content() {
        assert_eq!(deep_size(&Value::string("ab")), VALUE + BLOCK_HEADER + 2);
        let short = deep_size(&Value::string("ab"));
        let long = deep_size(&Value::string("ab".repeat(50)));
        assert_eq!(long - short, 98);
        let b1 = deep_size(&Value::Bytes(vec![0; 10].into()));
        let b2 = deep_size(&Value::Bytes(vec![0; 1000].into()));
        assert_eq!(b1, VALUE + BLOCK_HEADER + 10);
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

    /// What [`deep_size`] adds for a shape that is no registry's.
    fn own_shape(type_name: &str, names: &[&str]) -> usize {
        let text = |s: &str| BLOCK_HEADER + s.len();
        let handle = std::mem::size_of::<Arc<str>>();
        BLOCK_HEADER
            + std::mem::size_of::<Shape>()
            + text(type_name)
            + names.iter().map(|n| handle + text(n)).sum::<usize>()
    }

    #[test]
    fn a_registrys_shape_is_schema_and_any_other_is_the_structs_to_pay() {
        use crate::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor, TypeRegistry};
        let registry = TypeRegistry::builder()
            .register(TypeDescriptor::new(
                "Pair",
                vec![
                    FieldDescriptor::new("first", FieldType::Int),
                    FieldDescriptor::new("second", FieldType::Int),
                ],
            ))
            .build();
        let plan = registry.plan("Pair").unwrap();
        let fields = BLOCK_HEADER + 2 * VALUE;
        // Every declared field in order: the registry's shape, free —
        // in Java's accounting names never cost an instance anything.
        let full = Value::Struct(plan.instantiate([("first", 1.into()), ("second", 2.into())]));
        assert!(full.as_struct().unwrap().shape().is_schema());
        assert_eq!(deep_size(&full), VALUE + fields);
        // The same struct made by hand carries names of its own.
        let by_hand = Value::Struct(StructValue::new("Pair").with("first", 1).with("second", 2));
        assert_eq!(by_hand, full);
        assert_eq!(java_object_size(&by_hand), java_object_size(&full));
        assert_eq!(
            deep_size(&by_hand),
            VALUE + fields + own_shape("Pair", &["first", "second"])
        );
        // So does an instance that stops short of its declaration, or
        // strays from its order: a shape was allocated for it.
        let short = Value::Struct(plan.instantiate([("first", 1.into())]));
        assert_eq!(
            deep_size(&short),
            VALUE + (BLOCK_HEADER + VALUE) + own_shape("Pair", &["first"])
        );
        let swapped = Value::Struct(plan.instantiate([("second", 2.into()), ("first", 1.into())]));
        assert_eq!(
            deep_size(&swapped),
            VALUE + fields + own_shape("Pair", &["second", "first"])
        );
        // A field added to a clone of the full instance leaves the
        // registry's shape for one of the clone's own.
        let mut grown = full.clone();
        grown.as_struct_mut().unwrap().set("third", 3);
        assert_eq!(
            deep_size(&grown),
            VALUE + (BLOCK_HEADER + 3 * VALUE) + own_shape("Pair", &["first", "second", "third"])
        );
        assert_eq!(
            deep_size(&full),
            VALUE + fields,
            "and the original is as it was"
        );
        // Whole blocks, and the shapes with them, are charged per
        // reference.
        let two = Value::from(vec![by_hand.clone(), by_hand.clone()]);
        assert_eq!(
            deep_size(&two),
            VALUE + BLOCK_HEADER + 2 * deep_size(&by_hand)
        );
    }

    #[test]
    fn a_built_tree_is_charged_each_shape_of_its_own_once_per_struct() {
        // Two rows sharing one hand-made shape, as one stream of
        // `binser` or one eager copy leaves them.
        let row = Arc::new(Shape::new("Row", ["n"].map(Arc::from)));
        let mut tree = TreeBuilder::new();
        tree.open(2);
        for n in 0..2 {
            tree.open(1);
            tree.value(Value::Int(n));
            tree.close_struct(row.clone());
        }
        tree.close_array();
        let v = tree.finish().unwrap();
        assert_eq!(
            deep_size(&v),
            VALUE * v.node_count() + 2 * BLOCK_HEADER + 2 * own_shape("Row", &["n"])
        );
    }

    /// `[Row{ name, tags: [..] }, ..]` built the way a decoder builds it,
    /// `Row` a registered type.
    fn built(rows: usize) -> Value {
        let row = Arc::new(Shape::schema("Row", ["name", "tags"].map(Arc::from)));
        let mut tree = TreeBuilder::new();
        tree.open(rows);
        for i in 0..rows {
            tree.open(2);
            for text in [format!("row {i}"), "tag".to_string()] {
                let start = tree.text_len();
                tree.push_text(&text);
                if text == "tag" {
                    tree.open(1);
                    tree.string_at(start..tree.text_len());
                    tree.close_array();
                } else {
                    tree.string_at(start..tree.text_len());
                }
            }
            tree.close_struct(row.clone());
        }
        tree.close_array();
        tree.finish().unwrap()
    }

    #[test]
    fn a_built_tree_is_charged_its_nodes_its_text_and_a_header_per_block() {
        let v = built(3);
        let text = "row 0tagrow 1tagrow 2tag".len();
        assert_eq!(v.node_count(), 1 + 3 + 3 * 2 + 3);
        assert_eq!(
            deep_size(&v),
            VALUE * v.node_count() + text + 4 * BLOCK_HEADER
        );
    }

    #[test]
    fn a_slice_is_charged_everything_its_blocks_pin() {
        let v = built(3);
        let row = v.as_array().unwrap()[1].clone();
        // One row of three views a third of the rows' fields, but keeps
        // all of them alive, and through them every tags array and the
        // whole text: all but the block of the three rows themselves.
        assert_eq!(deep_size(&row), deep_size(&v) - (BLOCK_HEADER + 3 * VALUE));
        // Its tags array pins the tag block and the text only.
        let tags = row.as_struct().unwrap().get("tags").unwrap();
        assert_eq!(
            deep_size(tags),
            VALUE + (BLOCK_HEADER + 3 * VALUE) + (BLOCK_HEADER + 24)
        );
        // And one string of it, the whole text.
        let name = row.as_struct().unwrap().get("name").unwrap();
        assert_eq!(name.as_str(), Some("row 1"));
        assert_eq!(deep_size(name), VALUE + BLOCK_HEADER + 24);
    }

    #[test]
    fn a_written_copy_is_charged_the_block_it_left_and_the_one_it_made() {
        let v = built(3);
        let mut written = v.clone();
        written.as_array_mut().unwrap()[0]
            .as_struct_mut()
            .unwrap()
            .set("name", 7);
        // The three rows moved to a block of the copy's own, and so did
        // the first row's two fields; everything they left is still
        // pinned through the other rows.
        assert_eq!(
            deep_size(&written),
            deep_size(&v) + (BLOCK_HEADER + 2 * VALUE)
        );
        assert_eq!(
            deep_size(&v),
            deep_size(&built(3)),
            "and the original nothing"
        );
    }

    #[test]
    fn many_partly_viewed_blocks_are_each_charged_once() {
        // Twenty trees' worth of blocks under one root, each row in it
        // twice: more distinct blocks than the walk keeps inline.
        let rows: Vec<Value> = (0..20)
            .flat_map(|_| {
                let row = built(2).as_array().unwrap()[0].clone();
                [row.clone(), row]
            })
            .collect();
        let one = deep_size(&rows[0]) - VALUE;
        assert_eq!(
            deep_size(&Value::from(rows)),
            VALUE + BLOCK_HEADER + 40 * VALUE + 20 * one
        );
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
