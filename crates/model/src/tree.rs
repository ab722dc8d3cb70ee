//! Building a whole [`Value`] tree into a handful of blocks.
//!
//! A [`TreeBuilder`] takes a tree in document order — leaves as they are
//! read, a container when it closes — and keeps it as one growing text
//! buffer and one vector of pending nodes per nesting level. Children of
//! a container are contiguous in their level because the order is
//! depth-first: while a container at depth *d* is open, only its direct
//! children are appended to level *d* + 1.
//! [`finish`](TreeBuilder::finish) freezes the text first and then the
//! levels deepest-first, binding in one pass over a level the handles its
//! strings hold on the text block and its containers on the level below,
//! each frozen block allocated at exactly its size — the size of what
//! was added: all of it reachable from the root, but for what a
//! [replaced](TreeBuilder::replace_child) child leaves behind. The SOAP
//! decoder, the eager copiers and [`crate::binser::deserialize`] all
//! build this way, so their trees are *depth* + 2 allocations however
//! many nodes they have.

use crate::error::ModelError;
use crate::value::{ArrayValue, Shape, StructValue, Text, Value};
use std::ops::Range;
use std::sync::Arc;

/// A node before its tree is frozen: containers and the builder's own
/// strings are ranges still, with no block to point into yet.
#[derive(Debug)]
enum Pending {
    /// Finished where it stands: a scalar, a `byte[]`, a string or a
    /// whole sub-tree made elsewhere.
    Ready(Value),
    /// Bytes of the builder's text.
    Text { start: u32, len: u32 },
    /// Nodes of the next level.
    Array { start: u32, len: u32 },
    /// `shape.names().len()` nodes of the next level, from `start`.
    Struct { start: u32, shape: Arc<Shape> },
}

impl Pending {
    /// Where in the next level this node's children start, if it keeps
    /// children there.
    fn children_start(&self) -> Option<u32> {
        match self {
            Pending::Array { start, .. } | Pending::Struct { start, .. } => Some(*start),
            Pending::Ready(_) | Pending::Text { .. } => None,
        }
    }

    /// The finished node, viewing the frozen `text` and level `below`.
    fn bind(self, text: &Arc<str>, below: &Arc<[Value]>) -> Value {
        match self {
            Pending::Ready(value) => value,
            Pending::Text { start, len } => Value::String(Text::slice(text.clone(), start, len)),
            Pending::Array { start, len } => {
                Value::Array(ArrayValue::slice(below.clone(), start, len))
            }
            Pending::Struct { start, shape } => {
                Value::Struct(StructValue::slice(below.clone(), shape, start))
            }
        }
    }
}

/// Builds one tree; see the module docs.
///
/// The root is whatever is added while no container is open — one leaf,
/// or one [`open`](TreeBuilder::open) … `close_*` pair.
///
/// The text and the levels are the thread's scratch: a builder starts
/// in the buffers the last one on its thread grew (up to 8 KiB of text
/// and 8 KiB of nodes), so what a tree allocates is its frozen blocks.
#[derive(Debug)]
pub struct TreeBuilder {
    text: String,
    /// `levels[d]` holds the children of the containers at depth `d - 1`;
    /// `levels[0]` the root.
    levels: Vec<Vec<Pending>>,
    /// Per open container, outermost first, where its children start in
    /// the level below it.
    open: Vec<usize>,
    /// A range no longer fits the `u32` a handle stores.
    overflow: bool,
}

/// Text or nodes over this many bytes are not kept for the thread's
/// next builder.
const SCRATCH_CAP: usize = 8 << 10;
/// Levels kept for the thread's next builder: deeper than any SOAP
/// message this crate's services exchange.
const LEVELS_KEPT: usize = 16;

thread_local! {
    /// The buffers of the last builder to finish on this thread; a
    /// builder that starts while another is open takes new ones.
    static SCRATCH: std::cell::Cell<Option<TreeScratch>> = const { std::cell::Cell::new(None) };
}

/// The buffers a [`TreeBuilder`] works in, empty between trees.
#[derive(Debug, Default)]
struct TreeScratch {
    text: String,
    levels: Vec<Vec<Pending>>,
    open: Vec<usize>,
}

impl TreeScratch {
    /// Empties the buffers and keeps them for the thread's next builder,
    /// less whatever outgrew the cap, unless a nested builder's, back
    /// first, have more room.
    fn give_back(mut self) {
        self.text.clear();
        if self.text.capacity() > SCRATCH_CAP {
            self.text = String::new();
        }
        self.open.clear();
        if self.open.capacity() * std::mem::size_of::<usize>() > SCRATCH_CAP {
            self.open = Vec::new();
        }
        self.levels.truncate(LEVELS_KEPT);
        self.levels.shrink_to(LEVELS_KEPT);
        let mut kept = 0;
        for level in &mut self.levels {
            level.clear();
            let bytes = level.capacity() * std::mem::size_of::<Pending>();
            match kept + bytes <= SCRATCH_CAP {
                true => kept += bytes,
                false => *level = Vec::new(),
            }
        }
        SCRATCH.with(|slot| {
            let keep = match slot.take() {
                Some(kept) if kept.text.capacity() > self.text.capacity() => kept,
                _ => self,
            };
            slot.set(Some(keep));
        });
    }
}

impl Default for TreeBuilder {
    fn default() -> Self {
        TreeBuilder::new()
    }
}

impl Drop for TreeBuilder {
    fn drop(&mut self) {
        TreeScratch {
            text: std::mem::take(&mut self.text),
            levels: std::mem::take(&mut self.levels),
            open: std::mem::take(&mut self.open),
        }
        .give_back();
    }
}

impl TreeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        let TreeScratch { text, levels, open } =
            SCRATCH.with(std::cell::Cell::take).unwrap_or_default();
        TreeBuilder {
            text,
            levels,
            open,
            overflow: false,
        }
    }

    /// Length of the text gathered so far — the start of whatever is
    /// [`push_text`](TreeBuilder::push_text)ed next.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// Appends character data. It belongs to no node until
    /// [`string_at`](TreeBuilder::string_at) makes it one.
    pub fn push_text(&mut self, text: &str) {
        self.text.push_str(text);
    }

    /// The text from `start` on.
    pub fn text_from(&self, start: usize) -> &str {
        &self.text[start..]
    }

    /// Drops the text from `start` on (character data that turned out to
    /// be a number, or whitespace between elements). No string added so
    /// far may reach past `start`.
    pub fn truncate_text(&mut self, start: usize) {
        self.text.truncate(start);
    }

    /// Adds the bytes `range` of the gathered text as a string leaf: no
    /// copy, the leaf will view the tree's one text block. A range may
    /// be added more than once (a shared string).
    ///
    /// # Panics
    ///
    /// When `range` is not a range of whole characters of the text.
    pub fn string_at(&mut self, range: Range<usize>) {
        assert!(
            self.text.get(range.clone()).is_some(),
            "a string leaf is whole characters of the gathered text"
        );
        let (start, len) = (self.fit(range.start), self.fit(range.len()));
        self.add(Pending::Text { start, len });
    }

    /// Adds a finished value as a leaf: a scalar, a `byte[]`, or a string
    /// or sub-tree that lives in blocks of its own.
    pub fn value(&mut self, value: Value) {
        self.add(Pending::Ready(value));
    }

    /// Opens a container; what is added until the matching `close_*` are
    /// its children. `expected_children` only sizes an allocation.
    pub fn open(&mut self, expected_children: usize) {
        let below = self.open.len() + 1;
        if self.levels.len() <= below {
            self.levels.resize_with(below + 1, Vec::new);
        }
        self.levels[below].reserve(expected_children);
        self.open.push(self.levels[below].len());
    }

    /// Number of children the innermost open container has so far.
    ///
    /// # Panics
    ///
    /// When no container is open (here and in every method that names
    /// "the innermost open container").
    pub fn children(&self) -> usize {
        let start = *self.open.last().expect("a container is open");
        self.levels[self.open.len()].len() - start
    }

    /// The innermost open container's newest child takes the place of
    /// its child at `position`, which is dropped — how a field that
    /// arrives twice keeps its first position and its last value.
    ///
    /// Only the replaced node itself goes. What it kept elsewhere — the
    /// text of a string, the descendants of a container — lies in the
    /// middle of the text and of the deeper levels, where later nodes'
    /// ranges would all have to move to close the gap; it stays, is
    /// frozen into the blocks as content no node views, and is charged
    /// with them ([`deep_size`](crate::sizeof::deep_size) counts whole
    /// blocks). A document can grow its tree this way by no more than
    /// its own length.
    pub fn replace_child(&mut self, position: usize) {
        let start = *self.open.last().expect("a container is open");
        let children = &mut self.levels[self.open.len()];
        assert!(
            start + position + 1 < children.len(),
            "an earlier child is replaced by a later one"
        );
        children.swap_remove(start + position);
    }

    /// Closes the innermost open container as an array of its children.
    pub fn close_array(&mut self) {
        let start = self.open.pop().expect("a container is open");
        let len = self.levels[self.open.len() + 1].len() - start;
        let (start, len) = (self.fit(start), self.fit(len));
        self.add(Pending::Array { start, len });
    }

    /// Closes the innermost open container as a struct of `shape`, whose
    /// names are its children's, in order.
    ///
    /// # Panics
    ///
    /// When the container has not exactly one child per name.
    pub fn close_struct(&mut self, shape: Arc<Shape>) {
        let start = self.open.pop().expect("a container is open");
        let len = self.levels[self.open.len() + 1].len() - start;
        assert_eq!(len, shape.names().len(), "one child per field name");
        let start = self.fit(start);
        self.add(Pending::Struct { start, shape });
    }

    /// Closes the innermost open container and forgets it, its children
    /// and everything below them (an element whose content was read only
    /// to be checked). Text is left to the caller, who knows where the
    /// container's began.
    pub fn close_discarding(&mut self) {
        let mut cut = self.open.pop().expect("a container is open");
        // Depth-first order: what the dropped nodes keep in the next
        // level is that level's tail, from the lowest of their starts.
        for level in &mut self.levels[self.open.len() + 1..] {
            let next = level[cut..]
                .iter()
                .filter_map(Pending::children_start)
                .min();
            level.truncate(cut);
            match next {
                Some(start) => cut = start as usize,
                None => break,
            }
        }
    }

    /// Freezes the tree and returns its root (`Null` when nothing was
    /// added).
    ///
    /// # Errors
    ///
    /// [`ModelError::TooLarge`] when the text or one level outgrew the
    /// `u32` range a handle addresses; [`ModelError::Corrupt`] when more
    /// than one root was added — what is built is what some outside
    /// input described, and two values are not a tree.
    ///
    /// # Panics
    ///
    /// When a container is still open.
    pub fn finish(mut self) -> Result<Value, ModelError> {
        assert!(self.open.is_empty(), "every container is closed");
        if self.overflow {
            return Err(ModelError::TooLarge);
        }
        if self.levels.first().is_some_and(|root| root.len() > 1) {
            return Err(ModelError::corrupt("more than one root value"));
        }
        let text: Arc<str> = match self.text.is_empty() {
            true => Arc::default(),
            false => Arc::from(self.text.as_str()),
        };
        let mut below: Arc<[Value]> = Arc::default();
        for level in self.levels.iter_mut().skip(1).rev() {
            below = match level.is_empty() {
                true => Arc::default(),
                false => level.drain(..).map(|n| n.bind(&text, &below)).collect(),
            };
        }
        let root = self.levels.first_mut().and_then(Vec::pop);
        Ok(root.map_or(Value::Null, |n| n.bind(&text, &below)))
    }

    fn add(&mut self, node: Pending) {
        let depth = self.open.len();
        if self.levels.len() <= depth {
            self.levels.resize_with(depth + 1, Vec::new);
        }
        self.levels[depth].push(node);
    }

    fn fit(&mut self, n: usize) -> u32 {
        u32::try_from(n).unwrap_or_else(|_| {
            self.overflow = true;
            0
        })
    }
}

/// Formats into the gathered text, as [`push_text`](TreeBuilder::push_text)
/// does — a number becomes part of a string leaf with no `String` of its
/// own.
impl std::fmt::Write for TreeBuilder {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.push_text(s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::BLOCK_HEADER;

    fn shape(type_name: &str, names: &[&str]) -> Arc<Shape> {
        Arc::new(Shape::new(type_name, names.iter().map(|n| Arc::from(*n))))
    }

    /// Adds `text` as a string leaf.
    fn string(tree: &mut TreeBuilder, text: &str) {
        let start = tree.text_len();
        tree.push_text(text);
        tree.string_at(start..tree.text_len());
    }

    /// `Outer{ id, rows: [Row{ n, name }, Row{ n, name }], note }`.
    fn built() -> Value {
        let row = shape("Row", &["n", "name"]);
        let mut tree = TreeBuilder::new();
        tree.open(3);
        tree.value(Value::Int(7));
        tree.open(2);
        for (n, name) in [(1, "one"), (2, "two")] {
            tree.open(2);
            tree.value(Value::Int(n));
            string(&mut tree, name);
            tree.close_struct(row.clone());
        }
        tree.close_array();
        string(&mut tree, "nota bene");
        tree.close_struct(shape("Outer", &["id", "rows", "note"]));
        tree.finish().unwrap()
    }

    fn by_hand() -> Value {
        let row = |n: i32, name: &str| {
            Value::Struct(StructValue::new("Row").with("n", n).with("name", name))
        };
        Value::Struct(
            StructValue::new("Outer")
                .with("id", 7)
                .with("rows", vec![row(1, "one"), row(2, "two")])
                .with("note", "nota bene"),
        )
    }

    /// The distinct blocks `value` reaches, by a plain walk.
    fn blocks(value: &Value, into: &mut Vec<crate::value::Block>) {
        if let Some(block) = value.block() {
            if !into.contains(&block) {
                into.push(block);
            }
        }
        match value {
            Value::Array(items) => items.iter().for_each(|v| blocks(v, into)),
            Value::Struct(s) => s.fields().for_each(|(_, v)| blocks(v, into)),
            _ => {}
        }
    }

    #[test]
    fn a_built_tree_equals_the_one_made_by_hand() {
        assert_eq!(built(), by_hand());
    }

    #[test]
    fn a_built_tree_is_one_block_per_level_and_one_of_text() {
        let mut pinned = Vec::new();
        blocks(&built(), &mut pinned);
        let value = std::mem::size_of::<Value>();
        let mut bytes: Vec<usize> = pinned.iter().map(|b| b.bytes).collect();
        bytes.sort_unstable();
        assert_eq!(
            bytes,
            [
                BLOCK_HEADER + "onetwonota bene".len(),
                BLOCK_HEADER + 2 * value, // the two rows
                BLOCK_HEADER + 3 * value, // the root's fields
                BLOCK_HEADER + 4 * value, // the rows' fields
            ]
        );
        let mut by_hand_pinned = Vec::new();
        blocks(&by_hand(), &mut by_hand_pinned);
        assert_eq!(
            by_hand_pinned.len(),
            3 + 4,
            "three strings, four containers"
        );
    }

    #[test]
    fn single_leaves_and_nothing_at_all() {
        assert_eq!(TreeBuilder::new().finish().unwrap(), Value::Null);
        let mut tree = TreeBuilder::new();
        string(&mut tree, "alone");
        let alone = tree.finish().unwrap();
        assert_eq!(alone, Value::string("alone"));
        assert_eq!(alone.block().unwrap().bytes, BLOCK_HEADER + 5);
        let mut tree = TreeBuilder::new();
        tree.open(0);
        tree.close_array();
        assert_eq!(tree.finish().unwrap(), Value::from(Vec::<Value>::new()));
    }

    #[test]
    fn text_can_be_dropped_and_shared() {
        let mut tree = TreeBuilder::new();
        tree.open(0);
        let start = tree.text_len();
        tree.push_text(" 42 ");
        assert_eq!(tree.text_from(start), " 42 ");
        tree.truncate_text(start);
        tree.value(Value::Int(42));
        string(&mut tree, "twice");
        tree.string_at(start..tree.text_len());
        tree.close_array();
        let v = tree.finish().unwrap();
        assert_eq!(
            v,
            Value::from(vec![
                Value::Int(42),
                Value::string("twice"),
                Value::string("twice")
            ])
        );
        match v.as_array().unwrap() {
            [_, Value::String(a), Value::String(b)] => assert!(a.ptr_eq(b)),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            v.as_array().unwrap()[1].block().unwrap().bytes,
            BLOCK_HEADER + 5
        );
    }

    #[test]
    fn a_later_child_replaces_an_earlier_one() {
        let mut tree = TreeBuilder::new();
        tree.open(0);
        tree.value(Value::Int(1));
        tree.open(0);
        tree.value(Value::Int(99));
        tree.close_array();
        tree.value(Value::Int(3));
        assert_eq!(tree.children(), 3);
        tree.open(0);
        tree.value(Value::Int(2));
        tree.close_array();
        tree.replace_child(1);
        assert_eq!(tree.children(), 3);
        tree.close_struct(shape("T", &["a", "b", "c"]));
        let v = tree.finish().unwrap();
        assert_eq!(
            v,
            Value::Struct(
                StructValue::new("T")
                    .with("a", 1)
                    .with("b", vec![Value::Int(2)])
                    .with("c", 3)
            )
        );
        // The replaced array is gone from its level; its one element
        // stays behind in the level below, viewed by nothing.
        let mut pinned = Vec::new();
        blocks(&v, &mut pinned);
        let value = std::mem::size_of::<Value>();
        let mut bytes: Vec<usize> = pinned.iter().map(|b| b.bytes).collect();
        bytes.sort_unstable();
        assert_eq!(
            bytes,
            [
                BLOCK_HEADER + 2 * value, // Int(99), orphaned, and Int(2)
                BLOCK_HEADER + 3 * value, // the three fields
            ]
        );
    }

    #[test]
    fn a_discarded_container_leaves_nothing_behind() {
        let mut tree = TreeBuilder::new();
        tree.open(0);
        tree.open(0);
        tree.value(Value::Int(1));
        tree.close_array();
        tree.open(0);
        tree.value(Value::Int(2));
        tree.open(0);
        tree.open(0);
        tree.value(Value::Int(3));
        tree.close_array();
        tree.close_array();
        tree.open(0);
        tree.close_array();
        tree.close_discarding();
        tree.value(Value::Null);
        tree.open(0);
        tree.open(0);
        tree.value(Value::Int(4));
        tree.close_array();
        tree.close_array();
        tree.close_array();
        let v = tree.finish().unwrap();
        let array = |items: Vec<Value>| Value::from(items);
        assert_eq!(
            v,
            array(vec![
                array(vec![Value::Int(1)]),
                Value::Null,
                array(vec![array(vec![Value::Int(4)])]),
            ])
        );
        let mut pinned = Vec::new();
        blocks(&v, &mut pinned);
        let nodes: usize = pinned
            .iter()
            .map(|b| (b.bytes - BLOCK_HEADER) / std::mem::size_of::<Value>())
            .sum();
        assert_eq!(nodes, v.node_count() - 1, "every frozen node is reachable");
    }

    #[test]
    fn two_roots_are_an_error_not_a_tree() {
        let mut tree = TreeBuilder::new();
        tree.open(0);
        tree.value(Value::Int(1));
        tree.close_array();
        tree.value(Value::Int(2));
        assert_eq!(
            tree.finish(),
            Err(ModelError::corrupt("more than one root value"))
        );
    }

    #[test]
    #[should_panic(expected = "one child per field name")]
    fn a_struct_has_one_child_per_name() {
        let mut tree = TreeBuilder::new();
        tree.open(0);
        tree.value(Value::Int(1));
        tree.close_struct(shape("T", &["a", "b"]));
    }
}
