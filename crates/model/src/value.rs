//! The dynamic application-object tree.
//!
//! A [`Value`] is a persistent tree stored in *blocks*. A string is a
//! [`Text`] — a `(block, start, len)` view of a shared, immutable text
//! block; an array or a struct is a range of a shared block of nodes.
//! A tree made by [`TreeBuilder`](crate::tree::TreeBuilder) — every
//! decoded response, every eager copy — keeps all its strings in one text
//! block and all the containers of one nesting level in one node block,
//! so a response of depth *d* is *d* + 2 allocations however many nodes
//! it has — a struct's names being its type's [`Shape`], compiled once
//! with the registry; only a struct whose fields are not exactly the
//! declared ones in order gets a shape, one more allocation, of its
//! own. A value built by hand (`Value::string`, `StructValue::new`,
//! `Value::from(vec)`) is a block of its own, exactly as large as its
//! content.
//!
//! `Value::clone()` is a reference bump whatever the tree's size, and
//! every mutating accessor is copy-on-write at container granularity: it
//! writes in place when the container is the only holder of its block,
//! and otherwise first copies *that container's own range* into a block
//! of its own (element copies are reference bumps). A write therefore
//! copies the containers on the path from the root it was reached
//! through to the written node and nothing else; untouched siblings keep
//! sharing. Two holders of clones of one tree can never observe each
//! other's writes, which is the call-by-copy semantics the paper's cache
//! must preserve (§3.1), at pass-by-reference cost.
//!
//! **A slice keeps its block alive.** A value taken out of a larger tree
//! (or a container that copied itself out of a shared block) still
//! references the blocks its handles point into, whole, for as long as
//! it lives. [`crate::sizeof::deep_size`] charges exactly that — every
//! block in full, and every shape that is not a registry's — so the
//! cache's byte budget sees what a stored slice really pins.
//!
//! The eager full copies the paper measures stay available as explicit
//! functions ([`crate::reflect::reflect_copy`],
//! [`crate::deep_clone::clone_copy`], [`crate::binser`]).

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// What every shared block carries besides its content: the two
/// reference counts of an `Arc`.
pub const BLOCK_HEADER: usize = 2 * std::mem::size_of::<usize>();

/// One shared allocation a value keeps alive: which, and what it weighs
/// (header and content, whatever part of it the value views).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Block {
    /// The allocation's address: equal for handles on one block.
    pub id: usize,
    /// [`BLOCK_HEADER`] plus the block's whole content.
    pub bytes: usize,
}

impl Block {
    fn of<T: ?Sized>(block: &Arc<T>) -> Block {
        Block {
            id: Arc::as_ptr(block) as *const u8 as usize,
            bytes: BLOCK_HEADER + std::mem::size_of_val::<T>(block),
        }
    }
}

/// A range start or length as the handles store it.
///
/// # Panics
///
/// When `n` does not fit: a handle never wraps.
fn range_u32(n: usize) -> u32 {
    u32::try_from(n).expect("a value block exceeds the u32 range its handles address")
}

/// A dynamic application object — the middleware-visible shape of request
/// parameters and response results.
///
/// Strings and containers alike are views of reference-counted blocks;
/// containers are copy-on-write (see the module docs), strings are
/// immutable as in Java.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Java `null`.
    Null,
    /// `boolean`.
    Bool(bool),
    /// `int`.
    Int(i32),
    /// `long`.
    Long(i64),
    /// `double`.
    Double(f64),
    /// `java.lang.String` — immutable, cheaply shareable.
    String(Text),
    /// `byte[]` — a shared, copy-on-write buffer.
    Bytes(Arc<[u8]>),
    /// A typed array of values — a copy-on-write range of a node block.
    Array(ArrayValue),
    /// A bean-style structured object — a copy-on-write range of a node
    /// block plus a handle on its [`Shape`].
    Struct(StructValue),
}

impl Value {
    /// Creates a string value: one allocation, exactly the string's size.
    pub fn string(s: impl AsRef<str>) -> Value {
        Value::String(Text::from(s.as_ref()))
    }

    /// Short name of this value's runtime type, for diagnostics.
    pub fn type_label(&self) -> &str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "int",
            Value::Long(_) => "long",
            Value::Double(_) => "double",
            Value::String(_) => "string",
            Value::Bytes(_) => "bytes",
            Value::Array(_) => "array",
            Value::Struct(s) => s.type_name(),
        }
    }

    /// Borrows the string content if this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The `i32` if this is an `Int`.
    pub fn as_int(&self) -> Option<i32> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The `f64` if this is a `Double`.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// The byte slice if this is `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The element slice if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The struct if this is a `Struct`.
    pub fn as_struct(&self) -> Option<&StructValue> {
        match self {
            Value::Struct(s) => Some(s),
            _ => None,
        }
    }

    /// Mutable struct access; the struct's own mutators copy its fields
    /// out of a shared block on the first write.
    pub fn as_struct_mut(&mut self) -> Option<&mut StructValue> {
        match self {
            Value::Struct(s) => Some(s),
            _ => None,
        }
    }

    /// Mutable access to the bytes of a `Bytes`, copying the buffer
    /// first if it is shared.
    pub fn as_bytes_mut(&mut self) -> Option<&mut [u8]> {
        match self {
            Value::Bytes(b) => Some(Arc::make_mut(b)),
            _ => None,
        }
    }

    /// Mutable access to the elements of an `Array`, copying them (one
    /// reference bump per element) into a block of the array's own
    /// first if its block is shared.
    pub fn as_array_mut(&mut self) -> Option<&mut [Value]> {
        match self {
            Value::Array(items) => Some(own_range(
                &mut items.block,
                &mut items.start,
                items.len as usize,
            )),
            _ => None,
        }
    }

    /// Total number of nodes in the tree (every value counts as one).
    pub fn node_count(&self) -> usize {
        1 + match self {
            Value::Array(items) => items.iter().map(Value::node_count).sum(),
            Value::Struct(s) => s.fields().map(|(_, v)| v.node_count()).sum(),
            _ => 0,
        }
    }

    /// The block this node's content lives in: the text block of a
    /// string, the buffer of a `byte[]`, the node block holding an
    /// array's elements or a struct's fields. `None` for the values that
    /// are wholly inline.
    pub fn block(&self) -> Option<Block> {
        match self {
            Value::String(s) => Some(Block::of(&s.block)),
            Value::Bytes(b) => Some(Block::of(b)),
            Value::Array(items) => Some(Block::of(&items.block)),
            Value::Struct(s) => Some(Block::of(&s.block)),
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Value {
        Value::Int(i)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Long(i)
    }
}
impl From<f64> for Value {
    fn from(d: f64) -> Value {
        Value::Double(d)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::string(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::string(s)
    }
}
impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Value {
        Value::Bytes(b.into())
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Array(items.into())
    }
}
impl From<StructValue> for Value {
    fn from(s: StructValue) -> Value {
        Value::Struct(s)
    }
}

impl fmt::Display for Value {
    /// Human-readable rendering. Cache keys use the stricter
    /// [`crate::tostring`] module instead.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Long(l) => write!(f, "{l}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::String(s) => f.write_str(s),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Struct(s) => write!(f, "{s}"),
        }
    }
}

/// An immutable string: a view of a shared text block.
///
/// All string leaves of one built tree view one block; a string made on
/// its own ([`Value::string`], `Text::from`) is the whole of a block
/// exactly its size. Equality, `Debug` and `Display` go by content.
#[derive(Clone)]
pub struct Text {
    block: Arc<str>,
    start: u32,
    len: u32,
}

impl Text {
    /// The bytes `start .. start + len` of `block`, which must lie on
    /// character boundaries.
    pub(crate) fn slice(block: Arc<str>, start: u32, len: u32) -> Text {
        debug_assert!(block
            .get(start as usize..start as usize + len as usize)
            .is_some());
        Text { block, start, len }
    }

    /// The string itself.
    pub(crate) fn as_str(&self) -> &str {
        let start = self.start as usize;
        &self.block[start..start + self.len as usize]
    }

    /// All the text of the block this string views, its own and the
    /// rest.
    pub(crate) fn block_text(&self) -> &str {
        &self.block
    }

    /// Whether `self` and `other` are the same bytes of the same block —
    /// what a clone is, and what two equal strings made separately are
    /// not.
    #[cfg(test)]
    pub(crate) fn ptr_eq(&self, other: &Text) -> bool {
        Arc::ptr_eq(&self.block, &other.block) && self.start == other.start && self.len == other.len
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        Text {
            len: range_u32(s.len()),
            block: Arc::from(s),
            start: 0,
        }
    }
}

impl Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Text {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.as_str() == other.as_str()
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The elements `start .. start + len` of `block`.
fn range(block: &[Value], start: u32, len: usize) -> &[Value] {
    &block[start as usize..start as usize + len]
}

/// Copy-on-write: mutable access to a container's `len` elements at
/// `start` of `block`. In place when the container is the block's only
/// holder; otherwise the elements are first copied (reference bumps)
/// into a block of the container's own, exactly their size, and the
/// shared block is left as every other holder sees it.
fn own_range<'b>(block: &'b mut Arc<[Value]>, start: &mut u32, len: usize) -> &'b mut [Value] {
    if Arc::get_mut(block).is_none() {
        *block = range(block, *start, len).iter().cloned().collect();
        *start = 0;
    }
    let own = Arc::get_mut(block).expect("the only holder of its block");
    &mut own[*start as usize..*start as usize + len]
}

/// An array: a view of `len` consecutive nodes of a shared block.
///
/// Dereferences to the element slice. Cloning is a reference bump;
/// [`Value::as_array_mut`] is the copy-on-write mutable access.
#[derive(Clone)]
pub struct ArrayValue {
    block: Arc<[Value]>,
    start: u32,
    len: u32,
}

impl ArrayValue {
    /// The nodes `start .. start + len` of `block`.
    pub(crate) fn slice(block: Arc<[Value]>, start: u32, len: u32) -> ArrayValue {
        debug_assert!(start as usize + len as usize <= block.len());
        ArrayValue { block, start, len }
    }

    /// The whole of `block`.
    fn whole(block: Arc<[Value]>) -> ArrayValue {
        ArrayValue {
            len: range_u32(block.len()),
            block,
            start: 0,
        }
    }

    /// Whether `self` and `other` are views of the same nodes of the
    /// same block — what a clone is until one of the two is written
    /// through.
    #[cfg(test)]
    pub(crate) fn ptr_eq(&self, other: &ArrayValue) -> bool {
        Arc::ptr_eq(&self.block, &other.block) && self.start == other.start && self.len == other.len
    }

    /// Every node of the block this array views, its own and the rest.
    pub(crate) fn block_nodes(&self) -> &[Value] {
        &self.block
    }
}

impl Deref for ArrayValue {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        range(&self.block, self.start, self.len as usize)
    }
}

impl From<Vec<Value>> for ArrayValue {
    fn from(items: Vec<Value>) -> ArrayValue {
        ArrayValue::whole(items.into())
    }
}

impl FromIterator<Value> for ArrayValue {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> ArrayValue {
        ArrayValue::whole(items.into_iter().collect())
    }
}

impl PartialEq for ArrayValue {
    fn eq(&self, other: &ArrayValue) -> bool {
        **self == **other
    }
}

impl fmt::Debug for ArrayValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What the structs of one type and field set have in common: the type
/// name and the field names in order — as a Java instance points at its
/// `Class` instead of holding its field names. A registered type's
/// shape is compiled with its registry
/// ([`StructPlan::shape`](crate::typeinfo::StructPlan::shape)) and
/// shared by every instance decoded or instantiated under it; a struct
/// built field by field grows a shape of its own, and so does a decoded
/// one whose fields are not exactly its type's declared ones in order.
///
/// Equality and hashing go by the names alone, not by who made the
/// shape.
#[derive(Debug, Clone)]
pub struct Shape {
    type_name: Arc<str>,
    names: Vec<Arc<str>>,
    /// Compiled into a type registry, which keeps it alive whatever
    /// values come and go; see [`is_schema`](Shape::is_schema).
    schema: bool,
}

impl Shape {
    /// A shape of the named type with `names` as its fields, in order.
    /// The names must be distinct: every accessor relies on one value
    /// per name.
    pub fn new(type_name: impl Into<Arc<str>>, names: impl IntoIterator<Item = Arc<str>>) -> Shape {
        Shape {
            type_name: type_name.into(),
            names: names.into_iter().collect(),
            schema: false,
        }
    }

    /// [`new`](Shape::new), for the one shape a registry compiles per
    /// type and keeps for as long as it lives.
    pub(crate) fn schema(
        type_name: impl Into<Arc<str>>,
        names: impl IntoIterator<Item = Arc<str>>,
    ) -> Shape {
        Shape {
            schema: true,
            ..Shape::new(type_name, names)
        }
    }

    /// The type name.
    pub(crate) fn type_name(&self) -> &str {
        &self.type_name
    }

    /// The field names, in order, as shared handles.
    pub(crate) fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// Whether this is a registry's own shape of a type: schema, which
    /// the registry pins and no instance pays for. Any other shape was
    /// allocated for the struct that holds it (or for a few that share
    /// it) and is part of what that struct weighs.
    pub fn is_schema(&self) -> bool {
        self.schema
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| **n == *name)
    }
}

impl PartialEq for Shape {
    fn eq(&self, other: &Shape) -> bool {
        self.type_name == other.type_name && self.names == other.names
    }
}

impl Eq for Shape {}

impl std::hash::Hash for Shape {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.type_name.hash(state);
        self.names.hash(state);
    }
}

/// One always-zero byte. `StructValue` is the widest payload of
/// [`Value`]; the unused values of this byte are where the compiler
/// keeps `Value`'s discriminant, which holds `size_of::<Value>()` at 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Filler {
    Zero = 0,
}

/// A bean-style structured object: a type name plus ordered named fields.
///
/// Field order is the declaration order from the type descriptor (or
/// insertion order for ad-hoc structs); it is preserved by every copy
/// mechanism and by serialization.
///
/// The struct is a view of consecutive nodes of a shared block — one per
/// field of its [`Shape`] — so cloning it is two reference bumps, and
/// the mutators ([`set`](StructValue::set),
/// [`get_mut`](StructValue::get_mut), [`fields_mut`](StructValue::fields_mut),
/// [`push_new`](StructValue::push_new)) first copy the fields into a
/// block of the struct's own if the block is shared — the field values
/// of that copy are themselves reference bumps, so siblings of a written
/// field stay shared.
#[derive(Clone)]
pub struct StructValue {
    block: Arc<[Value]>,
    shape: Arc<Shape>,
    start: u32,
    _filler: Filler,
}

impl StructValue {
    /// Creates an empty struct of the named type (the "default
    /// constructor" the reflection copier requires of bean types).
    /// Every field then [`set`](StructValue::set) reallocates the
    /// fields at their new, exact size; where all fields are in hand,
    /// [`from_fields`](StructValue::from_fields) allocates once.
    pub fn new(type_name: impl Into<Arc<str>>) -> Self {
        StructValue::from_fields(type_name, std::iter::empty::<(Arc<str>, Value)>())
    }

    /// A struct of the named type holding `fields`, as if each were
    /// [`set`](StructValue::set) in turn — a name given twice keeps its
    /// first position and its last value — in one block.
    pub fn from_fields<N: Into<Arc<str>>>(
        type_name: impl Into<Arc<str>>,
        fields: impl IntoIterator<Item = (N, Value)>,
    ) -> Self {
        let fields = fields.into_iter();
        let mut names: Vec<Arc<str>> = Vec::with_capacity(fields.size_hint().0);
        let mut values: Vec<Value> = Vec::with_capacity(fields.size_hint().0);
        for (name, value) in fields {
            let name = name.into();
            match names.iter().position(|n| *n == name) {
                Some(at) => values[at] = value,
                None => {
                    names.push(name);
                    values.push(value);
                }
            }
        }
        // Exact-fit, like the block: a name given twice reserved a slot
        // it did not take.
        names.shrink_to_fit();
        StructValue {
            block: values.into(),
            shape: Arc::new(Shape {
                type_name: type_name.into(),
                names,
                schema: false,
            }),
            start: 0,
            _filler: Filler::Zero,
        }
    }

    /// The `shape.names().len()` nodes of `block` from `start`, as the
    /// fields of a struct of that shape.
    pub(crate) fn slice(block: Arc<[Value]>, shape: Arc<Shape>, start: u32) -> StructValue {
        debug_assert!(start as usize + shape.names.len() <= block.len());
        StructValue {
            block,
            shape,
            start,
            _filler: Filler::Zero,
        }
    }

    /// The struct's type name.
    pub fn type_name(&self) -> &str {
        &self.shape.type_name
    }

    /// The shared shape: type name and field names.
    pub fn shape(&self) -> &Arc<Shape> {
        &self.shape
    }

    /// Whether `self` and `other` are views of the same nodes of the
    /// same block — what a clone is until one of the two is written
    /// through.
    pub fn ptr_eq(&self, other: &StructValue) -> bool {
        Arc::ptr_eq(&self.block, &other.block)
            && self.start == other.start
            && self.len() == other.len()
    }

    fn values(&self) -> &[Value] {
        range(&self.block, self.start, self.len())
    }

    fn values_mut(&mut self) -> &mut [Value] {
        own_range(&mut self.block, &mut self.start, self.shape.names.len())
    }

    /// Every node of the block this struct views, its own and the rest.
    pub(crate) fn block_nodes(&self) -> &[Value] {
        &self.block
    }

    /// Appends a field the caller knows is not present yet, skipping the
    /// name scan [`set`](StructValue::set) pays. Appending a name that
    /// is present would break the one-value-per-name invariant every
    /// accessor relies on; debug builds check it.
    pub fn push_new(&mut self, name: impl Into<Arc<str>>, value: impl Into<Value>) {
        let name = name.into();
        debug_assert!(
            self.get(&name).is_none(),
            "push_new: field '{name}' already present"
        );
        // Blocks are exact-fit: one more field is a new block, which is
        // this struct's own whoever shared the old one.
        self.block = self
            .values()
            .iter()
            .cloned()
            .chain(std::iter::once(value.into()))
            .collect();
        self.start = 0;
        // Likewise the names: a shape of this struct's own from here on,
        // whoever compiled the one it is copied from, and exact-fit.
        let shape = Arc::make_mut(&mut self.shape);
        shape.schema = false;
        shape.names.reserve_exact(1);
        shape.names.push(name);
    }

    /// Builder-style field setter.
    pub fn with(mut self, name: impl AsRef<str> + Into<Arc<str>>, value: impl Into<Value>) -> Self {
        self.set(name, value);
        self
    }

    /// Sets a field ("setter method"), replacing any existing value.
    /// The name is converted (a `&str` copied) only when the field is
    /// new.
    pub fn set(&mut self, name: impl AsRef<str> + Into<Arc<str>>, value: impl Into<Value>) {
        match self.shape.position(name.as_ref()) {
            Some(at) => self.values_mut()[at] = value.into(),
            None => self.push_new(name, value),
        }
    }

    /// Gets a field ("getter method").
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.shape.position(name).map(|at| &self.values()[at])
    }

    /// Mutable field access. Copies this struct's fields out of a shared
    /// block first — and only when the field exists.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        let at = self.shape.position(name)?;
        Some(&mut self.values_mut()[at])
    }

    /// Number of fields present.
    pub fn len(&self) -> usize {
        self.shape.names.len()
    }

    /// Whether the struct has no fields.
    pub fn is_empty(&self) -> bool {
        self.shape.names.is_empty()
    }

    /// Iterates `(name, value)` pairs in declaration order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.shape.names.iter().map(|n| &**n).zip(self.values())
    }

    /// Iterates mutably over `(name, value)` pairs, copying this
    /// struct's fields out of a shared block first.
    pub fn fields_mut(&mut self) -> impl Iterator<Item = (&str, &mut Value)> {
        let values = own_range(&mut self.block, &mut self.start, self.shape.names.len());
        self.shape.names.iter().map(|n| &**n).zip(values)
    }
}

impl PartialEq for StructValue {
    fn eq(&self, other: &StructValue) -> bool {
        (Arc::ptr_eq(&self.shape, &other.shape) || self.shape == other.shape)
            && self.values() == other.values()
    }
}

impl fmt::Debug for StructValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct(self.type_name());
        for (name, value) in self.fields() {
            s.field(name, value);
        }
        s.finish()
    }
}

impl fmt::Display for StructValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.type_name())?;
        for (i, (n, v)) in self.fields().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{n}={v}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_struct() -> StructValue {
        StructValue::new("Point")
            .with("x", 3)
            .with("y", 4)
            .with("label", "origin-ish")
    }

    #[test]
    fn a_value_is_four_words() {
        // 148 nodes of the search fixture at 32 bytes are what the cache
        // is charged; a fifth word per node would cost more than the
        // per-field name handles the shape removed.
        assert_eq!(std::mem::size_of::<Value>(), 32);
        assert_eq!(std::mem::size_of::<StructValue>(), 32);
    }

    #[test]
    fn accessors_return_expected_variants() {
        assert_eq!(Value::from(5).as_int(), Some(5));
        assert_eq!(Value::from(2.5).as_double(), Some(2.5));
        assert_eq!(Value::string("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(vec![1u8, 2]).as_bytes(), Some(&[1u8, 2][..]));
        assert!(Value::from(5).as_str().is_none());
        assert!(Value::Null.as_array().is_none());
    }

    #[test]
    fn struct_get_set_semantics() {
        let mut s = sample_struct();
        assert_eq!(s.get("x"), Some(&Value::Int(3)));
        s.set("x", 10);
        assert_eq!(s.get("x"), Some(&Value::Int(10)));
        assert_eq!(s.len(), 3);
        assert!(s.get("missing").is_none());
    }

    #[test]
    fn field_order_is_preserved() {
        let s = sample_struct();
        let names: Vec<_> = s.fields().map(|(n, _)| n).collect();
        assert_eq!(names, ["x", "y", "label"]);
    }

    #[test]
    fn from_fields_is_set_in_turn_in_one_block() {
        let built = StructValue::from_fields(
            "Point",
            [
                ("x", Value::Int(0)),
                ("y", Value::Int(4)),
                ("x", Value::Int(3)),
                ("label", Value::string("origin-ish")),
            ],
        );
        assert_eq!(built, sample_struct());
        assert_eq!(
            Value::Struct(built).block().unwrap().bytes,
            BLOCK_HEADER + 3 * std::mem::size_of::<Value>()
        );
    }

    #[test]
    fn hand_built_values_are_one_exact_block_each() {
        let s = Value::string("héllo");
        assert_eq!(s.block().unwrap().bytes, BLOCK_HEADER + "héllo".len());
        let a = Value::from(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(
            a.block().unwrap().bytes,
            BLOCK_HEADER + 2 * std::mem::size_of::<Value>()
        );
        // Growing a struct leaves no slack behind.
        assert_eq!(
            Value::Struct(sample_struct()).block().unwrap().bytes,
            BLOCK_HEADER + 3 * std::mem::size_of::<Value>()
        );
        assert!(Value::Int(1).block().is_none());
    }

    #[test]
    fn a_struct_built_by_hand_grows_a_shape_of_its_own() {
        let a = sample_struct();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(a.shape(), b.shape()));
        b.set("extra", 1);
        assert_eq!(a.len(), 3, "the clone's new field is not the original's");
        assert_eq!(b.len(), 4);
        assert_eq!(a.shape().names().len(), 3);
        assert_eq!(b.shape().type_name(), "Point");
        assert_ne!(Value::Struct(a), Value::Struct(b));
    }

    #[test]
    fn structs_compare_by_type_names_and_values() {
        let a = sample_struct();
        assert_eq!(a, sample_struct());
        let renamed = StructValue::from_fields("Spot", a.fields().map(|(n, v)| (n, v.clone())));
        assert_ne!(a, renamed);
        let reordered = StructValue::new("Point")
            .with("y", 4)
            .with("x", 3)
            .with("label", "origin-ish");
        assert_ne!(a, reordered);
        // NaN is unequal to itself, shared node or not.
        let nan = Value::from(vec![Value::Double(f64::NAN)]);
        assert_ne!(nan, nan.clone());
    }

    #[test]
    fn node_count_counts_recursively() {
        let v = Value::from(vec![Value::Int(1), Value::Struct(sample_struct())]);
        // array + int + struct + 3 fields
        assert_eq!(v.node_count(), 6);
    }

    #[test]
    fn display_and_debug_render_nested_values() {
        let v = Value::Struct(sample_struct());
        assert_eq!(v.to_string(), "Point{x=3, y=4, label=origin-ish}");
        let arr = Value::from(vec![Value::Int(1), Value::string("a")]);
        assert_eq!(arr.to_string(), "[1, a]");
        assert_eq!(Value::from(vec![0u8; 16]).to_string(), "bytes[16]");
        assert_eq!(format!("{arr:?}"), "Array([Int(1), String(\"a\")])");
        assert_eq!(
            format!("{v:?}"),
            "Struct(Point { x: Int(3), y: Int(4), label: String(\"origin-ish\") })"
        );
    }

    #[test]
    fn string_sharing_is_cheap() {
        let v = Value::string("shared");
        let w = v.clone();
        match (&v, &w) {
            (Value::String(a), Value::String(b)) => assert!(a.ptr_eq(b)),
            _ => unreachable!(),
        }
        match (&v, &Value::string("shared")) {
            (Value::String(a), Value::String(b)) => assert!(a == b && !a.ptr_eq(b)),
            _ => unreachable!(),
        }
    }

    /// `Outer{ id, rows: [Row{ n, blob }, Row{ n, blob }], tail: bytes }`.
    fn nested() -> Value {
        let row = |n: i32| {
            Value::Struct(
                StructValue::new("Row")
                    .with("n", n)
                    .with("blob", vec![n as u8; 4]),
            )
        };
        Value::Struct(
            StructValue::new("Outer")
                .with("id", 7)
                .with("rows", vec![row(1), row(2)])
                .with("tail", vec![9u8; 8]),
        )
    }

    fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
        v.as_struct().unwrap().get(name).unwrap()
    }

    #[test]
    fn clone_shares_every_container_node() {
        let v = nested();
        let w = v.clone();
        assert!(v.as_struct().unwrap().ptr_eq(w.as_struct().unwrap()));
        match (field(&v, "tail"), field(&w, "tail")) {
            (Value::Bytes(a), Value::Bytes(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn a_write_copies_only_the_path_it_touches() {
        let original = nested();
        let mut written = original.clone();
        // Write a byte of the blob of the second row.
        let rows = written
            .as_struct_mut()
            .unwrap()
            .get_mut("rows")
            .unwrap()
            .as_array_mut()
            .unwrap();
        let blob = rows[1].as_struct_mut().unwrap().get_mut("blob").unwrap();
        blob.as_bytes_mut().unwrap()[0] = 0xEE;

        // The other holder sees nothing.
        assert_eq!(original, nested());
        assert_ne!(written, original);
        let rows_of = |v: &'_ Value| field(v, "rows").as_array().unwrap().to_vec();
        let (before, after) = (rows_of(&original), rows_of(&written));
        assert_eq!(after[1].as_struct().unwrap().get("blob"), {
            let mut blob = vec![2u8; 4];
            blob[0] = 0xEE;
            Some(&Value::from(blob))
        });
        // Off the path: the first row and the tail are still the same
        // nodes. On it: root, array, second row and its blob are not.
        assert!(before[0]
            .as_struct()
            .unwrap()
            .ptr_eq(after[0].as_struct().unwrap()));
        match (field(&original, "tail"), field(&written, "tail")) {
            (Value::Bytes(a), Value::Bytes(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
        assert!(!original
            .as_struct()
            .unwrap()
            .ptr_eq(written.as_struct().unwrap()));
        match (field(&original, "rows"), field(&written, "rows")) {
            (Value::Array(a), Value::Array(b)) => assert!(!a.ptr_eq(b)),
            _ => unreachable!(),
        }
        assert!(!before[1]
            .as_struct()
            .unwrap()
            .ptr_eq(after[1].as_struct().unwrap()));
    }

    #[test]
    fn an_unshared_value_is_written_in_place() {
        let mut v = nested();
        let before = (
            v.block().unwrap().id,
            field(&v, "rows").block().unwrap().id,
            field(&v, "tail").block().unwrap().id,
        );
        let root = v.as_struct_mut().unwrap();
        root.get_mut("tail").unwrap().as_bytes_mut().unwrap()[0] = 1;
        root.get_mut("rows").unwrap().as_array_mut().unwrap()[0] = Value::Null;
        root.set("id", 8);
        for (_, value) in root.fields_mut() {
            if let Value::Int(id) = value {
                *id += 1;
            }
        }
        let after = (
            v.block().unwrap().id,
            field(&v, "rows").block().unwrap().id,
            field(&v, "tail").block().unwrap().id,
        );
        assert_eq!(before, after);
        assert_eq!(field(&v, "id"), &Value::Int(9));
    }

    #[test]
    fn get_mut_of_a_missing_field_copies_nothing() {
        let v = nested();
        let mut w = v.clone();
        assert!(w.as_struct_mut().unwrap().get_mut("missing").is_none());
        assert!(v.as_struct().unwrap().ptr_eq(w.as_struct().unwrap()));
    }

    #[test]
    fn type_labels() {
        assert_eq!(Value::Null.type_label(), "null");
        assert_eq!(Value::Struct(sample_struct()).type_label(), "Point");
        assert_eq!(Value::from(1i64).type_label(), "long");
    }
}
