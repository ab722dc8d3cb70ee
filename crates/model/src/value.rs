//! The dynamic application-object tree.
//!
//! A [`Value`] is a persistent tree: every container (`Bytes`, `Array`,
//! `Struct`) is an `Arc`-shared node, so `Value::clone()` is a reference
//! bump whatever the tree's size, and every mutating accessor goes
//! through `Arc::make_mut` — a write copies the nodes on the path from
//! the root it was reached through to the written node and nothing else;
//! untouched siblings stay shared with every other clone. Two holders of
//! clones of one tree can therefore never observe each other's writes,
//! which is the call-by-copy semantics the paper's cache must preserve
//! (§3.1), at pass-by-reference cost. The eager full copies the paper
//! measures stay available as explicit functions
//! ([`crate::reflect::reflect_copy`], [`crate::deep_clone::clone_copy`],
//! [`crate::binser`]).

use crate::error::ModelError;
use std::fmt;
use std::sync::Arc;

/// A dynamic application object — the middleware-visible shape of request
/// parameters and response results.
///
/// Strings and containers alike are reference-counted; containers are
/// copy-on-write (see the module docs), strings are immutable as in Java.
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
    String(Arc<str>),
    /// `byte[]` — a shared, copy-on-write buffer.
    Bytes(Arc<[u8]>),
    /// A typed array of values — a shared, copy-on-write node.
    Array(Arc<[Value]>),
    /// A bean-style structured object — a shared, copy-on-write node.
    Struct(StructValue),
}

impl Value {
    /// Creates a string value.
    pub fn string(s: impl AsRef<str>) -> Value {
        Value::String(Arc::from(s.as_ref()))
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

    /// Whether this value consists only of what is immutable *in Java* —
    /// `null`, primitives and strings — the objects the paper's §6 table
    /// may pass by reference without an administrator's assertion. (In
    /// this model every value can be shared; see the module docs.)
    pub fn is_deeply_immutable(&self) -> bool {
        match self {
            Value::Null
            | Value::Bool(_)
            | Value::Int(_)
            | Value::Long(_)
            | Value::Double(_)
            | Value::String(_) => true,
            Value::Bytes(_) | Value::Array(_) | Value::Struct(_) => false,
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

    /// The `bool` if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
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

    /// Mutable struct access; the struct's own mutators copy its node
    /// on the first write if it is shared.
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

    /// Mutable access to the elements of an `Array`, copying the node
    /// (one reference bump per element) first if it is shared.
    pub fn as_array_mut(&mut self) -> Option<&mut [Value]> {
        match self {
            Value::Array(items) => Some(Arc::make_mut(items)),
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
        Value::String(Arc::from(s.as_str()))
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

/// A bean-style structured object: a type name plus ordered named fields.
///
/// Field order is the declaration order from the type descriptor (or
/// insertion order for ad-hoc structs); it is preserved by every copy
/// mechanism and by serialization.
///
/// The struct is a handle on a shared node: cloning it is a reference
/// bump, and the mutators ([`set`](StructValue::set),
/// [`get_mut`](StructValue::get_mut), [`fields_mut`](StructValue::fields_mut),
/// [`push_new`](StructValue::push_new)) first give this handle a node of
/// its own if the node is shared — the field values of that copy are
/// themselves reference bumps, so siblings of a written field stay
/// shared.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StructValue {
    node: Arc<StructNode>,
}

/// The shared part of a [`StructValue`].
#[derive(Debug, Clone, PartialEq, Default)]
struct StructNode {
    type_name: Arc<str>,
    fields: Vec<(Arc<str>, Value)>,
}

impl StructValue {
    /// Creates an empty struct of the named type (the "default
    /// constructor" the reflection copier requires of bean types).
    ///
    /// Names are `Arc<str>`: pass a clone of the registry descriptor's
    /// (or any other shared name) and the struct carries a handle, not a
    /// copy — as a Java instance points at its `Class` instead of
    /// holding its field names. A `&str` or `String` is copied once.
    pub fn new(type_name: impl Into<Arc<str>>) -> Self {
        StructValue::with_capacity(type_name, 0)
    }

    /// Creates an empty struct with room for `fields` fields, for
    /// builders that know the count up front (the SOAP decoder knows the
    /// declared field count, the reflection copier the present one).
    pub fn with_capacity(type_name: impl Into<Arc<str>>, fields: usize) -> Self {
        StructValue {
            node: Arc::new(StructNode {
                type_name: type_name.into(),
                fields: Vec::with_capacity(fields),
            }),
        }
    }

    /// Number of fields the struct can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.node.fields.capacity()
    }

    /// The struct's type name.
    pub fn type_name(&self) -> &str {
        &self.node.type_name
    }

    /// The shared handle behind [`type_name`](StructValue::type_name).
    pub fn shared_type_name(&self) -> &Arc<str> {
        &self.node.type_name
    }

    /// Whether `self` and `other` are handles on the same node — what a
    /// clone is until one of the two is written through.
    pub fn ptr_eq(&self, other: &StructValue) -> bool {
        Arc::ptr_eq(&self.node, &other.node)
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.node.fields.iter().position(|(n, _)| &**n == name)
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
        Arc::make_mut(&mut self.node)
            .fields
            .push((name, value.into()));
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
        let value = value.into();
        let at = self.position(name.as_ref());
        let fields = &mut Arc::make_mut(&mut self.node).fields;
        match at {
            Some(at) => fields[at].1 = value,
            None => fields.push((name.into(), value)),
        }
    }

    /// Gets a field ("getter method").
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.position(name).map(|at| &self.node.fields[at].1)
    }

    /// Mutable field access. Copies this struct's node first if it is
    /// shared — and only when the field exists.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        let at = self.position(name)?;
        Some(&mut Arc::make_mut(&mut self.node).fields[at].1)
    }

    /// Gets a field or fails with [`ModelError::UnknownField`].
    ///
    /// # Errors
    ///
    /// Returns `UnknownField` when the field does not exist.
    pub fn require(&self, name: &str) -> Result<&Value, ModelError> {
        self.get(name).ok_or_else(|| ModelError::UnknownField {
            type_name: self.type_name().to_string(),
            field: name.to_string(),
        })
    }

    /// Number of fields present.
    pub fn len(&self) -> usize {
        self.node.fields.len()
    }

    /// Whether the struct has no fields.
    pub fn is_empty(&self) -> bool {
        self.node.fields.is_empty()
    }

    /// Iterates `(name, value)` pairs in declaration order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.node.fields.iter().map(|(n, v)| (&**n, v))
    }

    /// [`fields`](StructValue::fields) with the shared handle behind
    /// each name.
    pub fn shared_fields(&self) -> impl Iterator<Item = (&Arc<str>, &Value)> {
        self.node.fields.iter().map(|(n, v)| (n, v))
    }

    /// Iterates mutably over `(name, value)` pairs, copying this
    /// struct's node first if it is shared.
    pub fn fields_mut(&mut self) -> impl Iterator<Item = (&str, &mut Value)> {
        Arc::make_mut(&mut self.node)
            .fields
            .iter_mut()
            .map(|(n, v)| (&**n, v))
    }

    /// A struct with a node of its own, the same type and field names,
    /// room for exactly the fields present, and each value mapped
    /// through `copy` — the shape the generated deep clone produces.
    pub(crate) fn map_values(&self, mut copy: impl FnMut(&Value) -> Value) -> StructValue {
        let mut fields = Vec::with_capacity(self.len());
        fields.extend(
            self.node
                .fields
                .iter()
                .map(|(name, value)| (name.clone(), copy(value))),
        );
        StructValue {
            node: Arc::new(StructNode {
                type_name: self.node.type_name.clone(),
                fields,
            }),
        }
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
    fn accessors_return_expected_variants() {
        assert_eq!(Value::from(5).as_int(), Some(5));
        assert_eq!(Value::from(true).as_bool(), Some(true));
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
        assert!(matches!(
            s.require("missing"),
            Err(ModelError::UnknownField { .. })
        ));
    }

    #[test]
    fn field_order_is_preserved() {
        let s = sample_struct();
        let names: Vec<_> = s.fields().map(|(n, _)| n).collect();
        assert_eq!(names, ["x", "y", "label"]);
    }

    #[test]
    fn immutability_classification() {
        assert!(Value::string("s").is_deeply_immutable());
        assert!(Value::Int(1).is_deeply_immutable());
        assert!(Value::Null.is_deeply_immutable());
        assert!(!Value::from(vec![1u8]).is_deeply_immutable());
        assert!(!Value::from(vec![Value::Int(1)]).is_deeply_immutable());
        assert!(!Value::Struct(sample_struct()).is_deeply_immutable());
    }

    #[test]
    fn node_count_counts_recursively() {
        let v = Value::from(vec![Value::Int(1), Value::Struct(sample_struct())]);
        // array + int + struct + 3 fields
        assert_eq!(v.node_count(), 6);
    }

    #[test]
    fn display_renders_nested_values() {
        let v = Value::Struct(sample_struct());
        assert_eq!(v.to_string(), "Point{x=3, y=4, label=origin-ish}");
        let arr = Value::from(vec![Value::Int(1), Value::string("a")]);
        assert_eq!(arr.to_string(), "[1, a]");
        assert_eq!(Value::from(vec![0u8; 16]).to_string(), "bytes[16]");
    }

    #[test]
    fn string_sharing_is_cheap() {
        let v = Value::string("shared");
        let w = v.clone();
        match (&v, &w) {
            (Value::String(a), Value::String(b)) => assert!(Arc::ptr_eq(a, b)),
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
        assert!(!before[1]
            .as_struct()
            .unwrap()
            .ptr_eq(after[1].as_struct().unwrap()));
    }

    #[test]
    fn an_unshared_value_is_written_in_place() {
        let mut v = nested();
        let tail_before = match field(&v, "tail") {
            Value::Bytes(b) => Arc::as_ptr(b),
            _ => unreachable!(),
        };
        v.as_struct_mut()
            .unwrap()
            .get_mut("tail")
            .unwrap()
            .as_bytes_mut()
            .unwrap()[0] = 1;
        match field(&v, "tail") {
            Value::Bytes(b) => assert_eq!(Arc::as_ptr(b), tail_before),
            _ => unreachable!(),
        }
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
