//! The dynamic application-object tree.

use crate::error::ModelError;
use std::fmt;
use std::sync::Arc;

/// A dynamic application object — the middleware-visible shape of request
/// parameters and response results.
///
/// `String` values are reference-counted (`Arc<str>`) because strings are
/// *immutable* in this model, exactly as in Java: sharing a string between
/// the cache and the client application can never cause a side effect.
/// Everything else that can contain other values (`Bytes`, `Array`,
/// `Struct`) is mutable and therefore must be copied by one of the
/// mechanisms in [`crate::reflect`], [`crate::deep_clone`] or
/// [`crate::binser`] before crossing the cache boundary.
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
    /// `byte[]` — mutable.
    Bytes(Vec<u8>),
    /// A typed array of values.
    Array(Vec<Value>),
    /// A bean-style structured object.
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

    /// Whether this value (the whole tree) consists only of immutable
    /// leaves — `null`, primitives and strings. Such values can safely be
    /// passed by reference between cache and application.
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

    /// Mutable struct access.
    pub fn as_struct_mut(&mut self) -> Option<&mut StructValue> {
        match self {
            Value::Struct(s) => Some(s),
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
        Value::Bytes(b)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Array(items)
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
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StructValue {
    type_name: String,
    fields: Vec<(String, Value)>,
}

impl StructValue {
    /// Creates an empty struct of the named type (the "default
    /// constructor" the reflection copier requires of bean types).
    pub fn new(type_name: impl Into<String>) -> Self {
        StructValue {
            type_name: type_name.into(),
            fields: Vec::new(),
        }
    }

    /// Creates an empty struct with room for `fields` fields, for
    /// builders that know the count up front (the SOAP decoder knows the
    /// declared field count, the reflection copier the present one).
    pub fn with_capacity(type_name: impl Into<String>, fields: usize) -> Self {
        StructValue {
            type_name: type_name.into(),
            fields: Vec::with_capacity(fields),
        }
    }

    /// Number of fields the struct can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.fields.capacity()
    }

    /// The struct's type name.
    pub fn type_name(&self) -> &str {
        &self.type_name
    }

    /// Appends a field the caller knows is not present yet, skipping the
    /// name scan [`set`](StructValue::set) pays. Appending a name that
    /// is present would break the one-value-per-name invariant every
    /// accessor relies on; debug builds check it.
    pub fn push_new(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        let name = name.into();
        debug_assert!(
            self.get(&name).is_none(),
            "push_new: field '{name}' already present"
        );
        self.fields.push((name, value.into()));
    }

    /// Builder-style field setter.
    pub fn with(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.set(name, value);
        self
    }

    /// Sets a field ("setter method"), replacing any existing value.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        let name = name.into();
        let value = value.into();
        match self.fields.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.fields.push((name, value)),
        }
    }

    /// Gets a field ("getter method").
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Mutable field access.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.fields
            .iter_mut()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Gets a field or fails with [`ModelError::UnknownField`].
    ///
    /// # Errors
    ///
    /// Returns `UnknownField` when the field does not exist.
    pub fn require(&self, name: &str) -> Result<&Value, ModelError> {
        self.get(name).ok_or_else(|| ModelError::UnknownField {
            type_name: self.type_name.clone(),
            field: name.to_string(),
        })
    }

    /// Number of fields present.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the struct has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates `(name, value)` pairs in declaration order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Iterates mutably over `(name, value)` pairs.
    pub fn fields_mut(&mut self) -> impl Iterator<Item = (&str, &mut Value)> {
        self.fields.iter_mut().map(|(n, v)| (n.as_str(), v))
    }
}

impl fmt::Display for StructValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.type_name)?;
        for (i, (n, v)) in self.fields.iter().enumerate() {
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
        assert!(!Value::Bytes(vec![1]).is_deeply_immutable());
        assert!(!Value::Array(vec![Value::Int(1)]).is_deeply_immutable());
        assert!(!Value::Struct(sample_struct()).is_deeply_immutable());
    }

    #[test]
    fn node_count_counts_recursively() {
        let v = Value::Array(vec![Value::Int(1), Value::Struct(sample_struct())]);
        // array + int + struct + 3 fields
        assert_eq!(v.node_count(), 6);
    }

    #[test]
    fn display_renders_nested_values() {
        let v = Value::Struct(sample_struct());
        assert_eq!(v.to_string(), "Point{x=3, y=4, label=origin-ish}");
        let arr = Value::Array(vec![Value::Int(1), Value::string("a")]);
        assert_eq!(arr.to_string(), "[1, a]");
        assert_eq!(Value::Bytes(vec![0; 16]).to_string(), "bytes[16]");
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

    #[test]
    fn type_labels() {
        assert_eq!(Value::Null.type_label(), "null");
        assert_eq!(Value::Struct(sample_struct()).type_label(), "Point");
        assert_eq!(Value::from(1i64).type_label(), "long");
    }
}
