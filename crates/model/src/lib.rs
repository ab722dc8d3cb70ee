#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Dynamic application-object model.
//!
//! The paper's cache middleware manipulates *application objects* the way
//! Java middleware does: it inspects arbitrary response objects at run
//! time, copies them by serialization / reflection / clone, shares
//! immutable ones, and renders parameters to strings for cache keys. This
//! crate is the Rust substrate for those semantics — with one difference
//! that matters: the object tree is copy-on-write, so *every* object can
//! be shared the way Java can share only immutable ones, and the copy
//! mechanisms remain as the explicit, eager operations the paper
//! measures.
//!
//! - [`value::Value`] — a dynamic object tree (the "application object"):
//!   `Arc`-shared nodes, O(1) `clone()`, writes through `Arc::make_mut`.
//! - [`typeinfo`] — type descriptors with per-type capability flags
//!   (serializable / bean / cloneable / immutable / has-to-string), which
//!   reproduce the Java-world limitations behind the paper's "n/a" cells.
//!   Descriptors own the type and field names (`Arc<str>`); instances
//!   hold handles on them.
//! - [`bean`] — bean-conformance validation of values against
//!   descriptors.
//! - [`binser`] — self-describing binary serialization, the analog of the
//!   Java serialization mechanism.
//! - [`reflect`] — generic deep copy driven by run-time structure, the
//!   analog of copying through the reflection API.
//! - [`deep_clone`] — monomorphic structural deep clone, the analog of a
//!   WSDL-compiler-generated `clone()` method. Both produce a tree that
//!   shares no container node with its input.
//! - [`tostring`] — canonical string rendering for cache keys, the analog
//!   of `toString()`.
//! - [`sizeof`] — deep retained-size accounting for the paper's memory
//!   tables.

pub mod bean;
pub mod binser;
pub mod deep_clone;
pub mod error;
pub mod reflect;
pub mod sizeof;
pub mod tostring;
pub mod typeinfo;
pub mod value;

pub use error::ModelError;
pub use typeinfo::{Capabilities, FieldDescriptor, FieldType, TypeDescriptor, TypeRegistry};
pub use value::{StructValue, Value};
