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
//! - [`value::Value`] — a dynamic object tree (the "application object")
//!   stored in shared blocks: strings are views of a text block, arrays
//!   and structs ranges of node blocks, a struct's names one handle on a
//!   [`value::Shape`]. O(1) `clone()`; a write first copies the written
//!   container's range out of a shared block.
//! - [`tree::TreeBuilder`] — builds a whole tree into one text block and
//!   one node block per nesting level; what the SOAP decoder, the eager
//!   copiers and [`binser::deserialize`] make their trees with.
//! - [`typeinfo`] — type descriptors. Descriptors own the type and field
//!   names (`Arc<str>`); the registry compiles each into a plan and a
//!   shape instances hold a handle on. The paper's "n/a" cells follow
//!   from the kind of a response's root, not from the descriptor.
//! - [`binser`] — self-describing binary serialization, the analog of the
//!   Java serialization mechanism.
//! - [`reflect`] — generic deep copy driven by run-time structure, the
//!   analog of copying through the reflection API.
//! - [`deep_clone`] — monomorphic structural deep clone, the analog of a
//!   WSDL-compiler-generated `clone()` method. Both produce a tree that
//!   shares no node block with its input.
//! - [`tostring`] — canonical string rendering for cache keys, the analog
//!   of `toString()`.
//! - [`sizeof`] — what a value pins, block by block: the cache's byte
//!   accounting.

pub mod binser;
pub mod deep_clone;
pub(crate) mod error;
pub mod reflect;
pub mod sizeof;
pub mod tostring;
pub mod tree;
pub mod typeinfo;
pub mod value;

pub use error::ModelError;
pub use value::{StructValue, Value};
