#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! WSDL 1.1 (with an XML Schema subset): model, writer, parser and the
//! "WSDL compiler".
//!
//! In the paper's stack, service interfaces are described in WSDL and the
//! Axis WSDL compiler generates the Java classes the cache later copies —
//! "the generated classes are serializable and bean-type" (§4.2.3). Our
//! compiler ([`compile()`]) turns a [`model::Definitions`] into a
//! [`wsrc_model::typeinfo::TypeRegistry`] with exactly those capabilities (plus an
//! optional generated deep clone, which the paper proposes) and a set of
//! [`wsrc_soap::OperationDescriptor`]s for the client and server.

pub mod compile;
pub mod model;
pub mod parser;
pub mod writer;

pub use compile::{compile, CompileOptions, CompiledService};
pub use model::{
    ComplexType, Definitions, Message, Part, PortType, Schema, SchemaField, Service, TypeRef,
    WsdlOperation, XsdType,
};
