#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! SOAP 1.1 layer: envelopes, RPC-style typed encoding, faults.
//!
//! The client middleware serializes request application objects into SOAP
//! envelopes ([`serializer`]) and turns response envelopes back into
//! application objects ([`deserializer`]). Deserialization has two entry
//! points with very different costs — the distinction the paper's first
//! optimization exploits:
//!
//! - [`deserializer::read_response_bytes`]: XML parsing **plus**
//!   deserialization (the cache-miss path, and the cache-hit path when
//!   the cache stores raw XML messages);
//! - [`deserializer::read_response_events`]: deserialization only, by
//!   replaying a recorded SAX event sequence (the cache-hit path when the
//!   cache stores the post-parsing representation).

pub mod base64;
pub mod deserializer;
pub mod envelope;
pub(crate) mod error;
pub(crate) mod fault;
pub mod rpc;
pub mod serializer;

pub use error::SoapError;
pub use fault::SoapFault;
pub use rpc::{OperationDescriptor, RpcRequest};
