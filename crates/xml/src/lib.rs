#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! XML substrate for the wsrcache project.
//!
//! This crate provides everything the SOAP layer needs from XML, built from
//! scratch: text escaping, qualified names, a streaming
//! [`writer::XmlWriter`], a [`reader::XmlReader`] that pushes events into a
//! [`sax::ContentHandler`] and/or records them as a replayable
//! [`event::SaxEventSequence`] (the paper's "SAX events sequence" cache
//! representation, viewed as [`event::SaxEventRef`]s), and a small [`dom`]
//! tree.
//!
//! # Example
//!
//! ```
//! use wsrc_xml::reader::XmlReader;
//! use wsrc_xml::event::SaxEventRef;
//!
//! # fn main() -> Result<(), wsrc_xml::error::XmlError> {
//! let events = XmlReader::new("<doc><para>Hello, world!</para></doc>").read_sequence()?;
//! assert_eq!(events.iter().next(), Some(SaxEventRef::StartDocument));
//! assert_eq!(events.iter().nth(3).unwrap().to_string(), "characters: Hello, world!");
//! # Ok(())
//! # }
//! ```

pub mod dom;
pub mod error;
pub mod escape;
pub mod event;
pub(crate) mod name;
pub mod reader;
pub mod sax;
mod scan;
pub(crate) mod symbol;
pub mod writer;

pub use dom::{Document, Element};
pub use error::XmlError;
pub use event::{Attributes, SaxEventRef};
pub use name::QName;
pub use reader::XmlReader;
pub use symbol::Symbol;
pub use writer::XmlWriter;
