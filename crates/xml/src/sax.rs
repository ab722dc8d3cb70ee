//! SAX-style push interface: the [`ContentHandler`] trait that the
//! reader feeds while parsing and a recorded
//! [`SaxEventSequence`](crate::event::SaxEventSequence) feeds on replay.

use crate::event::Attributes;
use crate::name::QName;
use std::fmt;

/// An element's name together with its id in the document's name
/// table. Within one document — one parse, or one replay of a
/// recording — every distinct name has one id, ids are indices into a
/// table that only grows, and equal ids are equal names: a handler can
/// keep whatever it works out about a name in a vector indexed by id and
/// work it out once per document.
#[derive(Debug, Clone, Copy)]
pub struct ElementName<'a> {
    id: u32,
    table: &'a [QName],
}

impl<'a> ElementName<'a> {
    /// The name with id `id` in `table`.
    pub(crate) fn new(id: u32, table: &'a [QName]) -> Self {
        debug_assert!((id as usize) < table.len(), "a name id indexes its table");
        ElementName { id, table }
    }

    /// The name's id in this document.
    pub fn id(self) -> u32 {
        self.id
    }

    /// The name.
    pub fn qname(self) -> &'a QName {
        &self.table[self.id as usize]
    }
}

impl std::ops::Deref for ElementName<'_> {
    type Target = QName;

    fn deref(&self) -> &QName {
        self.qname()
    }
}

impl fmt::Display for ElementName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.qname(), f)
    }
}

/// Receives parsing events, either live from [`crate::reader::XmlReader`]
/// or replayed from a recorded
/// [`SaxEventSequence`](crate::event::SaxEventSequence).
///
/// All methods default to doing nothing so handlers only override what they
/// consume. `Error` is handler-defined; deserializers typically use their
/// own error type.
pub trait ContentHandler {
    /// Error produced by this handler.
    type Error;

    /// Document begins.
    fn start_document(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Document ends.
    fn end_document(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Element begins. Attributes include namespace declarations; the
    /// [`Attributes`] view is `Copy` and borrows from the parser input,
    /// its scratch, or the arena — never per-callback allocations.
    fn start_element(
        &mut self,
        _name: ElementName<'_>,
        _attributes: Attributes<'_>,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Element ends.
    fn end_element(&mut self, _name: ElementName<'_>) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Character data (entities already expanded).
    fn characters(&mut self, _text: &str) -> Result<(), Self::Error> {
        Ok(())
    }

    /// A comment. Most consumers ignore these.
    fn comment(&mut self, _text: &str) -> Result<(), Self::Error> {
        Ok(())
    }

    /// A processing instruction.
    fn processing_instruction(&mut self, _target: &str, _data: &str) -> Result<(), Self::Error> {
        Ok(())
    }
}
