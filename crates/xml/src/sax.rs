//! SAX-style push interface: the [`ContentHandler`] trait that the
//! reader feeds while parsing and a recorded
//! [`SaxEventSequence`](crate::event::SaxEventSequence) feeds on replay.

use crate::event::Attributes;
use crate::name::QName;

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
        _name: &QName,
        _attributes: Attributes<'_>,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Element ends.
    fn end_element(&mut self, _name: &QName) -> Result<(), Self::Error> {
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
