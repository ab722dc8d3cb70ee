//! SAX-style push interface: the [`ContentHandler`] trait, event dispatch,
//! and a [`Recorder`] that captures events into a
//! [`SaxEventSequence`](crate::event::SaxEventSequence).

use crate::error::XmlError;
use crate::event::{Attributes, SaxEvent, SaxEventSequence};
use crate::name::QName;

/// Receives parsing events, either live from [`crate::reader::XmlReader`]
/// or replayed from a recorded [`SaxEventSequence`].
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

/// Delivers one event to a handler, mapping each variant to its callback.
pub fn dispatch<H: ContentHandler>(handler: &mut H, event: &SaxEvent) -> Result<(), H::Error> {
    match event {
        SaxEvent::StartDocument => handler.start_document(),
        SaxEvent::EndDocument => handler.end_document(),
        SaxEvent::StartElement { name, attributes } => {
            handler.start_element(name, Attributes::from_slice(attributes))
        }
        SaxEvent::EndElement { name } => handler.end_element(name),
        SaxEvent::Characters(text) => handler.characters(text),
        SaxEvent::Comment(text) => handler.comment(text),
        SaxEvent::ProcessingInstruction { target, data } => {
            handler.processing_instruction(target, data)
        }
    }
}

/// A handler that records every event it receives.
///
/// The independent way to capture a post-parsing representation: any
/// event source can feed it, alone or through a [`Tee`].
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    sequence: SaxEventSequence,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Consumes the recorder, yielding the captured sequence.
    pub fn into_sequence(self) -> SaxEventSequence {
        self.sequence
    }

    /// The events captured so far.
    pub fn sequence(&self) -> &SaxEventSequence {
        &self.sequence
    }
}

impl ContentHandler for Recorder {
    type Error = XmlError;

    fn start_document(&mut self) -> Result<(), XmlError> {
        self.sequence.record_start_document();
        Ok(())
    }

    fn end_document(&mut self) -> Result<(), XmlError> {
        self.sequence.record_end_document();
        Ok(())
    }

    fn start_element(&mut self, name: &QName, attributes: Attributes<'_>) -> Result<(), XmlError> {
        self.sequence.record_start_element(name, attributes);
        Ok(())
    }

    fn end_element(&mut self, name: &QName) -> Result<(), XmlError> {
        self.sequence.record_end_element(name);
        Ok(())
    }

    fn characters(&mut self, text: &str) -> Result<(), XmlError> {
        self.sequence.record_characters(text);
        Ok(())
    }

    fn comment(&mut self, text: &str) -> Result<(), XmlError> {
        self.sequence.record_comment(text);
        Ok(())
    }

    fn processing_instruction(&mut self, target: &str, data: &str) -> Result<(), XmlError> {
        self.sequence.record_processing_instruction(target, data);
        Ok(())
    }
}

/// Feeds each event to two handlers in sequence (first `a`, then `b`).
///
/// The miss path records and deserializes in one parse through
/// [`XmlReader::read_sequence_into`](crate::reader::XmlReader::read_sequence_into),
/// which records ids straight into the arena; `Tee` over a [`Recorder`]
/// is the handler-level equivalent the differential tests compare it
/// with.
#[derive(Debug)]
pub struct Tee<'x, A, B> {
    a: &'x mut A,
    b: &'x mut B,
}

impl<'x, A, B> Tee<'x, A, B> {
    /// Creates a tee over two handlers.
    pub fn new(a: &'x mut A, b: &'x mut B) -> Self {
        Tee { a, b }
    }
}

/// Error from either side of a [`Tee`].
#[derive(Debug)]
pub enum TeeError<EA, EB> {
    /// The first handler failed.
    First(EA),
    /// The second handler failed.
    Second(EB),
}

impl<EA: std::fmt::Display, EB: std::fmt::Display> std::fmt::Display for TeeError<EA, EB> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeeError::First(e) => write!(f, "first handler: {e}"),
            TeeError::Second(e) => write!(f, "second handler: {e}"),
        }
    }
}

impl<EA, EB> std::error::Error for TeeError<EA, EB>
where
    EA: std::fmt::Display + std::fmt::Debug,
    EB: std::fmt::Display + std::fmt::Debug,
{
}

macro_rules! tee_forward {
    ($self:ident, $($call:tt)+) => {{
        $self.a.$($call)+.map_err(TeeError::First)?;
        $self.b.$($call)+.map_err(TeeError::Second)
    }};
}

impl<A: ContentHandler, B: ContentHandler> ContentHandler for Tee<'_, A, B> {
    type Error = TeeError<A::Error, B::Error>;

    fn start_document(&mut self) -> Result<(), Self::Error> {
        tee_forward!(self, start_document())
    }
    fn end_document(&mut self) -> Result<(), Self::Error> {
        tee_forward!(self, end_document())
    }
    fn start_element(
        &mut self,
        name: &QName,
        attributes: Attributes<'_>,
    ) -> Result<(), Self::Error> {
        tee_forward!(self, start_element(name, attributes))
    }
    fn end_element(&mut self, name: &QName) -> Result<(), Self::Error> {
        tee_forward!(self, end_element(name))
    }
    fn characters(&mut self, text: &str) -> Result<(), Self::Error> {
        tee_forward!(self, characters(text))
    }
    fn comment(&mut self, text: &str) -> Result<(), Self::Error> {
        tee_forward!(self, comment(text))
    }
    fn processing_instruction(&mut self, target: &str, data: &str) -> Result<(), Self::Error> {
        tee_forward!(self, processing_instruction(target, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_roundtrips_replay() {
        let events: SaxEventSequence = vec![
            SaxEvent::StartDocument,
            SaxEvent::StartElement {
                name: QName::local("a"),
                attributes: vec![],
            },
            SaxEvent::Characters("x".into()),
            SaxEvent::Comment("c".into()),
            SaxEvent::ProcessingInstruction {
                target: "pi".into(),
                data: "d".into(),
            },
            SaxEvent::EndElement {
                name: QName::local("a"),
            },
            SaxEvent::EndDocument,
        ]
        .into();
        let mut rec = Recorder::new();
        events.replay(&mut rec).unwrap();
        assert_eq!(rec.into_sequence(), events);
    }

    #[test]
    fn tee_feeds_both_handlers() {
        let events: SaxEventSequence = vec![
            SaxEvent::StartDocument,
            SaxEvent::Characters("x".into()),
            SaxEvent::EndDocument,
        ]
        .into();
        let mut r1 = Recorder::new();
        let mut r2 = Recorder::new();
        {
            let mut tee = Tee::new(&mut r1, &mut r2);
            events.replay(&mut tee).unwrap();
        }
        assert_eq!(r1.sequence(), &events);
        assert_eq!(r2.sequence(), &events);
    }

    #[test]
    fn tee_error_identifies_side() {
        struct Failing;
        impl ContentHandler for Failing {
            type Error = XmlError;
            fn characters(&mut self, _: &str) -> Result<(), XmlError> {
                Err(XmlError::new("boom"))
            }
        }
        let mut f = Failing;
        let mut r = Recorder::new();
        let mut tee = Tee::new(&mut f, &mut r);
        let err = dispatch(&mut tee, &SaxEvent::Characters("x".into())).unwrap_err();
        assert!(matches!(err, TeeError::First(_)));
        assert!(err.to_string().contains("boom"));
    }
}
