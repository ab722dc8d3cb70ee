//! A `ContentHandler` that logs every call as one line: the Table-4
//! `Display` form of the event, a start element's attributes appended
//! as ` name="value"`.

use std::convert::Infallible;
use wsrc_xml::sax::ContentHandler;
use wsrc_xml::{Attributes, QName, SaxEventRef};

#[derive(Debug, Default)]
pub struct Probe {
    pub log: Vec<String>,
}

impl Probe {
    /// Logs one event; the handler callbacks and `iter()` both end here.
    pub fn event(&mut self, event: SaxEventRef<'_>) -> Result<(), Infallible> {
        let mut line = event.to_string();
        if let SaxEventRef::StartElement { attributes, .. } = event {
            for a in attributes {
                line.push_str(&format!(" {}={:?}", a.name, a.value));
            }
        }
        self.log.push(line);
        Ok(())
    }
}

impl ContentHandler for Probe {
    type Error = Infallible;

    fn start_document(&mut self) -> Result<(), Infallible> {
        self.event(SaxEventRef::StartDocument)
    }
    fn end_document(&mut self) -> Result<(), Infallible> {
        self.event(SaxEventRef::EndDocument)
    }
    fn start_element(
        &mut self,
        name: &QName,
        attributes: Attributes<'_>,
    ) -> Result<(), Infallible> {
        self.event(SaxEventRef::StartElement { name, attributes })
    }
    fn end_element(&mut self, name: &QName) -> Result<(), Infallible> {
        self.event(SaxEventRef::EndElement { name })
    }
    fn characters(&mut self, text: &str) -> Result<(), Infallible> {
        self.event(SaxEventRef::Characters(text))
    }
    fn comment(&mut self, text: &str) -> Result<(), Infallible> {
        self.event(SaxEventRef::Comment(text))
    }
    fn processing_instruction(&mut self, target: &str, data: &str) -> Result<(), Infallible> {
        self.event(SaxEventRef::ProcessingInstruction { target, data })
    }
}
