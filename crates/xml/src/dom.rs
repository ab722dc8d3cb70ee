//! A small DOM tree — the "post-parsing representation" alternative to SAX
//! event sequences for DOM-based middleware.

use crate::error::XmlError;
use crate::event::{Attribute, SaxEventRef, SaxEventSequence};
use crate::name::QName;
use crate::reader::XmlReader;
use crate::writer::XmlWriter;

/// A node in the tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// Character data.
    Text(String),
    /// A comment.
    Comment(String),
}

/// An element with attributes and ordered children.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// The element name as written (prefix preserved).
    pub name: QName,
    /// Attributes in document order, including namespace declarations.
    pub attributes: Vec<Attribute>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl AsRef<str>) -> Self {
        Element {
            name: QName::parse(name.as_ref()),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder-style: adds an attribute.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push(Attribute::new(name.into(), value));
        self
    }

    /// Builder-style: adds a child element.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder-style: adds a text child.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// The value of an attribute, matched on its full lexical name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        let q = QName::parse(name);
        self.attributes
            .iter()
            .find(|a| a.name == q)
            .map(|a| a.value.as_str())
    }

    /// Iterates over child elements only.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            _ => None,
        })
    }

    /// Concatenated text content of this element's direct text children.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for node in &self.children {
            if let Node::Text(t) = node {
                out.push_str(t);
            }
        }
        out
    }

    /// Approximate retained size in bytes (for memory accounting).
    pub(crate) fn approximate_size(&self) -> usize {
        let mut size = std::mem::size_of::<Element>()
            + self.name.prefix().len()
            + self.name.local_part().len();
        for a in &self.attributes {
            size += std::mem::size_of::<Attribute>()
                + a.name.prefix().len()
                + a.name.local_part().len()
                + a.value.len();
        }
        for c in &self.children {
            size += match c {
                Node::Element(e) => e.approximate_size(),
                Node::Text(t) | Node::Comment(t) => std::mem::size_of::<Node>() + t.len(),
            };
        }
        size
    }

    /// Emits this subtree into a writer.
    ///
    /// # Errors
    ///
    /// Propagates writer errors (e.g. when used after the root closed).
    pub(crate) fn write_to(&self, w: &mut XmlWriter) -> Result<(), XmlError> {
        w.start(self.name.to_string())?;
        for a in &self.attributes {
            w.attr(a.name.to_string(), &a.value)?;
        }
        for c in &self.children {
            match c {
                Node::Element(e) => e.write_to(w)?,
                Node::Text(t) => {
                    w.text(t)?;
                }
                Node::Comment(t) => {
                    w.comment(t)?;
                }
            }
        }
        w.end()?;
        Ok(())
    }

    /// Serializes this subtree as an XML string.
    pub fn to_xml(&self) -> String {
        let mut w = XmlWriter::new();
        self.write_to(&mut w)
            .expect("fresh writer accepts a single tree");
        w.finish().expect("tree is balanced by construction")
    }
}

/// A parsed document: the root element (plus anything we chose to keep from
/// the prolog is discarded).
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// The document's single root element.
    pub root: Element,
}

impl Document {
    /// Parses a document from XML text.
    ///
    /// # Errors
    ///
    /// Returns parser errors for malformed input.
    pub fn parse(xml: &str) -> Result<Document, XmlError> {
        let events = XmlReader::new(xml).read_sequence()?;
        Document::from_events(&events)
    }

    /// Builds a document from a recorded event sequence. The reader
    /// records only balanced sequences with a single root, so this
    /// checks neither.
    ///
    /// # Errors
    ///
    /// Fails on a sequence without a root element (an empty one).
    pub fn from_events(events: &SaxEventSequence) -> Result<Document, XmlError> {
        let mut stack: Vec<Element> = Vec::new();
        let mut root: Option<Element> = None;
        for event in events.iter() {
            match event {
                SaxEventRef::StartDocument
                | SaxEventRef::EndDocument
                | SaxEventRef::ProcessingInstruction { .. } => {}
                SaxEventRef::StartElement { name, attributes } => {
                    stack.push(Element {
                        name: name.clone(),
                        attributes: attributes.to_owned_vec(),
                        children: Vec::new(),
                    });
                }
                SaxEventRef::EndElement { .. } => {
                    if let Some(done) = stack.pop() {
                        match stack.last_mut() {
                            Some(parent) => parent.children.push(Node::Element(done)),
                            None => root = Some(done),
                        }
                    }
                }
                SaxEventRef::Characters(t) => {
                    if let Some(parent) = stack.last_mut() {
                        // Merge adjacent text runs for a canonical tree.
                        if let Some(Node::Text(prev)) = parent.children.last_mut() {
                            prev.push_str(t);
                        } else {
                            parent.children.push(Node::Text(t.to_string()));
                        }
                    }
                }
                SaxEventRef::Comment(t) => {
                    if let Some(parent) = stack.last_mut() {
                        parent.children.push(Node::Comment(t.to_string()));
                    }
                }
            }
        }
        root.map(|root| Document { root })
            .ok_or_else(|| XmlError::new("event stream contains no root element"))
    }

    /// Approximate retained size in bytes.
    pub fn approximate_size(&self) -> usize {
        std::mem::size_of::<Document>() + self.root.approximate_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<order id="7"><item qty="2">widget</item><item qty="1">gadget</item><!-- end --></order>"#;

    #[test]
    fn parse_builds_expected_tree() {
        let doc = Document::parse(SAMPLE).unwrap();
        assert_eq!(doc.root.name.local_part(), "order");
        assert_eq!(doc.root.attribute("id"), Some("7"));
        let items: Vec<_> = doc.root.child_elements().collect();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].text(), "widget");
        assert_eq!(items[1].attribute("qty"), Some("1"));
    }

    #[test]
    fn to_xml_roundtrips() {
        let doc = Document::parse(SAMPLE).unwrap();
        let reparsed = Document::parse(&doc.root.to_xml()).unwrap();
        assert_eq!(doc, reparsed);
    }

    #[test]
    fn adjacent_text_runs_merge() {
        // Text and a CDATA section are two character events.
        let events = XmlReader::new("<e>a<![CDATA[b]]></e>")
            .read_sequence()
            .unwrap();
        assert_eq!(events.len(), 6);
        let doc = Document::from_events(&events).unwrap();
        assert_eq!(doc.root.text(), "ab");
        assert_eq!(doc.root.children.len(), 1);
    }

    #[test]
    fn builder_api() {
        let e = Element::new("r")
            .with_attr("k", "v")
            .with_child(Element::new("c").with_text("t"));
        assert_eq!(e.to_xml(), r#"<r k="v"><c>t</c></r>"#);
    }

    #[test]
    fn an_empty_event_stream_has_no_root() {
        let err = Document::from_events(&SaxEventSequence::new()).unwrap_err();
        assert!(err.message().contains("no root element"), "{err}");
    }

    #[test]
    fn size_grows_with_content() {
        let small = Document::parse("<a/>").unwrap().approximate_size();
        let large = Document::parse(SAMPLE).unwrap().approximate_size();
        assert!(large > small);
    }
}
