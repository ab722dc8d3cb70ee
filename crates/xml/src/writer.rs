//! A streaming XML writer with automatic escaping.

use crate::error::XmlError;
use crate::escape::{escape_attribute_into, escape_text_into};
use crate::event::SaxEventRef;

/// Builds an XML document into an in-memory `String`.
///
/// Elements are opened with [`start`](XmlWriter::start) (attributes may be
/// added until content is written) and closed with [`end`](XmlWriter::end).
/// The writer tracks the open-element stack and refuses misuse.
///
/// Everything is written straight into the output: an end tag copies
/// its name from the start tag already written, text and attribute
/// values are escaped in place, and the `_with` forms let a caller
/// format a name, a number or base64 directly into the document. The
/// output is the thread's scratch (see `WriterScratch`): a document is
/// built in a buffer a previous one grew, and
/// [`finish`](XmlWriter::finish) allocates the result once, at its exact
/// size.
///
/// ```
/// use wsrc_xml::XmlWriter;
/// # fn main() -> Result<(), wsrc_xml::XmlError> {
/// let mut w = XmlWriter::new();
/// w.start("doc")?;
/// w.start("para")?;
/// w.text("Hello, world!")?;
/// w.end()?; // para
/// w.end()?; // doc
/// assert_eq!(w.finish()?, "<doc><para>Hello, world!</para></doc>");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct XmlWriter {
    out: String,
    open: Vec<Open>,
    tag_open: bool,
    root_closed: bool,
    /// The output begins with the XML declaration.
    declared: bool,
    indent: Option<usize>,
}

/// One open element.
#[derive(Debug, Clone, Copy)]
struct Open {
    /// Where its name is in the output: its start tag's.
    name: (usize, usize),
    /// It has child elements (pretty mode).
    children: bool,
    /// It has character data.
    text: bool,
}

/// Buffers a writer keeps for the next document on its thread are
/// dropped instead when its output grew past this many bytes.
const SCRATCH_CAP: usize = 16 << 10;
/// … or when its open elements took more than this many.
const OPEN_CAP: usize = 2 << 10;

thread_local! {
    /// The buffers of the last writer to finish on this thread. A writer
    /// that starts while another is open takes new ones.
    static SCRATCH: std::cell::Cell<Option<WriterScratch>> = const { std::cell::Cell::new(None) };
}

/// What an [`XmlWriter`] builds its document in: the output and the open
/// elements. They die with the document, so a thread keeps one set and
/// every writer on it reuses the capacity the last one grew, up to
/// 16 KiB of output.
#[derive(Debug, Default)]
struct WriterScratch {
    out: String,
    open: Vec<Open>,
}

impl WriterScratch {
    fn take() -> WriterScratch {
        SCRATCH.with(std::cell::Cell::take).unwrap_or_default()
    }

    /// Empties the buffers and keeps them for the thread's next writer,
    /// unless they outgrew the cap or a nested writer's got there first
    /// with more room.
    fn give_back(mut self) {
        let open_bytes = self.open.capacity() * std::mem::size_of::<Open>();
        if self.out.capacity() > SCRATCH_CAP || open_bytes > OPEN_CAP {
            return;
        }
        self.out.clear();
        self.open.clear();
        SCRATCH.with(|slot| {
            let keep = match slot.take() {
                Some(kept) if kept.out.capacity() > self.out.capacity() => kept,
                _ => self,
            };
            slot.set(Some(keep));
        });
    }
}

impl Default for XmlWriter {
    fn default() -> Self {
        XmlWriter::new()
    }
}

impl Drop for XmlWriter {
    fn drop(&mut self) {
        WriterScratch {
            out: std::mem::take(&mut self.out),
            open: std::mem::take(&mut self.open),
        }
        .give_back();
    }
}

impl XmlWriter {
    /// Creates a writer producing compact output (no declaration).
    pub fn new() -> Self {
        let WriterScratch { out, open } = WriterScratch::take();
        XmlWriter {
            out,
            open,
            tag_open: false,
            root_closed: false,
            declared: false,
            indent: None,
        }
    }

    /// Creates a writer that first emits `<?xml version="1.0" encoding="UTF-8"?>`.
    pub fn with_declaration() -> Self {
        let mut writer = XmlWriter::new();
        writer
            .out
            .push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        writer.declared = true;
        writer
    }

    /// Enables pretty-printing with the given indent width.
    pub fn indented(mut self, spaces: usize) -> Self {
        if self.declared && self.indent.is_none() {
            self.out.push('\n');
        }
        self.indent = Some(spaces);
        self
    }

    fn close_pending_tag(&mut self) {
        if self.tag_open {
            self.out.push('>');
            self.tag_open = false;
        }
    }

    #[inline]
    fn newline_and_indent(&mut self, depth: usize) {
        if let Some(width) = self.indent {
            if !self.out.is_empty() && !self.out.ends_with('\n') {
                self.out.push('\n');
            }
            for _ in 0..depth * width {
                self.out.push(' ');
            }
        }
    }

    /// Opens an element. `name` may be prefixed (`soap:Envelope`).
    ///
    /// # Errors
    ///
    /// Fails if the document's root element was already closed.
    pub fn start(&mut self, name: impl AsRef<str>) -> Result<&mut Self, XmlError> {
        self.start_with(|out| out.push_str(name.as_ref()))
    }

    /// Opens an element whose name `write` appends to the output — a
    /// prefixed name from its parts, say, with nothing formatted first.
    ///
    /// # Errors
    ///
    /// Same conditions as [`start`](XmlWriter::start).
    pub fn start_with(&mut self, write: impl FnOnce(&mut String)) -> Result<&mut Self, XmlError> {
        if self.root_closed {
            return Err(XmlError::new(
                "cannot start an element after the root was closed",
            ));
        }
        self.close_pending_tag();
        let suppress_indent = match self.open.last_mut() {
            Some(parent) => {
                parent.children = true;
                parent.text
            }
            None => false,
        };
        if !suppress_indent {
            self.newline_and_indent(self.open.len());
        }
        self.out.push('<');
        let at = self.out.len();
        write(&mut self.out);
        self.open.push(Open {
            name: (at, self.out.len()),
            children: false,
            text: false,
        });
        self.tag_open = true;
        Ok(self)
    }

    /// Adds an attribute to the element opened by the latest `start`.
    ///
    /// # Errors
    ///
    /// Fails if content was already written to the element (attributes must
    /// come first).
    pub fn attr(
        &mut self,
        name: impl AsRef<str>,
        value: impl AsRef<str>,
    ) -> Result<&mut Self, XmlError> {
        self.attr_with(name.as_ref(), |out| {
            escape_attribute_into(value.as_ref(), out)
        })
    }

    /// Adds an attribute whose value `write` appends to the output. What
    /// it appends goes in as written: it must need no escaping (a
    /// number, a name) or be escaped already.
    ///
    /// # Errors
    ///
    /// Same conditions as [`attr`](XmlWriter::attr).
    pub fn attr_with(
        &mut self,
        name: &str,
        write: impl FnOnce(&mut String),
    ) -> Result<&mut Self, XmlError> {
        self.attribute([name, ""], write)
    }

    /// Declares a namespace on the open element: `xmlns:prefix="uri"`, or
    /// `xmlns="uri"` when `prefix` is empty.
    ///
    /// # Errors
    ///
    /// Same conditions as [`attr`](XmlWriter::attr).
    pub fn namespace(&mut self, prefix: &str, uri: &str) -> Result<&mut Self, XmlError> {
        let name = match prefix.is_empty() {
            true => ["xmlns", ""],
            false => ["xmlns:", prefix],
        };
        self.attribute(name, |out| escape_attribute_into(uri, out))
    }

    /// Writes ` name="…"`, the name given in two parts.
    fn attribute(
        &mut self,
        name: [&str; 2],
        write: impl FnOnce(&mut String),
    ) -> Result<&mut Self, XmlError> {
        if !self.tag_open {
            let [a, b] = name;
            return Err(XmlError::new(format!(
                "attribute '{a}{b}' written after element content"
            )));
        }
        self.out.push(' ');
        self.out.push_str(name[0]);
        self.out.push_str(name[1]);
        self.out.push_str("=\"");
        write(&mut self.out);
        self.out.push('"');
        Ok(self)
    }

    /// Writes escaped character data inside the current element.
    ///
    /// # Errors
    ///
    /// Fails when no element is open.
    pub fn text(&mut self, text: impl AsRef<str>) -> Result<&mut Self, XmlError> {
        self.text_with(|out| escape_text_into(text.as_ref(), out))
    }

    /// Writes character data that `write` appends to the output as it
    /// stands: digits, base64, or text it escaped itself.
    ///
    /// # Errors
    ///
    /// Fails when no element is open.
    pub fn text_with(&mut self, write: impl FnOnce(&mut String)) -> Result<&mut Self, XmlError> {
        let Some(open) = self.open.last_mut() else {
            return Err(XmlError::new("text outside the root element"));
        };
        open.text = true;
        self.close_pending_tag();
        write(&mut self.out);
        Ok(self)
    }

    /// Writes pre-escaped raw markup verbatim. The caller is responsible
    /// for its well-formedness.
    ///
    /// # Errors
    ///
    /// Fails when no element is open.
    pub fn raw(&mut self, markup: impl AsRef<str>) -> Result<&mut Self, XmlError> {
        self.text_with(|out| out.push_str(markup.as_ref()))
    }

    /// Writes a comment.
    ///
    /// # Errors
    ///
    /// Fails if `text` contains `--`, which is illegal in comments.
    pub fn comment(&mut self, text: impl AsRef<str>) -> Result<&mut Self, XmlError> {
        if text.as_ref().contains("--") {
            return Err(XmlError::new("'--' is not allowed inside comments"));
        }
        self.close_pending_tag();
        self.out.push_str("<!--");
        self.out.push_str(text.as_ref());
        self.out.push_str("-->");
        Ok(self)
    }

    /// Closes the most recently opened element.
    ///
    /// # Errors
    ///
    /// Fails when no element is open.
    pub fn end(&mut self) -> Result<&mut Self, XmlError> {
        let open = self
            .open
            .pop()
            .ok_or_else(|| XmlError::new("end() with no open element"))?;
        if self.tag_open {
            self.out.push_str("/>");
            self.tag_open = false;
        } else {
            if open.children && !open.text {
                self.newline_and_indent(self.open.len());
            }
            self.out.push_str("</");
            self.out.extend_from_within(open.name.0..open.name.1);
            self.out.push('>');
        }
        if self.open.is_empty() {
            self.root_closed = true;
        }
        Ok(self)
    }

    /// Writes `<name>text</name>` in one call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`start`](XmlWriter::start).
    pub fn element_with_text(
        &mut self,
        name: impl AsRef<str>,
        text: impl AsRef<str>,
    ) -> Result<&mut Self, XmlError> {
        self.start(name)?;
        self.text(text)?;
        self.end()
    }

    /// Finishes the document and returns the XML string.
    ///
    /// # Errors
    ///
    /// Fails if elements remain open or nothing was written.
    pub fn finish(self) -> Result<String, XmlError> {
        self.finish_with(|xml| xml.to_string())
    }

    /// Finishes the document and hands it to `make`, which builds what
    /// outlives the writer from it — a `String`, or shared bytes for a
    /// message body — in one allocation of exactly its size.
    ///
    /// # Errors
    ///
    /// Same conditions as [`finish`](XmlWriter::finish).
    pub fn finish_with<T>(self, make: impl FnOnce(&str) -> T) -> Result<T, XmlError> {
        if let Some(open) = self.open.last() {
            return Err(XmlError::new(format!(
                "finish() while <{}> is still open",
                &self.out[open.name.0..open.name.1]
            )));
        }
        if !self.root_closed {
            return Err(XmlError::new(
                "finish() before any root element was written",
            ));
        }
        Ok(make(&self.out))
    }

    /// Current nesting depth (0 at the top level).
    pub fn depth(&self) -> usize {
        self.open.len()
    }
}

/// Serializes a SAX event stream back into XML text.
///
/// Replaying a recorded sequence through this function reconstructs a
/// document equivalent to the original (modulo empty-element form and
/// attribute quoting).
///
/// # Errors
///
/// Fails when the event stream itself is ill-formed (e.g. unbalanced
/// elements).
pub fn events_to_string<'e>(
    events: impl IntoIterator<Item = SaxEventRef<'e>>,
) -> Result<String, XmlError> {
    let mut w = XmlWriter::new();
    for event in events {
        match event {
            SaxEventRef::StartDocument | SaxEventRef::EndDocument => {}
            SaxEventRef::StartElement { name, attributes } => {
                w.start(name.to_string())?;
                for a in attributes {
                    w.attr(a.name.to_string(), a.value)?;
                }
            }
            SaxEventRef::EndElement { .. } => {
                w.end()?;
            }
            SaxEventRef::Characters(text) => {
                w.text(text)?;
            }
            SaxEventRef::Comment(text) => {
                w.comment(text)?;
            }
            SaxEventRef::ProcessingInstruction { target, data } => {
                let pi = if data.is_empty() {
                    format!("<?{target}?>")
                } else {
                    format!("<?{target} {data}?>")
                };
                if w.depth() == 0 {
                    // PI outside the root: append verbatim.
                    w.out.push_str(&pi);
                } else {
                    w.raw(pi)?;
                }
            }
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::XmlReader;

    #[test]
    fn basic_document() {
        let mut w = XmlWriter::new();
        w.start("a").unwrap();
        w.attr("x", "1").unwrap();
        w.start("b").unwrap();
        w.text("hi").unwrap();
        w.end().unwrap();
        w.start("c").unwrap();
        w.end().unwrap();
        w.end().unwrap();
        assert_eq!(w.finish().unwrap(), r#"<a x="1"><b>hi</b><c/></a>"#);
    }

    #[test]
    fn declaration_and_namespace() {
        let mut w = XmlWriter::with_declaration();
        w.start("s:e").unwrap();
        w.namespace("s", "uri:s").unwrap();
        w.namespace("", "uri:default").unwrap();
        w.end().unwrap();
        assert_eq!(
            w.finish().unwrap(),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><s:e xmlns:s=\"uri:s\" xmlns=\"uri:default\"/>"
        );
    }

    #[test]
    fn escaping_is_automatic() {
        let mut w = XmlWriter::new();
        w.start("e").unwrap();
        w.attr("a", "x\"<y").unwrap();
        w.text("1 < 2 & 3 > 2").unwrap();
        w.end().unwrap();
        let xml = w.finish().unwrap();
        assert_eq!(xml, r#"<e a="x&quot;&lt;y">1 &lt; 2 &amp; 3 &gt; 2</e>"#);
        // And it parses back to the original data.
        let evs = XmlReader::new(&xml).read_sequence().unwrap();
        assert_eq!(evs.get(2), Some(SaxEventRef::Characters("1 < 2 & 3 > 2")));
    }

    #[test]
    fn misuse_is_rejected() {
        let mut w = XmlWriter::new();
        assert!(w.end().is_err());
        assert!(w.text("x").is_err());
        w.start("a").unwrap();
        w.text("t").unwrap();
        assert!(w.attr("late", "v").is_err());
        w.end().unwrap();
        assert!(w.start("second-root").is_err());
    }

    #[test]
    fn finish_requires_closed_root() {
        let mut w = XmlWriter::new();
        w.start("a").unwrap();
        assert!(w.finish().is_err());
        let empty = XmlWriter::new();
        assert!(empty.finish().is_err());
    }

    #[test]
    fn element_with_text_shorthand() {
        let mut w = XmlWriter::new();
        w.start("r").unwrap();
        w.element_with_text("k", "v").unwrap();
        w.end().unwrap();
        assert_eq!(w.finish().unwrap(), "<r><k>v</k></r>");
    }

    #[test]
    fn comment_rules() {
        let mut w = XmlWriter::new();
        w.start("a").unwrap();
        assert!(w.comment("bad -- comment").is_err());
        w.comment(" ok ").unwrap();
        w.end().unwrap();
        assert_eq!(w.finish().unwrap(), "<a><!-- ok --></a>");
    }

    #[test]
    fn pretty_printing_indents_nested_elements() {
        let mut w = XmlWriter::new().indented(2);
        w.start("a").unwrap();
        w.start("b").unwrap();
        w.text("t").unwrap();
        w.end().unwrap();
        w.end().unwrap();
        assert_eq!(w.finish().unwrap(), "<a>\n  <b>t</b>\n</a>");
    }

    #[test]
    fn events_roundtrip_through_writer() {
        let xml = r#"<a x="1"><b>hello &amp; goodbye</b><c/><!-- note --></a>"#;
        let events = XmlReader::new(xml).read_sequence().unwrap();
        let rewritten = events_to_string(events.iter()).unwrap();
        assert_eq!(rewritten, xml);
        let reparsed = XmlReader::new(&rewritten).read_sequence().unwrap();
        assert_eq!(events, reparsed);
    }

    #[test]
    fn writer_parser_roundtrip_preserves_unicode() {
        let mut w = XmlWriter::new();
        w.start("e").unwrap();
        w.text("日本語 & <stuff>").unwrap();
        w.end().unwrap();
        let xml = w.finish().unwrap();
        let evs = XmlReader::new(&xml).read_sequence().unwrap();
        assert_eq!(
            evs.get(2),
            Some(SaxEventRef::Characters("日本語 & <stuff>"))
        );
    }
}
