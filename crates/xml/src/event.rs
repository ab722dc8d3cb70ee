//! SAX-style event model and the recordable event sequence.
//!
//! The paper's first optimization caches the "post-parsing representation":
//! the sequence of SAX events a parser would deliver for a response
//! document. [`SaxEventSequence`] is that representation — it can be
//! recorded once and replayed into any [`crate::sax::ContentHandler`]
//! without re-parsing the XML text.
//!
//! Since the zero-copy pipeline rework the sequence is stored in *arena*
//! form: one contiguous event vector whose character/comment/PI payloads
//! are range-indexed slices of a single shared text buffer, and whose
//! element/attribute names are compact `u32` ids into a per-sequence
//! name table (each distinct [`QName`] held exactly once). Events and
//! attribute records are plain old data — recording and dropping a
//! sequence touches no per-event reference counts. Replaying borrows
//! straight out of the arenas — the hit path performs no allocation.
//! [`SaxEventRef`] is the one event type: a borrowed view of an arena
//! entry. Only [`crate::reader::XmlReader`] can add events to a
//! sequence, so its name ids and spans are valid by construction.

use crate::name::QName;
use crate::sax::ElementName;
use std::fmt;

/// An owned attribute — the DOM's attribute type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// Attribute name, possibly prefixed; includes `xmlns`/`xmlns:p`
    /// declarations so consumers can maintain namespace scopes.
    pub name: QName,
    /// The unescaped attribute value.
    pub value: String,
}

impl Attribute {
    /// Convenience constructor.
    pub fn new(name: impl AsRef<str>, value: impl Into<String>) -> Self {
        Attribute {
            name: QName::parse(name.as_ref()),
            value: value.into(),
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}=\"{}\"",
            self.name,
            crate::escape::escape_attribute(&self.value)
        )
    }
}

/// One attribute borrowed from a start-element event: the interned name
/// plus the unescaped value as a slice of whichever buffer backs it
/// (raw input for escape-free values, a scratch or arena buffer
/// otherwise). Nothing is allocated to produce one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrRef<'a> {
    /// Attribute name, possibly prefixed.
    pub name: &'a QName,
    /// The unescaped attribute value.
    pub value: &'a str,
}

impl AttrRef<'_> {
    /// Materializes the owned form the DOM stores.
    pub fn to_attribute(&self) -> Attribute {
        Attribute {
            name: self.name.clone(),
            value: self.value.to_string(),
        }
    }
}

impl fmt::Display for AttrRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}=\"{}\"",
            self.name,
            crate::escape::escape_attribute(self.value)
        )
    }
}

/// One recorded attribute in span form: a name id into the owner's
/// name table plus a value range into one of two backing buffers (see
/// [`Attributes`]). This is what the reader and the arena sequence
/// store per attribute — the name and value bytes live in shared
/// tables, never per-attribute, so a record is 16 bytes of plain data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AttrRecord {
    pub(crate) name: u32,
    pub(crate) start: u32,
    pub(crate) end: u32,
    /// Value lives in the alternate backing (the unescape scratch)
    /// rather than the primary buffer (raw input or arena text).
    pub(crate) in_alt: bool,
}

/// The attribute list delivered on a start-element event.
///
/// A cheap `Copy` view over span records plus their backing buffers —
/// the reader's scratch on the parse path, the arena on replay.
/// Iteration yields [`AttrRef`]s either way, so handlers are agnostic
/// to where the bytes live and nothing is allocated per attribute.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attributes<'a> {
    records: &'a [AttrRecord],
    /// Name table the records' `name` ids index.
    names: &'a [QName],
    /// Backs spans with `in_alt == false`.
    primary: &'a str,
    /// Backs spans with `in_alt == true`.
    alt: &'a str,
}

impl<'a> Attributes<'a> {
    pub(crate) fn from_records(
        records: &'a [AttrRecord],
        names: &'a [QName],
        primary: &'a str,
        alt: &'a str,
    ) -> Self {
        Attributes {
            records,
            names,
            primary,
            alt,
        }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The attribute at `index`.
    pub fn get(&self, index: usize) -> Option<AttrRef<'a>> {
        self.records.get(index).map(|r| AttrRef {
            name: &self.names[r.name as usize],
            value: if r.in_alt {
                &self.alt[r.start as usize..r.end as usize]
            } else {
                &self.primary[r.start as usize..r.end as usize]
            },
        })
    }

    /// Iterates over the attributes as borrowed [`AttrRef`]s.
    pub fn iter(&self) -> AttrIter<'a> {
        AttrIter {
            attrs: *self,
            index: 0,
        }
    }

    /// Materializes owned [`Attribute`]s for the DOM builder (allocates;
    /// the borrowed pipeline never needs this).
    pub fn to_owned_vec(&self) -> Vec<Attribute> {
        self.iter().map(|a| a.to_attribute()).collect()
    }
}

impl<'a> IntoIterator for Attributes<'a> {
    type Item = AttrRef<'a>;
    type IntoIter = AttrIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &Attributes<'a> {
    type Item = AttrRef<'a>;
    type IntoIter = AttrIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Equality is by (name, value) pairs, regardless of storage.
impl PartialEq for Attributes<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

/// Iterator over [`Attributes`], yielding borrowed [`AttrRef`]s.
#[derive(Debug, Clone)]
pub struct AttrIter<'a> {
    attrs: Attributes<'a>,
    index: usize,
}

impl<'a> Iterator for AttrIter<'a> {
    type Item = AttrRef<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.attrs.get(self.index)?;
        self.index += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.attrs.len() - self.index;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for AttrIter<'_> {}

/// One parsing event, mirroring the SAX `ContentHandler` callbacks the
/// paper's Table 4 illustrates, *borrowed* from an arena
/// [`SaxEventSequence`]: names point at the sequence's interned symbols,
/// text at its shared buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SaxEventRef<'a> {
    /// Document begins.
    StartDocument,
    /// Document ends.
    EndDocument,
    /// `<name attr="…">` — attributes include namespace declarations.
    StartElement {
        /// Element name as written (prefix preserved).
        name: &'a QName,
        /// Attributes in document order.
        attributes: Attributes<'a>,
    },
    /// `</name>` or the implicit close of `<name/>`.
    EndElement {
        /// Element name as written.
        name: &'a QName,
    },
    /// Character data with entities already expanded. Adjacent runs may
    /// be reported as separate events.
    Characters(&'a str),
    /// `<!-- … -->`.
    Comment(&'a str),
    /// `<?target data?>`.
    ProcessingInstruction {
        /// The PI target.
        target: &'a str,
        /// Everything after the target.
        data: &'a str,
    },
}

impl SaxEventRef<'_> {
    /// Short label used by `Display` and the paper-style Table 4 printout.
    pub fn kind(&self) -> &'static str {
        match self {
            SaxEventRef::StartDocument => "start document",
            SaxEventRef::EndDocument => "end document",
            SaxEventRef::StartElement { .. } => "start element",
            SaxEventRef::EndElement { .. } => "end element",
            SaxEventRef::Characters(_) => "characters",
            SaxEventRef::Comment(_) => "comment",
            SaxEventRef::ProcessingInstruction { .. } => "processing instruction",
        }
    }
}

impl fmt::Display for SaxEventRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaxEventRef::StartDocument | SaxEventRef::EndDocument => f.write_str(self.kind()),
            SaxEventRef::StartElement { name, .. } => write!(f, "start element: {name}"),
            SaxEventRef::EndElement { name } => write!(f, "end element: {name}"),
            SaxEventRef::Characters(s) => write!(f, "characters: {s}"),
            SaxEventRef::Comment(s) => write!(f, "comment: {s}"),
            SaxEventRef::ProcessingInstruction { target, data } => {
                write!(f, "processing instruction: {target} {data}")
            }
        }
    }
}

/// A byte range into one of the sequence's arenas.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ArenaSpan {
    start: u32,
    end: u32,
}

impl ArenaSpan {
    fn new(start: usize, end: usize) -> ArenaSpan {
        ArenaSpan {
            start: u32::try_from(start).expect("SAX arena exceeds u32 range"),
            end: u32::try_from(end).expect("SAX arena exceeds u32 range"),
        }
    }

    fn text<'a>(&self, arena: &'a str) -> &'a str {
        &arena[self.start as usize..self.end as usize]
    }

    fn records<'a>(&self, arena: &'a [AttrRecord]) -> &'a [AttrRecord] {
        &arena[self.start as usize..self.end as usize]
    }
}

/// Compact arena entry: plain old data — names as ids into the
/// sequence's name table, payloads as ranges into the shared buffers.
/// Pushing or dropping millions of these touches no reference counts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ArenaEvent {
    StartDocument,
    EndDocument,
    StartElement { name: u32, attrs: ArenaSpan },
    EndElement { name: u32 },
    Characters(ArenaSpan),
    Comment(ArenaSpan),
    ProcessingInstruction { target: ArenaSpan, data: ArenaSpan },
}

/// A recorded sequence of SAX events — the paper's cached "SAX events
/// sequence" value representation, stored in arena form.
///
/// ```
/// use wsrc_xml::reader::XmlReader;
/// # fn main() -> Result<(), wsrc_xml::XmlError> {
/// let seq = XmlReader::new("<doc><para>Hello, world!</para></doc>")
///     .read_sequence()?;
/// assert_eq!(seq.len(), 7); // matches the paper's Table 4
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SaxEventSequence {
    events: Vec<ArenaEvent>,
    /// All attributes of all start-elements as span records — the value
    /// bytes live in `text`, never per-attribute.
    attrs: Vec<AttrRecord>,
    /// All character/comment/PI text and attribute values, contiguously.
    text: String,
    /// Distinct element/attribute names, each held once; events and
    /// attribute records refer to them by index.
    names: Vec<QName>,
}

impl SaxEventSequence {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        SaxEventSequence::default()
    }

    /// Records an end-element whose name id refers to the table this
    /// sequence will adopt.
    pub(crate) fn record_end_element_id(&mut self, name: u32) {
        self.events.push(ArenaEvent::EndElement { name });
    }

    /// Moves the reader's per-tag attribute records into the arena,
    /// rebasing the value spans from the parser's backing buffers onto
    /// the shared text arena. Name ids transfer verbatim (the reader's
    /// document name table becomes this sequence's table at the end) —
    /// recording an element touches no reference counts.
    pub(crate) fn record_start_element_drained(
        &mut self,
        name: u32,
        records: &mut Vec<AttrRecord>,
        primary: &str,
        alt: &str,
    ) {
        let start = self.attrs.len();
        if records.is_empty() {
            // Most elements carry no attributes; skip the drain setup.
            self.events.push(ArenaEvent::StartElement {
                name,
                attrs: ArenaSpan::new(start, start),
            });
            return;
        }
        for mut r in records.drain(..) {
            let backing = if r.in_alt { alt } else { primary };
            let span = self.append_text(&backing[r.start as usize..r.end as usize]);
            r.start = span.start;
            r.end = span.end;
            r.in_alt = false;
            self.attrs.push(r);
        }
        self.events.push(ArenaEvent::StartElement {
            name,
            attrs: ArenaSpan::new(start, self.attrs.len()),
        });
    }

    /// Pre-sizes the arenas for a document of `input_len` bytes (rough
    /// SOAP-shaped ratios), so recording a whole parse does not pay
    /// repeated growth copies.
    pub(crate) fn reserve_for_input(&mut self, input_len: usize) {
        // Dense SOAP markup runs ~16 input bytes per event; text and
        // attribute values can at most be a subset of the input.
        self.events.reserve(input_len / 16);
        self.text.reserve(input_len / 2);
        self.attrs.reserve(input_len / 96);
    }

    /// Installs the name table the id-based record methods referred to:
    /// the names of the recorded document, each once, in first-use
    /// order.
    pub(crate) fn adopt_names(&mut self, names: Vec<QName>) {
        debug_assert!(self.names.is_empty(), "adopt_names would orphan name ids");
        self.names = names;
    }

    /// Records a start-document marker.
    pub(crate) fn record_start_document(&mut self) {
        self.events.push(ArenaEvent::StartDocument);
    }

    /// Records an end-document marker.
    pub(crate) fn record_end_document(&mut self) {
        self.events.push(ArenaEvent::EndDocument);
    }

    /// Records character data into the shared text arena.
    pub(crate) fn record_characters(&mut self, text: &str) {
        let span = self.append_text(text);
        self.events.push(ArenaEvent::Characters(span));
    }

    /// Records a comment into the shared text arena.
    pub(crate) fn record_comment(&mut self, text: &str) {
        let span = self.append_text(text);
        self.events.push(ArenaEvent::Comment(span));
    }

    /// Records a processing instruction into the shared text arena.
    pub(crate) fn record_processing_instruction(&mut self, target: &str, data: &str) {
        let target = self.append_text(target);
        let data = self.append_text(data);
        self.events
            .push(ArenaEvent::ProcessingInstruction { target, data });
    }

    fn append_text(&mut self, text: &str) -> ArenaSpan {
        let start = self.text.len();
        self.text.push_str(text);
        ArenaSpan::new(start, self.text.len())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The event at `index`, borrowed from the arenas.
    pub fn get(&self, index: usize) -> Option<SaxEventRef<'_>> {
        self.events.get(index).map(|e| self.view(e))
    }

    /// Iterates over the recorded events as borrowed views.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            seq: self,
            inner: self.events.iter(),
        }
    }

    /// The distinct element/attribute names referenced by this
    /// sequence, each held exactly once; events refer to them by index.
    pub fn names(&self) -> &[QName] {
        &self.names
    }

    /// Heap bytes retained by the distinct names — each name charged
    /// once, however many events or attributes reference it.
    pub fn names_bytes(&self) -> usize {
        self.names.iter().map(QName::text_len).sum()
    }

    /// Replays the recorded events into a handler, exactly as a parser
    /// would have delivered them. This is the cache-hit path for the SAX
    /// representation: no XML parsing — and, in arena form, no
    /// allocation — happens; every callback borrows from the arenas.
    pub fn replay<H: crate::sax::ContentHandler>(&self, handler: &mut H) -> Result<(), H::Error> {
        for event in &self.events {
            match event {
                ArenaEvent::StartDocument => handler.start_document()?,
                ArenaEvent::EndDocument => handler.end_document()?,
                ArenaEvent::StartElement { name, attrs } => handler.start_element(
                    ElementName::new(*name, &self.names),
                    Attributes::from_records(
                        attrs.records(&self.attrs),
                        &self.names,
                        &self.text,
                        "",
                    ),
                )?,
                ArenaEvent::EndElement { name } => {
                    handler.end_element(ElementName::new(*name, &self.names))?
                }
                ArenaEvent::Characters(span) => handler.characters(span.text(&self.text))?,
                ArenaEvent::Comment(span) => handler.comment(span.text(&self.text))?,
                ArenaEvent::ProcessingInstruction { target, data } => handler
                    .processing_instruction(target.text(&self.text), data.text(&self.text))?,
            }
        }
        Ok(())
    }

    /// Approximate retained size in bytes (paper Table 9 accounting).
    ///
    /// Events are charged at their fixed arena width, text at its byte
    /// length, attribute values at theirs — and every distinct name is
    /// charged **once** via the embedded name table (its table slot
    /// plus its text), not once per event referencing it.
    pub fn approximate_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.events.len() * std::mem::size_of::<ArenaEvent>()
            + self.attrs.len() * std::mem::size_of::<AttrRecord>()
            + self.text.len()
            + self.names.len() * std::mem::size_of::<QName>()
            + self.names_bytes()
    }

    fn view<'a>(&'a self, event: &'a ArenaEvent) -> SaxEventRef<'a> {
        match event {
            ArenaEvent::StartDocument => SaxEventRef::StartDocument,
            ArenaEvent::EndDocument => SaxEventRef::EndDocument,
            ArenaEvent::StartElement { name, attrs } => SaxEventRef::StartElement {
                name: &self.names[*name as usize],
                attributes: Attributes::from_records(
                    attrs.records(&self.attrs),
                    &self.names,
                    &self.text,
                    "",
                ),
            },
            ArenaEvent::EndElement { name } => SaxEventRef::EndElement {
                name: &self.names[*name as usize],
            },
            ArenaEvent::Characters(span) => SaxEventRef::Characters(span.text(&self.text)),
            ArenaEvent::Comment(span) => SaxEventRef::Comment(span.text(&self.text)),
            ArenaEvent::ProcessingInstruction { target, data } => {
                SaxEventRef::ProcessingInstruction {
                    target: target.text(&self.text),
                    data: data.text(&self.text),
                }
            }
        }
    }
}

/// Two sequences are equal when they replay the same events, regardless
/// of how their arenas are laid out or which tables interned the names.
impl PartialEq for SaxEventSequence {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

/// Borrowed iterator over a sequence's events.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    seq: &'a SaxEventSequence,
    inner: std::slice::Iter<'a, ArenaEvent>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = SaxEventRef<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|e| self.seq.view(e))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a SaxEventSequence {
    type Item = SaxEventRef<'a>;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::XmlReader;

    fn parse(xml: &str) -> SaxEventSequence {
        XmlReader::new(xml).read_sequence().unwrap()
    }

    const EVERY_KIND: &str = r#"<ns:doc ns:attr="v1" b="v2">hello<!--note--><?pi d?></ns:doc>"#;

    #[test]
    fn display_matches_paper_table4_style() {
        let seq = parse(EVERY_KIND);
        let lines: Vec<String> = seq.iter().map(|e| e.to_string()).collect();
        assert_eq!(
            lines,
            [
                "start document",
                "start element: ns:doc",
                "characters: hello",
                "comment: note",
                "processing instruction: pi d",
                "end element: ns:doc",
                "end document",
            ]
        );
    }

    #[test]
    fn arena_views_every_event_kind() {
        let seq = parse(EVERY_KIND);
        assert_eq!(seq.len(), 7);
        assert!(!seq.is_empty());
        assert_eq!(seq.get(0), Some(SaxEventRef::StartDocument));
        match seq.get(1) {
            Some(SaxEventRef::StartElement { name, attributes }) => {
                assert_eq!((name.prefix(), name.local_part()), ("ns", "doc"));
                let pairs: Vec<_> = attributes
                    .iter()
                    .map(|a| (a.name.to_string(), a.value))
                    .collect();
                assert_eq!(
                    pairs,
                    [("ns:attr".to_string(), "v1"), ("b".to_string(), "v2")]
                );
                assert_eq!(attributes.to_owned_vec()[1], Attribute::new("b", "v2"));
                assert_eq!(attributes.get(2), None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(seq.get(2), Some(SaxEventRef::Characters("hello")));
        assert_eq!(seq.get(3), Some(SaxEventRef::Comment("note")));
        assert_eq!(
            seq.get(4),
            Some(SaxEventRef::ProcessingInstruction {
                target: "pi",
                data: "d"
            })
        );
        assert_eq!(seq.get(5).map(|e| e.kind()), Some("end element"));
        assert_eq!(seq.get(6), Some(SaxEventRef::EndDocument));
        assert_eq!(seq.get(7), None);
    }

    #[test]
    fn size_accounts_for_text_and_attributes() {
        let small = parse("<e>a</e>").approximate_size();
        let big = parse(&format!("<e>{}</e>", "a".repeat(100))).approximate_size();
        assert_eq!(big - small, 99);
        let bare = parse("<e/>").approximate_size();
        let with_attr = parse(r#"<e href="value"/>"#).approximate_size();
        assert!(with_attr > bare + "href".len() + "value".len());
    }

    #[test]
    fn attribute_display_escapes_value() {
        let a = Attribute::new("t", "a\"b");
        assert_eq!(a.to_string(), "t=\"a&quot;b\"");
    }

    #[test]
    fn equality_is_by_events_not_by_source_text() {
        let a = parse(r#"<doc k="&lt;">hi</doc>"#);
        let b = parse("<?xml version='1.0'?>\n<doc k = '&#60;' >hi</doc >");
        assert_eq!(a, b);
        assert_ne!(a, parse(r#"<doc k="&lt;">hi<!--extra--></doc>"#));
        assert_ne!(a, parse(r#"<doc k="&gt;">hi</doc>"#));
    }

    fn list_of(name: &str, n: usize) -> SaxEventSequence {
        parse(&format!("<list>{}</list>", format!("<{name}/>").repeat(n)))
    }

    #[test]
    fn repeated_names_are_interned_once() {
        let seq = list_of("item", 100);
        assert_eq!(seq.len(), 204);
        assert_eq!(seq.names().len(), 2);
        assert_eq!(seq.names_bytes(), "list".len() + "item".len());
        // All events share one allocation for the name.
        let mut locals = seq.iter().filter_map(|e| match e {
            SaxEventRef::StartElement { name, .. } | SaxEventRef::EndElement { name }
                if name.local_part() == "item" =>
            {
                Some(name.local_symbol().clone())
            }
            _ => None,
        });
        let first = locals.next().unwrap();
        assert!(locals.all(|s| s.ptr_eq(&first)));
    }

    #[test]
    fn size_charges_interned_names_once() {
        let small = list_of("element-with-a-long-name", 1);
        let big = list_of("element-with-a-long-name", 100);
        let per_event = (big.approximate_size() - small.approximate_size()) as f64
            / (big.len() - small.len()) as f64;
        // The marginal event costs its arena slot only — far less than
        // the 24-byte name it references.
        assert!(
            per_event < std::mem::size_of::<ArenaEvent>() as f64 + 1.0,
            "marginal event size {per_event} should not include the name"
        );
        assert_eq!(big.names_bytes(), small.names_bytes());
    }
}
