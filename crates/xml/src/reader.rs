//! A hand-written, non-validating parser producing SAX events.
//!
//! The scanner is byte-table-driven and zero-allocation on its hot
//! path: a 256-entry class table (`crate::scan`) classifies bytes,
//! SWAR memchr loops skip to the `<` / `&` / quote delimiters eight
//! bytes at a time, and every payload the parser delivers — character
//! data, comment and PI bodies, attribute values — is a borrowed slice
//! of the input. Only content containing entity references takes the
//! slow path, which unescapes into a scratch buffer reused across runs;
//! names are validated, hashed and interned in one byte scan. Three
//! whole-document entry points share that scanner behind two sinks:
//! [`read_sequence`](XmlReader::read_sequence) records an arena,
//! [`parse_into`](XmlReader::parse_into) feeds a handler, and
//! [`read_sequence_into`](XmlReader::read_sequence_into) does both; a
//! handler's rejection never stops the scan, so an XML error anywhere
//! in a document is what every entry point reports first.
//!
//! Supported: elements, attributes (single- or double-quoted), character
//! data, CDATA sections, comments, processing instructions, the XML
//! declaration, predefined entities and character references, and
//! well-formedness checks (tag balance, single root element, attribute
//! uniqueness).
//!
//! Not supported (rejected with an error, as documented in DESIGN.md):
//! DTDs / `<!DOCTYPE …>` — SOAP explicitly forbids them.

use crate::error::{Quoted, XmlError};
use crate::escape::unescape_into;
use crate::event::{AttrRecord, Attributes, SaxEventSequence};
use crate::name::QName;
use crate::sax::{ContentHandler, ElementName};
use crate::scan;
use crate::symbol::{SymbolTable, FNV_OFFSET, FNV_PRIME};

/// Names a thread's vocabulary holds. A SOAP service draws its element
/// and attribute names from a few dozen strings (the Google service,
/// request and response together, from 46), so the first 128 distinct
/// names a thread meets are, in practice, all it will ever meet.
const VOCABULARY_NAMES: usize = 128;
/// Longest name, in bytes, the vocabulary keeps.
const VOCABULARY_NAME_BYTES: usize = 64;
/// Slots of the vocabulary's open-addressed index: twice the names, so a
/// probe ends within a slot or two.
const VOCABULARY_SLOTS: usize = 2 * VOCABULARY_NAMES;

/// Per-thread buffers over this many bytes are dropped when a reader
/// finishes, rather than kept for the next document.
const SCRATCH_BUFFER_CAP: usize = 4 << 10;

thread_local! {
    /// The scratch of the last reader to finish on this thread. A
    /// server thread parses the same service vocabulary request after
    /// request, so carrying the validated, interned names across parses
    /// turns every first occurrence in a document — the case that pays
    /// an `Arc<str>` allocation and a table insert — into a probe, and
    /// the per-document buffers stop being allocated at all.
    /// A reader that starts while another is open on the thread gets
    /// scratch of its own.
    static SCRATCH: std::cell::Cell<Option<Scratch>> =
        const { std::cell::Cell::new(None) };
}

/// What a reader works in: the thread's vocabulary, and buffers that
/// outlive no document, cleared between documents.
#[derive(Debug, Default)]
struct Scratch {
    vocabulary: Vocabulary,
    /// The name table every id the scanner hands out indexes: the
    /// vocabulary's names, in the order it met them, then the names of
    /// this document that did not join it, dropped when it ends. An id
    /// names one name for the life of the vocabulary, so the scanner
    /// resolves a known name without touching a reference count.
    names: Vec<QName>,
    /// Open elements as name ids, with their start tags' name spans for
    /// the end-tag byte-compare fast path.
    open_elements: Vec<OpenTag>,
    /// Unescape target, cleared and reused across text runs.
    text: String,
    /// Attributes of the current start tag, as span records over the
    /// input (escape-free values) or `attr_text`.
    attr_recs: Vec<AttrRecord>,
    /// Unescape target for attribute values, cleared per start tag.
    attr_text: String,
    /// While recording, per name id the id the recording gives the name
    /// (`u32::MAX` until it has one): a recording's table holds the
    /// names its document uses, in first-use order.
    recorded: Vec<u32>,
    /// The recording's name table while it is made.
    recorded_names: Vec<QName>,
}

impl Scratch {
    /// The thread's scratch, or new scratch when another reader holds it.
    fn take() -> Scratch {
        SCRATCH.with(std::cell::Cell::take).unwrap_or_default()
    }

    /// Clears the document's state and hands the scratch back to the
    /// thread, keeping the larger vocabulary when a nested reader's
    /// scratch got there first.
    fn give_back(mut self) {
        self.names.truncate(self.vocabulary.len());
        self.names.shrink_to(VOCABULARY_NAMES);
        self.open_elements = emptied(std::mem::take(&mut self.open_elements));
        self.attr_recs = emptied(std::mem::take(&mut self.attr_recs));
        self.recorded = emptied(std::mem::take(&mut self.recorded));
        self.recorded_names = emptied(std::mem::take(&mut self.recorded_names));
        for text in [&mut self.text, &mut self.attr_text] {
            text.clear();
            if text.capacity() > SCRATCH_BUFFER_CAP {
                *text = String::new();
            }
        }
        SCRATCH.with(|slot| {
            let keep = match slot.take() {
                Some(kept) if kept.vocabulary.len() > self.vocabulary.len() => kept,
                _ => self,
            };
            slot.set(Some(keep));
        });
    }
}

/// `items` emptied for the next document, or a new vector when it holds
/// more than [`SCRATCH_BUFFER_CAP`] bytes.
fn emptied<T>(mut items: Vec<T>) -> Vec<T> {
    items.clear();
    match items.capacity() * std::mem::size_of::<T>() <= SCRATCH_BUFFER_CAP {
        true => items,
        false => Vec::new(),
    }
}

/// A thread's validated, interned names, found by their raw bytes: a
/// repeated `<item>` or `xsi:type` costs a probe and a key compare
/// instead of re-validating, re-hashing and re-interning. It keeps the
/// first [`VOCABULARY_NAMES`] distinct names it meets (of at most
/// [`VOCABULARY_NAME_BYTES`]) and evicts none; any other name is
/// validated and interned per document. The
/// names themselves are the first entries of [`Scratch::names`].
#[derive(Debug)]
struct Vocabulary {
    /// Per slot, 0 when empty, else the name's id plus one.
    index: [u8; VOCABULARY_SLOTS],
    /// Per name id, its raw-byte key and byte length.
    keys: Vec<((u64, u64, u64), usize)>,
    /// The names' parts, each interned once (the `soapenv` of
    /// `soapenv:Envelope` and `soapenv:Body` is one allocation).
    symbols: SymbolTable,
}

impl Default for Vocabulary {
    fn default() -> Self {
        Vocabulary {
            index: [0; VOCABULARY_SLOTS],
            keys: Vec::new(),
            symbols: SymbolTable::new(),
        }
    }
}

impl Vocabulary {
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// The id of the name whose bytes are `bytes` and whose key is `key`,
    /// if the vocabulary holds it; `names` is the name table.
    fn find(&self, key: (u64, u64, u64), bytes: &[u8], names: &[QName]) -> Option<u32> {
        let mut slot = vocabulary_slot(key);
        loop {
            let id = usize::from(self.index[slot]).checked_sub(1)?;
            if self.keys[id] == (key, bytes.len())
                && (bytes.len() <= NAME_KEY_EXACT || qname_eq_bytes(&names[id], bytes))
            {
                return Some(id as u32);
            }
            slot = (slot + 1) % VOCABULARY_SLOTS;
        }
    }

    /// Whether a name of `len` bytes may join: there is room, and it is
    /// no longer than [`VOCABULARY_NAME_BYTES`] (a huge name is not kept
    /// for the thread's life).
    fn admits(&self, len: usize) -> bool {
        self.keys.len() < VOCABULARY_NAMES && len <= VOCABULARY_NAME_BYTES
    }

    /// Gives the name the next id; the vocabulary [`admits`](Self::admits) it.
    fn insert(&mut self, key: (u64, u64, u64), len: usize) {
        let mut slot = vocabulary_slot(key);
        while self.index[slot] != 0 {
            slot = (slot + 1) % VOCABULARY_SLOTS;
        }
        self.keys.push((key, len));
        self.index[slot] = u8::try_from(self.keys.len()).expect("at most 128 names");
    }
}

/// Names whose byte length is at most this are identified exactly by
/// `(name_key, len)`; longer names share keys with same-ended siblings
/// and are verified byte-for-byte on a cache hit.
const NAME_KEY_EXACT: usize = 24;

/// The raw-byte cache key: up to three overlapping little-endian word
/// loads (head, middle, tail — fixed-size loads, no memcpy). Together
/// with the length this identifies any name of up to [`NAME_KEY_EXACT`]
/// bytes exactly — which covers the SOAP vocabulary's long prefixed
/// names (`SOAP-ENV:encodingStyle` is 22 bytes) without a verify pass.
fn name_key(bytes: &[u8]) -> (u64, u64, u64) {
    let len = bytes.len();
    if len >= 16 {
        let lo = u64::from_le_bytes(bytes[..8].try_into().expect("8-byte head"));
        let mid = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte middle"));
        let hi = u64::from_le_bytes(bytes[len - 8..].try_into().expect("8-byte tail"));
        (lo, mid, hi)
    } else if len >= 8 {
        let lo = u64::from_le_bytes(bytes[..8].try_into().expect("8-byte head"));
        let hi = u64::from_le_bytes(bytes[len - 8..].try_into().expect("8-byte tail"));
        (lo, hi, 0)
    } else if len >= 4 {
        // Two overlapping four-byte loads cover every byte of a 4..=7
        // byte name; combined with the stored length the key is still
        // exact, and the fixed-size loads beat a shift-or loop.
        let head = u32::from_le_bytes(bytes[..4].try_into().expect("4-byte head"));
        let tail = u32::from_le_bytes(bytes[len - 4..].try_into().expect("4-byte tail"));
        (u64::from(head) | (u64::from(tail) << 32), 0, 0)
    } else {
        let mut lo = 0u64;
        for (i, &b) in bytes.iter().enumerate() {
            lo |= u64::from(b) << (8 * i);
        }
        (lo, 0, 0)
    }
}

fn vocabulary_slot(key: (u64, u64, u64)) -> usize {
    ((key.0 ^ key.1.rotate_left(32) ^ key.2).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
}

/// Whether `bytes` is exactly the lexical form of `name` — the zero-cost
/// comparison behind the end-tag fast path (no intern, no allocation).
fn qname_eq_bytes(name: &QName, bytes: &[u8]) -> bool {
    let local = name.local_symbol().as_str().as_bytes();
    match name.prefix_symbol() {
        None => bytes == local,
        Some(p) => {
            let p = p.as_str().as_bytes();
            bytes.len() == p.len() + 1 + local.len()
                && bytes[..p.len()] == *p
                && bytes[p.len()] == b':'
                && bytes[p.len() + 1..] == *local
        }
    }
}

/// One open element: its document name id plus the input span of the
/// name as written in the start tag. End tags close the innermost open
/// element in the overwhelming case, and equal names have identical
/// lexical bytes, so an input-to-input byte compare against `span`
/// settles the match without touching the name table at all.
#[derive(Debug, Clone, Copy)]
struct OpenTag {
    id: u32,
    span: (u32, u32),
}

/// Where scan results go. The scanner is monomorphized per destination,
/// so every payload flows from the byte scan that found it straight to
/// its consumer — no staging in reader fields, no second dispatch on an
/// event tag. Element and attribute names travel as `u32` ids into the
/// reader's document name table (`names` in the signatures below);
/// text, comment and PI payloads are borrowed slices of the input or
/// the reader's scratch.
///
/// `Error` must absorb parse errors so the scanner's `?` sites convert
/// with `From`; sinks that cannot fail otherwise use [`XmlError`]
/// directly.
trait EventSink {
    /// Sink-side error; parse errors convert into it via `From`.
    type Error: From<XmlError>;

    fn start_document(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
    fn end_document(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
    /// `names[name as usize]` is the element name; `attrs` are span
    /// records over `input` (escape-free values) or `scratch` (entity
    /// values). A sink may drain `attrs`; the scanner clears it at the
    /// next start tag either way.
    fn start_element(
        &mut self,
        _name: u32,
        _names: &[QName],
        _attrs: &mut Vec<AttrRecord>,
        _input: &str,
        _scratch: &str,
    ) -> Result<(), Self::Error> {
        Ok(())
    }
    fn end_element(&mut self, _name: u32, _names: &[QName]) -> Result<(), Self::Error> {
        Ok(())
    }
    fn characters(&mut self, _text: &str) -> Result<(), Self::Error> {
        Ok(())
    }
    fn comment(&mut self, _text: &str) -> Result<(), Self::Error> {
        Ok(())
    }
    fn processing_instruction(&mut self, _target: &str, _data: &str) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// Records events into an arena [`SaxEventSequence`] — the miss-path
/// fast lane: text lands in the sequence's text buffer, names flow as
/// ids, attribute records are drained wholesale, nothing allocates per
/// event. The sequence's name table holds the names its document uses:
/// a name joins it on first use, and `recorded` maps the scanner's ids
/// to the sequence's.
struct RecordSink<'s> {
    sequence: &'s mut SaxEventSequence,
    recorded: Vec<u32>,
    /// The sequence's name table so far, adopted at the end at its
    /// exact size.
    names: Vec<QName>,
}

impl RecordSink<'_> {
    /// Hands the sequence its name table and the buffers back to the
    /// reader's scratch.
    fn finish(self, scratch: &mut Scratch) {
        let mut names = self.names;
        let mut table = Vec::with_capacity(names.len());
        table.append(&mut names);
        self.sequence.adopt_names(table);
        (scratch.recorded, scratch.recorded_names) = (self.recorded, names);
    }

    /// The sequence's id for name `id` of `names`.
    #[inline]
    fn recorded_id(&mut self, id: u32, names: &[QName]) -> u32 {
        match self.recorded.get(id as usize) {
            Some(&recorded) if recorded != u32::MAX => recorded,
            _ => self.first_use(id, names),
        }
    }

    /// Gives name `id` of `names` the sequence's next id.
    #[cold]
    fn first_use(&mut self, id: u32, names: &[QName]) -> u32 {
        let at = id as usize;
        if at >= self.recorded.len() {
            // In one step to cover a service's vocabulary.
            let len = (at + 1).next_power_of_two().max(64);
            self.recorded.resize(len, u32::MAX);
        }
        self.recorded[at] = arena_index(self.names.len());
        self.names.push(names[at].clone());
        self.recorded[at]
    }
}

impl EventSink for RecordSink<'_> {
    type Error = XmlError;

    fn start_document(&mut self) -> Result<(), XmlError> {
        self.sequence.record_start_document();
        Ok(())
    }
    fn end_document(&mut self) -> Result<(), XmlError> {
        self.sequence.record_end_document();
        Ok(())
    }
    fn start_element(
        &mut self,
        name: u32,
        names: &[QName],
        attrs: &mut Vec<AttrRecord>,
        input: &str,
        scratch: &str,
    ) -> Result<(), XmlError> {
        let name = self.recorded_id(name, names);
        for record in attrs.iter_mut() {
            record.name = self.recorded_id(record.name, names);
        }
        self.sequence
            .record_start_element_drained(name, attrs, input, scratch);
        Ok(())
    }
    fn end_element(&mut self, name: u32, names: &[QName]) -> Result<(), XmlError> {
        let name = self.recorded_id(name, names);
        self.sequence.record_end_element_id(name);
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

/// Records nothing: what [`XmlReader::parse_into`] tees the handler
/// with, so the scan still checks every byte after a rejection.
impl EventSink for () {
    type Error = XmlError;
}

/// Feeds a [`ContentHandler`] and a recorder (the arena's, or `()`)
/// from the same scan — the sink behind [`XmlReader::read_sequence_into`]
/// and [`XmlReader::parse_into`]. The handler sees each event first
/// (its attribute view borrows the records the recorder then drains). A
/// handler error does not stop the scan: it is held while the rest of
/// the document is checked, so a document that is both malformed and
/// unacceptable to the handler reports the parse error — the answer a
/// parse followed by a replay gives.
struct TeeSink<'s, H: ContentHandler, R> {
    record: R,
    handler: &'s mut H,
    rejected: Option<H::Error>,
}

impl<H: ContentHandler, R> TeeSink<'_, H, R> {
    fn feed(&mut self, event: impl FnOnce(&mut H) -> Result<(), H::Error>) {
        if self.rejected.is_none() {
            self.rejected = event(self.handler).err();
        }
    }
}

impl<H: ContentHandler, R: EventSink<Error = XmlError>> EventSink for TeeSink<'_, H, R> {
    type Error = XmlError;

    fn start_document(&mut self) -> Result<(), XmlError> {
        self.feed(|h| h.start_document());
        self.record.start_document()
    }
    fn end_document(&mut self) -> Result<(), XmlError> {
        self.feed(|h| h.end_document());
        self.record.end_document()
    }
    fn start_element(
        &mut self,
        name: u32,
        names: &[QName],
        attrs: &mut Vec<AttrRecord>,
        input: &str,
        scratch: &str,
    ) -> Result<(), XmlError> {
        self.feed(|h| {
            h.start_element(
                ElementName::new(name, names),
                Attributes::from_records(attrs, names, input, scratch),
            )
        });
        self.record
            .start_element(name, names, attrs, input, scratch)
    }
    fn end_element(&mut self, name: u32, names: &[QName]) -> Result<(), XmlError> {
        self.feed(|h| h.end_element(ElementName::new(name, names)));
        self.record.end_element(name, names)
    }
    fn characters(&mut self, text: &str) -> Result<(), XmlError> {
        self.feed(|h| h.characters(text));
        self.record.characters(text)
    }
    fn comment(&mut self, text: &str) -> Result<(), XmlError> {
        self.feed(|h| h.comment(text));
        self.record.comment(text)
    }
    fn processing_instruction(&mut self, target: &str, data: &str) -> Result<(), XmlError> {
        self.feed(|h| h.processing_instruction(target, data));
        self.record.processing_instruction(target, data)
    }
}

/// A streaming XML parser over a complete in-memory document.
///
/// Consumed by one of [`read_sequence`](XmlReader::read_sequence),
/// [`parse_into`](XmlReader::parse_into) or
/// [`read_sequence_into`](XmlReader::read_sequence_into).
///
/// ```
/// use wsrc_xml::{SaxEventRef, XmlReader};
/// # fn main() -> Result<(), wsrc_xml::XmlError> {
/// let seq = XmlReader::new("<greet who='world'/>").read_sequence()?;
/// for event in seq.iter() {
///     if let SaxEventRef::StartElement { name, attributes } = event {
///         assert_eq!(name.local_part(), "greet");
///         assert_eq!(attributes.get(0).unwrap().value, "world");
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct XmlReader<'x> {
    input: &'x str,
    pos: usize,
    state: State,
    seen_root: bool,
    /// The thread's vocabulary and this document's buffers.
    scratch: Scratch,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Start,
    InDocument,
    Done,
}

impl<'x> XmlReader<'x> {
    /// Creates a parser over a complete document held in memory.
    pub fn new(input: &'x str) -> Self {
        XmlReader {
            input,
            pos: 0,
            state: State::Start,
            seen_root: false,
            scratch: Scratch::take(),
        }
    }

    /// Creates a parser over a complete document held as shared bytes
    /// (e.g. an HTTP body's `Arc<[u8]>` payload). The whole input is
    /// UTF-8-validated up front — one vectorized pass over the bytes —
    /// after which scanning is purely bytewise: every delimiter the
    /// table matches is ASCII, so span boundaries are always character
    /// boundaries and no per-span re-validation happens.
    ///
    /// # Errors
    ///
    /// Returns a positioned error when the bytes are not valid UTF-8.
    pub fn from_bytes(input: &'x [u8]) -> Result<Self, XmlError> {
        match std::str::from_utf8(input) {
            Ok(text) => Ok(XmlReader::new(text)),
            Err(e) => Err(XmlError::at(
                e.valid_up_to().max(1),
                "input is not valid UTF-8",
            )),
        }
    }

    /// Parses the whole document into an arena [`SaxEventSequence`],
    /// recording borrowed payloads straight into the sequence's buffers
    /// — no intermediate owned events exist. Names are interned once,
    /// in the scan that validates them, flow through recording as
    /// plain `u32` ids, and the reader's document name table becomes
    /// the sequence's table at the end.
    ///
    /// # Errors
    ///
    /// Returns the first syntax or well-formedness error encountered.
    pub fn read_sequence(mut self) -> Result<SaxEventSequence, XmlError> {
        let mut sequence = SaxEventSequence::new();
        sequence.reserve_for_input(self.input.len());
        let mut sink = RecordSink {
            sequence: &mut sequence,
            recorded: std::mem::take(&mut self.scratch.recorded),
            names: std::mem::take(&mut self.scratch.recorded_names),
        };
        let scanned = self.scan(&mut sink);
        sink.finish(&mut self.scratch);
        scanned?;
        Ok(sequence)
    }

    /// [`read_sequence`](XmlReader::read_sequence) that also pushes each
    /// event into `handler` as it is recorded — one scan yields both the
    /// arena and whatever the handler builds, which is how a cache miss
    /// deserializes and records a response in a single pass.
    ///
    /// # Errors
    ///
    /// `Parse` for XML problems anywhere in the document; otherwise
    /// `Handler` with the first event the handler rejected (it receives
    /// no events after that one).
    pub fn read_sequence_into<H: ContentHandler>(
        mut self,
        handler: &mut H,
    ) -> Result<SaxEventSequence, ParseIntoError<H::Error>> {
        let mut sequence = SaxEventSequence::new();
        sequence.reserve_for_input(self.input.len());
        let mut sink = TeeSink {
            record: RecordSink {
                sequence: &mut sequence,
                recorded: std::mem::take(&mut self.scratch.recorded),
                names: std::mem::take(&mut self.scratch.recorded_names),
            },
            handler,
            rejected: None,
        };
        let scanned = self.scan(&mut sink);
        sink.record.finish(&mut self.scratch);
        scanned?;
        if let Some(e) = sink.rejected {
            return Err(ParseIntoError::Handler(e));
        }
        Ok(sequence)
    }

    /// Parses the document, pushing events into `handler` until it
    /// rejects one. Callbacks receive payloads borrowed from the input
    /// (or the entity scratch) — nothing owned is materialized. The scan
    /// goes on after a rejection, so an XML error anywhere in the
    /// document takes precedence over the handler's — what parsing to a
    /// tree and then walking it reports — at no cost to a document the
    /// handler accepts.
    ///
    /// # Errors
    ///
    /// `Parse` for XML problems anywhere in the document; otherwise
    /// `Handler` with the first event the handler rejected.
    pub fn parse_into<H: ContentHandler>(
        mut self,
        handler: &mut H,
    ) -> Result<(), ParseIntoError<H::Error>> {
        let mut sink = TeeSink {
            record: (),
            handler,
            rejected: None,
        };
        self.scan(&mut sink)?;
        match sink.rejected {
            Some(e) => Err(ParseIntoError::Handler(e)),
            None => Ok(()),
        }
    }

    /// Scans the whole document into `sink`.
    fn scan<S: EventSink>(&mut self, sink: &mut S) -> Result<(), S::Error> {
        while self.advance_into(sink)? {}
        Ok(())
    }

    /// Scans to the next piece of content and delivers its events to
    /// `sink` (two for `<empty/>`). Returns `Ok(true)` while events keep
    /// coming, `Ok(false)` once `EndDocument` has been delivered.
    fn advance_into<S: EventSink>(&mut self, sink: &mut S) -> Result<bool, S::Error> {
        match self.state {
            State::Start => {
                self.state = State::InDocument;
                sink.start_document()?;
                return Ok(true);
            }
            State::Done => return Ok(false),
            State::InDocument => {}
        }
        let input = self.input;
        let bytes = input.as_bytes();
        loop {
            if self.pos >= bytes.len() {
                return self.finish_document(sink);
            }
            let start = self.pos;
            if bytes[start] == b'<' {
                if self.read_markup(sink)? {
                    return Ok(true);
                }
                // The XML declaration is consumed silently.
                continue;
            }
            // Character data: skip to the next '<', noting the first '&'
            // so escape-free runs (the common case) stay borrowed.
            let (lt, amp) = match scan::memchr2(b'<', b'&', &bytes[start..]) {
                None => (bytes.len(), None),
                Some(off) if bytes[start + off] == b'<' => (start + off, None),
                Some(off) => {
                    let amp = start + off;
                    let lt = scan::memchr(b'<', &bytes[amp + 1..])
                        .map(|o| amp + 1 + o)
                        .unwrap_or(bytes.len());
                    (lt, Some(amp))
                }
            };
            if lt == bytes.len() {
                // Trailing text with no more markup.
                if !self.span_is_ws(start, lt) {
                    return Err(self.err("character data after the root element").into());
                }
                self.pos = lt;
                return self.finish_document(sink);
            }
            if lt > start {
                self.pos = lt;
                if self.scratch.open_elements.is_empty() {
                    if !self.span_is_ws(start, lt) {
                        return Err(self.err("character data outside the root element").into());
                    }
                    continue;
                }
                if amp.is_some() {
                    self.scratch.text.clear();
                    unescape_into(&input[start..lt], &mut self.scratch.text)
                        .map_err(|e| self.err(e.message()))?;
                    sink.characters(&self.scratch.text)?;
                } else {
                    sink.characters(&input[start..lt])?;
                }
                return Ok(true);
            }
        }
    }

    /// Whether the span is whitespace, per the byte table — the same
    /// ASCII set skipped inside a tag. Unicode spaces such as NBSP are
    /// character data, which only the root may hold.
    fn span_is_ws(&self, start: usize, end: usize) -> bool {
        self.input.as_bytes()[start..end]
            .iter()
            .all(|&b| scan::CLASS[b as usize] & scan::WS != 0)
    }

    fn finish_document<S: EventSink>(&mut self, sink: &mut S) -> Result<bool, S::Error> {
        if let Some(open) = self.scratch.open_elements.last() {
            let open = self.quoted(open.id);
            return Err(self
                .err(format!("unexpected end of input; <{open}> is still open"))
                .into());
        }
        if !self.seen_root {
            return Err(self.err("document has no root element").into());
        }
        self.state = State::Done;
        sink.end_document()?;
        Ok(true)
    }

    /// Reads one piece of markup at `pos`, delivering its event to
    /// `sink`; returns `Ok(false)` only for the (eventless) XML
    /// declaration.
    fn read_markup<S: EventSink>(&mut self, sink: &mut S) -> Result<bool, S::Error> {
        let rest = &self.input.as_bytes()[self.pos..];
        debug_assert!(rest.starts_with(b"<"));
        // One branch on the byte after '<' settles the two hot cases
        // (end tag, start tag); declarations take the longer chain.
        match rest.get(1) {
            Some(b'/') => self.read_end_tag(sink).map(|()| true),
            Some(b'!') => {
                if rest.starts_with(b"<!--") {
                    return self.read_comment(sink).map(|()| true);
                }
                if rest.starts_with(b"<![CDATA[") {
                    return self.read_cdata(sink).map(|()| true);
                }
                if rest.starts_with(b"<!DOCTYPE") || rest.starts_with(b"<!doctype") {
                    return Err(self
                        .err("DTDs are not supported (SOAP forbids them)")
                        .into());
                }
                Err(self.err("unsupported markup declaration").into())
            }
            Some(b'?') => self.read_pi(sink),
            _ => self.read_start_tag(sink).map(|()| true),
        }
    }

    fn read_comment<S: EventSink>(&mut self, sink: &mut S) -> Result<(), S::Error> {
        let input = self.input;
        let bytes = input.as_bytes();
        let body_start = self.pos + 4;
        let end = scan::find_seq(b"-->", &bytes[body_start..])
            .ok_or_else(|| self.err("unterminated comment"))?;
        if scan::find_seq(b"--", &bytes[body_start..body_start + end]).is_some() {
            return Err(self.err("'--' is not allowed inside comments").into());
        }
        self.pos = body_start + end + 3;
        sink.comment(&input[body_start..body_start + end])?;
        Ok(())
    }

    fn read_cdata<S: EventSink>(&mut self, sink: &mut S) -> Result<(), S::Error> {
        if self.scratch.open_elements.is_empty() {
            return Err(self.err("CDATA section outside the root element").into());
        }
        let input = self.input;
        let bytes = input.as_bytes();
        let body_start = self.pos + "<![CDATA[".len();
        let end = scan::find_seq(b"]]>", &bytes[body_start..])
            .ok_or_else(|| self.err("unterminated CDATA section"))?;
        self.pos = body_start + end + 3;
        sink.characters(&input[body_start..body_start + end])?;
        Ok(())
    }

    fn read_pi<S: EventSink>(&mut self, sink: &mut S) -> Result<bool, S::Error> {
        let input = self.input;
        let bytes = input.as_bytes();
        let body_start = self.pos + 2;
        let end = scan::find_seq(b"?>", &bytes[body_start..])
            .ok_or_else(|| self.err("unterminated processing instruction"))?;
        let body = &input[body_start..body_start + end];
        self.pos = body_start + end + 2;
        let (target, data) = match body.find(|c: char| c.is_ascii_whitespace()) {
            Some(i) => (&body[..i], body[i..].trim_start()),
            None => (body, ""),
        };
        if target.is_empty() {
            return Err(self.err("processing instruction without a target").into());
        }
        if target.eq_ignore_ascii_case("xml") {
            // The XML declaration is consumed silently (it is not a PI event
            // in SAX); it may only appear at the very start.
            if body_start != 2 {
                return Err(self
                    .err("XML declaration is only allowed at the start of the document")
                    .into());
            }
            return Ok(false);
        }
        sink.processing_instruction(target, data)?;
        Ok(true)
    }

    fn read_end_tag<S: EventSink>(&mut self, sink: &mut S) -> Result<(), S::Error> {
        let bytes = self.input.as_bytes();
        let name_start = self.pos + 2;
        // Fast path: the end tag almost always closes the innermost open
        // element with no stray whitespace, and equal names are
        // byte-identical, so compare the expected name's input span
        // directly and check for the closing `>` — no name scan, no
        // table lookup. Any mismatch (different name, `</tag >`,
        // truncation) falls through to the full scan below.
        if let Some(&open) = self.scratch.open_elements.last() {
            let (s, e) = (open.span.0 as usize, open.span.1 as usize);
            let after = name_start + (e - s);
            if after < bytes.len()
                && bytes[after] == b'>'
                && scan::bytes_eq(&bytes[s..e], &bytes[name_start..after])
            {
                self.pos = after + 1;
                self.scratch.open_elements.pop();
                sink.end_element(open.id, &self.scratch.names)?;
                return Ok(());
            }
        }
        let mut i = name_start
            + scan::name_len(&bytes[name_start..], |b| {
                matches!(b, b'>' | b' ' | b'\t' | b'\n' | b'\r')
            });
        let name_end = i;
        while i < bytes.len() && scan::CLASS[bytes[i] as usize] & scan::WS != 0 {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'>' {
            return Err(self.err("malformed end tag").into());
        }
        // Whitespace variant of the fast path (`</tag >`): the span
        // compare still settles the innermost match without the table.
        if let Some(&open) = self.scratch.open_elements.last() {
            if scan::bytes_eq(
                &bytes[open.span.0 as usize..open.span.1 as usize],
                &bytes[name_start..name_end],
            ) {
                self.pos = i + 1;
                self.scratch.open_elements.pop();
                sink.end_element(open.id, &self.scratch.names)?;
                return Ok(());
            }
        }
        let id = self.tag_name(name_start, name_end)?;
        self.pos = i + 1;
        match self.scratch.open_elements.pop() {
            // Document name ids are canonical (one id per distinct
            // name), so id equality is name equality.
            Some(open) if open.id == id => {
                sink.end_element(id, &self.scratch.names)?;
                Ok(())
            }
            Some(open) => {
                let name = self.quoted(id);
                let open = self.quoted(open.id);
                Err(self
                    .err(format!("mismatched end tag </{name}>; expected </{open}>"))
                    .into())
            }
            None => {
                let name = self.quoted(id);
                Err(self
                    .err(format!("end tag </{name}> with no open element"))
                    .into())
            }
        }
    }

    fn read_start_tag<S: EventSink>(&mut self, sink: &mut S) -> Result<(), S::Error> {
        self.scratch.attr_recs.clear();
        self.scratch.attr_text.clear();
        let input = self.input;
        let bytes = input.as_bytes();
        let name_start = self.pos + 1;
        let mut i = name_start
            + scan::name_len(&bytes[name_start..], |b| {
                matches!(b, b'>' | b'/' | b' ' | b'\t' | b'\n' | b'\r')
            });
        if i == name_start {
            return Err(self.err("expected element name after '<'").into());
        }
        let name_span = (arena_index(name_start), arena_index(i));
        let name = self.tag_name(name_start, i)?;
        loop {
            while i < bytes.len() && scan::CLASS[bytes[i] as usize] & scan::WS != 0 {
                i += 1;
            }
            if i >= bytes.len() {
                let name = self.quoted(name);
                return Err(self.err(format!("unterminated start tag <{name}>")).into());
            }
            match bytes[i] {
                b'>' => {
                    self.note_root()?;
                    self.pos = i + 1;
                    self.scratch.open_elements.push(OpenTag {
                        id: name,
                        span: name_span,
                    });
                    sink.start_element(
                        name,
                        &self.scratch.names,
                        &mut self.scratch.attr_recs,
                        input,
                        &self.scratch.attr_text,
                    )?;
                    return Ok(());
                }
                b'/' => {
                    if i + 1 >= bytes.len() || bytes[i + 1] != b'>' {
                        return Err(self
                            .err("expected '>' after '/' in empty-element tag")
                            .into());
                    }
                    self.note_root()?;
                    // `<empty/>` is its start and end event, delivered in
                    // this one step; it never joins the open elements.
                    self.pos = i + 2;
                    sink.start_element(
                        name,
                        &self.scratch.names,
                        &mut self.scratch.attr_recs,
                        input,
                        &self.scratch.attr_text,
                    )?;
                    sink.end_element(name, &self.scratch.names)?;
                    return Ok(());
                }
                _ => {
                    i = self.read_attribute(i, name)?;
                }
            }
        }
    }

    fn note_root(&mut self) -> Result<(), XmlError> {
        if self.scratch.open_elements.is_empty() {
            if self.seen_root {
                return Err(self.err("multiple root elements"));
            }
            self.seen_root = true;
        }
        Ok(())
    }

    /// Reads one `name="value"` pair starting at `start`, records it in
    /// `attr_recs` (escape-free values as spans of the input, entity
    /// values unescaped into `attr_scratch`) and returns the index just
    /// past the closing quote.
    fn read_attribute(&mut self, start: usize, element: u32) -> Result<usize, XmlError> {
        let input = self.input;
        let bytes = input.as_bytes();
        let mut i = start
            + scan::name_len(&bytes[start..], |b| {
                matches!(b, b'=' | b' ' | b'\t' | b'\n' | b'\r' | b'>' | b'/')
            });
        if i == start {
            let element = self.quoted(element);
            return Err(self.err(format!("malformed attribute in <{element}>")));
        }
        let name = self.tag_name(start, i)?;
        while i < bytes.len() && scan::CLASS[bytes[i] as usize] & scan::WS != 0 {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'=' {
            let name = self.quoted(name);
            return Err(self.err(format!("attribute '{name}' is missing '='")));
        }
        i += 1;
        while i < bytes.len() && scan::CLASS[bytes[i] as usize] & scan::WS != 0 {
            i += 1;
        }
        if i >= bytes.len() || (bytes[i] != b'"' && bytes[i] != b'\'') {
            let name = self.quoted(name);
            return Err(self.err(format!("attribute '{name}' value must be quoted")));
        }
        let quote = bytes[i];
        i += 1;
        let value_start = i;
        let mut has_amp = false;
        loop {
            match scan::memchr3(quote, b'<', b'&', &bytes[i..]) {
                None => {
                    let name = self.quoted(name);
                    return Err(self.err(format!("unterminated value for attribute '{name}'")));
                }
                Some(off) => {
                    let at = i + off;
                    match bytes[at] {
                        b'<' => {
                            let name = self.quoted(name);
                            return Err(
                                self.err(format!("'<' is not allowed in attribute '{name}'"))
                            );
                        }
                        b'&' => {
                            has_amp = true;
                            i = at + 1;
                        }
                        _ => {
                            i = at;
                            break;
                        }
                    }
                }
            }
        }
        let value_end = i;
        let record = if has_amp {
            let scratch_start = self.scratch.attr_text.len();
            unescape_into(&input[value_start..value_end], &mut self.scratch.attr_text)
                .map_err(|e| self.err(e.message()))?;
            AttrRecord {
                name,
                start: arena_index(scratch_start),
                end: arena_index(self.scratch.attr_text.len()),
                in_alt: true,
            }
        } else {
            AttrRecord {
                name,
                start: arena_index(value_start),
                end: arena_index(value_end),
                in_alt: false,
            }
        };
        // Ids are canonical within the document, so duplicate names are
        // exactly duplicate ids.
        if self.scratch.attr_recs.iter().any(|r| r.name == record.name) {
            let name = self.quoted(name);
            let element = self.quoted(element);
            return Err(self.err(format!("duplicate attribute '{name}' on <{element}>")));
        }
        self.scratch.attr_recs.push(record);
        Ok(value_end + 1)
    }

    /// Resolves `input[start..end]` to its id through the thread's
    /// vocabulary: a known name is a probe and a key compare — nothing
    /// is cloned or counted (names over [`NAME_KEY_EXACT`] bytes also
    /// compare their bytes, since their key covers only head, middle and
    /// tail words). A name the vocabulary does not hold takes
    /// [`new_name`](Self::new_name).
    fn tag_name(&mut self, start: usize, end: usize) -> Result<u32, XmlError> {
        let bytes = &self.input.as_bytes()[start..end];
        if bytes.is_empty() {
            return Err(self.err("empty name"));
        }
        let key = name_key(bytes);
        let scratch = &self.scratch;
        match scratch.vocabulary.find(key, bytes, &scratch.names) {
            Some(id) => Ok(id),
            None => self.new_name(start, end, key),
        }
    }

    /// Validates and interns a name the vocabulary does not hold and
    /// gives it the next id: in the vocabulary when it may join (see
    /// [`Vocabulary::admits`]) and the document has no name of its own
    /// yet — so the vocabulary's ids stay the first of the table — else
    /// for this document only, interned on its own and found again by a
    /// scan of the document's names.
    #[cold]
    fn new_name(
        &mut self,
        start: usize,
        end: usize,
        key: (u64, u64, u64),
    ) -> Result<u32, XmlError> {
        let scratch = &mut self.scratch;
        let known = scratch.vocabulary.len();
        let joins = scratch.vocabulary.admits(end - start) && scratch.names.len() == known;
        let mut own = SymbolTable::new();
        let symbols = match joins {
            true => &mut scratch.vocabulary.symbols,
            false => &mut own,
        };
        let name = check_name(&self.input[start..end], symbols).map_err(|e| self.err(e))?;
        let scratch = &mut self.scratch;
        if joins {
            scratch.vocabulary.insert(key, end - start);
        } else if let Some(at) = scratch.names[known..].iter().position(|n| *n == name) {
            return Ok(arena_index(known + at));
        }
        scratch.names.push(name);
        Ok(arena_index(scratch.names.len() - 1))
    }

    /// Name `id` of this document as an error message quotes it.
    fn quoted(&self, id: u32) -> Quoted<&QName> {
        Quoted(&self.scratch.names[id as usize])
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError::at(self.pos.max(1), message)
    }
}

fn arena_index(at: usize) -> u32 {
    u32::try_from(at).expect("XML input exceeds u32 span range")
}

impl Drop for XmlReader<'_> {
    /// Hands the scratch, with its warmed vocabulary, back to the
    /// thread, so the next parse on this thread starts with the
    /// service's names already validated and interned.
    fn drop(&mut self) {
        std::mem::take(&mut self.scratch).give_back();
    }
}

/// Validates `text` as a (possibly prefixed) XML name and interns its
/// parts in `symbols`, folding the FNV-1a hash of each part into the
/// byte scan that validates it. Non-ASCII names take the char-oriented
/// path. The error is the message, without a position.
fn check_name(text: &str, symbols: &mut SymbolTable) -> Result<QName, String> {
    let invalid = || format!("invalid name '{}'", Quoted(text));
    let bytes = text.as_bytes();
    let mut hash = FNV_OFFSET;
    let mut colon: Option<(usize, u64)> = None;
    let mut part_start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x80 {
            return check_name_slow(text, symbols);
        }
        if b == b':' {
            if colon.is_some() || i == 0 {
                return Err(invalid());
            }
            colon = Some((i, hash));
            hash = FNV_OFFSET;
            part_start = i + 1;
            continue;
        }
        let class = scan::CLASS[b as usize];
        let valid = match i == part_start {
            true => class & scan::NAME_START != 0,
            false => class & scan::NAME != 0,
        };
        if !valid {
            return Err(invalid());
        }
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    if colon.is_some() && part_start == bytes.len() {
        return Err(invalid());
    }
    Ok(match colon {
        None => QName::from_symbols(None, symbols.intern_prehashed(hash, text)),
        Some((at, prefix_hash)) => {
            let prefix = symbols.intern_prehashed(prefix_hash, &text[..at]);
            let local = symbols.intern_prehashed(hash, &text[at + 1..]);
            QName::from_symbols(Some(prefix), local)
        }
    })
}

/// Char-oriented name validation for names containing non-ASCII bytes
/// (Unicode letters are valid name characters).
fn check_name_slow(text: &str, symbols: &mut SymbolTable) -> Result<QName, String> {
    let valid_start = |c: char| c.is_alphabetic() || c == '_';
    let valid_rest = |c: char| c.is_alphanumeric() || matches!(c, '_' | '-' | '.');
    let mut parts = text.splitn(2, ':');
    let first = parts.next().expect("splitn yields at least one part");
    let second = parts.next();
    for part in [Some(first), second].into_iter().flatten() {
        let mut chars = part.chars();
        let starts = chars.next().is_some_and(valid_start);
        if !starts || !chars.all(valid_rest) {
            return Err(format!("invalid name '{}'", Quoted(text)));
        }
    }
    if second.is_some_and(|s| s.contains(':')) {
        return Err(format!(
            "invalid name '{}': more than one ':'",
            Quoted(text)
        ));
    }
    Ok(symbols.intern_qname(text))
}

/// Error from [`XmlReader::parse_into`]: either a parse failure or a
/// handler failure.
#[derive(Debug)]
pub enum ParseIntoError<E> {
    /// The XML was malformed.
    Parse(XmlError),
    /// The handler rejected an event.
    Handler(E),
}

impl<E: std::fmt::Display> std::fmt::Display for ParseIntoError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseIntoError::Parse(e) => write!(f, "{e}"),
            ParseIntoError::Handler(e) => write!(f, "handler error: {e}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for ParseIntoError<E> {}

impl<E> From<XmlError> for ParseIntoError<E> {
    fn from(e: XmlError) -> Self {
        ParseIntoError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SaxEventRef;

    fn events(xml: &str) -> SaxEventSequence {
        XmlReader::new(xml)
            .read_sequence()
            .unwrap_or_else(|e| panic!("parse failed for {xml:?}: {e}"))
    }

    fn expect_err(xml: &str) -> XmlError {
        XmlReader::new(xml)
            .read_sequence()
            .expect_err(&format!("expected failure for {xml:?}"))
    }

    /// Attribute values of the start element at `index`.
    fn attr_values(seq: &SaxEventSequence, index: usize) -> Vec<&str> {
        match seq.get(index) {
            Some(SaxEventRef::StartElement { attributes, .. }) => {
                attributes.iter().map(|a| a.value).collect()
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn paper_table4_example() {
        let evs = events("<doc><para>Hello, world!</para></doc>");
        let rendered: Vec<String> = evs.iter().map(|e| e.to_string()).collect();
        assert_eq!(
            rendered,
            vec![
                "start document",
                "start element: doc",
                "start element: para",
                "characters: Hello, world!",
                "end element: para",
                "end element: doc",
                "end document",
            ]
        );
    }

    #[test]
    fn attributes_with_both_quote_styles() {
        let evs = events(r#"<e a="1" b='two words'/>"#);
        assert_eq!(attr_values(&evs, 1), ["1", "two words"]);
    }

    #[test]
    fn empty_element_produces_start_and_end() {
        let evs = events("<a><b/></a>");
        let kinds: Vec<_> = evs.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            [
                "start document",
                "start element",
                "start element",
                "end element",
                "end element",
                "end document"
            ]
        );
    }

    #[test]
    fn entities_are_expanded_in_text_and_attributes() {
        let evs = events(r#"<e a="&lt;&amp;&gt;">&#65;&amp;B</e>"#);
        assert_eq!(attr_values(&evs, 1), ["<&>"]);
        assert_eq!(evs.get(2), Some(SaxEventRef::Characters("A&B")));
    }

    #[test]
    fn entity_texts_are_isolated_across_runs() {
        // The slow-path scratch is reused between runs; each run must
        // see only its own expansion.
        let evs = events("<a><b>&amp;x</b><c>&lt;y</c></a>");
        assert_eq!(evs.get(3), Some(SaxEventRef::Characters("&x")));
        assert_eq!(evs.get(6), Some(SaxEventRef::Characters("<y")));
    }

    #[test]
    fn mixed_escaped_attributes_keep_their_values() {
        // Escape-free values borrow the input; entity values live in
        // the scratch — both on one tag, in both orders.
        let evs = events(r#"<e a="plain" b="&amp;1" c="also plain" d="&lt;2"/>"#);
        assert_eq!(attr_values(&evs, 1), ["plain", "&1", "also plain", "<2"]);
    }

    #[test]
    fn cdata_is_delivered_verbatim() {
        let evs = events("<e><![CDATA[<not-a-tag> & stuff]]></e>");
        assert_eq!(
            evs.get(2),
            Some(SaxEventRef::Characters("<not-a-tag> & stuff"))
        );
    }

    #[test]
    fn comments_and_pis_are_reported() {
        let evs = events("<?xml version=\"1.0\"?><!-- hi --><e><?pi some data?></e>");
        assert_eq!(evs.get(1), Some(SaxEventRef::Comment(" hi ")));
        assert_eq!(
            evs.get(3),
            Some(SaxEventRef::ProcessingInstruction {
                target: "pi",
                data: "some data"
            })
        );
    }

    #[test]
    fn namespace_declarations_are_plain_attributes() {
        let evs = events(r#"<s:e xmlns:s="uri:s" s:a="v"></s:e>"#);
        match evs.get(1) {
            Some(SaxEventRef::StartElement { name, attributes }) => {
                assert_eq!(name.to_string(), "s:e");
                let names: Vec<_> = attributes.iter().map(|a| a.name).collect();
                assert!(names[0].is_namespace_declaration());
                assert_eq!(names[1].to_string(), "s:a");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn whitespace_only_prolog_and_epilog_are_ignored() {
        let evs = events("  \n <e>x</e> \n ");
        assert_eq!(evs.len(), 5);
    }

    #[test]
    fn from_bytes_parses_and_validates() {
        let evs = XmlReader::from_bytes(b"<doc>ok</doc>")
            .unwrap()
            .read_sequence()
            .unwrap();
        assert_eq!(evs.len(), 5);
        let err = XmlReader::from_bytes(b"<doc>\xff</doc>").unwrap_err();
        assert!(err.message().contains("not valid UTF-8"), "{err}");
    }

    #[test]
    fn mismatched_tags_are_rejected() {
        let e = expect_err("<a><b></a></b>");
        assert!(e.message().contains("mismatched end tag"), "{e}");
    }

    #[test]
    fn unclosed_root_is_rejected() {
        let e = expect_err("<a><b></b>");
        assert!(e.message().contains("still open"), "{e}");
    }

    #[test]
    fn multiple_roots_are_rejected() {
        let e = expect_err("<a/><b/>");
        assert!(e.message().contains("multiple root"), "{e}");
    }

    #[test]
    fn text_outside_root_is_rejected() {
        assert!(expect_err("hello<a/>")
            .message()
            .contains("outside the root"));
        assert!(expect_err("<a/>hello").message().contains("after the root"));
    }

    #[test]
    fn doctype_is_rejected() {
        let e = expect_err("<!DOCTYPE html><a/>");
        assert!(e.message().contains("DTD"), "{e}");
    }

    #[test]
    fn duplicate_attributes_are_rejected() {
        let e = expect_err(r#"<e a="1" a="2"/>"#);
        assert!(e.message().contains("duplicate attribute"), "{e}");
    }

    #[test]
    fn empty_document_is_rejected() {
        let e = expect_err("   ");
        assert!(e.message().contains("no root element"), "{e}");
    }

    #[test]
    fn truncated_inputs_are_rejected_not_hung() {
        for xml in [
            "<",
            "<a",
            "<a b",
            "<a b=",
            "<a b='x",
            "<a>",
            "<a><!-- ",
            "<a><![CDATA[x",
        ] {
            expect_err(xml);
        }
    }

    #[test]
    fn invalid_names_are_rejected() {
        for xml in ["<1a/>", "<a:b:c/>", "<-x/>", "<a .b='c'/>"] {
            expect_err(xml);
        }
    }

    #[test]
    fn read_sequence_interns_names_once() {
        let xml = r#"<list><item n="1"/><item n="2"/><item n="3"/></list>"#;
        let seq = events(xml);
        // list, item, n — id-resolved by the reader's scan, adopted whole.
        assert_eq!(seq.names().len(), 3);
        assert_eq!(seq.len(), 10);
    }

    #[test]
    fn deep_nesting_is_handled() {
        let depth = 1000;
        let mut xml = String::new();
        for _ in 0..depth {
            xml.push_str("<d>");
        }
        for _ in 0..depth {
            xml.push_str("</d>");
        }
        let evs = events(&xml);
        assert_eq!(evs.len(), 2 * depth + 2);
    }

    #[test]
    fn unicode_content_is_preserved() {
        let evs = events("<e attr='héllo'>日本語テキスト</e>");
        assert_eq!(evs.get(2), Some(SaxEventRef::Characters("日本語テキスト")));
        assert_eq!(attr_values(&evs, 1), ["héllo"]);
    }

    #[test]
    fn unicode_element_names_take_the_slow_path() {
        let evs = events("<héllo>x</héllo>");
        match evs.get(1) {
            Some(SaxEventRef::StartElement { name, .. }) => {
                assert_eq!(name.local_part(), "héllo")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
