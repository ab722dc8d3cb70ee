//! Deserialization of SOAP envelopes back into application objects.
//!
//! There is one decoder, `ResponseReader`, a SAX [`ContentHandler`]
//! driven by the XML parser over a response body's bytes while it
//! records the event arena (cache miss of a form that keeps events;
//! [`read_response_bytes_recording`]), by the XML parser alone (any other
//! miss, [`read_response_bytes`]; hit on a cached XML message's text,
//! [`read_response_xml`]) and by replaying a recorded arena (hit on
//! cached SAX events; [`read_response_events`]) — one entry point per
//! drive and input type.
//! The cost difference between the last two is the paper's first
//! optimization.
//!
//! The reader works from the schema the [`TypeRegistry`] compiled when it
//! was built: each open element carries a [`Kind`] (two references) and
//! its slot in the parent, and children of a registered struct are
//! resolved by probing the next declared slot. Nothing is looked up by
//! name and no `FieldType` is cloned for a typed element. The value is
//! built as one tree ([`TreeBuilder`]): character data lands in the
//! tree's text, where a string leaf stays without a copy; a closed
//! container is a range of its nesting level; `finish()` freezes text
//! and levels into *depth* + 2 exact-fit blocks. A struct that holds its
//! type's declared fields in declaration order carries the registry's
//! own [`Shape`] (a reference bump); any other gets a shape of its own
//! over the descriptor's name handles (undeclared fields share the
//! parser's interned symbol). The `xsi:type`-driven path for untyped
//! elements pays one registry probe per dynamic struct.
//!
//! The same reader decodes the server's side of the exchange: driven by
//! the parser over a request envelope ([`parse_request`]), its frames are
//! the call's parameters, each typed by the operation's declaration of
//! its name, and their values are the children of one tree.
//!
//! [`read_response_dom`] walks a parsed tree instead and shares no code
//! with the reader beyond scalar parsing — the reference the differential
//! tests hold the reader to, for requests ([`element_to_value`]) as for
//! responses.

use crate::base64;
use crate::envelope;
use crate::error::SoapError;
use crate::fault::SoapFault;
use crate::rpc::{OperationDescriptor, RpcOutcome, RpcRequest};
use std::sync::Arc;
use wsrc_model::tree::TreeBuilder;
use wsrc_model::typeinfo::{FieldDescriptor, FieldType, Kind, StructPlan, TypeRegistry};
use wsrc_model::value::{Shape, StructValue, Value};
use wsrc_xml::error::Quoted;
use wsrc_xml::event::SaxEventSequence;
use wsrc_xml::reader::ParseIntoError;
use wsrc_xml::sax::{ContentHandler, ElementName};
use wsrc_xml::{Attributes, Symbol, XmlReader};

/// Reads a response envelope (parse + deserialize in one pass).
///
/// # Errors
///
/// Returns XML errors for malformed documents and encoding errors for
/// well-formed documents that are not valid responses. A SOAP fault is
/// *not* an error — it is returned as [`RpcOutcome::Fault`].
pub fn read_response_xml(
    xml: &str,
    expected: &FieldType,
    registry: &TypeRegistry,
) -> Result<RpcOutcome, SoapError> {
    let mut reader = ResponseReader::new(expected, registry);
    XmlReader::new(xml)
        .parse_into(&mut reader)
        .map_err(flatten_parse_error)?;
    reader.finish()
}

/// Reads a response from a recorded SAX event sequence (deserialize only —
/// no XML parsing happens).
///
/// # Errors
///
/// Same conditions as [`read_response_xml`], minus XML syntax errors.
pub fn read_response_events(
    events: &SaxEventSequence,
    expected: &FieldType,
    registry: &TypeRegistry,
) -> Result<RpcOutcome, SoapError> {
    let mut reader = ResponseReader::new(expected, registry);
    events.replay(&mut reader)?;
    reader.finish()
}

/// Reads a response envelope from raw body bytes (the transport's
/// shared `Arc<[u8]>` payload) while also producing its SAX event
/// sequence, so a cache miss pays for only one pass: the reader
/// UTF-8-validates the whole buffer once up front, then the parser
/// records each event into the arena
/// ([`XmlReader::read_sequence_into`]) and hands it to the deserializer
/// in the same scan.
///
/// # Errors
///
/// Same conditions as [`read_response_xml`], plus an XML error when the
/// bytes are not valid UTF-8; a document that is both malformed and not
/// a valid response reports the XML error.
pub fn read_response_bytes_recording(
    bytes: &[u8],
    expected: &FieldType,
    registry: &TypeRegistry,
) -> Result<(RpcOutcome, SaxEventSequence), SoapError> {
    let parser = XmlReader::from_bytes(bytes).map_err(SoapError::Xml)?;
    let mut reader = ResponseReader::new(expected, registry);
    let events = parser
        .read_sequence_into(&mut reader)
        .map_err(flatten_parse_error)?;
    Ok((reader.finish()?, events))
}

/// [`read_response_bytes_recording`] without the recording: one pass
/// over the body bytes that only decodes — the miss of a call whose
/// cached form does not keep events, and of an uncached call. A document
/// that is both malformed and not a valid response reports the XML
/// error, as the recording pass does.
///
/// # Errors
///
/// Same conditions as [`read_response_bytes_recording`].
pub fn read_response_bytes(
    bytes: &[u8],
    expected: &FieldType,
    registry: &TypeRegistry,
) -> Result<RpcOutcome, SoapError> {
    let mut reader = ResponseReader::new(expected, registry);
    XmlReader::from_bytes(bytes)
        .map_err(SoapError::Xml)?
        .parse_into(&mut reader)
        .map_err(flatten_parse_error)?;
    reader.finish()
}

fn flatten_parse_error(e: ParseIntoError<SoapError>) -> SoapError {
    match e {
        ParseIntoError::Parse(xe) => SoapError::Xml(xe),
        ParseIntoError::Handler(se) => se,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    BeforeEnvelope,
    InEnvelope,
    InBody,
    InWrapper,
    InValue,
    AfterValue,
    InFault,
    AfterBody,
    Done,
}

/// Largest element count an `arrayType="…[n]"` attribute may reserve up
/// front; a larger (or hostile) count just grows as items arrive.
const ARRAY_RESERVE_CAP: usize = 1024;

/// How an open element is known: declared by its parent struct's plan
/// (its names come from the registry, nothing is reference-counted), or
/// only from the wire — the return element, array items and fields the
/// parent does not declare are known by their name's id in the document
/// (see [`NameMemo`]).
#[derive(Debug)]
enum Origin<'r> {
    Declared {
        field: &'r FieldDescriptor,
        /// The field's position in the parent's declaration.
        slot: usize,
    },
    Wire(u32),
}

impl Origin<'_> {
    /// The element's local name as written.
    fn name<'a>(&'a self, names: &'a [NameMemo]) -> &'a str {
        match self {
            Origin::Declared { field, .. } => &field.xml_name,
            Origin::Wire(id) => names[*id as usize].local().as_str(),
        }
    }

    /// The name of the struct field this element is, as a shared handle.
    fn field_name<'a>(&'a self, names: &'a [NameMemo]) -> &'a Arc<str> {
        match self {
            Origin::Declared { field, .. } => &field.name,
            Origin::Wire(id) => names[*id as usize].local().shared_str(),
        }
    }
}

/// What the reader works out about one name of the document, once: its
/// local part, and the declared slot it has in the registered struct it
/// last appeared in. Indexed by the name's id ([`ElementName::id`]), so
/// per element the lookup is an index and a pointer compare.
#[derive(Debug, Clone, Default)]
struct NameMemo {
    /// The local part, once the name has been an element's.
    local: Option<Symbol>,
    /// Address of the plan `slot` was looked up in (0 before any).
    plan: usize,
    /// The declared slot in that plan, [`NOT_DECLARED`] for none.
    slot: u32,
}

/// Notes a reader starts with once it needs one: more than the names of
/// one SOAP service's messages.
const MEMO_START: usize = 64;

/// [`NameMemo::slot`] of a name its plan does not declare.
const NOT_DECLARED: u32 = u32::MAX;

impl NameMemo {
    fn local(&self) -> &Symbol {
        self.local
            .as_ref()
            .expect("an element's name is noted when it opens")
    }
}

/// The buffers a reader works in that die with the message: its frames,
/// containers, name notes, `xsi:type` names and parameter ids. Each
/// thread keeps one set for its next reader (a reader that starts while
/// another is open takes new ones). Frames and containers are kept
/// empty under a `'static` lifetime and re-typed by [`retype`].
#[derive(Debug, Default)]
struct DecoderScratch {
    frames: Vec<Frame<'static>>,
    containers: Vec<Container<'static>>,
    names: Vec<NameMemo>,
    params: Vec<u32>,
    xsi: String,
}

/// Scratch buffers larger than this are not kept.
const SCRATCH_CAP: usize = 4 << 10;

thread_local! {
    static SCRATCH: std::cell::Cell<Option<DecoderScratch>> = const { std::cell::Cell::new(None) };
}

/// `items` emptied for the next reader, or a new vector when it holds
/// more than [`SCRATCH_CAP`] bytes.
fn emptied<T>(mut items: Vec<T>) -> Vec<T> {
    items.clear();
    match items.capacity() * std::mem::size_of::<T>() <= SCRATCH_CAP {
        true => items,
        false => Vec::new(),
    }
}

/// An empty vector of another lifetime over the same allocation: the
/// two element types differ in lifetimes only, so they have one layout
/// and std collects in place.
fn retype<T, U>(mut items: Vec<T>) -> Vec<U> {
    items.clear();
    items
        .into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

/// One open value element. What it is accumulating sits in the reader's
/// tree (and, for a container, on the `containers` stack), so scalar
/// elements — most of a response — push and pop a few words of plain
/// data.
#[derive(Debug)]
struct Frame<'r> {
    origin: Origin<'r>,
    /// Declared kind, `None` for an untyped element.
    kind: Option<Kind<'r>>,
    /// Where this element's character data starts in the tree's text.
    text_start: usize,
    /// The local part of its `xsi:type` as a range of the reader's `xsi`
    /// scratch, kept only when no container kind is declared.
    xsi: Option<(usize, usize)>,
    /// Capped element count from an `arrayType` attribute.
    reserve: u32,
    nil: bool,
    /// A child element was seen: the innermost open container of the
    /// tree, and the top of `containers`, are this element's.
    container: bool,
}

/// The type of an open struct element: registered, with its compiled
/// plan, or known by name only.
#[derive(Debug)]
enum StructType<'r> {
    Registered(&'r StructPlan),
    Dynamic(Arc<str>),
}

impl<'r> StructType<'r> {
    fn plan(&self) -> Option<&'r StructPlan> {
        match self {
            StructType::Registered(plan) => Some(plan),
            StructType::Dynamic(_) => None,
        }
    }

    /// The declared fields; none for a dynamic struct.
    fn declared(&self) -> &'r [FieldDescriptor] {
        self.plan().map_or(&[], |p| &p.descriptor().fields)
    }

    /// The type name as a shared handle — the descriptor's own when the
    /// type is registered.
    fn name(&self) -> Arc<str> {
        match self {
            StructType::Registered(plan) => plan.descriptor().name.clone(),
            StructType::Dynamic(name) => name.clone(),
        }
    }
}

/// What the reader knows of a container element while it is open; its
/// children are in the tree.
#[derive(Debug)]
enum Container<'r> {
    Array {
        element: Option<Kind<'r>>,
    },
    Struct {
        ty: StructType<'r>,
        /// Declared slot the next child is expected in.
        next_slot: usize,
        /// The names of the fields so far, in order — kept only once
        /// they are something else than the type's first declared
        /// fields in declaration order (a field skipped, out of order or
        /// undeclared; declared names that are not distinct; a dynamic
        /// type).
        other: Option<Vec<Arc<str>>>,
    },
}

/// What the Body's one element is read as.
#[derive(Debug)]
enum Message<'r> {
    /// A response wrapper, whose one child is the return value of this
    /// kind.
    Response(Kind<'r>),
    /// A call to one of `operations`. Each child is a parameter, typed by
    /// the operation's declaration of that name; the values are the
    /// children of the tree's root, an array that opens with the call.
    Request {
        operations: &'r [OperationDescriptor],
        call: Option<&'r OperationDescriptor>,
    },
}

/// A streaming deserializer for RPC envelopes — responses through
/// [`new`](ResponseReader::new), requests through [`parse_request`].
///
/// Feed it SAX events (from a parser or a replayed recording), then call
/// [`finish`](ResponseReader::finish).
#[derive(Debug)]
pub(crate) struct ResponseReader<'r> {
    registry: &'r TypeRegistry,
    message: Message<'r>,
    state: State,
    frames: Vec<Frame<'r>>,
    containers: Vec<Container<'r>>,
    /// The return value so far; its text also holds the character data
    /// of every open scalar element, innermost last (see
    /// [`Frame::text_start`]).
    tree: TreeBuilder,
    /// `xsi:type` local names of the open elements; see [`Frame::xsi`].
    xsi: String,
    /// Per name id of the document, what is known of the name.
    names: Vec<NameMemo>,
    /// A call's parameters' name ids, in wire order.
    params: Vec<u32>,
    skipping: usize,
    fault_code: String,
    fault_string: String,
    fault_detail: Option<String>,
    fault_field: Option<&'static str>,
    saw_fault: bool,
    /// The Body's one response element has been opened.
    saw_wrapper: bool,
    fault_depth: usize,
}

impl<'r> ResponseReader<'r> {
    /// Creates a reader expecting a return value of `expected` type.
    pub(crate) fn new(expected: &'r FieldType, registry: &'r TypeRegistry) -> Self {
        ResponseReader::reading(Message::Response(registry.kind_of(expected)), registry)
    }

    /// A reader for a request envelope calling one of `operations`.
    fn for_request(operations: &'r [OperationDescriptor], registry: &'r TypeRegistry) -> Self {
        let message = Message::Request {
            operations,
            call: None,
        };
        ResponseReader::reading(message, registry)
    }

    fn reading(message: Message<'r>, registry: &'r TypeRegistry) -> Self {
        let scratch = SCRATCH.with(std::cell::Cell::take).unwrap_or_default();
        ResponseReader {
            registry,
            message,
            state: State::BeforeEnvelope,
            frames: retype(scratch.frames),
            containers: retype(scratch.containers),
            tree: TreeBuilder::new(),
            xsi: scratch.xsi,
            names: scratch.names,
            params: scratch.params,
            skipping: 0,
            fault_code: String::new(),
            fault_string: String::new(),
            fault_detail: None,
            fault_field: None,
            saw_fault: false,
            saw_wrapper: false,
            fault_depth: 0,
        }
    }

    /// Consumes the reader, yielding the outcome.
    ///
    /// # Errors
    ///
    /// Returns an encoding error when no complete response was seen, or
    /// when the response outgrew what a value tree can address.
    pub(crate) fn finish(mut self) -> Result<RpcOutcome, SoapError> {
        self.give_back_scratch();
        if self.saw_fault {
            return Ok(RpcOutcome::Fault(SoapFault {
                code: self.fault_code,
                string: self.fault_string,
                detail: self.fault_detail,
            }));
        }
        if self.state != State::Done {
            return Err(SoapError::encoding("incomplete response envelope"));
        }
        // A void operation has no return element: an empty tree is null.
        Ok(RpcOutcome::Return(self.tree.finish()?))
    }

    /// The request a [`for_request`](ResponseReader::for_request) reader
    /// read from a whole, well-formed document, once its every declared
    /// parameter is there.
    fn finish_request(mut self) -> Result<RpcRequest, SoapError> {
        let Message::Request {
            call: Some(call), ..
        } = self.message
        else {
            self.give_back_scratch();
            return Err(SoapError::encoding("empty Body"));
        };
        // The parameters' names, then their values once the tree is
        // frozen: one vector, one string per name.
        let mut params: Vec<(String, Value)> = self
            .params
            .iter()
            .map(|id| {
                (
                    self.names[*id as usize].local().as_str().to_string(),
                    Value::Null,
                )
            })
            .collect();
        self.give_back_scratch();
        let values = self.tree.finish()?;
        let values = values.as_array().unwrap_or_default();
        params.truncate(values.len());
        for ((_, slot), value) in params.iter_mut().zip(values.iter()) {
            *slot = value.clone();
        }
        let request = RpcRequest {
            namespace: call.namespace.clone(),
            operation: call.name.clone(),
            params,
        };
        call.check_request(&request)?;
        Ok(request)
    }

    /// Hands the reader's buffers, emptied, to the thread's next reader
    /// (those over [`SCRATCH_CAP`] are dropped).
    fn give_back_scratch(&mut self) {
        let mut xsi = std::mem::take(&mut self.xsi);
        xsi.clear();
        let scratch = DecoderScratch {
            frames: retype(emptied(std::mem::take(&mut self.frames))),
            containers: retype(emptied(std::mem::take(&mut self.containers))),
            names: emptied(std::mem::take(&mut self.names)),
            params: emptied(std::mem::take(&mut self.params)),
            xsi: match xsi.capacity() <= SCRATCH_CAP {
                true => xsi,
                false => String::new(),
            },
        };
        SCRATCH.with(|slot| slot.set(Some(scratch)));
    }

    fn push_frame(
        &mut self,
        origin: Origin<'r>,
        kind: Option<Kind<'r>>,
        attributes: Attributes<'_>,
    ) {
        // A declared struct or array never consults `xsi:type`.
        let keep_xsi = !matches!(
            kind.map(|k| k.field_type()),
            Some(FieldType::Struct(_) | FieldType::ArrayOf(_))
        );
        let mut nil = false;
        let mut reserve = 0;
        let xsi_start = self.xsi.len();
        let mut xsi = None;
        for a in attributes {
            match a.name.local_part() {
                "nil" | "null" => {
                    nil = a.value == "true" || a.value == "1";
                }
                "type" if keep_xsi && !a.name.prefix().is_empty() => {
                    // Keep only the local part of the QName value
                    // ("xsd:int" → "int", "ns1:Pt" → "Pt").
                    let local = a.value.split_once(':').map(|(_, l)| l).unwrap_or(a.value);
                    // The last such attribute wins.
                    self.xsi.truncate(xsi_start);
                    self.xsi.push_str(local);
                    xsi = Some((xsi_start, local.len()));
                }
                "arrayType" => reserve = array_type_count(a.value),
                _ => {}
            }
        }
        self.frames.push(Frame {
            origin,
            kind,
            text_start: self.tree.text_len(),
            xsi,
            reserve,
            nil,
            container: false,
        });
    }

    /// Makes the innermost open element a container, on its first child
    /// (`child`): by its declared kind, else by `xsi:type` and the
    /// child's name.
    fn open_container(&mut self, child: ElementName<'_>) {
        let Some(frame) = self.frames.last_mut() else {
            return;
        };
        frame.container = true;
        let container = match frame.kind.map(|k| (k, k.field_type())) {
            Some((kind, FieldType::ArrayOf(_))) => Container::Array {
                element: kind.element(),
            },
            Some((kind, FieldType::Struct(type_name))) => {
                Container::new_struct(type_name, kind.struct_plan())
            }
            _ => {
                // Untyped (or declared scalar, yet with children): arrays
                // are recognized by the SOAP-ENC Array xsi:type or by
                // `item` children; anything else becomes a dynamic struct
                // named after its xsi:type or element.
                let xsi = frame.xsi(&self.xsi);
                let is_array = xsi
                    .map(|t| t == "Array")
                    .unwrap_or(child.local_part() == "item");
                if is_array {
                    Container::Array { element: None }
                } else {
                    let type_name = xsi.unwrap_or(frame.origin.name(&self.names));
                    Container::new_struct(type_name, self.registry.plan(type_name))
                }
            }
        };
        // Whatever character data came before the first child is not a
        // value's.
        self.tree.truncate_text(frame.text_start);
        self.tree.open(match &container {
            Container::Array { .. } => frame.reserve as usize,
            Container::Struct { ty, .. } => ty.declared().len(),
        });
        self.containers.push(container);
    }

    /// The note on name `id`, made empty if there is none yet. The notes
    /// grow in one step to cover a service's vocabulary, not one name at
    /// a time.
    fn memo(&mut self, id: u32) -> &mut NameMemo {
        let at = id as usize;
        if at >= self.names.len() {
            let len = (at + 1).next_power_of_two().max(MEMO_START);
            self.names.resize(len, NameMemo::default());
        }
        &mut self.names[at]
    }

    /// An origin on the wire for `name`, whose local part the reader
    /// notes the first time (see [`NameMemo`]).
    fn wire(&mut self, name: ElementName<'_>) -> Origin<'r> {
        let memo = self.memo(name.id());
        if memo.local.is_none() {
            memo.local = Some(name.local_symbol().clone());
        }
        Origin::Wire(name.id())
    }

    /// Origin and declared kind of `child`, a child of the innermost
    /// container. Which slot of a registered struct a name declares is
    /// looked up once per document and struct type.
    fn child_expectation(&mut self, child: ElementName<'_>) -> (Origin<'r>, Option<Kind<'r>>) {
        let (plan, hint) = match self.containers.last() {
            Some(Container::Array { element, .. }) => {
                let element = *element;
                return (self.wire(child), element);
            }
            Some(Container::Struct {
                ty: StructType::Registered(plan),
                next_slot,
                ..
            }) => (*plan, *next_slot),
            _ => return (self.wire(child), None),
        };
        let memo = self.memo(child.id());
        let address = std::ptr::from_ref(plan) as usize;
        if memo.plan != address {
            let slot = plan.slot_by_xml_name(child.local_part(), hint);
            memo.plan = address;
            memo.slot = slot.map_or(NOT_DECLARED, |s| s as u32);
        }
        if memo.slot == NOT_DECLARED {
            return (self.wire(child), None);
        }
        let slot = memo.slot as usize;
        if let Some(Container::Struct { next_slot, .. }) = self.containers.last_mut() {
            *next_slot = slot + 1;
        }
        let field = &plan.descriptor().fields[slot];
        (
            Origin::Declared { field, slot },
            plan.field_kind(slot, self.registry),
        )
    }

    /// Adds the finished value of `frame`, just popped, to the tree.
    fn finalize_frame(&mut self, frame: &Frame<'r>) -> Result<(), SoapError> {
        let container = match frame.container {
            true => self.containers.pop(),
            false => None,
        };
        if frame.nil {
            // The content was read, and had to be valid; the value is
            // null all the same.
            if container.is_some() {
                self.tree.close_discarding();
            }
            self.tree.truncate_text(frame.text_start);
            self.tree.value(Value::Null);
            return Ok(());
        }
        match container {
            Some(Container::Array { .. }) => self.tree.close_array(),
            Some(Container::Struct { ty, other, .. }) => {
                let shape = match (ty.plan(), other) {
                    (Some(plan), None) => plan.prefix_shape(self.tree.children()),
                    (_, names) => Arc::new(Shape::new(ty.name(), names.unwrap_or_default())),
                };
                self.tree.close_struct(shape);
            }
            None => {
                // Scalar: decide the lexical type.
                let from_xsi;
                let effective = match frame.kind {
                    Some(kind) => Some(kind.field_type()),
                    None => {
                        from_xsi = type_from_xsi(frame.xsi(&self.xsi));
                        from_xsi.as_ref()
                    }
                };
                let text = self.tree.text_from(frame.text_start);
                let empty = || text.trim().is_empty();
                let value = match effective {
                    // The character data is the string, where it lies.
                    Some(FieldType::String) | None => {
                        self.tree.string_at(frame.text_start..self.tree.text_len());
                        return Ok(());
                    }
                    // An empty element of struct or array type is an
                    // empty instance: a container closed as it opens —
                    // under the descriptor's own name when the type is
                    // registered.
                    Some(FieldType::Struct(name)) if empty() => {
                        let shape = match frame.kind.and_then(|k| k.struct_plan()) {
                            Some(plan) => plan.prefix_shape(0),
                            None => Arc::new(Shape::new(name.as_str(), [])),
                        };
                        self.tree.truncate_text(frame.text_start);
                        self.tree.open(0);
                        self.tree.close_struct(shape);
                        return Ok(());
                    }
                    Some(FieldType::ArrayOf(_)) if empty() => {
                        self.tree.truncate_text(frame.text_start);
                        self.tree.open(0);
                        self.tree.close_array();
                        return Ok(());
                    }
                    _ => parse_scalar(text, effective, frame.origin.name(&self.names))?,
                };
                self.tree.truncate_text(frame.text_start);
                self.tree.value(value);
            }
        }
        Ok(())
    }

    /// Makes the value of `child`, just added to the tree, a child of
    /// the innermost container: an array takes it as it comes, a struct
    /// under the child's field name — in place of the field's earlier
    /// value if it has one.
    fn attach(&mut self, child: &Frame<'r>) -> Result<(), SoapError> {
        let (ty, other) = match self.containers.last_mut() {
            Some(Container::Array { .. }) => return Ok(()),
            Some(Container::Struct { ty, other, .. }) => (ty, other),
            None => {
                return Err(SoapError::encoding(format!(
                    "element <{}> nested inside a scalar value",
                    Quoted(child.origin.name(&self.names))
                )));
            }
        };
        let before = self.tree.children() - 1;
        let names = match other {
            Some(names) => names,
            // So far the fields are the first `before` declared ones.
            None => match child.origin {
                Origin::Declared { slot, .. } if slot == before => return Ok(()),
                Origin::Declared { slot, .. } if slot < before => {
                    self.tree.replace_child(slot);
                    return Ok(());
                }
                _ => other.insert(
                    ty.declared()[..before]
                        .iter()
                        .map(|f| f.name.clone())
                        .collect(),
                ),
            },
        };
        let name = child.origin.field_name(&self.names);
        match names.iter().position(|n| n == name) {
            Some(at) => self.tree.replace_child(at),
            None => names.push(name.clone()),
        }
        Ok(())
    }
}

impl Frame<'_> {
    /// The local part of this element's `xsi:type`, if it was kept.
    fn xsi<'t>(&self, scratch: &'t str) -> Option<&'t str> {
        self.xsi.map(|(start, len)| &scratch[start..start + len])
    }
}

impl<'r> Container<'r> {
    /// A struct of type `type_name`, which `plan` (when registered)
    /// describes.
    fn new_struct(type_name: &str, plan: Option<&'r StructPlan>) -> Self {
        Container::Struct {
            ty: match plan {
                Some(plan) => StructType::Registered(plan),
                None => StructType::Dynamic(Arc::from(type_name)),
            },
            next_slot: 0,
            other: (!plan.is_some_and(StructPlan::names_unique)).then(Vec::new),
        }
    }
}

/// The element count in `arrayType="xsd:anyType[3]"`, capped at
/// [`ARRAY_RESERVE_CAP`]; 0 when absent or malformed. It only sizes an
/// allocation — the items that arrive decide the array.
fn array_type_count(array_type: &str) -> u32 {
    array_type
        .strip_suffix(']')
        .and_then(|t| t.rsplit_once('['))
        .and_then(|(_, n)| n.parse::<usize>().ok())
        .map_or(0, |n| n.min(ARRAY_RESERVE_CAP) as u32)
}

/// Maps an `xsi:type` local name to a field type.
fn type_from_xsi(local: Option<&str>) -> Option<FieldType> {
    match local? {
        "string" => Some(FieldType::String),
        "int" | "integer" | "short" | "byte" => Some(FieldType::Int),
        "long" => Some(FieldType::Long),
        "double" | "float" | "decimal" => Some(FieldType::Double),
        "boolean" => Some(FieldType::Bool),
        "base64Binary" | "base64" => Some(FieldType::Bytes),
        _ => None,
    }
}

fn parse_scalar(text: &str, ty: Option<&FieldType>, element: &str) -> Result<Value, SoapError> {
    let bad = |what: &str| {
        SoapError::encoding(format!(
            "invalid {what} value '{}' in <{}>",
            Quoted(text),
            Quoted(element)
        ))
    };
    match ty {
        Some(FieldType::Bool) => match text.trim() {
            "true" | "1" => Ok(Value::Bool(true)),
            "false" | "0" => Ok(Value::Bool(false)),
            _ => Err(bad("boolean")),
        },
        Some(FieldType::Int) => text
            .trim()
            .parse::<i32>()
            .map(Value::Int)
            .map_err(|_| bad("int")),
        Some(FieldType::Long) => text
            .trim()
            .parse::<i64>()
            .map(Value::Long)
            .map_err(|_| bad("long")),
        Some(FieldType::Double) => match text.trim() {
            "INF" => Ok(Value::Double(f64::INFINITY)),
            "-INF" => Ok(Value::Double(f64::NEG_INFINITY)),
            "NaN" => Ok(Value::Double(f64::NAN)),
            t => t
                .parse::<f64>()
                .map(Value::Double)
                .map_err(|_| bad("double")),
        },
        Some(FieldType::Bytes) => {
            base64::decode_with(text.trim(), |bytes| Value::Bytes(Arc::from(bytes)))
        }
        // Empty element of struct/array type is an empty instance.
        Some(FieldType::Struct(name)) if text.trim().is_empty() => {
            Ok(Value::Struct(StructValue::new(name.as_str())))
        }
        Some(FieldType::ArrayOf(_)) if text.trim().is_empty() => {
            Ok(Value::Array(Vec::new().into()))
        }
        Some(FieldType::String) | None => Ok(Value::string(text)),
        Some(other) => Err(SoapError::encoding(format!(
            "scalar text in <{}> where {other} was expected",
            Quoted(element)
        ))),
    }
}

impl ContentHandler for ResponseReader<'_> {
    type Error = SoapError;

    fn start_element(
        &mut self,
        name: ElementName<'_>,
        attributes: Attributes<'_>,
    ) -> Result<(), SoapError> {
        if self.skipping > 0 {
            self.skipping += 1;
            return Ok(());
        }
        match self.state {
            State::BeforeEnvelope => {
                if !envelope::is_envelope(name.qname()) {
                    return Err(SoapError::encoding(format!(
                        "expected <Envelope>, found <{}>",
                        Quoted(name)
                    )));
                }
                self.state = State::InEnvelope;
            }
            State::InEnvelope => {
                if envelope::is_header(name.qname()) {
                    self.skipping = 1;
                } else if envelope::is_body(name.qname()) {
                    self.state = State::InBody;
                } else {
                    return Err(SoapError::encoding(format!(
                        "unexpected <{}> inside Envelope",
                        Quoted(name)
                    )));
                }
            }
            State::InBody => {
                let response = matches!(self.message, Message::Response(_));
                if response && envelope::is_fault(name.qname()) {
                    self.state = State::InFault;
                    self.saw_fault = true;
                    self.fault_depth = 1;
                } else if self.saw_wrapper {
                    // One return value, one tree: a second response
                    // element (or an Axis `multiRef`) is not decoded
                    // over the first.
                    return Err(SoapError::encoding(format!(
                        "unexpected second element <{}> in Body",
                        Quoted(name)
                    )));
                } else {
                    self.saw_wrapper = true;
                    self.state = State::InWrapper;
                    if let Message::Request {
                        operations, call, ..
                    } = &mut self.message
                    {
                        let op = name.local_part();
                        let found = operations.iter().find(|o| o.name == op).ok_or_else(|| {
                            SoapError::encoding(format!("unknown operation '{}'", Quoted(op)))
                        })?;
                        *call = Some(found);
                        self.tree.open(found.params.len());
                    }
                }
            }
            State::InWrapper => {
                let registry = self.registry;
                let origin = self.wire(name);
                let kind = match &self.message {
                    Message::Response(expected) => Some(*expected),
                    Message::Request { call, .. } => {
                        self.params.push(name.id());
                        call.and_then(|c| c.param(name.local_part()))
                            .map(|p| registry.kind_of(&p.field_type))
                    }
                };
                self.push_frame(origin, kind, attributes);
                self.state = State::InValue;
            }
            State::InValue => {
                if !self.frames.last().is_some_and(|f| f.container) {
                    self.open_container(name);
                }
                let (origin, kind) = self.child_expectation(name);
                self.push_frame(origin, kind, attributes);
            }
            State::AfterValue => {
                return Err(SoapError::encoding(format!(
                    "unexpected second return element <{}>",
                    Quoted(name)
                )));
            }
            State::InFault => {
                self.fault_depth += 1;
                self.fault_field = match name.local_part() {
                    "faultcode" => Some("code"),
                    "faultstring" => Some("string"),
                    "detail" => Some("detail"),
                    _ => self.fault_field,
                };
            }
            State::AfterBody | State::Done => {
                return Err(SoapError::encoding(format!(
                    "unexpected <{}> after Body",
                    Quoted(name)
                )));
            }
        }
        Ok(())
    }

    fn end_element(&mut self, _name: ElementName<'_>) -> Result<(), SoapError> {
        if self.skipping > 0 {
            self.skipping -= 1;
            return Ok(());
        }
        match self.state {
            State::InValue => {
                let frame = self.frames.pop().expect("InValue implies a frame");
                self.finalize_frame(&frame)?;
                if let Some((start, _)) = frame.xsi {
                    self.xsi.truncate(start);
                }
                if self.frames.is_empty() {
                    // A response has one value; a call, one per parameter.
                    self.state = match self.message {
                        Message::Response(_) => State::AfterValue,
                        Message::Request { .. } => State::InWrapper,
                    };
                } else {
                    self.attach(&frame)?;
                }
            }
            State::AfterValue | State::InWrapper => {
                // closing the opResponse wrapper, or the call
                if let Message::Request { .. } = self.message {
                    self.tree.close_array();
                }
                self.state = State::InBody;
            }
            State::InFault => {
                self.fault_depth -= 1;
                if self.fault_depth == 0 {
                    self.state = State::InBody;
                }
                self.fault_field = None;
            }
            State::InBody => {
                // closing Body
                if !self.saw_wrapper && matches!(self.message, Message::Request { .. }) {
                    return Err(SoapError::encoding("empty Body"));
                }
                self.state = State::AfterBody;
            }
            State::AfterBody => {
                // closing Envelope
                self.state = State::Done;
            }
            State::InEnvelope => return Err(SoapError::encoding("missing Body")),
            State::BeforeEnvelope | State::Done => {
                return Err(SoapError::encoding("unbalanced end element"));
            }
        }
        Ok(())
    }

    fn characters(&mut self, text: &str) -> Result<(), SoapError> {
        if self.skipping > 0 {
            return Ok(());
        }
        match self.state {
            State::InValue => {
                let frame = self.frames.last().expect("InValue implies a frame");
                if frame.container {
                    if !text.trim().is_empty() {
                        return Err(SoapError::encoding(format!(
                            "mixed content in <{}>",
                            Quoted(frame.origin.name(&self.names))
                        )));
                    }
                } else {
                    self.tree.push_text(text);
                }
            }
            State::InFault => match self.fault_field {
                Some("code") => self.fault_code.push_str(text),
                Some("string") => self.fault_string.push_str(text),
                Some("detail") => {
                    self.fault_detail
                        .get_or_insert_with(String::new)
                        .push_str(text);
                }
                _ => {}
            },
            _ => {
                if !text.trim().is_empty() {
                    return Err(SoapError::encoding("unexpected character data"));
                }
            }
        }
        Ok(())
    }
}

/// Reads a response from a parsed DOM tree — the paper's *other*
/// post-parsing representation ("If the parser is a DOM parser, a DOM
/// tree object, as the post-parsing representation, is created", §3.3).
/// No XML parsing happens; the tree is walked directly.
///
/// # Errors
///
/// Returns encoding errors for documents that are not valid responses.
pub fn read_response_dom(
    document: &wsrc_xml::Document,
    expected: &FieldType,
    registry: &TypeRegistry,
) -> Result<RpcOutcome, SoapError> {
    let root = &document.root;
    if !envelope::is_envelope(&root.name) {
        return Err(SoapError::encoding("root element is not Envelope"));
    }
    let body = root
        .child_elements()
        .find(|e| envelope::is_body(&e.name))
        .ok_or_else(|| SoapError::encoding("missing Body"))?;
    let first = body
        .child_elements()
        .next()
        .ok_or_else(|| SoapError::encoding("empty Body"))?;
    if envelope::is_fault(&first.name) {
        let text_of = |name: &str| {
            first
                .child_elements()
                .find(|e| e.name.local_part() == name)
                .map(|e| e.text())
        };
        return Ok(RpcOutcome::Fault(SoapFault {
            code: text_of("faultcode").unwrap_or_default(),
            string: text_of("faultstring").unwrap_or_default(),
            detail: text_of("detail"),
        }));
    }
    // The opResponse wrapper's first child element is the return value.
    let value = match first.child_elements().next() {
        Some(ret) => element_to_value(ret, Some(expected), registry)?,
        None => Value::Null,
    };
    // As the streaming reader: one response element to a Body.
    if let Some(second) = body
        .child_elements()
        .skip(1)
        .find(|e| !envelope::is_fault(&e.name))
    {
        return Err(SoapError::encoding(format!(
            "unexpected second element <{}> in Body",
            Quoted(&second.name)
        )));
    }
    Ok(RpcOutcome::Return(value))
}

/// Parses a request envelope on the server side, matching it against the
/// service's operations — one streaming pass of the one reader, no tree
/// of the document: each parameter is decoded under its declared type as
/// its element arrives.
///
/// # Errors
///
/// Returns XML errors for malformed documents (anywhere in them: the scan
/// checks the whole document before a decoding error is reported), and
/// encoding errors when the body is missing, the operation is unknown, a
/// declared parameter is missing, or a parameter fails to parse under its
/// declared type.
pub fn parse_request(
    xml: &str,
    operations: &[OperationDescriptor],
    registry: &TypeRegistry,
) -> Result<RpcRequest, SoapError> {
    let mut reader = ResponseReader::for_request(operations, registry);
    XmlReader::new(xml)
        .parse_into(&mut reader)
        .map_err(flatten_parse_error)?;
    reader.finish_request()
}

/// Converts a DOM element into a value under an optional expected type —
/// the tree walk the differential tests hold the streaming reader to.
///
/// # Errors
///
/// Returns encoding errors for text that does not parse under the
/// effective type.
pub fn element_to_value(
    elem: &wsrc_xml::Element,
    expected: Option<&FieldType>,
    registry: &TypeRegistry,
) -> Result<Value, SoapError> {
    let nil = elem.attributes.iter().any(|a| {
        matches!(a.name.local_part(), "nil" | "null") && (a.value == "true" || a.value == "1")
    });
    if nil {
        return Ok(Value::Null);
    }
    let xsi_local = elem
        .attributes
        .iter()
        .find(|a| a.name.local_part() == "type" && !a.name.prefix().is_empty())
        .map(|a| {
            a.value
                .split_once(':')
                .map(|(_, l)| l)
                .unwrap_or(&a.value)
                .to_string()
        });
    let effective = expected
        .cloned()
        .or_else(|| type_from_xsi(xsi_local.as_deref()));
    let children: Vec<_> = elem.child_elements().collect();
    if children.is_empty() {
        return match effective {
            Some(ft) => parse_scalar(&elem.text(), Some(&ft), elem.name.local_part()),
            None => {
                // Untyped empty-ish element: Array xsi:type means empty array.
                if xsi_local.as_deref() == Some("Array") {
                    Ok(Value::Array(Vec::new().into()))
                } else {
                    parse_scalar(&elem.text(), None, elem.name.local_part())
                }
            }
        };
    }
    match effective {
        Some(FieldType::ArrayOf(inner)) => {
            let mut items = Vec::with_capacity(children.len());
            for c in children {
                items.push(element_to_value(c, Some(&inner), registry)?);
            }
            Ok(Value::Array(items.into()))
        }
        Some(FieldType::Struct(type_name)) => {
            let descriptor = registry.get(&type_name);
            let mut fields = Vec::with_capacity(children.len());
            for c in children {
                let xml_name = c.name.local_part();
                let field = descriptor.and_then(|d| d.field_by_xml_name(xml_name));
                let fv = element_to_value(c, field.map(|f| &f.field_type), registry)?;
                let fname = field
                    .map(|f| f.name.clone())
                    .unwrap_or_else(|| Arc::from(xml_name));
                fields.push((fname, fv));
            }
            let type_name = match descriptor {
                Some(d) => d.name.clone(),
                None => Arc::from(type_name.as_str()),
            };
            Ok(Value::Struct(StructValue::from_fields(type_name, fields)))
        }
        _ => {
            // Untyped with children: array when they are all <item>,
            // dynamic struct otherwise.
            if children.iter().all(|c| c.name.local_part() == "item")
                && (xsi_local.as_deref() == Some("Array") || !children.is_empty())
            {
                let mut items = Vec::with_capacity(children.len());
                for c in children {
                    items.push(element_to_value(c, None, registry)?);
                }
                Ok(Value::Array(items.into()))
            } else {
                let type_name = xsi_local.unwrap_or_else(|| elem.name.local_part().to_string());
                let mut fields = Vec::with_capacity(children.len());
                for c in children {
                    fields.push((c.name.local_part(), element_to_value(c, None, registry)?));
                }
                Ok(Value::Struct(StructValue::from_fields(type_name, fields)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serializer::{serialize_fault, serialize_request, serialize_response};
    use wsrc_model::typeinfo::{FieldDescriptor, TypeDescriptor};

    fn registry() -> TypeRegistry {
        TypeRegistry::builder()
            .register(TypeDescriptor::new(
                "Pt",
                vec![
                    FieldDescriptor::new("x", FieldType::Int),
                    FieldDescriptor::new("y", FieldType::Int),
                ],
            ))
            .register(TypeDescriptor::new(
                "Box",
                vec![
                    FieldDescriptor::new("label", FieldType::String),
                    FieldDescriptor::new(
                        "corners",
                        FieldType::ArrayOf(Box::new(FieldType::Struct("Pt".into()))),
                    ),
                    FieldDescriptor::new("payload", FieldType::Bytes),
                ],
            ))
            .build()
    }

    fn roundtrip(value: &Value, expected: &FieldType) -> Value {
        let r = registry();
        let xml = serialize_response("urn:t", "op", "return", value, &r).unwrap();
        match read_response_xml(&xml, expected, &r).unwrap() {
            RpcOutcome::Return(v) => v,
            RpcOutcome::Fault(f) => panic!("unexpected fault {f}"),
        }
    }

    #[test]
    fn scalar_responses_roundtrip() {
        assert_eq!(
            roundtrip(&Value::string("hello world"), &FieldType::String),
            Value::string("hello world")
        );
        assert_eq!(
            roundtrip(&Value::Int(-42), &FieldType::Int),
            Value::Int(-42)
        );
        assert_eq!(
            roundtrip(&Value::Long(1i64 << 40), &FieldType::Long),
            Value::Long(1i64 << 40)
        );
        assert_eq!(
            roundtrip(&Value::Bool(true), &FieldType::Bool),
            Value::Bool(true)
        );
        assert_eq!(
            roundtrip(&Value::Double(2.5), &FieldType::Double),
            Value::Double(2.5)
        );
        assert_eq!(roundtrip(&Value::Null, &FieldType::String), Value::Null);
        assert_eq!(
            roundtrip(
                &Value::Bytes(vec![0, 1, 254, 255].into()),
                &FieldType::Bytes
            ),
            Value::Bytes(vec![0, 1, 254, 255].into())
        );
    }

    #[test]
    fn empty_string_and_whitespace_are_preserved() {
        assert_eq!(
            roundtrip(&Value::string(""), &FieldType::String),
            Value::string("")
        );
        assert_eq!(
            roundtrip(&Value::string("  padded  "), &FieldType::String),
            Value::string("  padded  ")
        );
    }

    #[test]
    fn struct_responses_roundtrip() {
        let v = Value::Struct(
            StructValue::new("Box")
                .with("label", "b1")
                .with(
                    "corners",
                    vec![
                        Value::Struct(StructValue::new("Pt").with("x", 1).with("y", 2)),
                        Value::Struct(StructValue::new("Pt").with("x", 3).with("y", 4)),
                    ],
                )
                .with("payload", vec![9u8, 8, 7]),
        );
        assert_eq!(roundtrip(&v, &FieldType::Struct("Box".into())), v);
    }

    #[test]
    fn nested_nulls_roundtrip() {
        let v = Value::Struct(StructValue::new("Box").with("label", Value::Null));
        assert_eq!(roundtrip(&v, &FieldType::Struct("Box".into())), v);
    }

    #[test]
    fn arrays_of_scalars_roundtrip() {
        let v = Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)].into());
        assert_eq!(
            roundtrip(&v, &FieldType::ArrayOf(Box::new(FieldType::Int))),
            v
        );
        let empty = Value::Array(vec![].into());
        assert_eq!(
            roundtrip(&empty, &FieldType::ArrayOf(Box::new(FieldType::Int))),
            empty
        );
    }

    #[test]
    fn untyped_deserialization_uses_xsi_type() {
        // Reading with an untyped expectation recovers types from xsi:type.
        let r = registry();
        let xml = serialize_response(
            "urn:t",
            "op",
            "return",
            &Value::Array(vec![Value::Int(7), Value::string("s")].into()),
            &r,
        )
        .unwrap();
        // Expected type String is wrong-but-permissive only for scalars;
        // use the dynamic path by expecting a struct-free "anyType":
        let out =
            read_response_xml(&xml, &FieldType::ArrayOf(Box::new(FieldType::String)), &r).unwrap();
        // With expected=array-of-string, the int lexical "7" is a string.
        assert_eq!(
            out.as_return().unwrap(),
            &Value::Array(vec![Value::string("7"), Value::string("s")].into())
        );
    }

    fn read_body(ret: &str, expected: &FieldType) -> Result<Value, SoapError> {
        let xml = format!("<Envelope><Body><opResponse>{ret}</opResponse></Body></Envelope>");
        let r = registry();
        let out = read_response_xml(&xml, expected, &r)?;
        let (recorded, events) = read_response_bytes_recording(xml.as_bytes(), expected, &r)?;
        assert_eq!(recorded, out);
        assert_eq!(read_response_events(&events, expected, &r)?, out);
        Ok(out.as_return().expect("not a fault").clone())
    }

    #[test]
    fn xsi_type_naming_a_registered_struct_types_its_children() {
        // Under an unregistered struct every child is untyped; an
        // xsi:type that names a registered type brings its plan back.
        let v = read_body(
            "<return><p xsi:type=\"ns1:Pt\"><y>2</y><x>1</x><z>3</z></p>\
             <q><x>1</x></q></return>",
            &FieldType::Struct("Holder".into()),
        )
        .unwrap();
        let holder = v.as_struct().unwrap();
        assert_eq!(holder.type_name(), "Holder");
        assert_eq!(
            holder.get("p"),
            Some(&Value::Struct(
                StructValue::new("Pt")
                    .with("y", 2)
                    .with("x", 1)
                    .with("z", "3")
            ))
        );
        // No xsi:type: a dynamic struct named after its element.
        assert_eq!(
            holder.get("q"),
            Some(&Value::Struct(StructValue::new("q").with("x", "1")))
        );
    }

    #[test]
    fn declared_scalar_with_child_elements_falls_back_to_xsi_type() {
        let v = read_body(
            "<return xsi:type=\"ns1:Pt\">ignored<x>4</x></return>",
            &FieldType::String,
        )
        .unwrap();
        assert_eq!(v, Value::Struct(StructValue::new("Pt").with("x", 4)));
        let v = read_body(
            "<return><item xsi:type=\"xsd:int\">4</item><item>x</item></return>",
            &FieldType::Int,
        )
        .unwrap();
        assert_eq!(
            v,
            Value::Array(vec![Value::Int(4), Value::string("x")].into())
        );
    }

    #[test]
    fn repeated_and_late_fields_keep_set_semantics() {
        let v = read_body(
            "<return><payload>AAEC</payload><label>a</label><label>b</label>\
             <corners/><label>c</label></return>",
            &FieldType::Struct("Box".into()),
        )
        .unwrap();
        assert_eq!(
            v,
            Value::Struct(
                StructValue::new("Box")
                    .with("payload", vec![0u8, 1, 2])
                    .with("label", "c")
                    .with("corners", Vec::<Value>::new())
            )
        );
    }

    #[test]
    fn a_struct_off_its_declaration_is_charged_the_shape_made_for_it() {
        use std::mem::size_of;
        use wsrc_model::sizeof::deep_size;
        use wsrc_model::value::BLOCK_HEADER;
        const VALUE: usize = size_of::<Value>();
        let nodes = |n: usize| BLOCK_HEADER + n * VALUE;
        let own_shape = |type_name: &str, names: &[&str]| {
            let text = |s: &str| BLOCK_HEADER + s.len();
            let names = names.iter().map(|n| size_of::<Arc<str>>() + text(n));
            BLOCK_HEADER + size_of::<Shape>() + text(type_name) + names.sum::<usize>()
        };
        let points = FieldType::ArrayOf(Box::new(FieldType::Struct("Pt".into())));
        // Three points as declared: two blocks of nodes, the registry's
        // shape, nothing else.
        let array = |item: &str, n: usize| format!("<return>{}</return>", item.repeat(n));
        let whole = read_body(&array("<item><x>1</x><y>2</y></item>", 3), &points).unwrap();
        for p in whole.as_array().unwrap() {
            assert!(p.as_struct().unwrap().shape().is_schema());
        }
        assert_eq!(deep_size(&whole), VALUE + nodes(3) + nodes(6));
        // Each without its last field: a shape was made per instance,
        // and the byte budget sees every one.
        let short = read_body(&array("<item><x>1</x></item>", 3), &points).unwrap();
        assert_eq!(
            deep_size(&short),
            VALUE + nodes(3) + nodes(3) + 3 * own_shape("Pt", &["x"])
        );
        // Out of order.
        let swapped = read_body(&array("<item><y>2</y><x>1</x></item>", 1), &points).unwrap();
        assert_eq!(
            deep_size(&swapped),
            VALUE + nodes(1) + nodes(2) + own_shape("Pt", &["y", "x"])
        );
        // A type no registry knows, its two strings in the tree's text.
        let loose = read_body(
            "<return><a>s</a><b>t</b></return>",
            &FieldType::Struct("Loose".into()),
        )
        .unwrap();
        assert_eq!(
            deep_size(&loose),
            VALUE + nodes(2) + (BLOCK_HEADER + 2) + own_shape("Loose", &["a", "b"])
        );
    }

    #[test]
    fn mixed_content_and_nil_containers() {
        let boxed = FieldType::Struct("Box".into());
        let e = read_body("<return><label>a</label>stray</return>", &boxed).unwrap_err();
        assert_eq!(
            e.to_string(),
            "soap encoding error: mixed content in <return>"
        );
        let e = read_body(
            "<return><corners><item><x>1</x>stray</item></corners></return>",
            &boxed,
        )
        .unwrap_err();
        assert_eq!(
            e.to_string(),
            "soap encoding error: mixed content in <item>"
        );
        // A nil container's children are read (and must be valid) but
        // the value is null.
        let v = read_body(
            "<return><corners xsi:nil=\"true\"><item><x>1</x></item></corners></return>",
            &boxed,
        )
        .unwrap();
        assert_eq!(
            v,
            Value::Struct(StructValue::new("Box").with("corners", Value::Null))
        );
        let e = read_body(
            "<return><corners xsi:nil=\"true\"><item><x>one</x></item></corners></return>",
            &boxed,
        )
        .unwrap_err();
        assert!(
            e.to_string().contains("invalid int value 'one' in <x>"),
            "{e}"
        );
    }

    #[test]
    fn events_path_equals_xml_path() {
        let r = registry();
        let v = Value::Struct(StructValue::new("Box").with("label", "xyz").with(
            "corners",
            vec![Value::Struct(
                StructValue::new("Pt").with("x", 5).with("y", 6),
            )],
        ));
        let expected = FieldType::Struct("Box".into());
        let xml = serialize_response("urn:t", "op", "return", &v, &r).unwrap();
        let (from_xml, events) =
            read_response_bytes_recording(xml.as_bytes(), &expected, &r).unwrap();
        let from_events = read_response_events(&events, &expected, &r).unwrap();
        assert_eq!(from_xml, from_events);
        assert_eq!(from_xml.as_return().unwrap(), &v);
        // The recorded sequence is the full document's events.
        assert!(events.len() > 10);
    }

    #[test]
    fn dom_path_equals_sax_path() {
        let r = registry();
        let v = Value::Struct(
            StructValue::new("Box")
                .with("label", "dom")
                .with(
                    "corners",
                    vec![Value::Struct(
                        StructValue::new("Pt").with("x", 1).with("y", 2),
                    )],
                )
                .with("payload", vec![1u8, 2]),
        );
        let expected = FieldType::Struct("Box".into());
        let xml = serialize_response("urn:t", "op", "return", &v, &r).unwrap();
        let document = wsrc_xml::Document::parse(&xml).unwrap();
        let from_dom = read_response_dom(&document, &expected, &r).unwrap();
        let from_xml = read_response_xml(&xml, &expected, &r).unwrap();
        assert_eq!(from_dom, from_xml);
        assert_eq!(from_dom.as_return().unwrap(), &v);
        // Faults read through the DOM too.
        let fault_xml =
            crate::serializer::serialize_fault(&SoapFault::server("dom fault").with_detail("d"))
                .unwrap();
        let fault_doc = wsrc_xml::Document::parse(&fault_xml).unwrap();
        match read_response_dom(&fault_doc, &expected, &r).unwrap() {
            RpcOutcome::Fault(f) => assert_eq!(f.string, "dom fault"),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn fault_responses_are_outcomes_not_errors() {
        let r = registry();
        let fault = SoapFault::server("backend exploded").with_detail("lp0 on fire");
        let xml = serialize_fault(&fault).unwrap();
        match read_response_xml(&xml, &FieldType::String, &r).unwrap() {
            RpcOutcome::Fault(f) => {
                assert_eq!(f.string, "backend exploded");
                assert_eq!(f.code, "soapenv:Server");
                assert_eq!(f.detail.as_deref(), Some("lp0 on fire"));
            }
            RpcOutcome::Return(v) => panic!("expected fault, got {v:?}"),
        }
    }

    #[test]
    fn header_elements_are_skipped() {
        let r = registry();
        let xml = "<soapenv:Envelope xmlns:soapenv=\"http://schemas.xmlsoap.org/soap/envelope/\">\
                   <soapenv:Header><auth><token>t</token></auth></soapenv:Header>\
                   <soapenv:Body><opResponse><return xsi:type=\"xsd:string\" xmlns:xsi=\"x\" xmlns:xsd=\"y\">ok</return></opResponse></soapenv:Body>\
                   </soapenv:Envelope>";
        let out = read_response_xml(xml, &FieldType::String, &r).unwrap();
        assert_eq!(out.as_return().unwrap(), &Value::string("ok"));
    }

    #[test]
    fn malformed_envelopes_are_rejected() {
        let r = registry();
        for xml in [
            "<notsoap/>",
            "<soapenv:Envelope xmlns:soapenv=\"e\"><soapenv:Body></soapenv:Body>", // truncated
            "<Envelope><Wrong/></Envelope>",
        ] {
            assert!(
                read_response_xml(xml, &FieldType::String, &r).is_err(),
                "expected error for {xml:?}"
            );
        }
    }

    #[test]
    fn type_mismatches_are_encoding_errors() {
        let r = registry();
        let xml = serialize_response("urn:t", "op", "return", &Value::string("not-a-number"), &r)
            .unwrap();
        let e = read_response_xml(&xml, &FieldType::Int, &r).unwrap_err();
        assert!(matches!(e, SoapError::Encoding(_)), "{e}");
        let e = read_response_xml(&xml, &FieldType::Bool, &r).unwrap_err();
        assert!(matches!(e, SoapError::Encoding(_)), "{e}");
    }

    #[test]
    fn void_responses_return_null() {
        let r = registry();
        let xml = "<soapenv:Envelope xmlns:soapenv=\"http://schemas.xmlsoap.org/soap/envelope/\">\
                   <soapenv:Body><opResponse/></soapenv:Body></soapenv:Envelope>";
        let out = read_response_xml(xml, &FieldType::String, &r).unwrap();
        assert_eq!(out.as_return().unwrap(), &Value::Null);
    }

    #[test]
    fn second_return_element_is_rejected() {
        let r = registry();
        let xml = "<Envelope><Body><opResponse>\
                   <return xsi:type=\"xsd:string\" xmlns:xsi=\"x\" xmlns:xsd=\"y\">a</return>\
                   <return2>b</return2>\
                   </opResponse></Body></Envelope>";
        assert!(read_response_xml(xml, &FieldType::String, &r).is_err());
    }

    #[test]
    fn second_body_element_is_rejected_every_way() {
        let r = registry();
        let body = |inner: &str| format!("<Envelope><Body>{inner}</Body></Envelope>");
        for (inner, expected) in [
            // Two responses, scalar and struct.
            (
                "<aResponse><return>1</return></aResponse><bResponse><return>2</return></bResponse>",
                FieldType::Int,
            ),
            (
                "<opResponse><return><x>1</x><y>2</y></return></opResponse>\
                 <opResponse><return><x>3</x><y>4</y></return></opResponse>",
                FieldType::Struct("Pt".into()),
            ),
            // A void response first; an Axis multiRef with one child.
            ("<opResponse/><opResponse><return>2</return></opResponse>", FieldType::Int),
            (
                "<opResponse><return href=\"#id0\"/></opResponse>\
                 <multiRef id=\"id0\"><x>1</x></multiRef>",
                FieldType::Struct("Pt".into()),
            ),
        ] {
            let xml = body(inner);
            let streamed = read_response_xml(&xml, &expected, &r).unwrap_err();
            assert!(
                streamed.to_string().contains("unexpected second element <"),
                "{streamed}"
            );
            let events = XmlReader::new(&xml).read_sequence().unwrap();
            let replayed = read_response_events(&events, &expected, &r).unwrap_err();
            let recorded = read_response_bytes_recording(xml.as_bytes(), &expected, &r).unwrap_err();
            let walked = read_response_dom(&wsrc_xml::Document::parse(&xml).unwrap(), &expected, &r)
                .unwrap_err();
            for other in [replayed, recorded, walked] {
                assert_eq!(other.to_string(), streamed.to_string(), "{xml}");
            }
        }
        // A fault beside a response is the outcome, whichever comes first.
        let fault = "<Fault><faultstring>boom</faultstring></Fault>";
        for inner in [
            format!("<opResponse><return>1</return></opResponse>{fault}"),
            format!("{fault}<opResponse><return>1</return></opResponse>"),
        ] {
            let out = read_response_xml(&body(&inner), &FieldType::Int, &r).unwrap();
            assert!(matches!(out, RpcOutcome::Fault(_)), "{out:?}");
        }
    }

    #[test]
    fn request_parsing_matches_serialization() {
        let r = registry();
        let ops = vec![OperationDescriptor::new(
            "urn:t",
            "doThing",
            vec![
                FieldDescriptor::new("q", FieldType::String),
                FieldDescriptor::new("max", FieldType::Int),
                FieldDescriptor::new("flag", FieldType::Bool),
            ],
            FieldType::String,
        )];
        let req = RpcRequest::new("urn:t", "doThing")
            .with_param("q", "search terms")
            .with_param("max", 10)
            .with_param("flag", false);
        let xml = serialize_request(&req, &r).unwrap();
        let parsed = parse_request(&xml, &ops, &r).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn request_with_struct_param_roundtrips() {
        let r = registry();
        let ops = vec![OperationDescriptor::new(
            "urn:t",
            "plot",
            vec![FieldDescriptor::new("at", FieldType::Struct("Pt".into()))],
            FieldType::String,
        )];
        let req = RpcRequest::new("urn:t", "plot").with_param(
            "at",
            Value::Struct(StructValue::new("Pt").with("x", 7).with("y", 8)),
        );
        let xml = serialize_request(&req, &r).unwrap();
        assert_eq!(parse_request(&xml, &ops, &r).unwrap(), req);
    }

    #[test]
    fn unknown_operations_and_missing_params_are_rejected() {
        let r = registry();
        let ops = vec![OperationDescriptor::new(
            "urn:t",
            "doThing",
            vec![FieldDescriptor::new("q", FieldType::String)],
            FieldType::String,
        )];
        let unknown = serialize_request(&RpcRequest::new("urn:t", "doOther"), &r).unwrap();
        assert!(parse_request(&unknown, &ops, &r).is_err());
        let missing = serialize_request(&RpcRequest::new("urn:t", "doThing"), &r).unwrap();
        assert!(parse_request(&missing, &ops, &r).is_err());
    }

    #[test]
    fn garbage_xml_is_rejected_as_xml_error() {
        let r = registry();
        let e = read_response_xml("<<<", &FieldType::String, &r).unwrap_err();
        assert!(matches!(e, SoapError::Xml(_)));
        assert!(parse_request("<<<", &[], &r).is_err());
    }

    #[test]
    fn array_type_counts_reserve_at_most_the_cap() {
        assert_eq!(array_type_count("xsd:int[3]"), 3);
        assert_eq!(array_type_count("x[4000000000]"), ARRAY_RESERVE_CAP as u32);
        for malformed in ["x[99999999999999999999999]", "x[-1]", "]x[", "x", ""] {
            assert_eq!(array_type_count(malformed), 0, "{malformed}");
        }
    }
}
