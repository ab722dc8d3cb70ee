//! Differential harness for the decoder, responses and requests.
//!
//! One reader ([`wsrc_soap::deserializer::ResponseReader`]) is driven
//! by the parser alone (`read_response_xml`, and over bytes
//! `read_response_bytes`), by arena replay (`read_response_events`) and
//! by the parser while it records (`read_response_bytes_recording`). `read_response_dom` walks a parsed
//! tree with `element_to_value` and shares nothing with the reader but
//! scalar parsing, so it is the reference: on every generated envelope
//! all four must agree on the outcome or on the error message, and the
//! arena recorded on the way must equal `XmlReader::read_sequence` of
//! the same bytes.
//!
//! The generator writes envelopes by hand rather than through the
//! serializer so it can produce what the serializer never does: fields
//! out of order, repeated, unknown or missing, unregistered struct
//! types, `xsi:nil`, untyped arrays and structs, text split over several
//! `characters` calls (entities, CDATA, comments), whitespace between
//! elements, a `Header`, a fault. It stays clear of the shapes where the
//! tree walk and the streaming reader are *known* to differ, each a
//! property of the tree walk that this change leaves alone:
//!
//! - an untyped element with no children whose `xsi:type` is `Array`
//!   (tree: empty array; stream: empty string),
//! - an untyped struct whose `xsi:type` names a registered type (tree:
//!   untyped children; stream: children typed by the registry),
//! - untyped containers mixing `item` and other child names, or named
//!   `Array` without `item` children,
//! - non-whitespace text after a child element (tree: ignored; stream:
//!   "mixed content"), children under `xsi:nil`, `nil` and `null` on one
//!   element.
//!
//! Requests go the same way: `parse_request` is the reader's fourth
//! drive, and the reference is the tree walk it replaced — the
//! document parsed into a tree, each parameter converted by
//! `element_to_value` under the operation's declaration of its name.
//! Generated calls carry scalar, struct and array parameters, `xsi:nil`,
//! untyped parameters with `xsi:type`, and parameters that are unknown,
//! repeated, out of order or missing; both must return the same request
//! or the same error. Malformed requests (no `Body`, an empty one, an
//! unknown operation, truncated XML) must fail with the same kind of
//! error and never panic. A body that is not UTF-8 never reaches the
//! decoder: the dispatcher answers it with 400 (`wsrc-services`'
//! `non_utf8_bodies_are_bad_requests`).
//!
//! The build environment is offline (no `proptest`), so this uses the
//! same hand-rolled xorshift generator as `proptests.rs`; failures
//! reproduce by seed.

use wsrc_model::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor, TypeRegistry};
use wsrc_model::value::Value;
use wsrc_soap::base64;
use wsrc_soap::deserializer::{
    element_to_value, parse_request, read_response_bytes, read_response_bytes_recording,
    read_response_dom, read_response_events, read_response_xml,
};
use wsrc_soap::envelope;
use wsrc_soap::rpc::{OperationDescriptor, RpcOutcome, RpcRequest};
use wsrc_soap::SoapError;
use wsrc_xml::{Document, XmlReader};

const CASES: u64 = 400;

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True once in `n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

fn array_of(inner: FieldType) -> FieldType {
    FieldType::ArrayOf(Box::new(inner))
}

fn strukt(name: &str) -> FieldType {
    FieldType::Struct(name.into())
}

/// The three types of `wsrc_services::google::registry()` (this crate
/// sits below the services crate, so they are spelled out).
fn google_registry() -> TypeRegistry {
    let strings = |names: &[&str]| -> Vec<FieldDescriptor> {
        names
            .iter()
            .map(|n| FieldDescriptor::new(*n, FieldType::String))
            .collect()
    };
    let mut element = strings(&["summary", "URL", "snippet", "title", "cachedSize"]);
    element.push(FieldDescriptor::new(
        "relatedInformationPresent",
        FieldType::Bool,
    ));
    element.push(FieldDescriptor::new("hostName", FieldType::String));
    element.push(FieldDescriptor::new(
        "directoryCategory",
        strukt("DirectoryCategory"),
    ));
    element.extend(strings(&["directoryTitle", "language"]));
    TypeRegistry::builder()
        .register(TypeDescriptor::new(
            "DirectoryCategory",
            strings(&["fullViewableName", "specialEncoding"]),
        ))
        .register(TypeDescriptor::new("ResultElement", element))
        .register(TypeDescriptor::new(
            "GoogleSearchResult",
            vec![
                FieldDescriptor::new("documentFiltering", FieldType::Bool),
                FieldDescriptor::new("searchComments", FieldType::String),
                FieldDescriptor::new("estimatedTotalResultsCount", FieldType::Int),
                FieldDescriptor::new("estimateIsExact", FieldType::Bool),
                FieldDescriptor::new("resultElements", array_of(strukt("ResultElement"))),
                FieldDescriptor::new("searchQuery", FieldType::String),
                FieldDescriptor::new("startIndex", FieldType::Int),
                FieldDescriptor::new("endIndex", FieldType::Int),
                FieldDescriptor::new("searchTips", FieldType::String),
                FieldDescriptor::new("directoryCategories", array_of(strukt("DirectoryCategory"))),
                FieldDescriptor::new("searchTime", FieldType::Double),
            ],
        ))
        .build()
}

/// Types chosen for what the Google ones lack: every scalar kind, XML
/// names that differ from field names (one of them equal to *another*
/// field's name), recursion, nested arrays, a field of an unregistered
/// type, and more fields than the reader's seen-set tracks.
fn adhoc_registry() -> TypeRegistry {
    let renamed = |name: &str, xml_name: &str, field_type: FieldType| FieldDescriptor {
        name: name.into(),
        xml_name: xml_name.into(),
        field_type,
    };
    TypeRegistry::builder()
        .register(TypeDescriptor::new(
            "Node",
            vec![
                renamed("label", "Label", FieldType::String),
                FieldDescriptor::new("weight", FieldType::Double),
                FieldDescriptor::new("count", FieldType::Int),
                FieldDescriptor::new("big", FieldType::Long),
                FieldDescriptor::new("flag", FieldType::Bool),
                FieldDescriptor::new("blob", FieldType::Bytes),
                FieldDescriptor::new("children", array_of(strukt("Node"))),
                FieldDescriptor::new("grid", array_of(array_of(FieldType::Int))),
                FieldDescriptor::new("ghost", strukt("Unregistered")),
                // An element called `label` is this field, not the first.
                renamed("alias", "label", FieldType::Int),
                FieldDescriptor::new("wide", strukt("Wide")),
            ],
        ))
        .register(TypeDescriptor::new(
            "Wide",
            (0..70)
                .map(|i| FieldDescriptor::new(format!("w{i}"), FieldType::Int))
                .collect(),
        ))
        .build()
}

/// Writes one envelope.
struct Writer<'a> {
    rng: Rng,
    registry: &'a TypeRegistry,
    out: String,
}

impl Writer<'_> {
    /// Whitespace between elements, sometimes.
    fn gap(&mut self) {
        if self.rng.one_in(4) {
            self.out
                .push_str(["\n", "  ", "\n\t", " \r\n "][self.rng.below(4)]);
        }
    }

    /// Character data that reaches the handler as `text`, in one or
    /// several `characters` calls.
    fn text(&mut self, text: &str) {
        for c in text.chars() {
            match self.rng.below(12) {
                0 => self.out.push_str(&format!("&#{};", c as u32)),
                1 => self.out.push_str(&format!("&#x{:x};", c as u32)),
                2 if c != ']' => self.out.push_str(&format!("<![CDATA[{c}]]>")),
                3 => {
                    self.out.push_str("<!-- split -->");
                    self.out
                        .push_str(&wsrc_xml::escape::escape_text(&c.to_string()));
                }
                _ => self
                    .out
                    .push_str(&wsrc_xml::escape::escape_text(&c.to_string())),
            }
        }
    }

    fn printable(&mut self, max: usize) -> String {
        const EXTRA: [char; 8] = ['&', '<', '>', '"', '\'', ']', 'é', '日'];
        (0..self.rng.below(max + 1))
            .map(|_| {
                if self.rng.one_in(6) {
                    EXTRA[self.rng.below(EXTRA.len())]
                } else {
                    (b' ' + self.rng.below(95) as u8) as char
                }
            })
            .collect()
    }

    /// A lexical form for a scalar type — now and then one that does not
    /// parse, so error messages are compared too.
    fn lexical(&mut self, ty: &FieldType) -> String {
        if self.rng.one_in(60) {
            return "bogus".into();
        }
        let padded = |s: String, rng: &mut Rng| {
            if rng.one_in(5) {
                format!(" {s}\n")
            } else {
                s
            }
        };
        match ty {
            FieldType::Bool => {
                let s = ["true", "false", "1", "0"][self.rng.below(4)].to_string();
                padded(s, &mut self.rng)
            }
            FieldType::Int => padded((self.rng.next() as i32).to_string(), &mut self.rng),
            FieldType::Long => padded((self.rng.next() as i64).to_string(), &mut self.rng),
            FieldType::Double => {
                let s = match self.rng.below(6) {
                    0 => "INF".to_string(),
                    1 => "-INF".to_string(),
                    2 => "1e-3".to_string(),
                    _ => format!("{}.{}", self.rng.next() as i32, self.rng.below(1000)),
                };
                padded(s, &mut self.rng)
            }
            FieldType::Bytes => {
                let n = self.rng.below(40);
                let data: Vec<u8> = (0..n).map(|_| self.rng.next() as u8).collect();
                let mut enc = base64::encode(&data);
                if enc.len() > 8 && self.rng.one_in(3) {
                    enc.insert(8, '\n');
                }
                enc
            }
            _ => self.printable(24),
        }
    }

    /// `<name …>…</name>` for a value of `declared` type (`None`: the
    /// reader has no declaration and goes by `xsi:type`).
    fn element(&mut self, name: &str, declared: Option<&FieldType>, depth: u32) {
        self.gap();
        // nil: empty, or with text nobody will parse.
        if self.rng.one_in(14) {
            let attr = ["xsi:nil=\"true\"", "xsi:null=\"1\"", "nil=\"true\""][self.rng.below(3)];
            if self.rng.one_in(2) {
                self.out.push_str(&format!("<{name} {attr}/>"));
            } else {
                self.out.push_str(&format!("<{name} {attr}>junk</{name}>"));
            }
            return;
        }
        match declared {
            Some(FieldType::Struct(type_name)) => {
                // A declared container never consults xsi:type.
                let decoy = if self.rng.one_in(5) {
                    " xsi:type=\"xsd:int\""
                } else {
                    ""
                };
                self.out.push_str(&format!("<{name}{decoy}>"));
                if depth > 0 {
                    self.struct_children(type_name, depth - 1);
                }
                self.gap();
                self.out.push_str(&format!("</{name}>"));
            }
            Some(FieldType::ArrayOf(inner)) => {
                let n = if depth == 0 { 0 } else { self.rng.below(4) };
                let count = if self.rng.one_in(2) {
                    format!(" SOAP-ENC:arrayType=\"xsd:anyType[{n}]\"")
                } else {
                    String::new()
                };
                self.out.push_str(&format!("<{name}{count}>"));
                for _ in 0..n {
                    // Items of a declared array may be called anything.
                    let item = if self.rng.one_in(8) { "entry" } else { "item" };
                    self.element(item, Some(inner), depth - 1);
                }
                self.gap();
                self.out.push_str(&format!("</{name}>"));
            }
            Some(scalar) => {
                // A declared scalar ignores xsi:type and any `type`.
                let decoy = match self.rng.below(8) {
                    0 => " xsi:type=\"xsd:boolean\"",
                    1 => " type=\"xsd:int\"",
                    _ => "",
                };
                let lexical = self.lexical(scalar);
                self.out.push_str(&format!("<{name}{decoy}>"));
                self.text(&lexical);
                self.out.push_str(&format!("</{name}>"));
            }
            None => self.untyped(name, depth),
        }
    }

    /// The children of a struct of declared type `type_name`: its fields
    /// — some missing, sometimes shuffled, sometimes repeated — and now
    /// and then one it does not declare.
    fn struct_children(&mut self, type_name: &str, depth: u32) {
        let Some(descriptor) = self.registry.get(type_name) else {
            // Unregistered: every child is untyped.
            for i in 0..self.rng.below(4) {
                self.untyped(&format!("u{i}"), depth);
            }
            return;
        };
        if self.rng.one_in(6) {
            // Ignored by both readers: it precedes the first child.
            self.out.push_str("leading text");
        }
        let mut order: Vec<usize> = (0..descriptor.fields.len())
            .filter(|_| !self.rng.one_in(5))
            .collect();
        if self.rng.one_in(3) {
            for i in (1..order.len()).rev() {
                order.swap(i, self.rng.below(i + 1));
            }
        }
        if !order.is_empty() && self.rng.one_in(4) {
            let again = order[self.rng.below(order.len())];
            order.insert(self.rng.below(order.len() + 1), again);
        }
        let unknown_at = self.rng.one_in(3).then(|| self.rng.below(order.len() + 1));
        for (i, slot) in order.iter().enumerate() {
            if unknown_at == Some(i) {
                self.unknown_field(descriptor, depth);
            }
            let field = &descriptor.fields[*slot];
            self.element(&field.xml_name, Some(&field.field_type), depth);
        }
        if unknown_at == Some(order.len()) {
            self.unknown_field(descriptor, depth);
        }
    }

    /// A child element no field declares as its XML name — named, half
    /// the time, like some field's *field* name, so both land on one key.
    fn unknown_field(&mut self, descriptor: &TypeDescriptor, depth: u32) {
        let taken = |n: &str| descriptor.field_by_xml_name(n).is_some();
        let candidate = descriptor
            .fields
            .get(self.rng.below(descriptor.fields.len().max(1)))
            .map(|f| f.name.clone())
            .filter(|n| self.rng.one_in(2) && !taken(n));
        let name = candidate.unwrap_or_else(|| "undeclared".into());
        self.untyped(&name, depth);
    }

    /// An element the reader has no declaration for.
    fn untyped(&mut self, name: &str, depth: u32) {
        self.gap();
        let pick = if depth == 0 {
            self.rng.below(8)
        } else {
            self.rng.below(12)
        };
        match pick {
            0..=5 => {
                let (xsd, ty) = [
                    ("string", FieldType::String),
                    ("int", FieldType::Int),
                    ("long", FieldType::Long),
                    ("double", FieldType::Double),
                    ("boolean", FieldType::Bool),
                    ("base64Binary", FieldType::Bytes),
                ][pick]
                    .clone();
                let lexical = self.lexical(&ty);
                self.out
                    .push_str(&format!("<{name} xsi:type=\"xsd:{xsd}\">"));
                self.text(&lexical);
                self.out.push_str(&format!("</{name}>"));
            }
            6 => {
                // No xsi:type at all — an unprefixed application `type`
                // attribute must not supply one.
                let decoy = if self.rng.one_in(2) {
                    " type=\"xsd:int\""
                } else {
                    ""
                };
                let lexical = self.printable(12);
                self.out.push_str(&format!("<{name}{decoy}>"));
                self.text(&lexical);
                self.out.push_str(&format!("</{name}>"));
            }
            7 => self.out.push_str(&format!("<{name}/>")),
            8 | 9 => {
                // Array: by xsi:type, or by its `item` children alone.
                let n = 1 + self.rng.below(3);
                let attrs = if pick == 8 {
                    format!(" xsi:type=\"SOAP-ENC:Array\" SOAP-ENC:arrayType=\"xsd:anyType[{n}]\"")
                } else {
                    String::new()
                };
                self.out.push_str(&format!("<{name}{attrs}>"));
                for _ in 0..n {
                    self.untyped("item", depth - 1);
                }
                self.gap();
                self.out.push_str(&format!("</{name}>"));
            }
            _ => {
                // Dynamic struct: named by xsi:type, or by its element.
                let attrs = if pick == 10 {
                    " xsi:type=\"ns1:Unregistered\""
                } else {
                    ""
                };
                self.out.push_str(&format!("<{name}{attrs}>"));
                let n = 1 + self.rng.below(3);
                for i in 0..n {
                    // Sometimes the same name twice.
                    let field = format!("f{}", if self.rng.one_in(4) { 0 } else { i });
                    self.untyped(&field, depth - 1);
                }
                self.gap();
                self.out.push_str(&format!("</{name}>"));
            }
        }
    }
}

fn envelope(seed: u64, registry: &TypeRegistry, expected: &FieldType) -> String {
    let mut w = Writer {
        rng: Rng::new(seed),
        registry,
        out: String::new(),
    };
    if w.rng.one_in(3) {
        w.out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    }
    w.out
        .push_str("<soapenv:Envelope xmlns:soapenv=\"http://schemas.xmlsoap.org/soap/envelope/\">");
    w.gap();
    if w.rng.one_in(4) {
        w.out.push_str(
            "<soapenv:Header><auth mustUnderstand=\"0\"><token>t &amp; u</token></auth>\
             <Body>not the body</Body></soapenv:Header>",
        );
        w.gap();
    }
    w.out.push_str("<soapenv:Body>");
    w.gap();
    w.out.push_str("<ns1:opResponse xmlns:ns1=\"urn:t\">");
    w.element("return", Some(expected), 4);
    w.gap();
    w.out.push_str("</ns1:opResponse>");
    w.gap();
    w.out.push_str("</soapenv:Body>");
    w.gap();
    w.out.push_str("</soapenv:Envelope>");
    w.out
}

type Outcome = Result<RpcOutcome, String>;

/// What the reader decodes is one tree: at most one text block, one node
/// block per nesting level below the root and one buffer per `byte[]`,
/// however many nodes it has.
fn assert_few_blocks(outcome: &Outcome, what: &str) {
    fn walk(v: &Value, ids: &mut std::collections::HashSet<usize>) -> (usize, usize) {
        ids.extend(v.block().map(|b| b.id));
        let children: Vec<&Value> = match v {
            Value::Bytes(_) => return (0, 1),
            Value::Array(items) => items.iter().collect(),
            Value::Struct(s) => s.fields().map(|(_, v)| v).collect(),
            _ => return (0, 0),
        };
        let below = children.into_iter().map(|child| walk(child, ids));
        let (depth, buffers) = below.fold((0, 0), |(d, b), (cd, cb)| (d.max(cd), b + cb));
        (depth + 1, buffers)
    }
    if let Ok(RpcOutcome::Return(value)) = outcome {
        let mut ids = std::collections::HashSet::new();
        let (depth, buffers) = walk(value, &mut ids);
        assert!(
            ids.len() <= depth + 1 + buffers,
            "{what}: {} blocks for depth {depth} and {buffers} buffers",
            ids.len()
        );
    }
}

/// Runs `xml` through every entry point, checks them against the tree
/// walk and each other, and returns what they agreed on.
fn decode_all_ways(
    xml: &str,
    expected: &FieldType,
    registry: &TypeRegistry,
    what: &str,
) -> Outcome {
    let text = |r: Result<RpcOutcome, wsrc_soap::SoapError>| r.map_err(|e| e.to_string());
    let reference = match Document::parse(xml) {
        Ok(document) => text(read_response_dom(&document, expected, registry)),
        Err(e) => Err(wsrc_soap::SoapError::Xml(e).to_string()),
    };
    let parsed = text(read_response_xml(xml, expected, registry));
    assert_eq!(parsed, reference, "{what}: read_response_xml\n{xml}");
    assert_few_blocks(&parsed, what);
    let from_bytes = text(read_response_bytes(xml.as_bytes(), expected, registry));
    assert_eq!(from_bytes, reference, "{what}: read_response_bytes\n{xml}");
    let arena = XmlReader::new(xml).read_sequence();
    if let Ok(arena) = &arena {
        let replayed = text(read_response_events(arena, expected, registry));
        assert_eq!(replayed, reference, "{what}: read_response_events\n{xml}");
        assert_few_blocks(&replayed, what);
    }
    match read_response_bytes_recording(xml.as_bytes(), expected, registry) {
        Ok((outcome, recorded)) => {
            let outcome = Ok(outcome);
            assert_few_blocks(&outcome, what);
            assert_eq!(outcome, reference, "{what}: recording\n{xml}");
            let arena = arena.expect("the recording pass parsed the document");
            assert_eq!(recorded, arena, "{what}: recorded arena\n{xml}");
        }
        Err(e) => assert_eq!(Err(e.to_string()), reference, "{what}: recording\n{xml}"),
    }
    reference
}

fn expected_types(google: bool) -> Vec<FieldType> {
    if google {
        vec![
            strukt("GoogleSearchResult"),
            strukt("ResultElement"),
            array_of(strukt("DirectoryCategory")),
            FieldType::String,
            FieldType::Bytes,
        ]
    } else {
        vec![
            strukt("Node"),
            strukt("Wide"),
            strukt("Unregistered"),
            array_of(strukt("Node")),
            array_of(array_of(FieldType::Int)),
            array_of(FieldType::String),
            FieldType::Bool,
            FieldType::Int,
            FieldType::Long,
            FieldType::Double,
            FieldType::String,
            FieldType::Bytes,
        ]
    }
}

#[test]
fn generated_envelopes_decode_alike_over_both_registries() {
    let mut returns = 0;
    let mut errors = 0;
    for (google, registry) in [(true, google_registry()), (false, adhoc_registry())] {
        let types = expected_types(google);
        for seed in 0..CASES {
            let expected = &types[seed as usize % types.len()];
            let xml = envelope(seed, &registry, expected);
            let what = format!("seed {seed} ({expected}, google={google})");
            match decode_all_ways(&xml, expected, &registry, &what) {
                Ok(RpcOutcome::Return(_)) => returns += 1,
                Ok(RpcOutcome::Fault(f)) => panic!("{what}: unexpected fault {f}"),
                Err(_) => errors += 1,
            }
        }
    }
    // The corpus is mostly decodable, with a tail of lexical errors.
    assert!(returns > errors * 3, "{returns} returns, {errors} errors");
    assert!(errors > 0, "no generated envelope exercised an error");
}

#[test]
fn handwritten_envelopes_decode_alike() {
    let r = adhoc_registry();
    let node = strukt("Node");
    let body = |inner: &str| {
        format!(
            "<e:Envelope xmlns:e=\"http://schemas.xmlsoap.org/soap/envelope/\"><e:Body>\
             {inner}</e:Body></e:Envelope>"
        )
    };
    let wrap = |ret: &str| body(&format!("<opResponse>{ret}</opResponse>"));

    // A fault, with and without detail; faults are outcomes.
    for fault in [
        "<e:Fault><faultcode>e:Server</faultcode><faultstring>boom &amp; bust</faultstring>\
         <detail>lp0</detail></e:Fault>",
        "<e:Fault> <faultstring>only a string</faultstring> </e:Fault>",
    ] {
        let out = decode_all_ways(&body(fault), &node, &r, "fault").unwrap();
        assert!(matches!(out, RpcOutcome::Fault(_)), "{out:?}");
    }

    // A void response.
    let out = decode_all_ways(&body("<opResponse/>"), &node, &r, "void").unwrap();
    assert_eq!(out.as_return(), Some(&Value::Null));

    // Out of order, repeated, unknown and missing fields at once: the
    // repeat lands on the first occurrence, unknown keeps its name.
    let xml = wrap(
        "<return><count>1</count><Label>a</Label><undeclared xsi:type=\"xsd:int\">9</undeclared>\
         <count>2</count></return>",
    );
    let out = decode_all_ways(&xml, &node, &r, "shuffled").unwrap();
    let s = out.as_return().unwrap().as_struct().unwrap();
    let names: Vec<&str> = s.fields().map(|(n, _)| n).collect();
    assert_eq!(names, ["count", "label", "undeclared"]);
    assert_eq!(s.get("count"), Some(&Value::Int(2)));

    // An undeclared element named like a declared field's *field* name
    // shares its key; the later one wins in place.
    let xml = wrap("<return><alias xsi:type=\"xsd:string\">x</alias><label>7</label></return>");
    let out = decode_all_ways(&xml, &node, &r, "alias").unwrap();
    let s = out.as_return().unwrap().as_struct().unwrap();
    assert_eq!(s.len(), 1);
    assert_eq!(s.get("alias"), Some(&Value::Int(7)));

    // Errors carry the same message every way.
    let xml = wrap("<return><count>many</count></return>");
    let err = decode_all_ways(&xml, &node, &r, "bad int").unwrap_err();
    assert!(err.contains("invalid int value 'many' in <count>"), "{err}");
    let xml = wrap("<return><children>text</children></return>");
    let err = decode_all_ways(&xml, &node, &r, "text in array").unwrap_err();
    assert!(
        err.contains("scalar text in <children> where Node[]"),
        "{err}"
    );

    // A Body holds one response element: a second one is not decoded
    // over the first, whichever way the document is driven.
    let xml = body(
        "<aResponse><return><count>1</count></return></aResponse>\
         <bResponse><return><count>2</count></return></bResponse>",
    );
    let err = decode_all_ways(&xml, &node, &r, "two wrappers").unwrap_err();
    assert!(
        err.contains("unexpected second element <bResponse> in Body"),
        "{err}"
    );

    // Malformed XML is an XML error every way.
    for xml in [
        wrap("<return><count>1</count></return>").replace("</e:Envelope>", ""),
        wrap("<return><count>1</wrong></return>"),
        "<<<".to_string(),
    ] {
        let err = decode_all_ways(&xml, &node, &r, "malformed").unwrap_err();
        assert!(err.starts_with("xml error"), "{err}");
    }

    // Malformed *and* undecodable: every pass reports the XML error
    // wherever it sits, as parsing the whole document before decoding
    // any of it does.
    let xml = wrap("<return><count>many</count></return>").replace("</e:Envelope>", "");
    let err = read_response_bytes_recording(xml.as_bytes(), &node, &r).unwrap_err();
    assert!(err.to_string().starts_with("xml error"), "{err}");
    let err = read_response_bytes(xml.as_bytes(), &node, &r).unwrap_err();
    assert!(err.to_string().starts_with("xml error"), "{err}");
    let err = read_response_xml(&xml, &node, &r).unwrap_err();
    assert!(err.to_string().starts_with("xml error"), "{err}");
}

/// An unprefixed `type` attribute is application data: it does not
/// retype an untyped element, in the reader or in the tree walk.
#[test]
fn unprefixed_type_attribute_does_not_retype() {
    let r = adhoc_registry();
    let xml = "<Envelope><Body><opResponse><return>\
               <plain type=\"xsd:int\">7</plain>\
               <typed xsi:type=\"xsd:int\">7</typed>\
               <shaped type=\"ns1:Node\"><x xsi:type=\"xsd:int\">1</x></shaped>\
               </return></opResponse></Body></Envelope>";
    let out = decode_all_ways(xml, &strukt("Unregistered"), &r, "type attr").unwrap();
    let s = out.as_return().unwrap().as_struct().unwrap();
    assert_eq!(s.get("plain"), Some(&Value::string("7")));
    assert_eq!(s.get("typed"), Some(&Value::Int(7)));
    // Named after its element, not after the attribute.
    let shaped = s.get("shaped").unwrap().as_struct().unwrap();
    assert_eq!(shaped.type_name(), "shaped");
}

#[test]
fn hostile_array_counts_reserve_at_most_the_cap() {
    let r = adhoc_registry();
    for (attrs, expected) in [
        (
            "xsi:type=\"SOAP-ENC:Array\" SOAP-ENC:arrayType=\"x[4000000000]\"",
            strukt("Unregistered"),
        ),
        ("arrayType=\"x[4000000000]\"", array_of(FieldType::Int)),
        (
            "arrayType=\"x[99999999999999999999999]\"",
            array_of(FieldType::Int),
        ),
        ("arrayType=\"x[-1]\"", array_of(FieldType::Int)),
        ("arrayType=\"]x[\"", array_of(FieldType::Int)),
    ] {
        let xml = format!(
            "<Envelope><Body><opResponse><return><a {attrs}>\
             <item xsi:type=\"xsd:int\">1</item><item xsi:type=\"xsd:int\">2</item>\
             </a></return></opResponse></Body></Envelope>"
        );
        // Under `Unregistered` the array is an untyped field; under an
        // array type `<a>` is its first (array-of-int?) item — either
        // way every path must agree and nothing may be sized by `n`.
        let out = decode_all_ways(&xml, &expected, &r, attrs);
        if let Ok(RpcOutcome::Return(Value::Struct(s))) = &out {
            match s.get("a") {
                Some(Value::Array(items)) => {
                    // The finished array is a slice, exact by type; a
                    // reservation sized by `n` would not have allocated.
                    assert_eq!(items.len(), 2);
                }
                other => panic!("{attrs}: {other:?}"),
            }
        }
    }
}

/// Runs `f` on a thread whose stack fits the recursion of the tree walk
/// and of dropping and comparing a deeply nested value (the reader
/// itself does not recurse).
fn with_deep_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("the deep-stack thread panicked");
}

#[test]
fn a_ten_thousand_deep_nest_decodes_alike() {
    with_deep_stack(|| {
        let r = adhoc_registry();
        let depth = 10_000;
        let mut xml = String::from("<Envelope><Body><opResponse><return>");
        for _ in 0..depth {
            xml.push_str("<n>");
        }
        xml.push_str("leaf");
        for _ in 0..depth {
            xml.push_str("</n>");
        }
        xml.push_str("</return></opResponse></Body></Envelope>");
        // Untyped all the way down, and under a declared (recursive)
        // array type.
        for expected in [strukt("Unregistered"), array_of(strukt("Node"))] {
            let out = decode_all_ways(&xml, &expected, &r, "deep nest").unwrap();
            let mut v = out.as_return().unwrap();
            let mut levels = 0;
            while let Some(next) = match v {
                Value::Struct(s) => s.fields().next().map(|(_, v)| v),
                Value::Array(items) => items.first(),
                _ => None,
            } {
                v = next;
                levels += 1;
            }
            assert_eq!(levels, depth);
            assert_eq!(v, &Value::string("leaf"));
        }
    });
}

#[test]
fn a_mebibyte_of_base64_decodes_alike() {
    let r = adhoc_registry();
    let data: Vec<u8> = (0..786_432u32).map(|i| (i * 31 + i / 251) as u8).collect();
    let enc = base64::encode(&data);
    assert_eq!(enc.len(), 1 << 20);
    // MIME-style lines, CRLF and a trailing newline.
    let mut lines = String::with_capacity(enc.len() + enc.len() / 38);
    for (i, chunk) in enc.as_bytes().chunks(76).enumerate() {
        lines.push_str(std::str::from_utf8(chunk).unwrap());
        lines.push_str(if i % 2 == 0 { "\n" } else { "\r\n" });
    }
    let wrap = |body: &str| {
        format!(
            "<Envelope><Body><opResponse><return>{body}</return></opResponse></Body></Envelope>"
        )
    };
    let out = decode_all_ways(&wrap(&lines), &FieldType::Bytes, &r, "1 MiB").unwrap();
    assert_eq!(out.as_return().unwrap().as_bytes(), Some(&data[..]));

    // Damage near the end: each fails, the same way every way.
    let tail = lines.trim_end().len();
    for (damaged, message) in [
        (format!("{}=", &lines[..tail]), "truncated base64 quantum"),
        (format!("{}====", &lines[..tail]), "too much base64 padding"),
        (lines[..tail - 1].to_string(), "truncated base64 quantum"),
        (
            format!("{}==\nQUJD", &lines[..tail - 2]),
            "base64 data after padding",
        ),
        (
            format!("{}*{}", &lines[..tail - 5], &lines[tail - 4..]),
            "invalid base64 character '*'",
        ),
    ] {
        let err = decode_all_ways(&wrap(&damaged), &FieldType::Bytes, &r, message).unwrap_err();
        assert!(err.contains(message), "{message}: {err}");
    }
}

/// Operations whose parameters cover every kind the registries have.
fn operations(google: bool) -> Vec<OperationDescriptor> {
    let param = |name: &str, ty: FieldType| FieldDescriptor::new(name, ty);
    let op =
        |name: &str, params| OperationDescriptor::new("urn:t", name, params, FieldType::String);
    let mut ops = vec![
        op(
            "scalars",
            vec![
                param("key", FieldType::String),
                param("start", FieldType::Int),
                param("big", FieldType::Long),
                param("ratio", FieldType::Double),
                param("filter", FieldType::Bool),
                param("blob", FieldType::Bytes),
            ],
        ),
        op("nothing", vec![]),
    ];
    ops.push(match google {
        true => op(
            "containers",
            vec![
                param("result", strukt("GoogleSearchResult")),
                param("categories", array_of(strukt("DirectoryCategory"))),
                param("q", FieldType::String),
            ],
        ),
        false => op(
            "containers",
            vec![
                param("node", strukt("Node")),
                param("grid", array_of(array_of(FieldType::Int))),
                param("loose", strukt("Unregistered")),
            ],
        ),
    });
    ops
}

/// One call to `op`: its parameters, some missing, sometimes shuffled or
/// repeated, now and then an undeclared one; a `Header` sometimes.
fn request_envelope(seed: u64, registry: &TypeRegistry, op: &OperationDescriptor) -> String {
    let mut w = Writer {
        rng: Rng::new(seed),
        registry,
        out: String::new(),
    };
    if w.rng.one_in(3) {
        w.out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    }
    w.out
        .push_str("<soapenv:Envelope xmlns:soapenv=\"http://schemas.xmlsoap.org/soap/envelope/\">");
    if w.rng.one_in(4) {
        w.out
            .push_str("<soapenv:Header><auth><token>t</token></auth></soapenv:Header>");
    }
    w.gap();
    w.out.push_str("<soapenv:Body>");
    w.gap();
    w.out
        .push_str(&format!("<ns1:{} xmlns:ns1=\"urn:t\">", op.name));
    let mut order: Vec<usize> = (0..op.params.len()).filter(|_| !w.rng.one_in(12)).collect();
    if w.rng.one_in(3) {
        for i in (1..order.len()).rev() {
            order.swap(i, w.rng.below(i + 1));
        }
    }
    if !order.is_empty() && w.rng.one_in(5) {
        let again = order[w.rng.below(order.len())];
        order.insert(w.rng.below(order.len() + 1), again);
    }
    let unknown_at = w.rng.one_in(3).then(|| w.rng.below(order.len() + 1));
    for i in 0..=order.len() {
        if unknown_at == Some(i) {
            w.untyped("extra", 2);
        }
        if let Some(slot) = order.get(i) {
            let p = &op.params[*slot];
            w.element(&p.name, Some(&p.field_type), 3);
        }
    }
    w.gap();
    w.out.push_str(&format!("</ns1:{}>", op.name));
    w.gap();
    w.out.push_str("</soapenv:Body></soapenv:Envelope>");
    w.out
}

/// The tree walk `parse_request` replaced: parse the whole document,
/// then convert each child of the call under its declared type.
fn request_by_tree(
    xml: &str,
    operations: &[OperationDescriptor],
    registry: &TypeRegistry,
) -> Result<RpcRequest, SoapError> {
    let doc = Document::parse(xml)?;
    if !envelope::is_envelope(&doc.root.name) {
        return Err(SoapError::encoding("root element is not Envelope"));
    }
    let body = doc
        .root
        .child_elements()
        .find(|e| envelope::is_body(&e.name))
        .ok_or_else(|| SoapError::encoding("missing Body"))?;
    let call = body
        .child_elements()
        .next()
        .ok_or_else(|| SoapError::encoding("empty Body"))?;
    let op_name = call.name.local_part();
    let descriptor = operations
        .iter()
        .find(|o| o.name == op_name)
        .ok_or_else(|| SoapError::encoding(format!("unknown operation '{op_name}'")))?;
    let mut request = RpcRequest::new(descriptor.namespace.clone(), descriptor.name.clone());
    for param in call.child_elements() {
        let name = param.name.local_part();
        let expected = descriptor.param(name).map(|p| &p.field_type);
        let value = element_to_value(param, expected, registry)?;
        request.params.push((name.to_string(), value));
    }
    descriptor.check_request(&request)?;
    Ok(request)
}

fn error_kind(e: &SoapError) -> &'static str {
    match e {
        SoapError::Xml(_) => "xml",
        SoapError::Encoding(_) => "encoding",
        SoapError::Fault(_) => "fault",
        SoapError::Model(_) => "model",
    }
}

#[test]
fn generated_requests_decode_as_the_tree_walk_does() {
    let (mut requests, mut errors) = (0, 0);
    for (google, registry) in [(true, google_registry()), (false, adhoc_registry())] {
        let ops = operations(google);
        for seed in 0..CASES {
            let op = &ops[seed as usize % ops.len()];
            let xml = request_envelope(seed, &registry, op);
            let what = format!("seed {seed} ({}, google={google})", op.name);
            let streamed = parse_request(&xml, &ops, &registry).map_err(|e| e.to_string());
            let walked = request_by_tree(&xml, &ops, &registry).map_err(|e| e.to_string());
            assert_eq!(streamed, walked, "{what}\n{xml}");
            match streamed {
                Ok(_) => requests += 1,
                Err(_) => errors += 1,
            }
        }
    }
    assert!(
        requests > errors * 2,
        "{requests} requests, {errors} errors"
    );
    assert!(errors > 0, "no generated request exercised an error");
}

#[test]
fn malformed_requests_fail_alike() {
    let registry = adhoc_registry();
    let ops = operations(false);
    let env = |inner: &str| {
        format!(
            "<e:Envelope xmlns:e=\"http://schemas.xmlsoap.org/soap/envelope/\">{inner}</e:Envelope>"
        )
    };
    let valid = env(
        "<e:Body><ns1:scalars xmlns:ns1=\"urn:t\"><key>k</key><start>1</start>\
         <big>2</big><ratio>0.5</ratio><filter>true</filter><blob>AQID</blob>\
         </ns1:scalars></e:Body>",
    );
    let mut cases = vec![
        ("no Body".to_string(), env("")),
        ("only a Header".into(), env("<e:Header><x/></e:Header>")),
        ("empty Body".into(), env("<e:Body></e:Body>")),
        ("empty Body element".into(), env("<e:Body/>")),
        (
            "unknown operation".into(),
            env("<e:Body><ns1:doOther/></e:Body>"),
        ),
        (
            "missing parameter".into(),
            env("<e:Body><scalars><key>k</key></scalars></e:Body>"),
        ),
        ("not an envelope".into(), "<notsoap/>".into()),
        ("garbage".into(), "<<<".into()),
        ("empty".into(), String::new()),
        (
            "bad value, then truncated".into(),
            env("<e:Body><scalars><start>many</start>").replace("</e:Envelope>", ""),
        ),
    ];
    // Every prefix of a valid request is truncated XML.
    for cut in (1..valid.len()).filter(|&i| valid.is_char_boundary(i)) {
        cases.push((format!("truncated at {cut}"), valid[..cut].to_string()));
    }
    assert!(parse_request(&valid, &ops, &registry).is_ok());
    for (what, xml) in cases {
        let streamed = parse_request(&xml, &ops, &registry).unwrap_err();
        let walked = request_by_tree(&xml, &ops, &registry).unwrap_err();
        assert_eq!(
            error_kind(&streamed),
            error_kind(&walked),
            "{what}: {streamed} / {walked}\n{xml}"
        );
    }
    // The structural errors say what is wrong, as the tree walk did.
    for (inner, message) in [
        ("", "missing Body"),
        ("<e:Body></e:Body>", "empty Body"),
        (
            "<e:Body><ns1:doOther/></e:Body>",
            "unknown operation 'doOther'",
        ),
    ] {
        let e = parse_request(&env(inner), &ops, &registry).unwrap_err();
        assert_eq!(e.to_string(), format!("soap encoding error: {message}"));
    }
}
