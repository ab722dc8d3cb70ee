//! Differential harness for the zero-alloc reader.
//!
//! Two halves:
//!
//! 1. **Fixpoint** — writer-built documents survive parse → rewrite,
//!    and the rewritten form is a *fixpoint*: rewriting it again yields
//!    byte-identical output. This pins the reader/writer pair as a
//!    canonicalizer, not just an approximate round-trip.
//! 2. **Malformed corpus** — a hand-curated set of broken inputs
//!    (unbalanced tags, bad entities, truncated CDATA, non-UTF-8
//!    bytes, DOCTYPE) must produce clean `XmlError`s — never panics —
//!    and every parsing front end (`read_sequence`, `parse_into`,
//!    `next_event`, `read_sequence_into`) must agree on success, events,
//!    and error message, since they share one scanner behind different
//!    event sinks.

use wsrc_xml::event::SaxEvent;
use wsrc_xml::reader::XmlReader;
use wsrc_xml::sax::Recorder;
use wsrc_xml::writer::{events_to_string, XmlWriter};

/// Deterministic xorshift64* generator (same scheme as proptests.rs:
/// the environment has no proptest crate, so failures reproduce by
/// seed).
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
}

fn name(rng: &mut Rng) -> String {
    const FIRST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_";
    const REST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-";
    let mut s = String::new();
    s.push(FIRST[rng.below(FIRST.len())] as char);
    for _ in 0..rng.below(12) {
        s.push(REST[rng.below(REST.len())] as char);
    }
    s
}

fn text(rng: &mut Rng) -> String {
    let specials = ['&', '<', '>', '"', '\'', '\u{a0}', '日'];
    (0..rng.below(30))
        .map(|_| {
            if rng.below(4) == 0 {
                specials[rng.below(specials.len())]
            } else {
                (b' ' + rng.below(95) as u8) as char
            }
        })
        .collect()
}

/// Builds a random document through the writer: nested elements,
/// attributes, text, comments, the occasional PI.
fn writer_doc(rng: &mut Rng) -> String {
    let mut w = XmlWriter::new();
    let mut depth = 0usize;
    w.start(name(rng)).unwrap();
    depth += 1;
    for _ in 0..rng.below(40) {
        match rng.below(6) {
            0 if depth < 6 => {
                w.start(name(rng)).unwrap();
                let mut seen = Vec::new();
                for _ in 0..rng.below(3) {
                    let n = name(rng);
                    if !seen.contains(&n) {
                        w.attr(&n, text(rng)).unwrap();
                        seen.push(n);
                    }
                }
                depth += 1;
            }
            1 if depth > 1 => {
                w.end().unwrap();
                depth -= 1;
            }
            2 => {
                w.text(text(rng)).unwrap();
            }
            3 => {
                // Comments must not contain `--`.
                w.comment(text(rng).replace('-', "_")).unwrap();
            }
            _ => {
                w.element_with_text(name(rng), text(rng)).unwrap();
            }
        }
    }
    while depth > 0 {
        w.end().unwrap();
        depth -= 1;
    }
    w.finish().unwrap()
}

/// Writer output parses, and rewrite reaches a fixpoint in one step:
/// rewrite(parse(rewrite(parse(doc)))) == rewrite(parse(doc)).
#[test]
fn writer_parse_rewrite_reaches_fixpoint() {
    for seed in 0..256u64 {
        let mut rng = Rng::new(seed);
        let doc = writer_doc(&mut rng);
        let seq1 = XmlReader::new(&doc)
            .read_sequence()
            .unwrap_or_else(|e| panic!("seed {seed}: writer output must parse: {e}\n{doc}"));
        let rewritten = events_to_string(seq1.iter()).unwrap();
        let seq2 = XmlReader::new(&rewritten)
            .read_sequence()
            .unwrap_or_else(|e| panic!("seed {seed}: rewritten output must parse: {e}"));
        assert_eq!(seq1, seq2, "seed {seed}: rewrite changed the event stream");
        let rewritten2 = events_to_string(seq2.iter()).unwrap();
        assert_eq!(
            rewritten, rewritten2,
            "seed {seed}: rewrite is not a fixpoint"
        );
    }
}

/// Every front end over the same input: `read_sequence` (arena),
/// `parse_into` a [`Recorder`] (push), the `next_event` pull loop
/// (owned) and `read_sequence_into` a [`Recorder`] (arena + push in one
/// scan). Returns the owned event stream or the error message.
fn all_frontends(input: &str) -> Result<Vec<SaxEvent>, String> {
    let arena = XmlReader::new(input).read_sequence();
    let mut rec = Recorder::new();
    let push = XmlReader::new(input).parse_into(&mut rec);
    let mut pull_events = Vec::new();
    let mut reader = XmlReader::new(input);
    let pull = loop {
        match reader.next_event() {
            Ok(Some(e)) => pull_events.push(e),
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    // The recording pass that also feeds a handler: both of its outputs
    // are one more view of the same scan.
    let mut fed = Recorder::new();
    let tee = XmlReader::new(input).read_sequence_into(&mut fed);
    match (&arena, tee) {
        (Ok(seq), Ok(recorded)) => {
            assert_eq!(&recorded, seq, "tee arena != arena");
            assert_eq!(fed.sequence(), seq, "tee handler != arena");
        }
        (Err(a), Err(t)) => assert_eq!(a.to_string(), t.to_string(), "tee error != arena error"),
        (a, t) => panic!(
            "read_sequence and read_sequence_into disagree on success for {input:?}: {} vs {}",
            a.is_ok(),
            t.is_ok()
        ),
    }
    match (arena, push, pull) {
        (Ok(seq), Ok(()), Ok(())) => {
            let owned = seq.to_owned_events();
            assert_eq!(owned, rec.sequence().to_owned_events(), "push != arena");
            assert_eq!(owned, pull_events, "pull != arena");
            Ok(owned)
        }
        (Err(a), Err(p), Err(q)) => {
            let (a, p, q) = (a.to_string(), p.to_string(), q.to_string());
            assert_eq!(a, p, "push error != arena error");
            assert_eq!(a, q, "pull error != arena error");
            Err(a)
        }
        (arena, push, pull) => panic!(
            "front ends disagree on success for {input:?}: \
             arena={:?} push={:?} pull={:?}",
            arena.map(|_| ()),
            push.is_ok(),
            pull.is_ok()
        ),
    }
}

/// Hand-curated malformed corpus: every entry must yield a clean error
/// (never a panic), identical across all three front ends.
#[test]
fn malformed_corpus_fails_cleanly_and_identically() {
    let corpus: &[&str] = &[
        // Unbalanced / mismatched tags.
        "<a>",
        "</a>",
        "<a><b></a>",
        "<a></b>",
        "<a><b><c></b></c></a>",
        "<a/><a/>",
        "<a></a",
        "<a",
        "<a foo=\"1\"",
        // Bad entities.
        "<a>&unknown;</a>",
        "<a>&;</a>",
        "<a>&</a>",
        "<a>&amp</a>",
        "<a>&#xzz;</a>",
        "<a>&#;</a>",
        "<a>&#x110000;</a>",
        "<a>&#xD800;</a>",
        "<a b=\"&nope;\"/>",
        // Truncated CDATA / comments / PIs.
        "<a><![CDATA[unterminated",
        "<a><![CDATA[almost]]",
        "<a><![CDA",
        "<a><!-- no end",
        "<a><?pi no end",
        // DOCTYPE is rejected outright (SOAP forbids DTDs).
        "<!DOCTYPE html><a/>",
        "<!doctype html><a/>",
        "<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>",
        // Junk before/after the root.
        "text<a/>",
        "<a/>trailing",
        "<a/><!-- ok --><b/>",
        // Malformed names and attributes.
        "<1a/>",
        "<a:b:c/>",
        "<a foo>",
        "<a foo=bar/>",
        "<a foo=\"unterminated>",
        "<a foo=\"x\" foo=\"y\"/>",
        "<a <b/>/>",
    ];
    for input in corpus {
        match all_frontends(input) {
            Err(msg) => assert!(!msg.is_empty(), "error for {input:?} must carry a message"),
            Ok(events) => panic!("{input:?} must fail; parsed {} events", events.len()),
        }
    }
}

/// Non-UTF-8 byte sequences through `from_bytes`: validation errors,
/// never panics, and the error points at UTF-8 rather than tag soup.
#[test]
fn non_utf8_bytes_fail_cleanly() {
    let corpus: &[&[u8]] = &[
        b"<a>\xff</a>",
        b"<a>\xc3</a>",          // truncated 2-byte sequence
        b"<a>\xe2\x82</a>",      // truncated 3-byte sequence
        b"<a>\xf0\x9f\x92</a>",  // truncated 4-byte sequence
        b"<a>\xc0\xaf</a>",      // overlong encoding
        b"<a>\xed\xa0\x80</a>",  // UTF-8-encoded surrogate
        b"<a \xffb=\"1\"/>",     // in markup, not text
        b"\xef\xbb\xbf\xff<a/>", // garbage after a BOM
    ];
    for input in corpus {
        let err = match XmlReader::from_bytes(input) {
            Err(e) => e,
            Ok(r) => match r.read_all() {
                Err(e) => e,
                Ok(evs) => panic!("{input:?} must fail; parsed {} events", evs.len()),
            },
        };
        assert!(
            !err.to_string().is_empty(),
            "error for {input:?} must carry a message"
        );
    }
}

/// The same differential harness over *valid* documents: all three
/// front ends must produce identical event streams (exercises the
/// borrowed → owned bridge against the arena path).
#[test]
fn frontends_agree_on_valid_documents() {
    let corpus: &[&str] = &[
        "<a/>",
        "<a>text</a>",
        "<a b=\"1\" c=\"2\">x<d/>y</a>",
        "<s:Envelope xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope/\">\
         <s:Body><r xsi:type=\"xsd:string\">ok &amp; well</r></s:Body></s:Envelope>",
        "<a><!-- comment --><?pi data?><![CDATA[<raw>&stuff;]]></a>",
        "<a>&#x65;&#101;&lt;&gt;&quot;&apos;&amp;</a>",
        "<\u{e9}l\u{e9}ment attr=\"\u{2603}\">\u{1f4a9}</\u{e9}l\u{e9}ment>",
    ];
    for input in corpus {
        let events =
            all_frontends(input).unwrap_or_else(|e| panic!("{input:?} must parse, got error: {e}"));
        assert!(
            events.len() >= 3,
            "{input:?} must produce at least start/element/end"
        );
    }
    let mut rng = Rng::new(42);
    for seed in 0..64u64 {
        let mut doc_rng = Rng::new(seed + rng.next());
        let doc = writer_doc(&mut doc_rng);
        if let Err(e) = all_frontends(&doc) {
            panic!("seed {seed}: writer doc must parse, got error: {e}");
        }
    }
}
