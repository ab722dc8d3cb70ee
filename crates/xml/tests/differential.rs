//! Differential harness for the reader.
//!
//! 1. **Fixpoint** — writer-built documents survive parse → rewrite,
//!    and the rewritten form is a *fixpoint*: rewriting it again yields
//!    byte-identical output. This pins the reader/writer pair as a
//!    canonicalizer, not just an approximate round-trip.
//! 2. **Oracle** — the three front ends (`read_sequence`, `parse_into`,
//!    `read_sequence_into`) share one scanner behind different sinks,
//!    so agreeing with each other proves little. Each is compared, on
//!    accept/reject and on events, with the naive parser in
//!    `reference/`, which shares no code with them. Among themselves
//!    they must also agree on the unmerged call log and on the error
//!    message.
//! 3. **Corpora** — hand-curated malformed inputs (unbalanced tags, bad
//!    entities, truncated CDATA, DOCTYPE), valid documents, writer-built
//!    documents and SOAP-shaped envelopes go through (2); non-UTF-8
//!    bytes must fail cleanly.

mod probe;
mod reference;

use probe::Probe;
use wsrc_xml::reader::XmlReader;
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

/// The three library front ends over the same input: `read_sequence`
/// (arena, read back through `iter()`), `parse_into` a [`Probe`] (push)
/// and `read_sequence_into` a [`Probe`] (arena + push in one scan).
/// Returns the call log or the error message they all agree on.
fn all_frontends(input: &str) -> Result<Vec<String>, String> {
    let arena = XmlReader::new(input).read_sequence();
    let mut pushed = Probe::default();
    let push = XmlReader::new(input).parse_into(&mut pushed);
    let mut fed = Probe::default();
    let tee = XmlReader::new(input).read_sequence_into(&mut fed);
    match (arena, push, tee) {
        (Ok(seq), Ok(()), Ok(recorded)) => {
            let mut iterated = Probe::default();
            for event in seq.iter() {
                iterated.event(event).unwrap();
            }
            assert_eq!(recorded, seq, "tee arena != arena for {input:?}");
            assert_eq!(fed.log, iterated.log, "tee handler != arena for {input:?}");
            assert_eq!(pushed.log, iterated.log, "push != arena for {input:?}");
            Ok(iterated.log)
        }
        (Err(a), Err(p), Err(t)) => {
            let a = a.to_string();
            assert_eq!(a, p.to_string(), "push error != arena error");
            assert_eq!(a, t.to_string(), "tee error != arena error");
            Err(a)
        }
        (arena, push, tee) => panic!(
            "front ends disagree on success for {input:?}: arena={:?} push={} tee={}",
            arena.map(|_| ()),
            push.is_ok(),
            tee.is_ok()
        ),
    }
}

/// Joins adjacent `characters:` lines: a CDATA section and the text
/// around it are separate calls but one run to the reference.
fn merged(log: Vec<String>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in log {
        match (line.strip_prefix("characters: "), out.last_mut()) {
            (Some(text), Some(last)) if last.starts_with("characters: ") => last.push_str(text),
            _ => out.push(line),
        }
    }
    out
}

/// Runs `input` through the front ends and the reference and checks
/// they agree; returns whether it was accepted.
fn agrees_with_reference(input: &str) -> bool {
    match (all_frontends(input), reference::parse(input)) {
        (Ok(log), Some(expected)) => {
            assert_eq!(merged(log), expected, "events differ for {input:?}");
            true
        }
        (Err(msg), None) => {
            assert!(!msg.is_empty(), "error for {input:?} must carry a message");
            false
        }
        (library, reference) => panic!(
            "library and reference disagree on {input:?}: library={library:?} reference={reference:?}"
        ),
    }
}

/// Every entry must yield a clean error (never a panic).
const MALFORMED: &[&str] = &[
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
    // A reference is digits only; Rust's integer parser takes a sign.
    "<a>&#+65;</a>",
    "<a b=\"&#x+41;\"/>",
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
    "\u{a0}<a/>", // a Unicode space is text, not XML whitespace
    // Malformed names and attributes.
    "<1a/>",
    "<a:b:c/>",
    "<a foo>",
    "<a foo=bar/>",
    "<a foo=\"unterminated>",
    "<a foo=\"x\" foo=\"y\"/>",
    "<a <b/>/>",
];

const VALID: &[&str] = &[
    "<a/>",
    "<a>text</a>",
    "<a b=\"1\" c=\"2\">x<d/>y</a>",
    "<s:Envelope xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope/\">\
     <s:Body><r xsi:type=\"xsd:string\">ok &amp; well</r></s:Body></s:Envelope>",
    "<a><!-- comment --><?pi data?><![CDATA[<raw>&stuff;]]></a>",
    "<a>&#x65;&#101;&lt;&gt;&quot;&apos;&amp;</a>",
    "<\u{e9}l\u{e9}ment attr=\"\u{2603}\">\u{1f4a9}</\u{e9}l\u{e9}ment>",
];

/// The shapes the request path parses: prefixed names, `xsi:type`,
/// `SOAP-ENC:arrayType`, entities in text and attribute values, a
/// ten-item array, CDATA, a leading XML declaration.
fn soap_shaped_corpus() -> Vec<String> {
    const OPEN: &str = "<SOAP-ENV:Envelope \
        xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\" \
        xmlns:SOAP-ENC=\"http://schemas.xmlsoap.org/soap/encoding/\" \
        xmlns:xsi=\"http://www.w3.org/1999/XMLSchema-instance\" \
        xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\" \
        SOAP-ENV:encodingStyle=\"http://schemas.xmlsoap.org/soap/encoding/\"><SOAP-ENV:Body>";
    const CLOSE: &str = "</SOAP-ENV:Body></SOAP-ENV:Envelope>";
    let items: String = (0..10)
        .map(|i| {
            format!(
                "<item xsi:type=\"ns1:ResultElement\">\
                 <URL xsi:type=\"xsd:string\">http://example.org/?q=a&amp;n={i}</URL>\
                 <title xsi:type=\"xsd:string\">&lt;b&gt;hit&lt;/b&gt; &#35;{i}</title>\
                 <cachedSize xsi:type=\"xsd:string\">{i}k</cachedSize></item>"
            )
        })
        .collect();
    vec![
        format!(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n{OPEN}\
             <ns1:doGoogleSearchResponse xmlns:ns1=\"urn:GoogleSearch\">\
             <return xsi:type=\"ns1:GoogleSearchResult\">\
             <resultElements xsi:type=\"SOAP-ENC:Array\" \
             SOAP-ENC:arrayType=\"ns1:ResultElement[10]\">{items}</resultElements>\
             <searchQuery xsi:type=\"xsd:string\">a &amp; b</searchQuery>\
             <documentFiltering xsi:type=\"xsd:boolean\">false</documentFiltering>\
             </return></ns1:doGoogleSearchResponse>{CLOSE}"
        ),
        format!(
            "{OPEN}<ns1:doSpellingSuggestionResponse xmlns:ns1=\"urn:GoogleSearch\">\
             <return xsi:type=\"xsd:string\" note=\"a &lt; b &amp;&amp; &quot;c&quot; &#x3e; d\">\
             before <![CDATA[<raw> & unescaped]]> after</return>\
             </ns1:doSpellingSuggestionResponse>{CLOSE}"
        ),
        format!(
            "<?xml version='1.0'?>{OPEN}\n  <SOAP-ENV:Fault>\n    \
             <faultcode>SOAP-ENV:Client</faultcode>\n    \
             <faultstring>it&apos;s &quot;broken&quot;</faultstring>\n    \
             <detail xsi:nil='true'/>\n  </SOAP-ENV:Fault>\n{CLOSE}\n"
        ),
        format!(
            "{OPEN}<ns1:doGetCachedPageResponse xmlns:ns1=\"urn:GoogleSearch\">\
             <return xsi:type=\"xsd:base64Binary\">PGh0bWw+aGk8L2h0bWw+\n</return>\
             </ns1:doGetCachedPageResponse>{CLOSE}"
        ),
    ]
}

/// The oracle has teeth of its own: with no library involved it
/// rejects all of the malformed corpus and accepts all of the valid.
#[test]
fn reference_alone_separates_the_corpora() {
    assert_eq!(MALFORMED.len(), 39);
    for input in MALFORMED {
        assert_eq!(reference::parse(input), None, "{input:?} must be rejected");
    }
    for input in VALID {
        assert!(reference::parse(input).is_some(), "{input:?} must parse");
    }
    assert_eq!(
        reference::parse("<doc><para>Hello, <![CDATA[world]]>!</para></doc>").unwrap(),
        [
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
fn malformed_corpus_fails_cleanly_and_identically() {
    for input in MALFORMED {
        assert!(!agrees_with_reference(input), "{input:?} must fail");
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
            Ok(r) => match r.read_sequence() {
                Err(e) => e,
                Ok(seq) => panic!("{input:?} must fail; parsed {} events", seq.len()),
            },
        };
        assert!(
            !err.to_string().is_empty(),
            "error for {input:?} must carry a message"
        );
    }
}

#[test]
fn frontends_agree_with_the_reference_on_valid_documents() {
    for input in VALID {
        assert!(agrees_with_reference(input), "{input:?} must parse");
    }
    for doc in soap_shaped_corpus() {
        assert!(agrees_with_reference(&doc), "{doc} must parse");
    }
    for seed in 0..256u64 {
        let doc = writer_doc(&mut Rng::new(seed));
        assert!(
            agrees_with_reference(&doc),
            "seed {seed}: writer doc must parse\n{doc}"
        );
    }
}
