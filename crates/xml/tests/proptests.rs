//! Randomized round-trip tests for the XML substrate: generated documents
//! survive write→parse and parse→rewrite round-trips, and replaying a
//! recorded sequence is equivalent to direct parsing.
//!
//! The build environment is offline (no `proptest`), so these use a
//! hand-rolled deterministic xorshift generator with fixed seeds —
//! failures reproduce exactly by seed.

mod probe;

use probe::Probe;
use wsrc_xml::dom::{Document, Element, Node};
use wsrc_xml::escape::{escape_attribute, escape_text, unescape};
use wsrc_xml::reader::XmlReader;
use wsrc_xml::SaxEventRef;

const CASES: u64 = 256;

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

    fn pick<T: Copy>(&mut self, choices: &[T]) -> T {
        choices[self.below(choices.len())]
    }
}

/// Text without NUL or other control chars XML 1.0 forbids; biased
/// toward the characters that need escaping.
fn xml_text(rng: &mut Rng) -> String {
    let specials = ['&', '<', '>', '"', '\'', '\u{a0}', '\u{2ff}', '日'];
    let n = rng.below(40);
    (0..n)
        .map(|_| {
            if rng.below(4) == 0 {
                rng.pick(&specials)
            } else {
                (b' ' + rng.below(95) as u8) as char
            }
        })
        .collect()
}

fn xml_name(rng: &mut Rng) -> String {
    const FIRST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_";
    const REST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-";
    let mut s = String::new();
    s.push(FIRST[rng.below(FIRST.len())] as char);
    for _ in 0..rng.below(9) {
        s.push(REST[rng.below(REST.len())] as char);
    }
    s
}

fn arb_element(rng: &mut Rng, depth: u32) -> Element {
    let mut e = Element::new(&xml_name(rng));
    for _ in 0..rng.below(3) {
        let an = xml_name(rng);
        if e.attribute(&an).is_none() {
            e = e.with_attr(an, xml_text(rng));
        }
    }
    let text = xml_text(rng);
    if !text.is_empty() {
        e = e.with_text(text);
    }
    if depth > 0 {
        for _ in 0..rng.below(4) {
            e = e.with_child(arb_element(rng, depth - 1));
        }
    }
    e
}

fn assert_tree_equivalent(a: &Element, b: &Element) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.attributes, b.attributes);
    assert_eq!(
        a.children.len(),
        b.children.len(),
        "children differ for <{}>",
        a.name
    );
    for (ca, cb) in a.children.iter().zip(&b.children) {
        match (ca, cb) {
            (Node::Element(ea), Node::Element(eb)) => assert_tree_equivalent(ea, eb),
            (other_a, other_b) => assert_eq!(other_a, other_b),
        }
    }
}

#[test]
fn escape_text_roundtrips() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let s = xml_text(&mut rng);
        let escaped = escape_text(&s).into_owned();
        let unescaped = unescape(&escaped).unwrap().into_owned();
        assert_eq!(unescaped, s, "seed {seed}");
    }
}

#[test]
fn escape_attribute_roundtrips() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 1000);
        let s = xml_text(&mut rng);
        let escaped = escape_attribute(&s).into_owned();
        let unescaped = unescape(&escaped).unwrap().into_owned();
        assert_eq!(unescaped, s, "seed {seed}");
    }
}

#[test]
fn dom_write_parse_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 2000);
        let root = arb_element(&mut rng, 3);
        let xml = root.to_xml();
        let doc = Document::parse(&xml).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_tree_equivalent(&doc.root, &root);
    }
}

#[test]
fn sax_record_equals_direct_parse() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 3000);
        let root = arb_element(&mut rng, 3);
        let xml = root.to_xml();
        let mut replayed = Probe::default();
        let recorded = XmlReader::new(&xml).read_sequence().unwrap();
        recorded.replay(&mut replayed).unwrap();
        let mut direct = Probe::default();
        XmlReader::new(&xml).parse_into(&mut direct).unwrap();
        assert_eq!(replayed.log, direct.log, "seed {seed}");
    }
}

#[test]
fn replayed_events_rebuild_same_document() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 4000);
        let root = arb_element(&mut rng, 3);
        let xml = root.to_xml();
        let seq = XmlReader::new(&xml).read_sequence().unwrap();
        let from_events = Document::from_events(&seq).unwrap();
        let from_text = Document::parse(&xml).unwrap();
        assert_eq!(from_events, from_text, "seed {seed}");
    }
}

#[test]
fn rewritten_xml_reparses_identically() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 5000);
        let root = arb_element(&mut rng, 3);
        let xml = root.to_xml();
        let seq = XmlReader::new(&xml).read_sequence().unwrap();
        let rewritten = wsrc_xml::writer::events_to_string(seq.iter()).unwrap();
        let seq2 = XmlReader::new(&rewritten).read_sequence().unwrap();
        assert_eq!(seq, seq2, "seed {seed}");
    }
}

/// `SaxEventSequence::approximate_size` must track real heap use within a
/// fixed factor: never below the payload bytes actually retained, never
/// above payload plus a bounded per-event/per-attribute overhead.
///
/// The payload ground truth is computed independently of the accounting
/// under test: distinct name strings charged once (the interning
/// contract), text/comment/PI content and attribute values at byte
/// length.
#[test]
fn arena_size_within_fixed_factor_of_heap_use() {
    use std::collections::HashSet;

    // Generous fixed bounds on the arena's per-record bookkeeping; the
    // test fails if accounting drifts past them, i.e. stops being
    // "payload plus a constant per record".
    const PER_RECORD: usize = 192;
    const BASE: usize = 1024;

    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 8000);
        let root = arb_element(&mut rng, 3);
        let xml = root.to_xml();
        let seq = XmlReader::new(&xml).read_sequence().unwrap();

        let mut names: HashSet<String> = HashSet::new();
        let mut payload = 0usize;
        let mut attr_count = 0usize;
        for event in seq.iter() {
            match event {
                SaxEventRef::StartElement { name, attributes } => {
                    names.insert(name.prefix().to_string());
                    names.insert(name.local_part().to_string());
                    for a in attributes {
                        names.insert(a.name.prefix().to_string());
                        names.insert(a.name.local_part().to_string());
                        payload += a.value.len();
                        attr_count += 1;
                    }
                }
                SaxEventRef::EndElement { name } => {
                    names.insert(name.prefix().to_string());
                    names.insert(name.local_part().to_string());
                }
                SaxEventRef::Characters(s) | SaxEventRef::Comment(s) => payload += s.len(),
                SaxEventRef::ProcessingInstruction { target, data } => {
                    payload += target.len() + data.len()
                }
                _ => {}
            }
        }
        payload += names.iter().map(String::len).sum::<usize>();

        let approx = seq.approximate_size();
        assert!(
            approx >= payload,
            "seed {seed}: approximate_size {approx} undercounts payload {payload}"
        );
        let budget = payload + PER_RECORD * (seq.len() + attr_count) + BASE;
        assert!(
            approx <= budget,
            "seed {seed}: approximate_size {approx} exceeds budget {budget} \
             ({} events, {attr_count} attributes, payload {payload})",
            seq.len()
        );
    }
}

/// Interned names are charged once per symbol table, not once per event:
/// adding more elements with an already seen (long) name grows the
/// sequence by the fixed per-event width only, and the arena accounting
/// stays strictly below an accounting that charges the name on every
/// event.
#[test]
fn interned_names_charged_once_per_table() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(seed + 9000);
        // A name long enough that per-event charging would dominate.
        let name: String = std::iter::repeat_n("LongName", 24 + rng.below(16)).collect();
        let few = 8;
        let many = few + 16 + rng.below(48);
        let doc = |k: usize| {
            let mut s = String::from("<root>");
            for _ in 0..k {
                s.push('<');
                s.push_str(&name);
                s.push_str("/>");
            }
            s.push_str("</root>");
            s
        };

        let seq_few = XmlReader::new(&doc(few)).read_sequence().unwrap();
        let seq_many = XmlReader::new(&doc(many)).read_sequence().unwrap();

        // Each extra element adds two events (start + end) but zero new
        // name bytes; per-element growth must stay under one name copy.
        let growth = seq_many.approximate_size() - seq_few.approximate_size();
        let per_element = growth / (many - few);
        assert!(
            per_element < name.len(),
            "seed {seed}: {per_element} bytes per repeated <{}…> element \
             suggests the name is charged per event, not per table",
            &name[..8]
        );

        // Charging the name on every start/end would cost at least
        // this; the arena must come in strictly below it.
        let per_event = 2 * many * name.len();
        assert!(
            seq_many.approximate_size() < per_event,
            "seed {seed}: arena {} not below per-event {per_event}",
            seq_many.approximate_size()
        );
    }
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 6000);
        let n = rng.below(200);
        let s: String = (0..n)
            .map(|_| char::from_u32(rng.next() as u32 % 0x400).unwrap_or('?'))
            .collect();
        // Errors are fine; panics or hangs are not.
        let _ = XmlReader::new(&s).read_sequence();
    }
}

#[test]
fn parser_never_panics_on_tag_soup() {
    const SOUP: &[u8] = b"<>&;'\"= abcdefghijklmnopqrstuvwxyz!?/[]-";
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 7000);
        let n = rng.below(120);
        let s: String = (0..n)
            .map(|_| SOUP[rng.below(SOUP.len())] as char)
            .collect();
        let _ = XmlReader::new(&s).read_sequence();
    }
}
