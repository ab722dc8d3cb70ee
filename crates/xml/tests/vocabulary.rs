// reason: the counting `#[global_allocator]` below implements
// `GlobalAlloc`, an unsafe trait; it is this file's only unsafe code.
#![allow(unsafe_code)]

//! The thread's vocabulary and scratch, seen from the allocator: a
//! document whose names the thread has met before parses without
//! allocating anything, up to the vocabulary's 128 names; past them the
//! extra names are interned per document again.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::convert::Infallible;
use wsrc_xml::sax::ContentHandler;
use wsrc_xml::{XmlReader, XmlWriter};

/// Counts allocations per thread, so tests running in parallel do not
/// see each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the tally is
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Takes every event and keeps nothing.
struct Discard;

impl ContentHandler for Discard {
    type Error = Infallible;
}

/// Runs `check` on a thread of its own, whose scratch starts empty.
fn on_a_new_thread(check: impl FnOnce() + Send) {
    std::thread::scope(|s| s.spawn(check).join().expect("the thread finishes"));
}

/// Allocations one `parse_into` of `xml` makes on this thread.
fn parse_allocations(xml: &str) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    XmlReader::new(xml)
        .parse_into(&mut Discard)
        .expect("the document is well-formed");
    ALLOCATIONS.with(Cell::get) - before
}

/// A document of `names` distinct element names (`n0` … ), one attribute
/// name among them, and a prefixed root, with text and entities.
fn document(names: usize) -> String {
    let mut xml = String::from("<s:root xmlns:s=\"urn:s\">");
    for i in 1..names {
        xml.push_str(&format!("<n{i} a=\"&lt;{i}\">text &amp; more</n{i}>"));
    }
    xml.push_str("</s:root>");
    xml
}

#[test]
fn a_known_vocabulary_parses_without_allocating() {
    // root, `xmlns:s`, `a` and 125 more: 128 names.
    on_a_new_thread(|| {
        let xml = document(126);
        assert!(
            parse_allocations(&xml) > 0,
            "the first parse interns the names"
        );
        assert_eq!(parse_allocations(&xml), 0, "the second re-interns none");
        // Another document over the same names costs nothing either.
        let fewer = document(40);
        assert_eq!(parse_allocations(&fewer), 0);
    });
}

#[test]
fn names_past_the_vocabulary_are_interned_per_document() {
    on_a_new_thread(|| {
        let xml = document(136);
        parse_allocations(&xml);
        // Eight names are past the 128 the vocabulary holds: each is
        // validated and interned again, and nothing else is.
        let again = parse_allocations(&xml);
        assert!((8..=32).contains(&again), "{again} allocations");
    });
}

/// A writer started while another is open gets scratch of its own: both
/// documents come out as each would alone, and so do later ones.
#[test]
fn nested_writers_write_what_each_writes_alone() {
    on_a_new_thread(|| {
        let alone = |name: &str, text: &str| {
            let mut w = XmlWriter::new();
            w.element_with_text(name, text).expect("one element");
            w.finish().expect("closed")
        };
        let mut outer = XmlWriter::with_declaration();
        outer.start("outer").expect("root");
        outer.text("before ").expect("text");
        let inner = alone("inner", "a & b");
        outer.element_with_text("child", &inner).expect("child");
        outer.end().expect("closed");
        let outer = outer.finish().expect("finished");
        assert_eq!(inner, "<inner>a &amp; b</inner>");
        assert_eq!(
            outer,
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><outer>before \
             <child>&lt;inner&gt;a &amp;amp; b&lt;/inner&gt;</child></outer>"
        );
        assert_eq!(alone("inner", "a & b"), inner);
    });
}

/// A name over 64 bytes is interned per document and never kept: a
/// document that has one reads as it does on a fresh thread, however
/// often it is read, and the names after it join the vocabulary once a
/// document without it brings them.
#[test]
fn a_long_name_is_interned_per_document() {
    let long = "n".repeat(65);
    let xml = format!("<{long}><a k=\"v\"/><b/></{long}>");
    let read = || XmlReader::new(&xml).read_sequence().expect("well-formed");
    let fresh = std::thread::scope(|s| s.spawn(read).join().expect("the thread finishes"));
    on_a_new_thread(|| {
        for _ in 0..3 {
            assert_eq!(read(), fresh);
        }
        assert!(
            parse_allocations(&xml) > 0,
            "the long name is interned again"
        );
        let short = "<a k=\"v\"><b/></a>";
        parse_allocations(short);
        assert_eq!(parse_allocations(short), 0);
        assert_eq!(read(), fresh);
    });
}
