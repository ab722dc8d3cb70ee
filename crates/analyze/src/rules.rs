//! The three invariants that need a token model of the source.
//!
//! Each rule maps a paper-level soundness condition to a mechanical
//! check (`DESIGN.md` §7 lists every invariant and what enforces it —
//! most are a clippy lint, the compiler, the lock witness or a test):
//!
//! - **R1 `repr-safety`** — types reachable from the shared
//!   (copy-on-write) value graph must not contain interior mutability.
//! - **R2 `relaxed-ordering`** — `Ordering::Relaxed` only in allowlisted
//!   observability counter code.
//! - **R6 `zero-copy-pipeline`** — no copying methods (`.to_vec()`,
//!   `.clone()`, …) on the shared body/event buffers outside the
//!   allowlisted construction site; and inside the zero-alloc XML
//!   reader, no `.to_string()` / `.to_owned()` / `String::from(` on
//!   parser input spans at all.
//!
//! A new rule appends to [`RULES`] (codes are never reused), gets a
//! `rule_*` function called from [`run`], a `<rule>_trigger.rs` /
//! `<rule>_clean.rs` fixture pair under `tests/corpus/`, and a row in
//! the `DESIGN.md` §7 and README tables — after checking that no lint,
//! type or test can carry the invariant instead.

use crate::scan::SourceFile;
use std::collections::{HashMap, HashSet, VecDeque};

/// A rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Short code (`R1`, `R2`, `R6`).
    pub code: &'static str,
    /// Stable rule id.
    pub rule: &'static str,
    /// File path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// `(code, id, summary)` for every rule, in order.
pub const RULES: &[(&str, &str, &str)] = &[
    (
        "R1",
        "repr-safety",
        "no interior mutability in types reachable from shared (copy-on-write) cache values",
    ),
    (
        "R2",
        "relaxed-ordering",
        "Ordering::Relaxed only in allowlisted observability counter code",
    ),
    (
        "R6",
        "zero-copy-pipeline",
        "no copying methods on shared buffers outside Body; no owned copies of parser input spans",
    ),
];

/// Root types of the pass-by-reference sharing graph: the value tree the
/// cache may hand to the application without copying, and the stored
/// entry that wraps it.
const R1_ROOTS: &[&str] = &["Value", "StructValue", "StoredResponse", "ValueHandle"];

/// Interior-mutability carriers: presence of any of these in a type
/// reachable from a shared cache value defeats the copy-on-write that
/// makes sharing sound for every value (paper §6 rule a without §4.2.4's
/// assertion): a written container copies its own range out of a shared
/// block, not what a cell or lock inside the block or the shape guards.
const INTERIOR_MUTABILITY: &[&str] = &[
    "Cell",
    "RefCell",
    "UnsafeCell",
    "OnceCell",
    "LazyCell",
    "SyncUnsafeCell",
    "Mutex",
    "RwLock",
    "Condvar",
    "OnceLock",
    "LazyLock",
    "AtomicBool",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicPtr",
];

/// Files whose `Ordering::Relaxed` uses are the documented allowlist:
/// the lock-free metrics counters in `wsrc-obs` (monotonic counters read
/// only for exposition — no cross-thread ordering is derived from them).
const R2_ALLOWLIST: &[&str] = &["crates/obs/src/metrics.rs"];

/// Receiver names that denote the pipeline's shared payload buffers —
/// the HTTP body and the recorded event sequence, under the names the
/// workspace gives them.
const R6_BUFFERS: &[&str] = &["body", "response_xml", "response_events", "xml_bytes"];

/// Methods that materialize a copy of a shared buffer.
const R6_COPY_METHODS: &[&str] = &["to_vec", "to_owned", "into_owned", "clone"];

/// The only file allowed to copy payload bytes: the `Body` newtype
/// (the single read-buffer → `Arc<[u8]>` copy at construction).
const R6_ALLOWLIST: &[&str] = &["crates/http/src/body.rs"];

/// The parser file subject to R6's parser-span check. The byte-table
/// reader emits borrowed spans of its input (that is the whole point of
/// the zero-alloc rewrite), so any `.to_string()` / `.to_owned()` /
/// `String::from(` inside it silently reintroduces a per-event heap
/// copy on the miss path. Corpus fixtures whose filename contains
/// `r6_parser` opt into the same check.
const R6_PARSER_SCOPE: &[&str] = &["crates/xml/src/reader.rs"];

fn path_in(path: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| path.contains(n))
}

/// Runs every rule over `files` and returns the diagnostics, sorted by
/// (path, line, code) and deduped so output is byte-stable.
pub fn run(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    rule_repr_safety(files, &mut diags);
    for file in files {
        rule_relaxed_ordering(file, &mut diags);
        rule_zero_copy_pipeline(file, &mut diags);
    }
    diags.sort_by(|a, b| {
        (&a.path, a.line, a.code, &a.message).cmp(&(&b.path, b.line, b.code, &b.message))
    });
    diags.dedup();
    diags
}

/// R1: build the name-keyed type graph from non-test declarations, walk
/// it from the pass-by-reference roots, and flag interior mutability in
/// any reachable declaration.
fn rule_repr_safety(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    let mut graph: HashMap<&str, Vec<(&SourceFile, &crate::scan::TypeDecl)>> = HashMap::new();
    for file in files {
        for decl in &file.types {
            if !decl.in_test {
                graph
                    .entry(decl.name.as_str())
                    .or_default()
                    .push((file, decl));
            }
        }
    }
    let mut queue: VecDeque<&str> = R1_ROOTS.iter().copied().collect();
    let mut seen: HashSet<&str> = queue.iter().copied().collect();
    while let Some(name) = queue.pop_front() {
        let Some(decls) = graph.get(name) else {
            continue;
        };
        for (file, decl) in decls {
            for (line, referent) in &decl.refs {
                if INTERIOR_MUTABILITY.contains(&referent.as_str()) {
                    diags.push(Diagnostic {
                        code: "R1",
                        rule: "repr-safety",
                        path: file.path.clone(),
                        line: *line,
                        message: format!(
                            "`{referent}` inside `{name}`, which is reachable from a \
                             cache value every hit shares; a write through interior \
                             mutability bypasses copy-on-write and reaches the cache \
                             and every other holder"
                        ),
                    });
                } else if graph.contains_key(referent.as_str()) && seen.insert(referent) {
                    queue.push_back(referent);
                }
            }
        }
    }
}

/// R2: any `Relaxed` identifier outside the allowlist.
fn rule_relaxed_ordering(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    if !file.is_corpus && path_in(&file.path, R2_ALLOWLIST) {
        return;
    }
    for t in &file.tokens {
        if t.is_ident("Relaxed") {
            diags.push(Diagnostic {
                code: "R2",
                rule: "relaxed-ordering",
                path: file.path.clone(),
                line: t.line,
                message: "Ordering::Relaxed outside the allowlisted wsrc-obs counters; \
                          cache state needs acquire/release or stronger"
                    .to_string(),
            });
        }
    }
}

/// R6: copying methods on the shared payload buffers. The pipeline's
/// contract is that body bytes and recorded events are copied exactly
/// once, at construction; every later layer shares the `Arc`. A
/// `.to_vec()` / `.clone()` / `.to_owned()` / `.into_owned()` whose
/// receiver is one of the buffer names reintroduces a per-layer copy
/// and is flagged outside the allowlisted construction file.
fn rule_zero_copy_pipeline(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    r6_parser_spans(file, diags);
    if !file.is_corpus && path_in(&file.path, R6_ALLOWLIST) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len().saturating_sub(3) {
        let t = &toks[i];
        if file.in_test(t.line) {
            continue;
        }
        // `<buffer>.copy_method(`
        if R6_BUFFERS.contains(&t.text.as_str())
            && t.kind == crate::lexer::TokenKind::Ident
            && toks[i + 1].is_punct('.')
            && R6_COPY_METHODS.contains(&toks[i + 2].text.as_str())
            && toks[i + 3].is_punct('(')
        {
            diags.push(Diagnostic {
                code: "R6",
                rule: "zero-copy-pipeline",
                path: file.path.clone(),
                line: toks[i + 2].line,
                message: format!(
                    "`.{}()` on shared buffer `{}`; the pipeline copies payload bytes \
                     once at construction — share the `Arc` (`Body::shared`, `Arc::clone`) \
                     instead of materializing a copy",
                    toks[i + 2].text,
                    t.text
                ),
            });
        }
    }
}

/// R6, parser-span check: owned-copy calls inside the zero-alloc
/// reader. The reader's event sinks receive `&str` spans borrowed from
/// the input (or the entity scratch); copying one to a `String` undoes
/// the zero-allocation contract one event at a time. Detected shapes,
/// outside test code: `.to_string(`, `.to_owned(`, and `String::from(`.
fn r6_parser_spans(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let in_scope =
        path_in(&file.path, R6_PARSER_SCOPE) || (file.is_corpus && file.path.contains("r6_parser"));
    if !in_scope {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len().saturating_sub(2) {
        let t = &toks[i];
        if file.in_test(t.line) {
            continue;
        }
        // `.to_string(` / `.to_owned(`
        let method = t.is_punct('.')
            && (toks[i + 1].is_ident("to_string") || toks[i + 1].is_ident("to_owned"))
            && toks[i + 2].is_punct('(');
        // `String::from(`
        let string_from = t.is_ident("String")
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks.get(i + 3).map(|n| n.is_ident("from")).unwrap_or(false)
            && toks.get(i + 4).map(|n| n.is_punct('(')).unwrap_or(false);
        if method || string_from {
            let (what, line) = if method {
                (format!("`.{}()`", toks[i + 1].text), toks[i + 1].line)
            } else {
                ("`String::from(…)`".to_string(), t.line)
            };
            diags.push(Diagnostic {
                code: "R6",
                rule: "zero-copy-pipeline",
                path: file.path.clone(),
                line,
                message: format!(
                    "{what} copies a parser input span; the reader delivers every \
                     span borrowed — hand the `&str` to the sink instead"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn diags_for(path: &str, src: &str) -> Vec<Diagnostic> {
        run(&[SourceFile::parse(path, src)])
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn r1_flags_interior_mutability_reachable_from_roots() {
        let src = "pub enum Value { S(String), N(Node) }\n\
                   pub struct Node { score: RefCell<f64> }";
        let d = diags_for("crates/model/src/value.rs", src);
        assert_eq!(codes(&d), ["R1"]);
        assert!(d[0].message.contains("RefCell"));
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn r1_ignores_unreachable_and_test_types() {
        let src = "pub struct Unrelated { m: Mutex<u8> }\n\
                   pub enum Value { S(String) }\n\
                   #[cfg(test)]\nmod tests { struct Value2 { c: Cell<u8> } }";
        assert!(diags_for("crates/model/src/value.rs", src).is_empty());
    }

    #[test]
    fn r2_flags_relaxed_outside_allowlist() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        let d = diags_for("crates/core/src/stats.rs", src);
        assert_eq!(codes(&d), ["R2"]);
        assert!(diags_for("crates/obs/src/metrics.rs", src).is_empty());
    }

    #[test]
    fn r6_flags_buffer_copies_outside_construction_sites() {
        let src = "fn f(req: &Request) -> Vec<u8> { req.body.to_vec() }";
        let d = diags_for("crates/portal/src/site.rs", src);
        assert_eq!(codes(&d), ["R6"]);
        assert!(d[0].message.contains("to_vec"));
        // The Body construction site itself is allowlisted.
        assert!(diags_for("crates/http/src/body.rs", src).is_empty());
    }

    #[test]
    fn r6_flags_clone_of_the_recorded_events() {
        let cl = "fn f(e: &Exchange) { store(e.response_events.clone()); }";
        assert_eq!(codes(&diags_for("crates/portal/src/site.rs", cl)), ["R6"]);
    }

    #[test]
    fn r6_flags_every_owned_copy_inside_the_reader() {
        let copy = "fn f(text: &str) -> String { text.to_string() }";
        assert_eq!(codes(&diags_for("crates/xml/src/reader.rs", copy)), ["R6"]);
        let from = "fn f(text: &str) -> String { String::from(text) }";
        assert_eq!(codes(&diags_for("crates/xml/src/reader.rs", from)), ["R6"]);
        assert!(diags_for("crates/xml/src/writer.rs", copy).is_empty());
    }

    #[test]
    fn r6_ignores_tests_and_unrelated_receivers() {
        let test_only = "#[cfg(test)]\nmod tests { fn f(req: &Request) { req.body.clone(); } }";
        assert!(diags_for("crates/portal/src/site.rs", test_only).is_empty());
        // Non-buffer receivers copy freely.
        let ok = "fn f(names: &[String]) -> Vec<String> { names.to_vec() }";
        assert!(diags_for("crates/portal/src/site.rs", ok).is_empty());
        // Non-copy methods on buffers are fine.
        let len = "fn f(req: &Request) -> usize { req.body.len() }";
        assert!(diags_for("crates/portal/src/site.rs", len).is_empty());
    }

    #[test]
    fn corpus_files_are_in_scope_for_every_rule() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        let d = diags_for("crates/analyze/tests/corpus/metrics.rs", src);
        assert_eq!(codes(&d), ["R2"]);
    }
}
