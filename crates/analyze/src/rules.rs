//! The workspace invariants: token-level rules R1–R4 and R6–R8, and
//! the interprocedural rules R5v2/R9/R10.
//!
//! Each rule maps a paper-level soundness condition to a mechanical
//! check over the token-level source model (see `DESIGN.md` §7 for the
//! paper mapping):
//!
//! - **R1 `repr-safety`** — types reachable from the shared
//!   (copy-on-write) value graph must not contain interior mutability.
//! - **R2 `relaxed-ordering`** — `Ordering::Relaxed` only in allowlisted
//!   observability counter code.
//! - **R3 `clock-discipline`** — no `Instant::now` / `SystemTime::now`
//!   outside the `Clock` implementations.
//! - **R4 `panic-freedom`** — no `.unwrap()` / `.expect()` in non-test
//!   code of the `core`, `client` and `http` crates.
//! - **R6 `zero-copy-pipeline`** — no copying methods (`.to_vec()`,
//!   `.clone()`, …) on the shared body/event buffers outside the
//!   allowlisted construction site; and inside the zero-alloc XML
//!   reader, no `.to_string()` / `.to_owned()` / `String::from(` on
//!   parser input spans at all.
//! - **R7 `bounded-spawn`** — no raw `thread::spawn` /
//!   `Builder::spawn` outside the allowlisted pool construction sites;
//!   concurrency must be bounded (worker pools, connection pools,
//!   joined scopes).
//! - **R8 `trace-discipline`** — no `root_span` minting outside the
//!   allowlisted edge-of-the-world sites; servers and middleware must
//!   continue propagated contexts so one request stays one trace.
//!
//! The interprocedural rules run over the call-graph model in
//! [`crate::model`] / [`crate::callgraph`]:
//!
//! - **R5v2 `lock-order-graph`** — the whole-workspace lock-acquisition
//!   graph (edges cross function boundaries via per-function lock
//!   summaries) must be cycle-free; diagnostics carry the full
//!   `f -> g -> h` witness chain for every edge of the cycle.
//! - **R9 `no-blocking-under-lock`** — no potentially blocking call
//!   (socket read/write, condvar wait, `TcpStream::connect`, sleep) and
//!   no call into transitively blocking code while a guard is held; a
//!   condvar wait on the *only* held guard is exempt, since it releases
//!   that guard while parked.
//! - **R10 `budget-accounting`** — every `StoredResponse` variant sizes
//!   itself in a same-file `approximate_size` with no wildcard arm, and
//!   every `CacheStore` function accepting a `StoredResponse` or
//!   `CacheEntry` (the insert) reaches an `approximate_size`
//!   call, so new representations cannot silently escape the store's
//!   byte budget.
//!
//! # Adding a rule
//!
//! 1. Pick the next code and a kebab-case id; append both to [`RULES`]
//!    (the id doubles as the `wsrc-allow(<id>): reason` suppression key
//!    and the SARIF rule id — never reuse or renumber).
//! 2. Token-local checks get a `rule_*` function over one
//!    [`SourceFile`], called from [`run`]; interprocedural checks go in
//!    `callgraph.rs::check` where the workspace model, call graph and
//!    lock summaries already exist.
//! 3. Emit [`Diagnostic`]s with a real file/line anchor (that is where
//!    suppressions are looked up) and a message that says *why* the
//!    invariant matters, not just what matched.
//! 4. Add a `<rule>_trigger.rs` / `<rule>_clean.rs` fixture pair under
//!    `tests/corpus/` (names must be unique corpus-wide: the whole
//!    corpus is scanned as one model) and extend `tests/corpus.rs`.
//! 5. Document the paper-soundness mapping in `DESIGN.md` §7 and the
//!    README's analyzer section.

use crate::callgraph;
use crate::scan::SourceFile;
use std::collections::{HashMap, HashSet, VecDeque};

/// A rule violation (or malformed suppression) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Short code (`R1`…`R8`, `S0` for suppression syntax errors).
    pub code: &'static str,
    /// Stable rule id, also the `wsrc-allow` key.
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
        "R3",
        "clock-discipline",
        "no Instant::now / SystemTime::now outside the Clock implementations",
    ),
    (
        "R4",
        "panic-freedom",
        "no unwrap()/expect() in non-test code of core, client and http",
    ),
    (
        "R6",
        "zero-copy-pipeline",
        "no copying methods on shared buffers outside Body; no owned copies of parser input spans",
    ),
    (
        "R7",
        "bounded-spawn",
        "no raw thread::spawn / Builder::spawn outside allowlisted pool construction",
    ),
    (
        "R8",
        "trace-discipline",
        "no root_span minting outside allowlisted trace-origin sites",
    ),
    (
        "R5v2",
        "lock-order-graph",
        "no cycles in the whole-workspace lock-acquisition graph (interprocedural)",
    ),
    (
        "R9",
        "no-blocking-under-lock",
        "no potentially blocking call while a lock guard is held (condvar wait on the only held guard exempt)",
    ),
    (
        "R10",
        "budget-accounting",
        "every StoredResponse variant and every CacheStore path taking a form or entry charges approximate_size to the byte budget",
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

/// The only files allowed to call `Instant::now` / `SystemTime::now`:
/// the `Clock` trait implementations everything else injects.
const R3_ALLOWLIST: &[&str] = &["crates/obs/src/clock.rs"];

/// Crates whose non-test code must be panic-free (hot path of every
/// cached call).
const R4_SCOPE: &[&str] = &["crates/core/src/", "crates/client/src/", "crates/http/src/"];

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

/// The only file allowed to spawn raw OS threads: the HTTP server's
/// pool construction (one accept thread plus a fixed set of workers,
/// all named and joined on shutdown). Everything else must go through
/// a pool or a joined `thread::scope`.
const R7_ALLOWLIST: &[&str] = &["crates/http/src/server.rs"];

/// The only places allowed to mint a new trace root: the tracer's own
/// definition, the load generator (the real edge of the world), and the
/// bench/smoke drivers. Everything in between — server, client
/// middleware, portal handlers — must continue a propagated context via
/// `span_from`/`child_span`, or a single user request shatters into
/// disconnected trees.
const R8_ALLOWLIST: &[&str] = &[
    "crates/obs/src/trace.rs",
    "crates/portal/src/loadgen.rs",
    "crates/bench/",
];

fn path_in(path: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| path.contains(n))
}

/// Full analysis result: diagnostics plus the call-resolution report.
pub struct RunOutput {
    pub diagnostics: Vec<Diagnostic>,
    /// Lock-relevant call sites the resolver could not bind.
    pub unresolved: Vec<callgraph::UnresolvedSite>,
    /// Effect-free unresolved sites (counted, not listed).
    pub benign_unresolved: usize,
}

/// Runs every rule over `files` and returns unsuppressed diagnostics,
/// sorted by (path, line, code) and deduped so output is byte-stable.
pub fn run(files: &[SourceFile]) -> Vec<Diagnostic> {
    run_full(files).diagnostics
}

/// [`run`], plus the unresolved-call bucket from the call graph.
pub fn run_full(files: &[SourceFile]) -> RunOutput {
    let mut diags = Vec::new();
    rule_repr_safety(files, &mut diags);
    for file in files {
        rule_relaxed_ordering(file, &mut diags);
        rule_clock_discipline(file, &mut diags);
        rule_panic_freedom(file, &mut diags);
        rule_zero_copy_pipeline(file, &mut diags);
        rule_bounded_spawn(file, &mut diags);
        rule_trace_discipline(file, &mut diags);
        for (line, why) in &file.malformed_suppressions {
            diags.push(Diagnostic {
                code: "S0",
                rule: "suppression",
                path: file.path.clone(),
                line: *line,
                message: format!("malformed wsrc-allow comment: {why}"),
            });
        }
    }
    let inter = callgraph::check(files);
    diags.extend(inter.diagnostics);
    // Apply suppressions (S0 is never suppressible).
    let by_path: HashMap<&str, &SourceFile> = files.iter().map(|f| (f.path.as_str(), f)).collect();
    diags.retain(|d| {
        d.code == "S0"
            || !by_path
                .get(d.path.as_str())
                .map(|f| f.is_suppressed(d.rule, d.line))
                .unwrap_or(false)
    });
    diags.sort_by(|a, b| {
        (&a.path, a.line, a.code, &a.message).cmp(&(&b.path, b.line, b.code, &b.message))
    });
    diags.dedup();
    RunOutput {
        diagnostics: diags,
        unresolved: inter.unresolved,
        benign_unresolved: inter.benign_unresolved,
    }
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
                          coalescing and cache state need acquire/release or stronger"
                    .to_string(),
            });
        }
    }
}

/// R3: `Instant::now` / `SystemTime::now` outside the Clock impls.
fn rule_clock_discipline(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    if !file.is_corpus && path_in(&file.path, R3_ALLOWLIST) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len().saturating_sub(3) {
        let source = &toks[i];
        if !(source.is_ident("Instant") || source.is_ident("SystemTime")) {
            continue;
        }
        if toks[i + 1].is_punct(':') && toks[i + 2].is_punct(':') && toks[i + 3].is_ident("now") {
            diags.push(Diagnostic {
                code: "R3",
                rule: "clock-discipline",
                path: file.path.clone(),
                line: source.line,
                message: format!(
                    "raw `{}::now()` bypasses the swappable Clock; inject a \
                     `wsrc_obs::Clock` so timing is testable under the fake clock",
                    source.text
                ),
            });
        }
    }
}

/// R4: `.unwrap()` / `.expect(` in non-test code of the scoped crates.
fn rule_panic_freedom(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    if !file.is_corpus && !path_in(&file.path, R4_SCOPE) {
        return;
    }
    let toks = &file.tokens;
    for i in 1..toks.len().saturating_sub(1) {
        let t = &toks[i];
        let is_panicky = t.is_ident("unwrap") || t.is_ident("expect");
        if !is_panicky || !toks[i - 1].is_punct('.') || !toks[i + 1].is_punct('(') {
            continue;
        }
        if file.in_test(t.line) {
            continue;
        }
        diags.push(Diagnostic {
            code: "R4",
            rule: "panic-freedom",
            path: file.path.clone(),
            line: t.line,
            message: format!(
                "`.{}()` on the cache hot path; propagate a CacheError/ClientError \
                 (or recover from lock poisoning via wsrc_obs::sync)",
                t.text
            ),
        });
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

/// R7: raw thread spawns outside the allowlisted pool construction.
/// Unbounded `thread::spawn` per request is exactly the failure mode
/// the worker-pool server replaced (one thread per connection, no
/// backpressure); new code must route work through a pool or a joined
/// `thread::scope` — `scope.spawn` is deliberately *not* flagged since
/// scoped threads are bounded by and joined at their scope.
///
/// Two shapes are detected, outside test code:
/// - `thread::spawn(` (also matching the `std::thread::spawn(` tail);
/// - `.spawn(` in a statement that has already mentioned `thread` or
///   `Builder` — the builder-chain form
///   `thread::Builder::new().name(…).spawn(…)`.
fn rule_bounded_spawn(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    if !file.is_corpus && path_in(&file.path, R7_ALLOWLIST) {
        return;
    }
    let toks = &file.tokens;
    // Idents seen since the last statement boundary, to tie a
    // `.spawn(` back to the `thread`/`Builder` that produced the
    // receiver while leaving `scope.spawn(…)` alone.
    let mut stmt_mentions_builder = false;
    for i in 0..toks.len() {
        let t = &toks[i];
        if matches!(t.kind, crate::lexer::TokenKind::Punct(';' | '{' | '}')) {
            stmt_mentions_builder = false;
            continue;
        }
        if t.is_ident("thread") || t.is_ident("Builder") {
            stmt_mentions_builder = true;
        }
        let direct = t.is_ident("thread")
            && toks.get(i + 1).map(|n| n.is_punct(':')).unwrap_or(false)
            && toks.get(i + 2).map(|n| n.is_punct(':')).unwrap_or(false)
            && toks
                .get(i + 3)
                .map(|n| n.is_ident("spawn"))
                .unwrap_or(false)
            && toks.get(i + 4).map(|n| n.is_punct('(')).unwrap_or(false);
        let chained = stmt_mentions_builder
            && t.is_punct('.')
            && toks
                .get(i + 1)
                .map(|n| n.is_ident("spawn"))
                .unwrap_or(false)
            && toks.get(i + 2).map(|n| n.is_punct('(')).unwrap_or(false);
        if (direct || chained) && !file.in_test(t.line) {
            diags.push(Diagnostic {
                code: "R7",
                rule: "bounded-spawn",
                path: file.path.clone(),
                line: t.line,
                message: "raw thread spawn escapes the bounded pools; route work through \
                          the server worker pool, the client connection pool, or a joined \
                          `thread::scope` (per-request spawning has no backpressure)"
                    .to_string(),
            });
        }
    }
}

/// R8: `root_span(` calls outside the allowlisted trace-origin sites.
/// A root span starts a brand-new trace; minting one mid-pipeline
/// (server, client middleware, portal handler) severs the request from
/// the caller's trace, so the span tree a user fetches from `/trace`
/// silently loses its children. Interior layers must continue the
/// propagated context (`Tracer::span_from`, `trace::child_span`)
/// instead. Test code is exempt: tests routinely mint roots to set up
/// a traced scope.
fn rule_trace_discipline(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    if !file.is_corpus && path_in(&file.path, R8_ALLOWLIST) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        let t = &toks[i];
        if !t.is_ident("root_span") || !toks[i + 1].is_punct('(') {
            continue;
        }
        if file.in_test(t.line) {
            continue;
        }
        diags.push(Diagnostic {
            code: "R8",
            rule: "trace-discipline",
            path: file.path.clone(),
            line: t.line,
            message: "`root_span(…)` outside the allowlisted trace origins mints a \
                      disconnected trace mid-request; continue the propagated context \
                      with `Tracer::span_from` or `trace::child_span` instead"
                .to_string(),
        });
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
    fn r3_flags_raw_clocks_outside_clock_impls() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        let d = diags_for("crates/portal/src/loadgen.rs", src);
        assert_eq!(codes(&d), ["R3", "R3"]);
        assert!(diags_for("crates/obs/src/clock.rs", src).is_empty());
        // Strings and comments never trigger.
        let quiet = "fn f() { let s = \"Instant::now()\"; } // Instant::now()";
        assert!(diags_for("crates/portal/src/loadgen.rs", quiet).is_empty());
    }

    #[test]
    fn r4_flags_unwrap_in_scoped_nontest_code_only() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests { fn g(x: Option<u8>) { x.unwrap(); } }";
        assert_eq!(codes(&diags_for("crates/core/src/cache.rs", src)), ["R4"]);
        assert!(diags_for("crates/model/src/value.rs", src).is_empty());
        // unwrap_or_else is not unwrap.
        let ok = "fn f(x: Result<u8, u8>) { x.unwrap_or_else(|e| e); }";
        assert!(diags_for("crates/core/src/cache.rs", ok).is_empty());
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
    fn r7_flags_raw_spawns_outside_allowlist() {
        let direct = "fn f() { std::thread::spawn(|| {}); }";
        let d = diags_for("crates/portal/src/loadgen.rs", direct);
        assert_eq!(codes(&d), ["R7"]);
        assert!(d[0].message.contains("bounded"));
        let bare = "fn f() { thread::spawn(|| {}); }";
        assert_eq!(codes(&diags_for("crates/services/src/x.rs", bare)), ["R7"]);
        let chained = "fn f() { thread::Builder::new().name(n).spawn(|| {}); }";
        assert_eq!(
            codes(&diags_for("crates/services/src/x.rs", chained)),
            ["R7"]
        );
        // The server's pool construction is the allowlisted site.
        assert!(diags_for("crates/http/src/server.rs", direct).is_empty());
    }

    #[test]
    fn r7_permits_scoped_threads_and_test_code() {
        let scoped = "fn f() { std::thread::scope(|scope| { scope.spawn(|| {}); }); }";
        assert!(diags_for("crates/portal/src/loadgen.rs", scoped).is_empty());
        let test_only = "#[cfg(test)]\nmod tests { fn f() { std::thread::spawn(|| {}).join(); } }";
        assert!(diags_for("crates/portal/src/loadgen.rs", test_only).is_empty());
        // An unrelated `.spawn(` receiver (no thread/Builder in the
        // statement) is not this rule's business.
        let other = "fn f(pool: &Pool) { pool.spawn(job); }";
        assert!(diags_for("crates/portal/src/loadgen.rs", other).is_empty());
    }

    #[test]
    fn r8_flags_root_span_outside_trace_origins() {
        let src = "fn handle(tracer: &Arc<Tracer>, req: &Request) {\n\
                   let span = tracer.root_span(\"server\", req.target());\n\
                   span.finish();\n}";
        let d = diags_for("crates/http/src/server.rs", src);
        assert_eq!(codes(&d), ["R8"]);
        assert!(d[0].message.contains("span_from"));
        assert_eq!(d[0].line, 2);
        // The allowlisted origins mint roots freely.
        assert!(diags_for("crates/portal/src/loadgen.rs", src).is_empty());
        assert!(diags_for("crates/bench/src/trace_smoke.rs", src).is_empty());
        assert!(diags_for("crates/obs/src/trace.rs", src).is_empty());
    }

    #[test]
    fn r8_permits_tests_and_continuation_apis() {
        let test_only = "#[cfg(test)]\nmod tests {\n\
                         fn f(t: &Arc<Tracer>) { t.root_span(\"x\", \"/r\").finish(); }\n}";
        assert!(diags_for("crates/http/src/server.rs", test_only).is_empty());
        let continued = "fn handle(t: &Arc<Tracer>, ctx: TraceContext) {\n\
                         let span = t.span_from(ctx, \"server\", \"server\", \"/r\");\n\
                         let child = wsrc_obs::trace::child_span(\"step\", \"lookup\");\n}";
        assert!(diags_for("crates/http/src/server.rs", continued).is_empty());
    }

    #[test]
    fn suppressions_silence_matching_rule_with_reason() {
        let src = "fn f(c: &AtomicU64) {\n\
                   // wsrc-allow(relaxed-ordering): monotonic counter, no ordering derived\n\
                   c.fetch_add(1, Ordering::Relaxed);\n}";
        assert!(diags_for("crates/core/src/stats.rs", src).is_empty());
        // Wrong rule id does not silence.
        let wrong = "fn f(c: &AtomicU64) {\n\
                   // wsrc-allow(panic-freedom): wrong rule\n\
                   c.fetch_add(1, Ordering::Relaxed);\n}";
        assert_eq!(codes(&diags_for("crates/core/src/stats.rs", wrong)), ["R2"]);
    }

    #[test]
    fn malformed_suppressions_are_reported_and_do_not_silence() {
        let src = "fn f(c: &AtomicU64) {\n\
                   // wsrc-allow(relaxed-ordering)\n\
                   c.fetch_add(1, Ordering::Relaxed);\n}";
        let d = diags_for("crates/core/src/stats.rs", src);
        assert_eq!(codes(&d), ["S0", "R2"]);
    }

    #[test]
    fn corpus_files_are_in_scope_for_every_rule() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }";
        let d = diags_for("crates/analyze/tests/corpus/r4_unwrap.rs", src);
        assert_eq!(codes(&d), ["R4"]);
    }
}
