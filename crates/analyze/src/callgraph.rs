//! Conservative call graph + the interprocedural rules built on it.
//!
//! Resolution maps each [`crate::model::CallSite`] to workspace functions
//! using receiver-shape heuristics (see [`resolve`]). Anything the
//! heuristics cannot pin down lands in an explicit *unresolved bucket*
//! that is always reported — never silently dropped — split into
//! lock-relevant sites (some candidate acquires a lock or blocks) and
//! benign ones (every candidate is effect-free, so the resolution
//! outcome cannot change any verdict).
//!
//! On top of resolution, [`check`] computes transitive per-function
//! summaries (which lock classes a call may acquire, whether it may
//! block — each with a full `f -> g -> h` witness chain) and evaluates:
//!
//! * **R5v2 lock-order-graph** — the whole-workspace lock-acquisition
//!   graph must be cycle-free;
//! * **R9 no-blocking-under-lock** — no potentially blocking primitive
//!   or transitively blocking call while a guard is held (a condvar
//!   wait on the *only* held guard is exempt: it releases it);
//! * **R10 budget-accounting** — every `StoredResponse` variant sizes
//!   itself in `approximate_size`, and every `CacheStore` entry point
//!   accepting a `StoredResponse` or `CacheEntry` charges it to the
//!   byte budget.

use crate::model::{Receiver, Workspace};
use crate::rules::Diagnostic;
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A call site the resolver could not pin to a single function.
#[derive(Debug, Clone)]
pub struct UnresolvedSite {
    pub path: String,
    pub line: u32,
    pub name: String,
    /// Qualified names of the candidate callees.
    pub candidates: Vec<String>,
}

pub struct CallGraph {
    /// Per-function resolved calls: (call-site index, callee fn index).
    pub resolved: Vec<Vec<(usize, usize)>>,
    /// Lock-relevant unresolved call sites (sorted, deduped).
    pub unresolved: Vec<UnresolvedSite>,
    /// Count of effect-free unresolved sites (tracked, not listed).
    pub benign_unresolved: usize,
}

enum Binding {
    External,
    Resolved(usize),
    Ambiguous,
}

/// Method names that exist on ubiquitous std types (slices, maps,
/// strings, iterators). A *typed* receiver may still bind to a
/// workspace function of one of these names, but the untyped-receiver
/// unique-name fallback must not: `parts.join(", ")` on a `Vec<String>`
/// is not `InflightTable::join`. Such sites go to the unresolved
/// bucket instead of being bound on a coincidence.
const STD_HOMONYMS: &[&str] = &[
    "join",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "clear",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "iter",
    "next",
    "find",
    "split",
    "parse",
    "take",
    "clone",
    "drain",
    "entry",
    "extend",
    "retain",
    "sort",
    "truncate",
    "starts_with",
    "ends_with",
    "trim",
    "write",
    "send",
    "wait",
    "last",
    "first",
    "count",
    "min",
    "max",
    "sum",
    "map",
    "filter",
    "position",
    "sleep",
];

/// Resolves every call site against the workspace model.
pub fn resolve(ws: &Workspace) -> CallGraph {
    let mut resolved = vec![Vec::new(); ws.fns.len()];
    let mut unresolved = Vec::new();
    let mut benign = 0usize;
    for (fi, f) in ws.fns.iter().enumerate() {
        for (ci, call) in f.calls.iter().enumerate() {
            let Some(cands) = ws.by_name.get(&call.name) else {
                continue; // no workspace function of this name: external
            };
            match bind(ws, fi, &call.receiver, cands) {
                Binding::Resolved(target) => resolved[fi].push((ci, target)),
                Binding::External => {}
                Binding::Ambiguous => {
                    let relevant = cands.iter().any(|&k| {
                        !ws.fns[k].acquisitions.is_empty() || !ws.fns[k].blocking.is_empty()
                    });
                    if relevant {
                        unresolved.push(UnresolvedSite {
                            path: ws.paths[f.file].clone(),
                            line: call.line,
                            name: call.name.clone(),
                            candidates: cands.iter().map(|&k| ws.fns[k].qualified()).collect(),
                        });
                    } else {
                        benign += 1;
                    }
                }
            }
        }
    }
    unresolved.sort_by(|a, b| (&a.path, a.line, &a.name).cmp(&(&b.path, b.line, &b.name)));
    unresolved.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.name == b.name);
    CallGraph {
        resolved,
        unresolved,
        benign_unresolved: benign,
    }
}

fn bind(ws: &Workspace, caller: usize, receiver: &Receiver, cands: &[usize]) -> Binding {
    let owner_matches = |owner: &str| -> Vec<usize> {
        cands
            .iter()
            .copied()
            .filter(|&k| ws.fns[k].owner.as_deref() == Some(owner))
            .collect()
    };
    let free: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&k| ws.fns[k].owner.is_none())
        .collect();
    // A single workspace function of this name: bind it — unless the
    // name is a std-type homonym, where an untyped receiver is far more
    // likely to be a slice/map/string method than our one function.
    // (Free calls never take this path: a free `name(..)` can never be
    // a method, so `drop(g)` must not bind to `Drop::drop`.)
    let unique = |cands: &[usize]| -> Binding {
        if cands.len() == 1 && !STD_HOMONYMS.contains(&ws.fns[cands[0]].name.as_str()) {
            Binding::Resolved(cands[0])
        } else {
            Binding::Ambiguous
        }
    };
    match receiver {
        Receiver::Free => {
            if free.is_empty() {
                Binding::External
            } else if free.len() == 1 {
                Binding::Resolved(free[0])
            } else {
                Binding::Ambiguous
            }
        }
        Receiver::Path(seg) if seg.chars().next().is_some_and(|c| c.is_ascii_uppercase()) => {
            let m = owner_matches(seg);
            if m.is_empty() {
                // Explicitly names a type we don't model: external.
                Binding::External
            } else {
                Binding::Resolved(m[0])
            }
        }
        Receiver::Path(module) => {
            // `module::name(..)` — a free function; prefer the one
            // living in `module.rs` / `module/`.
            if free.is_empty() {
                return Binding::External;
            }
            if free.len() == 1 {
                return Binding::Resolved(free[0]);
            }
            let pat_file = format!("/{module}.rs");
            let pat_dir = format!("/{module}/");
            let preferred: Vec<usize> = free
                .iter()
                .copied()
                .filter(|&k| {
                    let p = &ws.paths[ws.fns[k].file];
                    p.ends_with(&pat_file) || p.contains(&pat_dir)
                })
                .collect();
            if preferred.len() == 1 {
                Binding::Resolved(preferred[0])
            } else {
                Binding::Ambiguous
            }
        }
        Receiver::SelfDot => {
            if let Some(owner) = ws.fns[caller].owner.as_deref() {
                let m = owner_matches(owner);
                if !m.is_empty() {
                    return Binding::Resolved(m[0]);
                }
            }
            unique(cands)
        }
        Receiver::Var(v) => {
            if let Some(ty) = ws.fns[caller].params.get(v) {
                let m = owner_matches(ty);
                if !m.is_empty() {
                    return Binding::Resolved(m[0]);
                }
            }
            unique(cands)
        }
        Receiver::Field(field) => {
            if let Some(owners) = ws.field_types.get(field) {
                let tys: BTreeSet<&str> = owners.iter().map(|(_, ty)| ty.as_str()).collect();
                if tys.len() == 1 {
                    let m = owner_matches(tys.iter().next().expect("one type"));
                    if !m.is_empty() {
                        return Binding::Resolved(m[0]);
                    }
                }
            }
            unique(cands)
        }
        Receiver::Other => unique(cands),
    }
}

/// What a function may do, transitively: lock classes it may acquire
/// and whether it may block, each with a witness call chain.
#[derive(Default, Clone)]
pub struct Summary {
    /// class -> witness frames ending at the acquiring function.
    pub acquires: BTreeMap<String, Vec<String>>,
    /// First blocking primitive reachable: (what, witness frames).
    pub blocks: Option<(String, Vec<String>)>,
}

fn frame(ws: &Workspace, fi: usize, line: u32) -> String {
    format!(
        "{} ({}:{line})",
        ws.fns[fi].qualified(),
        ws.paths[ws.fns[fi].file]
    )
}

fn summarize(
    fi: usize,
    ws: &Workspace,
    cg: &CallGraph,
    memo: &mut Vec<Option<Summary>>,
    visiting: &mut Vec<bool>,
) -> Summary {
    if let Some(s) = &memo[fi] {
        return s.clone();
    }
    if visiting[fi] {
        return Summary::default(); // recursion: break the cycle
    }
    visiting[fi] = true;
    let mut s = Summary::default();
    for acq in &ws.fns[fi].acquisitions {
        s.acquires
            .entry(acq.class.clone())
            .or_insert_with(|| vec![frame(ws, fi, acq.line)]);
    }
    if let Some(b) = ws.fns[fi].blocking.first() {
        s.blocks = Some((b.what.clone(), vec![frame(ws, fi, b.line)]));
    }
    for &(ci, callee) in &cg.resolved[fi] {
        let call_line = ws.fns[fi].calls[ci].line;
        let sub = summarize(callee, ws, cg, memo, visiting);
        for (class, w) in &sub.acquires {
            s.acquires.entry(class.clone()).or_insert_with(|| {
                let mut chain = vec![frame(ws, fi, call_line)];
                chain.extend(w.iter().cloned());
                chain
            });
        }
        if s.blocks.is_none() {
            if let Some((what, w)) = &sub.blocks {
                let mut chain = vec![frame(ws, fi, call_line)];
                chain.extend(w.iter().cloned());
                s.blocks = Some((what.clone(), chain));
            }
        }
    }
    visiting[fi] = false;
    memo[fi] = Some(s.clone());
    s
}

/// Everything the interprocedural pass produces.
pub struct InterOutput {
    pub diagnostics: Vec<Diagnostic>,
    pub unresolved: Vec<UnresolvedSite>,
    pub benign_unresolved: usize,
}

/// Runs R5v2 + R9 + R10 over the workspace model.
pub fn check(files: &[SourceFile]) -> InterOutput {
    let ws = Workspace::build(files);
    let cg = resolve(&ws);
    let mut memo = vec![None; ws.fns.len()];
    let mut visiting = vec![false; ws.fns.len()];
    let summaries: Vec<Summary> = (0..ws.fns.len())
        .map(|i| summarize(i, &ws, &cg, &mut memo, &mut visiting))
        .collect();
    let mut diagnostics = Vec::new();
    check_r5v2(&ws, &cg, &summaries, &mut diagnostics);
    check_r9(&ws, &cg, &summaries, &mut diagnostics);
    check_r10(&ws, &cg, files, &mut diagnostics);
    InterOutput {
        diagnostics,
        unresolved: cg.unresolved,
        benign_unresolved: cg.benign_unresolved,
    }
}

struct LockEdge {
    witness: Vec<String>,
    path: String,
    line: u32,
}

/// R5v2: build the lock-acquisition order graph and deny cycles.
fn check_r5v2(ws: &Workspace, cg: &CallGraph, summaries: &[Summary], out: &mut Vec<Diagnostic>) {
    // (held, acquired) -> first witness observed, in model order.
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    let mut add_edge = |held: &str, acquired: &str, witness: Vec<String>, path: &str, line: u32| {
        edges
            .entry((held.to_string(), acquired.to_string()))
            .or_insert(LockEdge {
                witness,
                path: path.to_string(),
                line,
            });
    };
    for (fi, f) in ws.fns.iter().enumerate() {
        let path = &ws.paths[f.file];
        for acq in &f.acquisitions {
            for held in &acq.held {
                add_edge(
                    held,
                    &acq.class,
                    vec![frame(ws, fi, acq.line)],
                    path,
                    acq.line,
                );
            }
        }
        for &(ci, callee) in &cg.resolved[fi] {
            let call = &f.calls[ci];
            if call.held.is_empty() {
                continue;
            }
            for (class, w) in &summaries[callee].acquires {
                for held in &call.held {
                    let mut witness = vec![frame(ws, fi, call.line)];
                    witness.extend(w.iter().cloned());
                    add_edge(held, class, witness, path, call.line);
                }
            }
        }
    }
    // Cycle detection: DFS over the class graph in sorted order;
    // every cycle is reported once, rotated to its smallest node.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (held, acquired) in edges.keys() {
        adj.entry(held.as_str())
            .or_default()
            .push(acquired.as_str());
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut on_path: Vec<&str> = vec![start];
        while let Some((node, next)) = stack.last_mut() {
            let succs = adj.get(*node).map(|v| v.as_slice()).unwrap_or(&[]);
            if *next >= succs.len() {
                stack.pop();
                on_path.pop();
                continue;
            }
            let succ = succs[*next];
            *next += 1;
            if let Some(pos) = on_path.iter().position(|&n| n == succ) {
                let cycle: Vec<String> = on_path[pos..].iter().map(|s| s.to_string()).collect();
                // Rotate so the smallest class leads; dedupe globally.
                let min = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| c.as_str())
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                let mut normalized = cycle[min..].to_vec();
                normalized.extend_from_slice(&cycle[..min]);
                if seen_cycles.insert(normalized.clone()) {
                    report_cycle(&normalized, &edges, out);
                }
                continue;
            }
            // Bound the search: only explore from `start` downward so
            // each cycle is found from its smallest member.
            if succ < start || stack.iter().any(|(n, _)| *n == succ) {
                continue;
            }
            stack.push((succ, 0));
            on_path.push(succ);
        }
    }
}

fn report_cycle(
    cycle: &[String],
    edges: &BTreeMap<(String, String), LockEdge>,
    out: &mut Vec<Diagnostic>,
) {
    let ring: String = cycle
        .iter()
        .chain(cycle.first())
        .map(|c| format!("`{c}`"))
        .collect::<Vec<_>>()
        .join(" -> ");
    let mut parts = Vec::new();
    let mut anchor: Option<(&str, u32)> = None;
    for i in 0..cycle.len() {
        let held = &cycle[i];
        let acquired = &cycle[(i + 1) % cycle.len()];
        if let Some(e) = edges.get(&(held.clone(), acquired.clone())) {
            parts.push(format!(
                "`{held}` -> `{acquired}` via {}",
                e.witness.join(" -> ")
            ));
            if anchor.is_none() {
                anchor = Some((e.path.as_str(), e.line));
            }
        }
    }
    let (path, line) = anchor.unwrap_or(("<unknown>", 0));
    out.push(Diagnostic {
        code: "R5v2",
        rule: "lock-order-graph",
        path: path.to_string(),
        line,
        message: format!(
            "lock-order cycle {ring}: {}; pick one acquisition order workspace-wide \
             (the runtime witness in wsrc_obs::sync panics on the same inversion)",
            parts.join("; ")
        ),
    });
}

/// R9: deny blocking while any guard is held.
fn check_r9(ws: &Workspace, cg: &CallGraph, summaries: &[Summary], out: &mut Vec<Diagnostic>) {
    for (fi, f) in ws.fns.iter().enumerate() {
        let path = &ws.paths[f.file];
        for b in &f.blocking {
            let mut held = b.held.clone();
            if let Some(rel) = &b.releases {
                // A condvar wait releases the guard it consumes; if
                // that was the only lock held, blocking is legitimate.
                if let Some(pos) = held.iter().position(|h| h == rel) {
                    held.remove(pos);
                }
            }
            if held.is_empty() {
                continue;
            }
            out.push(Diagnostic {
                code: "R9",
                rule: "no-blocking-under-lock",
                path: path.clone(),
                line: b.line,
                message: format!(
                    "`{}` may block while holding lock(s) {}; a stalled guard starves \
                     every thread contending for it — release before blocking",
                    b.what,
                    held_list(&held)
                ),
            });
        }
        for &(ci, callee) in &cg.resolved[fi] {
            let call = &f.calls[ci];
            if call.held.is_empty() {
                continue;
            }
            if let Some((what, w)) = &summaries[callee].blocks {
                let mut chain = vec![frame(ws, fi, call.line)];
                chain.extend(w.iter().cloned());
                out.push(Diagnostic {
                    code: "R9",
                    rule: "no-blocking-under-lock",
                    path: path.clone(),
                    line: call.line,
                    message: format!(
                        "call to `{}` may block (`{}` via {}) while holding lock(s) {}; \
                         release the guard before calling into blocking code",
                        ws.fns[callee].qualified(),
                        what,
                        chain.join(" -> "),
                        held_list(&call.held)
                    ),
                });
            }
        }
    }
}

fn held_list(held: &[String]) -> String {
    held.iter()
        .map(|h| format!("`{h}`"))
        .collect::<Vec<_>>()
        .join(", ")
}

const SIZING_IDENTS: &[&str] = &["approximate_size", "deep_size", "len", "size_of"];

/// R10: budget accounting for stored representations.
fn check_r10(ws: &Workspace, cg: &CallGraph, files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    for em in ws.enums.iter().filter(|e| e.name == "StoredResponse") {
        let path = &ws.paths[em.file];
        // The sizing function must live next to the enum declaration.
        let Some(size_fn) = ws.fns.iter().find(|f| {
            f.file == em.file
                && f.name == "approximate_size"
                && f.owner.as_deref() == Some("StoredResponse")
        }) else {
            out.push(Diagnostic {
                code: "R10",
                rule: "budget-accounting",
                path: path.clone(),
                line: em.line,
                message: "`StoredResponse` has no same-file `approximate_size` impl; \
                          every representation must be chargeable to the store's byte budget"
                    .to_string(),
            });
            continue;
        };
        let tokens = &files[em.file].tokens;
        let (open, close) = size_fn.body;
        // Wildcard arms silently default-size future representations.
        for k in open + 1..close {
            if tokens[k].is_ident("_")
                && tokens.get(k + 1).is_some_and(|n| n.is_punct('='))
                && tokens.get(k + 2).is_some_and(|n| n.is_punct('>'))
            {
                out.push(Diagnostic {
                    code: "R10",
                    rule: "budget-accounting",
                    path: path.clone(),
                    line: tokens[k].line,
                    message: "wildcard `_` arm in `StoredResponse::approximate_size` lets a \
                              new representation default-size silently; enumerate every variant"
                        .to_string(),
                });
            }
        }
        // Per-variant sizing: each or-pattern group's arm body must
        // compute a size.
        let names: BTreeSet<&str> = em.variants.iter().map(|(n, _)| n.as_str()).collect();
        let mut occurrences: Vec<(usize, &str)> = Vec::new();
        for k in open + 1..close {
            if tokens[k].kind == crate::lexer::TokenKind::Ident {
                if let Some(n) = names.get(tokens[k].text.as_str()) {
                    occurrences.push((k, n));
                }
            }
        }
        let mut sized: BTreeSet<&str> = BTreeSet::new();
        let mut group: Vec<&str> = Vec::new();
        for (oi, &(tok, variant)) in occurrences.iter().enumerate() {
            group.push(variant);
            let end = occurrences.get(oi + 1).map(|&(t, _)| t).unwrap_or(close);
            let span = &tokens[tok..end];
            let has_arrow = span
                .windows(2)
                .any(|w| w[0].is_punct('=') && w[1].is_punct('>'));
            if !has_arrow {
                continue; // same or-pattern group as the next variant
            }
            let sizes = span.iter().any(|t| {
                (t.kind == crate::lexer::TokenKind::Ident
                    && SIZING_IDENTS.contains(&t.text.as_str()))
                    || t.kind == crate::lexer::TokenKind::Literal
            });
            if sizes {
                for v in group.drain(..) {
                    sized.insert(v);
                }
            } else {
                group.clear();
            }
        }
        for (variant, line) in &em.variants {
            if !sized.contains(variant.as_str()) {
                out.push(Diagnostic {
                    code: "R10",
                    rule: "budget-accounting",
                    path: path.clone(),
                    line: *line,
                    message: format!(
                        "variant `{variant}` computes no size in \
                         `StoredResponse::approximate_size` (expected `approximate_size`, \
                         `deep_size`, `len` or an explicit constant); unsized \
                         representations escape the byte budget"
                    ),
                });
            }
        }
    }
    // Every CacheStore entry point accepting a StoredResponse (a form
    // swapped in) or a CacheEntry (an insert) must charge it to the
    // budget somewhere on its call path.
    let mut reach_memo: HashMap<usize, bool> = HashMap::new();
    for (fi, f) in ws.fns.iter().enumerate() {
        let Some(stored_param) = f
            .param_types
            .iter()
            .find(|t| *t == "StoredResponse" || *t == "CacheEntry")
        else {
            continue;
        };
        if f.owner.as_deref() != Some("CacheStore") {
            continue;
        }
        let mut visiting = BTreeSet::new();
        if !reaches_approx(fi, ws, cg, &mut reach_memo, &mut visiting) {
            out.push(Diagnostic {
                code: "R10",
                rule: "budget-accounting",
                path: ws.paths[f.file].clone(),
                line: f.line,
                message: format!(
                    "`CacheStore::{}` accepts a `{stored_param}` but never calls \
                     `approximate_size` on any path; entries inserted here escape \
                     the byte budget",
                    f.name
                ),
            });
        }
    }
}

fn reaches_approx(
    fi: usize,
    ws: &Workspace,
    cg: &CallGraph,
    memo: &mut HashMap<usize, bool>,
    visiting: &mut BTreeSet<usize>,
) -> bool {
    if let Some(&r) = memo.get(&fi) {
        return r;
    }
    if !visiting.insert(fi) {
        return false;
    }
    let mut r = ws.fns[fi]
        .calls
        .iter()
        .any(|c| c.name == "approximate_size");
    if !r {
        r = cg.resolved[fi]
            .iter()
            .any(|&(_, callee)| reaches_approx(callee, ws, cg, memo, visiting));
    }
    visiting.remove(&fi);
    memo.insert(fi, r);
    r
}
