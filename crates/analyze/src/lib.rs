//! `wsrc-analyze`: dependency-free static analysis for the wsrcache
//! workspace.
//!
//! The paper's "optimal configuration" (§6) is only sound under
//! invariants `rustc` cannot see — deep immutability of pass-by-reference
//! cache values, acquire/release discipline around coalescing state,
//! clock injection, panic-freedom on the hot path, lock ordering,
//! zero-copy payload sharing, bounded concurrency, and trace-root
//! discipline. This crate enforces them as named rules: token-level
//! R1–R4 and R6–R8 over a hand-rolled token model, and interprocedural
//! R5v2/R9/R10 over a conservative call graph (`model.rs` /
//! `callgraph.rs`) with per-function lock summaries — all with zero
//! external dependencies so the workspace keeps building offline. See
//! `README.md` for the suppression syntax and output schemas.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod scan;

pub use callgraph::UnresolvedSite;
pub use rules::{Diagnostic, RULES};
use scan::SourceFile;
use std::path::{Path, PathBuf};

/// Directory names never descended into during a workspace walk.
/// `corpus` is excluded here so fixtures don't fail the workspace gate,
/// but an explicitly named corpus path *is* scanned (that is how the
/// fixture tests exercise the rules).
const SKIP_DIRS: &[&str] = &["target", "corpus", ".git"];

/// A full analysis: diagnostics plus the call-resolution report.
pub struct Report {
    /// Unsuppressed diagnostics, sorted by (path, line, code), deduped.
    pub diagnostics: Vec<Diagnostic>,
    /// Lock-relevant call sites the resolver could not bind (sorted).
    /// These never fail `--deny`; they bound what the interprocedural
    /// rules were able to see.
    pub unresolved: Vec<UnresolvedSite>,
    /// Effect-free unresolved sites (counted, not listed: no candidate
    /// acquires a lock or blocks, so binding them cannot change any
    /// verdict).
    pub benign_unresolved: usize,
}

/// Collects every `.rs` file under `root` (or `root` itself if it is a
/// file), sorted for deterministic output.
fn collect_rs_files(root: &Path, out: &mut Vec<PathBuf>) {
    if root.is_file() {
        if root.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(root.to_path_buf());
        }
        return;
    }
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mut children: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    children.sort();
    for child in children {
        let name = child.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if child.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&child, out);
        } else if name.ends_with(".rs") {
            out.push(child);
        }
    }
}

/// Analyzes every `.rs` file reachable from `paths` and returns the
/// unsuppressed diagnostics, sorted by path and line. Unreadable files
/// are skipped.
pub fn analyze_paths(paths: &[PathBuf]) -> Vec<Diagnostic> {
    analyze_paths_full(paths).diagnostics
}

/// [`analyze_paths`], plus the unresolved-call bucket.
pub fn analyze_paths_full(paths: &[PathBuf]) -> Report {
    let mut files = Vec::new();
    for root in paths {
        collect_rs_files(root, &mut files);
    }
    files.sort();
    files.dedup();
    let sources: Vec<SourceFile> = files
        .iter()
        .filter_map(|p| {
            let text = std::fs::read_to_string(p).ok()?;
            Some(SourceFile::parse(&p.display().to_string(), &text))
        })
        .collect();
    let out = rules::run_full(&sources);
    Report {
        diagnostics: out.diagnostics,
        unresolved: out.unresolved,
        benign_unresolved: out.benign_unresolved,
    }
}

/// Renders diagnostics in the human-readable single-line format.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}:{}: [{}/{}] {}\n",
            d.path, d.line, d.code, d.rule, d.message
        ));
    }
    if diags.is_empty() {
        out.push_str("wsrc-analyze: no violations\n");
    } else {
        out.push_str(&format!("wsrc-analyze: {} violation(s)\n", diags.len()));
    }
    out
}

/// Renders the unresolved-call bucket (text form). Listed sites are the
/// lock-relevant ones; the benign remainder is summarized as a count so
/// nothing is silently dropped.
pub fn render_unresolved(report: &Report) -> String {
    let mut out = String::new();
    for u in &report.unresolved {
        out.push_str(&format!(
            "{}:{}: unresolved call `{}` (candidates: {})\n",
            u.path,
            u.line,
            u.name,
            u.candidates.join(", ")
        ));
    }
    out.push_str(&format!(
        "wsrc-analyze: {} lock-relevant unresolved call(s), {} benign\n",
        report.unresolved.len(),
        report.benign_unresolved
    ));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as the stable JSON schema documented in
/// `README.md`:
/// `{"version":1,"violations":[...],"unresolved":U,"benign_unresolved":B,"count":N}`.
/// `count` stays the final key so stream consumers keyed on the
/// original v1 schema keep working.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\"version\":1,\"violations\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"code\":\"{}\",\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            d.code,
            d.rule,
            json_escape(&d.path),
            d.line,
            json_escape(&d.message)
        ));
    }
    out.push_str(&format!(
        "],\"unresolved\":{},\"benign_unresolved\":{},\"count\":{}}}\n",
        report.unresolved.len(),
        report.benign_unresolved,
        report.diagnostics.len()
    ));
    out
}

/// Renders diagnostics as minimal SARIF 2.1.0 (one run, one result per
/// diagnostic) so CI can surface findings as GitHub annotations.
pub fn render_sarif(report: &Report) -> String {
    let mut out = String::from(
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
         \"name\":\"wsrc-analyze\",\"informationUri\":\
         \"https://example.invalid/wsrcache\",\"rules\":[",
    );
    for (i, (code, id, summary)) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"name\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
            json_escape(code),
            json_escape(id),
            json_escape(summary)
        ));
    }
    out.push_str("]}},\"results\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"[{}] {}\"}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
             \"region\":{{\"startLine\":{}}}}}}}]}}",
            json_escape(d.code),
            json_escape(d.rule),
            json_escape(&d.message),
            json_escape(&d.path),
            d.line.max(1)
        ));
    }
    out.push_str("]}]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(diags: Vec<Diagnostic>) -> Report {
        Report {
            diagnostics: diags,
            unresolved: Vec::new(),
            benign_unresolved: 0,
        }
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let diags = vec![Diagnostic {
            code: "R4",
            rule: "panic-freedom",
            path: "a\\b\"c.rs".to_string(),
            line: 7,
            message: "line1\nline2".to_string(),
        }];
        let json = render_json(&report(diags));
        assert!(json.starts_with("{\"version\":1,"));
        assert!(json.contains("\"path\":\"a\\\\b\\\"c.rs\""));
        assert!(json.contains("\"message\":\"line1\\nline2\""));
        assert!(json.trim_end().ends_with("\"count\":1}"));
    }

    #[test]
    fn empty_reports_render_cleanly() {
        assert!(render_text(&[]).contains("no violations"));
        assert_eq!(
            render_json(&report(Vec::new())),
            "{\"version\":1,\"violations\":[],\"unresolved\":0,\"benign_unresolved\":0,\"count\":0}\n"
        );
    }

    #[test]
    fn sarif_lists_rules_and_results() {
        let diags = vec![Diagnostic {
            code: "R9",
            rule: "no-blocking-under-lock",
            path: "crates/x.rs".to_string(),
            line: 3,
            message: "a \"quoted\" message".to_string(),
        }];
        let sarif = render_sarif(&report(diags));
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"id\":\"R5v2\""));
        assert!(sarif.contains("\"ruleId\":\"R9\""));
        assert!(sarif.contains("\"startLine\":3"));
        assert!(sarif.contains("a \\\"quoted\\\" message"));
    }
}
