//! `wsrc-analyze`: dependency-free static analysis for the wsrcache
//! workspace.
//!
//! The paper's "optimal configuration" (§6) is only sound under a few
//! invariants; most are enforced by clippy, the compiler, the debug
//! lock witness in `wsrc_obs::sync` or a test (the table in `DESIGN.md`
//! §7 says which). What is left here are the three that need a token
//! model of the source: deep immutability of shared cache values (R1 —
//! stable Rust has no `Freeze` bound), acquire/release discipline (R2)
//! and zero-copy payload sharing (R6).

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod scan;

pub use rules::{Diagnostic, RULES};
use scan::SourceFile;
use std::path::{Path, PathBuf};

/// Directory names never descended into during a workspace walk.
/// `corpus` is excluded here so fixtures don't fail the workspace gate,
/// but an explicitly named corpus path *is* scanned (that is how the
/// fixture tests exercise the rules).
const SKIP_DIRS: &[&str] = &["target", "corpus", ".git"];

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
/// diagnostics, sorted by path and line. Unreadable files are skipped.
pub fn analyze_paths(paths: &[PathBuf]) -> Vec<Diagnostic> {
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
    rules::run(&sources)
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
