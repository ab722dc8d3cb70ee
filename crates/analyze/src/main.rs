//! CLI for the workspace static analyzer.
//!
//! ```text
//! wsrc-analyze [PATH ...] [--deny]
//! ```
//!
//! With no paths, scans the current directory. `--deny` exits non-zero
//! when any violation is found — this is the mode `scripts/verify.sh`
//! runs as a tier-1 gate.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: wsrc-analyze [PATH ...] [--deny]");
    eprintln!();
    eprintln!("rules:");
    for (code, id, summary) in wsrc_analyze::RULES {
        eprintln!("  {code} {id:<22} {summary}");
    }
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut deny = false;

    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny" => deny = true,
            other if other.starts_with('-') => usage(),
            other => paths.push(PathBuf::from(other)),
        }
    }
    if paths.is_empty() {
        paths.push(PathBuf::from("."));
    }

    let diagnostics = wsrc_analyze::analyze_paths(&paths);
    print!("{}", wsrc_analyze::render_text(&diagnostics));

    if deny && !diagnostics.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
