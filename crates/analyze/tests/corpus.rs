//! End-to-end tests: the `wsrc-analyze` binary against the fixture
//! corpus, plus the workspace-is-clean gate.
//!
//! Every rule has at least one triggering and one clean fixture; the
//! binary must exit non-zero under `--deny` for triggers and zero for
//! clean files.

use std::path::{Path, PathBuf};
use std::process::Command;

fn corpus(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name)
}

/// Runs `wsrc-analyze --deny` on `paths`; returns (exit-ok, stdout).
fn run_deny(paths: &[PathBuf]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_wsrc-analyze"))
        .arg("--deny")
        .args(paths)
        .output()
        .expect("spawn wsrc-analyze");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn assert_triggers(fixture: &str, code: &str) {
    let (ok, stdout) = run_deny(&[corpus(fixture)]);
    assert!(!ok, "{fixture} must fail --deny; output:\n{stdout}");
    assert!(
        stdout.contains(&format!("[{code}/")),
        "{fixture} must report {code}; output:\n{stdout}"
    );
}

fn assert_clean(fixture: &str) {
    let (ok, stdout) = run_deny(&[corpus(fixture)]);
    assert!(ok, "{fixture} must pass --deny; output:\n{stdout}");
    assert!(stdout.contains("no violations"), "output:\n{stdout}");
}

#[test]
fn r1_fixtures() {
    assert_triggers("r1_trigger.rs", "R1");
    assert_clean("r1_clean.rs");
}

/// The copy-on-write value model: R1 follows `Value` through its block
/// handles and its shape handle.
#[test]
fn r1_shared_node_fixtures() {
    let (ok, stdout) = run_deny(&[corpus("r1_shared_node_trigger.rs")]);
    assert!(!ok, "the trigger must fail --deny; output:\n{stdout}");
    assert!(stdout.contains("[R1/repr-safety]"), "output:\n{stdout}");
    assert!(
        stdout.contains("`Mutex` inside `FieldIndex`"),
        "the lock is found two hops down the shape handle; output:\n{stdout}"
    );
    assert!(
        stdout.contains("`OnceLock` inside `TextBlock`"),
        "the cell is found behind the block handle; output:\n{stdout}"
    );
    assert!(
        stdout.contains("copy-on-write"),
        "the message says what they would defeat; output:\n{stdout}"
    );
    assert_clean("r1_shared_node_clean.rs");
}

#[test]
fn r2_fixtures() {
    assert_triggers("r2_trigger.rs", "R2");
    assert_clean("r2_clean.rs");
}

#[test]
fn r6_fixtures() {
    assert_triggers("r6_trigger.rs", "R6");
    assert_clean("r6_clean.rs");
}

/// Parser-span extension of R6: every owned copy of a reader input span
/// is flagged; the reader has no sanctioned copy site.
#[test]
fn r6_parser_fixtures() {
    let (ok, stdout) = run_deny(&[corpus("r6_parser_trigger.rs")]);
    assert!(
        !ok,
        "r6_parser_trigger.rs must fail --deny; output:\n{stdout}"
    );
    assert!(
        stdout.contains("[R6/zero-copy-pipeline]"),
        "output:\n{stdout}"
    );
    for what in ["`.to_string()`", "`.to_owned()`", "`String::from(…)`"] {
        assert!(
            stdout.contains(what),
            "all three copy shapes flagged ({what}); output:\n{stdout}"
        );
    }
    assert_clean("r6_parser_clean.rs");
}

/// Satellite gate: the analyzer's own sources must satisfy its rules.
#[test]
fn analyzer_self_check_is_clean() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let (ok, stdout) = run_deny(&[src]);
    assert!(ok, "analyzer sources must be deny-clean; output:\n{stdout}");
}

/// The tier-1 gate: the workspace's own sources must be deny-clean.
/// The walker skips `target/` and `corpus/` on descent, so this scans
/// exactly what `scripts/verify.sh` gates.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let (ok, stdout) = run_deny(&[root.join("crates"), root.join("src")]);
    assert!(ok, "workspace must be deny-clean; output:\n{stdout}");
}
