//! End-to-end tests: the `wsrc-analyze` binary against the fixture
//! corpus, plus the workspace-is-clean gate.
//!
//! Every rule — token-level R1–R4, R6–R8 and interprocedural
//! R5v2/R9/R10 —
//! has at least one triggering and one clean fixture; the binary must
//! exit non-zero under `--deny` for triggers and zero for clean files.

use std::path::{Path, PathBuf};
use std::process::Command;

fn corpus(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name)
}

/// Runs `wsrc-analyze --deny` on `paths`; returns (exit-ok, stdout).
fn run_deny(paths: &[PathBuf], extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_wsrc-analyze"))
        .arg("--deny")
        .args(extra)
        .args(paths)
        .output()
        .expect("spawn wsrc-analyze");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn assert_triggers(fixture: &str, code: &str) {
    let (ok, stdout) = run_deny(&[corpus(fixture)], &[]);
    assert!(!ok, "{fixture} must fail --deny; output:\n{stdout}");
    assert!(
        stdout.contains(&format!("[{code}/")),
        "{fixture} must report {code}; output:\n{stdout}"
    );
}

fn assert_clean(fixture: &str) {
    let (ok, stdout) = run_deny(&[corpus(fixture)], &[]);
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
    let (ok, stdout) = run_deny(&[corpus("r1_shared_node_trigger.rs")], &[]);
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
fn r3_fixtures() {
    assert_triggers("r3_trigger.rs", "R3");
    assert_clean("r3_clean.rs");
}

#[test]
fn r4_fixtures() {
    assert_triggers("r4_trigger.rs", "R4");
    assert_clean("r4_clean.rs");
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
    let (ok, stdout) = run_deny(&[corpus("r6_parser_trigger.rs")], &[]);
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

#[test]
fn r7_fixtures() {
    assert_triggers("r7_trigger.rs", "R7");
    assert_clean("r7_clean.rs");
}

#[test]
fn r8_fixtures() {
    assert_triggers("r8_trigger.rs", "R8");
    assert_clean("r8_clean.rs");
}

#[test]
fn r5v2_fixtures() {
    // The trigger nests no guards in any single function — only the
    // workspace acquisition graph sees the inversion, and the
    // diagnostic must carry the full call-chain witness for both edges.
    let (ok, stdout) = run_deny(&[corpus("r5v2_trigger.rs")], &[]);
    assert!(!ok, "r5v2_trigger.rs must fail --deny; output:\n{stdout}");
    assert!(
        stdout.contains("[R5v2/lock-order-graph]"),
        "output:\n{stdout}"
    );
    assert!(stdout.contains("lock-order cycle"), "output:\n{stdout}");
    for class in ["PairAlphaBeta.alpha", "PairAlphaBeta.beta"] {
        assert!(
            stdout.contains(class),
            "cycle must name class {class}; output:\n{stdout}"
        );
    }
    // Both witness chains: the caller frame and the callee frame where
    // the second lock is actually taken.
    for frame in ["r5v2_ab", "r5v2_take_beta", "r5v2_ba", "r5v2_take_alpha"] {
        assert!(
            stdout.contains(frame),
            "witness must include frame {frame}; output:\n{stdout}"
        );
    }
    assert!(
        stdout.contains(" -> "),
        "witness chain arrows; output:\n{stdout}"
    );
    assert_clean("r5v2_clean.rs");
}

#[test]
fn r9_fixtures() {
    let (ok, stdout) = run_deny(&[corpus("r9_trigger.rs")], &[]);
    assert!(!ok, "r9_trigger.rs must fail --deny; output:\n{stdout}");
    assert!(
        stdout.contains("[R9/no-blocking-under-lock]"),
        "output:\n{stdout}"
    );
    // Direct blocking under the guard…
    assert!(
        stdout.contains("GammaState.gamma"),
        "held lock named; output:\n{stdout}"
    );
    // …and the transitive case must carry the call-chain witness.
    assert!(
        stdout.contains("r9_blocking_helper"),
        "transitive witness; output:\n{stdout}"
    );
    assert_clean("r9_clean.rs");
}

#[test]
fn r10_fixtures() {
    let (ok, stdout) = run_deny(&[corpus("r10_trigger.rs")], &[]);
    assert!(!ok, "r10_trigger.rs must fail --deny; output:\n{stdout}");
    assert!(
        stdout.contains("[R10/budget-accounting]"),
        "output:\n{stdout}"
    );
    assert!(
        stdout.contains("wildcard"),
        "wildcard arm flagged; output:\n{stdout}"
    );
    assert!(
        stdout.contains("`TinyBlob`"),
        "unsized variant flagged; output:\n{stdout}"
    );
    assert!(
        stdout.contains("`CacheStore::r10t_insert`"),
        "uncharged insert path flagged; output:\n{stdout}"
    );
    assert_clean("r10_clean.rs");
}

/// Lock-relevant calls the resolver cannot bind are reported, not
/// silently dropped — and they never fail `--deny` on their own.
#[test]
fn unresolved_bucket_is_reported() {
    let out = Command::new(env!("CARGO_BIN_EXE_wsrc-analyze"))
        .arg("--deny")
        .arg("--unresolved")
        .arg(corpus("unresolved_bucket.rs"))
        .output()
        .expect("spawn wsrc-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "unresolved calls alone must not fail --deny; output:\n{stdout}"
    );
    assert!(stdout.contains("no violations"), "output:\n{stdout}");
    assert!(
        stdout.contains("unresolved call `acquire_omega`"),
        "ambiguous site listed; output:\n{stdout}"
    );
    assert!(
        stdout.contains("OmegaOne::acquire_omega") && stdout.contains("OmegaTwo::acquire_omega"),
        "both candidates listed; output:\n{stdout}"
    );
    assert!(
        stdout.contains("1 lock-relevant unresolved call(s)"),
        "bucket summary; output:\n{stdout}"
    );
}

/// Satellite gate: the analyzer's own sources must satisfy its rules.
#[test]
fn analyzer_self_check_is_clean() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let (ok, stdout) = run_deny(&[src], &[]);
    assert!(ok, "analyzer sources must be deny-clean; output:\n{stdout}");
}

#[test]
fn sarif_output_from_binary() {
    let (ok, stdout) = run_deny(&[corpus("r5v2_trigger.rs")], &["--sarif"]);
    assert!(!ok, "trigger still fails --deny under --sarif");
    assert!(
        stdout.contains("\"version\":\"2.1.0\""),
        "output:\n{stdout}"
    );
    assert!(stdout.contains("\"ruleId\":\"R5v2\""), "output:\n{stdout}");
    assert!(stdout.contains("r5v2_trigger.rs"), "output:\n{stdout}");
}

#[test]
fn suppression_fixtures() {
    assert_clean("suppressed.rs");
    // A reason-less wsrc-allow is reported (S0) and does not silence R2.
    let (ok, stdout) = run_deny(&[corpus("bad_suppression.rs")], &[]);
    assert!(!ok, "bad_suppression.rs must fail --deny");
    assert!(stdout.contains("[S0/suppression]"), "output:\n{stdout}");
    assert!(
        stdout.contains("[R2/relaxed-ordering]"),
        "output:\n{stdout}"
    );
}

#[test]
fn whole_corpus_fails_deny() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let (ok, stdout) = run_deny(&[dir], &[]);
    assert!(!ok, "corpus as a whole must fail --deny");
    for code in [
        "R1", "R2", "R3", "R4", "R5v2", "R6", "R7", "R8", "R9", "R10", "S0",
    ] {
        assert!(
            stdout.contains(&format!("[{code}/")),
            "expected {code} in corpus scan; output:\n{stdout}"
        );
    }
}

#[test]
fn json_format_is_machine_readable() {
    let (ok, stdout) = run_deny(&[corpus("r4_trigger.rs")], &["--format", "json"]);
    assert!(!ok);
    assert!(stdout.starts_with("{\"version\":1,\"violations\":["));
    assert!(stdout.contains("\"code\":\"R4\""));
    assert!(stdout.contains("\"rule\":\"panic-freedom\""));
    assert!(stdout.contains("\"line\":"));
    assert!(stdout.trim_end().ends_with("\"count\":2}"));
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
    let (ok, stdout) = run_deny(&[root.join("crates"), root.join("src")], &[]);
    assert!(ok, "workspace must be deny-clean; output:\n{stdout}");
}
