//! `reproduce` refuses what it does not know instead of running without
//! it, runs every artifact it names, and prints the tables that measure
//! nothing as `results/reproduce_all.txt` records them.

use std::process::Command;

fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

#[test]
fn an_unknown_option_exits_2_with_the_usage_line() {
    let out = reproduce(&["--tcp", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran an artifact");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: reproduce"), "{stderr}");
}

#[test]
fn quick_table1_prints_table_1() {
    let out = reproduce(&["--quick", "table1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("Table 1."), "{stdout}");
    assert!(stdout.contains("doGoogleSearch"), "{stdout}");
}

/// The lines from the one starting with `heading` to the next blank
/// line.
fn block<'t>(text: &'t str, heading: &str) -> Vec<&'t str> {
    let lines = text.lines().skip_while(|line| !line.starts_with(heading));
    lines.take_while(|line| !line.is_empty()).collect()
}

/// Every artifact of `all` prints, and the tables that measure nothing
/// print the bytes recorded in `results/reproduce_all.txt`.
#[test]
fn quick_all_prints_the_recorded_fixed_tables() {
    let out = reproduce(&["--quick", "all"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for heading in [
        "Table 1.",
        "Table 2.",
        "Table 3.",
        "Table 4.",
        "Table 5.",
        "Table 6.",
        "Table 7.",
        "Table 8.",
        "Table 9.",
        "Section 6:",
        "Ablation:",
        "Figure 3 ",
        "Figure 4 ",
        "Speedups at 100%",
    ] {
        assert!(
            stdout.lines().any(|line| line.starts_with(heading)),
            "no {heading}"
        );
    }
    let recorded = include_str!("../../../results/reproduce_all.txt");
    for heading in [
        "Table 1.",
        "Table 2.",
        "Table 3.",
        "XML document:",
        "Table 5.",
        "Table 8.",
        "Table 9.",
        "Section 6:",
    ] {
        let expected = block(recorded, heading);
        assert!(!expected.is_empty(), "{heading} is not recorded");
        assert_eq!(block(&stdout, heading), expected, "{heading}");
    }
}

#[test]
fn quick_keys_prints_the_key_material() {
    let out = reproduce(&["--quick", "keys"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("toString key material"), "{stdout}");
}
