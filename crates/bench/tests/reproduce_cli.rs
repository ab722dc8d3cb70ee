//! `reproduce` refuses what it does not know instead of running without
//! it.

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
