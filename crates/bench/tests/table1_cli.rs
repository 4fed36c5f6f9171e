//! `table1`'s error exits through the real binary: a file it cannot write
//! or read, and a removed flag, each print one stderr line and exit 2 —
//! never a panic (exit 101).

use std::process::{Command, Output};

fn table1(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_table1")).args(args).output().expect("table1 runs")
}

fn assert_exit_2(output: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains(message), "expected `{message}` in:\n{stderr}");
}

#[test]
fn io_failures_and_removed_flags_exit_2_without_a_panic() {
    let missing = std::env::temp_dir()
        .join(format!("rapids_table1_cli_{}", std::process::id()))
        .join("no_such_dir/out.json");
    let missing = missing.to_str().unwrap();

    assert_exit_2(&table1(&["--fast", "c432", "--qor-out", missing]), "cannot write QoR report");
    // An unknown design name keeps the run empty.
    assert_exit_2(&table1(&["no_such_design", "--trace-out", missing]), "cannot write trace");
    assert_exit_2(&table1(&["--check", missing]), "cannot read expected QoR report");
    assert_exit_2(&table1(&["--json", "out.json"]), "unknown option --json");
}
