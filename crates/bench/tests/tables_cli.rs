//! Command-line contract of the `tables` binary: a bad option or value
//! exits 2 with one error line naming the valid values, and a reader that
//! closes the pipe early ends the run cleanly.

use std::io::BufRead;
use std::process::{Command, Output, Stdio};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("run tables")
}

/// Runs `tables <args>` and checks it exits 2 having printed nothing on
/// stdout and exactly one stderr line that contains each of `names`.
fn assert_rejected(args: &[&str], names: &[&str]) {
    let out = tables(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "tables {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "tables {args:?} printed a table");
    assert_eq!(stderr.lines().count(), 1, "one error line: {stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    for name in names {
        assert!(stderr.contains(name), "`{name}` missing from: {stderr}");
    }
}

#[test]
fn misspelt_experiment_exits_2_listing_the_experiments() {
    assert_rejected(
        &["--exp", "ext-trackng"],
        &["ext-trackng", "ext-tracking", "ext-dense", "fig7", "all"],
    );
}

#[test]
fn misspelt_fidelity_exits_2_listing_the_fidelities() {
    assert_rejected(&["--fidelity", "papr"], &["papr", "fast", "paper"]);
}

#[test]
fn non_numeric_seed_exits_2() {
    assert_rejected(&["--seed", "x"], &["`x`", "integer"]);
}

#[test]
fn missing_value_and_unknown_flag_exit_2() {
    assert_rejected(&["--exp"], &["--exp"]);
    assert_rejected(&["--fidelity", "paper", "--bogus"], &["--bogus", "--seed"]);
}

/// `tables --exp all` under two readers that close the pipe early: one
/// that takes one line and leaves (`| head -1`), and one that is gone
/// before the first write. Both must leave `tables` exiting 0 without a
/// panic.
#[test]
fn closed_pipe_ends_the_run_cleanly() {
    for read_first_line in [true, false] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tables"))
            .args(["--exp", "all"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn tables");
        let stdout = child.stdout.take().expect("piped stdout");
        if read_first_line {
            let mut line = String::new();
            std::io::BufReader::new(stdout)
                .read_line(&mut line)
                .expect("read one line");
            assert!(line.starts_with("== Table 1"), "first line: {line}");
        } else {
            drop(stdout);
        }
        let out = child.wait_with_output().expect("wait for tables");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "read_first_line={read_first_line}: {:?}\n{stderr}",
            out.status
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
