//! End-to-end test of the `talon` CLI binary: the measure → record →
//! re-analyse workflow through actual process invocations and files.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn talon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_talon"))
}

/// A fresh scratch directory for one use: keyed by `name`, the process id
/// and a per-process counter, so concurrently running tests never share
/// (or delete) each other's files.
fn workdir(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("talon-cli-{name}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn full_cli_workflow() {
    let dir = workdir("full_cli_workflow");
    let patterns = dir.join("patterns.txt");
    let dataset = dir.join("dataset.txt");
    let brd = dir.join("codebook.brd");

    // campaign: measure coarse patterns.
    let out = talon()
        .args([
            "campaign",
            "--out",
            patterns.to_str().unwrap(),
            "--scan",
            "coarse",
        ])
        .output()
        .expect("run campaign");
    assert!(
        out.status.success(),
        "campaign: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(patterns.exists());

    // record: conference-room dataset with matching patterns.
    let out = talon()
        .args([
            "record",
            "--scenario",
            "conference",
            "--out",
            dataset.to_str().unwrap(),
            "--patterns-out",
            patterns.to_str().unwrap(),
        ])
        .output()
        .expect("run record");
    assert!(
        out.status.success(),
        "record: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // analyze: offline re-analysis must print the comparison table.
    let out = talon()
        .args([
            "analyze",
            "--dataset",
            dataset.to_str().unwrap(),
            "--patterns",
            patterns.to_str().unwrap(),
            "--probes",
            "8,14",
        ])
        .output()
        .expect("run analyze");
    assert!(
        out.status.success(),
        "analyze: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CSS stability"), "table printed: {stdout}");
    assert!(stdout.contains("14"), "requested probe row present");

    // sls: one compressive training.
    let out = talon()
        .args(["sls", "--scenario", "lab", "--policy", "css", "--yaw", "20"])
        .output()
        .expect("run sls");
    assert!(
        out.status.success(),
        "sls: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("selected sector"), "{stdout}");
    assert!(stdout.contains("0.553 ms"), "compressive timing: {stdout}");

    // brd: export + verify.
    let out = talon()
        .args(["brd", "--out", brd.to_str().unwrap()])
        .output()
        .expect("run brd export");
    assert!(out.status.success());
    let out = talon()
        .args(["brd", "--check", brd.to_str().unwrap()])
        .output()
        .expect("run brd check");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("valid board file"));

    // A corrupted board file must fail the check.
    let mut bytes = std::fs::read(&brd).unwrap();
    bytes[30] ^= 0xFF;
    std::fs::write(&brd, bytes).unwrap();
    let out = talon()
        .args(["brd", "--check", brd.to_str().unwrap()])
        .output()
        .expect("run brd check on corrupt file");
    assert!(!out.status.success(), "corrupt board file rejected");

    // Unknown command exits non-zero with usage.
    let out = talon().args(["bogus"]).output().expect("run bogus");
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn top_fails_fast_with_one_clear_line_when_endpoint_is_unreachable() {
    // Port 1 is reserved and nothing listens on it: `talon top` must exit
    // non-zero with a single actionable error line, not a raw io backtrace
    // or an empty dashboard.
    let out = talon()
        .args(["top", "--addr", "127.0.0.1:1", "--frames", "1"])
        .output()
        .expect("run top against a dead endpoint");
    assert!(!out.status.success(), "dead endpoint is an error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "one line, not a dump: {stderr}");
    assert!(
        stderr.contains("127.0.0.1:1") && stderr.contains("talon serve"),
        "names the address and the fix: {stderr}"
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).is_empty(),
        "no partial dashboard on stdout"
    );
}

#[test]
fn report_json_counts_kernel_paths_across_decisions() {
    let dir = workdir("report_json_counts_kernel_paths_across_decisions");
    let trace = dir.join("kernel-paths.jsonl");
    let out = talon()
        .args([
            "sls",
            "--scenario",
            "lab",
            "--policy",
            "css",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("run traced sls");
    assert!(
        out.status.success(),
        "sls: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = talon()
        .args(["report", trace.to_str().unwrap(), "--json"])
        .output()
        .expect("run report --json");
    assert!(out.status.success());
    let json =
        serde::Value::from_json(&String::from_utf8_lossy(&out.stdout)).expect("report JSON parses");
    let decisions = json
        .get("decisions")
        .and_then(serde::Value::as_u64)
        .expect("decision count");
    assert!(decisions > 0, "traced CSS run recorded decisions");
    let kernel_paths = json
        .get("kernel_paths")
        .and_then(serde::Value::as_map)
        .expect("kernel_paths map present");
    let total: u64 = kernel_paths
        .iter()
        .filter_map(|(_, v)| serde::Value::as_u64(v))
        .sum();
    assert_eq!(
        total, decisions,
        "every decision lands in exactly one kernel-path bucket: {kernel_paths:?}"
    );
    for (path, _) in kernel_paths {
        assert!(
            ["f64", "f32", "q15"].contains(&path.as_str()),
            "known kernel path: {path}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
