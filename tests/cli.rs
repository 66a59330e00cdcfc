//! End-to-end test of the `talon` CLI binary: the measure → record →
//! re-analyse workflow through actual process invocations and files.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn talon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_talon"))
}

/// The committed cross-version replay fixture.
fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/replay_lab_fast_seed7.bin")
}

/// Runs talon with `args`, asserting success; returns stdout.
fn run_ok(args: &[&str]) -> String {
    let out = talon().args(args).output().expect("run talon");
    assert!(
        out.status.success(),
        "talon {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
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
    let trace = dir.join("kernel-paths.bin");
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

#[test]
fn trace_path_after_an_option_value_is_found() {
    // The value of an option (`2`, `3`) is not the positional trace path.
    let fixture = fixture();
    let fixture = fixture.to_str().unwrap();
    let stdout = run_ok(&["replay", "--threads", "2", fixture]);
    assert!(stdout.contains("replayed 60/64 "), "{stdout}");
    let stdout = run_ok(&["report", "--top", "3", fixture, "--critical-path"]);
    assert!(stdout.contains("trace(s)"), "{stdout}");
    let stdout = run_ok(&["report", "--json", fixture]);
    assert!(serde::Value::from_json(&stdout).is_ok(), "{stdout}");
}

#[test]
fn trace_flag_rejects_a_jsonl_path_with_one_line() {
    let dir = workdir("trace_flag_rejects_a_jsonl_path");
    let path = dir.join("t.jsonl");
    let out = talon()
        .args(["sls", "--scenario", "lab", "--policy", "css"])
        .args(["--trace", path.to_str().unwrap()])
        .output()
        .expect("run sls");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("talon trace convert"), "{stderr}");
    assert!(!path.exists(), "no file is created");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exported_jsonl_is_exactly_what_the_soak_prices() {
    let dir = workdir("exported_jsonl_is_exactly_what_the_soak_prices");
    let bin = dir.join("t.bin");
    let jsonl = dir.join("t.jsonl");
    run_ok(&[
        "sls",
        "--scenario",
        "lab",
        "--policy",
        "css",
        "--trace",
        bin.to_str().unwrap(),
    ]);
    let stdout = run_ok(&[
        "trace",
        "convert",
        bin.to_str().unwrap(),
        jsonl.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&jsonl).expect("export written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        stdout.contains(&format!(": {} record(s) (", lines.len())),
        "convert prints the line count: {stdout}"
    );

    // Price the binary trace the way `eval::soak::account_phase` does.
    // The export stamps its snapshot line with the converter's clock, so
    // read that one timestamp back from the file.
    let mut snapshot_ts = None;
    for line in &lines {
        let value = serde::Value::from_json(line).expect("every line is JSON");
        assert!(value.get("schema_version").is_some(), "{line}");
        let kind = value.get("kind").and_then(serde::Value::as_str);
        assert!(kind.is_some(), "{line}");
        if kind == Some("snapshot") {
            snapshot_ts = value.get("ts_us").and_then(serde::Value::as_u64);
        }
    }
    let snapshot_ts = snapshot_ts.expect("closing snapshot line");
    let mut reader = obs::binfmt::FileBinReader::open(&bin).expect("binary trace opens");
    let mut priced = 0u64;
    let mut records = 0usize;
    while let Some(record) = reader.next_record().expect("current schema") {
        priced += obs::sink::record_line(&record, snapshot_ts).to_json().len() as u64 + 1;
        records += 1;
    }
    assert_eq!(reader.skipped(), 0);
    assert_eq!(records, lines.len());
    assert_eq!(
        std::fs::metadata(&jsonl).unwrap().len(),
        priced,
        "export size equals the soak's JSONL price"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_exits_cleanly_when_its_reader_closes_the_pipe() {
    use std::io::BufRead;
    use std::process::Stdio;
    let fixture = fixture();
    let spawn = || {
        talon()
            .args(["report", fixture.to_str().unwrap()])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn talon report")
    };
    // A reader that takes one line and leaves (`| head -n 1`), and one
    // that is gone before the first write (`| grep -q` on a fast match),
    // which makes the write fail with a broken pipe every time.
    for read_first_line in [true, false] {
        let mut child = spawn();
        let stdout = child.stdout.take().expect("piped stdout");
        if read_first_line {
            let mut line = String::new();
            std::io::BufReader::new(stdout)
                .read_line(&mut line)
                .expect("read one line");
            assert!(!line.is_empty(), "report printed nothing");
        } else {
            drop(stdout);
        }
        let out = child.wait_with_output().expect("wait for talon");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "read_first_line={read_first_line}: {:?}\n{stderr}",
            out.status
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
