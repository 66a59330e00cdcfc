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

    // Unknown command exits non-zero with usage.
    let out = talon().args(["bogus"]).output().expect("run bogus");
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
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
fn exported_jsonl_size_equals_the_record_line_price() {
    let dir = workdir("exported_jsonl_size_equals_the_record_line_price");
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

    // Price the binary trace record by record with `record_line`, as
    // `tests/trace_cost.rs` does for its JSONL ratio.
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
        "export size equals the record_line price"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Folds `bytes` into a 64-bit FNV-1a digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Every JSON document the CLI writes about the committed fixture, pinned
/// by byte length and FNV-1a digest: a change to a field name, field
/// order, number format or nesting of `report --json`, `replay --json`
/// (agreeing and diverging) or the `trace convert` export moves a pin.
#[test]
fn json_outputs_of_the_fixture_are_pinned() {
    let fixture = fixture();
    let fixture = fixture.to_str().unwrap();
    let pins: [(&[&str], i32, usize, u64); 3] = [
        (
            &["report", fixture, "--json"],
            0,
            984,
            0xa37c_b1dc_c93f_d5e9,
        ),
        (
            &["replay", fixture, "--json", "--threads", "2"],
            0,
            143,
            0x4c08_8805_16af_570f,
        ),
        (
            &[
                "replay",
                fixture,
                "--json",
                "--perturb",
                "0.5",
                "--threads",
                "1",
            ],
            1,
            148_435,
            0xc25d_3322_6536_895f,
        ),
    ];
    for (args, code, len, digest) in pins {
        let out = talon().args(args).output().expect("run talon");
        assert_eq!(out.status.code(), Some(code), "talon {args:?}");
        assert_eq!(
            (out.stdout.len(), fnv1a(&out.stdout)),
            (len, digest),
            "talon {args:?}"
        );
    }

    let dir = workdir("json_outputs_of_the_fixture_are_pinned");
    let jsonl = dir.join("fixture.jsonl");
    run_ok(&["trace", "convert", fixture, jsonl.to_str().unwrap()]);
    let export = std::fs::read(&jsonl).expect("export written");
    assert_eq!(
        (export.len(), fnv1a(&export)),
        (101_985, 0x58b4_b1a2_be92_7954)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `talon <args>` under two readers that close the pipe early: one
/// that takes one line and leaves (`| head -n 1`), and one that is gone
/// before the first write (`| grep -q` on a fast match), which makes the
/// write fail with a broken pipe every time. Both must exit 0 with no
/// panic.
fn assert_exits_cleanly_when_its_reader_closes_the_pipe(args: &[&str]) {
    use std::io::BufRead;
    use std::process::Stdio;
    for read_first_line in [true, false] {
        let mut child = talon()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn talon");
        let stdout = child.stdout.take().expect("piped stdout");
        if read_first_line {
            let mut line = String::new();
            std::io::BufReader::new(stdout)
                .read_line(&mut line)
                .expect("read one line");
            assert!(!line.is_empty(), "talon {args:?} printed nothing");
        } else {
            drop(stdout);
        }
        let out = child.wait_with_output().expect("wait for talon");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "talon {args:?}, read_first_line={read_first_line}: {:?}\n{stderr}",
            out.status
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn report_exits_cleanly_when_its_reader_closes_the_pipe() {
    let fixture = fixture();
    assert_exits_cleanly_when_its_reader_closes_the_pipe(&["report", fixture.to_str().unwrap()]);
}

#[test]
fn replay_exits_cleanly_when_its_reader_closes_the_pipe() {
    let fixture = fixture();
    assert_exits_cleanly_when_its_reader_closes_the_pipe(&["replay", fixture.to_str().unwrap()]);
}

/// Runs talon with `args` and asserts it fails with exit `code` and one
/// `error:` line on stderr; returns that line.
fn run_fails(args: &[&str], code: i32) -> String {
    let out = talon().args(args).output().expect("run talon");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "talon {args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "talon {args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "talon {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "talon {args:?} printed to stdout");
    stderr
}

#[test]
fn bad_arguments_exit_2_with_one_error_line() {
    let fixture = fixture();
    let fixture = fixture.to_str().unwrap();
    let stderr = run_fails(&["sls", "--polcy", "css"], 2);
    assert!(stderr.contains("`--polcy`"), "{stderr}");
    let stderr = run_fails(&["replay", fixture, "--thread", "2"], 2);
    assert!(stderr.contains("`--thread`"), "{stderr}");
    // Every numeric option names the form it expects.
    for (args, form) in [
        (
            &["sls", "--scenario", "lab", "--seed", "x"][..],
            "--seed `x`: expected a non-negative integer",
        ),
        (
            &["sls", "--yaw", "x"][..],
            "--yaw `x`: expected a number of degrees",
        ),
        (
            &["replay", fixture, "--threads", "x"][..],
            "--threads `x`: expected a non-negative integer",
        ),
        (
            &["replay", fixture, "--perturb", "y"][..],
            "--perturb `y`: expected a number of dB",
        ),
        (
            &["report", fixture, "--top", "x"][..],
            "--top `x`: expected a non-negative integer",
        ),
        (
            &["profile", fixture, "--threads", "-1"][..],
            "--threads `-1`: expected a non-negative integer",
        ),
    ] {
        let stderr = run_fails(args, 2);
        assert!(stderr.contains(form), "{stderr}");
    }
    // `nan` and `±inf` parse as f64 but are no angle or offset.
    for value in ["nan", "inf", "-inf"] {
        let stderr = run_fails(&["sls", "--policy", "ssw", "--yaw", value], 2);
        assert!(
            stderr.contains(&format!("--yaw `{value}`: expected a number of degrees")),
            "{stderr}"
        );
        let stderr = run_fails(&["replay", fixture, "--perturb", value], 2);
        assert!(
            stderr.contains(&format!("--perturb `{value}`: expected a number of dB")),
            "{stderr}"
        );
    }
    for probes in ["0", "1", "35", "14,20"] {
        let stderr = run_fails(&["sls", "--policy", "css", "--probes", probes], 2);
        assert!(stderr.contains("--probes"), "{stderr}");
    }
    run_fails(
        &[
            "analyze",
            "--dataset",
            "d",
            "--patterns",
            "p",
            "--probes",
            "8,0",
        ],
        2,
    );
    // `profile` reads `--threads` and nothing else.
    let stderr = run_fails(&["profile", fixture, "--rate", "2000"], 2);
    assert!(stderr.contains("--threads"), "{stderr}");
    // A stray argument, and `--trace` on a command that reads traces: the
    // input is never opened as a sink, so it is not truncated.
    run_fails(&["report", fixture, fixture], 2);
    let before = std::fs::metadata(fixture).unwrap().len();
    run_fails(&["report", "--trace", fixture], 2);
    assert_eq!(std::fs::metadata(fixture).unwrap().len(), before);
}

#[test]
fn replay_and_profile_fail_when_nothing_is_replayable() {
    // An SSW session records its decisions as non-replayable: a replay
    // that re-executes none of them has verified nothing.
    let dir = workdir("replay_and_profile_fail_when_nothing_is_replayable");
    let trace = dir.join("ssw.bin");
    let trace = trace.to_str().unwrap();
    run_ok(&[
        "sls",
        "--scenario",
        "lab",
        "--policy",
        "ssw",
        "--trace",
        trace,
    ]);
    for cmd in ["replay", "profile"] {
        let stderr = run_fails(&[cmd, trace], 1);
        assert!(stderr.contains("is replayable"), "{cmd}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flame_folds_each_eval_unit_under_its_par_map_once() {
    // `analyze` runs each work unit as a trace of its own under an
    // `eval.par_map` span: the flame graph folds the units under that
    // span instead of printing them as extra roots and leaving their
    // time in its self time as well.
    let dir = workdir("flame_folds_each_eval_unit_under_its_par_map_once");
    let (dataset, patterns, trace) = (dir.join("ds.txt"), dir.join("pat.txt"), dir.join("an.bin"));
    let (dataset, patterns, trace) = (
        dataset.to_str().unwrap(),
        patterns.to_str().unwrap(),
        trace.to_str().unwrap(),
    );
    run_ok(&[
        "record",
        "--scenario",
        "lab",
        "--seed",
        "3",
        "--out",
        dataset,
        "--patterns-out",
        patterns,
    ]);
    run_ok(&[
        "analyze",
        "--dataset",
        dataset,
        "--patterns",
        patterns,
        "--probes",
        "14",
        "--seed",
        "3",
        "--trace",
        trace,
    ]);
    let folded = run_ok(&["report", trace, "--flame"]);
    assert!(
        folded
            .lines()
            .all(|line| line.starts_with("eval.par_map ") || line.starts_with("eval.par_map;")),
        "every unit folds under eval.par_map:\n{folded}"
    );
    assert!(
        folded
            .lines()
            .any(|line| line.starts_with("eval.par_map;css.estimate ")),
        "{folded}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_quality_and_json_read_a_non_finite_loss_as_no_oracle() {
    // A CRC-valid trace from outside can carry any f64 bits: here the
    // first of three decisions claims an oracle with a NaN loss.
    use obs::EventSink;
    let dir = workdir("report_quality_non_finite_loss");
    let trace = dir.join("nan-loss.bin");
    let sink = obs::BinSink::create(&trace).expect("create trace");
    for loss in [f64::NAN, 0.5, 2.5] {
        let mut d = obs::DecisionRecord::new("css.select");
        d.trace_id = 3;
        d.has_oracle = true;
        d.snr_loss_db = loss;
        sink.emit_decision(&d);
    }
    sink.flush();
    drop(sink);
    let trace = trace.to_str().unwrap();
    let stdout = run_ok(&["report", trace, "--quality"]);
    assert!(
        stdout.contains("0.500"),
        "one misselection in two: {stdout}"
    );
    let json = serde::Value::from_json(&run_ok(&["report", trace, "--json"])).expect("JSON");
    let quality = json.get("quality").expect("quality rows");
    let row = match quality {
        serde::Value::Seq(rows) => &rows[0],
        other => panic!("quality is not a list: {other:?}"),
    };
    assert_eq!(
        row.get("with_oracle").and_then(serde::Value::as_u64),
        Some(2)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_rejects_non_finite_numbers_and_bad_axes_with_one_error_line() {
    let dir = workdir("analyze_rejects_non_finite_numbers");
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write input");
        path.to_str().unwrap().to_string()
    };
    let dataset = write(
        "dataset.txt",
        "talon-dataset-v1\nscenario s\nposition 0 0 0\ntruesnr 0 1:3.0\nsweep 0 0 1:3.0:-60\n",
    );
    let patterns = write(
        "patterns.txt",
        "talon-patterns-v1\naz -10 10 10\nel 0 0 1\nsector 1 0 1 2\n",
    );
    let cases = [
        (
            write(
                "nan.txt",
                "talon-dataset-v1\nscenario s\nposition 0 0 0\ntruesnr 0 1:3.0 2:NaN\n",
            ),
            patterns.clone(),
        ),
        (
            write(
                "inf.txt",
                "talon-dataset-v1\nscenario s\nposition 0 0 0\ntruesnr 0 1:3.0 2:inf\n",
            ),
            patterns.clone(),
        ),
        (
            dataset.clone(),
            write(
                "el.txt",
                "talon-patterns-v1\naz -10 10 10\nel NaN 32.4 3.6\n",
            ),
        ),
        (
            dataset.clone(),
            write("az.txt", "talon-patterns-v1\naz -90 90 0\nel 0 0 1\n"),
        ),
    ];
    for (dataset, patterns) in &cases {
        let stderr = run_fails(
            &["analyze", "--dataset", dataset, "--patterns", patterns],
            1,
        );
        assert!(stderr.contains("malformed line"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_rejects_an_incomplete_dataset_with_one_error_line() {
    let dir = workdir("analyze_rejects_an_incomplete_dataset");
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write input");
        path.to_str().unwrap().to_string()
    };
    let patterns = write(
        "patterns.txt",
        "talon-patterns-v1\naz -10 10 10\nel 0 0 1\nsector 1 0 1 2\n",
    );
    for (name, text, error) in [
        (
            "no_positions.txt",
            "talon-dataset-v1\nscenario s\n",
            "no position recorded",
        ),
        (
            "no_truesnr.txt",
            "talon-dataset-v1\nscenario s\nposition 0 0 0\nsweep 0 0 1:3.0:-60\n",
            "position 0 has no truesnr entry",
        ),
        (
            "no_sweep.txt",
            "talon-dataset-v1\nscenario s\nposition 0 0 0\ntruesnr 0 1:3.0\n",
            "position 0 has no sweep",
        ),
    ] {
        let dataset = write(name, text);
        let stderr = run_fails(
            &["analyze", "--dataset", &dataset, "--patterns", &patterns],
            1,
        );
        assert!(stderr.contains(error), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
