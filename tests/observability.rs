//! End-to-end observability through the real `talon` binary: a traced
//! CSS session (`talon sls --trace`) must come back as one rooted causal
//! tree and render as valid folded-stack flamegraph lines; recorded
//! sessions must replay bit-exactly at 1, 2 and 8 threads and diverge
//! when perturbed; and the recording must attribute its own critical path
//! and re-profile offline (`talon profile`) as exact self-time folded
//! stacks of the replay's own spans.

use std::path::{Path, PathBuf};
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
    let dir = std::env::temp_dir().join(format!("talon-obs-{name}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Records one lab CSS training session at `seed` into `trace`.
fn record_session(seed: u64, trace: &Path) {
    let out = talon()
        .args(["sls", "--scenario", "lab", "--policy", "css", "--seed"])
        .arg(seed.to_string())
        .arg("--trace")
        .arg(trace)
        .output()
        .expect("run sls --trace");
    assert!(
        out.status.success(),
        "sls --seed {seed}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn traced_session_builds_one_tree_and_valid_folded_stacks() {
    let dir = workdir("traced_session");
    let trace = dir.join("session.bin");

    // One compressive training with tracing on.
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
        .expect("run sls --trace");
    assert!(
        out.status.success(),
        "sls: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    // The trace parses cleanly and holds exactly one CSS session: a single
    // rooted tree whose root is the `css.session` span.
    let parsed = obs::open_trace(&trace).expect("readable trace");
    assert_eq!(parsed.skipped, 0, "clean file");
    let trees = obs::tree::build_trees(&parsed.events);
    assert_eq!(trees.len(), 1, "one CSS session = one trace");
    let tree = &trees[0];
    assert_eq!(tree.roots.len(), 1, "single root");
    assert_eq!(tree.nodes[tree.roots[0]].stage, "css.session");
    // The firmware sweep spans nest under the session, not beside it.
    assert!(
        tree.nodes.iter().any(|n| n.stage == "wil.sweep"),
        "sweep span present in the session tree"
    );

    // `report --tree` renders the same structure.
    let out = talon()
        .args(["report", trace.to_str().unwrap(), "--tree"])
        .output()
        .expect("run report --tree");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("css.session"), "{stdout}");

    // `report --flame` emits only folded-stack lines: `a;b;c <self_us>`,
    // rooted at css.session, directly consumable by flamegraph tooling.
    let out = talon()
        .args(["report", trace.to_str().unwrap(), "--flame"])
        .output()
        .expect("run report --flame");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(!lines.is_empty(), "flame output non-empty");
    for line in &lines {
        let (stack, value) = line.rsplit_once(' ').expect("`stack value` shape");
        assert!(!stack.is_empty());
        assert!(
            stack.split(';').all(|frame| !frame.is_empty()),
            "no empty frames: {line}"
        );
        value.parse::<u64>().expect("self-time is an integer");
    }
    assert!(
        lines.iter().all(|l| l.starts_with("css.session")),
        "all stacks root at the session: {stdout}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("css.session;")),
        "nested frames present: {stdout}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recorded_sessions_replay_bit_exactly_and_diverge_when_perturbed() {
    let dir = workdir("recorded-replay");
    for seed in 42..=45 {
        let trace = dir.join(format!("session-{seed}.bin"));
        record_session(seed, &trace);

        // The session's CSS decision reproduces bit-exactly at every
        // thread count; its SLS sweep records (`sls.iss`/`sls.rss`),
        // which their producer marks non-replayable, are counted apart.
        for threads in ["1", "2", "8"] {
            let out = talon()
                .arg("replay")
                .arg(&trace)
                .args(["--threads", threads])
                .output()
                .expect("run replay");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "seed {seed}, {threads} thread(s): {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                stdout.contains(
                    "replay OK: 1 decision(s) reproduced bit-exactly, 4 skipped as non-replayable"
                ),
                "seed {seed}, {threads} thread(s): {stdout}"
            );
        }

        // Negative control: the comparator catches perturbed inputs.
        let out = talon()
            .arg("replay")
            .arg(&trace)
            .args(["--perturb", "0.5"])
            .output()
            .expect("run perturbed replay");
        assert!(
            !out.status.success(),
            "seed {seed}: perturbed replay passed"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every folded-stack line is `path;to;span self_us` with no empty frames.
fn assert_valid_folded(text: &str) {
    assert!(!text.trim().is_empty(), "folded output non-empty");
    let mut paths = std::collections::BTreeSet::new();
    for line in text.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("`stack self_us` shape");
        assert!(
            stack.split(';').all(|frame| !frame.is_empty()),
            "no empty frames: {line}"
        );
        value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("integer self time: {line}"));
        assert!(paths.insert(stack), "one line per stack: {stack}\n{text}");
    }
}

#[test]
fn profiled_recording_emits_folded_stacks_and_critical_path() {
    let dir = workdir("profiled-recording");
    let trace = dir.join("session.bin");
    record_session(42, &trace);

    // The recorded trace attributes its own critical path: the dominant
    // root-to-leaf chain with per-hop quantiles.
    let out = talon()
        .arg("report")
        .arg(&trace)
        .arg("--critical-path")
        .output()
        .expect("run report --critical-path");
    assert!(
        out.status.success(),
        "report: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace(s)"), "{stdout}");
    assert!(
        stdout.contains("css.session"),
        "critical path names the session root: {stdout}"
    );
    assert!(stdout.contains("p95"), "per-hop quantile table: {stdout}");

    // The same decisions profile offline: `talon profile <trace>` replays
    // them and emits the replay's own spans as folded stacks to stdout.
    let out = talon()
        .arg("profile")
        .arg(&trace)
        .output()
        .expect("run talon profile");
    assert!(
        out.status.success(),
        "profile: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let folded = String::from_utf8_lossy(&out.stdout);
    assert_valid_folded(&folded);
    // The profile measures decisions, not set-up: the pattern database is
    // rebuilt once, not once per replay pass.
    let (mut total, mut setup) = (0u64, 0u64);
    for line in folded.lines() {
        let (stack, n) = line.rsplit_once(' ').expect("`stack self_us` shape");
        let n: u64 = n.parse().expect("integer self time");
        total += n;
        if stack
            .split(';')
            .any(|frame| frame == "eval.replay_patterns")
        {
            setup += n;
        }
    }
    assert!(
        2 * setup < total,
        "eval.replay_patterns holds {setup} of {total} us:\n{folded}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
