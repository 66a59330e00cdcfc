//! Cross-version replay: a committed trace, recorded by an earlier build,
//! must replay bit-exactly through the current kernel.
//!
//! Same-binary replay (`eval::replay`'s own tests, the CI
//! `replay-determinism` job) records and replays with one kernel, so a
//! change that alters both the live path and the replay path the same
//! way goes unnoticed. `tests/fixtures/replay_lab_fast_seed7.bin` was
//! recorded by `examples/record_replay_fixture.rs` before the estimator
//! took the provenance closure out of the estimate's own kernel pass; it
//! pins the old `top_cells`, `top_weights`, `energy_max`, `p_snr` and
//! `p_rssi` bit for bit.
//!
//! Its last 4 decisions (indices 60–63) are stamped with the `q15` kernel
//! path, which live decisions no longer run; replay must skip them as
//! non-replayable and reproduce the other 60.

use eval::replay::{replay_file, replay_trace, ReplayConfig};
use std::path::{Path, PathBuf};

const FIXTURE: &str = "tests/fixtures/replay_lab_fast_seed7.bin";

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

fn fixture() -> obs::Trace {
    obs::open_trace(fixture_path()).expect("fixture trace opens")
}

#[test]
fn committed_trace_replays_bit_exactly_at_1_2_and_8_threads() {
    let trace = fixture();
    assert_eq!(trace.skipped, 0, "every frame of the fixture decodes");
    let n = trace.decisions.len();
    assert_eq!(n, 64);
    assert!(
        trace
            .decisions
            .iter()
            .any(|d| d.fallback && !d.has_estimate),
        "the fixture covers degenerate (fallback) sweeps"
    );
    for threads in [1usize, 2, 8] {
        let report = replay_trace(
            &trace,
            &ReplayConfig {
                threads,
                ..ReplayConfig::default()
            },
        );
        assert!(
            report.is_clean(),
            "threads={threads}: {}\n{:?}",
            report.summary(),
            report.divergent
        );
        assert_eq!(report.replayed, 60, "threads={threads}");
        assert_eq!(report.skipped_non_replayable, 4, "threads={threads}");
        assert_eq!(report.skipped_no_patterns, 0);
        assert_eq!(report.max_abs_err, 0.0, "threads={threads}: bit-exact");
    }
}

#[test]
fn streamed_file_replay_matches_the_in_memory_replay() {
    // `talon replay` streams the file through `replay_file`; it must
    // report exactly what replaying the whole in-memory trace reports.
    let trace = fixture();
    let config = ReplayConfig {
        threads: 2,
        ..ReplayConfig::default()
    };
    let (streamed, skipped) = replay_file(&fixture_path(), &config).expect("fixture replays");
    assert_eq!(skipped, 0);
    assert_eq!(streamed, replay_trace(&trace, &config));
    assert!(
        streamed.summary().starts_with("replayed 60/64 "),
        "{}",
        streamed.summary()
    );
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn perturbed_replay_names_the_same_fields_as_before() {
    // The comparator formats a field name only when that field diverges.
    // A perturbed replay of the fixture must still name exactly the
    // fields the eager comparator named: the count, the first decision's
    // list and a digest of every `index field` pair are pinned from the
    // earlier build's `talon replay --perturb 0.5 --json`, with the
    // divergences of the now-skipped q15 decisions 60–63 filtered out.
    let trace = fixture();
    let report = replay_trace(
        &trace,
        &ReplayConfig {
            threads: 2,
            perturb_snr_db: 0.5,
            ..ReplayConfig::default()
        },
    );
    assert_eq!(report.divergent.len(), 1644);
    let first: Vec<&str> = report
        .divergent
        .iter()
        .filter(|d| d.index == 0)
        .map(|d| d.field.as_str())
        .collect();
    let mut expected = vec!["est_az_deg", "score"];
    let p_snr: Vec<String> = (0..13).map(|i| format!("p_snr[{i}]")).collect();
    let p_rssi: Vec<String> = [1, 2, 3, 8, 9, 10, 11]
        .iter()
        .map(|i| format!("p_rssi[{i}]"))
        .collect();
    let top: Vec<String> = (0..8).map(|i| format!("top_weights[{i}]")).collect();
    expected.extend(p_snr.iter().map(String::as_str));
    expected.extend(p_rssi.iter().map(String::as_str));
    expected.extend(top.iter().map(String::as_str));
    expected.push("top_cells");
    assert_eq!(first, expected);
    let all: String = report
        .divergent
        .iter()
        .map(|d| format!("{} {}\n", d.index, d.field))
        .collect();
    assert_eq!(fnv1a(all.as_bytes()), 0x492a_67d3_6e7f_f80e);
}
