//! The recording path is pinned field for field: two fixed-seed lab CSS
//! recordings are decoded and every event and decision record, with its
//! timing fields (`ts_us`, `dur_us`) zeroed, is folded into one FNV-1a
//! digest of its JSONL export line. A change to any recorded value, field
//! name, stage name or record order moves the digest; a change to how
//! spans, anomalies or decision records are built in memory does not.
//!
//! * `talon sls --scenario lab --policy css --seed 42 --trace` — the CLI
//!   session: `css.session`, `sls.run`, `wil.sweep`, `css.estimate`
//!   spans, `missing_probe`/`export_gap` anomalies and the `sls.iss`,
//!   `sls.rss` and `css.select` decision records.
//! * An in-process loop of `select_from_readings` over the lab Fast grid
//!   (seed 7) with a `BinSink` installed, as `decision_bench --workload
//!   record` drives it, plus decisions that raise `outlier_residual`,
//!   carry an oracle, or fall back on a degenerate sweep — so a decision
//!   record refilled in place must never carry a previous decision's
//!   values.
//!
//! This file holds one test: trace ids come from a process-wide counter,
//! and no other test in the binary may draw from it first.

use css::{CompressiveSelection, CssConfig, DecisionOracle};
use eval::scenario::{EvalScenario, Fidelity};
use geom::rng::sub_rng;
use obs::binfmt::FileBinReader;
use obs::{BinSink, TraceRecord};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use talon_channel::{Device, Environment, Link, Measurement, Orientation};

/// A fresh scratch directory for this process.
fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("talon-recording-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Folds `bytes` into a 64-bit FNV-1a accumulator.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// What a decoded trace pins: record counts by kind, the anomaly stages
/// seen, and the digest of every event and decision line in file order.
#[derive(Debug, PartialEq)]
struct Pin {
    events: usize,
    decisions: usize,
    digest: u64,
}

fn pin(path: &Path) -> (Pin, Vec<String>) {
    let mut reader = FileBinReader::open(path).expect("readable trace");
    let (mut events, mut decisions, mut digest) = (0, 0, 0xcbf2_9ce4_8422_2325_u64);
    let mut anomalies = Vec::new();
    while let Some(mut record) = reader.next_record().expect("clean trace") {
        match &mut record {
            TraceRecord::Event(e) => {
                e.ts_us = 0;
                e.dur_us = 0;
                events += 1;
                if e.kind == "anomaly" && !anomalies.iter().any(|s| *s == e.stage) {
                    anomalies.push(e.stage.to_string());
                }
            }
            TraceRecord::Decision(d) => {
                d.ts_us = 0;
                decisions += 1;
            }
            // The closing snapshot holds timing histograms: not pinned.
            TraceRecord::Snapshot(_) => continue,
        }
        let line = obs::sink::record_line(&record, 0).to_json();
        digest = fnv1a(digest, line.as_bytes());
        digest = fnv1a(digest, b"\n");
    }
    assert_eq!(reader.skipped(), 0, "no damaged frame");
    (
        Pin {
            events,
            decisions,
            digest,
        },
        anomalies,
    )
}

/// Records the in-process decision loop into `path`.
fn record_decisions(path: &Path) {
    let seed = 7;
    let scenario = EvalScenario::lab(Fidelity::Fast, seed);
    obs::decision::set_context(&format!("scenario=lab,fidelity=fast,seed={seed}"));
    let mut css =
        CompressiveSelection::new(scenario.patterns.clone(), CssConfig::paper_default(), seed);
    let link = Link::new(Environment::anechoic(3.0));
    let mut dut = Device::talon(seed);
    let observer = Device::talon(seed + 1);
    let mut rng = sub_rng(seed, "recording-golden");
    let positions: Vec<Orientation> = scenario
        .eval_grid
        .iter()
        .map(|(_, d)| Orientation::new(-d.az_deg, -d.el_deg))
        .collect();
    obs::set_sink(Arc::new(BinSink::create(path).expect("create trace")));
    for i in 0..48 {
        dut.orientation = positions[i % positions.len()];
        let probes = css.draw_probes();
        let mut readings = link.sweep(&mut rng, &dut, &probes, &observer);
        match i % 8 {
            // A corrupted report far off the fitted model.
            3 => {
                readings[0].measurement = Some(Measurement {
                    snr_db: 40.0,
                    rssi_dbm: -25.0,
                })
            }
            // Ground truth for this decision only.
            5 => css.provide_oracle(DecisionOracle {
                snr_by_sector: probes
                    .iter()
                    .enumerate()
                    .map(|(k, &s)| (s, 10.0 - k as f64 * 0.5))
                    .collect(),
            }),
            // A degenerate sweep: one usable probe, argmax fallback.
            7 => readings.truncate(1),
            _ => {}
        }
        css.select_from_readings(&readings);
    }
    obs::clear_sink();
    obs::decision::set_context("");
}

#[test]
fn recorded_fields_names_and_order_are_pinned() {
    let _guard = obs::testing::lock();
    let dir = workdir();

    let session = dir.join("sls.bin");
    let out = Command::new(env!("CARGO_BIN_EXE_talon"))
        .args([
            "sls",
            "--scenario",
            "lab",
            "--policy",
            "css",
            "--seed",
            "42",
        ])
        .arg("--trace")
        .arg(&session)
        .output()
        .expect("run sls --trace");
    assert!(
        out.status.success(),
        "sls: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (session_pin, session_anomalies) = pin(&session);

    let loop_trace = dir.join("decisions.bin");
    record_decisions(&loop_trace);
    let (loop_pin, loop_anomalies) = pin(&loop_trace);
    std::fs::remove_dir_all(&dir).ok();

    assert!(
        loop_anomalies
            .iter()
            .any(|s| s == "health.outlier_residual"),
        "the corrupted reports raise outlier_residual: {loop_anomalies:?}"
    );
    assert!(
        session_anomalies
            .iter()
            .any(|s| s == "health.missing_probe"),
        "{session_anomalies:?}"
    );
    assert_eq!(
        session_pin,
        Pin {
            events: 10,
            decisions: 5,
            digest: 0x4d0f994a25f16986,
        },
        "talon sls recording changed"
    );
    assert_eq!(
        loop_pin,
        Pin {
            events: 53,
            decisions: 48,
            digest: 0xd659b4fe2434ef95,
        },
        "select_from_readings recording changed"
    );
}
