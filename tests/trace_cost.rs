//! What a recorded decision costs on disk, and that the file replays.
//!
//! 500 fixed-seed CSS decisions (lab scenario, fast fidelity, seed 42, an
//! anechoic 3 m link) are recorded through the installed-sink hot path
//! into a binary trace, exactly as `--trace` records them. The trace must
//! then:
//!
//! * read back whole: no damaged frame, every decision present;
//! * cost at most [`MAX_BYTES_PER_DECISION`] bytes per decision (the
//!   whole file, events and the closing snapshot included, over the
//!   decision count);
//! * be at least [`MIN_JSONL_RATIO`]× smaller than its JSON Lines export,
//!   priced record by record at the bytes `talon trace convert` writes;
//! * replay bit-exactly through `eval::replay::replay_file` at 1, 2 and 8
//!   threads, with identical reports.
//!
//! Sizes are deterministic for this workload, so these bounds hold on any
//! host; throughput and peak RSS are host figures and live in
//! `decision_bench` (`record`/`replay` `decisions_per_s`, `peak_rss_mb`).

use css::{CompressiveSelection, CssConfig};
use eval::replay::{replay_file, ReplayConfig};
use eval::scenario::{EvalScenario, Fidelity};
use geom::rng::sub_rng;
use obs::binfmt::FileBinReader;
use obs::{BinSink, EventSink, TraceRecord};
use std::path::Path;
use talon_channel::{Device, Environment, Link, Orientation};

const DECISIONS: usize = 500;
const SEED: u64 = 42;

/// 1.15 × the 299.26 B/decision the format measured when this bound was
/// set: a fatter record is a codec regression, not noise.
const MAX_BYTES_PER_DECISION: f64 = 344.1;

/// The binary format's reason to exist.
const MIN_JSONL_RATIO: f64 = 5.0;

/// Records [`DECISIONS`] CSS selections into a binary trace at `path`.
/// The caller holds `obs::testing::lock()`.
fn record(path: &Path, scenario: &EvalScenario) {
    let mut css =
        CompressiveSelection::new(scenario.patterns.clone(), CssConfig::paper_default(), SEED);
    let link = Link::new(Environment::anechoic(3.0));
    let mut dut = Device::talon(SEED);
    dut.orientation = Orientation::NEUTRAL;
    let observer = Device::talon(SEED + 1);
    let mut rng = sub_rng(SEED, "trace-cost");

    let sink = std::sync::Arc::new(BinSink::create(path).expect("create trace"));
    obs::set_sink(sink.clone());
    obs::decision::set_context(&format!("scenario=lab,fidelity=fast,seed={SEED}"));
    for _ in 0..DECISIONS {
        let probes = css.draw_probes();
        let readings = link.sweep(&mut rng, &dut, &probes, &observer);
        let _ = css.select_from_readings(&readings);
    }
    sink.write_snapshot(&obs::global().snapshot());
    obs::decision::set_context("");
    obs::clear_sink();
}

#[test]
fn recorded_decisions_stay_small_and_replay_bit_exactly() {
    let _guard = obs::testing::lock();
    let dir = std::env::temp_dir().join(format!("talon-trace-cost-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("trace.bin");
    let scenario = EvalScenario::lab(Fidelity::Fast, SEED);
    record(&path, &scenario);

    // Read back and price every record at its exact JSONL export bytes.
    let mut reader = FileBinReader::open(&path).expect("trace opens");
    let (mut decisions, mut jsonl_bytes) = (0usize, 0u64);
    let ts = obs::now_us();
    while let Some(record) = reader.next_record().expect("current schema") {
        if matches!(record, TraceRecord::Decision(_)) {
            decisions += 1;
        }
        // +1: the newline the export appends per line.
        jsonl_bytes += obs::sink::record_line(&record, ts).to_json().len() as u64 + 1;
    }
    assert_eq!(reader.skipped(), 0, "damaged frames in a fresh trace");
    assert_eq!(decisions, DECISIONS);

    let trace_bytes = std::fs::metadata(&path).expect("stat trace").len();
    let per_decision = trace_bytes as f64 / DECISIONS as f64;
    assert!(
        per_decision <= MAX_BYTES_PER_DECISION,
        "{per_decision:.1} B/decision exceeds {MAX_BYTES_PER_DECISION}"
    );
    let ratio = jsonl_bytes as f64 / trace_bytes as f64;
    eprintln!("trace cost: {per_decision:.1} B/decision, JSONL {ratio:.2}× larger");
    assert!(
        ratio >= MIN_JSONL_RATIO,
        "JSONL is only {ratio:.2}× the binary trace ({jsonl_bytes} vs {trace_bytes} bytes)"
    );

    let mut reference = None;
    for threads in [1usize, 2, 8] {
        let config = ReplayConfig {
            threads,
            perturb_snr_db: 0.0,
            patterns_override: Some(scenario.patterns.clone()),
        };
        let (report, skipped) = replay_file(&path, &config).expect("trace replays");
        assert_eq!(skipped, 0);
        assert!(report.is_clean(), "threads={threads}: {}", report.summary());
        assert_eq!(report.total_decisions, DECISIONS);
        assert_eq!(report.replayed, DECISIONS, "{}", report.summary());
        assert_eq!(report.max_abs_err, 0.0, "threads={threads}: bit-exact");
        match &reference {
            None => reference = Some(report),
            Some(first) => assert_eq!(&report, first, "threads={threads}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
