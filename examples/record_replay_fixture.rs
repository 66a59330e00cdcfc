//! Records the golden decision trace `tests/fixtures/replay_lab_fast_seed7.bin`.
//!
//! The fixture pins what a recorded CSS decision looks like *on disk*:
//! the estimate, the chosen sector and the Eq. 2–5 provenance closure
//! (probe vectors, top-k map cells and weights, energy normalizer). A
//! trace recorded by one build and replayed by another is the only check
//! that a kernel refactor reproduces the old closure bit for bit —
//! same-binary replay cannot tell. `tests/replay_fixture.rs` replays the
//! committed file at 1, 2 and 8 threads and requires `max_abs_err == 0`.
//!
//! This program records 60 decisions on the lab scenario (Fast fidelity,
//! seed 7) with the DUT stepping through yaw:
//!
//! * 40 joint (Eq. 5) decisions with the default options;
//! * 12 SNR-only (Eq. 3) decisions;
//! * 8 joint decisions with the energy prior and smoothing off.
//!
//! Every eighth sweep keeps only one measured probe, and one keeps none,
//! so fallback (degenerate) decisions are recorded too.
//!
//! The committed file holds 64: 4 more joint decisions (indices 60–63)
//! stamped `kernel_path = "q15"` by the build that recorded it, when live
//! decisions could still run a quantized kernel. That path is gone, so
//! this program no longer writes them, and replay counts them as
//! non-replayable, which keeps the skip of a stale kernel path under
//! test. The file is kept byte-identical: only a file recorded by an
//! earlier build can check cross-version reproduction.
//!
//! Only regenerate the fixture deliberately — when the recorded format
//! or the kernel's outputs are *meant* to change:
//!
//! ```text
//! cargo run --release --example record_replay_fixture -- tests/fixtures/replay_lab_fast_seed7.bin
//! ```

use css::estimator::EstimatorOptions;
use css::{CompressiveSelection, CorrelationMode, CssConfig, DecisionOracle};
use eval::scenario::{EvalScenario, Fidelity};
use geom::rng::sub_rng;
use std::sync::Arc;
use talon_channel::Orientation;

const SEED: u64 = 7;

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tests/fixtures/replay_lab_fast_seed7.bin".into());
    let scenario = EvalScenario::lab(Fidelity::Fast, SEED);
    let joint = CssConfig::paper_default();
    let snr_only = CssConfig {
        mode: CorrelationMode::SnrOnly,
        ..CssConfig::paper_default()
    };
    let plain = EstimatorOptions {
        energy_prior: false,
        smoothing: false,
        ..EstimatorOptions::default()
    };
    // (decisions, config, options) per block, recorded in this order.
    let blocks = [
        (40, joint.clone(), EstimatorOptions::default()),
        (12, snr_only, EstimatorOptions::default()),
        (8, joint, plain),
    ];

    let sink = Arc::new(obs::BinSink::create(&out).expect("create fixture file"));
    obs::set_sink(sink.clone());
    obs::decision::set_context(&format!("scenario=lab,fidelity=fast,seed={SEED}"));
    let mut rng = sub_rng(SEED, "replay-fixture");
    let rxw = scenario.fixed.codebook.rx_sector().weights.clone();
    let mut dut = scenario.dut.clone();
    let mut i = 0usize;
    for (n, config, options) in blocks {
        let mut css = CompressiveSelection::new(scenario.patterns.clone(), config, SEED + i as u64);
        css.set_estimator_options(options);
        for _ in 0..n {
            dut.orientation = Orientation::new(-70.0 + 140.0 * (i as f64) / 63.0, 0.0);
            let probes = css.draw_probes();
            let mut readings = scenario
                .link
                .sweep(&mut rng, &dut, &probes, &scenario.fixed);
            if i % 8 == 7 {
                // Degenerate sweep: at most one measured probe survives.
                let keep = usize::from(i != 31);
                let mut kept = 0;
                for r in &mut readings {
                    if r.measurement.is_some() && kept < keep {
                        kept += 1;
                    } else {
                        r.measurement = None;
                    }
                }
            }
            css.provide_oracle(DecisionOracle {
                snr_by_sector: probes
                    .iter()
                    .map(|&s| {
                        let snr = scenario.link.true_snr_db(&dut, s, &scenario.fixed, &rxw);
                        (s, snr)
                    })
                    .collect(),
            });
            let _ = css.select_from_readings(&readings);
            i += 1;
        }
    }
    obs::decision::set_context("");
    obs::clear_sink();
    obs::EventSink::flush(&*sink);
    println!("recorded {i} decisions to {out}");
}
