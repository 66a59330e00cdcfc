//! Numeric anchors for the reproduced figures the CSS estimator drives.
//!
//! `reproduction_smoke.rs` checks only the *shape* of each figure, so an
//! estimator change that moved Fig. 9's CSS@14 loss from 1.4 dB to 2 dB
//! would still pass it. These tests pin the values at Fast fidelity, with
//! the same scenarios and seeds the smoke tests use, so such a drift fails
//! loudly. The pipeline is deterministic at any thread count; the
//! tolerances only leave room for last-bit arithmetic changes (a median
//! can step to a neighbouring sample), not for a real shift.
//!
//! The pinned values are Fast-fidelity measurements. EXPERIMENTS.md
//! reports the same figures at paper fidelity; each anchor below names
//! the EXPERIMENTS.md row it guards. Airtime (Fig. 10) is deterministic
//! integer-nanosecond arithmetic, so its anchors are exact. To move an anchor on purpose, rerun
//! the figure, update the value here and the row there in one change.

use eval::estimation::estimation_error;
use eval::extensions::{dense_table, tracking_comparison};
use eval::overhead::training_time;
use eval::scenario::{EvalScenario, Fidelity};
use eval::snr_loss::snr_loss;
use eval::throughput::{throughput, DataLinkModel};
use netsim::tracking::TrackingConfig;

/// Tolerance on a Fig. 7 azimuth median, degrees.
const AZ_MEDIAN_TOL_DEG: f64 = 0.2;

/// Tolerance on a Fig. 9 SNR loss, dB.
const SNR_LOSS_TOL_DB: f64 = 0.1;

/// Tolerance on a Fig. 11 goodput, Gbps. One of the 10 sweeps selecting
/// another sector moves a mean by at least 0.0026 Gbps (one MCS step).
const GOODPUT_TOL_GBPS: f64 = 1e-9;

fn assert_anchor(what: &str, measured: f64, anchor: f64, tol: f64) {
    assert!(
        (measured - anchor).abs() <= tol,
        "{what}: measured {measured:.4}, anchored at {anchor:.4} ± {tol}"
    );
}

/// Fig. 7, lab scenario: median azimuth error at M = 4, 14 and 34 probes.
/// Guards EXPERIMENTS.md "Fig. 7 — angular estimation error vs probes",
/// rows "lab, M=10" and "lab, M=20" (median falls as M grows).
#[test]
fn fig7_lab_azimuth_medians() {
    let mut s = EvalScenario::lab(Fidelity::Fast, 1002);
    let data = s.record(1002);
    let res = estimation_error(&data, &s.patterns, &[4, 14, 34], 2, 1002);
    let anchors = [(4, 8.4768), (14, 2.7207), (34, 1.7967)];
    assert_eq!(res.rows.len(), anchors.len());
    for (row, (m, anchor)) in res.rows.iter().zip(anchors) {
        assert_eq!(row.probes, m);
        assert_anchor(
            &format!("Fig. 7 lab az median, M={m} (°)"),
            row.azimuth.median,
            anchor,
            AZ_MEDIAN_TOL_DEG,
        );
    }
}

/// Fig. 9, conference room: CSS SNR loss at the paper's 14-probe
/// operating point. Guards EXPERIMENTS.md "Fig. 9 — SNR loss", row
/// "CSS @ 14 probes".
#[test]
fn fig9_css14_snr_loss() {
    let mut s = EvalScenario::conference_room(Fidelity::Fast, 1003);
    s.sweeps_per_position = 10;
    let data = s.record(1003);
    let loss = snr_loss(&data, &s.patterns, &[6, 14, 34], 1003);
    assert_eq!(loss.css[1].0, 14);
    assert_anchor(
        "Fig. 9 CSS@14 SNR loss (dB)",
        loss.css[1].1,
        1.4366,
        SNR_LOSS_TOL_DB,
    );
}

/// Fig. 10: mutual training airtime of the stock 34-probe sweep and of
/// CSS at 14 probes, and the speedup, pinned exactly for the analytic
/// model and the simulated protocol alike. Guards EXPERIMENTS.md "Fig. 10
/// — training time": SSW 1.273 ms, CSS(14) 0.553 ms, speedup 2.30×.
#[test]
fn fig10_training_airtime_and_speedup() {
    let res = training_time(&[14, 34], 1004);
    assert_eq!(res.ssw_ms, 1.2731, "SSW airtime (ms)");
    assert_eq!(res.css14_ms, 0.5531, "CSS(14) airtime (ms)");
    assert_eq!(res.speedup(), 2.301753751581992, "CSS(14) speedup");
    assert_eq!(format!("{:.3}", res.ssw_ms), "1.273");
    assert_eq!(format!("{:.3}", res.css14_ms), "0.553");
    assert_eq!(format!("{:.2}", res.speedup()), "2.30");
    let expected = [(14, 0.5531), (34, 1.2731)];
    assert_eq!(res.model, expected, "analytic model");
    assert_eq!(res.simulated, expected, "simulated protocol");
}

/// Fig. 11, conference room with 10 sweeps per position (the `tables`
/// Fast setting): mean TCP goodput of the stock sweep and of CSS(14) at
/// −45°, 0° and +45°. Guards EXPERIMENTS.md "Fig. 11 — throughput".
#[test]
fn fig11_ssw_and_css14_goodput() {
    let mut s = EvalScenario::conference_room(Fidelity::Fast, 1005);
    s.sweeps_per_position = 10;
    let data = s.record(1005);
    let res = throughput(
        &data,
        &s.patterns,
        &[-45.0, 0.0, 45.0],
        14,
        DataLinkModel::default(),
        1005,
    );
    let anchors = [
        (-45.0, 1.514333333333333, 1.4373333333333331),
        (0.0, 1.5399999999999998, 1.5399999999999998),
        (45.0, 1.514333333333333, 1.5399999999999998),
    ];
    assert_eq!(res.rows.len(), anchors.len());
    for (row, (az, ssw, css)) in res.rows.iter().zip(anchors) {
        assert_eq!(row.azimuth_deg, az);
        let what = |policy: &str| format!("Fig. 11 {policy} at {az}° (Gbps)");
        assert_anchor(&what("SSW"), row.ssw_gbps, ssw, GOODPUT_TOL_GBPS);
        assert_anchor(&what("CSS(14)"), row.css_gbps, css, GOODPUT_TOL_GBPS);
    }
}

/// §7 dense deployments, conference room at the Fig. 11 setting: the
/// training airtime of one pair re-training at 10 Hz is exact arithmetic
/// on Fig. 10 (1.3 % SSW, 0.6 % CSS(14); 81.5 % / 35.4 % at 64 pairs), and
/// CSS(14)'s aggregate goodput is above the stock sweep's at 32 and 64
/// pairs. Guards EXPERIMENTS.md "Extensions", dense table.
#[test]
fn dense_css14_beats_ssw_aggregate_at_32_and_64_pairs() {
    for device in [1, 2, 42] {
        let mut s = EvalScenario::conference_room(Fidelity::Fast, device);
        s.sweeps_per_position = 10;
        let data = s.record(device);
        let res = dense_table(&data, &s.patterns, 14, device);
        let airtime = |pairs: usize| {
            let row = res.rows.iter().find(|r| r.pairs == pairs).expect("row");
            (
                format!("{:.1}%", 100.0 * row.ssw.training_airtime),
                format!("{:.1}%", 100.0 * row.css.training_airtime),
            )
        };
        assert_eq!(airtime(1), ("1.3%".into(), "0.6%".into()));
        assert_eq!(airtime(64), ("81.5%".into(), "35.4%".into()));
        for row in res.rows.iter().filter(|r| r.pairs >= 32) {
            assert!(
                row.css.aggregate_gbps > row.ssw.aggregate_gbps,
                "device {device}, {} pairs: CSS(14) {:.3} Gbps vs SSW {:.3} Gbps",
                row.pairs,
                row.css.aggregate_gbps,
                row.ssw.aggregate_gbps
            );
        }
    }
}

/// §7 tracking at equal training airtime, conference room: CSS(14)
/// re-trains 215 times to the stock sweep's 94 in the 30 s horizon and
/// keeps a higher mean goodput on every device. Guards EXPERIMENTS.md
/// "Extensions", tracking paragraph (CSS above SSW on 17/17 devices at
/// paper fidelity).
#[test]
fn tracking_css14_beats_ssw_goodput_at_equal_airtime() {
    let config = TrackingConfig::default();
    for device in [1, 2, 42] {
        let s = EvalScenario::conference_room(Fidelity::Fast, device);
        let (ssw, css) = tracking_comparison(&config, &s.patterns, 14, device);
        assert_eq!(ssw.trainings, 94, "device {device}: SSW trainings");
        assert_eq!(css.trainings, 215, "device {device}: CSS(14) trainings");
        assert!(
            css.mean_gbps > ssw.mean_gbps,
            "device {device}: CSS(14) {:.3} Gbps vs SSW {:.3} Gbps",
            css.mean_gbps,
            ssw.mean_gbps
        );
    }
}
