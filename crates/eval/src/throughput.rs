//! Fig. 11 — application-layer throughput at −45°, 0° and 45°.
//!
//! The paper measures iPerf3 TCP throughput over 10 s while the devices
//! keep re-training (≈ one sweep per second), averaged "over all selected
//! sectors to take into account the impacts of suboptimal selections"
//! (§6.4). CSS(14) lands at 1.48–1.51 Gbps, a hair above the stock sweep —
//! the stability gain, not a link-budget gain.
//!
//! Our data-plane model: control-PHY probe frames enjoy a large spreading
//! gain that SC-PHY data frames lack, while data frames gain a beamformed
//! receive sector instead of the probes' quasi-omni pattern. The two
//! roughly cancel; `data_boost_db` is the small net difference. The data
//! SNR maps to an 802.11ad single-carrier MCS, and the PHY rate to TCP
//! goodput with the MAC efficiency observed on Talon hardware (≈ 1/3 of
//! the PHY rate).
//!
//! [`sweep_rates`] is the one per-sweep loop: Fig. 11 runs it on the three
//! positions nearest its directions, `ext-dense`
//! ([`crate::extensions::dense_table`]) on every recorded position.

use crate::scenario::{random_subset, RecordedDataset, RecordedPosition};
use chamber::SectorPatterns;
use css::selection::{CompressiveSelection, CssConfig};
use geom::rng::sub_rng;
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy};
use rand::Rng;
use serde::Serialize;
use talon_array::SectorId;
pub use talon_channel::rate::{DataLinkModel, McsEntry, MCS_TABLE};

/// Throughput at one evaluated path direction.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputRow {
    /// Path direction azimuth (degrees).
    pub azimuth_deg: f64,
    /// Mean TCP goodput with the stock sweep, Gbps.
    pub ssw_gbps: f64,
    /// Mean TCP goodput with CSS(`probes`), Gbps.
    pub css_gbps: f64,
}

/// The Fig. 11 result.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputResult {
    /// Scenario name.
    pub scenario: String,
    /// Probe count used for CSS (paper: 14).
    pub probes: usize,
    /// One row per evaluated azimuth (paper: −45°, 0°, 45°).
    pub rows: Vec<ThroughputRow>,
}

/// Runs the Fig. 11 analysis at the given azimuth directions.
pub fn throughput(
    data: &RecordedDataset,
    patterns: &SectorPatterns,
    azimuths_deg: &[f64],
    probes: usize,
    model: DataLinkModel,
    seed: u64,
) -> ThroughputResult {
    let mut rng = sub_rng(seed, "fig11-subsets");
    let mut css = css_selection(patterns, probes, seed);
    let rows = azimuths_deg
        .iter()
        .map(|&az| {
            // The recorded position closest to the requested azimuth.
            let rates = sweep_rates(nearest_position(data, az), &mut css, &mut rng, &model);
            let ssw: Vec<f64> = rates.iter().filter_map(|r| r.ssw_gbps).collect();
            let css: Vec<f64> = rates.iter().filter_map(|r| r.css_gbps).collect();
            ThroughputRow {
                azimuth_deg: az,
                ssw_gbps: geom::stats::mean(&ssw).unwrap_or(0.0),
                css_gbps: geom::stats::mean(&css).unwrap_or(0.0),
            }
        })
        .collect();
    ThroughputResult {
        scenario: data.scenario.clone(),
        probes,
        rows,
    }
}

/// The data rates one recorded sweep yields under both policies: `None`
/// where a policy selected no sector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRates {
    /// TCP goodput of the stock sweep's selection, Gbps.
    pub ssw_gbps: Option<f64>,
    /// TCP goodput of the CSS selection, Gbps.
    pub css_gbps: Option<f64>,
}

/// The CSS policy Fig. 11 and `ext-dense` score: the paper's protocol
/// (uniformly random probes, joint SNR·RSSI correlation) at `probes`.
pub fn css_selection(patterns: &SectorPatterns, probes: usize, seed: u64) -> CompressiveSelection {
    let config = CssConfig {
        num_probes: probes,
        ..CssConfig::paper_default()
    };
    CompressiveSelection::new(patterns.clone(), config, seed)
}

/// Scores both policies on the same recorded sweeps of one position. Each
/// sweep is one training: the stock sweep takes the argmax over the full
/// sweep, CSS selects from a random `css.num_probes()`-subset of that same
/// sweep, and each selection's noise-free SNR sets its rate until the next
/// training.
pub fn sweep_rates<R: Rng>(
    pos: &RecordedPosition,
    css: &mut CompressiveSelection,
    rng: &mut R,
    model: &DataLinkModel,
) -> Vec<SweepRates> {
    let rate = |sel: Option<SectorId>| {
        sel.and_then(|s| pos.true_snr_of(s))
            .map(|snr| model.tcp_gbps(snr))
    };
    pos.sweeps
        .iter()
        .map(|sweep| {
            let ssw_gbps = rate(MaxSnrPolicy.select(sweep));
            let subset = random_subset(rng, sweep, css.num_probes());
            SweepRates {
                ssw_gbps,
                css_gbps: rate(css.select_from_readings(&subset)),
            }
        })
        .collect()
}

fn nearest_position(data: &RecordedDataset, az_deg: f64) -> &RecordedPosition {
    data.positions
        .iter()
        .min_by(|a, b| {
            let da = (a.truth.az_deg - az_deg).abs() + a.truth.el_deg.abs();
            let db = (b.truth.az_deg - az_deg).abs() + b.truth.el_deg.abs();
            da.partial_cmp(&db).expect("distances are finite")
        })
        .expect("dataset has positions")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mcs_mapping_is_monotone() {
        let m = DataLinkModel::default();
        let mut last = 0.0;
        for snr in [-20.0, -10.0, -5.0, 0.0, 3.0, 6.0, 10.0] {
            let r = m.tcp_gbps(snr);
            assert!(r >= last, "rate monotone in SNR");
            last = r;
        }
        // Far below threshold: no link.
        assert_eq!(m.tcp_gbps(-30.0), 0.0);
        // Far above: top MCS.
        assert!((m.tcp_gbps(30.0) - 4.620 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn good_conference_link_reaches_about_1_5_gbps() {
        // ≈ 18.8 dB probe SNR at 6 m + 7 dB boost → MCS 12 →
        // ≈ 1.54 Gbps TCP, the Fig. 11 operating region.
        let m = DataLinkModel::default();
        let r = m.tcp_gbps(18.8);
        assert!((1.2..=1.6).contains(&r), "rate {r} Gbps");
    }
}
