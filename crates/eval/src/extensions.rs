//! Extension experiments behind the §7 discussion (not figures of the
//! paper, but quantifications of its claims).
//!
//! * [`dense_table`] — `ext-dense`: training airtime and aggregate goodput
//!   vs number of node pairs, SSW vs CSS ("each sector sweep … pollutes
//!   the whole mm-wave channel").
//! * [`tracking_comparison`] — `ext-tracking`: achieved rate over time for
//!   a rotating, occasionally blocked link when both policies spend the
//!   same airtime budget on training ("the shorter the sweeping time, the
//!   more often a sweep can be performed").

use crate::scenario::RecordedDataset;
use crate::throughput::{css_selection, sweep_rates, DataLinkModel};
use chamber::SectorPatterns;
use geom::rng::sub_rng;
use mac80211ad::timing::mutual_training_time;
use netsim::policy::TrainingPolicy;
use netsim::tracking::{tracking_run, TrackingConfig, TrackingResult};

/// Node-pair counts of the `ext-dense` table.
pub const PAIR_COUNTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Re-trainings per second per pair in `ext-dense` (mobile tracking; the
/// Talon's static default is ~1 Hz, §4.1).
pub const TRACKING_HZ: f64 = 10.0;

/// One policy at one pair count.
#[derive(Debug, Clone)]
pub struct PolicyShare {
    /// Fraction of channel airtime consumed by training (capped at 1).
    pub training_airtime: f64,
    /// Mean per-training rate × the airtime left for data, Gbps.
    pub aggregate_gbps: f64,
    /// Lowest per-position aggregate, Gbps.
    pub min_gbps: f64,
    /// Highest per-position aggregate, Gbps.
    pub max_gbps: f64,
}

/// One row of the `ext-dense` table: a pair count under both policies.
#[derive(Debug, Clone)]
pub struct PairRow {
    /// Number of concurrently active pairs.
    pub pairs: usize,
    /// The stock sweep.
    pub ssw: PolicyShare,
    /// CSS at the table's probe count.
    pub css: PolicyShare,
    /// Positions whose CSS aggregate is above the stock sweep's.
    pub css_above: usize,
}

/// The `ext-dense` result.
#[derive(Debug, Clone)]
pub struct DenseTable {
    /// Recorded positions scored (each sweep at each is one training).
    pub positions: usize,
    /// Paired trainings scored: every recorded sweep, under both policies.
    pub trainings: usize,
    /// One row per entry of [`PAIR_COUNTS`].
    pub rows: Vec<PairRow>,
}

/// `ext-dense`: N pairs share one mm-wave channel, each re-training
/// [`TRACKING_HZ`] times a second. A training occupies the channel
/// exclusively for its §4.1 airtime, so the training share is
/// `min(1, N · TRACKING_HZ · mutual_training_time(probes))` and the pairs
/// split what is left for data.
///
/// The per-training rates come from the same per-sweep loop as Fig. 11,
/// run over every position of `data`: both policies score the same
/// recorded sweeps, CSS against `patterns` (the recording unit's own), so
/// the comparison is paired by construction. A training that selects no
/// sector carries no data (rate 0).
pub fn dense_table(
    data: &RecordedDataset,
    patterns: &SectorPatterns,
    probes: usize,
    seed: u64,
) -> DenseTable {
    let mut rng = sub_rng(seed, "dense-subsets");
    let mut css = css_selection(patterns, probes, seed);
    let model = DataLinkModel::default();
    // Mean paired rate per position, (SSW, CSS).
    let per_position: Vec<(f64, f64)> = data
        .positions
        .iter()
        .map(|pos| {
            let rates = sweep_rates(pos, &mut css, &mut rng, &model);
            let ssw: Vec<f64> = rates.iter().map(|r| r.ssw_gbps.unwrap_or(0.0)).collect();
            let css: Vec<f64> = rates.iter().map(|r| r.css_gbps.unwrap_or(0.0)).collect();
            (
                geom::stats::mean(&ssw).unwrap_or(0.0),
                geom::stats::mean(&css).unwrap_or(0.0),
            )
        })
        .collect();
    // The stock sweep probes all 34 TX sectors.
    let ssw_ms = mutual_training_time(34).as_ms();
    let css_ms = mutual_training_time(probes.min(34)).as_ms();
    let rows = PAIR_COUNTS
        .iter()
        .map(|&n| {
            let airtime =
                |training_ms: f64| (n as f64 * TRACKING_HZ * training_ms / 1000.0).min(1.0);
            let (ssw_air, css_air) = (airtime(ssw_ms), airtime(css_ms));
            let share = |training_airtime: f64, rate: fn(&(f64, f64)) -> f64| {
                let agg: Vec<f64> = per_position
                    .iter()
                    .map(|p| rate(p) * (1.0 - training_airtime))
                    .collect();
                PolicyShare {
                    training_airtime,
                    aggregate_gbps: geom::stats::mean(&agg).unwrap_or(0.0),
                    min_gbps: agg.iter().copied().fold(f64::INFINITY, f64::min),
                    max_gbps: agg.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                }
            };
            PairRow {
                pairs: n,
                ssw: share(ssw_air, |p| p.0),
                css: share(css_air, |p| p.1),
                css_above: per_position
                    .iter()
                    .filter(|p| p.1 * (1.0 - css_air) > p.0 * (1.0 - ssw_air))
                    .count(),
            }
        })
        .collect();
    DenseTable {
        positions: data.positions.len(),
        trainings: data.positions.iter().map(|p| p.sweeps.len()).sum(),
        rows,
    }
}

/// Runs the tracking experiment for both policies at equal airtime.
pub fn tracking_comparison(
    config: &TrackingConfig,
    patterns: &SectorPatterns,
    css_probes: usize,
    seed: u64,
) -> (TrackingResult, TrackingResult) {
    let ssw = tracking_run(config, TrainingPolicy::ssw(), seed);
    let css = tracking_run(
        config,
        TrainingPolicy::css(patterns.clone(), css_probes, seed),
        seed,
    );
    (ssw, css)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{EvalScenario, Fidelity};

    #[test]
    fn both_extension_experiments_run_and_favour_css() {
        let _guard = obs::testing::lock();
        let mut s = EvalScenario::conference_room(Fidelity::Fast, 1100);
        let data = s.record(1100);
        let dense = dense_table(&data, &s.patterns, 14, 1100);
        assert_eq!(dense.rows.len(), PAIR_COUNTS.len());
        let row32 = &dense.rows[5];
        assert!(row32.css.training_airtime < row32.ssw.training_airtime);
        assert!(row32.css.aggregate_gbps > row32.ssw.aggregate_gbps);

        let tracking_cfg = TrackingConfig {
            horizon_s: 5.0,
            sample_step_s: 0.05,
            ..TrackingConfig::default()
        };
        let (ssw, css) = tracking_comparison(&tracking_cfg, &s.patterns, 14, 1100);
        assert!(css.trainings > ssw.trainings);
        assert!(css.mean_gbps > 0.0);
    }
}
