//! Extension experiments behind the §7 discussion (not figures of the
//! paper, but quantifications of its claims).
//!
//! * [`dense_comparison`] — `ext-dense`: training airtime and aggregate
//!   goodput vs number of node pairs, SSW vs CSS ("each sector sweep …
//!   pollutes the whole mm-wave channel").
//! * [`tracking_comparison`] — `ext-tracking`: achieved rate over time for
//!   a rotating, occasionally blocked link when both policies spend the
//!   same airtime budget on training ("the shorter the sweeping time, the
//!   more often a sweep can be performed").

use chamber::SectorPatterns;
use netsim::dense::{dense_deployment, DenseConfig, DenseResult};
use netsim::policy::TrainingPolicy;
use netsim::tracking::{tracking_run, TrackingConfig, TrackingResult};

/// Runs the dense-deployment experiment for both policies.
pub fn dense_comparison(
    config: &DenseConfig,
    patterns: &SectorPatterns,
    css_probes: usize,
    seed: u64,
) -> (DenseResult, DenseResult) {
    let ssw = dense_deployment(config, patterns, |_, _| TrainingPolicy::ssw(), seed);
    let css = dense_deployment(
        config,
        patterns,
        |p, s| TrainingPolicy::css(p.clone(), css_probes, s),
        seed,
    );
    (ssw, css)
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
        let s = EvalScenario::conference_room(Fidelity::Fast, 1100);
        let dense_cfg = DenseConfig {
            pair_counts: vec![4, 32],
            ..DenseConfig::default()
        };
        let (ssw, css) = dense_comparison(&dense_cfg, &s.patterns, 14, 1100);
        assert_eq!(ssw.rows.len(), 2);
        assert!(css.rows[1].training_airtime < ssw.rows[1].training_airtime);

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
