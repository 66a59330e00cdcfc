//! Fig. 8 — selection stability vs number of probing sectors.
//!
//! "The selection stability represents the time a selection algorithm
//! spends in one particular sector. … For each physical path direction, we
//! identify the sector that is selected most and count the occurrences.
//! This number divided by the total number of evaluated sweeps provides
//! the selection stability" (§6.3). The paper finds the stock sweep stuck
//! at 73.9 % (measurement noise makes similar sectors alternate) while CSS
//! with ≥ 13 probes is more stable, reaching ~94.7 % with all probes.
//!
//! The CSS side runs on the [`crate::engine`]: one work unit per
//! `(M, position)` cell (stability is a per-position statistic) with an
//! index-derived RNG, so the figure is bit-identical for any thread count.

use crate::engine;
use crate::scenario::{random_subset, RecordedDataset};
use chamber::SectorPatterns;
use css::estimator::CorrelationMode;
use css::selection::{CompressiveSelection, CssConfig};
use css::strategy::ProbeStrategy;
use geom::rng::sub_rng_indexed;
use geom::stats::modal_fraction;
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy};
use talon_array::SectorId;

/// The Fig. 8 series.
#[derive(Debug, Clone)]
pub struct StabilityResult {
    /// Scenario name.
    pub scenario: String,
    /// Stability of the stock sweep (constant in `M`).
    pub ssw_stability: f64,
    /// `(probes, stability)` pairs for CSS.
    pub css: Vec<(usize, f64)>,
}

impl StabilityResult {
    /// Smallest probe count at which CSS meets or beats the stock sweep
    /// (the paper reports 13).
    pub fn crossover(&self) -> Option<usize> {
        self.css
            .iter()
            .find(|&&(_, s)| s >= self.ssw_stability)
            .map(|&(m, _)| m)
    }
}

/// Runs the Fig. 8 analysis on [`engine::default_threads`] threads.
pub fn selection_stability(
    data: &RecordedDataset,
    patterns: &SectorPatterns,
    m_values: &[usize],
    seed: u64,
) -> StabilityResult {
    selection_stability_par(data, patterns, m_values, seed, engine::default_threads())
}

/// [`selection_stability`] with an explicit thread count. The result does
/// not depend on `threads`.
pub fn selection_stability_par(
    data: &RecordedDataset,
    patterns: &SectorPatterns,
    m_values: &[usize],
    seed: u64,
    threads: usize,
) -> StabilityResult {
    // Stock sweep: argmax per recorded sweep.
    let mut ssw_stabilities = Vec::new();
    for pos in &data.positions {
        let selections: Vec<SectorId> = pos
            .sweeps
            .iter()
            .filter_map(|sweep| MaxSnrPolicy.select(sweep))
            .collect();
        if let Some(s) = modal_fraction(&selections) {
            ssw_stabilities.push(s);
        }
    }
    let ssw_stability = geom::stats::mean(&ssw_stabilities).unwrap_or(0.0);

    // CSS: one work unit per (m, position). The unit's RNG drives the
    // subset draws of all sweeps at that position, in sweep order.
    let units_per_m = data.positions.len();
    let n_units = m_values.len() * units_per_m;
    let stabilities: Vec<Option<f64>> = engine::par_map(
        n_units,
        threads,
        || {
            CompressiveSelection::new(
                patterns.clone(),
                CssConfig {
                    num_probes: 0, // replay path; per-unit m sets the subset size
                    mode: CorrelationMode::JointSnrRssi,
                    strategy: ProbeStrategy::UniformRandom,
                },
                seed,
            )
        },
        |css, unit| {
            let m = m_values[unit / units_per_m];
            let pos = &data.positions[unit % units_per_m];
            let mut rng = sub_rng_indexed(seed, "fig8-subsets", unit as u64);
            let selections: Vec<SectorId> = pos
                .sweeps
                .iter()
                .filter_map(|sweep| {
                    let subset = random_subset(&mut rng, sweep, m);
                    css.select_from_readings(&subset)
                })
                .collect();
            modal_fraction(&selections)
        },
    );
    let css_rows = m_values
        .iter()
        .enumerate()
        .map(|(mi, &m)| {
            let cell: Vec<f64> = stabilities[mi * units_per_m..(mi + 1) * units_per_m]
                .iter()
                .flatten()
                .copied()
                .collect();
            (m, geom::stats::mean(&cell).unwrap_or(0.0))
        })
        .collect();
    StabilityResult {
        scenario: data.scenario.clone(),
        ssw_stability,
        css: css_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{EvalScenario, Fidelity};

    fn run(seed: u64) -> StabilityResult {
        let mut s = EvalScenario::conference_room(Fidelity::Fast, seed);
        // More sweeps per position make the stability statistic meaningful.
        s.sweeps_per_position = 10;
        let data = s.record(seed);
        selection_stability(&data, &s.patterns, &[4, 14, 30], seed)
    }

    #[test]
    fn stabilities_are_probabilities() {
        let _guard = obs::testing::lock();
        let res = run(201);
        assert!((0.0..=1.0).contains(&res.ssw_stability));
        for &(_, s) in &res.css {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn ssw_is_not_perfectly_stable() {
        let _guard = obs::testing::lock();
        // Measurement noise makes the stock argmax alternate between
        // similar sectors — the very effect the paper quantifies at 73.9 %.
        let res = run(202);
        assert!(
            res.ssw_stability < 0.999,
            "SSW stability {} should show fluctuations",
            res.ssw_stability
        );
        assert!(res.ssw_stability > 0.3, "but not be random either");
    }

    #[test]
    fn css_stability_grows_with_probe_count() {
        let _guard = obs::testing::lock();
        let res = run(203);
        let s4 = res.css[0].1;
        let s30 = res.css[2].1;
        assert!(
            s30 >= s4,
            "stability grows with probes: {s4} @4 vs {s30} @30"
        );
    }

    #[test]
    fn css_with_many_probes_beats_ssw() {
        let _guard = obs::testing::lock();
        let res = run(204);
        let s30 = res.css[2].1;
        assert!(
            s30 >= res.ssw_stability,
            "CSS@30 ({s30}) at least as stable as SSW ({})",
            res.ssw_stability
        );
    }
}
