//! Fig. 9 — SNR loss vs number of probing sectors.
//!
//! "We additionally investigate the loss in SNR achieved by compressive
//! sector selection and the sector sweep in comparison to the optimal
//! achievable SNR" (§6.3). The loss of a selection is the noise-free SNR
//! of the best sector minus the noise-free SNR of the selected sector,
//! averaged over all evaluated directions. The stock sweep loses ≈ 0.5 dB
//! (noise occasionally crowns the wrong sector); CSS starts around 2.5 dB
//! at 6 probes and crosses below the sweep at ≈ 14.
//!
//! The CSS side runs on the [`crate::engine`]: one work unit per
//! `(M, sweep)` cell with an index-derived RNG, so the figure is
//! bit-identical for any thread count.

use crate::engine;
use crate::scenario::{random_subset, RecordedDataset};
use chamber::SectorPatterns;
use css::estimator::CorrelationMode;
use css::selection::{CompressiveSelection, CssConfig};
use css::strategy::ProbeStrategy;
use geom::rng::sub_rng_indexed;
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy};
use serde::Serialize;

/// The Fig. 9 series.
#[derive(Debug, Clone, Serialize)]
pub struct SnrLossResult {
    /// Scenario name.
    pub scenario: String,
    /// Mean SNR loss of the stock sweep, dB (constant in `M`).
    pub ssw_loss_db: f64,
    /// `(probes, mean loss dB)` pairs for CSS.
    pub css: Vec<(usize, f64)>,
}

impl SnrLossResult {
    /// Smallest probe count at which CSS's loss drops to (or below) the
    /// stock sweep's (the paper reports 14).
    pub fn crossover(&self) -> Option<usize> {
        self.css
            .iter()
            .find(|&&(_, l)| l <= self.ssw_loss_db)
            .map(|&(m, _)| m)
    }
}

/// Runs the Fig. 9 analysis on [`engine::default_threads`] threads.
pub fn snr_loss(
    data: &RecordedDataset,
    patterns: &SectorPatterns,
    m_values: &[usize],
    seed: u64,
) -> SnrLossResult {
    snr_loss_par(data, patterns, m_values, seed, engine::default_threads())
}

/// [`snr_loss`] with an explicit thread count. The result does not depend
/// on `threads`.
pub fn snr_loss_par(
    data: &RecordedDataset,
    patterns: &SectorPatterns,
    m_values: &[usize],
    seed: u64,
    threads: usize,
) -> SnrLossResult {
    // Stock sweep loss.
    let mut ssw_losses = Vec::new();
    for pos in &data.positions {
        let (_, opt_snr) = pos.optimal();
        for sweep in &pos.sweeps {
            if let Some(sel) = MaxSnrPolicy.select(sweep) {
                if let Some(snr) = pos.true_snr_of(sel) {
                    ssw_losses.push(opt_snr - snr);
                }
            }
        }
    }
    let ssw_loss_db = geom::stats::mean(&ssw_losses).unwrap_or(f64::NAN);

    // CSS loss per probe count, one work unit per (m, sweep) cell. The
    // selection pipeline instance is per-thread worker state (its RNG only
    // drives probe draws, which the replay path does not use — subsets come
    // from the unit-keyed stream below).
    let sweeps: Vec<_> = data
        .positions
        .iter()
        .flat_map(|pos| {
            let opt_snr = pos.optimal().1;
            pos.sweeps.iter().map(move |sweep| (pos, opt_snr, sweep))
        })
        .collect();
    let units_per_m = sweeps.len();
    let n_units = m_values.len() * units_per_m;
    let losses: Vec<Option<f64>> = engine::par_map(
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
            let (pos, opt_snr, sweep) = sweeps[unit % units_per_m];
            let mut rng = sub_rng_indexed(seed, "fig9-subsets", unit as u64);
            let subset = random_subset(&mut rng, sweep, m);
            css.select_from_readings(&subset)
                .and_then(|sel| pos.true_snr_of(sel))
                .map(|snr| opt_snr - snr)
        },
    );
    let css_rows = m_values
        .iter()
        .enumerate()
        .map(|(mi, &m)| {
            let cell: Vec<f64> = losses[mi * units_per_m..(mi + 1) * units_per_m]
                .iter()
                .flatten()
                .copied()
                .collect();
            (m, geom::stats::mean(&cell).unwrap_or(f64::NAN))
        })
        .collect();
    SnrLossResult {
        scenario: data.scenario.clone(),
        ssw_loss_db,
        css: css_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{EvalScenario, Fidelity};

    fn run(seed: u64) -> SnrLossResult {
        let mut s = EvalScenario::conference_room(Fidelity::Fast, seed);
        let data = s.record(seed);
        snr_loss(&data, &s.patterns, &[4, 14, 30], seed)
    }

    #[test]
    fn losses_are_nonnegative() {
        let _guard = obs::testing::lock();
        let res = run(301);
        assert!(res.ssw_loss_db >= 0.0, "SSW loss {}", res.ssw_loss_db);
        for &(m, l) in &res.css {
            assert!(l >= 0.0, "CSS loss at {m} probes: {l}");
        }
    }

    #[test]
    fn ssw_loss_is_small() {
        let _guard = obs::testing::lock();
        // The stock sweep probes everything; only report noise can mislead
        // it, so its loss must stay around the paper's ≈0.5 dB mark.
        let res = run(302);
        assert!(res.ssw_loss_db < 2.0, "SSW loss {}", res.ssw_loss_db);
    }

    #[test]
    fn css_loss_shrinks_with_probe_count() {
        let _guard = obs::testing::lock();
        let res = run(303);
        let l4 = res.css[0].1;
        let l30 = res.css[2].1;
        assert!(l30 <= l4 + 0.3, "loss shrinks: {l4} dB @4 vs {l30} dB @30");
    }

    #[test]
    fn css_with_many_probes_is_competitive() {
        let _guard = obs::testing::lock();
        let res = run(304);
        let l30 = res.css[2].1;
        assert!(
            l30 <= res.ssw_loss_db + 1.5,
            "CSS@30 loss {l30} near SSW {}",
            res.ssw_loss_db
        );
    }
}
