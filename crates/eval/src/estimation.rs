//! Fig. 7 — angular estimation error vs number of probing sectors.
//!
//! For every recorded sweep and every probe count `M`, a random `M`-sector
//! subset of the recorded measurements feeds the compressive estimator;
//! the azimuth and elevation differences between the estimate and the
//! physical orientation are collected and summarized as the paper's box
//! plots (boxes 50 %, whiskers 99 %, dash median).
//!
//! The Monte Carlo grid (`M` × position × sweep × draw) runs on the
//! [`crate::engine`]: each cell is one work unit with its own
//! index-derived RNG stream. Units feed the GEMM-shaped
//! [`css::BatchEstimator`] in fixed-boundary batches of
//! [`EVAL_BATCH`] links ([`engine::par_map_batched`]); every link
//! occupies its own panel column, so batching never mixes links'
//! arithmetic and the result is bit-identical for any thread count.

use crate::engine;
use crate::scenario::{random_subset, RecordedDataset};
use chamber::SectorPatterns;
use css::estimator::{CorrelationMode, EstimatorOptions};
use css::{BatchEstimator, BatchScratch};
use geom::rng::sub_rng_indexed;
use geom::stats::BoxStats;
use serde::Serialize;
use talon_channel::SweepReading;

/// Links per batched kernel sweep in the Fig. 7 fan-out. Amortizes the
/// grid walk across enough panel columns to fill the 16-lane kernel while
/// keeping per-batch subset buffers small.
pub const EVAL_BATCH: usize = 16;

/// The Fig. 7 series for one scenario.
#[derive(Debug, Clone, Serialize)]
pub struct EstimationErrorResult {
    /// Scenario name.
    pub scenario: String,
    /// One row per probe count.
    pub rows: Vec<EstimationErrorRow>,
}

/// Error statistics at one probe count.
#[derive(Debug, Clone, Serialize)]
pub struct EstimationErrorRow {
    /// Number of probing sectors `M`.
    pub probes: usize,
    /// Azimuth error statistics (degrees).
    pub azimuth: BoxStats,
    /// Elevation error statistics (degrees).
    pub elevation: BoxStats,
}

/// Runs the Fig. 7 analysis on [`engine::default_threads`] threads.
///
/// `m_values` is the x-axis (the paper sweeps 4–34); `draws_per_sweep`
/// controls how many random subsets are sampled from each recorded sweep.
pub fn estimation_error(
    data: &RecordedDataset,
    patterns: &SectorPatterns,
    m_values: &[usize],
    draws_per_sweep: usize,
    seed: u64,
) -> EstimationErrorResult {
    estimation_error_par(
        data,
        patterns,
        m_values,
        draws_per_sweep,
        seed,
        engine::default_threads(),
    )
}

/// [`estimation_error`] with an explicit thread count. The result does not
/// depend on `threads`.
///
/// Each batch of [`EVAL_BATCH`] consecutive units runs as one
/// [`BatchEstimator`] sweep; batch boundaries are a pure function of the
/// unit count, so the output is bit-identical at any `threads`. Subset
/// draws come from the per-unit RNG streams
/// (`sub_rng_indexed(seed, "fig7-subsets", unit)`).
pub fn estimation_error_par(
    data: &RecordedDataset,
    patterns: &SectorPatterns,
    m_values: &[usize],
    draws_per_sweep: usize,
    seed: u64,
    threads: usize,
) -> EstimationErrorResult {
    let estimator = BatchEstimator::new(
        patterns,
        CorrelationMode::JointSnrRssi,
        EstimatorOptions::default(),
    );
    // Flatten the recorded sweeps once; each work unit addresses one
    // (m, sweep, draw) cell of the Monte Carlo grid by flat index.
    let sweeps: Vec<_> = data
        .positions
        .iter()
        .flat_map(|pos| pos.sweeps.iter().map(move |sweep| (&pos.truth, sweep)))
        .collect();
    let units_per_m = sweeps.len() * draws_per_sweep;
    let n_units = m_values.len() * units_per_m;
    let errors: Vec<Option<(f64, f64)>> = engine::par_map_batched(
        n_units,
        threads,
        EVAL_BATCH,
        BatchScratch::new,
        |scratch, range| {
            let subsets: Vec<Vec<SweepReading>> = range
                .clone()
                .map(|unit| {
                    let m = m_values[unit / units_per_m];
                    let (_, sweep) = sweeps[(unit % units_per_m) / draws_per_sweep];
                    let mut rng = sub_rng_indexed(seed, "fig7-subsets", unit as u64);
                    random_subset(&mut rng, sweep, m)
                })
                .collect();
            let links: Vec<&[SweepReading]> = subsets.iter().map(Vec::as_slice).collect();
            estimator
                .estimate_batch(scratch, &links)
                .into_iter()
                .zip(range)
                .map(|(est, unit)| {
                    let (truth, _) = sweeps[(unit % units_per_m) / draws_per_sweep];
                    est.map(|e| e.direction.component_error(truth))
                })
                .collect()
        },
    );
    let mut rows = Vec::with_capacity(m_values.len());
    for (mi, &m) in m_values.iter().enumerate() {
        let cell = &errors[mi * units_per_m..(mi + 1) * units_per_m];
        let az_errors: Vec<f64> = cell.iter().flatten().map(|&(az, _)| az).collect();
        let el_errors: Vec<f64> = cell.iter().flatten().map(|&(_, el)| el).collect();
        let azimuth = BoxStats::from_samples(&az_errors)
            .expect("at least one successful estimate per probe count");
        let elevation = BoxStats::from_samples(&el_errors).expect("elevation errors present");
        rows.push(EstimationErrorRow {
            probes: m,
            azimuth,
            elevation,
        });
    }
    EstimationErrorResult {
        scenario: data.scenario.clone(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{EvalScenario, Fidelity};

    fn run(scduring: fn(Fidelity, u64) -> EvalScenario, seed: u64) -> EstimationErrorResult {
        let mut s = scduring(Fidelity::Fast, seed);
        let data = s.record(seed);
        estimation_error(&data, &s.patterns, &[6, 14, 30], 3, seed)
    }

    #[test]
    fn error_decreases_with_more_probes_in_lab() {
        let _guard = obs::testing::lock();
        let res = run(EvalScenario::lab, 101);
        assert_eq!(res.rows.len(), 3);
        let med_6 = res.rows[0].azimuth.median;
        let med_30 = res.rows[2].azimuth.median;
        assert!(
            med_30 <= med_6 + 1e-9,
            "azimuth error shrinks: {med_6}° @6 vs {med_30}° @30"
        );
    }

    #[test]
    fn many_probes_give_small_azimuth_error() {
        let _guard = obs::testing::lock();
        let res = run(EvalScenario::lab, 102);
        let full = res.rows.last().unwrap();
        assert!(
            full.azimuth.median < 12.0,
            "median azimuth error with 30 probes: {}",
            full.azimuth.median
        );
    }

    #[test]
    fn conference_room_errors_are_finite_and_ordered() {
        let _guard = obs::testing::lock();
        let res = run(EvalScenario::conference_room, 103);
        for row in &res.rows {
            assert!(row.azimuth.p005 <= row.azimuth.median);
            assert!(row.azimuth.median <= row.azimuth.p995);
            assert!(row.azimuth.p995 <= 180.0);
            assert!(row.elevation.p995 <= 90.0);
        }
    }

    #[test]
    fn elevation_error_bounded_by_grid_when_untilted() {
        let _guard = obs::testing::lock();
        // The conference-room evaluation keeps elevation at 0; estimates on
        // the measured grid can wander but errors stay within the pattern
        // grid's elevation extent.
        let res = run(EvalScenario::conference_room, 104);
        for row in &res.rows {
            assert!(
                row.elevation.p995 <= 32.4,
                "elevation error {} within measured extent",
                row.elevation.p995
            );
        }
    }
}
