//! `fig7`: the Fig. 7 Monte Carlo (`estimation_error_par`) over a
//! conference-room Fast dataset recorded in set-up.
//!
//! Every pass covers M ∈ {6, 10, 14, 18, 24, 30} with 16 draws per
//! recorded sweep on `THREADS` threads; pass `r` uses seed + r. This is
//! the workload that runs `core::batch` (`BatchEstimator`) and
//! `eval::engine::par_map_batched`.

use crate::clock::CpuInstant;
use crate::spans::{timed_work, Call};
use crate::{Phase, Tally, Workload};
use chamber::SectorPatterns;
use eval::estimation::{estimation_error_par, EstimationErrorResult};
use eval::scenario::{EvalScenario, Fidelity, RecordedDataset};

const M_VALUES: [usize; 6] = [6, 10, 14, 18, 24, 30];
const DRAWS: usize = 16;
/// Worker threads, capped at the cores available.
const THREADS: usize = 2;

pub struct Fig7 {
    data: RecordedDataset,
    patterns: SectorPatterns,
    seed: u64,
    /// Passes run so far (the next pass uses seed + pass).
    pass: u64,
    /// Estimates one pass attempts.
    units: u64,
    threads: usize,
    imbalance: std::sync::Arc<obs::Gauge>,
}

/// Every number of a result, as bits: equal digests mean bit-equal
/// results.
fn digest(result: &EstimationErrorResult) -> Vec<u64> {
    result
        .rows
        .iter()
        .flat_map(|row| {
            [&row.azimuth, &row.elevation].into_iter().flat_map(|b| {
                [b.p005, b.q25, b.median, b.q75, b.p995, b.n as f64].map(f64::to_bits)
            })
        })
        .collect()
}

/// Estimates that produced no direction (too few usable probes in the
/// drawn subset): degenerate inputs, not failures.
fn degenerate(result: &EstimationErrorResult, units: u64) -> u64 {
    units - result.rows.iter().map(|r| r.azimuth.n as u64).sum::<u64>()
}

impl Fig7 {
    pub fn setup(seed: u64) -> Self {
        let mut scenario = EvalScenario::conference_room(Fidelity::Fast, seed);
        let data = scenario.record(seed);
        let sweeps: usize = data.positions.iter().map(|p| p.sweeps.len()).sum();
        Fig7 {
            units: (sweeps * DRAWS * M_VALUES.len()) as u64,
            threads: THREADS.min(crate::prov::cores()),
            data,
            patterns: scenario.patterns,
            seed,
            pass: 0,
            imbalance: obs::gauge("eval.worker_imbalance_ppm"),
        }
    }

    fn run_pass(&self, threads: usize) -> EstimationErrorResult {
        let seed = self.seed + self.pass;
        let (data, patterns) = (&self.data, &self.patterns);
        timed_work(Call::EvalFig7, self.units as u32, || {
            estimation_error_par(data, patterns, &M_VALUES, DRAWS, seed, threads)
        })
    }
}

impl Workload for Fig7 {
    fn fixed_pass(&mut self, tally: &mut Tally) -> Result<(), String> {
        let two = self.run_pass(self.threads);
        // Once per run: the threaded result must equal a 1-thread run.
        let one = estimation_error_par(&self.data, &self.patterns, &M_VALUES, DRAWS, self.seed, 1);
        if digest(&one) != digest(&two) {
            tally.problems.push(format!(
                "{}-thread Fig. 7 result differs from the 1-thread one",
                self.threads
            ));
        }
        self.pass += 1;
        tally.attempted += self.units;
        tally.set(
            "css.degenerate_ratio",
            degenerate(&two, self.units) as f64 / self.units as f64,
        );
        let at_14 = two
            .rows
            .iter()
            .find(|r| r.probes == 14)
            .expect("M = 14 is in the sweep");
        tally.set("est_err_az_deg_p50", at_14.azimuth.median);
        Ok(())
    }

    fn step(&mut self, phase: &mut Phase, tally: &mut Tally) -> Result<(), String> {
        let start = CpuInstant::now();
        timed_work(Call::Unit, self.units as u32, || {
            self.run_pass(self.threads)
        });
        let cpu = start.elapsed();
        phase.add(cpu, cpu, self.units);
        phase.imbalance_ppm.push(self.imbalance.get() as f64);
        self.pass += 1;
        tally.attempted += self.units;
        Ok(())
    }
}
