//! Evaluation scenarios and sweep recording (§6.1).
//!
//! "We use the same setup as for obtaining the antenna patterns … but take
//! measurements in a lab environment and a conference room. In the lab
//! environment, we place the two devices three meters apart, in the
//! conference room six meters apart. … For both scenarios, we set the range
//! of our rotation head to ±60°. In the lab environment, we tilt the
//! rotation head in steps of 2° from 0° to 30° and use an azimuth
//! resolution of 2.25°. In the conference room, we do not change the
//! elevation angle, but increase the resolution of azimuth angles to 1.3°."
//!
//! [`EvalScenario::record`] walks those orientation grids, runs full
//! 34-sector sweeps at each position and records reported SNR/RSSI plus the
//! noise-free true SNR of every sector (the analysis' "optimal" reference).

use chamber::{Campaign, CampaignConfig, RotationHead, SectorPatterns};
use geom::rng::sub_rng;
use geom::sphere::{Direction, GridSpec, SphericalGrid};
use rand::Rng;
use talon_array::SectorId;
use talon_channel::{Device, Environment, Link, SweepReading};

/// How much work an experiment spends: tests use `Fast`, the reproduction
/// binaries `Paper`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Coarse grids, few repetitions — seconds, for tests.
    Fast,
    /// The paper's grids and repetition counts — minutes.
    Paper,
}

/// One evaluation scenario: environment, devices, measured patterns.
pub struct EvalScenario {
    /// Scenario name ("lab" / "conference-room").
    pub name: String,
    /// The propagation link.
    pub link: Link,
    /// The rotating device under test (the transmitter whose sector is
    /// selected).
    pub dut: Device,
    /// The fixed peer.
    pub fixed: Device,
    /// Anechoic-chamber-measured patterns of the DUT (the CSS input).
    pub patterns: SectorPatterns,
    /// Orientation grid evaluated (device-coordinate truth directions).
    pub eval_grid: SphericalGrid,
    /// Full sweeps recorded per orientation.
    pub sweeps_per_position: usize,
}

impl EvalScenario {
    /// The §6.1 lab environment: 3 m, az ±60° at 2.25°, el 0°–30° at 2°.
    pub fn lab(fidelity: Fidelity, seed: u64) -> Self {
        let eval_grid = match fidelity {
            Fidelity::Paper => SphericalGrid::new(
                GridSpec::new(-60.0, 60.0, 2.25),
                GridSpec::new(0.0, 30.0, 2.0),
            ),
            Fidelity::Fast => SphericalGrid::new(
                GridSpec::new(-60.0, 60.0, 15.0),
                GridSpec::new(0.0, 30.0, 10.0),
            ),
        };
        Self::build("lab", Environment::lab(), eval_grid, fidelity, seed)
    }

    /// The §6.1 conference room: 6 m, az ±60° at 1.3°, elevation fixed.
    pub fn conference_room(fidelity: Fidelity, seed: u64) -> Self {
        let eval_grid = match fidelity {
            Fidelity::Paper => {
                SphericalGrid::new(GridSpec::new(-60.0, 60.0, 1.3), GridSpec::fixed(0.0))
            }
            Fidelity::Fast => {
                SphericalGrid::new(GridSpec::new(-60.0, 60.0, 10.0), GridSpec::fixed(0.0))
            }
        };
        Self::build(
            "conference-room",
            Environment::conference_room(),
            eval_grid,
            fidelity,
            seed,
        )
    }

    fn build(
        name: &str,
        environment: Environment,
        eval_grid: SphericalGrid,
        fidelity: Fidelity,
        seed: u64,
    ) -> Self {
        let mut dut = Device::talon(seed);
        let fixed = Device::talon(seed.wrapping_add(1));
        // Patterns are measured once in the anechoic chamber (§4), not in
        // the evaluation environment.
        let campaign_cfg = match fidelity {
            Fidelity::Paper => CampaignConfig::paper_3d_scan(),
            Fidelity::Fast => CampaignConfig::coarse(),
        };
        let chamber_link = Link::new(Environment::anechoic(3.0));
        let mut campaign = Campaign::new(campaign_cfg, seed);
        let mut rng = sub_rng(seed, "scenario-campaign");
        let patterns = campaign.measure_tx_patterns(&mut rng, &chamber_link, &mut dut, &fixed);
        let sweeps_per_position = match fidelity {
            Fidelity::Paper => 20,
            Fidelity::Fast => 4,
        };
        EvalScenario {
            name: name.into(),
            link: Link::new(environment),
            dut,
            fixed,
            patterns,
            eval_grid,
            sweeps_per_position,
        }
    }

    /// Records full sector sweeps at every orientation of the eval grid.
    pub fn record(&mut self, seed: u64) -> RecordedDataset {
        let mut span = obs::sink_active().then(|| obs::span!("eval.record"));
        obs::counter("eval.records").inc();
        if let Some(span) = &mut span {
            span.field("positions", self.eval_grid.len() as f64);
            span.field("sweeps_per_position", self.sweeps_per_position as f64);
        }
        let mut rng = sub_rng(seed, "scenario-record");
        let mut head = RotationHead::paper_setup(seed);
        let sweep_order = self.dut.codebook.sweep_order();
        let mut positions = Vec::with_capacity(self.eval_grid.len());
        for (_, truth) in self.eval_grid.iter() {
            head.set_tilt(-truth.el_deg);
            head.set_azimuth(-truth.az_deg);
            self.dut.orientation = head.realized_orientation();
            // One plan per orientation serves the reference and the sweeps
            // (both receive on the fixed device's quasi-omni sector).
            let plan = self.link.plan(&self.dut, &self.fixed);
            // Noise-free reference SNR per sector at this orientation.
            let true_snr: Vec<(SectorId, f64)> = sweep_order
                .iter()
                .map(|&s| (s, plan.true_snr_db(s)))
                .collect();
            let sweeps: Vec<Vec<SweepReading>> = (0..self.sweeps_per_position)
                .map(|_| plan.sweep(&mut rng, &sweep_order))
                .collect();
            positions.push(RecordedPosition {
                truth,
                true_snr,
                sweeps,
            });
        }
        RecordedDataset {
            scenario: self.name.clone(),
            positions,
        }
    }
}

/// All recordings at one orientation.
#[derive(Debug, Clone)]
pub struct RecordedPosition {
    /// The commanded (believed) device-coordinate signal direction.
    pub truth: Direction,
    /// Noise-free SNR per sector (the "optimal" reference of Fig. 9).
    pub true_snr: Vec<(SectorId, f64)>,
    /// Recorded full sweeps (reported measurements).
    pub sweeps: Vec<Vec<SweepReading>>,
}

impl RecordedPosition {
    /// The sector with the highest noise-free SNR and that SNR.
    pub fn optimal(&self) -> (SectorId, f64) {
        self.true_snr
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("SNR is finite"))
            .expect("non-empty sector list")
    }

    /// Noise-free SNR of a given sector.
    pub fn true_snr_of(&self, id: SectorId) -> Option<f64> {
        self.true_snr
            .iter()
            .find(|(s, _)| *s == id)
            .map(|&(_, v)| v)
    }
}

/// A full recorded experiment.
#[derive(Debug, Clone)]
pub struct RecordedDataset {
    /// Which scenario produced it.
    pub scenario: String,
    /// Per-orientation recordings.
    pub positions: Vec<RecordedPosition>,
}

/// Draws the readings of a random `m`-sector probing subset from a recorded
/// full sweep — the offline-analysis step of §6.1.
pub fn random_subset<R: Rng>(rng: &mut R, sweep: &[SweepReading], m: usize) -> Vec<SweepReading> {
    let idx = geom::rng::sample_indices(rng, sweep.len(), m.min(sweep.len()));
    idx.into_iter().map(|i| sweep[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_lab_scenario_records_expected_shape() {
        let _guard = obs::testing::lock();
        let mut s = EvalScenario::lab(Fidelity::Fast, 77);
        let data = s.record(77);
        assert_eq!(data.scenario, "lab");
        assert_eq!(data.positions.len(), s.eval_grid.len());
        let p = &data.positions[0];
        assert_eq!(p.sweeps.len(), 4);
        assert_eq!(p.sweeps[0].len(), 34);
        assert_eq!(p.true_snr.len(), 34);
    }

    #[test]
    fn optimal_sector_has_max_true_snr() {
        let _guard = obs::testing::lock();
        let mut s = EvalScenario::conference_room(Fidelity::Fast, 78);
        let data = s.record(78);
        for p in &data.positions {
            let (opt, snr) = p.optimal();
            for &(id, v) in &p.true_snr {
                assert!(v <= snr, "sector {id} has {v} > optimal {snr}");
            }
            assert_eq!(p.true_snr_of(opt), Some(snr));
        }
    }

    #[test]
    fn frontal_positions_have_usable_link() {
        let _guard = obs::testing::lock();
        let mut s = EvalScenario::lab(Fidelity::Fast, 79);
        let data = s.record(79);
        // At broadside-ish truth directions the best sector must be strong.
        let frontal = data
            .positions
            .iter()
            .find(|p| p.truth.az_deg.abs() < 16.0 && p.truth.el_deg < 11.0)
            .expect("grid covers frontal region");
        assert!(frontal.optimal().1 > 3.0, "optimal {}", frontal.optimal().1);
    }

    #[test]
    fn random_subset_draws_m_readings() {
        let _guard = obs::testing::lock();
        let mut s = EvalScenario::conference_room(Fidelity::Fast, 80);
        let data = s.record(80);
        let sweep = &data.positions[0].sweeps[0];
        let mut rng = sub_rng(1, "subset");
        let sub = random_subset(&mut rng, sweep, 14);
        assert_eq!(sub.len(), 14);
        // All drawn readings exist in the original sweep.
        for r in &sub {
            assert!(sweep.iter().any(|o| o.sector == r.sector));
        }
    }

    #[test]
    fn recording_is_deterministic_per_seed() {
        let _guard = obs::testing::lock();
        let mut a = EvalScenario::conference_room(Fidelity::Fast, 81);
        let mut b = EvalScenario::conference_room(Fidelity::Fast, 81);
        let da = a.record(5);
        let db = b.record(5);
        assert_eq!(da.positions[3].sweeps[1], db.positions[3].sweeps[1]);
    }
}
