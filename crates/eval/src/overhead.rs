//! Fig. 10 — training time vs number of probing sectors.
//!
//! The analytic model is `t(M) = 2·M·18.0 µs + 49.1 µs` (§4.1, §6.4); this
//! module evaluates it over the probe counts and cross-checks it against
//! the event-driven SLS simulation, asserting the paper's anchor points:
//! 1.27 ms for the stock 34-probe sweep, 0.55 ms at 14 probes, speedup 2.3.

use geom::rng::sub_rng;
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy, SlsRunner};
use mac80211ad::timing::mutual_training_time;
use serde::Serialize;
use talon_array::SectorId;
use talon_channel::{Device, Environment, Link, SweepReading};

/// The Fig. 10 series.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadResult {
    /// `(probes, training time ms)` from the timing model.
    pub model: Vec<(usize, f64)>,
    /// `(probes, training time ms)` measured on the simulated protocol.
    pub simulated: Vec<(usize, f64)>,
    /// Stock sweep time (34 probes), ms.
    pub ssw_ms: f64,
    /// CSS time at the paper's operating point (14 probes), ms.
    pub css14_ms: f64,
}

impl OverheadResult {
    /// The headline speedup factor (paper: 2.3).
    pub fn speedup(&self) -> f64 {
        self.ssw_ms / self.css14_ms
    }
}

/// A policy that probes the first `m` sectors (the timing does not depend
/// on *which* sectors are probed).
struct FixedCount(usize);

impl FeedbackPolicy for FixedCount {
    fn probe_sectors(&mut self, full_sweep: &[SectorId]) -> Vec<SectorId> {
        full_sweep.iter().copied().take(self.0).collect()
    }
    fn select(&mut self, readings: &[SweepReading]) -> Option<SectorId> {
        MaxSnrPolicy.select(readings)
    }
}

/// Runs the Fig. 10 analysis.
pub fn training_time(m_values: &[usize], seed: u64) -> OverheadResult {
    let model: Vec<(usize, f64)> = m_values
        .iter()
        .map(|&m| (m, mutual_training_time(m).as_ms()))
        .collect();

    // Cross-check against the protocol simulation.
    let link = Link::new(Environment::anechoic(3.0));
    let initiator = Device::talon(seed);
    let responder = Device::talon(seed.wrapping_add(1));
    let runner = SlsRunner::new(&link, &initiator, &responder);
    let mut rng = sub_rng(seed, "fig10");
    let simulated: Vec<(usize, f64)> = m_values
        .iter()
        .map(|&m| {
            let out = runner.run(&mut rng, &mut FixedCount(m), &mut FixedCount(m));
            (m, out.duration.as_ms())
        })
        .collect();

    OverheadResult {
        model,
        simulated,
        ssw_ms: mutual_training_time(34).as_ms(),
        css14_ms: mutual_training_time(14).as_ms(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_and_simulation_agree() {
        let _guard = obs::testing::lock();
        let res = training_time(&[6, 14, 22, 34], 1);
        for ((m1, t_model), (m2, t_sim)) in res.model.iter().zip(&res.simulated) {
            assert_eq!(m1, m2);
            assert!(
                (t_model - t_sim).abs() < 1e-9,
                "model {t_model} ms vs simulated {t_sim} ms at {m1} probes"
            );
        }
    }

    #[test]
    fn paper_anchor_points() {
        let _guard = obs::testing::lock();
        let res = training_time(&[14, 34], 2);
        assert!((res.ssw_ms - 1.2731).abs() < 1e-6);
        assert!((res.css14_ms - 0.5531).abs() < 1e-6);
        assert!(
            (res.speedup() - 2.3).abs() < 0.02,
            "speedup {}",
            res.speedup()
        );
    }

    #[test]
    fn time_is_linear_in_probes() {
        let _guard = obs::testing::lock();
        let res = training_time(&[10, 20, 30], 3);
        let t10 = res.model[0].1;
        let t20 = res.model[1].1;
        let t30 = res.model[2].1;
        assert!(((t20 - t10) - (t30 - t20)).abs() < 1e-9, "equal increments");
    }
}
