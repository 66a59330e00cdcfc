//! Training-policy abstraction for the network-scale experiments.
//!
//! A [`TrainingPolicy`] bundles what the experiments need to know about a
//! beam-training scheme: how many probes one training costs (which sets
//! its airtime via the §4.1 timing model) and how a transmit sector is
//! selected from one sweep's readings.

use chamber::SectorPatterns;
use css::selection::{CompressiveSelection, CssConfig, DecisionOracle};
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy};
use mac80211ad::timing::{mutual_training_time, SimDuration};
use rand::Rng;
use talon_array::SectorId;
use talon_channel::{Device, Link, SweepReading};

/// A beam-training scheme under test.
pub enum TrainingPolicy {
    /// The stock exhaustive sweep (Eq. 1).
    Ssw,
    /// Compressive selection with a probe budget.
    Css(Box<CompressiveSelection>),
}

impl TrainingPolicy {
    /// Stock sweep.
    pub fn ssw() -> Self {
        TrainingPolicy::Ssw
    }

    /// Compressive selection with `m` probes over measured `patterns`.
    pub fn css(patterns: SectorPatterns, m: usize, seed: u64) -> Self {
        TrainingPolicy::Css(Box::new(CompressiveSelection::new(
            patterns,
            CssConfig {
                num_probes: m,
                ..CssConfig::paper_default()
            },
            seed,
        )))
    }

    /// Short display name.
    pub fn name(&self) -> String {
        match self {
            TrainingPolicy::Ssw => "SSW".into(),
            TrainingPolicy::Css(c) => format!("CSS({})", c.num_probes()),
        }
    }

    /// Probes per one-directional training sweep.
    pub fn probes(&self, full_sweep_len: usize) -> usize {
        match self {
            TrainingPolicy::Ssw => full_sweep_len,
            TrainingPolicy::Css(c) => c.num_probes().min(full_sweep_len),
        }
    }

    /// Airtime of one *mutual* training under the §4.1 timing model.
    pub fn training_time(&self, full_sweep_len: usize) -> SimDuration {
        mutual_training_time(self.probes(full_sweep_len))
    }

    /// Performs one training of `tx`'s sector over the link and returns
    /// the selected sector.
    pub fn train<R: Rng>(
        &mut self,
        rng: &mut R,
        link: &Link,
        tx: &Device,
        rx: &Device,
    ) -> Option<SectorId> {
        let full = tx.codebook.sweep_order();
        let probes = match self {
            TrainingPolicy::Ssw => full,
            TrainingPolicy::Css(c) => c.probe_sectors(&full),
        };
        let readings: Vec<SweepReading> = link.sweep(rng, tx, &probes, rx);
        // While a trace records, hand the CSS policy an exhaustive-sweep
        // oracle so its decision record carries the true-best sector and
        // SNR loss. The oracle sweep is noise-free simulator ground truth
        // (`true_snr_db`), so it perturbs nothing.
        if obs::sink_active() {
            if let TrainingPolicy::Css(selection) = self {
                let rxw = &rx.codebook.rx_sector().weights;
                let snr_by_sector = tx
                    .codebook
                    .sweep_order()
                    .into_iter()
                    .map(|s| (s, link.true_snr_db(tx, s, rx, rxw)))
                    .collect();
                selection.provide_oracle(DecisionOracle { snr_by_sector });
            }
        }
        match self {
            TrainingPolicy::Ssw => MaxSnrPolicy.select(&readings),
            TrainingPolicy::Css(c) => c.select_from_readings(&readings),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chamber::{Campaign, CampaignConfig};
    use geom::rng::sub_rng;
    use talon_channel::Environment;

    fn patterns() -> (SectorPatterns, Device, Device) {
        let link = Link::new(Environment::anechoic(3.0));
        let mut dut = Device::talon(70);
        let peer = Device::talon(71);
        let mut campaign = Campaign::new(CampaignConfig::coarse(), 70);
        let mut rng = sub_rng(70, "policy-campaign");
        let p = campaign.measure_tx_patterns(&mut rng, &link, &mut dut, &peer);
        dut.orientation = talon_channel::Orientation::NEUTRAL;
        (p, dut, peer)
    }

    #[test]
    fn names_and_probe_counts() {
        let (p, _, _) = patterns();
        let ssw = TrainingPolicy::ssw();
        let css = TrainingPolicy::css(p, 14, 1);
        assert_eq!(ssw.name(), "SSW");
        assert_eq!(css.name(), "CSS(14)");
        assert_eq!(ssw.probes(34), 34);
        assert_eq!(css.probes(34), 14);
        assert!((ssw.training_time(34).as_ms() - 1.2731).abs() < 1e-9);
        assert!((css.training_time(34).as_ms() - 0.5531).abs() < 1e-9);
    }

    #[test]
    fn both_policies_select_reasonable_sectors() {
        let (p, dut, peer) = patterns();
        let link = Link::new(Environment::lab());
        let rxw = peer.codebook.rx_sector().weights.clone();
        let optimum = dut
            .codebook
            .sweep_order()
            .into_iter()
            .map(|s| link.true_snr_db(&dut, s, &peer, &rxw))
            .fold(f64::NEG_INFINITY, f64::max);
        let mut rng = sub_rng(71, "policy-train");
        for mut pol in [TrainingPolicy::ssw(), TrainingPolicy::css(p.clone(), 14, 2)] {
            let sel = pol.train(&mut rng, &link, &dut, &peer).expect("selects");
            let snr = link.true_snr_db(&dut, sel, &peer, &rxw);
            assert!(
                optimum - snr < 4.0,
                "{} selected {sel} at {snr:.1} dB vs optimum {optimum:.1}",
                pol.name()
            );
        }
    }
}
