//! The complete compressive sector selection pipeline (§2.2).
//!
//! 1. Probe `M` of the `N` available sectors ([`ProbeStrategy`]).
//! 2. Estimate the angle of arrival from the readings
//!    ([`CompressiveEstimator`], Eqs. 2/3/5).
//! 3. Select the sector with the highest measured gain in that direction
//!    (Eq. 4).
//!
//! [`CompressiveSelection`] implements [`mac80211ad::FeedbackPolicy`], so
//! it slots into the SLS runner exactly where the stock argmax sits —
//! mirroring how the real implementation slots into the firmware's sweep
//! handler via the WMI override.
//!
//! Wiring note: selection happens at the *receiver*, but Eqs. 2–4 operate
//! on the *transmitter's* sector patterns (the readings are indexed by the
//! peer's sector IDs, and the estimated angle is the departure direction
//! at the peer). A policy instance therefore holds the measured patterns
//! of the peer whose transmit sector it selects. In practice devices of
//! the same model ship near-identical codebooks — the paper "confirmed
//! that different devices exhibit similar patterns with slight variations"
//! (§4.5) — so one measured database serves a deployment.

use crate::estimator::{patterns_digest, CompressiveEstimator, CorrelationMode, KernelClosure};
use crate::strategy::ProbeStrategy;
use chamber::SectorPatterns;
use geom::sphere::Direction;
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use talon_array::SectorId;
use talon_channel::SweepReading;

/// Configuration of the CSS pipeline.
#[derive(Debug, Clone)]
pub struct CssConfig {
    /// Number of probing sectors `M`.
    pub num_probes: usize,
    /// Correlation mode (the paper's final protocol uses Eq. 5).
    pub mode: CorrelationMode,
    /// Probing-set strategy.
    pub strategy: ProbeStrategy,
}

impl CssConfig {
    /// The paper's operating point: 14 random probes, joint correlation
    /// (§6.4/§6.5).
    pub fn paper_default() -> Self {
        CssConfig {
            num_probes: 14,
            mode: CorrelationMode::JointSnrRssi,
            strategy: ProbeStrategy::UniformRandom,
        }
    }
}

/// Ground truth for one upcoming selection, supplied by a simulation
/// harness that can afford an exhaustive sweep: the true SNR every sector
/// would have achieved. Lets the decision record carry the Eq. 1 vs Eq. 4
/// gap (true-best sector and SNR loss) alongside what CSS actually chose.
#[derive(Debug, Clone, Default)]
pub struct DecisionOracle {
    /// `(sector, true SNR dB)` for every selectable sector.
    pub snr_by_sector: Vec<(SectorId, f64)>,
}

/// How many top correlation cells a decision record keeps.
const DECISION_TOP_K: usize = 8;

/// The `source` stamped on this policy's decision records.
const DECISION_SOURCE: &str = "css.select";

/// The compressive sector selection policy.
pub struct CompressiveSelection {
    estimator: CompressiveEstimator,
    /// All sector IDs with measured patterns (the full `N`-sector set),
    /// sorted ascending (the pattern store's map keys).
    available: Vec<SectorId>,
    /// `has_pattern[id]`: whether sector `id` is in `available`.
    has_pattern: [bool; 256],
    patterns: SectorPatterns,
    config: CssConfig,
    rng: StdRng,
    /// FNV-1a digest of `patterns`, stamped on decision records.
    digest: u64,
    /// Oracle for the *next* selection, taken (and cleared) by
    /// [`Self::select_from_readings`] whether or not a sink records.
    pending_oracle: Option<DecisionOracle>,
    /// The direction estimated in the most recent selection (for
    /// diagnostics and the evaluation harness).
    pub last_estimate: Option<(Direction, f64)>,
    /// Metric handles, resolved once.
    selections: std::sync::Arc<obs::Counter>,
    fallbacks: std::sync::Arc<obs::Counter>,
    /// The recording path's buffers, refilled in place every recorded
    /// selection so a warm one allocates nothing: the kernel closure, the
    /// decision record, and the record's oracle table.
    closure: KernelClosure,
    record: obs::DecisionRecord,
    oracle_table: Vec<(u64, f64)>,
}

impl CompressiveSelection {
    /// Builds the policy from a measured pattern database.
    ///
    /// `seed` drives the per-sweep random probe subsets.
    pub fn new(patterns: SectorPatterns, config: CssConfig, seed: u64) -> Self {
        let estimator = CompressiveEstimator::new(&patterns, config.mode);
        let available = patterns.sector_ids();
        let mut has_pattern = [false; 256];
        for id in &available {
            has_pattern[usize::from(id.raw())] = true;
        }
        let digest = patterns_digest(&patterns);
        CompressiveSelection {
            estimator,
            available,
            has_pattern,
            patterns,
            config,
            rng: StdRng::seed_from_u64(seed),
            digest,
            pending_oracle: None,
            last_estimate: None,
            selections: obs::counter("css.selections"),
            fallbacks: obs::counter("css.fallbacks"),
            closure: KernelClosure::default(),
            record: obs::DecisionRecord::new(DECISION_SOURCE),
            oracle_table: Vec::new(),
        }
    }

    /// The FNV-1a digest of the pattern database backing this policy (the
    /// value stamped on decision records).
    pub fn patterns_digest(&self) -> u64 {
        self.digest
    }

    /// Supplies ground truth for the *next* selection. The oracle is
    /// consumed (and cleared) by the next [`Self::select_from_readings`],
    /// so a stale oracle can never be attributed to a later sweep.
    pub fn provide_oracle(&mut self, oracle: DecisionOracle) {
        self.pending_oracle = Some(oracle);
    }

    /// Replaces the Eq. 3 argmax options (energy prior, smoothing,
    /// sub-cell refinement), e.g. for the DESIGN.md ablations. The live
    /// kernel is always the exact f64 one.
    pub fn set_estimator_options(&mut self, options: crate::estimator::EstimatorOptions) {
        self.estimator.options = options;
    }

    /// The estimator options currently in effect (stamped on every
    /// decision record).
    pub fn estimator_options(&self) -> crate::estimator::EstimatorOptions {
        self.estimator.options
    }

    /// The configured probe count.
    pub fn num_probes(&self) -> usize {
        self.config.num_probes
    }

    /// Draws the probing set for the next sweep.
    pub fn draw_probes(&mut self) -> Vec<SectorId> {
        self.config
            .strategy
            .pick(&mut self.rng, &self.available, self.config.num_probes)
    }

    /// Runs steps 2 + 3 on existing readings (the offline-analysis entry
    /// point used by the evaluation, which replays recorded sweeps).
    pub fn select_from_readings(&mut self, readings: &[SweepReading]) -> Option<SectorId> {
        self.selections.inc();
        // Taken unconditionally: an oracle provided for this sweep must
        // never survive to describe a later one.
        let oracle = self.pending_oracle.take();
        // While a sink records, the decision's provenance closure comes
        // out of the same kernel pass as the estimate.
        let recording = obs::sink_active();
        let estimate = if recording {
            self.estimator
                .estimate_with_closure(readings, DECISION_TOP_K, &mut self.closure)
        } else {
            self.estimator.estimate(readings)
        };
        self.last_estimate = estimate;
        let (chosen, fallback) = match estimate {
            Some((dir, _)) => (self.patterns.best_sector_at(&dir), false),
            None => {
                // Degenerate sweep (fewer than two usable probes): fall
                // back to whatever argmax can salvage, like the firmware
                // would.
                self.fallbacks.inc();
                (MaxSnrPolicy.select(readings), true)
            }
        };
        if recording {
            self.emit_decision(readings, estimate, chosen, fallback, oracle.as_ref());
        }
        chosen
    }

    /// Refills and emits the provenance record of one selection from the
    /// kernel closure the estimate just filled. Only called while a sink
    /// records.
    fn emit_decision(
        &mut self,
        readings: &[SweepReading],
        estimate: Option<(Direction, f64)>,
        chosen: Option<SectorId>,
        fallback: bool,
        oracle: Option<&DecisionOracle>,
    ) {
        let rec = &mut self.record;
        rec.reset(DECISION_SOURCE);
        rec.mode.push_str(match self.config.mode {
            CorrelationMode::SnrOnly => "snr",
            CorrelationMode::JointSnrRssi => "joint",
        });
        let opts = self.estimator.options;
        rec.energy_prior = opts.energy_prior;
        rec.smoothing = opts.smoothing;
        rec.subcell_refinement = opts.subcell_refinement;
        rec.patterns_digest = self.digest;
        rec.replayable = true;
        for r in readings {
            rec.push_probe(
                u64::from(r.sector.raw()),
                r.measurement.map(|m| (m.snr_db, m.rssi_dbm)),
            );
        }
        let closure = &self.closure;
        rec.p_snr.extend_from_slice(&closure.p_snr);
        rec.p_rssi.extend_from_slice(&closure.p_rssi);
        rec.top_cells.extend_from_slice(&closure.top_cells);
        rec.top_weights.extend_from_slice(&closure.top_weights);
        rec.energy_max = closure.energy_max;
        if let Some((dir, score)) = estimate {
            rec.has_estimate = true;
            rec.est_az_deg = dir.az_deg;
            rec.est_el_deg = dir.el_deg;
            rec.score = score;
        }
        rec.chosen_sector = chosen.map_or(obs::decision::NO_SECTOR, |s| i64::from(s.raw()));
        rec.fallback = fallback;
        if let Some(o) = oracle {
            let table = &mut self.oracle_table;
            table.clear();
            table.extend(
                o.snr_by_sector
                    .iter()
                    .map(|&(s, snr)| (u64::from(s.raw()), snr)),
            );
            rec.set_oracle(table, rec.chosen_sector);
        }
        obs::decision::emit(rec);
    }

    /// Estimates the direction only (used by Fig. 7's error analysis).
    pub fn estimate_direction(&self, readings: &[SweepReading]) -> Option<(Direction, f64)> {
        self.estimator.estimate(readings)
    }

    /// Access to the measured patterns backing this policy.
    pub fn patterns(&self) -> &SectorPatterns {
        &self.patterns
    }
}

impl FeedbackPolicy for CompressiveSelection {
    fn probe_sectors(&mut self, full_sweep: &[SectorId]) -> Vec<SectorId> {
        // Probe only sectors we have patterns for; the draw is a fresh
        // random subset per sweep, as in the paper.
        let has_pattern = &self.has_pattern;
        let probeable = full_sweep
            .iter()
            .filter(|id| has_pattern[usize::from(id.raw())]);
        self.config
            .strategy
            .pick(&mut self.rng, probeable, self.config.num_probes)
    }

    fn select(&mut self, readings: &[SweepReading]) -> Option<SectorId> {
        self.select_from_readings(readings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chamber::{Campaign, CampaignConfig};
    use geom::rng::sub_rng;
    use mac80211ad::sls::SlsRunner;
    use talon_channel::{Device, Environment, Link, Orientation};

    /// Measures coarse patterns once for the shared test device.
    fn measured_patterns(dut_seed: u64) -> (SectorPatterns, Device) {
        let link = Link::new(Environment::anechoic(3.0));
        let mut dut = Device::talon(dut_seed);
        let observer = Device::talon(99);
        let mut campaign = Campaign::new(CampaignConfig::coarse(), dut_seed);
        let mut rng = sub_rng(dut_seed, "selection-test-campaign");
        let store = campaign.measure_tx_patterns(&mut rng, &link, &mut dut, &observer);
        dut.orientation = Orientation::NEUTRAL;
        (store, dut)
    }

    #[test]
    fn probe_sectors_draws_m_distinct() {
        let (store, dut) = measured_patterns(21);
        let mut css = CompressiveSelection::new(store, CssConfig::paper_default(), 1);
        let full = dut.codebook.sweep_order();
        let probes = css.probe_sectors(&full);
        assert_eq!(probes.len(), 14);
        let mut sorted = probes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 14);
    }

    /// The probe draw before the membership table: filter the sweep into a
    /// list by binary search, then draw uniform indices into it.
    fn filter_then_pick(
        rng: &mut StdRng,
        available: &[SectorId],
        full: &[SectorId],
        m: usize,
    ) -> Vec<SectorId> {
        let avail: Vec<SectorId> = full
            .iter()
            .copied()
            .filter(|id| available.binary_search(id).is_ok())
            .collect();
        let idx = geom::rng::sample_indices(rng, avail.len(), m.min(avail.len()));
        idx.into_iter().map(|i| avail[i]).collect()
    }

    #[test]
    fn probe_draws_equal_the_filter_then_pick_draws() {
        use geom::sphere::{GridSpec, SphericalGrid};
        use rand::Rng;
        let grid = SphericalGrid::new(GridSpec::new(-10.0, 10.0, 5.0), GridSpec::fixed(0.0));
        let mut store = SectorPatterns::new(grid.clone());
        let known: Vec<u8> = (1..=34).chain([63, 200]).collect();
        for &id in &known {
            let gains = (0..grid.len()).map(|i| f64::from(id) + i as f64).collect();
            store.insert(
                SectorId(id),
                talon_array::GainPattern::from_table(grid.clone(), gains),
            );
        }
        let available = store.sector_ids();
        let seed = 17;
        let mut css = CompressiveSelection::new(store, CssConfig::paper_default(), seed);
        let mut reference = StdRng::seed_from_u64(seed);
        let mut sweeps = sub_rng(18, "probe-draw-sweeps");
        for trial in 0..300 {
            // A shuffled sweep of known and unknown sectors, sometimes
            // holding fewer known sectors than the probe count.
            let len = sweeps.gen_range(0..64usize);
            let full: Vec<SectorId> = (0..len)
                .map(|_| SectorId(sweeps.gen_range(0..=255u8)))
                .collect();
            let expected = filter_then_pick(&mut reference, &available, &full, 14);
            assert_eq!(
                css.probe_sectors(&full),
                expected,
                "sweep {trial}: {full:?}"
            );
        }
        // Both generators consumed the same draws.
        assert_eq!(css.rng.gen::<u64>(), reference.gen::<u64>());
    }

    #[test]
    fn consecutive_draws_differ() {
        let (store, dut) = measured_patterns(21);
        let mut css = CompressiveSelection::new(store, CssConfig::paper_default(), 2);
        let full = dut.codebook.sweep_order();
        let a = css.probe_sectors(&full);
        let b = css.probe_sectors(&full);
        assert_ne!(a, b, "fresh random subset per sweep");
    }

    #[test]
    fn css_selects_a_sector_close_to_optimal_in_sls() {
        let (store, dut) = measured_patterns(21);
        let responder = Device::talon(22);
        let link = Link::new(Environment::anechoic(3.0));
        // Rotate the DUT so the best sector is a steered one.
        let mut rotated = dut.clone();
        rotated.orientation = Orientation::new(-30.0, 0.0);
        let mut css = CompressiveSelection::new(store, CssConfig::paper_default(), 3);
        let mut stock = mac80211ad::sls::MaxSnrPolicy;
        let runner = SlsRunner::new(&link, &rotated, &responder);
        let mut rng = sub_rng(4, "css-sls");
        // Responder runs CSS to select the initiator's sector.
        let out = runner.run(&mut rng, &mut stock, &mut css);
        let chosen = out.initiator_tx_sector.expect("CSS chose a sector");
        // Compare against the true best sector.
        let rxw = responder.codebook.rx_sector().weights.clone();
        let true_best = rotated
            .codebook
            .sweep_order()
            .into_iter()
            .max_by(|&a, &b| {
                let sa = link.true_snr_db(&rotated, a, &responder, &rxw);
                let sb = link.true_snr_db(&rotated, b, &responder, &rxw);
                sa.partial_cmp(&sb).unwrap()
            })
            .unwrap();
        let snr_chosen = link.true_snr_db(&rotated, chosen, &responder, &rxw);
        let snr_best = link.true_snr_db(&rotated, true_best, &responder, &rxw);
        assert!(
            snr_best - snr_chosen < 3.5,
            "CSS sector {chosen} within 3.5 dB of optimum ({snr_chosen:.1} vs {snr_best:.1})"
        );
        // Only 14 sectors were probed during the ISS.
        assert_eq!(out.iss_readings.len(), 34, "initiator used stock sweep");
    }

    #[test]
    fn css_restricts_its_own_sweep_to_m_probes() {
        let (store, dut) = measured_patterns(21);
        let responder = Device::talon(22);
        let link = Link::new(Environment::anechoic(3.0));
        let mut css = CompressiveSelection::new(store, CssConfig::paper_default(), 5);
        let mut stock = mac80211ad::sls::MaxSnrPolicy;
        let runner = SlsRunner::new(&link, &dut, &responder);
        let mut rng = sub_rng(6, "css-own-sweep");
        // Initiator runs CSS: its ISS must only contain 14 frames.
        let out = runner.run(&mut rng, &mut css, &mut stock);
        assert_eq!(out.iss_readings.len(), 14);
    }

    #[test]
    fn fallback_to_argmax_on_degenerate_sweep() {
        let (store, _) = measured_patterns(21);
        let mut css = CompressiveSelection::new(store, CssConfig::paper_default(), 7);
        let readings = vec![SweepReading {
            sector: SectorId(9),
            measurement: Some(talon_channel::Measurement {
                snr_db: 6.0,
                rssi_dbm: -60.0,
            }),
        }];
        // Single usable probe: no estimate, but argmax still answers.
        assert_eq!(css.select_from_readings(&readings), Some(SectorId(9)));
        assert!(css.last_estimate.is_none());
    }

    #[test]
    fn selection_emits_a_replayable_decision_record() {
        let _guard = obs::testing::lock();
        let (store, dut) = measured_patterns(21);
        let digest = crate::estimator::patterns_digest(&store);
        let mut css = CompressiveSelection::new(store, CssConfig::paper_default(), 11);
        let link = Link::new(Environment::anechoic(3.0));
        let observer = Device::talon(22);
        let probes = css.draw_probes();
        let mut rng = sub_rng(12, "decision-record");
        let readings = link.sweep(&mut rng, &dut, &probes, &observer);
        // Oracle: the true SNR of every probed sector.
        let rxw = observer.codebook.rx_sector().weights.clone();
        let oracle = DecisionOracle {
            snr_by_sector: probes
                .iter()
                .map(|&s| (s, link.true_snr_db(&dut, s, &observer, &rxw)))
                .collect(),
        };

        let mem = std::sync::Arc::new(obs::MemorySink::new());
        obs::set_sink(mem.clone());
        css.provide_oracle(oracle);
        let chosen = css.select_from_readings(&readings);
        obs::clear_sink();

        let decisions = mem.take_decisions();
        assert_eq!(decisions.len(), 1);
        let d = &decisions[0];
        assert_eq!(d.source, "css.select");
        assert_eq!(d.mode, "joint");
        assert!(d.replayable);
        assert_eq!(d.patterns_digest, digest);
        assert_eq!(d.probed.len(), readings.len());
        assert!(d.has_estimate);
        assert_eq!(d.chosen_sector, chosen.map_or(-1, |s| i64::from(s.raw())));
        assert!(d.has_oracle);
        assert!(d.snr_loss_db >= 0.0, "oracle best at least the choice");
        assert!(!d.top_cells.is_empty());
        // The oracle is consumed: a second selection has none.
        obs::set_sink(mem.clone());
        let _ = css.select_from_readings(&readings);
        obs::clear_sink();
        assert!(!mem.take_decisions()[0].has_oracle);
    }

    #[test]
    fn last_estimate_is_recorded() {
        let (store, dut) = measured_patterns(21);
        let mut css = CompressiveSelection::new(
            store.clone(),
            CssConfig {
                num_probes: 20,
                mode: CorrelationMode::JointSnrRssi,
                strategy: ProbeStrategy::UniformRandom,
            },
            8,
        );
        let link = Link::new(Environment::anechoic(3.0));
        let observer = Device::talon(22);
        let probes = css.draw_probes();
        let mut rng = sub_rng(9, "last-estimate");
        let readings = link.sweep(&mut rng, &dut, &probes, &observer);
        let _ = css.select_from_readings(&readings);
        let (dir, score) = css.last_estimate.expect("estimate recorded");
        // The DUT faces the observer: the estimate should be frontal.
        assert!(dir.az_deg.abs() < 30.0, "frontal estimate: {dir}");
        assert!(score > 0.0);
    }
}
