//! Mobility + blockage tracking at equal airtime (`ext-tracking`).
//!
//! §7: "the shorter the sweeping time, the more often a sweep can be
//! performed without degrading the throughput too much. Hence, our
//! approach is best suited to increase the performance and frequency of
//! sweeping." This experiment makes that quantitative: one pair, the
//! transmitter slowly rotating while blockage episodes hit the channel;
//! each policy re-trains as often as a fixed *training airtime budget*
//! allows — so CSS(14) trains 2.3× more often than the stock sweep for
//! the same budget — and the metric is the achieved data rate over time.

use crate::policy::TrainingPolicy;
use geom::rng::sub_rng;
use talon_array::SectorId;
use talon_channel::{
    BlockageModel, DataLinkModel, Device, DynamicEnvironment, Environment, Link, Orientation,
};

/// Configuration of the tracking experiment.
#[derive(Debug, Clone)]
pub struct TrackingConfig {
    /// Simulated horizon, seconds.
    pub horizon_s: f64,
    /// Fraction of airtime each policy may spend training.
    pub training_budget: f64,
    /// Rotation rate of the transmitter, degrees per second.
    pub rotation_deg_per_s: f64,
    /// Rotation extent: yaw oscillates in ±this, degrees.
    pub rotation_extent_deg: f64,
    /// Blockage process.
    pub blockage: BlockageModel,
    /// Data-plane rate model.
    pub rate_model: DataLinkModel,
    /// Rate-sampling step, seconds.
    pub sample_step_s: f64,
}

impl Default for TrackingConfig {
    fn default() -> Self {
        TrackingConfig {
            horizon_s: 30.0,
            training_budget: 0.004, // 0.4 % of airtime for beam management
            rotation_deg_per_s: 45.0,
            rotation_extent_deg: 45.0,
            blockage: BlockageModel::default(),
            rate_model: DataLinkModel::default(),
            sample_step_s: 0.02,
        }
    }
}

/// Result of one policy's tracking run.
#[derive(Debug, Clone)]
pub struct TrackingResult {
    /// Policy display name.
    pub policy: String,
    /// Re-trainings performed over the horizon.
    pub trainings: usize,
    /// Re-training interval implied by the airtime budget, seconds.
    pub train_interval_s: f64,
    /// Mean achieved TCP goodput over the horizon, Gbps.
    pub mean_gbps: f64,
    /// Fraction of samples with an unusable link (rate 0).
    pub outage_fraction: f64,
    /// Mean staleness loss: achieved rate vs the rate of the
    /// currently-optimal sector, Gbps.
    pub mean_rate_gap_gbps: f64,
    /// Online quality summary: SNR-loss quantiles, misselection rate, and
    /// the drift epochs the EWMA+CUSUM monitor detected during the run.
    pub quality: obs::QualitySummary,
}

/// Triangle-wave yaw trajectory in ±extent at the given rate.
fn yaw_at(t_s: f64, rate_deg_s: f64, extent_deg: f64) -> f64 {
    if extent_deg <= 0.0 {
        return 0.0;
    }
    let period = 4.0 * extent_deg / rate_deg_s;
    let phase = (t_s / period).fract() * 4.0; // 0..4
    match phase {
        p if p < 1.0 => p * extent_deg,
        p if p < 3.0 => (2.0 - p) * extent_deg,
        p => (p - 4.0) * extent_deg,
    }
}

/// Runs the tracking experiment for one policy.
pub fn tracking_run(
    config: &TrackingConfig,
    mut policy: TrainingPolicy,
    seed: u64,
) -> TrackingResult {
    let mut rng = sub_rng(seed, "tracking");
    let mut tx = Device::talon(seed);
    let rx = Device::talon(seed.wrapping_add(1));
    let dynenv = DynamicEnvironment::with_blockage(
        Environment::conference_room(),
        &config.blockage,
        &mut rng,
        config.horizon_s,
    );

    // Equal-airtime budget → per-policy re-training interval.
    let t_train_s = policy.training_time(34).as_ms() / 1000.0;
    let train_interval_s = t_train_s / config.training_budget;

    let rxw = rx.codebook.rx_sector().weights.clone();
    let mut current: Option<SectorId> = None;
    let mut next_training = 0.0;
    let mut trainings = 0;
    let mut rates = Vec::new();
    let mut gaps = Vec::new();
    let mut outages = 0usize;
    // Online drift monitoring over the SNR-loss and misselection streams.
    // The CUSUM alarms are `health.link_drift` counters (sink-gated events),
    // so they surface in registry snapshots and `talon report --quality`
    // alike.
    let mut quality = obs::QualityMonitor::new();

    let mut t = 0.0;
    while t < config.horizon_s {
        tx.orientation = Orientation::new(
            yaw_at(t, config.rotation_deg_per_s, config.rotation_extent_deg),
            0.0,
        );
        let link = Link::new(dynenv.at(t));
        // Reference: the best SNR any sector could achieve right now (the
        // rate model is monotone in SNR, so this also gives the best rate).
        let best_snr = tx
            .codebook
            .sweep_order()
            .into_iter()
            .map(|s| link.true_snr_db(&tx, s, &rx, &rxw))
            .fold(f64::NEG_INFINITY, f64::max);
        if t >= next_training {
            if let Some(sel) = policy.train(&mut rng, &link, &tx, &rx) {
                current = Some(sel);
            }
            trainings += 1;
            next_training = t + train_interval_s;
            if let Some(sel) = current {
                let chosen_snr = link.true_snr_db(&tx, sel, &rx, &rxw);
                quality.record_selection(
                    t,
                    best_snr - chosen_snr > obs::monitor::MISSELECTION_THRESHOLD_DB,
                );
            }
        }
        // Achieved rate with the currently selected sector, whose loss
        // also feeds the drift monitor. A blocked LoS moves the optimum to
        // a reflection, so a stale selection shows up here as a step the
        // CUSUM alarms on.
        let rate = match current {
            Some(sel) => {
                let snr = link.true_snr_db(&tx, sel, &rx, &rxw);
                quality.record_loss(t, best_snr - snr);
                config.rate_model.tcp_gbps(snr)
            }
            None => 0.0,
        };
        let best = config.rate_model.tcp_gbps(best_snr);
        if rate == 0.0 {
            if outages == 0 || *rates.last().expect("outage implies a prior sample") > 0.0 {
                // Report the transition into outage, not every sample spent
                // in it — one anomaly per blockage/rotation event.
                obs::health::anomaly(
                    "link_outage",
                    &[
                        ("t_s", t),
                        ("sector", current.map_or(-1.0, |s| f64::from(s.raw()))),
                    ],
                );
            }
            outages += 1;
        }
        rates.push(rate);
        gaps.push(best - rate);
        t += config.sample_step_s;
    }

    let result = TrackingResult {
        policy: policy.name(),
        trainings,
        train_interval_s,
        mean_gbps: geom::stats::mean(&rates).unwrap_or(0.0),
        outage_fraction: outages as f64 / rates.len() as f64,
        mean_rate_gap_gbps: geom::stats::mean(&gaps).unwrap_or(0.0),
        quality: quality.summary(),
    };
    // Per-run rollup for the trace (one span per tracking experiment).
    if let Some(mut span) = obs::sink_active().then(|| obs::span!("netsim.tracking")) {
        span.field("trainings", result.trainings as f64);
        span.field("outage_fraction", result.outage_fraction);
        span.field("mean_gbps", result.mean_gbps);
        span.field("drift_epochs", result.quality.drift_epochs.len() as f64);
        span.field("misselections", result.quality.misselections as f64);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use chamber::{Campaign, CampaignConfig};

    #[test]
    fn yaw_trajectory_is_bounded_and_periodic() {
        for i in 0..400 {
            let t = i as f64 * 0.1;
            let y = yaw_at(t, 10.0, 45.0);
            assert!(y.abs() <= 45.0 + 1e-9, "yaw {y} at {t}");
        }
        // Starts at 0, rises at the rate.
        assert!((yaw_at(1.0, 10.0, 45.0) - 10.0).abs() < 1e-9);
        assert_eq!(yaw_at(5.0, 10.0, 0.0), 0.0);
    }

    fn patterns() -> chamber::SectorPatterns {
        let link = Link::new(Environment::anechoic(3.0));
        let mut dut = Device::talon(90);
        let peer = Device::talon(91);
        let mut campaign = Campaign::new(CampaignConfig::coarse(), 90);
        let mut rng = sub_rng(90, "tracking-campaign");
        campaign.measure_tx_patterns(&mut rng, &link, &mut dut, &peer)
    }

    #[test]
    fn equal_budget_gives_css_more_trainings() {
        let p = patterns();
        let config = TrackingConfig {
            horizon_s: 10.0,
            ..TrackingConfig::default()
        };
        let ssw = tracking_run(&config, TrainingPolicy::ssw(), 90);
        let css = tracking_run(&config, TrainingPolicy::css(p, 14, 90), 90);
        let ratio = css.trainings as f64 / ssw.trainings as f64;
        assert!(
            (2.0..2.6).contains(&ratio),
            "training ratio {ratio} (SSW {} vs CSS {})",
            ssw.trainings,
            css.trainings
        );
        assert!(css.train_interval_s < ssw.train_interval_s);
    }

    #[test]
    fn drift_monitor_flags_a_blockage_epoch() {
        // Heavy, long LoS blockage episodes in a reflective room: the
        // optimum jumps to a reflection while the stale selection keeps
        // pointing through the blocker, so the SNR-loss stream steps and
        // the CUSUM must alarm. No rotation — blockage is the only signal.
        let config = TrackingConfig {
            horizon_s: 10.0,
            rotation_deg_per_s: 0.0,
            rotation_extent_deg: 0.0,
            training_budget: 0.002,
            blockage: BlockageModel {
                rate_per_s: 0.4,
                attenuation_db: (25.0, 30.0),
                duration_s: (1.0, 2.0),
                los_fraction: 1.0,
            },
            ..TrackingConfig::default()
        };
        let before = obs::global().snapshot().counter("health.link_drift");
        let out = tracking_run(&config, TrainingPolicy::ssw(), 92);
        assert!(
            !out.quality.drift_epochs.is_empty(),
            "blockage epochs detected: {:?}",
            out.quality
        );
        assert!(
            obs::global().snapshot().counter("health.link_drift") > before,
            "drift alarms surface as health counters"
        );
    }

    #[test]
    fn quiet_link_raises_no_drift_alarm() {
        let config = TrackingConfig {
            horizon_s: 10.0,
            rotation_deg_per_s: 0.0,
            rotation_extent_deg: 0.0,
            blockage: BlockageModel {
                rate_per_s: 0.0,
                ..BlockageModel::default()
            },
            ..TrackingConfig::default()
        };
        let out = tracking_run(&config, TrainingPolicy::ssw(), 93);
        assert!(
            out.quality.drift_epochs.is_empty(),
            "static unblocked link must not alarm: {:?}",
            out.quality
        );
        // Probe noise causes the occasional >1 dB pick even on a clean
        // static link; what matters is that no *run* of them accumulates.
        assert!(out.quality.misselection_rate < 0.2, "{:?}", out.quality);
    }

    #[test]
    fn faster_retraining_tracks_rotation_better() {
        let p = patterns();
        // Fast rotation and a tight training budget, no blockage: the
        // stock sweep's selection goes stale by ~40° between trainings
        // while CSS refreshes 2.3× as often.
        let config = TrackingConfig {
            horizon_s: 20.0,
            rotation_deg_per_s: 60.0,
            training_budget: 0.002,
            blockage: BlockageModel {
                rate_per_s: 0.0,
                ..BlockageModel::default()
            },
            ..TrackingConfig::default()
        };
        let ssw = tracking_run(&config, TrainingPolicy::ssw(), 91);
        let css = tracking_run(&config, TrainingPolicy::css(p, 14, 91), 91);
        // CSS's fresher selections must not trail the rotating optimum by
        // more than the slow-training sweep does.
        assert!(
            css.mean_rate_gap_gbps <= ssw.mean_rate_gap_gbps + 0.05,
            "gap CSS {:.3} vs SSW {:.3}",
            css.mean_rate_gap_gbps,
            ssw.mean_rate_gap_gbps
        );
        assert!(css.mean_gbps > 0.5, "link stays usable: {}", css.mean_gbps);
    }
}
