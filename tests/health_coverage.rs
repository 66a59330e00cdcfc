//! Every `health::anomaly` emitter in the workspace fires under a
//! constructed scenario.
//!
//! Each test drives the real producing layer (not `obs::health` directly)
//! and asserts the `health.<kind>` counter moved. Counters bump with or
//! without a sink installed, so these tests run without touching the
//! process-wide sink and stay parallel-safe: counts from concurrent tests
//! only increase, and every assertion is a strict before/after delta on
//! its own trigger.

use chamber::{Campaign, CampaignConfig, SectorPatterns};
use css::estimator::{CompressiveEstimator, CorrelationMode};
use geom::db::DbQuantizer;
use geom::rng::sub_rng;
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy, SlsRunner};
use netsim::{dense_deployment, tracking_run, DenseConfig, TrackingConfig, TrainingPolicy};
use talon_array::SectorId;
use talon_channel::{
    BlockageModel, Device, Environment, Link, Measurement, Orientation, SweepReading,
};
use wil6210::{Qca9500Firmware, RingBuffer, SweepEntry};

fn counter(name: &str) -> u64 {
    obs::global().snapshot().counter(name)
}

/// Coarse measured patterns plus the matching (neutral-orientation) DUT.
fn measured_patterns(seed: u64) -> (SectorPatterns, Device) {
    let link = Link::new(Environment::anechoic(3.0));
    let mut dut = Device::talon(seed);
    let observer = Device::talon(seed + 1);
    let mut campaign = Campaign::new(CampaignConfig::coarse(), seed);
    let mut rng = sub_rng(seed, "health-campaign");
    let patterns = campaign.measure_tx_patterns(&mut rng, &link, &mut dut, &observer);
    dut.orientation = Orientation::NEUTRAL;
    (patterns, dut)
}

#[test]
fn snr_clamped_fires_when_a_report_saturates_the_wire_format() {
    // The stock quantizer caps reports at 12 dB, far inside the SSW wire
    // range, so saturation needs a firmware whose report scale is wider —
    // then a near-field link pushes the selected sector past 55.75 dB.
    let mut link = Link::new(Environment::anechoic(0.003));
    link.model.snr_quant = DbQuantizer {
        step_db: 0.25,
        min_db: -40.0,
        max_db: 100.0,
    };
    let dut = Device::talon(40);
    let peer = Device::talon(41);
    let runner = SlsRunner::new(&link, &dut, &peer);
    let mut rng = sub_rng(1, "health-clamp");
    let before = counter("health.snr_clamped");
    let _ = runner.run(&mut rng, &mut MaxSnrPolicy, &mut MaxSnrPolicy);
    assert!(
        counter("health.snr_clamped") > before,
        "near-field SLS saturates the feedback field"
    );
}

#[test]
fn missing_probe_fires_when_frames_fall_below_sensitivity() {
    // At 300 m most sectors cannot decode: their sweep readings come back
    // with no measurement and the SLS runner reports the gap.
    let link = Link::new(Environment::anechoic(300.0));
    let dut = Device::talon(42);
    let peer = Device::talon(43);
    let runner = SlsRunner::new(&link, &dut, &peer);
    let mut rng = sub_rng(2, "health-missing");
    let before = counter("health.missing_probe");
    let _ = runner.run(&mut rng, &mut MaxSnrPolicy, &mut MaxSnrPolicy);
    assert!(
        counter("health.missing_probe") > before,
        "a 300 m sweep loses probes"
    );
}

#[test]
fn outlier_residual_fires_on_a_corrupted_report() {
    // Twenty probes whose reports match the measured patterns at one
    // direction exactly, then one weak probe corrupted up to the 12 dB
    // report clamp: the clean majority anchors the estimate there, so the
    // lie cannot bend the direction to fit itself and stands out as a
    // residual against the expected gains.
    let (patterns, _) = measured_patterns(44);
    let estimator = CompressiveEstimator::new(&patterns, CorrelationMode::JointSnrRssi);
    let dir = geom::Direction::new(0.0, 0.0);
    let gains: Vec<(SectorId, f64)> = patterns
        .sector_ids()
        .into_iter()
        .take(20)
        .map(|id| (id, patterns.get(id).expect("measured").gain_interp(&dir)))
        .collect();
    let g_max = gains.iter().map(|g| g.1).fold(f64::NEG_INFINITY, f64::max);
    let mut readings: Vec<SweepReading> = gains
        .iter()
        .map(|&(id, g)| SweepReading {
            sector: id,
            measurement: Some(Measurement {
                snr_db: (12.0 + (g - g_max)).max(-6.0),
                rssi_dbm: (-40.0 + (g - g_max)).max(-95.0),
            }),
        })
        .collect();
    let corrupted = readings
        .iter_mut()
        .min_by(|a, b| {
            let (a, b) = (a.measurement.unwrap().snr_db, b.measurement.unwrap().snr_db);
            a.partial_cmp(&b).expect("reports are finite")
        })
        .expect("non-empty sweep");
    corrupted.measurement = Some(Measurement {
        snr_db: 12.0,
        rssi_dbm: -40.0,
    });
    let before = counter("health.outlier_residual");
    let _ = estimator.estimate(&readings);
    assert!(
        counter("health.outlier_residual") > before,
        "the residual check flags the corrupted probe"
    );
}

#[test]
fn export_gap_fires_when_a_swept_probe_never_reaches_user_space() {
    // The patched firmware exports measured probes to the ring; a reading
    // with no measurement was swept (airtime spent) but never exported.
    let fw = Qca9500Firmware::patched();
    let readings = vec![
        SweepReading {
            sector: SectorId(1),
            measurement: Some(Measurement {
                snr_db: 9.0,
                rssi_dbm: -50.0,
            }),
        },
        SweepReading {
            sector: SectorId(2),
            measurement: None,
        },
    ];
    let before = counter("health.export_gap");
    let _ = (&mut &fw).select(&readings);
    assert!(
        counter("health.export_gap") > before,
        "one of two swept probes was exported"
    );
}

#[test]
fn ring_overflow_fires_when_the_export_ring_wraps() {
    let ring = RingBuffer::new(2);
    let before = counter("health.ring_overflow");
    for i in 0..3u64 {
        ring.push(SweepEntry {
            sweep_id: 1,
            sector: SectorId(i as u8),
            snr_db: 5.0,
            rssi_dbm: -55.0,
        });
    }
    assert!(
        counter("health.ring_overflow") > before,
        "third push into a 2-slot ring overwrites"
    );
}

#[test]
fn link_outage_fires_under_heavy_blockage() {
    // 70–80 dB episodes on the LoS ray: the stale selection's SNR craters
    // below the lowest MCS until the next training, so the data rate hits
    // zero and the tracking loop reports the outage transition.
    let config = TrackingConfig {
        horizon_s: 6.0,
        rotation_deg_per_s: 0.0,
        rotation_extent_deg: 0.0,
        blockage: BlockageModel {
            rate_per_s: 0.8,
            attenuation_db: (70.0, 80.0),
            duration_s: (1.0, 2.0),
            los_fraction: 1.0,
        },
        ..TrackingConfig::default()
    };
    let before = counter("health.link_outage");
    let out = tracking_run(&config, TrainingPolicy::ssw(), 97);
    assert!(
        counter("health.link_outage") > before,
        "blockage forced an outage: fraction {}",
        out.outage_fraction
    );
}

#[test]
fn airtime_saturated_fires_when_training_eats_the_channel() {
    // 64 pairs re-training at 200 Hz with full sweeps: training airtime
    // alone exceeds the channel, leaving nothing for data.
    let (patterns, _) = measured_patterns(46);
    let config = DenseConfig {
        pair_counts: vec![64],
        tracking_hz: 200.0,
        ..DenseConfig::default()
    };
    let before = counter("health.airtime_saturated");
    let _ = dense_deployment(&config, &patterns, |_, _| TrainingPolicy::ssw(), 5);
    assert!(
        counter("health.airtime_saturated") > before,
        "64 pairs at 200 Hz saturate the channel"
    );
}

#[test]
fn trace_corrupt_fires_on_malformed_trace_lines() {
    let dir = std::env::temp_dir().join(format!("talon-health-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("corrupt.bin");
    // Two damaged regions: garbage with no frame marker after a good
    // frame, then a frame truncated mid-payload (a killed writer's tail).
    let good = obs::TraceRecord::Event(obs::Event::mark(1, "ok", Default::default()));
    let mut bytes = obs::binfmt::file_header();
    bytes.extend_from_slice(&obs::binfmt::encode_frame(&good));
    bytes.extend_from_slice(b"this is not a frame");
    let tail = obs::binfmt::encode_frame(&good);
    bytes.extend_from_slice(&tail[..tail.len() - 3]);
    std::fs::write(&path, &bytes).expect("write trace");
    let before = counter("health.trace_corrupt");
    let trace = obs::open_trace(&path).expect("skips, not fails");
    assert_eq!(trace.skipped, 2);
    assert_eq!(trace.events.len(), 1);
    assert!(
        counter("health.trace_corrupt") >= before + 2,
        "both damaged regions tallied"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_write_failed_fires_when_the_trace_device_is_full() {
    // `/dev/full` fails every write with ENOSPC — the disk-full scenario
    // that used to drop trace frames silently. The trace sink must tally
    // the failure instead.
    if !std::path::Path::new("/dev/full").exists() {
        eprintln!("skipping: /dev/full not available");
        return;
    }
    use obs::EventSink;
    let before = counter("health.trace_write_failed");
    // The header goes into the sink's write buffer, so opening succeeds
    // and the failure surfaces when the buffered frames are flushed.
    let bin = obs::BinSink::create("/dev/full").expect("open is fine; writes fail");
    bin.emit_decision(&obs::DecisionRecord::new("css.select"));
    bin.flush();
    assert!(
        counter("health.trace_write_failed") > before,
        "ENOSPC on a binary frame write is tallied"
    );
}

#[test]
fn link_drift_fires_when_the_loss_stream_steps_up() {
    let mut monitor = obs::QualityMonitor::new();
    // Quiet baseline through the warm-up, then a sustained 9 dB loss.
    for i in 0..8 {
        monitor.record_loss(i as f64, 0.5);
    }
    let before = counter("health.link_drift");
    for i in 8..20 {
        monitor.record_loss(i as f64, 9.0);
    }
    assert!(
        counter("health.link_drift") > before,
        "CUSUM alarms on the step: {:?}",
        monitor.summary()
    );
    assert!(!monitor.summary().drift_epochs.is_empty());
}

#[test]
fn misselection_fires_when_a_selection_gives_up_real_snr() {
    let mut monitor = obs::QualityMonitor::new();
    let before = counter("health.misselection");
    monitor.record_selection(0.0, true);
    assert!(
        counter("health.misselection") > before,
        "a >1 dB pick is tallied"
    );
}

#[test]
fn alert_firing_fires_when_a_rule_reaches_the_firing_state() {
    // The real producing layer is the alert engine: a sustained breach of
    // a value rule walks pending → firing, and the firing edge reports the
    // `alert_firing` anomaly.
    use obs::alert::{Predicate, Rule, Severity};
    let monitor = obs::LiveMonitor::new(
        obs::SamplerConfig::default(),
        vec![Rule {
            name: "health_cov_high".into(),
            severity: Severity::Page,
            predicate: Predicate::ValueAbove {
                metric: "health_cov.gauge".into(),
                threshold: 5.0,
            },
            for_ticks: 2,
            clear_below: 1.0,
            clear_for_ticks: 2,
        }],
    );
    let mut snap = obs::Snapshot::default();
    snap.gauges.insert("health_cov.gauge".to_string(), 50);
    let before = counter("health.alert_firing");
    monitor.tick_with(&snap);
    monitor.tick_with(&snap);
    assert!(
        counter("health.alert_firing") > before,
        "the firing edge reports an anomaly"
    );
}

#[test]
fn known_kinds_cover_every_emitter_exercised_here() {
    // The pre-registration list `talon serve` exposes must name every
    // kind these tests fire (a new emitter must be added to KNOWN_KINDS).
    for kind in [
        "snr_clamped",
        "missing_probe",
        "outlier_residual",
        "export_gap",
        "ring_overflow",
        "link_outage",
        "airtime_saturated",
        "trace_corrupt",
        "trace_write_failed",
        "link_drift",
        "misselection",
        "alert_firing",
    ] {
        assert!(
            obs::health::KNOWN_KINDS.contains(&kind),
            "{kind} missing from KNOWN_KINDS"
        );
    }
}
