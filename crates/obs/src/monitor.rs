//! Online link-quality drift monitoring.
//!
//! The paper's tracking experiments (§7) watch a link degrade under
//! rotation and blockage; this module gives any long-running consumer the
//! same eyes online. A [`DriftDetector`] keeps an EWMA baseline of a
//! quality stream (per-sample SNR loss, misselection indicators) and runs
//! a one-sided tabular CUSUM on top of it:
//!
//! ```text
//! S⁺ ← max(0, S⁺ + (x − μ − k))        fire when S⁺ > h
//! ```
//!
//! The EWMA `μ` absorbs slow drift (thermal, pointing wander); the CUSUM
//! accumulates only exceedances beyond the slack `k`, so a sustained
//! step — a blockage epoch, a stale selection after a rotation — crosses
//! the threshold `h` within a few samples while sample noise does not.
//! While a drift epoch is open the baseline is frozen (chasing the
//! degraded level would re-arm the detector against the wrong normal) and
//! a hysteresis path closes the epoch once the stream returns under
//! `μ + k` long enough to drain `S⁺`.
//!
//! [`QualityMonitor`] bundles two detectors (SNR loss, misselection) with
//! the `health.link_drift` / `health.misselection` anomaly counters,
//! live quality gauges, and a summary for `talon report --quality`.
//! [`quality_from_trace`] computes the same per-session table offline
//! from a recorded trace's decision records.

use crate::event::Event;
use crate::trace::Trace;
use serde::{Serialize, Value};

/// Tuning of one [`DriftDetector`].
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// EWMA weight of a new sample in the baseline (0 < α ≤ 1).
    pub ewma_alpha: f64,
    /// CUSUM slack `k`: exceedance below this is ignored (in stream units,
    /// e.g. dB for SNR loss).
    pub cusum_k: f64,
    /// CUSUM threshold `h`: fire when the accumulated exceedance passes it.
    pub cusum_h: f64,
    /// Samples consumed to seed the baseline before detection arms.
    pub warmup: usize,
}

impl DriftConfig {
    /// Tuning for a per-sample SNR-loss stream in dB: a ~20 dB blockage
    /// step fires within 1–2 samples (20 − 3 = 17 > h per sample) while
    /// the 0–3 dB staleness wander of a healthy tracker never accumulates.
    pub fn snr_loss() -> Self {
        DriftConfig {
            ewma_alpha: 0.05,
            cusum_k: 3.0,
            cusum_h: 8.0,
            warmup: 5,
        }
    }

    /// Tuning for a 0/1 misselection indicator stream: fires after a run
    /// of misselections well above the baseline rate.
    pub fn misselection() -> Self {
        DriftConfig {
            ewma_alpha: 0.1,
            cusum_k: 0.4,
            cusum_h: 1.2,
            warmup: 3,
        }
    }
}

/// EWMA-baselined one-sided CUSUM change-point detector.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    config: DriftConfig,
    baseline: f64,
    s_pos: f64,
    seen: usize,
    in_drift: bool,
}

impl DriftDetector {
    /// A detector with the given tuning, baseline unseeded.
    pub fn new(config: DriftConfig) -> Self {
        DriftDetector {
            config,
            baseline: 0.0,
            s_pos: 0.0,
            seen: 0,
            in_drift: false,
        }
    }

    /// Feeds one sample. Returns `true` exactly when a new drift epoch
    /// opens (the change-point alarm), not on every sample inside one.
    pub fn update(&mut self, x: f64) -> bool {
        self.seen += 1;
        if self.seen <= self.config.warmup {
            // Seed: plain running mean over the warmup window.
            let n = self.seen as f64;
            self.baseline += (x - self.baseline) / n;
            return false;
        }
        self.s_pos = (self.s_pos + (x - self.baseline - self.config.cusum_k)).max(0.0);
        // Cap the accumulator at 2h: unbounded growth during a long epoch
        // would make recovery take as long as the drift lasted.
        self.s_pos = self.s_pos.min(2.0 * self.config.cusum_h);
        if self.in_drift {
            if self.s_pos <= 0.0 {
                self.in_drift = false; // recovered: stream back under μ + k
            }
        } else if self.s_pos > self.config.cusum_h {
            self.in_drift = true;
            return true;
        }
        if !self.in_drift {
            // Track slow drift only while healthy; a frozen baseline keeps
            // the alarm referenced to the pre-drift normal.
            self.baseline += self.config.ewma_alpha * (x - self.baseline);
        }
        false
    }

    /// Whether a drift epoch is currently open.
    pub fn in_drift(&self) -> bool {
        self.in_drift
    }

    /// The current EWMA baseline.
    pub fn baseline(&self) -> f64 {
        self.baseline
    }
}

/// Summary of one monitored stream.
#[derive(Debug, Clone, PartialEq)]
pub struct QualitySummary {
    /// SNR-loss samples observed.
    pub samples: usize,
    /// Median SNR loss, dB.
    pub median_snr_loss_db: f64,
    /// 95th-percentile SNR loss, dB.
    pub p95_snr_loss_db: f64,
    /// Selections observed (decision instants).
    pub selections: usize,
    /// Selections that materially misselected.
    pub misselections: usize,
    /// Misselection rate (0 when no selections were observed).
    pub misselection_rate: f64,
    /// Onset times (stream time, seconds) of detected drift epochs.
    pub drift_epochs: Vec<f64>,
}

/// Online monitor over one link's quality streams; its gauges live in the
/// global registry.
pub struct QualityMonitor {
    loss_detector: DriftDetector,
    missel_detector: DriftDetector,
    losses: Vec<f64>,
    selections: usize,
    misselections: usize,
    drift_epochs: Vec<f64>,
    gauge_loss: std::sync::Arc<crate::Gauge>,
    gauge_missel: std::sync::Arc<crate::Gauge>,
}

impl Default for QualityMonitor {
    fn default() -> Self {
        QualityMonitor::new()
    }
}

impl QualityMonitor {
    /// A monitor with the default SNR-loss / misselection tunings.
    pub fn new() -> Self {
        QualityMonitor::with_configs(DriftConfig::snr_loss(), DriftConfig::misselection())
    }

    /// A monitor with explicit detector tunings.
    pub fn with_configs(loss: DriftConfig, missel: DriftConfig) -> Self {
        QualityMonitor {
            loss_detector: DriftDetector::new(loss),
            missel_detector: DriftDetector::new(missel),
            losses: Vec::new(),
            selections: 0,
            misselections: 0,
            drift_epochs: Vec::new(),
            gauge_loss: crate::gauge("quality.snr_loss_mdb"),
            gauge_missel: crate::gauge("quality.misselection_ppm"),
        }
    }

    /// Feeds one SNR-loss sample (achieved vs best possible, dB) at stream
    /// time `t_s`. Fires `health.link_drift` on a new drift epoch and keeps
    /// the `quality.snr_loss_mdb` gauge live (milli-dB, for the integer
    /// gauge).
    ///
    /// A non-finite loss carries no oracle and is ignored.
    pub fn record_loss(&mut self, t_s: f64, loss_db: f64) {
        if !loss_db.is_finite() {
            return;
        }
        self.losses.push(loss_db);
        self.gauge_loss.set((loss_db * 1000.0) as i64);
        if self.loss_detector.update(loss_db) {
            self.drift_epochs.push(t_s);
            crate::health::anomaly(
                "link_drift",
                &[
                    ("t_s", t_s),
                    ("loss_db", loss_db),
                    ("baseline_db", self.loss_detector.baseline()),
                ],
            );
        }
    }

    /// Feeds one selection outcome at stream time `t_s`. A misselection
    /// fires `health.misselection`; a sustained run of them additionally
    /// opens a drift epoch through the misselection-rate CUSUM.
    pub fn record_selection(&mut self, t_s: f64, misselected: bool) {
        self.selections += 1;
        if misselected {
            self.misselections += 1;
            crate::health::anomaly("misselection", &[("t_s", t_s)]);
        }
        self.gauge_missel.set(if self.selections == 0 {
            0
        } else {
            (self.misselections as f64 / self.selections as f64 * 1e6) as i64
        });
        if self
            .missel_detector
            .update(if misselected { 1.0 } else { 0.0 })
        {
            self.drift_epochs.push(t_s);
            crate::health::anomaly("link_drift", &[("t_s", t_s), ("misselection_run", 1.0)]);
        }
    }

    /// Drift-epoch onset times so far.
    pub fn drift_epochs(&self) -> &[f64] {
        &self.drift_epochs
    }

    /// The monitored-stream summary.
    pub fn summary(&self) -> QualitySummary {
        let mut sorted = self.losses.clone();
        sorted.sort_by(f64::total_cmp);
        QualitySummary {
            samples: sorted.len(),
            median_snr_loss_db: quantile(&sorted, 0.5),
            p95_snr_loss_db: quantile(&sorted, 0.95),
            selections: self.selections,
            misselections: self.misselections,
            misselection_rate: if self.selections == 0 {
                0.0
            } else {
                self.misselections as f64 / self.selections as f64
            },
            drift_epochs: self.drift_epochs.clone(),
        }
    }
}

/// Quantile of an ascending-sorted slice (nearest-rank; 0 on empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[i]
}

/// SNR-loss threshold (dB) above which a decision with an oracle counts as
/// a material misselection in the offline quality table. Below it the
/// "wrong" sector is within quantization wiggle of the best.
pub const MISSELECTION_THRESHOLD_DB: f64 = 1.0;

/// One row of the per-session quality table.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionQuality {
    /// Trace id of the session (0 = untraced records).
    pub trace_id: u64,
    /// Decision records in the session.
    pub decisions: usize,
    /// Decisions carrying an oracle.
    pub with_oracle: usize,
    /// Material misselections (loss > [`MISSELECTION_THRESHOLD_DB`]).
    pub misselections: usize,
    /// Misselection rate over oracle-bearing decisions.
    pub misselection_rate: f64,
    /// Median SNR loss over oracle-bearing decisions, dB.
    pub median_snr_loss_db: f64,
    /// 95th-percentile SNR loss, dB.
    pub p95_snr_loss_db: f64,
}

impl SessionQuality {
    /// The row as a JSON value (for `talon report --json`).
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("trace_id".into(), self.trace_id.serialize()),
            ("decisions".into(), self.decisions.serialize()),
            ("with_oracle".into(), self.with_oracle.serialize()),
            ("misselections".into(), self.misselections.serialize()),
            (
                "misselection_rate".into(),
                self.misselection_rate.serialize(),
            ),
            (
                "median_snr_loss_db".into(),
                self.median_snr_loss_db.serialize(),
            ),
            ("p95_snr_loss_db".into(), self.p95_snr_loss_db.serialize()),
        ])
    }
}

/// Builds the per-session quality table from a parsed trace: decision
/// records grouped by trace id, in first-seen order. Sessions without
/// decision records do not appear.
pub fn quality_from_trace(trace: &Trace) -> Vec<SessionQuality> {
    let mut order: Vec<u64> = Vec::new();
    for d in &trace.decisions {
        if !order.contains(&d.trace_id) {
            order.push(d.trace_id);
        }
    }
    order
        .into_iter()
        .map(|trace_id| {
            let mut losses: Vec<f64> = Vec::new();
            let mut decisions = 0usize;
            let mut misselections = 0usize;
            for d in trace.decisions.iter().filter(|d| d.trace_id == trace_id) {
                decisions += 1;
                // A non-finite loss (from a damaged or foreign trace) says
                // nothing about the selection: the decision has no oracle.
                if d.has_oracle && d.snr_loss_db.is_finite() {
                    losses.push(d.snr_loss_db);
                    if d.misselected(MISSELECTION_THRESHOLD_DB) {
                        misselections += 1;
                    }
                }
            }
            losses.sort_by(f64::total_cmp);
            SessionQuality {
                trace_id,
                decisions,
                with_oracle: losses.len(),
                misselections,
                misselection_rate: if losses.is_empty() {
                    0.0
                } else {
                    misselections as f64 / losses.len() as f64
                },
                median_snr_loss_db: quantile(&losses, 0.5),
                p95_snr_loss_db: quantile(&losses, 0.95),
            }
        })
        .collect()
}

/// Drift-epoch onset times recorded in a trace (the `t_s` field of
/// `health.link_drift` anomaly events), in file order.
pub fn drift_epochs_from_trace(events: &[Event]) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.kind == "anomaly" && e.stage == "health.link_drift")
        .filter_map(|e| e.field("t_s"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::DecisionRecord;

    #[test]
    fn detector_ignores_noise_and_fires_on_a_step() {
        let mut d = DriftDetector::new(DriftConfig::snr_loss());
        // Healthy tracker: 0–3 dB staleness wander.
        for i in 0..200 {
            let x = 1.5 + 1.4 * ((i as f64 * 0.7).sin());
            assert!(!d.update(x), "no alarm on healthy wander (sample {i})");
        }
        // Blockage epoch: ~20 dB loss. Must fire within 2 samples.
        let mut fired_at = None;
        for i in 0..5 {
            if d.update(21.0) {
                fired_at = Some(i);
                break;
            }
        }
        assert!(matches!(fired_at, Some(i) if i < 2), "{fired_at:?}");
        // Inside the epoch: no re-fire.
        for _ in 0..50 {
            assert!(!d.update(21.0), "one alarm per epoch");
        }
        assert!(d.in_drift());
        // Recovery, then a second epoch fires again.
        for _ in 0..60 {
            d.update(1.5);
        }
        assert!(!d.in_drift(), "epoch closes after recovery");
        let refired = (0..5).any(|_| d.update(21.0));
        assert!(refired, "a fresh epoch re-arms the alarm");
    }

    #[test]
    fn baseline_freezes_during_drift() {
        let mut d = DriftDetector::new(DriftConfig::snr_loss());
        for _ in 0..50 {
            d.update(1.0);
        }
        let healthy = d.baseline();
        for _ in 0..100 {
            d.update(25.0);
        }
        assert!(
            (d.baseline() - healthy).abs() < 1e-9,
            "baseline pinned to the pre-drift normal: {} vs {healthy}",
            d.baseline()
        );
    }

    #[test]
    fn misselection_run_opens_an_epoch() {
        let mut d = DriftDetector::new(DriftConfig::misselection());
        for _ in 0..30 {
            assert!(!d.update(0.0));
        }
        let fired = (0..4).any(|_| d.update(1.0));
        assert!(fired, "a run of misselections fires");
    }

    #[test]
    fn monitor_counts_and_summarizes() {
        let _guard = crate::testing::lock();
        crate::clear_sink();
        let before_drift = crate::global().snapshot().counter("health.link_drift");
        let before_missel = crate::global().snapshot().counter("health.misselection");
        let mut m = QualityMonitor::new();
        for i in 0..100 {
            m.record_loss(i as f64 * 0.02, 1.0);
        }
        for i in 0..30 {
            m.record_loss(2.0 + i as f64 * 0.02, 22.0);
        }
        // A non-finite loss carries no oracle: no sample, no alarm.
        m.record_loss(2.7, f64::NAN);
        m.record_loss(2.8, f64::INFINITY);
        m.record_selection(2.5, true);
        m.record_selection(2.6, false);
        let s = m.summary();
        assert_eq!(s.samples, 130);
        assert_eq!(s.selections, 2);
        assert_eq!(s.misselections, 1);
        assert!((s.misselection_rate - 0.5).abs() < 1e-12);
        assert!((s.median_snr_loss_db - 1.0).abs() < 1e-9);
        assert!(s.p95_snr_loss_db > 20.0);
        assert_eq!(s.drift_epochs.len(), 1, "one blockage epoch: {s:?}");
        assert!((s.drift_epochs[0] - 2.0).abs() < 0.1, "onset within window");
        let after_drift = crate::global().snapshot().counter("health.link_drift");
        let after_missel = crate::global().snapshot().counter("health.misselection");
        assert_eq!(after_drift, before_drift + 1);
        assert_eq!(after_missel, before_missel + 1);
    }

    #[test]
    fn quality_table_groups_by_session() {
        let mut trace = Trace::default();
        // A CRC-valid trace can carry any f64 bits: a non-finite loss
        // counts as no oracle.
        for (tid, loss) in [
            (7u64, 0.2),
            (7, 2.5),
            (9, 0.0),
            (9, f64::NAN),
            (9, f64::INFINITY),
        ] {
            let mut d = DecisionRecord::new("css.select");
            d.trace_id = tid;
            d.has_oracle = true;
            d.snr_loss_db = loss;
            trace.decisions.push(d);
        }
        let mut no_oracle = DecisionRecord::new("sls.iss");
        no_oracle.trace_id = 7;
        trace.decisions.push(no_oracle);
        let rows = quality_from_trace(&trace);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].trace_id, 7);
        assert_eq!(rows[0].decisions, 3);
        assert_eq!(rows[0].with_oracle, 2);
        assert_eq!(rows[0].misselections, 1);
        assert!((rows[0].misselection_rate - 0.5).abs() < 1e-12);
        assert_eq!(rows[1].trace_id, 9);
        assert_eq!(rows[1].decisions, 3);
        assert_eq!(rows[1].with_oracle, 1);
        assert_eq!(rows[1].misselections, 0);
    }

    #[test]
    fn drift_epochs_read_back_from_events() {
        let mut fields = crate::event::Fields::new();
        fields.insert("t_s".to_string(), 3.25);
        let ev = Event::anomaly(1, "health.link_drift", 4, 2, fields);
        let other = Event::anomaly(2, "health.link_outage", 4, 2, Default::default());
        assert_eq!(drift_epochs_from_trace(&[ev, other]), vec![3.25]);
    }
}
