//! Decision provenance: the full input closure of one sector selection.
//!
//! The CSS pipeline makes one consequential decision per training — which
//! sector to feed back — and when that decision is worse than the
//! exhaustive sweep's (Eq. 1 vs Eq. 4), the spans and counters of the
//! trace say *that* it happened but not *why*. A [`DecisionRecord`]
//! captures everything the fused kernel saw: the probed sector IDs, the
//! raw and normalized SNR/RSSI vectors, clamp/missing flags, the Eq. 2–5
//! intermediates (top-k correlation cells, joint weights, the energy
//! normalizer), the estimated `(φ̂, θ̂)`, the chosen sector, and — when a
//! simulation oracle is available — the true-best sector and the SNR loss
//! of the selection.
//!
//! Records flow through the same sink machinery as [`crate::Event`]s
//! (decision frames in binary traces, a separate buffer in
//! [`crate::MemorySink`]) and are versioned by [`SCHEMA_VERSION`] so
//! `talon replay` can refuse traces written by a newer schema instead of
//! silently misreading them. Replayable records carry enough context
//! (`context` + `patterns_digest`) for `talon replay` to reconstruct the
//! pattern database, re-execute the kernel, and assert bit-exact
//! agreement with the recorded outputs.
//!
//! Emission is sink-gated end to end: with no sink installed,
//! [`emit`] is one relaxed atomic load and the producing layers never
//! build a record at all.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize, Value};
use std::sync::OnceLock;

/// Version stamped on every trace record: the binary file header, every
/// frame's version byte, and every line of a JSONL export. Bump when the
/// trace schema changes shape; [`crate::binfmt::BinReader`] rejects files
/// and records claiming a newer version.
///
/// History: 1 = events + snapshot (unstamped); 2 = stamped records plus
/// decision records; 3 = decision records carry `kernel_path` (the
/// estimator arithmetic). Version-2 decision frames are still readable:
/// their kernel path defaults to `"f64"`, the only arithmetic that
/// existed then.
pub const SCHEMA_VERSION: u64 = 3;

/// Sentinel for "no sector" in the numeric sector fields.
pub const NO_SECTOR: i64 = -1;

/// The full input closure and outputs of one sector-selection decision.
///
/// The probe vectors (`probed`/`snr_db`/`rssi_dbm`/`masked`/`clamped`) are
/// in sweep-reading order and cover every probed sector, including ones
/// whose measurement went missing. The kernel vectors (`p_snr`/`p_rssi`)
/// are the normalized report-scale vectors actually correlated — usable
/// probes only, in kernel row order. `top_cells`/`top_weights` are the
/// highest-weight cells of the final Eq. 5 map (post prior and smoothing),
/// ranked by weight with index as the deterministic tie-break.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Trace schema version this record was written under.
    pub schema_version: u64,
    /// Microseconds since the process trace clock started.
    pub ts_us: u64,
    /// Trace (CSS session / eval unit) the decision belongs to.
    pub trace_id: u64,
    /// Enclosing span at emission time (0 = root level).
    pub parent_id: u64,
    /// Emitting stage: `"css.select"`, `"sls.iss"`, `"sls.rss"`.
    pub source: String,
    /// Reconstruction context (`scenario=lab,fidelity=fast,seed=42`), empty
    /// when the producer has no named scenario.
    pub context: String,
    /// Correlation mode: `"snr"` (Eq. 3) or `"joint"` (Eq. 5); empty for
    /// non-kernel sources.
    pub mode: String,
    /// Estimator option: energy prior enabled.
    pub energy_prior: bool,
    /// Estimator option: box smoothing enabled.
    pub smoothing: bool,
    /// Estimator option: parabolic sub-cell refinement enabled.
    pub subcell_refinement: bool,
    /// Kernel arithmetic the estimate ran under. Live decisions always run
    /// the exact kernel and stamp `"f64"` (the [`DecisionRecord::new`]
    /// default), as do records written before schema 3. `"f32"` and
    /// `"q15"` stamps come only from traces of older builds, whose
    /// reduced-precision paths no longer exist; replay skips any record
    /// not stamped `"f64"` as non-replayable.
    pub kernel_path: String,
    /// FNV-1a digest of the pattern database the kernel ran against (0 for
    /// non-kernel sources). Replay verifies this before comparing outputs.
    pub patterns_digest: u64,
    /// Whether `talon replay` can re-execute this decision (kernel sources
    /// only; the SLS sweep records are pure provenance).
    pub replayable: bool,
    /// Probed sector IDs, in sweep order.
    pub probed: Vec<u64>,
    /// Raw reported SNR per probe, dB (0.0 where `masked`).
    pub snr_db: Vec<f64>,
    /// Raw reported RSSI per probe, dBm (0.0 where `masked`).
    pub rssi_dbm: Vec<f64>,
    /// Per-probe missing-measurement flag (the Eq. 5 mask).
    pub masked: Vec<bool>,
    /// Per-probe wire-format clamp flag (SNR outside [−8, 55.75] dB).
    pub clamped: Vec<bool>,
    /// Normalized report-scale SNR vector (usable probes, kernel order).
    pub p_snr: Vec<f64>,
    /// Normalized shifted RSSI vector (usable probes, kernel order).
    pub p_rssi: Vec<f64>,
    /// Grid indices of the top-k correlation cells, best first.
    pub top_cells: Vec<u64>,
    /// Final map weight of each top cell (Eq. 5 joint weight).
    pub top_weights: Vec<f64>,
    /// The `max_g ‖x(g)‖` energy normalizer of the prior.
    pub energy_max: f64,
    /// Whether the estimator produced a direction (false = degenerate
    /// sweep, argmax fallback).
    pub has_estimate: bool,
    /// Estimated azimuth `φ̂`, degrees.
    pub est_az_deg: f64,
    /// Estimated elevation `θ̂`, degrees.
    pub est_el_deg: f64,
    /// Correlation score at the estimate.
    pub score: f64,
    /// Chosen sector ID ([`NO_SECTOR`] if nothing usable).
    pub chosen_sector: i64,
    /// Whether the choice came from the degenerate-sweep argmax fallback.
    pub fallback: bool,
    /// Whether the oracle fields below are meaningful.
    pub has_oracle: bool,
    /// True-best sector per the oracle.
    pub oracle_sector: i64,
    /// True SNR of the oracle-best sector, dB.
    pub oracle_snr_db: f64,
    /// True SNR of the chosen sector, dB.
    pub chosen_snr_db: f64,
    /// `oracle_snr_db − chosen_snr_db` (the Eq. 1 vs Eq. 4 gap).
    pub snr_loss_db: f64,
}

impl DecisionRecord {
    /// An empty record for `source`, stamped with the current schema
    /// version and the process-wide context ([`set_context`]). Producers
    /// fill in what they know and pass the record to [`emit`].
    pub fn new(source: &str) -> Self {
        let mut record = DecisionRecord::blank();
        record.reset(source);
        record
    }

    /// Every field at its [`DecisionRecord::new`] value, except that the
    /// strings are empty; allocates nothing.
    fn blank() -> Self {
        DecisionRecord {
            schema_version: SCHEMA_VERSION,
            ts_us: 0,
            trace_id: 0,
            parent_id: 0,
            source: String::new(),
            context: String::new(),
            mode: String::new(),
            energy_prior: false,
            smoothing: false,
            subcell_refinement: false,
            kernel_path: String::new(),
            patterns_digest: 0,
            replayable: false,
            probed: Vec::new(),
            snr_db: Vec::new(),
            rssi_dbm: Vec::new(),
            masked: Vec::new(),
            clamped: Vec::new(),
            p_snr: Vec::new(),
            p_rssi: Vec::new(),
            top_cells: Vec::new(),
            top_weights: Vec::new(),
            energy_max: 0.0,
            has_estimate: false,
            est_az_deg: 0.0,
            est_el_deg: 0.0,
            score: 0.0,
            chosen_sector: NO_SECTOR,
            fallback: false,
            has_oracle: false,
            oracle_sector: NO_SECTOR,
            oracle_snr_db: 0.0,
            chosen_snr_db: 0.0,
            snr_loss_db: 0.0,
        }
    }

    /// Makes this record equal to `DecisionRecord::new(source)` while
    /// keeping the capacity of its strings and vectors, so a producer that
    /// refills one record per decision allocates nothing once warm. The
    /// context is copied only when it changed since the last refill.
    pub fn reset(&mut self, source: &str) {
        let old = std::mem::replace(self, DecisionRecord::blank());
        let refill = |mut s: String, to: &str| {
            if s != to {
                s.clear();
                s.push_str(to);
            }
            s
        };
        fn cleared<T>(mut v: Vec<T>) -> Vec<T> {
            v.clear();
            v
        }
        self.source = refill(old.source, source);
        self.context = refill(old.context, &context_slot().read());
        self.mode = refill(old.mode, "");
        self.kernel_path = refill(old.kernel_path, "f64");
        self.probed = cleared(old.probed);
        self.snr_db = cleared(old.snr_db);
        self.rssi_dbm = cleared(old.rssi_dbm);
        self.masked = cleared(old.masked);
        self.clamped = cleared(old.clamped);
        self.p_snr = cleared(old.p_snr);
        self.p_rssi = cleared(old.p_rssi);
        self.top_cells = cleared(old.top_cells);
        self.top_weights = cleared(old.top_weights);
    }

    /// Appends one probe reading (`None` measurement = masked).
    pub fn push_probe(&mut self, sector: u64, measurement: Option<(f64, f64)>) {
        self.probed.push(sector);
        match measurement {
            Some((snr_db, rssi_dbm)) => {
                self.snr_db.push(snr_db);
                self.rssi_dbm.push(rssi_dbm);
                self.masked.push(false);
                // The SSW wire format saturates outside this range (see
                // `mac80211ad::fields::encode_snr`).
                self.clamped.push(!(-8.0..=55.75).contains(&snr_db));
            }
            None => {
                self.snr_db.push(0.0);
                self.rssi_dbm.push(0.0);
                self.masked.push(true);
                self.clamped.push(false);
            }
        }
    }

    /// Fills the oracle fields from a `(sector, true SNR dB)` table.
    /// `chosen` is the selected sector ([`NO_SECTOR`] = nothing chosen).
    pub fn set_oracle(&mut self, snr_by_sector: &[(u64, f64)], chosen: i64) {
        let Some(&(best_sector, best_snr)) = snr_by_sector
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("oracle SNR is finite"))
        else {
            return;
        };
        let chosen_snr = snr_by_sector
            .iter()
            .find(|&&(s, _)| chosen >= 0 && s == chosen as u64)
            .map(|&(_, snr)| snr);
        self.has_oracle = true;
        self.oracle_sector = best_sector as i64;
        self.oracle_snr_db = best_snr;
        match chosen_snr {
            Some(snr) => {
                self.chosen_snr_db = snr;
                self.snr_loss_db = best_snr - snr;
            }
            None => {
                // Nothing chosen (or a sector outside the oracle table).
                // JSON has no infinities, so encode "no usable choice" as
                // a 100 dB loss — far beyond any real selection gap.
                self.chosen_snr_db = best_snr - 100.0;
                self.snr_loss_db = 100.0;
            }
        }
    }

    /// The record as a JSONL export line value (`"kind":"decision"` plus
    /// every field).
    pub fn to_line(&self) -> Value {
        let mut v = Serialize::serialize(self);
        if let Value::Map(entries) = &mut v {
            entries.insert(0, ("kind".to_string(), Value::Str("decision".into())));
        }
        v
    }

    /// Whether this record misselected materially: an oracle was present
    /// and the chosen sector gave up more than `threshold_db` against the
    /// true best.
    pub fn misselected(&self, threshold_db: f64) -> bool {
        self.has_oracle && self.snr_loss_db > threshold_db
    }
}

fn context_slot() -> &'static RwLock<String> {
    static SLOT: OnceLock<RwLock<String>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(String::new()))
}

/// Sets the process-wide reconstruction context stamped on new records
/// (e.g. `scenario=lab,fidelity=fast,seed=42`). The CLI sets this before
/// running a named scenario so `talon replay` can rebuild the pattern
/// database from the trace alone.
pub fn set_context(ctx: &str) {
    *context_slot().write() = ctx.to_string();
}

/// Stamps `record` with the current time and trace identity and sends it
/// to the installed sink, which reads it in place. No-op (and
/// allocation-free for callers that gate on [`crate::sink_active`])
/// without a sink.
pub fn emit(record: &mut DecisionRecord) {
    if !crate::sink::sink_active() {
        return;
    }
    static DECISIONS: OnceLock<std::sync::Arc<crate::Counter>> = OnceLock::new();
    DECISIONS
        .get_or_init(|| crate::counter("css.decisions"))
        .inc();
    record.ts_us = crate::now_us();
    let (trace_id, parent_id) = crate::trace::current_ids();
    record.trace_id = trace_id;
    record.parent_id = parent_id;
    crate::sink::emit_decision(record);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json() {
        let mut rec = DecisionRecord::new("css.select");
        rec.mode = "joint".into();
        rec.replayable = true;
        rec.patterns_digest = 0xDEADBEEF;
        rec.push_probe(3, Some((12.5, -55.0)));
        rec.push_probe(7, None);
        rec.push_probe(9, Some((60.0, -30.0))); // clamped
        rec.p_snr = vec![19.5, 67.0];
        rec.top_cells = vec![42, 41];
        rec.top_weights = vec![0.93, 0.91];
        rec.has_estimate = true;
        rec.est_az_deg = -24.371;
        rec.est_el_deg = 1.25;
        rec.score = 0.93;
        rec.chosen_sector = 9;
        let json = rec.to_line().to_json();
        assert!(json.contains("\"kind\":\"decision\""), "{json}");
        assert!(json.contains("\"schema_version\":3"), "{json}");
        assert!(json.contains("\"kernel_path\":\"f64\""), "{json}");
        let back: DecisionRecord =
            Deserialize::deserialize(&Value::from_json(&json).unwrap()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.masked, vec![false, true, false]);
        assert_eq!(back.clamped, vec![false, false, true]);
        // f64 payloads survive bit-exactly (shortest round-trip printing).
        assert_eq!(back.est_az_deg.to_bits(), rec.est_az_deg.to_bits());
    }

    #[test]
    fn oracle_fields_compute_the_loss() {
        let mut rec = DecisionRecord::new("css.select");
        rec.chosen_sector = 4;
        rec.set_oracle(&[(3, 18.0), (4, 15.5), (9, 12.0)], 4);
        assert!(rec.has_oracle);
        assert_eq!(rec.oracle_sector, 3);
        assert_eq!(rec.oracle_snr_db, 18.0);
        assert_eq!(rec.chosen_snr_db, 15.5);
        assert!((rec.snr_loss_db - 2.5).abs() < 1e-12);
        assert!(rec.misselected(1.0));
        assert!(!rec.misselected(3.0));
    }

    #[test]
    fn oracle_with_no_choice_records_a_bounded_loss() {
        let mut rec = DecisionRecord::new("css.select");
        rec.set_oracle(&[(1, 10.0)], NO_SECTOR);
        assert!(rec.has_oracle);
        assert_eq!(rec.snr_loss_db, 100.0);
        assert!(rec.snr_loss_db.is_finite(), "JSON-safe");
    }

    #[test]
    fn reset_equals_a_fresh_record() {
        let _guard = crate::testing::lock();
        let mut rec = DecisionRecord::new("css.select");
        rec.mode = "joint".into();
        rec.kernel_path = "q15".into();
        rec.replayable = true;
        rec.push_probe(3, Some((12.5, -55.0)));
        rec.p_snr = vec![1.0, 2.0];
        rec.top_cells = vec![4];
        rec.has_estimate = true;
        rec.chosen_sector = 3;
        rec.set_oracle(&[(3, 18.0)], 3);
        rec.ts_us = 9;
        rec.reset("sls.iss");
        assert_eq!(rec, DecisionRecord::new("sls.iss"));
        assert!(rec.probed.capacity() > 0, "buffers kept for reuse");
    }

    #[test]
    fn context_is_process_wide() {
        let _guard = crate::testing::lock();
        set_context("scenario=lab,seed=1");
        assert_eq!(DecisionRecord::new("x").context, "scenario=lab,seed=1");
        set_context("");
        assert_eq!(DecisionRecord::new("x").context, "");
    }

    #[test]
    fn emit_without_sink_is_a_no_op() {
        let _guard = crate::testing::lock();
        crate::clear_sink();
        emit(&mut DecisionRecord::new("css.select")); // must not panic or emit
    }

    #[test]
    fn emit_stamps_trace_identity_and_reaches_the_sink() {
        let _guard = crate::testing::lock();
        let mem = std::sync::Arc::new(crate::MemorySink::new());
        crate::set_sink(mem.clone());
        let span_ids = {
            let s = crate::span!("decision.test.session");
            emit(&mut DecisionRecord::new("css.select"));
            s.ids().expect("recording")
        };
        crate::clear_sink();
        let decisions = mem.take_decisions();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].trace_id, span_ids.trace_id);
        assert_eq!(decisions[0].parent_id, span_ids.span_id);
        assert!(decisions[0].ts_us > 0 || crate::now_us() == 0);
    }
}
