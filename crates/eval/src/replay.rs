//! Trace-driven replay: re-execute recorded decisions and assert
//! bit-exact agreement.
//!
//! A replayable [`obs::DecisionRecord`] carries the full input closure of
//! one kernel run — the probed sectors, raw SNR/RSSI vectors, mask flags,
//! the estimator mode and options, and an FNV-1a digest of the pattern
//! database. [`replay_trace`] reconstructs those inputs, rebuilds the
//! pattern database from the record's `context` string (or an explicit
//! override), re-runs [`css::CompressiveEstimator`] through the same code
//! path the live selection used, and compares every recorded output —
//! `(φ̂, θ̂)`, the correlation score, the top-k map cells and weights, the
//! energy normalizer, and the chosen sector — at [`TOLERANCE`] (the
//! binary trace format stores every f64 bit-exactly, so any real
//! difference means the kernel changed or the trace is corrupt). Live decisions always run the exact
//! f64 kernel; a record stamped with any other `kernel_path` (only traces
//! from older builds carry `"f32"`/`"q15"` stamps: neither path exists
//! any more) is skipped as non-replayable rather than compared against
//! the wrong arithmetic.
//!
//! Replay fans out over [`crate::engine::par_map`], and because the
//! kernel is deterministic the report is identical at any thread count —
//! the CI `replay-determinism` job runs the same trace at 1, 2, and 8
//! threads. [`replay_file`] is the file driver `talon replay` runs: it
//! streams a binary trace through one [`ReplaySession`] in [`CHUNK`]-sized
//! chunks, so a trace of any length replays in bounded memory.

use crate::engine::{default_threads, par_map};
use crate::scenario::{EvalScenario, Fidelity};
use chamber::SectorPatterns;
use css::estimator::EstimatorOptions;
use css::{patterns_digest, CompressiveEstimator, CorrelationMode, KernelClosure};
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy};
use obs::binfmt::FileBinReader;
use obs::{DecisionRecord, Trace, TraceRecord};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::Path;
use talon_array::SectorId;
use talon_channel::{Measurement, SweepReading};

/// Absolute tolerance for replayed f64 outputs. The binary trace format
/// stores every f64 bit-exactly, so recorded and recomputed values are
/// bit-identical unless the kernel itself changed, and a faithful replay
/// reports `max_abs_err` 0.
pub const TOLERANCE: f64 = 1e-12;

/// Decisions per chunk [`replay_file`] feeds its session: bounds replay
/// memory at a few MB while keeping the parallel fan-out fed.
pub const CHUNK: usize = 8 * 1024;

/// How a replay run executes.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Worker threads for the fan-out ([`default_threads`] by default).
    pub threads: usize,
    /// Perturbation added to every unmasked SNR input, dB. Zero for a
    /// faithful replay; non-zero exists to prove the comparator catches
    /// divergences (the CI job's negative control).
    pub perturb_snr_db: f64,
    /// Pattern database to replay against, bypassing context
    /// reconstruction. Used by tests and by traces recorded outside a
    /// named scenario.
    pub patterns_override: Option<SectorPatterns>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            threads: default_threads(),
            perturb_snr_db: 0.0,
            patterns_override: None,
        }
    }
}

/// One recorded-vs-recomputed mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index of the decision within the trace's decision stream.
    pub index: usize,
    /// Trace (session / eval unit) the decision belongs to.
    pub trace_id: u64,
    /// Which output diverged (`est_az_deg`, `top_weights[3]`, ...).
    pub field: String,
    /// The recorded value.
    pub expected: String,
    /// The recomputed value.
    pub actual: String,
}

/// Outcome of replaying one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayReport {
    /// Decision records in the trace.
    pub total_decisions: usize,
    /// Records re-executed and compared.
    pub replayed: usize,
    /// Records marked non-replayable by their producer (SLS sweep
    /// provenance), or with an unknown correlation mode or a kernel path
    /// other than `"f64"`.
    pub skipped_non_replayable: usize,
    /// Replayable records whose pattern database could not be
    /// reconstructed (no context and no override).
    pub skipped_no_patterns: usize,
    /// Records whose recorded `patterns_digest` does not match the
    /// reconstructed database — the trace and the rebuilt patterns
    /// disagree, so outputs were not compared.
    pub digest_mismatches: usize,
    /// Every output mismatch, in decision order.
    pub divergent: Vec<Divergence>,
    /// Largest absolute error observed across all compared f64 outputs
    /// (0.0 on a bit-exact replay).
    pub max_abs_err: f64,
}

impl Serialize for Divergence {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("index".into(), self.index.serialize()),
            ("trace_id".into(), self.trace_id.serialize()),
            ("field".into(), self.field.serialize()),
            ("expected".into(), self.expected.serialize()),
            ("actual".into(), self.actual.serialize()),
        ])
    }
}

/// `talon replay --json`: one object, fields in declaration order.
impl Serialize for ReplayReport {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("total_decisions".into(), self.total_decisions.serialize()),
            ("replayed".into(), self.replayed.serialize()),
            (
                "skipped_non_replayable".into(),
                self.skipped_non_replayable.serialize(),
            ),
            (
                "skipped_no_patterns".into(),
                self.skipped_no_patterns.serialize(),
            ),
            (
                "digest_mismatches".into(),
                self.digest_mismatches.serialize(),
            ),
            ("divergent".into(), self.divergent.serialize()),
            ("max_abs_err".into(), self.max_abs_err.serialize()),
        ])
    }
}

impl ReplayReport {
    /// Whether every replayed decision reproduced bit-exactly and nothing
    /// blocked comparison.
    pub fn is_clean(&self) -> bool {
        self.divergent.is_empty() && self.digest_mismatches == 0 && self.skipped_no_patterns == 0
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "replayed {}/{} decisions: {} divergent, {} digest mismatch(es), \
             {} skipped (non-replayable), {} skipped (no patterns), max |err| {:.3e}",
            self.replayed,
            self.total_decisions,
            self.divergent.len(),
            self.digest_mismatches,
            self.skipped_non_replayable,
            self.skipped_no_patterns,
            self.max_abs_err,
        )
    }
}

/// Parses a record's reconstruction context
/// (`scenario=lab,fidelity=fast,seed=42`) into constructor arguments.
fn parse_context(ctx: &str) -> Option<(String, Fidelity, u64)> {
    let mut scenario = None;
    let mut fidelity = Fidelity::Fast;
    let mut seed = 0u64;
    for part in ctx.split(',') {
        let (key, value) = part.split_once('=')?;
        match key.trim() {
            "scenario" => scenario = Some(value.trim().to_string()),
            "fidelity" => {
                fidelity = match value.trim() {
                    "fast" => Fidelity::Fast,
                    "paper" => Fidelity::Paper,
                    _ => return None,
                }
            }
            "seed" => seed = value.trim().parse().ok()?,
            _ => {} // forward-compatible: ignore unknown keys
        }
    }
    scenario.map(|s| (s, fidelity, seed))
}

/// Rebuilds the pattern database a context string names, by re-running
/// the (deterministic) anechoic measurement campaign of that scenario.
fn patterns_for_context(ctx: &str) -> Option<SectorPatterns> {
    let (scenario, fidelity, seed) = parse_context(ctx)?;
    match scenario.as_str() {
        "lab" => Some(EvalScenario::lab(fidelity, seed).patterns),
        "conference-room" => Some(EvalScenario::conference_room(fidelity, seed).patterns),
        _ => None,
    }
}

/// A decision ready to re-execute: the record plus the estimator (and
/// patterns) reconstructed for its context.
struct Job<'a> {
    index: usize,
    rec: &'a DecisionRecord,
    est: usize,
}

/// One replay worker's buffers, reused across every decision it
/// re-executes, so a warm chunk allocates nothing per decision.
#[derive(Default)]
struct Worker {
    readings: Vec<SweepReading>,
    closure: KernelClosure,
}

/// Incremental replay over a stream of decision records.
///
/// [`replay_trace`] feeds a whole in-memory [`Trace`] through one of
/// these; [`replay_file`] instead feeds bounded chunks straight off a
/// streaming binary reader, so a large trace replays without ever
/// materializing in memory. Reconstructed pattern
/// databases and estimators are cached across chunks (decisions from one
/// run share a context, so the cache stays tiny), and reports merge in
/// decision order regardless of chunking or thread count.
pub struct ReplaySession {
    config: ReplayConfig,
    report: ReplayReport,
    /// Pattern database per context string, built once each.
    patterns_by_ctx: BTreeMap<String, Option<(SectorPatterns, u64)>>,
    /// Estimator per (context, mode, options) — decisions from one run
    /// share one, so this stays tiny.
    est_keys: Vec<(String, String, EstimatorOptions)>,
    estimators: Vec<(CompressiveEstimator, SectorPatterns)>,
    /// Global decision index across every chunk fed so far.
    next_index: usize,
}

impl ReplaySession {
    /// An empty session; feed it chunks, then [`ReplaySession::finish`].
    pub fn new(config: ReplayConfig) -> Self {
        ReplaySession {
            config,
            report: ReplayReport::default(),
            patterns_by_ctx: BTreeMap::new(),
            est_keys: Vec::new(),
            estimators: Vec::new(),
            next_index: 0,
        }
    }

    /// Re-executes one chunk of decisions (fanning out over
    /// `config.threads`) and folds the outcomes into the running report.
    pub fn replay_chunk(&mut self, decisions: &[DecisionRecord]) {
        self.report.total_decisions += decisions.len();
        let mut jobs: Vec<Job> = Vec::with_capacity(decisions.len());
        for rec in decisions {
            let index = self.next_index;
            self.next_index += 1;
            if !rec.replayable {
                self.report.skipped_non_replayable += 1;
                continue;
            }
            let mode = match rec.mode.as_str() {
                "snr" => CorrelationMode::SnrOnly,
                "joint" => CorrelationMode::JointSnrRssi,
                _ => {
                    self.report.skipped_non_replayable += 1;
                    continue;
                }
            };
            // Looked up by `&str`; the context is cloned only on first sight.
            if !self.patterns_by_ctx.contains_key(rec.context.as_str()) {
                // Rebuilding a context's patterns re-runs its measurement
                // campaign, which dominates a short trace's replay; the
                // span lets `talon profile` attribute that time.
                let _span = obs::sink_active().then(|| obs::span!("eval.replay_patterns"));
                let p = match &self.config.patterns_override {
                    Some(p) => Some(p.clone()),
                    None => patterns_for_context(&rec.context),
                };
                let entry = p.map(|p| {
                    let d = patterns_digest(&p);
                    (p, d)
                });
                self.patterns_by_ctx.insert(rec.context.clone(), entry);
            }
            let Some((patterns, digest)) = &self.patterns_by_ctx[rec.context.as_str()] else {
                self.report.skipped_no_patterns += 1;
                continue;
            };
            if *digest != rec.patterns_digest {
                self.report.digest_mismatches += 1;
                self.report.divergent.push(Divergence {
                    index,
                    trace_id: rec.trace_id,
                    field: "patterns_digest".into(),
                    expected: format!("{:#018x}", rec.patterns_digest),
                    actual: format!("{digest:#018x}"),
                });
                continue;
            }
            // Only the exact f64 kernel makes live decisions; a record
            // from any other path cannot be re-executed faithfully, so
            // skip it rather than miscompare.
            if rec.kernel_path != "f64" {
                self.report.skipped_non_replayable += 1;
                continue;
            }
            let options = EstimatorOptions {
                energy_prior: rec.energy_prior,
                smoothing: rec.smoothing,
                subcell_refinement: rec.subcell_refinement,
            };
            let est = match self
                .est_keys
                .iter()
                .position(|(ctx, m, o)| *ctx == rec.context && *m == rec.mode && *o == options)
            {
                Some(i) => i,
                None => {
                    self.est_keys
                        .push((rec.context.clone(), rec.mode.clone(), options));
                    self.estimators.push((
                        CompressiveEstimator::new(patterns, mode).with_options(options),
                        patterns.clone(),
                    ));
                    self.estimators.len() - 1
                }
            };
            jobs.push(Job { index, rec, est });
        }

        let estimators = &self.estimators;
        let jobs = &jobs;
        let perturb = self.config.perturb_snr_db;
        let results: Vec<(Vec<Divergence>, f64)> = par_map(
            jobs.len(),
            self.config.threads.max(1),
            Worker::default,
            |worker, i| {
                let job = &jobs[i];
                let (est, patterns) = &estimators[job.est];
                replay_one(worker, job.index, job.rec, est, patterns, perturb)
            },
        );
        for (divergent, max_err) in results {
            self.report.replayed += 1;
            self.report.max_abs_err = self.report.max_abs_err.max(max_err);
            self.report.divergent.extend(divergent);
        }
    }

    /// The report over everything fed so far.
    pub fn report(&self) -> &ReplayReport {
        &self.report
    }

    /// The merged report over everything fed so far.
    pub fn finish(self) -> ReplayReport {
        self.report
    }
}

/// Re-executes every replayable decision in `trace` and compares outputs.
///
/// Deterministic at any `config.threads`: pattern databases and
/// estimators are built once on the coordinating thread, the fan-out is
/// a pure map, and results merge in decision order.
pub fn replay_trace(trace: &Trace, config: &ReplayConfig) -> ReplayReport {
    let mut session = ReplaySession::new(config.clone());
    session.replay_chunk(&trace.decisions);
    session.finish()
}

/// Streams the binary trace at `path` through one [`ReplaySession`] in
/// [`CHUNK`]-decision chunks and returns the report with the number of
/// damaged frames the reader skipped (also counted as
/// `health.trace_corrupt`, as [`obs::open_trace`] counts them). Memory
/// stays bounded by one chunk whatever the trace's length; the report
/// equals [`replay_trace`]'s on the same file.
pub fn replay_file(path: &Path, config: &ReplayConfig) -> Result<(ReplayReport, usize), String> {
    let mut reader = FileBinReader::open(path)?;
    let mut session = ReplaySession::new(config.clone());
    let mut chunk = Vec::with_capacity(CHUNK);
    while let Some(record) = reader.next_record()? {
        if let TraceRecord::Decision(d) = record {
            chunk.push(*d);
            if chunk.len() == CHUNK {
                session.replay_chunk(&chunk);
                chunk.clear();
            }
        }
    }
    session.replay_chunk(&chunk);
    let skipped = reader.skipped();
    if skipped > 0 {
        obs::health::anomaly_n("trace_corrupt", skipped as u64, &[]);
    }
    Ok((session.finish(), skipped))
}

/// Accumulates field comparisons for one replayed decision.
struct Comparator {
    index: usize,
    trace_id: u64,
    divergent: Vec<Divergence>,
    max_err: f64,
}

impl Comparator {
    fn diverge(&mut self, field: String, expected: String, actual: String) {
        self.divergent.push(Divergence {
            index: self.index,
            trace_id: self.trace_id,
            field,
            expected,
            actual,
        });
    }

    /// Compares one f64 output. `field` names it and is only called when
    /// the value diverges, so a clean replay formats no names.
    fn check_f64(&mut self, field: impl FnOnce() -> String, expected: f64, actual: f64) {
        let err = (expected - actual).abs();
        self.max_err = self.max_err.max(err);
        // NaN errors (one side NaN, the other not) must diverge too.
        if err > TOLERANCE || err.is_nan() {
            self.diverge(field(), format!("{expected:?}"), format!("{actual:?}"));
        }
    }
}

/// Re-executes one decision and compares every recorded output.
fn replay_one(
    worker: &mut Worker,
    index: usize,
    rec: &DecisionRecord,
    est: &CompressiveEstimator,
    patterns: &SectorPatterns,
    perturb_snr_db: f64,
) -> (Vec<Divergence>, f64) {
    let mut cmp = Comparator {
        index,
        trace_id: rec.trace_id,
        divergent: Vec::new(),
        max_err: 0.0,
    };

    // Rebuild the sweep readings exactly as the kernel saw them.
    let Worker { readings, closure } = worker;
    readings.clear();
    for i in 0..rec.probed.len() {
        let measurement = (!rec.masked[i]).then(|| Measurement {
            snr_db: rec.snr_db[i] + perturb_snr_db,
            rssi_dbm: rec.rssi_dbm[i],
        });
        readings.push(SweepReading {
            sector: SectorId(rec.probed[i] as u8),
            measurement,
        });
    }

    // Re-run the fused kernel; its provenance closure comes from the same pass.
    let estimate = est.estimate_with_closure(readings, rec.top_cells.len(), closure);

    if rec.has_estimate != estimate.is_some() {
        cmp.diverge(
            "has_estimate".into(),
            rec.has_estimate.to_string(),
            estimate.is_some().to_string(),
        );
    } else if let Some((dir, score)) = estimate {
        cmp.check_f64(|| "est_az_deg".into(), rec.est_az_deg, dir.az_deg);
        cmp.check_f64(|| "est_el_deg".into(), rec.est_el_deg, dir.el_deg);
        cmp.check_f64(|| "score".into(), rec.score, score);
    }

    // The same Eq. 4 selection step the live path ran.
    let (chosen, fallback) = match estimate {
        Some((dir, _)) => (patterns.best_sector_at(&dir), false),
        None => (MaxSnrPolicy.select(readings), true),
    };
    let chosen = chosen.map_or(obs::decision::NO_SECTOR, |s| i64::from(s.raw()));
    if chosen != rec.chosen_sector {
        cmp.diverge(
            "chosen_sector".into(),
            rec.chosen_sector.to_string(),
            chosen.to_string(),
        );
    }
    if fallback != rec.fallback {
        cmp.diverge(
            "fallback".into(),
            rec.fallback.to_string(),
            fallback.to_string(),
        );
    }

    // Kernel intermediates: probe vectors, top-k map cells, normalizer.
    for (name, expected, actual) in [
        ("p_snr", &rec.p_snr, &closure.p_snr),
        ("p_rssi", &rec.p_rssi, &closure.p_rssi),
        ("top_weights", &rec.top_weights, &closure.top_weights),
    ] {
        if expected.len() != actual.len() {
            cmp.diverge(
                format!("{name}.len"),
                expected.len().to_string(),
                actual.len().to_string(),
            );
            continue;
        }
        for (i, (&e, &a)) in expected.iter().zip(actual.iter()).enumerate() {
            cmp.check_f64(|| format!("{name}[{i}]"), e, a);
        }
    }
    if rec.top_cells != closure.top_cells {
        cmp.diverge(
            "top_cells".into(),
            format!("{:?}", rec.top_cells),
            format!("{:?}", closure.top_cells),
        );
    }
    cmp.check_f64(|| "energy_max".into(), rec.energy_max, closure.energy_max);

    (cmp.divergent, cmp.max_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use css::{CompressiveSelection, CssConfig, DecisionOracle};
    use geom::rng::sub_rng;
    use obs::TraceRecord;
    use talon_channel::{Device, Environment, Link, Orientation};

    // Every test in this crate that runs the pipeline holds
    // `obs::testing::lock()`, so no other test's events reach the
    // process-global sink these recordings install.

    /// Records a handful of decisions against lab-scenario patterns and
    /// returns (trace, patterns). The caller holds `obs::testing::lock()`.
    fn recorded_trace(n_sweeps: usize) -> (Trace, SectorPatterns) {
        let scenario = EvalScenario::lab(Fidelity::Fast, 7);
        let patterns = scenario.patterns.clone();
        let mut css = CompressiveSelection::new(patterns.clone(), CssConfig::paper_default(), 3);
        let link = Link::new(Environment::anechoic(3.0));
        let mut dut = Device::talon(7);
        dut.orientation = Orientation::NEUTRAL;
        let observer = Device::talon(8);
        let rxw = observer.codebook.rx_sector().weights.clone();
        let mut rng = sub_rng(11, "replay-record");

        let mem = std::sync::Arc::new(obs::MemorySink::new());
        obs::set_sink(mem.clone());
        obs::decision::set_context("scenario=lab,fidelity=fast,seed=7");
        for _ in 0..n_sweeps {
            let probes = css.draw_probes();
            let readings = link.sweep(&mut rng, &dut, &probes, &observer);
            css.provide_oracle(DecisionOracle {
                snr_by_sector: probes
                    .iter()
                    .map(|&s| (s, link.true_snr_db(&dut, s, &observer, &rxw)))
                    .collect(),
            });
            let _ = css.select_from_readings(&readings);
        }
        obs::decision::set_context("");
        obs::clear_sink();

        // Round-trip through the binary codec so replay sees exactly what
        // a trace file would carry.
        let mut bytes = obs::binfmt::file_header();
        for d in mem.take_decisions() {
            let record = TraceRecord::Decision(Box::new(d));
            bytes.extend(obs::binfmt::encode_frame(&record));
        }
        let mut reader = obs::BinReader::from_reader(bytes.as_slice()).expect("header");
        let mut trace = Trace::default();
        while let Some(record) = reader.next_record().expect("current schema") {
            if let TraceRecord::Decision(d) = record {
                trace.decisions.push(*d);
            }
        }
        assert_eq!(reader.skipped(), 0);
        assert_eq!(trace.decisions.len(), n_sweeps);
        (trace, patterns)
    }

    #[test]
    fn replay_is_bit_exact_at_any_thread_count() {
        let _guard = obs::testing::lock();
        let (trace, patterns) = recorded_trace(6);
        let mut reference: Option<ReplayReport> = None;
        for threads in [1usize, 2, 8] {
            let report = replay_trace(
                &trace,
                &ReplayConfig {
                    threads,
                    patterns_override: Some(patterns.clone()),
                    ..ReplayConfig::default()
                },
            );
            assert!(
                report.is_clean(),
                "threads={threads}: {}\n{:?}",
                report.summary(),
                report.divergent,
            );
            assert_eq!(report.replayed, 6);
            assert_eq!(
                report.max_abs_err, 0.0,
                "bit-exact, not just within tolerance"
            );
            if let Some(r) = &reference {
                assert_eq!(report.divergent, r.divergent);
                assert_eq!(report.max_abs_err, r.max_abs_err);
            }
            reference = Some(report);
        }
    }

    #[test]
    fn chunking_never_changes_the_report() {
        let _guard = obs::testing::lock();
        // Perturbed, so the report carries divergences whose global
        // indices must survive chunk boundaries.
        let (trace, patterns) = recorded_trace(9);
        let config = ReplayConfig {
            threads: 2,
            perturb_snr_db: 0.25,
            patterns_override: Some(patterns),
        };
        let whole = replay_trace(&trace, &config);
        assert!(
            whole.divergent.iter().any(|d| d.index >= 4),
            "divergences past the first chunk of 4: {}",
            whole.summary()
        );
        for size in [1, 4] {
            let mut session = ReplaySession::new(config.clone());
            for chunk in trace.decisions.chunks(size) {
                session.replay_chunk(chunk);
            }
            assert_eq!(session.finish(), whole, "chunks of {size}");
        }
    }

    #[test]
    fn replay_rebuilds_patterns_from_the_context_string() {
        let _guard = obs::testing::lock();
        let (trace, _) = recorded_trace(2);
        // No override: replay must reconstruct the lab scenario's pattern
        // database from `scenario=lab,fidelity=fast,seed=7` alone.
        let report = replay_trace(&trace, &ReplayConfig::default());
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.replayed, 2);
        assert_eq!(report.skipped_no_patterns, 0);
    }

    #[test]
    fn perturbed_inputs_are_reported_as_divergences() {
        let _guard = obs::testing::lock();
        let (trace, patterns) = recorded_trace(4);
        let report = replay_trace(
            &trace,
            &ReplayConfig {
                perturb_snr_db: 0.25,
                patterns_override: Some(patterns),
                ..ReplayConfig::default()
            },
        );
        assert!(!report.divergent.is_empty(), "perturbation must be caught");
        assert!(report.max_abs_err > TOLERANCE);
        // The divergence report names concrete fields.
        assert!(report
            .divergent
            .iter()
            .any(|d| d.field.starts_with("p_snr") || d.field == "score"));
    }

    #[test]
    fn wrong_patterns_fail_the_digest_check_without_comparing() {
        let _guard = obs::testing::lock();
        let (trace, _) = recorded_trace(2);
        let other = EvalScenario::lab(Fidelity::Fast, 99).patterns;
        let report = replay_trace(
            &trace,
            &ReplayConfig {
                patterns_override: Some(other),
                ..ReplayConfig::default()
            },
        );
        assert_eq!(report.digest_mismatches, 2);
        assert_eq!(report.replayed, 0);
        assert!(!report.is_clean());
        assert!(report
            .divergent
            .iter()
            .all(|d| d.field == "patterns_digest"));
    }

    #[test]
    fn non_replayable_records_are_skipped() {
        let _guard = obs::testing::lock();
        let mut rec = DecisionRecord::new("sls.iss");
        rec.push_probe(3, Some((10.0, -60.0)));
        let trace = Trace {
            decisions: vec![rec],
            ..Trace::default()
        };
        let report = replay_trace(&trace, &ReplayConfig::default());
        assert_eq!(report.skipped_non_replayable, 1);
        assert_eq!(report.replayed, 0);
        assert!(
            report.is_clean(),
            "skipping producer-marked records is fine"
        );
    }

    #[test]
    fn unknown_kernel_path_is_skipped_not_guessed() {
        let _guard = obs::testing::lock();
        // A record stamped by any kernel path but the exact f64 one —
        // reduced-precision records from older builds, or a future
        // path — must not be silently replayed through the f64
        // arithmetic: it is counted as non-replayable instead.
        let (trace, patterns) = recorded_trace(2);
        for stamp in ["q15", "f32", "f128"] {
            let mut trace = trace.clone();
            trace.decisions[0].kernel_path = stamp.to_string();
            let report = replay_trace(
                &trace,
                &ReplayConfig {
                    patterns_override: Some(patterns.clone()),
                    ..ReplayConfig::default()
                },
            );
            assert_eq!(report.skipped_non_replayable, 1, "{stamp}");
            assert_eq!(report.replayed, 1, "{stamp}");
            assert!(report.is_clean(), "{stamp}");
        }
    }

    #[test]
    fn non_finite_snrs_in_a_record_replay_without_a_panic() {
        let _guard = obs::testing::lock();
        // The decoder does not range-check a record's readings, so a
        // CRC-valid trace can carry any f64 bits. The kernel treats a
        // non-finite reading as missing, and so does the max-SNR fallback
        // a record with no usable reading takes.
        let (mut trace, patterns) = recorded_trace(2);
        let first = &mut trace.decisions[0];
        first.snr_db[0] = f64::INFINITY;
        first.masked[0] = false;
        let second = &mut trace.decisions[1];
        second.snr_db.iter_mut().for_each(|v| *v = f64::NAN);
        second.masked.iter_mut().for_each(|m| *m = false);
        let report = replay_trace(
            &trace,
            &ReplayConfig {
                patterns_override: Some(patterns),
                ..ReplayConfig::default()
            },
        );
        assert_eq!(report.replayed, 2, "{}", report.summary());
        // All-NaN readings leave nothing to estimate from or fall back to.
        assert!(report
            .divergent
            .iter()
            .any(|d| d.index == 1 && d.field == "has_estimate" && d.actual == "false"));
    }

    #[test]
    fn context_parsing_handles_order_and_unknown_keys() {
        assert_eq!(
            parse_context("seed=42,scenario=lab,fidelity=paper,extra=x"),
            Some(("lab".into(), Fidelity::Paper, 42))
        );
        assert_eq!(parse_context(""), None);
        assert_eq!(parse_context("fidelity=fast"), None, "scenario required");
        assert_eq!(parse_context("scenario=lab,fidelity=warp"), None);
    }
}
