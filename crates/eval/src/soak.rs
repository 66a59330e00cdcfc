//! Million-decision soak: record a trace at daemon scale, replay it
//! bit-exactly, and measure what the trace costs.
//!
//! The paper's evaluation discipline — record real sweeps once, replay
//! them through the estimator offline — only works at `talond` scale if
//! the trace pipeline holds up under a decision *firehose*: millions of
//! [`obs::DecisionRecord`]s streamed to disk without blowing memory,
//! read back without slurping the file, and re-executed bit-exactly on
//! any thread count. [`run_soak`] exercises exactly that loop end to end:
//!
//! 1. **Record** `decisions` fixed-seed CSS selections through the real
//!    sink path into a binary trace ([`obs::BinSink`]).
//! 2. **Account**: stream the trace back and price every record at the
//!    exact bytes its JSONL export (`talon trace convert`, rendered by
//!    [`obs::sink::record_line`]) takes, yielding the compression ratio
//!    (the codec's reason to exist — the acceptance floor is 5×).
//! 3. **Replay** the trace at each requested thread count through a
//!    bounded-memory streaming [`ReplaySession`] — frame decode runs on
//!    its own pipeline thread so the next chunk decodes while workers
//!    replay the current one — asserting every decision reproduces
//!    bit-exactly (`max_abs_err == 0`) and that all thread counts (and
//!    an inline-decode baseline pass) agree.
//! 4. **Bound RSS**: the process peak (`VmHWM`) must stay under
//!    [`RSS_CEILING_MB`] — proof the reader streams instead of
//!    materializing the trace.
//!
//! `talon soak` wires this to the CLI and writes `BENCH_trace.json`;
//! CI runs `talon soak --smoke --check BENCH_trace.json` as a gate.

use crate::replay::{ReplayConfig, ReplayReport, ReplaySession};
use crate::scenario::{EvalScenario, Fidelity};
use css::{CompressiveSelection, CssConfig};
use geom::rng::sub_rng;
use obs::binfmt::FileBinReader;
use obs::{BinSink, TraceRecord};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;
use talon_channel::{Device, Environment, Link, Orientation};

/// Decisions in a full soak run (the acceptance floor is 1M).
pub const FULL_DECISIONS: u64 = 1_000_000;

/// Decisions in a `--smoke` run: enough to exercise every phase and the
/// steady-state compression ratio, small enough for a CI gate.
pub const SMOKE_DECISIONS: u64 = 20_000;

/// Process peak-RSS ceiling. A million decisions are ~600 MB as in-memory
/// records; staying an order of magnitude under that is only possible if
/// both the writer and every replay pass actually stream.
pub const RSS_CEILING_MB: f64 = 512.0;

/// Decisions per replay chunk: bounds replay memory at a few MB while
/// keeping the parallel fan-out fed.
const CHUNK: usize = 8 * 1024;

/// Chunks the decode thread may run ahead of the replay workers. Depth 2
/// double-buffers (decode chunk N+1 while N replays) without letting a
/// fast decoder pile decoded records up in memory.
const PIPELINE_DEPTH: usize = 2;

/// What to soak.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Decision records to record and replay.
    pub decisions: u64,
    /// Thread counts for the replay determinism sweep.
    pub threads: Vec<usize>,
    /// Seed for the whole fixed-seed load.
    pub seed: u64,
    /// Where to leave the recorded trace; `None` records to a temp file
    /// and deletes it afterwards.
    pub keep: Option<PathBuf>,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            decisions: FULL_DECISIONS,
            threads: vec![1, 2, 8],
            seed: 42,
            keep: None,
        }
    }
}

/// One replay pass's throughput.
#[derive(Debug, Clone, Serialize)]
pub struct ReplayThroughput {
    /// Worker threads the pass fanned out over.
    pub threads: usize,
    /// Decisions re-executed per second, end to end (decode + replay).
    pub per_s: f64,
}

/// Everything a soak run measured. All replay assertions have already
/// passed when one of these comes back (violations are `Err`s).
#[derive(Debug, Clone, Serialize)]
pub struct SoakReport {
    /// Decision records recorded and replayed.
    pub decisions: u64,
    /// Span/mark/anomaly events recorded alongside them.
    pub events: u64,
    /// Binary trace size on disk.
    pub trace_bytes: u64,
    /// Binary bytes per decision (whole file / decisions — events and
    /// the closing snapshot ride along, as they do in production).
    pub bytes_per_decision: f64,
    /// What the identical trace costs as JSONL, priced record-by-record
    /// at the exact bytes `talon trace convert` exports.
    pub jsonl_bytes: u64,
    /// JSONL bytes per decision.
    pub jsonl_bytes_per_decision: f64,
    /// `jsonl_bytes / trace_bytes` — the codec's shrink factor.
    pub compression_ratio: f64,
    /// Recording wall time, seconds.
    pub record_s: f64,
    /// Decisions recorded per second (probe draw + sweep + selection +
    /// trace write — the full live-path cost).
    pub record_per_s: f64,
    /// One entry per requested thread count, in order. These passes
    /// decode on a dedicated pipeline thread (see [`PIPELINE_DEPTH`]).
    pub replay: Vec<ReplayThroughput>,
    /// Throughput of a single-threaded pass that decodes *inline* on the
    /// coordinating thread — the pre-pipeline baseline, kept as a
    /// measured reference for the decode/replay overlap gain.
    pub replay_inline_1t_per_s: f64,
    /// Process peak RSS (`VmHWM`) after all passes, MB.
    pub rss_peak_mb: f64,
    /// Largest |recorded − recomputed| over every compared output in
    /// every pass. Bit-exact replay means exactly 0.
    pub max_abs_err: f64,
}

/// Parses `/proc/self/status` for peak RSS in MB (0.0 where the proc
/// filesystem is unavailable — the ceiling check is skipped then).
pub fn rss_peak_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The parts of a [`ReplayReport`] that must agree across thread counts.
type DeterminismKey = (usize, usize, usize, u64, String);

fn determinism_key(report: &ReplayReport) -> DeterminismKey {
    (
        report.replayed,
        report.skipped_non_replayable,
        report.digest_mismatches,
        report.max_abs_err.to_bits(),
        format!("{:?}", report.divergent),
    )
}

/// Records `config.decisions` decisions into a binary trace at `path`
/// through the installed-sink hot path, exactly as `talond` would.
fn record_phase(config: &SoakConfig, path: &Path) -> Result<(EvalScenario, f64), String> {
    let scenario = EvalScenario::lab(Fidelity::Fast, config.seed);
    let mut css = CompressiveSelection::new(
        scenario.patterns.clone(),
        CssConfig::paper_default(),
        config.seed,
    );
    let link = Link::new(Environment::anechoic(3.0));
    let mut dut = Device::talon(config.seed);
    dut.orientation = Orientation::NEUTRAL;
    let observer = Device::talon(config.seed + 1);
    let mut rng = sub_rng(config.seed, "soak-record");

    let sink = std::sync::Arc::new(
        BinSink::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?,
    );
    obs::set_sink(sink.clone());
    obs::decision::set_context(&format!("scenario=lab,fidelity=fast,seed={}", config.seed));
    let start = Instant::now();
    for _ in 0..config.decisions {
        let probes = css.draw_probes();
        let readings = link.sweep(&mut rng, &dut, &probes, &observer);
        let _ = css.select_from_readings(&readings);
    }
    let record_s = start.elapsed().as_secs_f64();
    use obs::EventSink;
    sink.write_snapshot(&obs::global().snapshot());
    obs::decision::set_context("");
    obs::clear_sink();
    Ok((scenario, record_s))
}

/// Streams the trace once, checking integrity and pricing every record at
/// its exact JSONL cost. Returns (decisions, events, jsonl_bytes).
fn account_phase(config: &SoakConfig, path: &Path) -> Result<(u64, u64, u64), String> {
    let mut reader = FileBinReader::open(path)?;
    let (mut decisions, mut events, mut jsonl_bytes) = (0u64, 0u64, 0u64);
    let ts = obs::now_us();
    while let Some(record) = reader.next_record()? {
        match &record {
            TraceRecord::Decision(_) => decisions += 1,
            TraceRecord::Event(_) => events += 1,
            TraceRecord::Snapshot(_) => {}
        }
        // +1: the newline the export appends per line.
        jsonl_bytes += obs::sink::record_line(&record, ts).to_json().len() as u64 + 1;
    }
    if reader.skipped() > 0 {
        return Err(format!(
            "freshly recorded trace has {} damaged frame(s)",
            reader.skipped()
        ));
    }
    if decisions != config.decisions {
        return Err(format!(
            "recorded {} decisions but read back {decisions}",
            config.decisions
        ));
    }
    Ok((decisions, events, jsonl_bytes))
}

/// Streams the trace through a bounded-memory replay at `threads`,
/// asserting a clean bit-exact reproduction.
///
/// With `pipelined` set, frame decode moves off the coordinating thread:
/// a dedicated decoder fills the next [`CHUNK`]-record chunk while the
/// replay workers re-execute the current one, handing chunks over a
/// bounded channel (depth [`PIPELINE_DEPTH`], so memory stays bounded
/// even if decode outruns replay). Chunk boundaries are identical in
/// both modes, so the report cannot depend on the mode — only the wall
/// clock can.
fn replay_phase(
    path: &Path,
    scenario: &EvalScenario,
    threads: usize,
    pipelined: bool,
) -> Result<(ReplayReport, f64), String> {
    let start = Instant::now();
    let mut session = ReplaySession::new(ReplayConfig {
        threads,
        perturb_snr_db: 0.0,
        patterns_override: Some(scenario.patterns.clone()),
    });
    if pipelined {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<obs::DecisionRecord>>(PIPELINE_DEPTH);
        let decode_err = std::thread::scope(|scope| {
            let decoder = scope.spawn(move || -> Result<(), String> {
                let mut reader = FileBinReader::open(path)?;
                let mut chunk = Vec::with_capacity(CHUNK);
                while let Some(record) = reader.next_record()? {
                    if let TraceRecord::Decision(d) = record {
                        chunk.push(*d);
                        if chunk.len() == CHUNK
                            && tx
                                .send(std::mem::replace(&mut chunk, Vec::with_capacity(CHUNK)))
                                .is_err()
                        {
                            // Receiver gone: the replay side bailed first.
                            return Ok(());
                        }
                    }
                }
                tx.send(chunk).ok();
                Ok(())
            });
            for chunk in rx {
                session.replay_chunk(&chunk);
            }
            decoder.join().expect("decode thread joins").err()
        });
        if let Some(e) = decode_err {
            return Err(e);
        }
    } else {
        let mut reader = FileBinReader::open(path)?;
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
    }
    let report = session.finish();
    let elapsed = start.elapsed().as_secs_f64();
    if !report.is_clean() {
        let first = report.divergent.first();
        return Err(format!(
            "replay at {threads} thread(s) diverged: {}{}",
            report.summary(),
            first.map_or(String::new(), |d| format!("; first: {d:?}")),
        ));
    }
    if report.max_abs_err != 0.0 {
        return Err(format!(
            "replay at {threads} thread(s) within tolerance but not bit-exact: \
             max |err| {:.3e}",
            report.max_abs_err
        ));
    }
    Ok((report, elapsed))
}

/// Runs the full soak: record, account, replay at every thread count,
/// bound RSS. `progress` receives one line per completed phase.
pub fn run_soak(config: &SoakConfig, mut progress: impl FnMut(&str)) -> Result<SoakReport, String> {
    if config.decisions == 0 {
        return Err("soak needs at least one decision".into());
    }
    let temp;
    let path: &Path = match &config.keep {
        Some(p) => p,
        None => {
            temp = std::env::temp_dir().join(format!("talon-soak-{}.bin", std::process::id()));
            &temp
        }
    };
    let cleanup = config.keep.is_none();
    let result = (|| {
        let (scenario, record_s) = record_phase(config, path)?;
        let trace_bytes = std::fs::metadata(path)
            .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
            .len();
        progress(&format!(
            "recorded {} decisions in {record_s:.1}s ({:.0}/s, {trace_bytes} bytes)",
            config.decisions,
            config.decisions as f64 / record_s
        ));

        let (decisions, events, jsonl_bytes) = account_phase(config, path)?;
        let compression_ratio = jsonl_bytes as f64 / trace_bytes as f64;
        progress(&format!(
            "accounted: {:.1} B/decision binary vs {:.1} B/decision JSONL ({compression_ratio:.2}× smaller)",
            trace_bytes as f64 / decisions as f64,
            jsonl_bytes as f64 / decisions as f64
        ));

        // Pre-pipeline baseline: decode inline on the coordinating
        // thread at 1 replay thread. Its outcome seeds the determinism
        // reference, so the pipelined passes below also prove that
        // moving decode off-thread changed nothing but the wall clock.
        let (inline_report, inline_elapsed) = replay_phase(path, &scenario, 1, false)?;
        let mut max_abs_err = inline_report.max_abs_err;
        let mut reference: Option<(String, DeterminismKey)> =
            Some(("1 (inline decode)".into(), determinism_key(&inline_report)));
        let replay_inline_1t_per_s = decisions as f64 / inline_elapsed;
        progress(&format!(
            "replayed {decisions} decisions at 1 thread (inline decode) in \
             {inline_elapsed:.1}s ({replay_inline_1t_per_s:.0}/s, bit-exact)"
        ));

        let mut replay = Vec::new();
        for &threads in &config.threads {
            let (report, elapsed) = replay_phase(path, &scenario, threads, true)?;
            max_abs_err = max_abs_err.max(report.max_abs_err);
            let key = determinism_key(&report);
            if let Some((ref_threads, ref_key)) = &reference {
                if *ref_key != key {
                    return Err(format!(
                        "replay outcome differs between {ref_threads} and {threads} thread(s): \
                         {ref_key:?} vs {key:?}"
                    ));
                }
            } else {
                reference = Some((threads.to_string(), key));
            }
            let per_s = decisions as f64 / elapsed;
            progress(&format!(
                "replayed {decisions} decisions at {threads} thread(s) in {elapsed:.1}s \
                 ({per_s:.0}/s, pipelined decode, bit-exact)"
            ));
            replay.push(ReplayThroughput { threads, per_s });
        }

        let rss = rss_peak_mb();
        if rss > RSS_CEILING_MB {
            return Err(format!(
                "peak RSS {rss:.0} MB exceeds the {RSS_CEILING_MB:.0} MB streaming ceiling"
            ));
        }
        Ok(SoakReport {
            decisions,
            events,
            trace_bytes,
            bytes_per_decision: trace_bytes as f64 / decisions as f64,
            jsonl_bytes,
            jsonl_bytes_per_decision: jsonl_bytes as f64 / decisions as f64,
            compression_ratio,
            record_s,
            record_per_s: decisions as f64 / record_s,
            replay,
            replay_inline_1t_per_s,
            rss_peak_mb: rss,
            max_abs_err,
        })
    })();
    if cleanup {
        std::fs::remove_file(path).ok();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_soak_records_replays_and_accounts() {
        let _guard = obs::testing::lock();
        let dir = std::env::temp_dir().join(format!("talon-soak-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let keep = dir.join("soak.bin");
        let config = SoakConfig {
            decisions: 40,
            threads: vec![1, 2, 8],
            seed: 7,
            keep: Some(keep.clone()),
        };
        let mut lines = Vec::new();
        let report = run_soak(&config, |line| lines.push(line.to_string())).expect("soak passes");
        assert_eq!(report.decisions, 40);
        assert_eq!(report.max_abs_err, 0.0);
        assert_eq!(report.replay.len(), 3);
        assert!(report.replay_inline_1t_per_s > 0.0);
        assert!(report.trace_bytes > 0);
        assert!(report.jsonl_bytes > report.trace_bytes);
        assert!(report.compression_ratio > 1.0);
        assert!(lines.len() >= 4, "one progress line per phase: {lines:?}");
        // The kept trace is a valid binary trace replayable on its own.
        assert_eq!(obs::open_trace(&keep).unwrap().decisions.len(), 40);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rss_peak_is_readable_on_linux() {
        let rss = rss_peak_mb();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 0.0, "VmHWM parses to a positive MB figure");
        }
    }
}
