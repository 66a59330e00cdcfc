//! `replay`: re-executes a recorded trace bit-exactly, as `talon replay`
//! and the soak's replay phase do.
//!
//! Set-up records a trace with `record`'s generator and the same seed.
//! The timed loop decodes it inline on the coordinating thread, in
//! chunks of `CHUNK` decisions, and re-executes each chunk through a
//! `ReplaySession` on `THREADS` threads, starting over at the end of the
//! file. The fixed pass and the timed loop each use a session of their
//! own, and each session's report is checked once its pass is over: every
//! decision fed must have been replayed, cleanly, with a largest error of
//! exactly 0.

use crate::clock::CpuInstant;
use crate::spans::{timed, timed_counted, timed_work, Call};
use crate::{Phase, Tally, Workload};
use eval::replay::{ReplayConfig, ReplaySession};
use obs::binfmt::FileBinReader;
use obs::{DecisionRecord, TraceRecord};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Decisions in the recorded trace; a whole number of chunks.
const DECISIONS: u64 = 8192;
/// Decisions per replay chunk: the soak's replay chunk, so the whole
/// trace replays as one chunk, as `talon replay` and the soak replay it.
const CHUNK: usize = 8 * 1024;
/// Replay worker threads, capped at the cores available.
const THREADS: usize = 2;

pub struct Replay {
    path: PathBuf,
    config: ReplayConfig,
    session: Option<ReplaySession>,
    /// Decisions fed to the current session.
    fed: u64,
    reader: Option<FileBinReader>,
    chunk: Vec<DecisionRecord>,
    skipped: usize,
    imbalance: std::sync::Arc<obs::Gauge>,
}

impl Replay {
    pub fn setup(seed: u64, dir: &Path, perturb_snr_db: f64) -> Result<Self, String> {
        let path = dir.join("replay.bin");
        let patterns = crate::record::record_trace(seed, DECISIONS, &path)?;
        let config = ReplayConfig {
            threads: THREADS.min(crate::prov::cores()),
            perturb_snr_db,
            patterns_override: Some(patterns),
        };
        Ok(Replay {
            path,
            session: Some(ReplaySession::new(config.clone())),
            config,
            fed: 0,
            reader: None,
            chunk: Vec::with_capacity(CHUNK),
            skipped: 0,
            imbalance: obs::gauge("eval.worker_imbalance_ppm"),
        })
    }

    /// Decodes and replays the next chunk; returns the decisions it
    /// covered (0 once the file is exhausted).
    fn replay_next(&mut self, phase: Option<&mut Phase>) -> Result<usize, String> {
        if self.reader.is_none() {
            self.reader = Some(FileBinReader::open(&self.path)?);
        }
        let (reader, session, chunk) = (
            self.reader.as_mut().expect("opened above"),
            self.session.as_mut().expect("session lives until finish"),
            &mut self.chunk,
        );
        chunk.clear();
        let start = CpuInstant::now();
        let (eof, agent) = timed_counted(Call::Unit, || {
            let mut eof = false;
            while chunk.len() < CHUNK {
                match timed(Call::ObsDecode, || reader.next_record()) {
                    Ok(Some(TraceRecord::Decision(d))) => chunk.push(*d),
                    Ok(Some(_)) => {}
                    Ok(None) => {
                        eof = true;
                        break;
                    }
                    Err(e) => return (Err(e), 0),
                }
            }
            let replay_start = CpuInstant::now();
            if !chunk.is_empty() {
                timed_work(Call::EvalReplayChunk, chunk.len() as u32, || {
                    session.replay_chunk(chunk);
                });
            }
            (Ok((eof, replay_start.elapsed())), chunk.len() as u32)
        })?;
        let cpu = start.elapsed();
        let n = chunk.len();
        self.fed += n as u64;
        if let Some(phase) = phase {
            phase.add(cpu, agent, n as u64);
            if n > 0 {
                phase.imbalance_ppm.push(self.imbalance.get() as f64);
            }
        }
        if eof {
            self.skipped += reader.skipped();
            self.reader = None;
        }
        Ok(n)
    }

    /// Finishes the current session and checks its report: every decision
    /// fed was replayed, none was skipped, and all reproduced bit-exactly.
    fn check_session(&mut self, tally: &mut Tally) {
        let report = self.session.take().expect("one session per pass").finish();
        let fed = std::mem::take(&mut self.fed);
        // A decision that did not replay bit-exactly is a failed one.
        let divergent: BTreeSet<usize> = report.divergent.iter().map(|d| d.index).collect();
        tally.failed += divergent.len() as u64;
        if report.total_decisions as u64 != fed
            || report.replayed != report.total_decisions
            || report.skipped_non_replayable != 0
        {
            tally.problems.push(format!(
                "replayed {} of {fed} decisions fed: {}",
                report.replayed,
                report.summary()
            ));
        }
        if !report.is_clean() || report.max_abs_err != 0.0 {
            tally
                .problems
                .push(format!("replay not bit-exact: {}", report.summary()));
        }
    }
}

impl Workload for Replay {
    fn fixed_pass(&mut self, tally: &mut Tally) -> Result<(), String> {
        // One whole pass over the trace.
        let mut decisions = 0u64;
        loop {
            let n = self.replay_next(None)?;
            decisions += n as u64;
            if self.reader.is_none() {
                break;
            }
        }
        if decisions != DECISIONS {
            tally.problems.push(format!(
                "decoded {decisions} of {DECISIONS} recorded decisions"
            ));
        }
        tally.attempted += decisions;
        tally.set("obs.decode_skipped", self.skipped as f64);
        self.check_session(tally);
        self.session = Some(ReplaySession::new(self.config.clone()));
        Ok(())
    }

    fn step(&mut self, phase: &mut Phase, tally: &mut Tally) -> Result<(), String> {
        let n = self.replay_next(Some(phase))?;
        tally.attempted += n as u64;
        Ok(())
    }

    fn finish(&mut self, tally: &mut Tally) -> Result<(), String> {
        self.check_session(tally);
        if self.skipped != 0 {
            tally.problems.push(format!(
                "{} trace frame(s) skipped while decoding",
                self.skipped
            ));
        }
        tally.set("obs.decode_skipped", self.skipped as f64);
        Ok(())
    }
}
