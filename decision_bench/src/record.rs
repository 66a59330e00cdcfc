//! `record`: the closed-loop decision firehose of `talon soak`'s record
//! phase, with a binary trace recording every decision.
//!
//! Each decision draws the probes, sweeps them over an anechoic 3 m
//! single-ray link and selects from the readings, while an `obs::BinSink`
//! records the decision. The DUT's yaw/pitch steps through the lab Fast
//! grid on every decision, so no geometry repeats back to back. The trace
//! is cut into segments; each one is read back and checked outside the
//! timed intervals, then deleted.

use crate::clock::CpuInstant;
use crate::spans::{timed, Call};
use crate::{Phase, Tally, Workload};
use chamber::SectorPatterns;
use css::{CompressiveSelection, CssConfig};
use eval::scenario::{EvalScenario, Fidelity};
use geom::rng::sub_rng;
use obs::binfmt::FileBinReader;
use obs::{BinSink, DecisionRecord, Event, EventSink, Snapshot, TraceRecord};
use rand::rngs::StdRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use talon_array::SectorId;
use talon_channel::{Device, Environment, Link, Orientation};

/// Decisions per trace segment; the fixed pass is exactly one segment.
const SEGMENT: u64 = 4096;

/// The recording sink as the benchmark installs it: every call into
/// `BinSink` is a timed `obs` call.
pub struct TimedSink(pub Arc<BinSink>);

impl EventSink for TimedSink {
    fn emit(&self, event: &Event) {
        timed(Call::ObsSinkEvent, || self.0.emit(event));
    }

    fn emit_decision(&self, record: &DecisionRecord) {
        timed(Call::ObsSinkDecision, || self.0.emit_decision(record));
    }

    fn write_snapshot(&self, snapshot: &Snapshot) {
        self.0.write_snapshot(snapshot);
    }

    fn flush(&self) {
        self.0.flush();
    }
}

/// One generated decision.
pub struct Step {
    pub chosen: Option<SectorId>,
    /// Grid position the DUT held.
    pub position: usize,
    pub probes: usize,
    pub missed: usize,
    pub cpu: Duration,
    /// Time inside `select_from_readings` (decision-record build and
    /// sink write included).
    pub agent: Duration,
}

/// The decision generator `record` times and `replay`'s set-up reuses.
pub struct Generator {
    css: CompressiveSelection,
    link: Link,
    dut: Device,
    observer: Device,
    rng: StdRng,
    /// DUT orientation per lab Fast grid position.
    positions: Vec<Orientation>,
    next: usize,
}

impl Generator {
    /// The generator for `seed`, and the pattern database its decisions
    /// are made (and replayed) against.
    pub fn new(seed: u64) -> (Self, SectorPatterns) {
        let scenario = EvalScenario::lab(Fidelity::Fast, seed);
        // Same mapping as the scenario's rotation head: turning the DUT
        // by -az/-el puts the peer at (az, el) in device coordinates.
        let positions = scenario
            .eval_grid
            .iter()
            .map(|(_, d)| Orientation::new(-d.az_deg, -d.el_deg))
            .collect();
        let generator = Generator {
            css: CompressiveSelection::new(
                scenario.patterns.clone(),
                CssConfig::paper_default(),
                seed,
            ),
            link: Link::new(Environment::anechoic(3.0)),
            dut: Device::talon(seed),
            observer: Device::talon(seed + 1),
            rng: sub_rng(seed, "bench-record"),
            positions,
            next: 0,
        };
        obs::decision::set_context(&format!("scenario=lab,fidelity=fast,seed={seed}"));
        (generator, scenario.patterns)
    }

    /// Makes the next decision, with the DUT at the next grid position.
    pub fn decide(&mut self) -> Step {
        let position = self.next % self.positions.len();
        self.next += 1;
        self.dut.orientation = self.positions[position];
        let (css, link, dut, observer, rng) = (
            &mut self.css,
            &self.link,
            &self.dut,
            &self.observer,
            &mut self.rng,
        );
        let start = CpuInstant::now();
        let (readings, chosen, agent) = timed(Call::Unit, || {
            let probes = timed(Call::CssProbeDraw, || css.draw_probes());
            let readings = timed(Call::ChannelSweep, || {
                link.sweep(rng, dut, &probes, observer)
            });
            let agent_start = CpuInstant::now();
            let chosen = timed(Call::CssSelect, || css.select_from_readings(&readings));
            (readings, chosen, agent_start.elapsed())
        });
        let cpu = start.elapsed();
        Step {
            chosen,
            position,
            probes: readings.len(),
            missed: readings.iter().filter(|r| r.measurement.is_none()).count(),
            cpu,
            agent,
        }
    }

    /// True SNR of every DUT sector at every grid position: the
    /// exhaustive-sweep oracle, computed outside every timed interval.
    fn oracle(&mut self) -> Vec<Vec<(SectorId, f64)>> {
        let rxw = self.observer.codebook.rx_sector().weights.clone();
        let sectors = self.dut.codebook.sweep_order();
        let saved = self.dut.orientation;
        let table = self
            .positions
            .iter()
            .map(|&o| {
                self.dut.orientation = o;
                sectors
                    .iter()
                    .map(|&s| (s, self.link.true_snr_db(&self.dut, s, &self.observer, &rxw)))
                    .collect()
            })
            .collect();
        self.dut.orientation = saved;
        table
    }
}

/// Records `decisions` decisions from a fresh generator into a binary
/// trace at `path` (the set-up of `replay`). Returns the patterns.
pub fn record_trace(seed: u64, decisions: u64, path: &Path) -> Result<SectorPatterns, String> {
    let (mut generator, patterns) = Generator::new(seed);
    let sink =
        BinSink::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    obs::set_sink(Arc::new(sink));
    for _ in 0..decisions {
        generator.decide();
    }
    obs::clear_sink();
    Ok(patterns)
}

/// Reads a trace segment back: (decision records, frames skipped).
fn read_back(path: &Path) -> Result<(u64, usize), String> {
    let mut reader = FileBinReader::open(path)?;
    let mut decisions = 0u64;
    while let Some(record) = reader.next_record()? {
        decisions += u64::from(matches!(record, TraceRecord::Decision(_)));
    }
    Ok((decisions, reader.skipped()))
}

pub struct Record {
    generator: Generator,
    oracle: Vec<Vec<(SectorId, f64)>>,
    dir: PathBuf,
    segment: u64,
    /// Decisions written to the open segment.
    written: u64,
}

impl Record {
    pub fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let (mut generator, _) = Generator::new(seed);
        let oracle = generator.oracle();
        let mut record = Record {
            generator,
            oracle,
            dir: dir.to_path_buf(),
            segment: 0,
            written: 0,
        };
        record.open_segment()?;
        Ok(record)
    }

    fn segment_path(&self) -> PathBuf {
        self.dir.join(format!("record-{}.bin", self.segment))
    }

    fn open_segment(&mut self) -> Result<(), String> {
        let path = self.segment_path();
        let sink =
            BinSink::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        obs::set_sink(Arc::new(TimedSink(Arc::new(sink))));
        self.written = 0;
        Ok(())
    }

    /// Closes the open segment and checks it reads back whole: every
    /// decision written, no frame skipped. Returns its size in bytes.
    fn close_segment(&mut self, tally: &mut Tally) -> Result<u64, String> {
        obs::clear_sink();
        let path = self.segment_path();
        let bytes = std::fs::metadata(&path)
            .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
            .len();
        let (decisions, skipped) = read_back(&path)?;
        if skipped != 0 || decisions != self.written {
            tally.problems.push(format!(
                "trace segment {} read back {decisions} of {} decisions, {skipped} frame(s) skipped",
                self.segment, self.written
            ));
        }
        std::fs::remove_file(&path)
            .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
        self.segment += 1;
        Ok(bytes)
    }

    /// Makes one decision and checks it outside its timed interval.
    fn decide(&mut self, tally: &mut Tally) -> (Step, Option<f64>) {
        let step = self.generator.decide();
        self.written += 1;
        tally.attempted += 1;
        let table = &self.oracle[step.position];
        let loss = step.chosen.and_then(|c| {
            let best = table.iter().map(|&(_, v)| v).fold(f64::MIN, f64::max);
            table.iter().find(|&&(s, _)| s == c).map(|&(_, v)| best - v)
        });
        tally.failed += u64::from(loss.is_none());
        (step, loss)
    }
}

impl Drop for Record {
    /// A set-up that is dropped unfinished must not leave its sink
    /// installed.
    fn drop(&mut self) {
        obs::clear_sink();
    }
}

impl Workload for Record {
    fn fixed_pass(&mut self, tally: &mut Tally) -> Result<(), String> {
        let sink_calls =
            || crate::spans::calls(Call::ObsSinkDecision) + crate::spans::calls(Call::ObsSinkEvent);
        let calls_before = sink_calls();
        let (mut loss, mut ok, mut probes, mut missed) = (0.0, 0u64, 0usize, 0usize);
        for _ in 0..SEGMENT {
            let (step, l) = self.decide(tally);
            probes += step.probes;
            missed += step.missed;
            if let Some(l) = l {
                loss += l;
                ok += 1;
            }
        }
        let calls = sink_calls() - calls_before;
        let bytes = self.close_segment(tally)?;
        self.open_segment()?;
        tally.set("snr_loss_db", loss / ok.max(1) as f64);
        tally.set("trace_bytes_per_decision", bytes as f64 / SEGMENT as f64);
        tally.set(
            "channel.probe_miss_ratio",
            missed as f64 / probes.max(1) as f64,
        );
        tally.set("obs.sink_calls_per_decision", calls as f64 / SEGMENT as f64);
        Ok(())
    }

    fn step(&mut self, phase: &mut Phase, tally: &mut Tally) -> Result<(), String> {
        let (step, _) = self.decide(tally);
        phase.add(step.cpu, step.agent, 1);
        if self.written == SEGMENT {
            self.close_segment(tally)?;
            self.open_segment()?;
        }
        Ok(())
    }

    fn finish(&mut self, tally: &mut Tally) -> Result<(), String> {
        self.close_segment(tally).map(drop)
    }
}
