//! `decision_bench`: one benchmark for a CSS beam-training decision.
//!
//! ```text
//! decision_bench --workload <live_css|record|replay|fig7> --seed N
//!                --seconds S --trace 0|1 [--out results.jsonl]
//! decision_bench --compare <base.jsonl> <new.jsonl>
//! decision_bench --self-test
//! ```
//!
//! A run sets its workload up several times (reporting the median set-up
//! time), runs a fixed, deterministic pass that yields the counts and
//! output-quality figures, then measures for `--seconds` in blocks of
//! 200 ms. Every end-to-end timing is CPU time of the process (see
//! `clock`), so time the hypervisor gives to other guests does not count
//! as the program's. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it alternates untraced and traced blocks and
//! prints the per-layer metrics from the benchmark's own span trace (see
//! `spans`). The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed`, `metrics`. Run from the repository
//! root; scratch files and the span trace go to `.decision_bench/`.

mod clock;
mod compare;
mod fig7;
mod live;
mod prov;
mod record;
mod replay;
mod selftest;
mod spans;
mod stats;

use serde::Value;
use spans::Mode;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["live_css", "record", "replay", "fig7"];

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("decision_p50_us", "us"),
    ("decision_p99_us", "us"),
    ("agent_p50_us", "us"),
    ("agent_per_airtime_saved", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("sls.sweep_ns", "ns"),
    ("sls.sweep_ns.p99", "ns"),
    ("channel.sweep_ns", "ns"),
    ("channel.sweep_ns.p99", "ns"),
    ("wil.select_ns", "ns"),
    ("wil.select_ns.p99", "ns"),
    ("wil.drain_ns", "ns"),
    ("wil.drain_ns.p99", "ns"),
    ("wil.wmi_ns", "ns"),
    ("wil.wmi_ns.p99", "ns"),
    ("css.probe_draw_ns", "ns"),
    ("css.probe_draw_ns.p99", "ns"),
    ("css.select_ns", "ns"),
    ("css.select_ns.p99", "ns"),
    ("css.select_self_ns", "ns"),
    ("css.select_self_ns.p99", "ns"),
    ("obs.sink_decision_ns", "ns"),
    ("obs.sink_decision_ns.p99", "ns"),
    ("obs.sink_event_ns", "ns"),
    ("obs.sink_event_ns.p99", "ns"),
    ("obs.decode_ns", "ns"),
    ("obs.decode_ns.p99", "ns"),
    ("eval.replay_chunk_ns", "ns"),
    ("eval.replay_chunk_ns.p99", "ns"),
    ("eval.fig7_unit_ns", "ns"),
    ("eval.fig7_unit_ns.p99", "ns"),
    ("sls.frames_per_training", "count"),
    ("channel.probe_miss_ratio", "ratio"),
    ("wil.exported_per_decision", "count"),
    ("wil.ring_dropped", "count"),
    ("css.degenerate_ratio", "ratio"),
    ("css.batch_fill", "count"),
    ("obs.sink_calls_per_decision", "count"),
    ("obs.decode_skipped", "count"),
    ("eval.worker_busy_ratio", "ratio"),
    ("eval.worker_imbalance_ppm", "ppm"),
    ("layer.mac_ns", "ns"),
    ("layer.channel_ns", "ns"),
    ("layer.wil_ns", "ns"),
    ("layer.core_ns", "ns"),
    ("layer.obs_ns", "ns"),
    ("layer.eval_ns", "ns"),
    ("layer.unattributed_ns", "ns"),
    ("layer.decision_ns", "ns"),
    ("bench.unattributed_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("airtime_us", "us"),
    ("snr_loss_db", "dB"),
    ("failed_ratio", "ratio"),
    ("trace_bytes_per_decision", "B"),
    ("est_err_az_deg_p50", "deg"),
];

/// Set-ups per run, half before and half after measuring; the median is
/// reported.
const SETUP_REPS: usize = 6;
/// Length of one measuring block; a traced run traces two blocks in three.
const BLOCK: Duration = Duration::from_millis(200);
/// Where scratch files and span traces go, relative to the working
/// directory.
pub const OUT_DIR: &str = ".decision_bench";

/// One measuring block of a phase.
#[derive(Debug, Default)]
struct Block {
    /// Index into the phase's samples of the block's first sample.
    start: usize,
    busy: Duration,
    decisions: u64,
}

/// Timing samples of one measuring phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// CPU time per decision, µs (a batch contributes one sample: its
    /// CPU time divided by its decisions).
    pub decision_us: Vec<f64>,
    /// Selection compute per decision, µs, sampled like `decision_us`.
    pub agent_us: Vec<f64>,
    /// `eval.worker_imbalance_ppm` after each batch.
    pub imbalance_ppm: Vec<f64>,
    blocks: Vec<Block>,
}

/// A phase's figures.
struct Figures {
    /// Median over the blocks of each block's decisions per second.
    per_s: f64,
    /// Median of all samples.
    p50_us: f64,
    /// Median over the blocks of each block's tail (`stats::tail`), and
    /// never below `p50_us`.
    tail_us: f64,
    agent_p50_us: f64,
}

impl Phase {
    fn begin_block(&mut self) {
        let start = self.decision_us.len();
        self.blocks.push(Block {
            start,
            ..Block::default()
        });
    }

    /// Adds one timed unit of work that covered `decisions` decisions.
    pub fn add(&mut self, cpu: Duration, agent: Duration, decisions: u64) {
        if self.blocks.is_empty() {
            self.begin_block();
        }
        let block = self.blocks.last_mut().expect("a block is open");
        block.busy += cpu;
        if decisions > 0 {
            let n = decisions as f64;
            self.decision_us.push(cpu.as_secs_f64() * 1e6 / n);
            self.agent_us.push(agent.as_secs_f64() * 1e6 / n);
            block.decisions += decisions;
        }
    }

    /// Sample range of block `i`.
    fn range(&self, i: usize) -> std::ops::Range<usize> {
        let end = self
            .blocks
            .get(i + 1)
            .map_or(self.decision_us.len(), |b| b.start);
        self.blocks[i].start..end
    }

    /// The phase's figures. Rate and tail are medians of per-block
    /// figures, so a stretch of outside load moves them by at most its
    /// share of the blocks. A batch workload gives too few samples per
    /// block for a tail, so its tail reads as its median.
    fn figures(&self) -> Figures {
        let (mut rates, mut tails) = (Vec::new(), Vec::new());
        for (i, block) in self.blocks.iter().enumerate() {
            let r = self.range(i);
            if r.is_empty() {
                continue;
            }
            rates.push(block.decisions as f64 / block.busy.as_secs_f64().max(1e-9));
            tails.push(stats::tail(&self.decision_us[r]));
        }
        let p50_us = stats::median(&self.decision_us);
        Figures {
            per_s: stats::median(&rates),
            p50_us,
            tail_us: stats::median(&tails).max(p50_us),
            agent_p50_us: stats::median(&self.agent_us),
        }
    }
}

/// Outcome counts, check failures and per-layer figures of a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Decisions whose output was wrong.
    pub failed: u64,
    /// Run-level check failures; any makes the run incorrect.
    pub problems: Vec<String>,
    values: Vec<(&'static str, f64)>,
}

impl Tally {
    /// Sets a per-layer figure.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|&(n, _)| n == name), "{name}");
        self.values.retain(|&(n, _)| n != name);
        self.values.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// What every workload provides to the measuring loop.
pub trait Workload {
    /// The fixed pass: a deterministic amount of work whose outputs are
    /// checked and whose figures repeat exactly for one seed.
    fn fixed_pass(&mut self, tally: &mut Tally) -> Result<(), String>;
    /// One timed unit of work; its outputs are checked outside the timed
    /// interval.
    fn step(&mut self, phase: &mut Phase, tally: &mut Tally) -> Result<(), String>;
    /// Checks that can only run once the measuring is over.
    fn finish(&mut self, _tally: &mut Tally) -> Result<(), String> {
        Ok(())
    }
}

/// A per-run scratch directory keyed by workload, pid and a counter;
/// removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(workload: &str) -> Result<Self, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(OUT_DIR)
            .join("scratch")
            .join(format!("{workload}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The arguments of one measuring run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// SNR perturbation (dB) replay applies to every input: a negative
    /// control that must make the run fail.
    pub perturb_snr_db: f64,
    pub out: Option<PathBuf>,
}

fn make(args: &RunArgs, scratch: &Scratch) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "live_css" => Box::new(live::LiveCss::setup(args.seed)),
        "record" => Box::new(record::Record::setup(args.seed, scratch.path())?),
        "replay" => Box::new(replay::Replay::setup(
            args.seed,
            scratch.path(),
            args.perturb_snr_db,
        )?),
        "fig7" => Box::new(fig7::Fig7::setup(args.seed)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Counter delta between two registry snapshots, summed over every
/// labeled series of `name`.
fn delta(before: &obs::Snapshot, after: &obs::Snapshot, name: &str) -> u64 {
    let labeled = format!("{name}{{");
    after
        .counters
        .iter()
        .filter(|(k, _)| *k == name || k.starts_with(&labeled))
        .map(|(k, &v)| v.saturating_sub(before.counter(k)))
        .sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Airtime one training saves at the paper's operating point: SSW (34
/// probes) minus CSS (14 probes), µs.
fn airtime_saved_us() -> f64 {
    use mac80211ad::timing::mutual_training_time;
    mutual_training_time(34).as_us() - mutual_training_time(14).as_us()
}

/// Everything a run measured.
struct RunResult {
    correct: bool,
    tally: Tally,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn run(args: &RunArgs) -> Result<RunResult, String> {
    let scratch = Scratch::new(&args.workload)?;
    // Set-ups are timed before and after measuring, so that the median
    // does not rest on one moment of the host's load; the last one before
    // measuring is the one measured.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut set_up = || -> Result<Box<dyn Workload>, String> {
        let start = clock::CpuInstant::now();
        let w = make(args, &scratch)?;
        setups.push(start.elapsed().as_secs_f64());
        Ok(w)
    };
    for _ in 1..SETUP_REPS / 2 {
        drop(set_up()?);
    }
    let mut w = set_up()?;
    let mut tally = Tally::default();

    // Fixed pass: counts come from registry deltas around it.
    spans::set_mode(if args.trace { Mode::Count } else { Mode::Off });
    let before = obs::global().snapshot();
    w.fixed_pass(&mut tally)?;
    let after = obs::global().snapshot();
    spans::set_mode(Mode::Off);
    // Read before the measuring loop grows the benchmark's own sample
    // buffers: the figure is the program's footprint after set-up and the
    // fixed pass.
    let peak_rss_mb = eval::soak::rss_peak_mb();
    let estimates = delta(&before, &after, "css.estimates");
    if estimates > 0 {
        let degenerate = delta(&before, &after, "css.degenerate");
        tally.set("css.degenerate_ratio", ratio(degenerate, estimates));
    }
    tally.set(
        "css.batch_fill",
        ratio(
            delta(&before, &after, "css.batch_estimates"),
            delta(&before, &after, "css.batch_sweeps"),
        ),
    );
    tally.set(
        "wil.ring_dropped",
        delta(&before, &after, "wil.ring.dropped") as f64,
    );

    // Measuring: untraced throughout, or two traced blocks in three.
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let before = obs::global().snapshot();
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut block = 0u64;
    while start.elapsed() < budget {
        let tracing = args.trace && !block.is_multiple_of(3);
        spans::set_mode(if tracing { Mode::Time } else { Mode::Off });
        let phase = if tracing { &mut traced } else { &mut plain };
        phase.begin_block();
        let block_end = start.elapsed() + BLOCK;
        while start.elapsed() < block_end.min(budget) {
            w.step(phase, &mut tally)?;
        }
        block += 1;
    }
    spans::set_mode(Mode::Off);
    let after = obs::global().snapshot();
    w.finish(&mut tally)?;
    drop(w);
    obs::clear_sink();
    for _ in SETUP_REPS / 2..SETUP_REPS {
        drop(set_up()?);
    }

    let metrics = if args.trace {
        let busy = delta(&before, &after, "worker.busy_ns");
        let idle = delta(&before, &after, "worker.idle_ns");
        tally.set("eval.worker_busy_ratio", ratio(busy, busy + idle));
        let imbalance: Vec<f64> = plain
            .imbalance_ppm
            .iter()
            .chain(&traced.imbalance_ppm)
            .copied()
            .collect();
        tally.set("eval.worker_imbalance_ppm", stats::median(&imbalance));
        per_layer(args, &mut tally, &plain, &traced)?
    } else {
        let figures = plain.figures();
        println!(
            "# {} decision samples in {} blocks",
            plain.decision_us.len(),
            plain.blocks.len()
        );
        let values = [
            stats::median(&setups),
            figures.per_s,
            figures.p50_us,
            figures.tail_us,
            figures.agent_p50_us,
            figures.agent_p50_us / airtime_saved_us(),
            peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    let correct = tally.problems.is_empty() && tally.failed == 0 && tally.attempted > 0;
    Ok(RunResult {
        correct,
        tally,
        metrics,
    })
}

/// The per-layer metrics of a traced run; also writes its span trace.
fn per_layer(
    args: &RunArgs,
    tally: &mut Tally,
    plain: &Phase,
    traced: &Phase,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let summary = spans::summarize();
    let path = Path::new(OUT_DIR).join(format!("spans-{}.csv", args.workload));
    spans::write_out(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "# {} spans over {} traced decisions written to {}",
        summary.spans,
        summary.decisions,
        path.display()
    );
    for (name, xs) in &summary.per_call {
        tally.set(name, stats::median(xs));
        let p99: &'static str = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_suffix(".p99") == Some(name))
            .map(|&(n, _)| n)
            .expect("every per-call metric has a .p99 companion");
        tally.set(p99, stats::tail(xs));
    }
    let per_decision = |ns: u64| ns as f64 / summary.decisions.max(1) as f64;
    for &(layer, ns) in &summary.layer_self_ns {
        tally.set(layer.metric(), per_decision(ns));
    }
    tally.set("layer.decision_ns", per_decision(summary.total_ns));
    let residual = summary
        .layer_self_ns
        .iter()
        .find(|(l, _)| *l == spans::Layer::Unattributed)
        .map_or(0, |&(_, ns)| ns);
    tally.set(
        "bench.unattributed_pct",
        100.0 * ratio(residual, summary.total_ns),
    );
    let untraced = plain.figures().per_s;
    tally.set(
        "bench.trace_overhead_pct",
        100.0 * (untraced - traced.figures().per_s) / untraced.max(1e-9),
    );
    tally.set("failed_ratio", ratio(tally.failed, tally.attempted));
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, tally.get(name).unwrap_or(0.0)))
        .collect())
}

fn result_json(result: &RunResult) -> Value {
    let metrics = result
        .metrics
        .iter()
        .map(|&(name, unit, v)| {
            (
                name.to_string(),
                Value::Map(vec![
                    ("value".into(), Value::F64(v)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Value::Map(vec![
        ("correct".into(), Value::Bool(result.correct)),
        ("attempted".into(), Value::U64(result.tally.attempted)),
        ("failed".into(), Value::U64(result.tally.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ])
}

fn measure(args: &RunArgs) -> Result<bool, String> {
    let result = run(args)?;
    let provenance = prov::collect(&args.workload, args.seed, args.seconds, args.trace);
    println!("# provenance {}", provenance.to_json());
    for problem in &result.tally.problems {
        println!("# check failed: {problem}");
    }
    for &(name, unit, v) in &result.metrics {
        println!("# {name:<28} {v:>16.4} {unit}");
    }
    if result.metrics.iter().any(|&(_, _, v)| !v.is_finite()) {
        return Err("a metric is not a finite number".into());
    }
    let json = result_json(&result);
    if let Some(out) = &args.out {
        use std::io::Write;
        let line = Value::Map(vec![
            ("provenance".into(), provenance),
            ("result".into(), json.clone()),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("cannot open {}: {e}", out.display()))?;
        writeln!(file, "{}", line.to_json())
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    }
    println!("{}", json.to_json());
    Ok(result.correct)
}

const USAGE: &str = "usage: decision_bench --workload <live_css|record|replay|fig7> --seed N \
--seconds S --trace 0|1 [--out FILE]\n       decision_bench --compare BASE NEW\n       \
decision_bench --self-test";

fn parse(argv: &[String]) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        perturb_snr_db: 0.0,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--perturb-db" => {
                args.perturb_snr_db = value()?.parse().map_err(|_| "bad --perturb-db")?
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--self-test") => selftest::run(),
        Some("--compare") if argv.len() == 3 => compare::run(&argv[1], &argv[2]),
        _ => match parse(&argv) {
            Ok(args) => measure(&args),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
