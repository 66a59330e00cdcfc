//! `talon` — command-line front end to the workspace.
//!
//! Mirrors the workflow of the paper's talon-tools: measure patterns once,
//! record sweep datasets, re-analyse them offline, and run individual
//! trainings.
//!
//! ```text
//! talon campaign  --out patterns.txt [--scan azimuth|3d|coarse] [--seed N]
//! talon record    --scenario lab|conference --out dataset.txt [--seed N] [--paper]
//! talon analyze   --dataset dataset.txt --patterns patterns.txt [--probes 14,20]
//! talon sls       --scenario lab|conference --policy ssw|css [--probes 14] [--yaw DEG]
//! talon brd       --out codebook.brd [--seed N] | --check codebook.brd
//! talon report    trace.bin [--tree | --flame | --quality | --json]
//! talon replay    trace.bin [--threads N] [--perturb DB] [--patterns <file>]
//! talon profile   trace.bin [--threads N]
//! talon trace     convert <in.bin> <out.jsonl>
//! ```
//!
//! `record`, `analyze` and `sls` accept `--trace <file>` to stream obs
//! events in the CRC-framed binary trace format and append a final
//! registry snapshot; `talon sls --seed N --trace t.bin` records one
//! training session. `report` renders such a trace as summary tables, a
//! causal span tree (`--tree`), folded flamegraph stacks (`--flame`), the
//! critical path (`--critical-path`), a per-session link-quality table
//! (`--quality`), or one machine-readable JSON object (`--json`); `replay`
//! re-executes the trace's recorded decisions and exits non-zero unless
//! every one reproduces bit-exactly (and fails when none is replayable),
//! streaming the file in bounded memory; `profile` replays them and
//! prints the replay's own spans as exact self-time folded stacks;
//! `trace convert` exports a trace as JSON Lines (one-way). Output goes
//! through one locked stdout writer, so a reader that closes the pipe
//! early (`| head -1`) ends the command cleanly.
//!
//! Each command accepts exactly the options its USAGE line lists: an
//! unknown option, a stray argument, an unparsable numeric option
//! (`--seed`, `--yaw`, `--threads`, `--perturb`, `--top`) or a `--probes`
//! count outside 2..=34 exits 2 with one `error:` line.

use chamber::{Campaign, CampaignConfig, SectorPatterns};
use css::selection::{CompressiveSelection, CssConfig, DecisionOracle};
use eval::scenario::{EvalScenario, Fidelity};
use geom::rng::sub_rng;
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy, SlsRunner};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use talon_channel::{Device, Environment, Link, Orientation};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let (opts, positional) = parse_opts(&args[1..]);
    if let Err(e) = check_args(cmd, &opts, &positional) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    // `--trace <file>`: stream obs events to a binary trace file while the
    // command runs, and append a registry snapshot at the end. Only the
    // commands that produce traces accept it (see `OPTIONS`), so a sink is
    // never opened — truncating the file — on a command's input.
    let trace_sink: Option<std::sync::Arc<dyn obs::EventSink>> = match opts.get("trace") {
        // A bare `--trace` parses as the value "true"; require a path
        // instead of silently writing a file named `true`.
        Some(path) if path == "true" => {
            eprintln!("error: --trace needs a file path");
            return ExitCode::from(2);
        }
        // Traces are written in the binary format only; a `.jsonl` path
        // would hold binary frames under a text name.
        Some(path) if path.ends_with(".jsonl") => {
            eprintln!(
                "error: --trace writes a binary trace; record to a .bin path and \
                 export JSON Lines with `talon trace convert <in.bin> <out.jsonl>`"
            );
            return ExitCode::from(2);
        }
        Some(path) => match obs::BinSink::create(path) {
            Ok(sink) => {
                let sink: std::sync::Arc<dyn obs::EventSink> = std::sync::Arc::new(sink);
                obs::set_sink(sink.clone());
                Some(sink)
            }
            Err(e) => {
                eprintln!("error: creating trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let result = match cmd.as_str() {
        "campaign" => cmd_campaign(&opts),
        "record" => cmd_record(&opts),
        "analyze" => cmd_analyze(&opts),
        "sls" => cmd_sls(&opts),
        "brd" => cmd_brd(&opts),
        "report" => cmd_report(&positional, &opts),
        "replay" => cmd_replay(&positional, &opts),
        "profile" => cmd_profile(&positional, &opts),
        "trace" => cmd_trace(&positional),
        "help" | "--help" | "-h" => print_line(USAGE),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    if let Some(sink) = trace_sink {
        sink.write_snapshot(&obs::global().snapshot());
        obs::clear_sink();
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "talon — compressive sector selection toolkit

commands:
  campaign  --out <file> [--scan azimuth|3d|coarse] [--seed N]
  record    --scenario lab|conference --out <file> [--patterns-out <file>] [--seed N] [--paper] [--trace <file>]
  analyze   --dataset <file> --patterns <file> [--probes 14,20] [--seed N] [--trace <file>]
  sls       --scenario lab|conference --policy ssw|css [--probes 14] [--yaw DEG] [--seed N] [--paper] [--trace <file>]
  brd       --out <file> [--seed N]  |  --check <file>
  report    <trace.bin> [--tree | --flame | --critical-path [--top K] | --quality | --json]
  replay    <trace.bin> [--threads N] [--perturb DB] [--patterns <file>] [--json]
  profile   <trace.bin> [--threads N]
  trace     convert <in.bin> <out.jsonl>   (one-way JSON Lines export)

--probes counts are 2..=34 (sls takes one); --seed is a non-negative integer (default 42).";

/// The options each command reads and how many positional arguments it
/// takes. Anything else is a usage error: a typo such as `--polcy css`
/// must fail, not run the default policy.
const OPTIONS: &[(&str, usize, &str)] = &[
    ("campaign", 0, "out scan seed"),
    ("record", 0, "scenario out patterns-out seed paper trace"),
    ("analyze", 0, "dataset patterns probes seed trace"),
    ("sls", 0, "scenario policy probes yaw seed paper trace"),
    ("brd", 0, "out seed check"),
    ("report", 1, "tree flame critical-path top quality json"),
    ("replay", 1, "threads perturb patterns json"),
    ("profile", 1, "threads"),
    ("trace", 3, ""),
];

/// Rejects what `cmd` would otherwise ignore or silently default: an
/// option it does not read, a stray argument, an unparsable numeric
/// option, or a `--probes` count outside 2..=34. Unknown commands pass
/// through to the dispatcher's own error.
fn check_args(
    cmd: &str,
    opts: &HashMap<String, String>,
    positional: &[String],
) -> Result<(), String> {
    let Some(&(_, max_positional, known)) = OPTIONS.iter().find(|(name, ..)| *name == cmd) else {
        return Ok(());
    };
    let mut keys: Vec<&String> = opts.keys().collect();
    keys.sort();
    if let Some(key) = keys
        .into_iter()
        .find(|k| !known.split_whitespace().any(|o| o == *k))
    {
        let accepted: String = known
            .split_whitespace()
            .map(|o| format!(" --{o}"))
            .collect();
        return Err(format!(
            "{cmd}: unknown option `--{key}` (accepted:{accepted})"
        ));
    }
    if let Some(extra) = positional.get(max_positional) {
        return Err(format!("{cmd}: unexpected argument `{extra}`"));
    }
    seed_of(opts)?;
    yaw_of(opts)?;
    threads_of(opts)?;
    perturb_of(opts)?;
    top_of(opts)?;
    if let Some(spec) = opts.get("probes") {
        if probe_counts(spec)?.len() > 1 && cmd == "sls" {
            return Err(format!("sls takes one --probes count, not `{spec}`"));
        }
    }
    Ok(())
}

/// Options that never take a value: `--json t.bin` is a switch followed
/// by a positional trace path, not `json = "t.bin"`.
const SWITCHES: &[&str] = &["json", "tree", "flame", "quality", "critical-path", "paper"];

/// Parses `--key value` and bare `--flag` options, returning them with the
/// positional arguments no option consumed, in order. A [`SWITCHES`] entry
/// maps to `"true"` and never consumes the next argument; any other
/// `--flag` followed by another option (or nothing) maps to `"true"` as
/// well, and one whose next argument happens to be the literal string
/// `"true"` consumes it like any other value.
fn parse_opts(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut out = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") && !SWITCHES.contains(&key) => {
                    out.insert(key.to_string(), v.clone());
                    i += 2;
                }
                _ => {
                    out.insert(key.to_string(), "true".into());
                    i += 1;
                }
            }
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    (out, positional)
}

/// Option `--key` parsed as a `T`, or `None` when absent; `form` names a
/// valid value in the error.
fn num<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    form: &str,
) -> Result<Option<T>, String> {
    opts.get(key)
        .map(|s| {
            s.parse()
                .map_err(|_| format!("bad --{key} `{s}`: expected {form}"))
        })
        .transpose()
}

fn seed_of(opts: &HashMap<String, String>) -> Result<u64, String> {
    Ok(num(opts, "seed", "a non-negative integer")?.unwrap_or(42))
}

/// [`num`] for an `f64` option that must be finite: `nan` and `±inf`
/// parse as `f64` but are no angle or offset.
fn finite(opts: &HashMap<String, String>, key: &str, form: &str) -> Result<Option<f64>, String> {
    match num::<f64>(opts, key, form)? {
        Some(v) if !v.is_finite() => Err(format!("bad --{key} `{}`: expected {form}", opts[key])),
        v => Ok(v),
    }
}

fn yaw_of(opts: &HashMap<String, String>) -> Result<f64, String> {
    Ok(finite(opts, "yaw", "a number of degrees")?.unwrap_or(-25.0))
}

fn threads_of(opts: &HashMap<String, String>) -> Result<Option<usize>, String> {
    num(opts, "threads", "a non-negative integer")
}

fn perturb_of(opts: &HashMap<String, String>) -> Result<Option<f64>, String> {
    finite(opts, "perturb", "a number of dB")
}

fn top_of(opts: &HashMap<String, String>) -> Result<usize, String> {
    Ok(num(opts, "top", "a non-negative integer")?.unwrap_or(5))
}

/// Parses `--probes`: a comma list of counts, each in 2..=34 — at least
/// two sectors to correlate, at most the Talon's 34 transmit sectors.
fn probe_counts(spec: &str) -> Result<Vec<usize>, String> {
    spec.split(',')
        .map(|t| match t.trim().parse() {
            Ok(m) if (2..=34).contains(&m) => Ok(m),
            _ => Err(format!(
                "bad --probes count `{t}`: expected an integer in 2..=34"
            )),
        })
        .collect()
}

fn cmd_campaign(opts: &HashMap<String, String>) -> Result<(), String> {
    let out = opts.get("out").ok_or("campaign needs --out <file>")?;
    let seed = seed_of(opts)?;
    let cfg = match opts.get("scan").map(String::as_str) {
        Some("azimuth") => CampaignConfig::paper_azimuth_scan(),
        Some("3d") | None => CampaignConfig::paper_3d_scan(),
        Some("coarse") => CampaignConfig::coarse(),
        Some(other) => return Err(format!("unknown scan `{other}`")),
    };
    eprintln!(
        "measuring 34 sectors over a {}x{} grid ({} sweeps/position)…",
        cfg.grid.az.len(),
        cfg.grid.el.len(),
        cfg.sweeps_per_position
    );
    let link = Link::new(Environment::anechoic(3.0));
    let mut dut = Device::talon(seed);
    let fixed = Device::talon(seed + 1);
    let mut campaign = Campaign::new(cfg, seed);
    let mut rng = sub_rng(seed, "cli-campaign");
    let patterns = campaign.measure_tx_patterns(&mut rng, &link, &mut dut, &fixed);
    patterns
        .save(Path::new(out))
        .map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {} sector patterns to {out}", patterns.len());
    Ok(())
}

fn scenario_of(opts: &HashMap<String, String>, seed: u64) -> Result<EvalScenario, String> {
    let fidelity = if opts.contains_key("paper") {
        Fidelity::Paper
    } else {
        Fidelity::Fast
    };
    match opts.get("scenario").map(String::as_str) {
        Some("lab") => Ok(EvalScenario::lab(fidelity, seed)),
        Some("conference") | None => Ok(EvalScenario::conference_room(fidelity, seed)),
        Some(other) => Err(format!("unknown scenario `{other}`")),
    }
}

fn cmd_record(opts: &HashMap<String, String>) -> Result<(), String> {
    let out = opts.get("out").ok_or("record needs --out <file>")?;
    let seed = seed_of(opts)?;
    let mut scenario = scenario_of(opts, seed)?;
    eprintln!(
        "recording {} positions x {} sweeps in {}…",
        scenario.eval_grid.len(),
        scenario.sweeps_per_position,
        scenario.name
    );
    let data = scenario.record(seed);
    eval::dataset_io::save(&data, Path::new(out)).map_err(|e| format!("writing {out}: {e}"))?;
    if let Some(pat_out) = opts.get("patterns-out") {
        scenario
            .patterns
            .save(Path::new(pat_out))
            .map_err(|e| format!("writing {pat_out}: {e}"))?;
        eprintln!("wrote matching pattern store to {pat_out}");
    }
    eprintln!(
        "wrote dataset ({} positions) to {out}",
        data.positions.len()
    );
    Ok(())
}

fn cmd_analyze(opts: &HashMap<String, String>) -> Result<(), String> {
    let dataset_path = opts
        .get("dataset")
        .ok_or("analyze needs --dataset <file>")?;
    let patterns_path = opts
        .get("patterns")
        .ok_or("analyze needs --patterns <file>")?;
    let seed = seed_of(opts)?;
    let data = eval::dataset_io::load(Path::new(dataset_path))
        .map_err(|e| format!("reading {dataset_path}: {e}"))?
        .map_err(|e| format!("parsing {dataset_path}: {e}"))?;
    let patterns = SectorPatterns::load(Path::new(patterns_path))
        .map_err(|e| format!("reading {patterns_path}: {e}"))?
        .map_err(|e| format!("parsing {patterns_path}: {e}"))?;
    let probes = match opts.get("probes") {
        Some(spec) => probe_counts(spec)?,
        None => vec![6, 10, 14, 20, 34],
    };
    let stab = eval::stability::selection_stability(&data, &patterns, &probes, seed);
    let loss = eval::snr_loss::snr_loss(&data, &patterns, &probes, seed);
    let rows: Vec<Vec<String>> = stab
        .css
        .iter()
        .zip(&loss.css)
        .map(|(&(m, s), &(_, l))| {
            vec![
                m.to_string(),
                format!("{s:.3}"),
                format!("{:.3}", stab.ssw_stability),
                format!("{l:.2}"),
                format!("{:.2}", loss.ssw_loss_db),
            ]
        })
        .collect();
    print_line(eval::ascii::table(
        &[
            "M",
            "CSS stability",
            "SSW stability",
            "CSS loss dB",
            "SSW loss dB",
        ],
        &rows,
    ))
}

fn cmd_sls(opts: &HashMap<String, String>) -> Result<(), String> {
    print_line(run_sls_session(opts, seed_of(opts)?)?)
}

/// Runs one full training session (the trace root `css.session`: probe
/// sweep → estimate → sector select → override sweep) and returns the
/// one-line result summary.
fn run_sls_session(opts: &HashMap<String, String>, seed: u64) -> Result<String, String> {
    // While tracing, the whole session forms one rooted span tree: every
    // sls.run / wil.sweep / css.estimate below nests under this span.
    let mut session = obs::sink_active().then(|| obs::span!("css.session"));
    let yaw = yaw_of(opts)?;
    let probes = match opts.get("probes") {
        Some(spec) => probe_counts(spec)?[0],
        None => 14,
    };
    let scenario = scenario_of(opts, seed)?;
    // Stamp decision records with the reconstruction context so `talon
    // replay` can rebuild this scenario's pattern database from the
    // trace alone.
    if obs::sink_active() {
        let fidelity = if opts.contains_key("paper") {
            "paper"
        } else {
            "fast"
        };
        obs::decision::set_context(&format!(
            "scenario={},fidelity={fidelity},seed={seed}",
            scenario.name
        ));
    }
    let mut dut = scenario.dut.clone();
    dut.orientation = Orientation::new(yaw, 0.0);
    let runner = SlsRunner::new(&scenario.link, &dut, &scenario.fixed);
    let rxw = scenario.fixed.codebook.rx_sector().weights.clone();
    let mut rng = sub_rng(seed, "cli-sls");
    let outcome = match opts.get("policy").map(String::as_str) {
        Some("ssw") | None => runner.run(&mut rng, &mut MaxSnrPolicy, &mut MaxSnrPolicy),
        Some("css") => {
            // The paper's deployment (§3): the peer's patched firmware
            // exports the sweep measurements, a user-space agent computes
            // the compressive selection and arms the WMI override, and
            // the next training carries it on the air.
            use std::sync::Arc;
            use wil6210::{Qca9500Firmware, Wil6210Driver, WmiCommand};
            struct ProbeOnly<'a>(&'a mut CompressiveSelection);
            impl FeedbackPolicy for ProbeOnly<'_> {
                fn probe_sectors(
                    &mut self,
                    full: &[talon_array::SectorId],
                ) -> Vec<talon_array::SectorId> {
                    self.0.probe_sectors(full)
                }
                fn select(
                    &mut self,
                    readings: &[talon_channel::SweepReading],
                ) -> Option<talon_array::SectorId> {
                    MaxSnrPolicy.select(readings)
                }
            }
            // The peer: patched firmware handles the frames (export +
            // override), while its user-space agent restricts the sweep to
            // the compressive probe subset — both devices send M frames,
            // which is where the 2.3× training speedup comes from.
            struct FirmwareCss<'a> {
                fw: &'a Qca9500Firmware,
                agent: &'a mut CompressiveSelection,
            }
            impl FeedbackPolicy for FirmwareCss<'_> {
                fn probe_sectors(
                    &mut self,
                    full: &[talon_array::SectorId],
                ) -> Vec<talon_array::SectorId> {
                    self.agent.probe_sectors(full)
                }
                fn select(
                    &mut self,
                    readings: &[talon_channel::SweepReading],
                ) -> Option<talon_array::SectorId> {
                    (&mut &*self.fw).select(readings)
                }
            }
            let mut dut_side = CompressiveSelection::new(
                scenario.patterns.clone(),
                CssConfig {
                    num_probes: probes,
                    ..CssConfig::paper_default()
                },
                seed,
            );
            let firmware = Arc::new(Qca9500Firmware::patched());
            let driver = Wil6210Driver::new(Arc::clone(&firmware));
            let mut agent = CompressiveSelection::new(
                scenario.patterns.clone(),
                CssConfig {
                    num_probes: probes,
                    ..CssConfig::paper_default()
                },
                seed + 1,
            );
            // Sweep 1: the firmware's export patch fills the ring buffer.
            let _ = runner.run(
                &mut rng,
                &mut ProbeOnly(&mut dut_side),
                &mut FirmwareCss {
                    fw: &firmware,
                    agent: &mut agent,
                },
            );
            // User space drains the export and computes CSS.
            let readings: Vec<talon_channel::SweepReading> = driver
                .read_sweep_info()
                .into_iter()
                .map(|e| talon_channel::SweepReading {
                    sector: e.sector,
                    measurement: Some(talon_channel::Measurement {
                        snr_db: e.snr_db,
                        rssi_dbm: e.rssi_dbm,
                    }),
                })
                .collect();
            // While tracing, hand the agent an exhaustive-sweep oracle so
            // its decision record carries the true-best sector and the
            // SNR loss of this selection (simulator ground truth only —
            // it perturbs nothing).
            if obs::sink_active() {
                agent.provide_oracle(DecisionOracle {
                    snr_by_sector: dut
                        .codebook
                        .sweep_order()
                        .into_iter()
                        .map(|s| (s, scenario.link.true_snr_db(&dut, s, &scenario.fixed, &rxw)))
                        .collect(),
                });
            }
            if let Some(choice) = agent.select_from_readings(&readings) {
                driver
                    .wmi(&WmiCommand::SetSectorOverride(choice))
                    .map_err(|e| format!("arming override: {e:?}"))?;
            }
            // Sweep 2: the armed override rides the feedback field.
            runner.run(
                &mut rng,
                &mut ProbeOnly(&mut dut_side),
                &mut FirmwareCss {
                    fw: &firmware,
                    agent: &mut agent,
                },
            )
        }
        Some(other) => return Err(format!("unknown policy `{other}`")),
    };
    let snr = outcome
        .initiator_tx_sector
        .map(|s| scenario.link.true_snr_db(&dut, s, &scenario.fixed, &rxw));
    if let Some(session) = &mut session {
        session.field("seed", seed as f64);
        session.field(
            "selected_sector",
            outcome
                .initiator_tx_sector
                .map_or(-1.0, |s| f64::from(s.raw())),
        );
        session.field("probes", outcome.iss_readings.len() as f64);
        if let Some(snr) = snr {
            session.field("true_snr_db", snr);
        }
    }
    Ok(format!(
        "selected sector {:?} in {:.3} ms ({} probes); true SNR {:.1} dB",
        outcome.initiator_tx_sector.map(|s| s.raw()),
        outcome.duration.as_ms(),
        outcome.iss_readings.len(),
        snr.unwrap_or(f64::NAN),
    ))
}

fn cmd_report(positional: &[String], opts: &HashMap<String, String>) -> Result<(), String> {
    let path = positional
        .first()
        .ok_or("report needs a trace file: talon report <trace.bin>")?;
    let trace = obs::open_trace(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))?;
    if trace.skipped > 0 {
        eprintln!(
            "warning: skipped {} malformed record(s) in {path}",
            trace.skipped
        );
    }
    let top_k = top_of(opts)?;
    write_stdout(|out| write_report(out, path, &trace, opts, top_k))
}

/// Runs `write` against one locked, buffered stdout. A reader that closes
/// the pipe early (`talon report t.bin | head`, `| grep -q`) wanted no
/// more output, so a broken pipe ends the command cleanly instead of
/// panicking in `println!`. Every command prints through here.
fn write_stdout(
    write: impl FnOnce(&mut dyn std::io::Write) -> std::io::Result<()>,
) -> Result<(), String> {
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    match write(&mut out).and_then(|()| std::io::Write::flush(&mut out)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("writing to stdout: {e}")),
    }
}

/// [`write_stdout`] for one line.
fn print_line(line: impl std::fmt::Display) -> Result<(), String> {
    write_stdout(|out| writeln!(out, "{line}"))
}

/// Renders the `report` view `opts` selects for `trace` to `out`.
fn write_report(
    out: &mut dyn std::io::Write,
    path: &str,
    trace: &obs::Trace,
    opts: &HashMap<String, String>,
    top_k: usize,
) -> std::io::Result<()> {
    // `--json`: one machine-readable object carrying everything the
    // human renderings show (stage stats, counters, anomaly tallies,
    // per-session quality, skipped-line count).
    if opts.contains_key("json") {
        writeln!(out, "{}", report_json(trace).to_json())?;
        return Ok(());
    }

    // `--quality`: the per-session link-quality table and drift epochs.
    if opts.contains_key("quality") {
        print_quality(out, trace)?;
        return Ok(());
    }

    // `--flame`: folded-stack lines only (pipe into inferno-flamegraph /
    // flamegraph.pl), nothing else on stdout.
    if opts.contains_key("flame") {
        for (stack, self_us) in obs::tree::folded_stacks(&trace.events) {
            writeln!(out, "{stack} {self_us}")?;
        }
        return Ok(());
    }

    // `--critical-path`: the top-k longest self-time chains across the
    // traced trees, with per-hop p50/p95 — "which spans actually bounded
    // the wall time", not just where time pooled.
    if opts.contains_key("critical-path") {
        let summaries = obs::tree::critical_paths(&trace.events, top_k);
        if summaries.is_empty() {
            writeln!(out, "no traced spans in {path}")?;
            return Ok(());
        }
        for (rank, s) in summaries.iter().enumerate() {
            writeln!(
                out,
                "#{} {} — {} trace(s), {} us total",
                rank + 1,
                s.path.join(" -> "),
                s.traces,
                s.total_us
            )?;
            let rows: Vec<Vec<String>> = s
                .hops
                .iter()
                .map(|h| {
                    vec![
                        h.stage.clone(),
                        h.p50_us.to_string(),
                        h.p95_us.to_string(),
                        h.total_us.to_string(),
                        format!(
                            "{:.1}",
                            100.0 * h.total_us as f64 / s.total_us.max(1) as f64
                        ),
                    ]
                })
                .collect();
            writeln!(
                out,
                "{}",
                eval::ascii::table(&["hop", "p50 µs", "p95 µs", "total µs", "% of path"], &rows)
            )?;
        }
        return Ok(());
    }

    // `--tree`: the causal span trees plus the per-session health summary.
    if opts.contains_key("tree") {
        let trees = obs::tree::build_trees(&trace.events);
        if trees.is_empty() {
            writeln!(out, "no traced spans in {path}")?;
        } else {
            write!(out, "{}", obs::tree::render_trees(&trees))?;
        }
        print_health_summary(out, trace)?;
        return Ok(());
    }

    // Per-stage span statistics from the event stream.
    let mut stages: Vec<String> = trace.stages();
    stages.sort();
    let mut rows = Vec::new();
    for stage in &stages {
        let mut durs: Vec<u64> = trace
            .stage(stage)
            .iter()
            .filter(|e| e.kind == "span")
            .map(|e| e.dur_us)
            .collect();
        if durs.is_empty() {
            continue;
        }
        durs.sort_unstable();
        let count = durs.len();
        let mean = durs.iter().sum::<u64>() as f64 / count as f64;
        let p95 = durs[((count - 1) as f64 * 0.95).round() as usize];
        let max = *durs.last().expect("non-empty");
        rows.push(vec![
            stage.clone(),
            count.to_string(),
            format!("{mean:.1}"),
            p95.to_string(),
            max.to_string(),
        ]);
    }
    if rows.is_empty() {
        writeln!(out, "no span events in {path}")?;
    } else {
        writeln!(
            out,
            "{}",
            eval::ascii::table(&["stage", "spans", "mean µs", "p95 µs", "max µs"], &rows)
        )?;
    }

    // Duration quantiles and counters from the final registry snapshot.
    if let Some(snapshot) = &trace.snapshot {
        let rows: Vec<Vec<String>> = snapshot
            .histograms
            .iter()
            .filter(|(name, h)| name.ends_with(".dur_us") && h.count > 0)
            .map(|(name, h)| {
                vec![
                    name.trim_end_matches(".dur_us").to_string(),
                    h.count.to_string(),
                    format!("{:.1}", h.mean()),
                    h.p50().to_string(),
                    h.p95().to_string(),
                    h.p99().to_string(),
                    h.max.to_string(),
                ]
            })
            .collect();
        if !rows.is_empty() {
            writeln!(
                out,
                "{}",
                eval::ascii::table(
                    &["histogram", "count", "mean µs", "p50", "p95", "p99", "max"],
                    &rows
                )
            )?;
        }
        if !snapshot.counters.is_empty() {
            let rows: Vec<Vec<String>> = snapshot
                .counters
                .iter()
                .map(|(name, value)| vec![name.clone(), value.to_string()])
                .collect();
            writeln!(out, "{}", eval::ascii::table(&["counter", "value"], &rows))?;
        }
    } else {
        writeln!(out, "(no registry snapshot line in trace)")?;
    }
    print_health_summary(out, trace)?;
    if trace.skipped > 0 {
        writeln!(out, "skipped {} malformed line(s)", trace.skipped)?;
    }
    Ok(())
}

/// Prints the per-session quality table (decision records grouped by
/// session) and the drift epochs the online monitor flagged.
fn print_quality(out: &mut dyn std::io::Write, trace: &obs::Trace) -> std::io::Result<()> {
    let sessions = obs::monitor::quality_from_trace(trace);
    if sessions.is_empty() {
        writeln!(
            out,
            "no decision records in trace (record with --trace while training)"
        )?;
    } else {
        let rows: Vec<Vec<String>> = sessions
            .iter()
            .map(|s| {
                vec![
                    if s.trace_id == 0 {
                        "(untraced)".to_string()
                    } else {
                        s.trace_id.to_string()
                    },
                    s.decisions.to_string(),
                    s.with_oracle.to_string(),
                    s.misselections.to_string(),
                    format!("{:.3}", s.misselection_rate),
                    format!("{:.2}", s.median_snr_loss_db),
                    format!("{:.2}", s.p95_snr_loss_db),
                ]
            })
            .collect();
        writeln!(
            out,
            "{}",
            eval::ascii::table(
                &[
                    "session",
                    "decisions",
                    "oracle",
                    "missel",
                    "rate",
                    "med loss dB",
                    "p95 loss dB",
                ],
                &rows
            )
        )?;
    }
    let epochs = obs::monitor::drift_epochs_from_trace(&trace.events);
    if epochs.is_empty() {
        writeln!(out, "drift epochs: none")?;
    } else {
        let list: Vec<String> = epochs.iter().map(|t| format!("{t:.2}s")).collect();
        writeln!(out, "drift epochs: {}", list.join(", "))?;
    }
    Ok(())
}

/// Builds the `report --json` object: everything the human renderings
/// show, as one machine-readable value.
fn report_json(trace: &obs::Trace) -> Value {
    let mut stages: Vec<String> = trace.stages();
    stages.sort();
    let stage_stats: Vec<Value> = stages
        .iter()
        .filter_map(|stage| {
            let mut durs: Vec<u64> = trace
                .stage(stage)
                .iter()
                .filter(|e| e.kind == "span")
                .map(|e| e.dur_us)
                .collect();
            if durs.is_empty() {
                return None;
            }
            durs.sort_unstable();
            let count = durs.len();
            let mean = durs.iter().sum::<u64>() as f64 / count as f64;
            let p95 = durs[((count - 1) as f64 * 0.95).round() as usize];
            Some(Value::Map(vec![
                ("stage".into(), Value::Str(stage.clone())),
                ("spans".into(), Value::U64(count as u64)),
                ("mean_us".into(), Value::F64(mean)),
                ("p50_us".into(), Value::U64(durs[(count - 1) / 2])),
                ("p95_us".into(), Value::U64(p95)),
                (
                    "max_us".into(),
                    Value::U64(*durs.last().expect("non-empty")),
                ),
            ]))
        })
        .collect();
    let anomalies: Vec<Value> = obs::tree::health_by_trace(&trace.events)
        .iter()
        .flat_map(|(trace_id, kinds)| {
            let trace_id = *trace_id;
            kinds.iter().map(move |(kind, count)| {
                Value::Map(vec![
                    ("trace_id".into(), Value::U64(trace_id)),
                    ("kind".into(), Value::Str(kind.clone())),
                    ("count".into(), Value::U64(*count)),
                ])
            })
        })
        .collect();
    let quality: Vec<Value> = obs::monitor::quality_from_trace(trace)
        .iter()
        .map(obs::monitor::SessionQuality::to_value)
        .collect();
    let drift_epochs: Vec<Value> = obs::monitor::drift_epochs_from_trace(&trace.events)
        .iter()
        .map(|&t| Value::F64(t))
        .collect();
    // Distribution of kernel arithmetic paths across the trace's decision
    // records (pre-schema-3 records decode as "f64", so every decision
    // lands in exactly one bucket).
    let mut kernel_paths: std::collections::BTreeMap<String, u64> =
        std::collections::BTreeMap::new();
    for d in &trace.decisions {
        *kernel_paths.entry(d.kernel_path.clone()).or_insert(0) += 1;
    }
    let kernel_paths = Value::Map(
        kernel_paths
            .into_iter()
            .map(|(k, v)| (k, Value::U64(v)))
            .collect(),
    );
    let counters = match &trace.snapshot {
        Some(snapshot) => Value::Map(
            snapshot
                .counters
                .iter()
                .map(|(name, value)| (name.clone(), Value::U64(*value)))
                .collect(),
        ),
        None => Value::Null,
    };
    let histograms = match &trace.snapshot {
        Some(snapshot) => Value::Seq(
            snapshot
                .histograms
                .iter()
                .filter(|(_, h)| h.count > 0)
                .map(|(name, h)| {
                    Value::Map(vec![
                        ("name".into(), Value::Str(name.clone())),
                        ("count".into(), Value::U64(h.count)),
                        ("mean".into(), Value::F64(h.mean())),
                        ("p50".into(), Value::U64(h.p50())),
                        ("p95".into(), Value::U64(h.p95())),
                        ("p99".into(), Value::U64(h.p99())),
                        ("max".into(), Value::U64(h.max)),
                    ])
                })
                .collect(),
        ),
        None => Value::Null,
    };
    Value::Map(vec![
        (
            "schema_version".into(),
            Value::U64(obs::decision::SCHEMA_VERSION),
        ),
        ("events".into(), Value::U64(trace.events.len() as u64)),
        ("decisions".into(), Value::U64(trace.decisions.len() as u64)),
        ("kernel_paths".into(), kernel_paths),
        ("skipped_lines".into(), Value::U64(trace.skipped as u64)),
        ("stages".into(), Value::Seq(stage_stats)),
        ("counters".into(), counters),
        ("histograms".into(), histograms),
        ("anomalies".into(), Value::Seq(anomalies)),
        ("quality".into(), Value::Seq(quality)),
        ("drift_epochs".into(), Value::Seq(drift_epochs)),
    ])
}

/// `talon replay <trace.bin>`: re-executes every replayable decision in
/// the trace and fails unless all of them reproduce bit-exactly.
fn cmd_replay(positional: &[String], opts: &HashMap<String, String>) -> Result<(), String> {
    let path = positional
        .first()
        .ok_or("replay needs a trace file: talon replay <trace.bin>")?;
    let mut config = eval::replay::ReplayConfig::default();
    if let Some(threads) = threads_of(opts)? {
        config.threads = threads;
    }
    if let Some(perturb) = perturb_of(opts)? {
        config.perturb_snr_db = perturb;
    }
    if let Some(pat) = opts.get("patterns") {
        let patterns = SectorPatterns::load(Path::new(pat))
            .map_err(|e| format!("reading {pat}: {e}"))?
            .map_err(|e| format!("parsing {pat}: {e}"))?;
        config.patterns_override = Some(patterns);
    }
    let (report, skipped) = eval::replay::replay_file(Path::new(path), &config)
        .map_err(|e| format!("reading {path}: {e}"))?;
    if skipped > 0 {
        eprintln!("warning: skipped {skipped} malformed record(s) in {path}");
    }
    if report.total_decisions == 0 {
        return Err(no_decisions(path));
    }
    if report.is_clean() && report.replayed == 0 {
        return Err(nothing_replayable(path, &report));
    }
    write_stdout(|out| {
        if opts.contains_key("json") {
            return writeln!(out, "{}", Serialize::serialize(&report).to_json());
        }
        writeln!(out, "{}", report.summary())?;
        const SHOWN: usize = 20;
        for d in report.divergent.iter().take(SHOWN) {
            writeln!(
                out,
                "  decision {} (session {}): {} recorded {} recomputed {}",
                d.index, d.trace_id, d.field, d.expected, d.actual
            )?;
        }
        if report.divergent.len() > SHOWN {
            writeln!(out, "  … and {} more", report.divergent.len() - SHOWN)?;
        }
        if !report.is_clean() {
            Ok(())
        } else if report.skipped_non_replayable > 0 {
            writeln!(
                out,
                "replay OK: {} decision(s) reproduced bit-exactly, {} skipped as non-replayable",
                report.replayed, report.skipped_non_replayable
            )
        } else {
            writeln!(out, "replay OK: every decision reproduced bit-exactly")
        }
    })?;
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "replay diverged: {} divergence(s), {} digest mismatch(es), {} decision(s) without patterns",
            report.divergent.len(),
            report.digest_mismatches,
            report.skipped_no_patterns,
        ))
    }
}

/// The error of a replay or profile over a trace with no decision record.
fn no_decisions(path: &str) -> String {
    format!(
        "no decision records in {path}; record one with e.g. \
         `talon sls --policy css --trace {path}`"
    )
}

/// The error of a replay or profile that re-executed no decision: a
/// pass over nothing verifies nothing (an SSW trace's records are all
/// non-replayable).
fn nothing_replayable(path: &str, report: &eval::replay::ReplayReport) -> String {
    format!(
        "no decision in {path} is replayable ({}); record a CSS session, e.g. \
         `talon sls --policy css --trace <file>`",
        report.summary()
    )
}

/// `talon profile <trace.bin>`: where the trace's decisions spend their
/// time. The decisions are replayed under a memory sink, each pass's span
/// events are folded with `obs::tree::folded_stacks` and summed, and the
/// stacks go to stdout as `path;to;span self_us` lines — the format
/// `talon report --flame` prints, ready for inferno-flamegraph /
/// flamegraph.pl.
fn cmd_profile(positional: &[String], opts: &HashMap<String, String>) -> Result<(), String> {
    let path = positional
        .first()
        .ok_or("profile needs a trace file: talon profile <trace.bin>")?;
    let trace = obs::open_trace(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))?;
    if trace.decisions.is_empty() {
        return Err(no_decisions(path));
    }
    let mut config = eval::replay::ReplayConfig::default();
    if let Some(threads) = threads_of(opts)? {
        config.threads = threads;
    }
    // Gated call sites only open their spans while a sink records. A
    // memory sink flips that gate and is drained after every pass.
    let mem = std::sync::Arc::new(obs::MemorySink::new());
    obs::set_sink(mem.clone());
    // One session serves every pass, so the pattern databases are rebuilt
    // once and the passes time decisions, not set-up. Passes repeat for
    // ~250 ms of wall time so a short trace still sums to a stable profile.
    let mut session = eval::replay::ReplaySession::new(config);
    let mut self_us: std::collections::BTreeMap<String, u64> = Default::default();
    let started = std::time::Instant::now();
    let mut passes = 0usize;
    loop {
        session.replay_chunk(&trace.decisions);
        for (stack, us) in obs::tree::folded_stacks(&mem.take()) {
            *self_us.entry(stack).or_insert(0) += us;
        }
        passes += 1;
        if session.report().replayed == 0
            || started.elapsed() >= std::time::Duration::from_millis(250)
        {
            break;
        }
    }
    obs::clear_sink();
    if session.report().replayed == 0 {
        return Err(nothing_replayable(path, session.report()));
    }
    eprintln!(
        "profiled {passes} replay pass(es) of {} decision(s); self time in µs",
        trace.decisions.len()
    );
    write_stdout(|out| {
        for (stack, us) in &self_us {
            writeln!(out, "{stack} {us}")?;
        }
        Ok(())
    })
}

fn cmd_trace(positional: &[String]) -> Result<(), String> {
    const TRACE_USAGE: &str = "usage: talon trace convert <in.bin> <out.jsonl>  \
         (exports a binary trace as JSON Lines)";
    match positional {
        [cmd, input, output] if cmd == "convert" => convert_trace(input, output),
        _ => Err(TRACE_USAGE.into()),
    }
}

/// Exports a binary trace as JSON Lines, one [`obs::sink::record_line`]
/// per record, streaming in bounded memory. Damaged input frames are
/// skipped and counted, same as every other reader in the workspace.
/// The export is one-way: talon reads binary traces only.
fn convert_trace(input: &str, output: &str) -> Result<(), String> {
    use obs::TraceRecord;
    use std::io::Write;
    if input == output {
        return Err("refusing to convert a trace onto itself".into());
    }
    let mut reader = obs::binfmt::FileBinReader::open(Path::new(input))
        .map_err(|e| format!("reading {input}: {e}"))?;
    let file = std::fs::File::create(output).map_err(|e| format!("creating {output}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    let (mut events, mut decisions, mut snapshots) = (0u64, 0u64, 0u64);
    let ts = obs::now_us();
    while let Some(record) = reader.next_record()? {
        match record {
            TraceRecord::Event(_) => events += 1,
            TraceRecord::Decision(_) => decisions += 1,
            TraceRecord::Snapshot(_) => snapshots += 1,
        }
        let line = obs::sink::record_line(&record, ts).to_json();
        writeln!(out, "{line}").map_err(|e| format!("writing {output}: {e}"))?;
    }
    out.flush().map_err(|e| format!("writing {output}: {e}"))?;
    if reader.skipped() > 0 {
        eprintln!(
            "warning: skipped {} damaged record(s) in {input}",
            reader.skipped()
        );
    }
    let size = |p: &str| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let (in_bytes, out_bytes) = (size(input), size(output));
    print_line(format_args!(
        "converted {input} → {output}: {} record(s) ({events} event(s), {decisions} \
         decision(s), {snapshots} snapshot(s)); {in_bytes} → {out_bytes} bytes \
         (JSONL {:.2}× larger)",
        events + decisions + snapshots,
        out_bytes as f64 / in_bytes.max(1) as f64,
    ))
}

/// Prints per-session (per-trace) link-health anomaly counts, when any
/// anomaly events are in the trace.
fn print_health_summary(out: &mut dyn std::io::Write, trace: &obs::Trace) -> std::io::Result<()> {
    let health = obs::tree::health_by_trace(&trace.events);
    if health.is_empty() {
        return Ok(());
    }
    let rows: Vec<Vec<String>> = health
        .iter()
        .flat_map(|(trace_id, kinds)| {
            kinds.iter().map(move |(kind, count)| {
                vec![
                    if *trace_id == 0 {
                        "(untraced)".to_string()
                    } else {
                        trace_id.to_string()
                    },
                    kind.clone(),
                    count.to_string(),
                ]
            })
        })
        .collect();
    writeln!(
        out,
        "{}",
        eval::ascii::table(&["session", "anomaly", "count"], &rows)
    )
}

fn cmd_brd(opts: &HashMap<String, String>) -> Result<(), String> {
    if let Some(path) = opts.get("check") {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        let cb = talon_array::brd::from_brd(&bytes).map_err(|e| format!("parsing {path}: {e}"))?;
        return print_line(format_args!(
            "{path}: valid board file, {} sectors ({} transmit)",
            cb.sectors().len(),
            cb.num_tx_sectors()
        ));
    }
    let out = opts
        .get("out")
        .ok_or("brd needs --out <file> or --check <file>")?;
    let seed = seed_of(opts)?;
    let device = Device::talon(seed);
    let bytes = talon_array::brd::to_brd(&device.codebook);
    std::fs::write(out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    print_line(format_args!(
        "wrote {} bytes ({} sectors) to {out}",
        bytes.len(),
        device.codebook.sectors().len()
    ))
}

#[cfg(test)]
mod tests {
    use super::{parse_opts, OPTIONS, USAGE};

    #[test]
    fn usage_lists_exactly_the_options_each_command_accepts() {
        for &(cmd, _, known) in OPTIONS {
            let line = USAGE
                .lines()
                .find(|l| l.split_whitespace().next() == Some(cmd))
                .unwrap_or_else(|| panic!("no USAGE line for {cmd}"));
            let mut listed: Vec<&str> = line
                .split(|c: char| c.is_whitespace() || "[]|".contains(c))
                .filter_map(|w| w.strip_prefix("--"))
                .collect();
            listed.sort_unstable();
            listed.dedup();
            let mut known: Vec<&str> = known.split_whitespace().collect();
            known.sort_unstable();
            assert_eq!(listed, known, "USAGE line for {cmd}: {line}");
        }
    }

    fn parse(args: &[&str]) -> (std::collections::HashMap<String, String>, Vec<String>) {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_opts(&owned)
    }

    fn opts(args: &[&str]) -> std::collections::HashMap<String, String> {
        parse(args).0
    }

    #[test]
    fn bare_flag_maps_to_true() {
        let o = opts(&["--paper"]);
        assert_eq!(o.get("paper").map(String::as_str), Some("true"));
    }

    #[test]
    fn flag_with_value_consumes_it() {
        let o = opts(&["--seed", "7", "--out", "x.txt"]);
        assert_eq!(o.get("seed").map(String::as_str), Some("7"));
        assert_eq!(o.get("out").map(String::as_str), Some("x.txt"));
    }

    #[test]
    fn flag_followed_by_flag_stays_bare() {
        let o = opts(&["--paper", "--seed", "9"]);
        assert_eq!(o.get("paper").map(String::as_str), Some("true"));
        assert_eq!(o.get("seed").map(String::as_str), Some("9"));
    }

    #[test]
    fn literal_true_value_is_consumed_not_reparsed() {
        // `--verbose true --seed 3`: "true" is the value of --verbose and
        // must not be skipped over in a way that desyncs later options
        // (the old parser double-checked the next token and could step
        // by the wrong amount).
        let o = opts(&["--verbose", "true", "--seed", "3"]);
        assert_eq!(o.get("verbose").map(String::as_str), Some("true"));
        assert_eq!(o.get("seed").map(String::as_str), Some("3"));
        assert_eq!(o.len(), 2);
    }

    #[test]
    fn positional_arguments_are_skipped() {
        let (o, positional) = parse(&["trace.bin", "--seed", "4"]);
        assert_eq!(o.get("seed").map(String::as_str), Some("4"));
        assert_eq!(o.len(), 1);
        assert_eq!(positional, ["trace.bin"]);
        // `replay --threads 2 t.bin`: "2" is the value of --threads, and
        // the trace path is the only positional argument.
        let (o, positional) = parse(&["--threads", "2", "t.bin"]);
        assert_eq!(o.get("threads").map(String::as_str), Some("2"));
        assert_eq!(positional, ["t.bin"]);
    }

    #[test]
    fn switches_never_consume_the_next_argument() {
        let (o, positional) = parse(&["--json", "t.bin", "--top", "3", "--critical-path"]);
        assert_eq!(o.get("json").map(String::as_str), Some("true"));
        assert_eq!(o.get("top").map(String::as_str), Some("3"));
        assert_eq!(o.get("critical-path").map(String::as_str), Some("true"));
        assert_eq!(positional, ["t.bin"]);
    }

    #[test]
    fn trailing_bare_flag() {
        let o = opts(&["--out", "f.txt", "--paper"]);
        assert_eq!(o.get("paper").map(String::as_str), Some("true"));
        assert_eq!(o.get("out").map(String::as_str), Some("f.txt"));
    }
}
