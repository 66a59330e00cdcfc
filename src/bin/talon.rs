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
//! talon serve     [--metrics-addr HOST:PORT] [--sessions N] [--hold-ms MS] [--tick-ms MS] [--ticks N] [--inject-drift] [--links N] [--flight-dir DIR]
//! talon top       --addr HOST:PORT [--frames N] [--interval-ms MS] [--window TICKS] [--by-link]
//! talon trace     convert <in.bin> <out.jsonl>
//! talon soak      [--smoke] [--out BENCH_trace.json] [--check <baseline>]
//! ```
//!
//! `record`, `analyze`, `sls` and `serve` accept `--trace <file>` to stream
//! obs events in the CRC-framed binary trace format and append a final
//! registry snapshot. `report` renders such a trace as summary tables, a
//! causal span tree (`--tree`), folded flamegraph stacks (`--flame`), a
//! per-session link-quality table (`--quality`), or one machine-readable
//! JSON object (`--json`); `replay` re-executes the trace's recorded
//! decisions and exits non-zero unless every one reproduces bit-exactly;
//! `trace convert` exports a trace as JSON Lines (one-way); `soak`
//! runs the record → account → replay trace soak and emits/gates
//! `BENCH_trace.json`; `serve` exposes the registry as Prometheus text on
//! a TCP endpoint while running training sessions, plus the live-monitor
//! routes `/healthz`, `/alerts` and `/timeseries` backed by a tick-driven
//! sampler and alert engine (`--inject-drift` runs the deterministic
//! link-degradation drill); `top` renders a live terminal dashboard from a
//! serving endpoint's `/timeseries` and `/alerts`.

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
    // `--trace <file>`: stream obs events to a binary trace file while the
    // command runs, and append a registry snapshot at the end.
    let trace_sink: Option<std::sync::Arc<dyn obs::EventSink>> = match opts.get("trace") {
        // `report`, `replay`, `trace`, `soak`, and `profile` read (or
        // manage) existing trace files; never open a sink (which truncates
        // the file) on what is these commands' input.
        Some(_)
            if cmd == "report"
                || cmd == "replay"
                || cmd == "trace"
                || cmd == "soak"
                || cmd == "profile" =>
        {
            None
        }
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
        "soak" => cmd_soak(&opts),
        "serve" => cmd_serve(&opts),
        "top" => cmd_top(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
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
  record    --scenario lab|conference --out <file> [--seed N] [--paper] [--trace <file>]
  analyze   --dataset <file> --patterns <file> [--probes 14,20] [--seed N] [--trace <file>]
  sls       --scenario lab|conference --policy ssw|css [--probes 14] [--yaw DEG] [--seed N] [--trace <file>]
  brd       --out <file> [--seed N]  |  --check <file>
  report    <trace.bin> [--tree | --flame | --critical-path [--top K] | --quality | --json]
  replay    <trace.bin> [--threads N] [--perturb DB] [--patterns <file>]
  profile   <trace.bin> [--hz N] [--threads N] [--repeat N]  |  --attach HOST:PORT [--seconds N]
  trace     convert <in.bin> <out.jsonl>   (one-way JSON Lines export)
  soak      [--decisions N] [--smoke] [--threads 1,2,8] [--keep <trace.bin>] [--out <bench.json>] [--check <baseline.json>] [--seed N]
  serve     [--metrics-addr HOST:PORT] [--sessions N] [--hold-ms MS] [--tick-ms MS] [--ticks N] [--inject-drift] [--links N] [--flight-dir DIR] [--profile-hz N] [--profile-out <file>] [--seed N]
  top       --addr HOST:PORT [--frames N] [--interval-ms MS] [--window TICKS] [--by-link]";

/// Options that never take a value: `--json t.bin` is a switch followed
/// by a positional trace path, not `json = "t.bin"`.
const SWITCHES: &[&str] = &[
    "json",
    "tree",
    "flame",
    "quality",
    "critical-path",
    "paper",
    "smoke",
    "inject-drift",
    "by-link",
];

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

fn seed_of(opts: &HashMap<String, String>) -> u64 {
    opts.get("seed").and_then(|s| s.parse().ok()).unwrap_or(42)
}

fn cmd_campaign(opts: &HashMap<String, String>) -> Result<(), String> {
    let out = opts.get("out").ok_or("campaign needs --out <file>")?;
    let seed = seed_of(opts);
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
    let seed = seed_of(opts);
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
    let seed = seed_of(opts);
    let data = eval::dataset_io::load(Path::new(dataset_path))
        .map_err(|e| format!("reading {dataset_path}: {e}"))?
        .map_err(|e| format!("parsing {dataset_path}: {e}"))?;
    let patterns = SectorPatterns::load(Path::new(patterns_path))
        .map_err(|e| format!("reading {patterns_path}: {e}"))?
        .map_err(|e| format!("parsing {patterns_path}: {e}"))?;
    let probes: Vec<usize> = match opts.get("probes") {
        Some(spec) => spec
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .map_err(|_| format!("bad probe count `{t}`"))
            })
            .collect::<Result<_, _>>()?,
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
    println!(
        "{}",
        eval::ascii::table(
            &[
                "M",
                "CSS stability",
                "SSW stability",
                "CSS loss dB",
                "SSW loss dB"
            ],
            &rows
        )
    );
    Ok(())
}

fn cmd_sls(opts: &HashMap<String, String>) -> Result<(), String> {
    let summary = run_sls_session(opts, seed_of(opts))?;
    println!("{summary}");
    Ok(())
}

/// Runs one full training session (the trace root `css.session`: probe
/// sweep → estimate → sector select → override sweep) and returns the
/// one-line result summary.
fn run_sls_session(opts: &HashMap<String, String>, seed: u64) -> Result<String, String> {
    // While tracing, the whole session forms one rooted span tree: every
    // sls.run / wil.sweep / css.estimate below nests under this span.
    let mut session = obs::sink_active().then(|| obs::span("css.session"));
    let yaw: f64 = opts
        .get("yaw")
        .map(|s| s.parse().map_err(|_| "bad --yaw"))
        .transpose()?
        .unwrap_or(-25.0);
    let probes: usize = opts
        .get("probes")
        .map(|s| s.parse().map_err(|_| "bad --probes"))
        .transpose()?
        .unwrap_or(14);
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
        .or_else(|| opts.get("trace"))
        .ok_or("report needs a trace file: talon report <trace.bin>")?;
    let trace = obs::open_trace(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))?;
    if trace.skipped > 0 {
        eprintln!(
            "warning: skipped {} malformed record(s) in {path}",
            trace.skipped
        );
    }
    let top_k: usize = opts
        .get("top")
        .map(|k| k.parse().map_err(|_| "bad --top"))
        .transpose()?
        .unwrap_or(5);
    write_stdout(|out| write_report(out, path, &trace, opts, top_k))
}

/// Runs `write` against one locked, buffered stdout. A reader that closes
/// the pipe early (`talon report t.bin | head`, `| grep -q`) wanted no
/// more output, so a broken pipe ends the command cleanly instead of
/// panicking in `println!`.
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
        .or_else(|| opts.get("trace"))
        .ok_or("replay needs a trace file: talon replay <trace.bin>")?;
    let trace = obs::open_trace(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))?;
    if trace.skipped > 0 {
        eprintln!(
            "warning: skipped {} malformed record(s) in {path}",
            trace.skipped
        );
    }
    if trace.decisions.is_empty() {
        return Err(format!(
            "no decision records in {path}; record one with e.g. \
             `talon sls --policy css --trace {path}`"
        ));
    }
    let mut config = eval::replay::ReplayConfig::default();
    if let Some(t) = opts.get("threads") {
        config.threads = t.parse().map_err(|_| "bad --threads")?;
    }
    if let Some(p) = opts.get("perturb") {
        config.perturb_snr_db = p.parse().map_err(|_| "bad --perturb")?;
    }
    if let Some(pat) = opts.get("patterns") {
        let patterns = SectorPatterns::load(Path::new(pat))
            .map_err(|e| format!("reading {pat}: {e}"))?
            .map_err(|e| format!("parsing {pat}: {e}"))?;
        config.patterns_override = Some(patterns);
    }
    let report = eval::replay::replay_trace(&trace, &config);
    if opts.contains_key("json") {
        println!("{}", Serialize::serialize(&report).to_json());
    } else {
        println!("{}", report.summary());
        const SHOWN: usize = 20;
        for d in report.divergent.iter().take(SHOWN) {
            println!(
                "  decision {} (session {}): {} recorded {} recomputed {}",
                d.index, d.trace_id, d.field, d.expected, d.actual
            );
        }
        if report.divergent.len() > SHOWN {
            println!("  … and {} more", report.divergent.len() - SHOWN);
        }
    }
    if report.is_clean() {
        if !opts.contains_key("json") {
            if report.skipped_non_replayable > 0 {
                println!(
                    "replay OK: {} decision(s) reproduced bit-exactly, {} skipped as non-replayable",
                    report.replayed, report.skipped_non_replayable
                );
            } else {
                println!("replay OK: every decision reproduced bit-exactly");
            }
        }
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

/// `talon profile`: folded flame stacks from the sampling profiler.
///
/// Two modes: `--attach HOST:PORT` windows a live endpoint's attached
/// profiler through `/profile?seconds=N`; a positional trace file replays
/// its decisions under a local profiler (the trace provides the workload,
/// the profiler watches the real estimator/replay code run it). Folded
/// stacks go to stdout in the exact format `talon report --flame` emits,
/// ready for inferno-flamegraph / flamegraph.pl.
fn cmd_profile(positional: &[String], opts: &HashMap<String, String>) -> Result<(), String> {
    if let Some(addr) = opts.get("attach") {
        if addr == "true" {
            return Err("--attach needs HOST:PORT".into());
        }
        let seconds: u64 = opts
            .get("seconds")
            .map(|s| s.parse().map_err(|_| "bad --seconds"))
            .transpose()?
            .unwrap_or(0);
        let body = http_get_timeout(
            addr,
            &format!("/profile?seconds={seconds}"),
            std::time::Duration::from_secs(seconds + 10),
        )?;
        print!("{body}");
        return Ok(());
    }
    let path = positional
        .first()
        .ok_or("profile needs a trace file or --attach HOST:PORT")?;
    let trace = obs::open_trace(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))?;
    if trace.decisions.is_empty() {
        return Err(format!(
            "no decision records in {path}; record one with e.g. \
             `talon sls --policy css --trace {path}`"
        ));
    }
    let hz: u64 = opts
        .get("hz")
        .map(|s| s.parse().map_err(|_| "bad --hz"))
        .transpose()?
        .unwrap_or(1000);
    let repeat: usize = opts
        .get("repeat")
        .map(|s| s.parse().map_err(|_| "bad --repeat"))
        .transpose()?
        .unwrap_or(0);
    let mut config = eval::replay::ReplayConfig::default();
    if let Some(t) = opts.get("threads") {
        config.threads = t.parse().map_err(|_| "bad --threads")?;
    }
    let profiler = obs::Profiler::start_hz(hz.max(1));
    // Gated call sites only construct their spans while a sink is
    // recording — without one the replay would publish no frames at all.
    // A memory sink (drained each pass so it never grows) flips that gate.
    let mem = std::sync::Arc::new(obs::MemorySink::new());
    obs::set_sink(mem.clone());
    // Replay provides the workload. With an explicit --repeat, run exactly
    // that many passes; otherwise repeat until the sampler had a fair
    // chance (~250 ms of wall time), so short traces still yield stacks.
    let started = std::time::Instant::now();
    let mut runs = 0usize;
    loop {
        let _ = eval::replay::replay_trace(&trace, &config);
        drop(mem.take());
        runs += 1;
        if repeat > 0 {
            if runs >= repeat {
                break;
            }
        } else if started.elapsed() >= std::time::Duration::from_millis(250) || runs >= 1000 {
            break;
        }
    }
    obs::clear_sink();
    let folded = profiler.folded_text();
    eprintln!(
        "profiled {} replay pass(es) of {} decision(s) at {} Hz: {} sample pass(es)",
        runs,
        trace.decisions.len(),
        hz.max(1),
        profiler.passes()
    );
    write_stdout(|out| out.write_all(folded.as_bytes()))
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
    println!(
        "converted {input} → {output}: {} record(s) ({events} event(s), {decisions} \
         decision(s), {snapshots} snapshot(s)); {in_bytes} → {out_bytes} bytes \
         (JSONL {:.2}× larger)",
        events + decisions + snapshots,
        out_bytes as f64 / in_bytes.max(1) as f64,
    );
    Ok(())
}

/// Keys every `BENCH_trace.json` must carry (the `--check` contract).
const SOAK_REQUIRED_KEYS: &[&str] = &[
    "decisions",
    "trace_bytes",
    "bytes_per_decision",
    "jsonl_bytes_per_decision",
    "compression_ratio",
    "record_per_s",
    "replay_inline_1t_per_s",
    "replay_1t_per_s",
    "replay_nt_per_s",
    "replay_nt_threads",
    "rss_peak_mb",
    "max_abs_err",
];

/// The ≥5× compression floor `BENCH_trace.json` is gated on.
const SOAK_MIN_COMPRESSION: f64 = 5.0;

/// Extracts a numeric value from a flat JSON object without a parser
/// (the serde shim has no `from_str`; the files are machine-written).
fn json_f64(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = text.find(&pat)?;
    let rest = text[at + pat.len()..].trim_start().strip_prefix(':')?;
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn cmd_soak(opts: &HashMap<String, String>) -> Result<(), String> {
    let smoke = opts.get("smoke").is_some();
    let decisions = match opts.get("decisions") {
        Some(d) => d.parse().map_err(|_| format!("bad --decisions {d}"))?,
        None if smoke => eval::soak::SMOKE_DECISIONS,
        None => eval::soak::FULL_DECISIONS,
    };
    let threads: Vec<usize> = match opts.get("threads") {
        Some(t) => t
            .split(',')
            .map(|p| p.trim().parse().map_err(|_| format!("bad --threads {t}")))
            .collect::<Result<_, _>>()?,
        None => vec![1, 2, 8],
    };
    if threads.is_empty() {
        return Err("soak needs at least one --threads entry".into());
    }
    let config = eval::SoakConfig {
        decisions,
        threads,
        seed: seed_of(opts),
        keep: opts.get("keep").map(std::path::PathBuf::from),
    };
    let report = eval::run_soak(&config, |line| println!("{line}"))?;

    let replay_1t = report
        .replay
        .iter()
        .find(|r| r.threads == 1)
        .or(report.replay.first())
        .expect("at least one replay pass");
    let replay_nt = report
        .replay
        .iter()
        .max_by_key(|r| r.threads)
        .expect("at least one replay pass");
    let json = format!(
        "{{\n  \"decisions\": {},\n  \
         \"trace_bytes\": {},\n  \
         \"bytes_per_decision\": {:.2},\n  \
         \"jsonl_bytes_per_decision\": {:.2},\n  \
         \"compression_ratio\": {:.2},\n  \
         \"record_per_s\": {:.0},\n  \
         \"replay_inline_1t_per_s\": {:.0},\n  \
         \"replay_1t_per_s\": {:.0},\n  \
         \"replay_nt_per_s\": {:.0},\n  \
         \"replay_nt_threads\": {},\n  \
         \"rss_peak_mb\": {:.1},\n  \
         \"max_abs_err\": {:.1},\n  \
         \"smoke\": {smoke}\n}}\n",
        report.decisions,
        report.trace_bytes,
        report.bytes_per_decision,
        report.jsonl_bytes_per_decision,
        report.compression_ratio,
        report.record_per_s,
        report.replay_inline_1t_per_s,
        replay_1t.per_s,
        replay_nt.per_s,
        replay_nt.threads,
        report.rss_peak_mb,
        report.max_abs_err,
    );
    let out = opts
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_trace.json".into());
    std::fs::write(&out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    println!("{json}");
    println!("wrote {out}");

    if let Some(baseline_path) = opts.get("check") {
        let baseline = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("--check: cannot read {baseline_path}: {e}"))?;
        let mut failures = Vec::new();
        for key in SOAK_REQUIRED_KEYS {
            if json_f64(&json, key).is_none() {
                failures.push(format!("fresh measurement is missing key {key:?}"));
            }
            if json_f64(&baseline, key).is_none() {
                failures.push(format!("baseline {baseline_path} is missing key {key:?}"));
            }
        }
        if report.compression_ratio < SOAK_MIN_COMPRESSION {
            failures.push(format!(
                "compression ratio {:.2}× is below the {SOAK_MIN_COMPRESSION}× floor",
                report.compression_ratio
            ));
        }
        // Size is deterministic for a fixed workload, so a fatter record
        // is a codec regression, not noise (unlike throughput, which is
        // host-dependent and not compared).
        if let Some(base_bpd) = json_f64(&baseline, "bytes_per_decision") {
            let limit = base_bpd * 1.15;
            if report.bytes_per_decision > limit {
                failures.push(format!(
                    "bytes/decision regressed >15%: {:.1} vs baseline {base_bpd:.1} \
                     (limit {limit:.1})",
                    report.bytes_per_decision
                ));
            }
        }
        if !failures.is_empty() {
            let mut message = String::from("BENCH_trace check FAILED:");
            for f in &failures {
                message.push_str(&format!("\n  - {f}"));
            }
            return Err(message);
        }
        println!("check against {baseline_path}: OK");
    }
    Ok(())
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

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    let addr = opts
        .get("metrics-addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:0");
    let sessions: usize = opts
        .get("sessions")
        .map(|s| s.parse().map_err(|_| "bad --sessions"))
        .transpose()?
        .unwrap_or(4);
    let hold_ms: Option<u64> = opts
        .get("hold-ms")
        .map(|s| s.parse().map_err(|_| "bad --hold-ms"))
        .transpose()?;
    let tick_ms: u64 = opts
        .get("tick-ms")
        .map(|s| s.parse().map_err(|_| "bad --tick-ms"))
        .transpose()?
        .unwrap_or(1000);
    if tick_ms == 0 {
        return Err("--tick-ms must be at least 1".into());
    }
    let max_ticks: Option<u64> = opts
        .get("ticks")
        .map(|s| s.parse().map_err(|_| "bad --ticks"))
        .transpose()?;
    let links: u64 = opts
        .get("links")
        .map(|s| s.parse().map_err(|_| "bad --links"))
        .transpose()?
        .unwrap_or(3);
    let flight_dir = opts
        .get("flight-dir")
        .map(String::as_str)
        .unwrap_or(".")
        .to_string();
    std::fs::create_dir_all(&flight_dir)
        .map_err(|e| format!("cannot create --flight-dir {flight_dir}: {e}"))?;
    // Pre-register the health counters so the exposition carries the
    // link-health series (at zero) even before the first anomaly.
    obs::health::register_known_kinds();
    let monitor = std::sync::Arc::new(obs::LiveMonitor::new(
        obs::SamplerConfig {
            tick_ms,
            ..obs::SamplerConfig::default()
        },
        obs::default_rules(),
    ));
    // Always-on flight recorder: every event/decision/snapshot lands in a
    // bounded in-memory ring, teed alongside any `--trace` sink, and
    // dumped to `<flight-dir>/flight-<rule>-<seq>.bin` when an alert
    // transitions into firing (or the process panics).
    let flight = std::sync::Arc::new(obs::FlightRecorder::new(obs::FlightConfig {
        dir: flight_dir.into(),
        ..obs::FlightConfig::default()
    }));
    let flight_sink: std::sync::Arc<dyn obs::EventSink> = flight.clone();
    match obs::current_sink() {
        Some(existing) => obs::set_sink(std::sync::Arc::new(obs::FanoutSink::new(vec![
            existing,
            flight_sink,
        ]))),
        None => obs::set_sink(flight_sink),
    }
    obs::flight::install_panic_hook(&flight);
    monitor.attach_flight(std::sync::Arc::clone(&flight));
    // `--profile-hz N`: run the sampling profiler for the life of the
    // server and expose it on `/profile`; `--profile-out <file>` also
    // writes the accumulated folded stacks at exit.
    let profiler: Option<std::sync::Arc<obs::Profiler>> = match opts.get("profile-hz") {
        Some(hz) => {
            let hz: u64 = hz.parse().map_err(|_| "bad --profile-hz")?;
            let p = std::sync::Arc::new(obs::Profiler::start_hz(hz.max(1)));
            monitor.attach_profiler(std::sync::Arc::clone(&p));
            Some(p)
        }
        None => None,
    };
    if opts.contains_key("profile-out") && profiler.is_none() {
        return Err("--profile-out needs --profile-hz".into());
    }
    // Per-link metric shards: each link's monitor writes plain-named
    // series into its own lock-local registry; the labels appear when the
    // monitor merges the shards into its sampled snapshot.
    let shards = std::sync::Arc::new(obs::ShardedRegistry::new());
    monitor.attach_shards(std::sync::Arc::clone(&shards));
    let server = obs::MetricsServer::start_with_monitor(addr, std::sync::Arc::clone(&monitor))
        .map_err(|e| format!("binding {addr}: {e}"))?;
    println!("serving metrics on http://{}/metrics", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let seed = seed_of(opts);
    for i in 0..sessions {
        let summary = run_sls_session(opts, seed + i as u64)?;
        eprintln!("session {i}: {summary}");
    }

    let result = if opts.contains_key("inject-drift") {
        run_drift_drill(&monitor, &shards, links, tick_ms, max_ticks, hold_ms)
    } else {
        // Production path: a timer thread ticks the sampler/alert engine
        // at the configured cadence while this thread holds the process
        // open.
        let _ticker = monitor.start_ticker(std::time::Duration::from_millis(tick_ms));
        let start = std::time::Instant::now();
        loop {
            std::thread::sleep(std::time::Duration::from_millis(50));
            if let Some(n) = max_ticks {
                if monitor.ticks() >= n {
                    break;
                }
            }
            if let Some(ms) = hold_ms {
                if start.elapsed() >= std::time::Duration::from_millis(ms) {
                    break;
                }
            }
        }
        Ok(())
    };
    if let (Some(profiler), Some(out)) = (&profiler, opts.get("profile-out")) {
        std::fs::write(out, profiler.folded_text())
            .map_err(|e| format!("writing --profile-out {out}: {e}"))?;
        eprintln!(
            "profile: {} sample pass(es) written to {out}",
            profiler.passes()
        );
    }
    result
}

/// The `--inject-drift` drill: drives the sampler tick-by-tick from this
/// thread (no timer races) while [`netsim::DriftProfile`]s degrade and
/// recover the links through quality monitors. The aggregate (unlabeled)
/// monitor follows the stock [`netsim::DriftProfile::demo`] step, which
/// keeps the single `/healthz` 503 episode of the original drill; each of
/// the `links` fleet links additionally runs a staggered
/// [`netsim::DriftProfile::demo_link`] profile through a shard-homed
/// monitor, so per-link labeled series and the per-link template alerts
/// fire at their own deterministic ticks. Every alert edge is printed with
/// its tick number, so two runs with the same flags produce byte-identical
/// `alert …` lines — the acceptance contract for the monitoring pipeline.
/// Wall-clock sleeps only pace the ticks (so scrapes can watch `/healthz`
/// flip); they never influence what happens at one.
fn run_drift_drill(
    monitor: &obs::LiveMonitor,
    shards: &obs::ShardedRegistry,
    links: u64,
    tick_ms: u64,
    max_ticks: Option<u64>,
    hold_ms: Option<u64>,
) -> Result<(), String> {
    use std::io::Write as _;
    let profile = netsim::DriftProfile::demo();
    let ticks = max_ticks.unwrap_or(45);
    let mut quality = obs::QualityMonitor::new();
    let mut fleet: Vec<(netsim::DriftProfile, obs::QualityMonitor)> = (0..links)
        .map(|i| {
            let shard = shards.shard(&obs::LabelSet::link(i));
            (
                netsim::DriftProfile::demo_link(i),
                obs::QualityMonitor::for_shard(&shard),
            )
        })
        .collect();
    let mut edges = 0usize;
    for tick in 0..ticks {
        quality.record_loss(tick as f64, profile.loss_at(tick));
        for (link_profile, link_quality) in fleet.iter_mut() {
            link_quality.record_loss(tick as f64, link_profile.loss_at(tick));
        }
        for t in monitor.tick() {
            edges += 1;
            println!(
                "tick {}: alert {} {}->{} (value {:.1})",
                t.tick, t.rule, t.from, t.to, t.value
            );
            std::io::stdout().flush().ok();
        }
        std::thread::sleep(std::time::Duration::from_millis(tick_ms));
    }
    println!("drift drill complete: {edges} transition(s) over {ticks} tick(s)");
    std::io::stdout().flush().ok();
    if let Some(ms) = hold_ms {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    Ok(())
}

/// Renders `values` as a unicode block sparkline, scaled to its own
/// min..max (a flat series renders as all-low blocks).
fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    values
        .iter()
        .map(|&v| {
            let frac = if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
            BLOCKS[((frac * 7.0).round() as usize).min(7)]
        })
        .collect()
}

/// One HTTP/1.1 GET over a raw TCP stream (the workspace has no HTTP
/// client); returns the response body.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    http_get_timeout(addr, path, std::time::Duration::from_secs(5))
}

/// [`http_get`] with an explicit read timeout — windowed `/profile`
/// captures legitimately hold the connection for the whole window.
fn http_get_timeout(
    addr: &str,
    path: &str,
    timeout: std::time::Duration,
) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).ok();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("sending request to {addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("reading from {addr}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let status = head.lines().next().unwrap_or_default();
    // /healthz legitimately answers 503; the dashboard still wants the
    // body. Anything else non-200 is an error worth surfacing.
    if !status.contains(" 200 ") && !status.contains(" 503 ") {
        return Err(format!("{path}: {status}"));
    }
    Ok(body.to_string())
}

/// `talon top`: a plain-ANSI live dashboard over a serving endpoint's
/// `/timeseries` overview and `/alerts`.
fn cmd_top(opts: &HashMap<String, String>) -> Result<(), String> {
    let addr = opts
        .get("addr")
        .ok_or("top needs --addr HOST:PORT (from `talon serve`)")?;
    let frames: u64 = opts
        .get("frames")
        .map(|s| s.parse().map_err(|_| "bad --frames"))
        .transpose()?
        .unwrap_or(0); // 0 = until killed
    let interval_ms: u64 = opts
        .get("interval-ms")
        .map(|s| s.parse().map_err(|_| "bad --interval-ms"))
        .transpose()?
        .unwrap_or(1000);
    let window: u64 = opts
        .get("window")
        .map(|s| s.parse().map_err(|_| "bad --window"))
        .transpose()?
        .unwrap_or(60);
    let by_link = opts.contains_key("by-link");
    // One clear line on a dead or wrong endpoint beats a raw io error (or
    // worse, an empty dashboard): name the address and what to check.
    let fetch = |path: &str| -> Result<String, String> {
        http_get(addr, path)
            .map_err(|e| format!("cannot scrape {addr} ({e}); is `talon serve` running there?"))
    };
    let mut frame = 0u64;
    loop {
        let alerts = fetch("/alerts")?;
        let screen = if by_link {
            let links = fetch(&format!("/links?window={window}"))?;
            render_top_links(addr, window, &links, &alerts)?
        } else {
            let overview = fetch(&format!("/timeseries?window={window}"))?;
            render_top(addr, window, &overview, &alerts)?
        };
        if frames != 1 {
            // Clear + home between frames; a single-frame run (tests,
            // scripts) stays pipe-friendly.
            print!("\x1b[2J\x1b[H");
        }
        println!("{screen}");
        frame += 1;
        if frames != 0 && frame >= frames {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Appends the firing-alerts block shared by both `talon top` views.
fn push_firing_block(out: &mut String, alerts: &Value) {
    let firing: Vec<String> = alerts
        .get("alerts")
        .and_then(Value::as_seq)
        .unwrap_or(&[])
        .iter()
        .filter(|a| a.get("state").and_then(Value::as_str) == Some("firing"))
        .map(|a| {
            format!(
                "{} [{}] value {:.1}",
                a.get("name").and_then(Value::as_str).unwrap_or("?"),
                a.get("severity").and_then(Value::as_str).unwrap_or("?"),
                a.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    if firing.is_empty() {
        out.push_str("alerts: none firing\n");
    } else {
        out.push_str("ALERTS FIRING:\n");
        for f in &firing {
            out.push_str(&format!("  ! {f}\n"));
        }
    }
}

/// Builds one `talon top --by-link` frame from the `/links` rollup and
/// `/alerts` JSON payloads: one row per link, worst first.
fn render_top_links(addr: &str, window: u64, links: &str, alerts: &str) -> Result<String, String> {
    let links = Value::from_json(links).map_err(|e| format!("parsing /links: {e:?}"))?;
    let alerts = Value::from_json(alerts).map_err(|e| format!("parsing /alerts: {e:?}"))?;
    let tick = links.get("tick").and_then(Value::as_u64).unwrap_or(0);
    let count = links.get("count").and_then(Value::as_u64).unwrap_or(0);
    let mut out =
        format!("talon top — {addr}  tick {tick}  window {window}  links {count} (worst first)\n");
    push_firing_block(&mut out, &alerts);
    let mut rows = Vec::new();
    for l in links.get("links").and_then(Value::as_seq).unwrap_or(&[]) {
        let firing = l
            .get("firing")
            .and_then(Value::as_seq)
            .unwrap_or(&[])
            .iter()
            .filter_map(Value::as_str)
            .collect::<Vec<_>>()
            .join(" ");
        rows.push(vec![
            l.get("link")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            l.get("snr_loss_mdb")
                .and_then(Value::as_i64)
                .map_or_else(|| "-".into(), |v| v.to_string()),
            l.get("misselection_ppm")
                .and_then(Value::as_i64)
                .map_or_else(|| "-".into(), |v| v.to_string()),
            l.get("drift_total")
                .and_then(Value::as_u64)
                .unwrap_or(0)
                .to_string(),
            l.get("drift_rate_per_tick")
                .and_then(Value::as_f64)
                .map_or_else(|| "-".into(), |r| format!("{r:.3}")),
            if firing.is_empty() {
                "-".into()
            } else {
                firing
            },
        ]);
    }
    if rows.is_empty() {
        out.push_str("no link-labeled series sampled yet\n");
    } else {
        out.push_str(&eval::ascii::table(
            &[
                "link",
                "snr loss mdB",
                "missel ppm",
                "drift",
                "drift/tick",
                "firing",
            ],
            &rows,
        ));
    }
    Ok(out)
}

/// Builds one `talon top` frame from the `/timeseries` overview and
/// `/alerts` JSON payloads.
fn render_top(addr: &str, window: u64, overview: &str, alerts: &str) -> Result<String, String> {
    let overview = Value::from_json(overview).map_err(|e| format!("parsing /timeseries: {e:?}"))?;
    let alerts = Value::from_json(alerts).map_err(|e| format!("parsing /alerts: {e:?}"))?;
    let tick = overview.get("tick").and_then(Value::as_u64).unwrap_or(0);
    let tick_ms = overview.get("tick_ms").and_then(Value::as_u64).unwrap_or(0);
    let mut out = format!("talon top — {addr}  tick {tick} ({tick_ms} ms/tick)  window {window}\n");

    push_firing_block(&mut out, &alerts);

    let spark_of = |v: &Value, key: &str| -> String {
        let values: Vec<f64> = v
            .get(key)
            .and_then(Value::as_seq)
            .unwrap_or(&[])
            .iter()
            .filter_map(Value::as_f64)
            .collect();
        sparkline(&values)
    };
    let mut rows = Vec::new();
    for c in overview
        .get("counters")
        .and_then(Value::as_seq)
        .unwrap_or(&[])
    {
        rows.push(vec![
            c.get("name")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            c.get("value")
                .and_then(Value::as_u64)
                .unwrap_or(0)
                .to_string(),
            c.get("rate_per_s")
                .and_then(Value::as_f64)
                .map_or_else(|| "-".into(), |r| format!("{r:.2}")),
            spark_of(c, "deltas"),
        ]);
    }
    if !rows.is_empty() {
        out.push_str(&eval::ascii::table(
            &["counter", "value", "rate/s", "trend"],
            &rows,
        ));
        out.push('\n');
    }

    let mut rows = Vec::new();
    for g in overview
        .get("gauges")
        .and_then(Value::as_seq)
        .unwrap_or(&[])
    {
        rows.push(vec![
            g.get("name")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            g.get("last")
                .and_then(Value::as_i64)
                .unwrap_or(0)
                .to_string(),
            g.get("min")
                .and_then(Value::as_i64)
                .unwrap_or(0)
                .to_string(),
            g.get("mean")
                .and_then(Value::as_f64)
                .map_or_else(|| "-".into(), |m| format!("{m:.1}")),
            g.get("max")
                .and_then(Value::as_i64)
                .unwrap_or(0)
                .to_string(),
            spark_of(g, "points"),
        ]);
    }
    if !rows.is_empty() {
        out.push_str(&eval::ascii::table(
            &["gauge", "last", "min", "mean", "max", "trend"],
            &rows,
        ));
        out.push('\n');
    }

    let mut rows = Vec::new();
    for h in overview
        .get("histograms")
        .and_then(Value::as_seq)
        .unwrap_or(&[])
    {
        let count = h.get("count").and_then(Value::as_u64).unwrap_or(0);
        if count == 0 {
            continue; // nothing recorded in the window — noise on screen
        }
        rows.push(vec![
            h.get("name")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            count.to_string(),
            h.get("mean")
                .and_then(Value::as_f64)
                .map_or_else(|| "-".into(), |m| format!("{m:.1}")),
            h.get("p50")
                .and_then(Value::as_u64)
                .unwrap_or(0)
                .to_string(),
            h.get("p95")
                .and_then(Value::as_u64)
                .unwrap_or(0)
                .to_string(),
            h.get("p99")
                .and_then(Value::as_u64)
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    if !rows.is_empty() {
        out.push_str(&eval::ascii::table(
            &[
                "histogram (window)",
                "count",
                "mean µs",
                "p50",
                "p95",
                "p99",
            ],
            &rows,
        ));
    }
    Ok(out)
}

fn cmd_brd(opts: &HashMap<String, String>) -> Result<(), String> {
    if let Some(path) = opts.get("check") {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        let cb = talon_array::brd::from_brd(&bytes).map_err(|e| format!("parsing {path}: {e}"))?;
        println!(
            "{path}: valid board file, {} sectors ({} transmit)",
            cb.sectors().len(),
            cb.num_tx_sectors()
        );
        return Ok(());
    }
    let out = opts
        .get("out")
        .ok_or("brd needs --out <file> or --check <file>")?;
    let seed = seed_of(opts);
    let device = Device::talon(seed);
    let bytes = talon_array::brd::to_brd(&device.codebook);
    std::fs::write(out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} bytes ({} sectors) to {out}",
        bytes.len(),
        device.codebook.sectors().len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::parse_opts;

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
