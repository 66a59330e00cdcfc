//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p bench --release --bin tables -- --exp all --fidelity paper
//! cargo run -p bench --release --bin tables -- --exp fig7 --seed 7 --csv
//! ```
//!
//! Options: `--exp` (a name from [`EXPERIMENTS`] or `all`, the default),
//! `--fidelity fast|paper` (default `fast`), `--seed N` (default 42) and
//! `--csv`. A bad option or value exits 2 with one error line. Output goes
//! to stdout; CSV series land in `results/` when `--csv` is given.

use chamber::CampaignConfig;
use css::estimator::CorrelationMode;
use eval::ascii;
use eval::estimation::estimation_error;
use eval::overhead::training_time;
use eval::patterns::{classify, measure_patterns};
use eval::scenario::{EvalScenario, Fidelity};
use eval::snr_loss::snr_loss;
use eval::stability::selection_stability;
use eval::table1::{capture_table1, timing_audit};
use eval::throughput::{throughput, DataLinkModel};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::process::ExitCode;

/// One experiment: writes its tables to `out`.
type Experiment = fn(&mut dyn Write, &Args) -> io::Result<()>;

/// Every experiment with the `--exp` names that select it, in the order
/// `--exp all` runs them.
const EXPERIMENTS: &[(&[&str], Experiment)] = &[
    (&["table1"], exp_table1),
    (&["timing"], exp_timing),
    (&["fig5"], exp_fig5),
    (&["fig6"], exp_fig6),
    (&["fig7"], exp_fig7),
    (&["fig8", "fig9"], exp_fig8_fig9),
    (&["fig10"], exp_fig10),
    (&["fig11"], exp_fig11),
    (&["ablation"], exp_ablation),
    (&["ext-dense"], exp_ext_dense),
    (&["ext-tracking"], exp_ext_tracking),
    (&["summary"], exp_summary),
];

struct Args {
    exp: String,
    fidelity: Fidelity,
    seed: u64,
    csv: bool,
}

/// Parses the command line; an error is the one line to print before
/// exiting 2.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        exp: "all".to_string(),
        fidelity: Fidelity::Fast,
        seed: 42,
        csv: false,
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--exp" => {
                args.exp = value()?;
                let valid: Vec<&str> = EXPERIMENTS
                    .iter()
                    .flat_map(|(names, _)| names.iter().copied())
                    .collect();
                if args.exp != "all" && !valid.contains(&args.exp.as_str()) {
                    return Err(format!(
                        "unknown experiment `{}`; valid: {}, all",
                        args.exp,
                        valid.join(", ")
                    ));
                }
            }
            "--fidelity" => {
                args.fidelity = match value()?.as_str() {
                    "fast" => Fidelity::Fast,
                    "paper" => Fidelity::Paper,
                    other => return Err(format!("unknown fidelity `{other}`; valid: fast, paper")),
                };
            }
            "--seed" => {
                let seed = value()?;
                args.seed = seed.parse().map_err(|_| {
                    format!(
                        "bad seed `{seed}`; valid: an integer from 0 to {}",
                        u64::MAX
                    )
                })?;
            }
            "--csv" => args.csv = true,
            other => {
                return Err(format!(
                    "unknown argument `{other}`; valid: --exp, --fidelity, --seed, --csv"
                ))
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.csv {
        std::fs::create_dir_all("results").expect("create results dir");
    }
    // One locked stdout for every table. A reader that closes the pipe
    // early (`tables | head`) wanted no more output, so a broken pipe ends
    // the run cleanly instead of panicking in `println!`.
    match run(&mut std::io::stdout().lock(), &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: writing to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(out: &mut dyn Write, args: &Args) -> io::Result<()> {
    for (names, experiment) in EXPERIMENTS {
        if args.exp == "all" || names.contains(&args.exp.as_str()) {
            experiment(out, args)?;
        }
    }
    out.flush()
}

fn exp_ext_dense(out: &mut dyn Write, args: &Args) -> io::Result<()> {
    writeln!(
        out,
        "== ext-dense: dense deployments (§7) — training airtime vs pairs =="
    )?;
    let (scenario, data) = fig11_recording(args);
    let res = eval::extensions::dense_table(&data, &scenario.patterns, 14, args.seed);
    let range = |s: &eval::extensions::PolicyShare| format!("{:.2}–{:.2}", s.min_gbps, s.max_gbps);
    let rows: Vec<Vec<String>> = res
        .rows
        .iter()
        .map(|r| {
            vec![
                r.pairs.to_string(),
                format!("{:.1}%", 100.0 * r.ssw.training_airtime),
                format!("{:.2}", r.ssw.aggregate_gbps),
                range(&r.ssw),
                format!("{:.1}%", 100.0 * r.css.training_airtime),
                format!("{:.2}", r.css.aggregate_gbps),
                range(&r.css),
                format!("{}/{}", r.css_above, res.positions),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        eval::ascii::table(
            &[
                "pairs",
                "SSW airtime",
                "SSW Gbps",
                "SSW range",
                "CSS airtime",
                "CSS Gbps",
                "CSS range",
                "CSS above SSW"
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "(tracking at {} Hz per pair; sweeps occupy the shared channel exclusively; \
         Gbps = mean over {} paired trainings at {} positions × the data share; \
         range = per-position min–max)\n",
        eval::extensions::TRACKING_HZ,
        res.trainings,
        res.positions
    )?;
    Ok(())
}

fn exp_ext_tracking(out: &mut dyn Write, args: &Args) -> io::Result<()> {
    writeln!(
        out,
        "== ext-tracking: mobility + blockage at equal training airtime (§7) =="
    )?;
    let scenario = EvalScenario::conference_room(args.fidelity, args.seed);
    let cfg = netsim::tracking::TrackingConfig::default();
    let (ssw, css) = eval::extensions::tracking_comparison(&cfg, &scenario.patterns, 14, args.seed);
    let rows: Vec<Vec<String>> = [&ssw, &css]
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                r.trainings.to_string(),
                format!("{:.0} ms", 1000.0 * r.train_interval_s),
                format!("{:.2}", r.mean_gbps),
                format!("{:.1}%", 100.0 * r.outage_fraction),
                format!("{:.2}", r.mean_rate_gap_gbps),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        eval::ascii::table(
            &[
                "policy",
                "trainings",
                "interval",
                "mean Gbps",
                "outage",
                "gap Gbps"
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "(rotation {}°/s, blockage {:.1}/s, training budget {:.1}% of airtime)\n",
        cfg.rotation_deg_per_s,
        cfg.blockage.rate_per_s,
        100.0 * cfg.training_budget
    )?;
    Ok(())
}

fn fmt_slot(s: Option<talon_array::SectorId>) -> String {
    match s {
        Some(id) => id.to_string(),
        None => "-".into(),
    }
}

fn exp_table1(out: &mut dyn Write, args: &Args) -> io::Result<()> {
    writeln!(
        out,
        "== Table 1: sector IDs per CDOWN slot (beacon / sweep bursts) =="
    )?;
    let res = capture_table1(120, args.seed);
    let cdown_row: Vec<String> = (0..=34u16).rev().map(|c| c.to_string()).collect();
    let beacon_row: Vec<String> = res.beacon.iter().map(|&s| fmt_slot(s)).collect();
    let sweep_row: Vec<String> = res.sweep.iter().map(|&s| fmt_slot(s)).collect();
    let headers: Vec<&str> = std::iter::once("row")
        .chain(cdown_row.iter().map(String::as_str))
        .collect();
    let rows = vec![
        std::iter::once("Beacon".to_string())
            .chain(beacon_row)
            .collect::<Vec<_>>(),
        std::iter::once("Sweep".to_string())
            .chain(sweep_row)
            .collect::<Vec<_>>(),
    ];
    writeln!(out, "{}", ascii::table(&headers, &rows))?;
    writeln!(
        out,
        "frames captured: {}, missed: {}, bursts: {}\n",
        res.frames_captured, res.frames_missed, res.bursts
    )?;
    Ok(())
}

fn exp_timing(out: &mut dyn Write, _: &Args) -> io::Result<()> {
    writeln!(out, "== §4.1 timing audit ==")?;
    let t = timing_audit();
    let rows = vec![
        vec![
            "beacon interval".into(),
            format!("{:.1} ms", t.beacon_interval_ms),
            "102.4 ms".into(),
        ],
        vec![
            "SSW frame".into(),
            format!("{:.1} us", t.ssw_frame_us),
            "18.0 us".into(),
        ],
        vec![
            "init+feedback overhead".into(),
            format!("{:.1} us", t.overhead_us),
            "49.1 us".into(),
        ],
        vec![
            "full mutual training".into(),
            format!("{:.3} ms", t.full_training_ms),
            "1.27 ms".into(),
        ],
    ];
    writeln!(
        out,
        "{}",
        ascii::table(&["quantity", "measured", "paper"], &rows)
    )?;
    Ok(())
}

fn exp_fig5(out: &mut dyn Write, args: &Args) -> io::Result<()> {
    writeln!(
        out,
        "== Fig. 5: azimuth SNR patterns of all sectors (el = 0) =="
    )?;
    let cfg = match args.fidelity {
        Fidelity::Paper => CampaignConfig::paper_azimuth_scan(),
        Fidelity::Fast => CampaignConfig {
            grid: geom::sphere::SphericalGrid::new(
                geom::sphere::GridSpec::new(-180.0, 180.0, 4.5),
                geom::sphere::GridSpec::fixed(0.0),
            ),
            sweeps_per_position: 6,
            azimuth_wraps: true,
            ..CampaignConfig::coarse()
        },
    };
    let res = measure_patterns(cfg, args.seed);
    let summary = classify(&res.tx_patterns);
    let rows: Vec<Vec<String>> = summary
        .iter()
        .map(|s| {
            vec![
                s.id.to_string(),
                format!("{:.1}", s.peak_db),
                format!("{:.1}", s.peak_az_deg),
                format!("{:.1}", s.peak_el_deg),
                format!("{:?}", s.trait_),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        ascii::table(&["sector", "peak dB", "az°", "el°", "trait"], &rows)
    )?;
    if args.csv {
        for id in res.tx_patterns.sector_ids() {
            if let Some(csv) = eval::patterns::azimuth_cut_csv(&res.tx_patterns, id) {
                let path = format!("results/fig5_sector_{}.csv", id.raw());
                std::fs::write(&path, csv).expect("write CSV");
            }
        }
        writeln!(
            out,
            "(per-sector CSV series written to results/fig5_sector_*.csv)"
        )?;
    }
    writeln!(out)?;
    Ok(())
}

fn exp_fig6(out: &mut dyn Write, args: &Args) -> io::Result<()> {
    writeln!(
        out,
        "== Fig. 6: spherical SNR patterns (azimuth x elevation heatmaps) =="
    )?;
    let cfg = match args.fidelity {
        Fidelity::Paper => CampaignConfig::paper_3d_scan(),
        Fidelity::Fast => CampaignConfig::coarse(),
    };
    let res = measure_patterns(cfg, args.seed.wrapping_add(1));
    let grid = res.tx_patterns.grid().clone();
    for id in [5u8, 26, 63] {
        let p = res.tx_patterns.get(talon_array::SectorId(id)).unwrap();
        writeln!(
            out,
            "sector {id} (rows el {:.0}..{:.0}°, cols az {:.0}..{:.0}°):",
            grid.el.start_deg, grid.el.end_deg, grid.az.start_deg, grid.az.end_deg
        )?;
        writeln!(
            out,
            "{}",
            ascii::heatmap(&p.gain_db, grid.az.len(), -7.0, 12.0)
        )?;
    }
    if args.csv {
        std::fs::write("results/fig6_patterns.txt", res.tx_patterns.to_text())
            .expect("write pattern store");
        writeln!(
            out,
            "(full 3D pattern store written to results/fig6_patterns.txt)"
        )?;
    }
    Ok(())
}

fn scenarios(args: &Args) -> Vec<EvalScenario> {
    vec![
        EvalScenario::lab(args.fidelity, args.seed),
        EvalScenario::conference_room(args.fidelity, args.seed),
    ]
}

fn m_values(args: &Args) -> Vec<usize> {
    match args.fidelity {
        Fidelity::Paper => (4..=34).step_by(2).collect(),
        Fidelity::Fast => vec![4, 8, 14, 20, 26, 34],
    }
}

fn exp_fig7(out: &mut dyn Write, args: &Args) -> io::Result<()> {
    writeln!(
        out,
        "== Fig. 7: angular estimation error vs probing sectors =="
    )?;
    for mut scenario in scenarios(args) {
        let data = scenario.record(args.seed);
        let res = estimation_error(&data, &scenario.patterns, &m_values(args), 2, args.seed);
        writeln!(out, "--- {} ---", res.scenario)?;
        let rows: Vec<Vec<String>> = res
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.probes.to_string(),
                    format!("{:.1}", r.azimuth.median),
                    format!("{:.1}", r.azimuth.q75),
                    format!("{:.1}", r.azimuth.p995),
                    format!("{:.1}", r.elevation.median),
                    format!("{:.1}", r.elevation.p995),
                ]
            })
            .collect();
        writeln!(
            out,
            "{}",
            ascii::table(
                &[
                    "M",
                    "az med°",
                    "az q75°",
                    "az p99.5°",
                    "el med°",
                    "el p99.5°"
                ],
                &rows
            )
        )?;
        if args.csv {
            let mut csv = String::from("probes,az_median,az_q25,az_q75,az_p005,az_p995,el_median,el_q25,el_q75,el_p005,el_p995\n");
            for r in &res.rows {
                csv.push_str(&format!(
                    "{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3}\n",
                    r.probes,
                    r.azimuth.median,
                    r.azimuth.q25,
                    r.azimuth.q75,
                    r.azimuth.p005,
                    r.azimuth.p995,
                    r.elevation.median,
                    r.elevation.q25,
                    r.elevation.q75,
                    r.elevation.p005,
                    r.elevation.p995,
                ));
            }
            let path = format!("results/fig7_{}.csv", res.scenario);
            std::fs::write(&path, csv).expect("write CSV");
            writeln!(out, "(series written to {path})")?;
        }
    }
    Ok(())
}

fn exp_fig8_fig9(out: &mut dyn Write, args: &Args) -> io::Result<()> {
    writeln!(
        out,
        "== Fig. 8 (stability) & Fig. 9 (SNR loss) vs probing sectors =="
    )?;
    let mut scenario = EvalScenario::conference_room(args.fidelity, args.seed);
    if args.fidelity == Fidelity::Fast {
        scenario.sweeps_per_position = 10;
    }
    let data = scenario.record(args.seed);
    let ms = m_values(args);
    let stab = selection_stability(&data, &scenario.patterns, &ms, args.seed);
    let loss = snr_loss(&data, &scenario.patterns, &ms, args.seed);
    let rows: Vec<Vec<String>> = stab
        .css
        .iter()
        .zip(&loss.css)
        .map(|(&(m, s), &(_, l))| {
            vec![
                m.to_string(),
                format!("{:.3}", s),
                format!("{:.3}", stab.ssw_stability),
                format!("{:.2}", l),
                format!("{:.2}", loss.ssw_loss_db),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        ascii::table(
            &[
                "M",
                "CSS stability",
                "SSW stability",
                "CSS loss dB",
                "SSW loss dB"
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "stability crossover at M = {:?} (paper: 13); loss crossover at M = {:?} (paper: 14)\n",
        stab.crossover(),
        loss.crossover()
    )?;
    if args.csv {
        let mut csv = String::from("probes,css_stability,ssw_stability,css_loss_db,ssw_loss_db\n");
        for (&(m, s), &(_, l)) in stab.css.iter().zip(&loss.css) {
            csv.push_str(&format!(
                "{m},{s:.4},{:.4},{l:.4},{:.4}\n",
                stab.ssw_stability, loss.ssw_loss_db
            ));
        }
        std::fs::write("results/fig8_fig9.csv", csv).expect("write CSV");
        writeln!(out, "(series written to results/fig8_fig9.csv)")?;
    }
    Ok(())
}

fn exp_fig10(out: &mut dyn Write, args: &Args) -> io::Result<()> {
    writeln!(
        out,
        "== Fig. 10: mutual training time vs probing sectors =="
    )?;
    let ms: Vec<usize> = (12..=38).step_by(2).collect();
    let res = training_time(&ms, args.seed);
    for &(m, t) in &res.model {
        writeln!(
            out,
            "{}",
            ascii::bar(&format!("{m} probes"), t, 1.4, 40)
                .replace("|", if m == 14 || m == 34 { "‖" } else { "|" })
                + " ms"
        )?;
    }
    writeln!(
        out,
        "SSW (34 probes): {:.2} ms, CSS (14 probes): {:.2} ms, speedup {:.2}x (paper: 2.3x)\n",
        res.ssw_ms,
        res.css14_ms,
        res.speedup()
    )?;
    if args.csv {
        let mut csv = String::from("probes,model_ms,simulated_ms\n");
        for ((m, t), (_, ts)) in res.model.iter().zip(&res.simulated) {
            csv.push_str(&format!("{m},{t:.4},{ts:.4}\n"));
        }
        std::fs::write("results/fig10.csv", csv).expect("write CSV");
    }
    Ok(())
}

/// The conference-room recording Fig. 11 and `ext-dense` score: 20 sweeps
/// per position at paper fidelity, 10 at Fast.
fn fig11_recording(args: &Args) -> (EvalScenario, eval::RecordedDataset) {
    let mut scenario = EvalScenario::conference_room(args.fidelity, args.seed);
    scenario.sweeps_per_position = match args.fidelity {
        Fidelity::Paper => 20,
        Fidelity::Fast => 10,
    };
    let data = scenario.record(args.seed);
    (scenario, data)
}

fn exp_fig11(out: &mut dyn Write, args: &Args) -> io::Result<()> {
    writeln!(
        out,
        "== Fig. 11: throughput at -45/0/+45 deg (conference room) =="
    )?;
    let (scenario, data) = fig11_recording(args);
    let res = throughput(
        &data,
        &scenario.patterns,
        &[-45.0, 0.0, 45.0],
        14,
        DataLinkModel::default(),
        args.seed,
    );
    let rows: Vec<Vec<String>> = res
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}°", r.azimuth_deg),
                format!("{:.2}", r.ssw_gbps),
                format!("{:.2}", r.css_gbps),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        ascii::table(&["direction", "SSW Gbps", "CSS(14) Gbps"], &rows)
    )?;
    if args.csv {
        let mut csv = String::from("azimuth_deg,ssw_gbps,css_gbps\n");
        for r in &res.rows {
            csv.push_str(&format!(
                "{},{:.4},{:.4}\n",
                r.azimuth_deg, r.ssw_gbps, r.css_gbps
            ));
        }
        std::fs::write("results/fig11.csv", csv).expect("write CSV");
    }
    Ok(())
}

fn exp_ablation(out: &mut dyn Write, args: &Args) -> io::Result<()> {
    writeln!(out, "== Ablations (design choices of DESIGN.md §5) ==")?;
    let mut scenario = EvalScenario::conference_room(args.fidelity, args.seed);
    let data = scenario.record(args.seed);
    let ms = vec![8, 14, 20];

    // (a) Joint SNR*RSSI (Eq. 5) vs SNR-only (Eq. 3).
    writeln!(
        out,
        "--- correlation mode: joint (Eq. 5) vs SNR-only (Eq. 3), loss in dB ---"
    )?;
    let mut rows = Vec::new();
    for &mode in &[CorrelationMode::JointSnrRssi, CorrelationMode::SnrOnly] {
        let mut losses = Vec::new();
        for &m in &ms {
            let l = ablation_loss(&data, &scenario.patterns, m, mode, args.seed);
            losses.push(format!("{l:.2}"));
        }
        rows.push(
            std::iter::once(format!("{mode:?}"))
                .chain(losses)
                .collect::<Vec<_>>(),
        );
    }
    let headers: Vec<String> = std::iter::once("mode".to_string())
        .chain(ms.iter().map(|m| format!("M={m}")))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    writeln!(out, "{}", ascii::table(&headers_ref, &rows))?;

    // (b) 3D vs 2D estimation grid.
    writeln!(
        out,
        "--- probing strategy: uniform random vs designed low-coherence, loss in dB ---"
    )?;
    let design = css::strategy::design_low_coherence(&scenario.patterns);
    let mut rows = Vec::new();
    for (name, strat) in [
        (
            "uniform-random",
            css::strategy::ProbeStrategy::UniformRandom,
        ),
        (
            "low-coherence",
            css::strategy::ProbeStrategy::LowCoherence(design),
        ),
    ] {
        let mut losses = Vec::new();
        for &m in &ms {
            let l = ablation_loss_strategy(&data, &scenario.patterns, m, strat.clone(), args.seed);
            losses.push(format!("{l:.2}"));
        }
        rows.push(
            std::iter::once(name.to_string())
                .chain(losses)
                .collect::<Vec<_>>(),
        );
    }
    writeln!(out, "{}", ascii::table(&headers_ref, &rows))?;

    // (c) Firmware beams vs pseudo-random beams (link quality).
    writeln!(
        out,
        "--- codebook: firmware sectors vs pseudo-random beams (peak true SNR, dB) ---"
    )?;
    let talon = talon_channel::Device::talon(args.seed);
    let random = css::baselines::random_beam_device(args.seed, 34);
    let link = talon_channel::Link::new(talon_channel::Environment::conference_room());
    let fixed = talon_channel::Device::talon(args.seed.wrapping_add(1));
    let rxw = fixed.codebook.rx_sector().weights.clone();
    let peak = |dev: &talon_channel::Device| {
        dev.codebook
            .sweep_order()
            .into_iter()
            .map(|s| link.true_snr_db(dev, s, &fixed, &rxw))
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let rows = vec![
        vec![
            "firmware sectors".to_string(),
            format!("{:.1}", peak(&talon)),
        ],
        vec![
            "pseudo-random beams".to_string(),
            format!("{:.1}", peak(&random)),
        ],
    ];
    writeln!(out, "{}", ascii::table(&["codebook", "peak SNR dB"], &rows))?;
    Ok(())
}

fn ablation_loss(
    data: &eval::RecordedDataset,
    patterns: &chamber::SectorPatterns,
    m: usize,
    mode: CorrelationMode,
    seed: u64,
) -> f64 {
    use css::selection::{CompressiveSelection, CssConfig};
    use eval::scenario::random_subset;
    use geom::rng::sub_rng;
    let mut css = CompressiveSelection::new(
        patterns.clone(),
        CssConfig {
            num_probes: m,
            mode,
            strategy: css::strategy::ProbeStrategy::UniformRandom,
        },
        seed,
    );
    let mut rng = sub_rng(seed, "ablation");
    let mut losses = Vec::new();
    for pos in &data.positions {
        let (_, opt) = pos.optimal();
        for sweep in &pos.sweeps {
            let subset = random_subset(&mut rng, sweep, m);
            if let Some(sel) = css.select_from_readings(&subset) {
                if let Some(snr) = pos.true_snr_of(sel) {
                    losses.push(opt - snr);
                }
            }
        }
    }
    geom::stats::mean(&losses).unwrap_or(f64::NAN)
}

fn ablation_loss_strategy(
    data: &eval::RecordedDataset,
    patterns: &chamber::SectorPatterns,
    m: usize,
    strategy: css::strategy::ProbeStrategy,
    seed: u64,
) -> f64 {
    use css::selection::{CompressiveSelection, CssConfig};
    use geom::rng::sub_rng;
    use rand::Rng;
    let mut css = CompressiveSelection::new(
        patterns.clone(),
        CssConfig {
            num_probes: m,
            mode: CorrelationMode::JointSnrRssi,
            strategy,
        },
        seed,
    );
    let mut rng = sub_rng(seed, "ablation-strategy");
    let mut losses = Vec::new();
    for pos in &data.positions {
        let (_, opt) = pos.optimal();
        for sweep in &pos.sweeps {
            // Draw the strategy's probe set, then take those readings.
            let probes = css.draw_probes();
            let subset: Vec<talon_channel::SweepReading> = sweep
                .iter()
                .filter(|r| probes.contains(&r.sector))
                .copied()
                .collect();
            let _ = rng.gen::<u32>(); // keep streams aligned between runs
            if let Some(sel) = css.select_from_readings(&subset) {
                if let Some(snr) = pos.true_snr_of(sel) {
                    losses.push(opt - snr);
                }
            }
        }
    }
    geom::stats::mean(&losses).unwrap_or(f64::NAN)
}

fn exp_summary(out: &mut dyn Write, args: &Args) -> io::Result<()> {
    writeln!(out, "== §6.5 headline summary ==")?;
    let t = training_time(&[14, 34], args.seed);
    let mut scenario = EvalScenario::conference_room(args.fidelity, args.seed);
    scenario.sweeps_per_position = 10;
    let data = scenario.record(args.seed);
    let ms: Vec<usize> = vec![6, 10, 13, 14, 20, 34];
    let stab = selection_stability(&data, &scenario.patterns, &ms, args.seed);
    let loss = snr_loss(&data, &scenario.patterns, &ms, args.seed);
    let find = |xs: &BTreeMap<usize, f64>, m: usize| xs.get(&m).copied().unwrap_or(f64::NAN);
    let stab_map: BTreeMap<usize, f64> = stab.css.iter().copied().collect();
    let loss_map: BTreeMap<usize, f64> = loss.css.iter().copied().collect();
    let rows = vec![
        vec![
            "training time @14 probes".into(),
            format!(
                "{:.2} ms (vs SSW {:.2} ms, {:.1}x)",
                t.css14_ms,
                t.ssw_ms,
                t.speedup()
            ),
            "0.55 ms vs 1.27 ms, 2.3x".into(),
        ],
        vec![
            "stability @14 probes".into(),
            format!(
                "{:.1}% (SSW {:.1}%)",
                100.0 * find(&stab_map, 14),
                100.0 * stab.ssw_stability
            ),
            ">= SSW's 73.9% (crossover 13)".into(),
        ],
        vec![
            "SNR loss @14 probes".into(),
            format!(
                "{:.2} dB (SSW {:.2} dB)",
                find(&loss_map, 14),
                loss.ssw_loss_db
            ),
            "<= SSW's ~0.5 dB (crossover 14)".into(),
        ],
        vec![
            "SNR loss @6 probes".into(),
            format!("{:.2} dB", find(&loss_map, 6)),
            "~2.5 dB".into(),
        ],
    ];
    writeln!(
        out,
        "{}",
        ascii::table(&["metric", "measured", "paper"], &rows)
    )?;
    Ok(())
}
