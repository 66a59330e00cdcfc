//! `--self-test`: a smoke-sized check of the benchmark itself.
//!
//! Runs every workload for one second as a child process and checks that
//!
//! - `BENCHMARK.json` names exactly the metrics and units this binary
//!   prints, and every run prints each of them once;
//! - a traced run's layer self times plus the residual equal its
//!   per-decision total;
//! - two runs with one seed give identical deterministic metrics;
//! - a `replay` run whose inputs are perturbed exits non-zero.

use crate::{END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::process::Command;

/// Per-layer metrics that depend only on the seed. The trace size is
/// compared to 0.1%: recorded timestamps and span durations are varints
/// whose width depends on timing.
const DETERMINISTIC: [&str; 12] = [
    "airtime_us",
    "snr_loss_db",
    "est_err_az_deg_p50",
    "failed_ratio",
    "sls.frames_per_training",
    "channel.probe_miss_ratio",
    "wil.exported_per_decision",
    "wil.ring_dropped",
    "css.degenerate_ratio",
    "css.batch_fill",
    "obs.sink_calls_per_decision",
    "obs.decode_skipped",
];

const SEED: &str = "7";

struct Child {
    success: bool,
    result: Option<Value>,
}

fn child(args: &[&str]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    Ok(Child {
        success: out.status.success(),
        result: stdout.lines().last().and_then(|l| Value::from_json(l).ok()),
    })
}

fn measure(workload: &str, trace: &str, extra: &[&str]) -> Result<Child, String> {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        SEED,
        "--seconds",
        "1",
        "--trace",
        trace,
    ];
    args.extend_from_slice(extra);
    child(&args)
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn spec_list(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_seq)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

fn same(list: &[(String, String)], expected: &[(&str, &str)]) -> bool {
    list.len() == expected.len()
        && list
            .iter()
            .zip(expected)
            .all(|((n, u), (en, eu))| n == en && u == eu)
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Problems with one run's printed result.
fn check_result(
    label: &str,
    run: &Child,
    expected: &[(&str, &str)],
    problems: &mut Vec<String>,
) -> Option<Value> {
    let Some(result) = run.result.clone() else {
        problems.push(format!("{label}: no result line"));
        return None;
    };
    if !run.success || result.get("correct") != Some(&Value::Bool(true)) {
        problems.push(format!("{label}: run not correct"));
    }
    let printed: Vec<(String, String)> = result
        .get("metrics")
        .and_then(Value::as_map)
        .unwrap_or(&[])
        .iter()
        .map(|(k, m)| {
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            (k.clone(), unit.to_string())
        })
        .collect();
    if !same(&printed, expected) {
        problems.push(format!("{label}: metrics or units differ from the spec"));
    }
    Some(result)
}

pub fn run() -> Result<bool, String> {
    let mut problems = Vec::new();
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("run from the repository root: BENCHMARK.json: {e}"))?;
    let spec = Value::from_json(&text).map_err(|e| format!("BENCHMARK.json: {}", e.0))?;
    if !same(&spec_list(&spec, "end_to_end"), &END_TO_END)
        || !same(&spec_list(&spec, "per_layer"), &PER_LAYER)
    {
        problems.push("BENCHMARK.json metrics differ from the ones this binary prints".into());
    }

    for workload in WORKLOADS {
        eprintln!("self-test: {workload}");
        check_result(
            &format!("{workload} untraced"),
            &measure(workload, "0", &[])?,
            &END_TO_END,
            &mut problems,
        );
        let mut traced = Vec::new();
        for i in 0..2 {
            let label = format!("{workload} traced #{}", i + 1);
            let run = measure(workload, "1", &[])?;
            let Some(result) = check_result(&label, &run, &PER_LAYER, &mut problems) else {
                continue;
            };
            let total = metric(&result, "layer.decision_ns").unwrap_or(0.0);
            let parts: f64 = PER_LAYER
                .iter()
                .filter(|(n, _)| n.starts_with("layer.") && *n != "layer.decision_ns")
                .filter_map(|(n, _)| metric(&result, n))
                .sum();
            if total <= 0.0 || (parts - total).abs() > 1e-9 * total {
                problems.push(format!(
                    "{label}: layer self times + residual = {parts} ns, total {total} ns"
                ));
            }
            traced.push(result);
        }
        if let [a, b] = &traced[..] {
            for name in DETERMINISTIC.iter().chain(&["trace_bytes_per_decision"]) {
                let (x, y) = (metric(a, name), metric(b, name));
                let equal = match (x, y) {
                    (Some(x), Some(y)) if *name == "trace_bytes_per_decision" => {
                        (x - y).abs() <= 1e-3 * x.abs().max(1.0)
                    }
                    (Some(x), Some(y)) => x == y,
                    _ => false,
                };
                if !equal {
                    problems.push(format!(
                        "{workload}: {name} differs between runs: {x:?} vs {y:?}"
                    ));
                }
            }
        }
    }

    eprintln!("self-test: perturbed replay");
    let perturbed = measure("replay", "0", &["--perturb-db", "0.5"])?;
    let flagged = perturbed
        .result
        .as_ref()
        .is_some_and(|r| r.get("correct") == Some(&Value::Bool(false)));
    if perturbed.success || !flagged {
        problems.push("a perturbed replay did not fail the run".into());
    }

    for p in &problems {
        println!("FAIL {p}");
    }
    println!(
        "self-test: {}",
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    Ok(problems.is_empty())
}
