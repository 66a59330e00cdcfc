//! `--compare BASE NEW`: compares two result sets written with `--out`.
//!
//! Each file holds one JSON line per run (`provenance` + `result`). Runs
//! are grouped by workload and trace mode, and each metric's median is
//! compared. The comparison refuses result sets from machines with
//! different core counts: thread-dependent numbers from two such hosts
//! say nothing about the code. It also refuses runs whose outputs were
//! not correct, and needs `BENCHMARK.json` in the working directory.
//! End-to-end metrics that worsen by more than their bound there are
//! flagged and fail the comparison.

use crate::stats;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};

struct Entry {
    cores: u64,
    group: String,
    metrics: Vec<(String, f64)>,
}

fn load(path: &str) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
            let v = Value::from_json(line).map_err(|e| bad(&e.0))?;
            if v.get("result").and_then(|r| r.get("correct")) != Some(&Value::Bool(true)) {
                return Err(bad("run was not correct; its figures cannot be compared"));
            }
            let prov = v.get("provenance").ok_or_else(|| bad("no provenance"))?;
            let field = |k: &str| {
                prov.get(k)
                    .ok_or_else(|| bad(&format!("no provenance.{k}")))
            };
            let metrics = v
                .get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Value::as_map)
                .ok_or_else(|| bad("no result.metrics"))?
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect();
            Ok(Entry {
                cores: field("cores")?.as_u64().ok_or_else(|| bad("bad cores"))?,
                group: format!(
                    "{} trace={}",
                    field("workload")?.as_str().unwrap_or("?"),
                    u8::from(field("trace")? == &Value::Bool(true))
                ),
                metrics,
            })
        })
        .collect()
}

/// `(better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, (String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let spec = Value::from_json(&text).map_err(|e| format!("BENCHMARK.json: {}", e.0))?;
    let list = spec
        .get("end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                (
                    m.get("better")?.as_str()?.to_string(),
                    m.get("bound")?.as_f64()?,
                ),
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: an end_to_end metric lacks name, better or bound".into())
}

fn medians(entries: &[Entry], group: &str) -> BTreeMap<String, f64> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for e in entries.iter().filter(|e| e.group == group) {
        for (k, v) in &e.metrics {
            samples.entry(k.clone()).or_default().push(*v);
        }
    }
    samples
        .into_iter()
        .map(|(k, xs)| (k, stats::median(&xs)))
        .collect()
}

pub fn run(base_path: &str, new_path: &str) -> Result<bool, String> {
    let bounds = bounds()?;
    let base = load(base_path)?;
    let new = load(new_path)?;
    let cores: BTreeSet<u64> = base.iter().chain(&new).map(|e| e.cores).collect();
    if cores.len() > 1 {
        return Err(format!(
            "refusing to compare result sets from different core counts {cores:?}; \
             measure both sides on the same kind of host"
        ));
    }
    let groups: BTreeSet<&str> = new.iter().map(|e| e.group.as_str()).collect();
    let mut ok = true;
    for group in groups {
        let (b, n) = (medians(&base, group), medians(&new, group));
        println!("{group}");
        for (name, &nv) in &n {
            let Some(&bv) = b.get(name) else {
                println!("  {name:<28} {nv:>14.4}  (not in base)");
                continue;
            };
            let change = if bv == 0.0 { 0.0 } else { (nv - bv) / bv };
            let verdict = match bounds.get(name) {
                Some((better, bound)) => {
                    let worse = if better == "lower" { change } else { -change };
                    if worse > *bound {
                        ok = false;
                        format!("REGRESSION (bound {:.0}%)", bound * 100.0)
                    } else {
                        format!("ok (bound {:.0}%)", bound * 100.0)
                    }
                }
                None => String::new(),
            };
            println!(
                "  {name:<28} {bv:>14.4} -> {nv:>14.4}  {:>+8.2}%  {verdict}",
                change * 100.0
            );
        }
    }
    Ok(ok)
}
