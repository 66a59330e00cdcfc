//! Emits `BENCH_obs.json`: measured cost of the obs primitives and the
//! instrumentation share of one compressive estimate.
//!
//! ```text
//! cargo run -p bench --release --bin obs_bench                    # writes ./BENCH_obs.json
//! cargo run -p bench --release --bin obs_bench -- --out p        # writes p
//! cargo run -p bench --release --bin obs_bench -- \
//!     --smoke --check BENCH_obs.json                              # regression gate
//! ```
//!
//! The headline number is `noop_overhead_percent`: the cost of the obs
//! calls the estimator makes per `estimate()` with no sink installed (one
//! counter bump and one gauge set — the span and its fields are only
//! constructed while a sink is recording) relative to the measured cost of
//! the estimate itself. The obs acceptance bar is <2 %.
//!
//! `--check <baseline>` fails the process when a required key is missing
//! from the fresh measurement or the committed baseline, or when the
//! no-sink span path (`span_no_sink_ns`, the hot path every instrumented
//! stage pays even with tracing off) is more than 25 % slower than the
//! baseline.

use bench::bench_patterns;
use css::estimator::{CompressiveEstimator, CorrelationMode};
use geom::rng::sub_rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use talon_channel::{Environment, Link};

/// Keys every `BENCH_obs.json` must carry (the `--check` contract).
const REQUIRED_KEYS: &[&str] = &[
    "counter_inc_ns",
    "gauge_set_ns",
    "histogram_record_ns",
    "span_no_sink_ns",
    "span_memory_sink_ns",
    "estimate_m14_ns",
    "noop_overhead_percent",
];

/// Mean nanoseconds per call of `f`, after a warm-up pass.
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_obs.json".into());
    let check = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1).cloned());
    // Smoke runs trade precision for CI turnaround; the relative numbers
    // the gate checks survive the shorter loops.
    let (prim_iters, span_iters, sink_iters) = if smoke {
        (200_000, 50_000, 20_000)
    } else {
        (2_000_000, 500_000, 200_000)
    };

    obs::clear_sink();
    let counter = obs::counter("bench.obs.counter");
    let counter_inc_ns = time_ns(prim_iters, || black_box(&counter).inc());
    let gauge = obs::gauge("bench.obs.gauge");
    let gauge_set_ns = time_ns(prim_iters, || black_box(&gauge).set(black_box(0)));
    let hist = obs::histogram("bench.obs.hist");
    let histogram_record_ns = time_ns(prim_iters, || black_box(&hist).record(black_box(1234)));
    let span_no_sink_ns = time_ns(span_iters, || {
        let mut s = obs::span("bench.obs.span");
        s.field("x", black_box(1.0));
    });
    let span_memory_sink_ns = {
        let _guard = obs::testing::lock();
        obs::set_sink(Arc::new(obs::MemorySink::default()));
        let ns = time_ns(sink_iters, || {
            let mut s = obs::span("bench.obs.span");
            s.field("x", black_box(1.0));
        });
        obs::clear_sink();
        ns
    };

    // The instrumented estimator, sink-less (the shipping default).
    let (patterns, dut, fixed) = bench_patterns(42);
    let link = Link::new(Environment::lab());
    let mut rng = sub_rng(42, "obs-bench-estimate");
    let full = dut.codebook.sweep_order();
    let sweep = link.sweep(&mut rng, &dut, &full, &fixed);
    let readings: Vec<_> = sweep.iter().take(14).copied().collect();
    let est = CompressiveEstimator::new(&patterns, CorrelationMode::JointSnrRssi);
    let estimate_m14_ns = time_ns(if smoke { 1_000 } else { 2_000 }, || {
        black_box(est.estimate(black_box(&readings)));
    });

    // Per-estimate obs bill with no sink: the estimator's cached-handle
    // counter bump plus the allocation gauge set. The span (and the
    // duration histogram it feeds) is gated on `obs::sink_active()` and
    // costs nothing here.
    let per_estimate_obs_ns = counter_inc_ns + gauge_set_ns;
    let noop_overhead_percent = 100.0 * per_estimate_obs_ns / estimate_m14_ns;

    let json = format!(
        "{{\n  \"counter_inc_ns\": {counter_inc_ns:.2},\n  \
         \"gauge_set_ns\": {gauge_set_ns:.2},\n  \
         \"histogram_record_ns\": {histogram_record_ns:.2},\n  \
         \"span_no_sink_ns\": {span_no_sink_ns:.2},\n  \
         \"span_memory_sink_ns\": {span_memory_sink_ns:.2},\n  \
         \"estimate_m14_ns\": {estimate_m14_ns:.2},\n  \
         \"noop_overhead_percent\": {noop_overhead_percent:.4}\n}}\n"
    );
    std::fs::write(&out, &json).expect("write BENCH_obs.json");
    println!("{json}");
    println!("wrote {out}");
    assert!(
        noop_overhead_percent < 2.0,
        "no-sink instrumentation overhead {noop_overhead_percent:.2}% exceeds the 2% budget"
    );

    if let Some(baseline_path) = check {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("--check: cannot read {baseline_path}: {e}"));
        let mut failures = Vec::new();
        for key in REQUIRED_KEYS {
            if json_f64(&json, key).is_none() {
                failures.push(format!("fresh measurement is missing key {key:?}"));
            }
            if json_f64(&baseline, key).is_none() {
                failures.push(format!("baseline {baseline_path} is missing key {key:?}"));
            }
        }
        if let Some(base_ns) = json_f64(&baseline, "span_no_sink_ns") {
            let limit = base_ns * 1.25;
            if span_no_sink_ns > limit {
                failures.push(format!(
                    "no-sink span path regressed >25%: {span_no_sink_ns:.0} ns vs baseline \
                     {base_ns:.0} ns (limit {limit:.0} ns)"
                ));
            }
        }
        if !failures.is_empty() {
            eprintln!("BENCH_obs check FAILED:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
        println!("check against {baseline_path}: OK");
    }
}
