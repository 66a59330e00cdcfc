//! Cost of the observability primitives and of recording an estimate.
//!
//! The `obs_primitives` group measures the raw cost of a counter bump, a
//! gauge set, a histogram record and a span create/drop (with and without
//! a sink draining events). With no sink installed an estimate pays one
//! counter bump and one gauge set (`crates/core/tests/no_alloc.rs` pins
//! that down); `obs_estimate/memory_sink/14` runs the instrumented
//! estimator with a [`MemorySink`] attached on the readings of
//! `estimate/JointSnrRssi/14`, so the difference between the two ids is
//! exactly the recording cost.
//!
//! Both memory-sink ids drain the sink before each timed batch: a sink
//! left to grow holds every event of the run (over 700 MB resident on a
//! full-budget run), and the cost of that growth would land on every
//! recorded call.

use bench::bench_sweep;
use criterion::{criterion_group, criterion_main, BatchSize, Bencher, BenchmarkId, Criterion};
use css::estimator::{CompressiveEstimator, CorrelationMode};
use std::hint::black_box;
use std::sync::Arc;

/// Times `routine` with a [`MemorySink`] installed, drained before each
/// timed batch.
fn with_memory_sink<O>(b: &mut Bencher, mut routine: impl FnMut() -> O) {
    let _guard = obs::testing::lock();
    let sink = Arc::new(obs::MemorySink::default());
    obs::set_sink(sink.clone());
    b.iter_batched(|| drop(sink.take()), |()| routine(), BatchSize::SmallInput);
    obs::clear_sink();
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_primitives");
    let counter = obs::counter("bench.obs.counter");
    group.bench_function("counter_inc", |b| b.iter(|| black_box(&counter).inc()));
    let gauge = obs::gauge("bench.obs.gauge");
    group.bench_function("gauge_set", |b| {
        b.iter(|| black_box(&gauge).set(black_box(0)))
    });
    let hist = obs::histogram("bench.obs.hist");
    group.bench_function("histogram_record", |b| {
        b.iter(|| black_box(&hist).record(black_box(1234)))
    });
    group.bench_function("span_no_sink", |b| {
        obs::clear_sink();
        b.iter(|| {
            let mut s = obs::span!("bench.obs.span");
            s.field("x", black_box(1.0));
        });
    });
    group.bench_function("span_memory_sink", |b| {
        with_memory_sink(b, || {
            let mut s = obs::span!("bench.obs.span");
            s.field("x", black_box(1.0));
        })
    });
    group.finish();
}

fn bench_instrumented_estimate(c: &mut Criterion) {
    let (patterns, full_sweep) = bench_sweep(42);
    let readings: Vec<_> = full_sweep.iter().take(14).copied().collect();
    let est = CompressiveEstimator::new(&patterns, CorrelationMode::JointSnrRssi);

    let mut group = c.benchmark_group("obs_estimate");
    group.bench_with_input(BenchmarkId::new("memory_sink", 14), &readings, |b, r| {
        with_memory_sink(b, || est.estimate(black_box(r)))
    });
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_instrumented_estimate);
criterion_main!(benches);
