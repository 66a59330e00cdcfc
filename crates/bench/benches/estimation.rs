//! Angle-of-arrival estimation cost vs probe count (the online cost of
//! Eqs. 2/3/5, which a firmware implementation would pay once per sweep),
//! plus grid-size scaling of the fused kernel, the retained
//! pre-optimization reference at the paper's operating point (compare it
//! with `estimate/JointSnrRssi/14`, which times the fused kernel on the
//! same readings), and the batched kernel at one and sixteen links.

use bench::bench_sweep;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use css::estimator::reference::ReferenceEstimator;
use css::estimator::{CompressiveEstimator, CorrelationMode, EstimatorOptions};
use css::{BatchEstimator, BatchScratch};
use geom::sphere::{GridSpec, SphericalGrid};
use std::hint::black_box;

fn bench_estimation(c: &mut Criterion) {
    let (patterns, full_sweep) = bench_sweep(42);

    let mut group = c.benchmark_group("estimate");
    for &m in &[6usize, 14, 34] {
        let readings: Vec<_> = full_sweep.iter().take(m).copied().collect();
        for mode in [CorrelationMode::SnrOnly, CorrelationMode::JointSnrRssi] {
            let est = CompressiveEstimator::new(&patterns, mode);
            group.bench_with_input(
                BenchmarkId::new(format!("{mode:?}"), m),
                &readings,
                |b, r| b.iter(|| black_box(est.estimate(black_box(r)))),
            );
        }
    }
    group.finish();

    // The retained naive reference at the paper's operating point.
    let readings14: Vec<_> = full_sweep.iter().take(14).copied().collect();
    let mut group = c.benchmark_group("estimate_kernel");
    let naive = ReferenceEstimator::new(&patterns, CorrelationMode::JointSnrRssi);
    group.bench_function("reference_m14", |b| {
        b.iter(|| black_box(naive.estimate(black_box(&readings14))))
    });
    group.finish();

    // Grid scaling: the same M=14 estimate over increasingly fine grids
    // (the kernel is O(grid × M); the paper-scale 3-D scan is ~1010 cells).
    let mut group = c.benchmark_group("estimate_grid");
    for &(label, az_step, el_step) in &[
        ("100pt", 7.5, 10.8),
        ("404pt", 1.8, 10.8),
        ("1010pt", 1.8, 3.6),
    ] {
        let grid = SphericalGrid::new(
            GridSpec::new(-90.0, 90.0, az_step),
            GridSpec::new(0.0, 32.4, el_step),
        );
        let fine = patterns.resample(&grid);
        let est = CompressiveEstimator::new(&fine, CorrelationMode::JointSnrRssi);
        group.bench_with_input(BenchmarkId::new("m14", label), &readings14, |b, r| {
            b.iter(|| black_box(est.estimate(black_box(r))))
        });
    }
    group.finish();

    // The batched kernel on the same M=14 joint estimate: `b1` is the
    // readings of `estimate/JointSnrRssi/14` alone, `b16` sixteen links
    // probing different 14-sector windows of the sweep. ns/iter is per
    // batch; the elem/s rate counts links, so ns per link = 1e9 / rate.
    let batch = BatchEstimator::new(
        &patterns,
        CorrelationMode::JointSnrRssi,
        EstimatorOptions::default(),
    );
    let windows: Vec<Vec<_>> = (0..16)
        .map(|k| {
            full_sweep
                .iter()
                .cycle()
                .skip(k)
                .take(14)
                .copied()
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("estimate_batch");
    for b in [1usize, 16] {
        let links: Vec<&[_]> = windows[..b].iter().map(Vec::as_slice).collect();
        let mut scratch = BatchScratch::new();
        group.throughput(Throughput::Elements(b as u64));
        group.bench_with_input(BenchmarkId::new("m14", format!("b{b}")), &links, |bn, l| {
            bn.iter(|| black_box(batch.estimate_batch(&mut scratch, black_box(l))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_estimation);
criterion_main!(benches);
