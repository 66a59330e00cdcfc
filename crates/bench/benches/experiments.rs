//! One bench per reproduced table/figure: the wall-clock cost of
//! regenerating each experiment at fast fidelity. These are end-to-end
//! timings of the analysis pipelines (the `tables` binary runs the same
//! code at paper fidelity).

use criterion::{criterion_group, criterion_main, Criterion};
use eval::scenario::{EvalScenario, Fidelity};
use std::hint::black_box;

fn bench_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);

    group.bench_function("table1_capture", |b| {
        b.iter(|| black_box(eval::table1::capture_table1(10, 1)))
    });

    group.bench_function("fig5_fig6_pattern_campaign", |b| {
        b.iter(|| {
            black_box(eval::patterns::measure_patterns(
                chamber::CampaignConfig::coarse(),
                1,
            ))
        })
    });

    // Shared recording for the analysis benches (the expensive part is
    // recorded once; each bench times its analysis).
    let mut scenario = EvalScenario::conference_room(Fidelity::Fast, 1);
    let data = scenario.record(1);
    let patterns = scenario.patterns.clone();

    group.bench_function("fig7_estimation_error", |b| {
        b.iter(|| {
            black_box(eval::estimation::estimation_error(
                &data,
                &patterns,
                &[6, 14, 34],
                1,
                1,
            ))
        })
    });

    group.bench_function("fig8_selection_stability", |b| {
        b.iter(|| {
            black_box(eval::stability::selection_stability(
                &data,
                &patterns,
                &[6, 14, 34],
                1,
            ))
        })
    });

    group.bench_function("fig9_snr_loss", |b| {
        b.iter(|| black_box(eval::snr_loss::snr_loss(&data, &patterns, &[6, 14, 34], 1)))
    });

    group.bench_function("fig10_training_time", |b| {
        b.iter(|| black_box(eval::overhead::training_time(&[14, 34], 1)))
    });

    group.bench_function("fig11_throughput", |b| {
        b.iter(|| {
            black_box(eval::throughput::throughput(
                &data,
                &patterns,
                &[-45.0, 0.0, 45.0],
                14,
                eval::throughput::DataLinkModel::default(),
                1,
            ))
        })
    });

    group.bench_function("ext_tracking", |b| {
        let cfg = netsim::tracking::TrackingConfig {
            horizon_s: 2.0,
            sample_step_s: 0.05,
            ..netsim::tracking::TrackingConfig::default()
        };
        b.iter(|| {
            black_box(eval::extensions::tracking_comparison(
                &cfg, &patterns, 14, 1,
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
