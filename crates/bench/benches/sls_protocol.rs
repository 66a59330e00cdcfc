//! End-to-end SLS protocol simulation cost (Fig. 10's subject measured in
//! host CPU time rather than air time), at the stock and compressive probe
//! counts.
//!
//! * `sls_run/cold/M` — a fresh runner per training on a link that
//!   remembers no geometry (a fresh clone per iteration, made outside the
//!   timing): the run builds both probe plans and prices every probed
//!   sector.
//! * `sls_run/warm/M` — one runner for every iteration: plans built and
//!   sectors priced, so what is left is the policy calls, the measurement
//!   draws and the frame transcript.
//! * `link_plan` — one `Link::plan` build on a link that remembers no
//!   geometry, the per-geometry part of the cold/warm gap.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use geom::rng::sub_rng;
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy, SlsRunner};
use std::hint::black_box;
use talon_array::SectorId;
use talon_channel::{Device, Environment, Link, SweepReading};

struct FixedCount(usize);

impl FeedbackPolicy for FixedCount {
    fn probe_sectors(&mut self, full_sweep: &[SectorId]) -> Vec<SectorId> {
        full_sweep.iter().copied().take(self.0).collect()
    }
    fn select(&mut self, readings: &[SweepReading]) -> Option<SectorId> {
        MaxSnrPolicy.select(readings)
    }
}

fn bench_sls(c: &mut Criterion) {
    let link = Link::new(Environment::conference_room());
    let initiator = Device::talon(1);
    let responder = Device::talon(2);

    let mut group = c.benchmark_group("sls_run");
    for &m in &[14usize, 34] {
        group.bench_with_input(BenchmarkId::new("cold", m), &m, |b, &m| {
            let mut rng = sub_rng(7, "bench-sls");
            // Each cold link is returned, so its drop is not timed.
            b.iter_batched(
                || link.clone(),
                |cold| {
                    let runner = SlsRunner::new(&cold, &initiator, &responder);
                    let out = runner.run(&mut rng, &mut FixedCount(m), &mut FixedCount(m));
                    (out, cold)
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("warm", m), &m, |b, &m| {
            let runner = SlsRunner::new(&link, &initiator, &responder);
            let mut rng = sub_rng(7, "bench-sls");
            b.iter(|| black_box(runner.run(&mut rng, &mut FixedCount(m), &mut FixedCount(m))))
        });
    }
    group.finish();

    c.bench_function("link_plan", |b| {
        b.iter_batched(
            || link.clone(),
            |cold| {
                black_box(cold.plan(black_box(&initiator), black_box(&responder)));
                cold
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_sls);
criterion_main!(benches);
