//! Benchmark and reproduction support for the CoNEXT'17 CSS paper.
//!
//! The `tables` binary (`cargo run -p bench --release --bin tables -- --exp all`)
//! regenerates every table and figure; the Criterion benches
//! (`cargo bench -p bench`) measure the computational cost of the moving
//! parts (frame codec, gain evaluation, estimation, full selection).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use chamber::SectorPatterns;
use chamber::{Campaign, CampaignConfig};
use geom::rng::sub_rng;
use talon_channel::{Device, Environment, Link, SweepReading};

/// Measures a coarse pattern database for benchmarking (shared setup).
pub fn bench_patterns(seed: u64) -> (SectorPatterns, Device, Device) {
    let link = Link::new(Environment::anechoic(3.0));
    let mut dut = Device::talon(seed);
    let fixed = Device::talon(seed.wrapping_add(1));
    let mut campaign = Campaign::new(CampaignConfig::coarse(), seed);
    let mut rng = sub_rng(seed, "bench-campaign");
    let patterns = campaign.measure_tx_patterns(&mut rng, &link, &mut dut, &fixed);
    dut.orientation = talon_channel::Orientation::NEUTRAL;
    (patterns, dut, fixed)
}

/// The [`bench_patterns`] database and one full lab sweep of its device:
/// the readings every estimator bench takes its first `m` from, so two
/// ids that time the same estimate differ only in what they add.
pub fn bench_sweep(seed: u64) -> (SectorPatterns, Vec<SweepReading>) {
    let (patterns, dut, fixed) = bench_patterns(seed);
    let link = Link::new(Environment::lab());
    let mut rng = sub_rng(seed, "bench-estimation");
    let sweep = link.sweep(&mut rng, &dut, &dut.codebook.sweep_order(), &fixed);
    (patterns, sweep)
}
