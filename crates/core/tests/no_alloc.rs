//! Allocation budget of the estimator's two entry points, measured with a
//! counting global allocator (the idiom of `crates/obs/tests/no_alloc.rs`).
//!
//! * A warm [`CompressiveEstimator::estimate`] with no sink installed — the
//!   live selection path — allocates nothing.
//! * [`CompressiveEstimator::estimate_with_closure`] — the recording and
//!   replay path — fills a caller-owned [`KernelClosure`]. A fresh one
//!   allocates exactly its four output vectors (`p_snr`, `p_rssi`,
//!   `top_cells`, `top_weights`), sized by the probe count and `k`, never
//!   by the grid; a warm one allocates nothing.
//!
//! The same file pins down the no-sink obs bill of a warm estimate: one
//! `css.estimates` bump and one `css.estimate_allocs` set, and no
//! `css.estimate` span.
//!
//! Allocations are counted per thread, so one made by the test harness
//! or another test's thread never lands in a measured window.

use chamber::SectorPatterns;
use css::estimator::{CompressiveEstimator, CorrelationMode, KernelClosure};
use geom::sphere::{GridSpec, SphericalGrid};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use talon_array::{GainPattern, SectorId};
use talon_channel::{Measurement, SweepReading};

struct CountingAlloc;

thread_local! {
    /// (allocations, bytes requested) by this thread. Const-initialized
    /// with no destructor, so the allocator can touch it without
    /// allocating.
    static COUNTS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// Counts one allocation of `bytes` on the calling thread.
fn count(bytes: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// (allocations, bytes requested) by this thread while running `f`.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let (a0, b0) = COUNTS.with(Cell::get);
    let out = f();
    let (a1, b1) = COUNTS.with(Cell::get);
    (a1 - a0, b1 - b0, out)
}

/// A 34-sector store on a 91 × 4 grid, with smooth azimuth lobes.
fn store() -> SectorPatterns {
    let grid = SphericalGrid::new(
        GridSpec::new(-90.0, 90.0, 2.0),
        GridSpec::new(0.0, 30.0, 10.0),
    );
    let mut store = SectorPatterns::new(grid.clone());
    for s in 0..34u8 {
        let peak = -85.0 + 5.0 * f64::from(s);
        let gains: Vec<f64> = grid
            .iter()
            .map(|(_, d)| {
                let off = d.az_deg - peak;
                12.0 - off * off / 60.0 - d.el_deg / 5.0
            })
            .collect();
        store.insert(
            SectorId(s + 1),
            GainPattern::from_table(grid.clone(), gains),
        );
    }
    store
}

/// 14 measured probes peaking at sector 13, then one masked probe.
fn readings() -> Vec<SweepReading> {
    let mut readings: Vec<SweepReading> = (0..14u8)
        .map(|i| SweepReading {
            sector: SectorId(2 * i + 1),
            measurement: Some(Measurement {
                snr_db: 10.0 - f64::from(i.abs_diff(6)),
                rssi_dbm: -60.0 - f64::from(i.abs_diff(6)),
            }),
        })
        .collect();
    readings.push(SweepReading {
        sector: SectorId(30),
        measurement: None,
    });
    readings
}

#[test]
fn estimate_is_allocation_free_and_the_closure_allocates_only_its_outputs() {
    let _guard = obs::testing::lock();
    obs::clear_sink();
    let store = store();
    let n_grid = store.grid().len();
    let est = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi);
    let readings = readings();
    let usable = 14;
    const K: usize = 8;

    // Warm-up: sizes the thread scratch for this grid.
    assert!(est.estimate(&readings).is_some());
    let _ = est.estimate_with_closure(&readings, K, &mut KernelClosure::default());

    let (allocs, _, estimate) = allocations_during(|| est.estimate(black_box(&readings)));
    assert!(black_box(estimate).is_some());
    assert_eq!(allocs, 0, "a warm no-sink estimate allocates nothing");

    let fresh = |k| {
        let mut closure = KernelClosure::default();
        let estimate = est.estimate_with_closure(black_box(&readings), k, &mut closure);
        (estimate, closure)
    };
    let (allocs, bytes, (estimate, mut closure)) = allocations_during(|| fresh(K));
    assert!(estimate.is_some());
    assert_eq!(closure.p_snr.len(), usable);
    assert_eq!(closure.top_cells.len(), K);
    assert_eq!(allocs, 4, "p_snr, p_rssi, top_cells, top_weights");
    assert_eq!(bytes, 8 * (2 * usable + 2 * K), "sized by probes and k");
    assert!(
        bytes < 8 * n_grid,
        "nothing sized by the {n_grid}-cell grid"
    );

    // A warm caller-owned closure refills in place.
    let (allocs, _, estimate) =
        allocations_during(|| est.estimate_with_closure(black_box(&readings), K, &mut closure));
    assert!(estimate.is_some());
    assert_eq!(closure.p_snr.len(), usable);
    assert_eq!(closure.top_cells.len(), K);
    assert_eq!(allocs, 0, "a warm closure refills without allocating");

    let (allocs, _, (_, closure)) = allocations_during(|| fresh(0));
    assert!(closure.top_cells.is_empty());
    assert_eq!(allocs, 2, "k = 0 keeps only the probe vectors");
}

/// With no sink installed, a warm estimate's whole obs bill is one
/// counter bump and one gauge set (≈ 12 ns, under 2 % of an estimate).
/// The `css.estimate` span is never built, so its `css.estimate.dur_us`
/// histogram records nothing: a span would add ≈ 190 ns, about 5 % of an
/// estimate. Counts, not timings, so the check holds on any host.
#[test]
fn a_no_sink_estimate_bumps_one_counter_and_builds_no_span() {
    let _guard = obs::testing::lock();
    obs::clear_sink();
    let store = store();
    let est = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi);
    let readings = readings();
    assert!(est.estimate(&readings).is_some(), "warm-up");

    let estimates = obs::counter("css.estimates");
    let spans = obs::histogram("css.estimate.dur_us");
    let (estimates_before, spans_before) = (estimates.get(), spans.count());
    const N: u64 = 25;
    for _ in 0..N {
        assert!(est.estimate(black_box(&readings)).is_some());
    }
    assert_eq!(estimates.get() - estimates_before, N, "one bump per call");
    assert_eq!(spans.count(), spans_before, "no span without a sink");
    assert_eq!(
        obs::gauge("css.estimate_allocs").get(),
        0,
        "a warm scratch reports no growth"
    );
}
