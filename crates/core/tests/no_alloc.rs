//! Allocation budget of the estimator's two entry points, measured with a
//! counting global allocator (the idiom of `crates/obs/tests/no_alloc.rs`).
//!
//! * A warm [`CompressiveEstimator::estimate`] with no sink installed — the
//!   live selection path — allocates nothing.
//! * [`CompressiveEstimator::estimate_with_closure`] — the recording and
//!   replay path — allocates exactly the closure's four output vectors
//!   (`p_snr`, `p_rssi`, `top_cells`, `top_weights`), sized by the probe
//!   count and `k`, never by the grid.
//!
//! One test function on purpose: parallel `#[test]`s would share the
//! global counters and make the deltas meaningless.

use chamber::SectorPatterns;
use css::estimator::{CompressiveEstimator, CorrelationMode};
use geom::sphere::{GridSpec, SphericalGrid};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use talon_array::{GainPattern, SectorId};
use talon_channel::{Measurement, SweepReading};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// (allocations, bytes requested) while running `f`.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let (a0, b0) = (
        ALLOCATIONS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
    );
    let out = f();
    let (a1, b1) = (
        ALLOCATIONS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
    );
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

#[test]
fn estimate_is_allocation_free_and_the_closure_allocates_only_its_outputs() {
    let _guard = obs::testing::lock();
    obs::clear_sink();
    let store = store();
    let n_grid = store.grid().len();
    let est = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi);
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
    let usable = 14;
    const K: usize = 8;

    // Warm-up: sizes the thread scratch for this grid.
    assert!(est.estimate(&readings).is_some());
    let _ = est.estimate_with_closure(&readings, K);

    let (allocs, _, estimate) = allocations_during(|| est.estimate(black_box(&readings)));
    assert!(black_box(estimate).is_some());
    assert_eq!(allocs, 0, "a warm no-sink estimate allocates nothing");

    let (allocs, bytes, (estimate, closure)) =
        allocations_during(|| est.estimate_with_closure(black_box(&readings), K));
    assert!(estimate.is_some());
    assert_eq!(closure.p_snr.len(), usable);
    assert_eq!(closure.top_cells.len(), K);
    assert_eq!(allocs, 4, "p_snr, p_rssi, top_cells, top_weights");
    assert_eq!(bytes, 8 * (2 * usable + 2 * K), "sized by probes and k");
    assert!(
        bytes < 8 * n_grid,
        "nothing sized by the {n_grid}-cell grid"
    );

    let (allocs, _, (_, closure)) =
        allocations_during(|| est.estimate_with_closure(black_box(&readings), 0));
    assert!(closure.top_cells.is_empty());
    assert_eq!(allocs, 2, "k = 0 keeps only the probe vectors");
}
