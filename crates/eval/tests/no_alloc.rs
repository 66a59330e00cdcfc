//! Allocation budgets in `eval`, measured with a counting global allocator
//! (the idiom of `crates/obs/tests/no_alloc.rs`):
//!
//! - once warm, a [`ReplaySession::replay_chunk`] allocates per chunk,
//!   never per decision. Worker buffers (the rebuilt readings and the
//!   kernel closure) are reused, and patterns and estimators are looked up
//!   without cloning their keys;
//! - a warm one-thread [`par_map`] call with no sink allocates only its
//!   output: its scheduler telemetry goes through handles resolved once.
//!
//! Allocations are counted per thread; at one thread the whole call runs
//! on the calling thread.

use css::{CompressiveSelection, CssConfig, DecisionOracle};
use eval::engine::par_map;
use eval::replay::{ReplayConfig, ReplaySession};
use eval::scenario::{EvalScenario, Fidelity};
use geom::rng::sub_rng;
use obs::DecisionRecord;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use talon_channel::{Device, Environment, Link, Orientation};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Const-initialized with no
    /// destructor, so the allocator can touch it without allocating.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread.
fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations this thread performed while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Records `n` CSS decisions against the lab scenario's patterns.
fn recorded(n: usize) -> (Vec<DecisionRecord>, EvalScenario) {
    let scenario = EvalScenario::lab(Fidelity::Fast, 7);
    let mut css =
        CompressiveSelection::new(scenario.patterns.clone(), CssConfig::paper_default(), 3);
    let link = Link::new(Environment::anechoic(3.0));
    let mut dut = Device::talon(7);
    dut.orientation = Orientation::NEUTRAL;
    let observer = Device::talon(8);
    let rxw = observer.codebook.rx_sector().weights.clone();
    let mut rng = sub_rng(11, "no-alloc-replay");
    let mem = std::sync::Arc::new(obs::MemorySink::new());
    obs::set_sink(mem.clone());
    for i in 0..n {
        dut.orientation = Orientation::new(-60.0 + (i % 25) as f64 * 5.0, 0.0);
        let probes = css.draw_probes();
        let readings = link.sweep(&mut rng, &dut, &probes, &observer);
        css.provide_oracle(DecisionOracle {
            snr_by_sector: probes
                .iter()
                .map(|&s| (s, link.true_snr_db(&dut, s, &observer, &rxw)))
                .collect(),
        });
        let _ = css.select_from_readings(&readings);
    }
    obs::clear_sink();
    let decisions = mem.take_decisions();
    assert_eq!(decisions.len(), n);
    (decisions, scenario)
}

#[test]
fn a_warm_replay_chunk_allocates_per_chunk_not_per_decision() {
    let _guard = obs::testing::lock();
    obs::clear_sink();
    let (small, scenario) = recorded(256);
    let large: Vec<DecisionRecord> = small.iter().cycle().take(4096).cloned().collect();
    let mut session = ReplaySession::new(ReplayConfig {
        threads: 1,
        perturb_snr_db: 0.0,
        patterns_override: Some(scenario.patterns),
    });
    // Warm-up: builds the pattern database and estimator and sizes the
    // estimator's per-thread scratch.
    session.replay_chunk(&small);

    let n_small = allocations_during(|| session.replay_chunk(&small));
    let n_large = allocations_during(|| session.replay_chunk(&large));
    assert_eq!(
        n_small, n_large,
        "256 decisions allocated {n_small} times, 4096 allocated {n_large}"
    );
    let report = session.finish();
    assert_eq!(report.replayed, 256 + 256 + 4096);
    assert!(report.is_clean(), "{}", report.summary());
    assert_eq!(report.max_abs_err, 0.0);
}

#[test]
fn a_warm_one_thread_par_map_allocates_only_its_output() {
    let _guard = obs::testing::lock();
    obs::clear_sink();
    // Warm-up: resolves the telemetry handles.
    par_map(1, 1, || (), |_, i| i);
    for n in [1, 4] {
        let allocations = allocations_during(|| {
            std::hint::black_box(par_map(n, 1, || (), |_, i| i));
        });
        assert_eq!(
            allocations, 1,
            "par_map({n}, 1, …) allocated {allocations} times"
        );
    }
}
