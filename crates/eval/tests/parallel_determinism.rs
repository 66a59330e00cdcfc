//! Thread-count determinism: every `_par` experiment entry point must
//! produce byte-identical results at 1, 2, and 8 threads.
//!
//! The engine guarantees this by keying each work unit's RNG on its flat
//! index and merging chunks in index order (see `eval::engine`); these
//! tests pin the guarantee end-to-end through the three Monte Carlo
//! figures. Results are compared through their full `Debug` rendering,
//! which includes every float exactly.

use eval::estimation::estimation_error_par;
use eval::scenario::{EvalScenario, Fidelity};
use eval::snr_loss::snr_loss_par;
use eval::stability::selection_stability_par;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

// Every test holds `obs::testing::lock()`: the trace tests install a
// process-global sink, and any other test emitting at the same time would
// leak its events into their capture.

#[test]
fn estimation_error_is_thread_count_invariant() {
    let _guard = obs::testing::lock();
    let mut s = EvalScenario::conference_room(Fidelity::Fast, 901);
    let data = s.record(901);
    let renders: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            format!(
                "{:?}",
                estimation_error_par(&data, &s.patterns, &[6, 14], 2, 901, t)
            )
        })
        .collect();
    assert_eq!(renders[0], renders[1], "1 vs 2 threads");
    assert_eq!(renders[0], renders[2], "1 vs 8 threads");
}

#[test]
fn snr_loss_is_thread_count_invariant() {
    let _guard = obs::testing::lock();
    let mut s = EvalScenario::conference_room(Fidelity::Fast, 902);
    let data = s.record(902);
    let renders: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&t| format!("{:?}", snr_loss_par(&data, &s.patterns, &[4, 14], 902, t)))
        .collect();
    assert_eq!(renders[0], renders[1], "1 vs 2 threads");
    assert_eq!(renders[0], renders[2], "1 vs 8 threads");
}

#[test]
fn selection_stability_is_thread_count_invariant() {
    let _guard = obs::testing::lock();
    let mut s = EvalScenario::conference_room(Fidelity::Fast, 903);
    let data = s.record(903);
    let renders: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            format!(
                "{:?}",
                selection_stability_par(&data, &s.patterns, &[4, 14], 903, t)
            )
        })
        .collect();
    assert_eq!(renders[0], renders[1], "1 vs 2 threads");
    assert_eq!(renders[0], renders[2], "1 vs 8 threads");
}

/// Captures every trace event emitted during one `estimation_error_par`
/// run at the given thread count. The caller holds `obs::testing::lock()`.
fn capture_eval_trace(threads: usize) -> Vec<obs::Event> {
    let mut s = EvalScenario::conference_room(Fidelity::Fast, 904);
    let data = s.record(904);
    let mem = std::sync::Arc::new(obs::MemorySink::new());
    obs::set_sink(mem.clone());
    let _ = estimation_error_par(&data, &s.patterns, &[6, 14], 2, 904, threads);
    obs::clear_sink();
    mem.take()
}

#[test]
fn eval_traces_are_structurally_thread_count_invariant() {
    let _guard = obs::testing::lock();
    // Not just results: the *trace* of a parallel eval must be the same
    // tree regardless of worker count. Each work unit gets a reserved
    // trace id on the coordinating thread and its events are captured
    // per-thread and merged in unit-index order, so after normalizing
    // wall-clock values (ts/dur) and remapping trace ids by first
    // appearance, the event streams are identical. The coordinator's own
    // `eval.par_map` span is excluded — its `threads` field differs by
    // construction.
    let renders: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let events: Vec<obs::Event> = capture_eval_trace(t)
                .into_iter()
                .filter(|e| e.stage != "eval.par_map")
                .collect();
            assert!(!events.is_empty(), "{t} threads emitted no unit events");
            format!("{:?}", obs::tree::normalize_structural(&events))
        })
        .collect();
    assert_eq!(renders[0], renders[1], "trace at 1 vs 2 threads");
    assert_eq!(renders[0], renders[2], "trace at 1 vs 8 threads");
}

#[test]
fn eval_units_root_their_own_traces() {
    let _guard = obs::testing::lock();
    let events = capture_eval_trace(4);
    // Without the `eval.par_map` spans nothing adopts the units: every
    // per-unit trace is a single rooted tree (one top-level span per work
    // unit), and ids are unique within each trace.
    let units: Vec<obs::Event> = events
        .iter()
        .filter(|e| e.stage != "eval.par_map")
        .cloned()
        .collect();
    let unit_trees = obs::tree::build_trees(&units);
    assert!(!unit_trees.is_empty());
    for tree in &unit_trees {
        assert_eq!(tree.roots.len(), 1, "trace {} roots", tree.trace_id);
        let mut ids: Vec<u64> = tree.nodes.iter().map(|n| n.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), tree.nodes.len(), "duplicate span ids");
    }
    // With them, each `eval.par_map` span adopts its units: one tree per
    // call, rooted at the span, with every unit's root as its child.
    let par_maps = events.iter().filter(|e| e.stage == "eval.par_map").count();
    let trees = obs::tree::build_trees(&events);
    assert_eq!(trees.len(), par_maps);
    let adopted: usize = trees
        .iter()
        .map(|tree| {
            assert_eq!(tree.roots.len(), 1, "trace {} roots", tree.trace_id);
            let root = &tree.nodes[tree.roots[0]];
            assert_eq!(root.stage, "eval.par_map");
            root.children.len()
        })
        .sum();
    assert_eq!(adopted, unit_trees.len());
}
