//! Deterministic parallel execution of Monte Carlo work units.
//!
//! Every experiment in this crate is a loop over independent work units
//! (position × sweep × draw cells). [`par_map`] shards such a loop across
//! `std::thread::scope` threads with two invariants that make parallelism
//! invisible to the results:
//!
//! 1. **Unit-keyed randomness.** Workers never share an RNG; each unit
//!    derives its own stream from `(seed, label, unit index)` via
//!    [`geom::rng::sub_rng_indexed`]. A unit's output therefore depends
//!    only on its index, not on which thread ran it or in what order.
//! 2. **Index-ordered merge.** Threads grab chunks of the unit range from
//!    an atomic cursor (work-stealing-style dynamic scheduling, so a slow
//!    chunk does not stall the others) and return `(chunk_start, results)`
//!    pairs; the merge sorts by chunk start, restoring exact unit order.
//!
//! Together these make the output of `par_map` **bit-identical** for any
//! thread count, including the inline `threads == 1` path — asserted by
//! `tests/parallel_determinism.rs` at 1, 2 and 8 threads.
//!
//! The same discipline extends to observability: while a sink records,
//! each work unit runs as its own trace (ids reserved in a block on the
//! coordinating thread, so unit *i* is always trace `base + i`), its
//! events are captured in per-thread buffers instead of hitting the sink
//! from workers, and the merge replays them in unit-index order — the
//! emitted trace stream is structurally identical at any thread count.
//!
//! Each call also publishes scheduler telemetry: the workers' summed
//! busy and idle time as the plain counters `worker.busy_ns` and
//! `worker.idle_ns`, and the call's busy-time spread as the
//! `eval.worker_imbalance_ppm` gauge. The handles are resolved once per
//! process, so a call formats no name and takes no registry lock. The
//! telemetry is metrics-only (atomic counters, never the trace stream),
//! so it cannot perturb the bit-identical-traces guarantee above.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Chunks processed per thread (on average) per grab. More chunks smooth
/// load imbalance; fewer amortize the cursor contention better.
const CHUNKS_PER_THREAD: usize = 16;

/// The thread count used by the experiment entry points: the machine's
/// available parallelism (at least 1).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over the unit indices `0..n_units` on `threads` threads and
/// returns the results in unit order.
///
/// `make_worker` builds one per-thread state value (estimator scratch,
/// a `CompressiveSelection` instance, …) so workers need no locking;
/// `f(worker, unit)` computes the `unit`-th result. `f` must derive any
/// randomness it needs from the unit index (see the module docs) — that is
/// what makes the output independent of `threads`.
pub fn par_map<T, W, M, F>(n_units: usize, threads: usize, make_worker: M, f: F) -> Vec<T>
where
    T: Send,
    W: Send,
    M: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> T + Sync,
{
    let threads = threads.clamp(1, n_units.max(1));
    let recording = obs::sink_active();
    let mut span = recording.then(|| obs::span!("eval.par_map"));
    // While a sink records, every work unit becomes its own trace. The id
    // block is reserved here, on the coordinating thread, so unit i always
    // gets `trace_base + i` no matter which worker runs it; unit events are
    // captured per unit (see `obs::with_context`) and forwarded to the sink
    // in unit-index order below, which makes the trace stream — not just
    // the results — identical at any thread count. The span records the
    // block (`trace_base`, `units`) so `obs::tree::folded_stacks` can fold
    // the unit traces under it instead of counting their time twice.
    let trace_base = recording.then(|| obs::reserve_trace_ids(n_units.max(1) as u64));
    if let (Some(span), Some(base)) = (&mut span, trace_base) {
        span.field("units", n_units as f64);
        span.field("trace_base", base as f64);
    }
    let run_unit = |w: &mut W, i: usize, captured: &mut Vec<obs::Captured>| -> T {
        match trace_base {
            Some(base) => {
                let ctx = obs::TraceContext::for_trace_id(base + i as u64);
                let (out, mut unit_captured) = obs::with_context(&ctx, || f(w, i));
                captured.append(&mut unit_captured);
                out
            }
            None => f(w, i),
        }
    };
    if threads == 1 {
        let started = Instant::now();
        let mut w = make_worker();
        let mut captured = Vec::new();
        let out = (0..n_units)
            .map(|i| run_unit(&mut w, i, &mut captured))
            .collect();
        for item in &captured {
            item.forward_to_sink();
        }
        telemetry().publish(&[(started.elapsed().as_nanos() as u64, 0)]);
        return out;
    }
    // One finished chunk: (first unit index, results, captured trace
    // records — span events and decision records, interleaved in order).
    type Chunk<T> = (usize, Vec<T>, Vec<obs::Captured>);
    let chunk = (n_units / (threads * CHUNKS_PER_THREAD)).max(1);
    let cursor = AtomicUsize::new(0);
    let parts: Mutex<Vec<Chunk<T>>> = Mutex::new(Vec::new());
    // (busy, idle) ns per worker, for the telemetry published after the join.
    let time_by_worker: Mutex<Vec<(u64, u64)>> = Mutex::new(vec![(0, 0); threads]);
    std::thread::scope(|s| {
        // `move` below is only for `k`; everything else crosses by shared
        // reference.
        let make_worker = &make_worker;
        let run_unit = &run_unit;
        let cursor = &cursor;
        let parts = &parts;
        let time_by_worker = &time_by_worker;
        for k in 0..threads {
            s.spawn(move || {
                let wall = Instant::now();
                let mut w = make_worker();
                let mut busy_ns = 0u64;
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n_units {
                        break;
                    }
                    let end = (start + chunk).min(n_units);
                    let grabbed = Instant::now();
                    let mut captured = Vec::new();
                    let out: Vec<T> = (start..end)
                        .map(|i| run_unit(&mut w, i, &mut captured))
                        .collect();
                    busy_ns += grabbed.elapsed().as_nanos() as u64;
                    parts
                        .lock()
                        .expect("no poisoned workers")
                        .push((start, out, captured));
                }
                let idle_ns = (wall.elapsed().as_nanos() as u64).saturating_sub(busy_ns);
                time_by_worker.lock().expect("no poisoned workers")[k] = (busy_ns, idle_ns);
            });
        }
    });
    telemetry().publish(&time_by_worker.into_inner().expect("workers done"));
    let mut parts = parts.into_inner().expect("workers done");
    parts.sort_unstable_by_key(|&(start, ..)| start);
    let mut merged = Vec::with_capacity(n_units);
    for (_, mut part, captured) in parts {
        merged.append(&mut part);
        // Units within a chunk ran sequentially, and chunks are sorted by
        // start, so this replays the capture in global unit order.
        for item in &captured {
            item.forward_to_sink();
        }
    }
    debug_assert_eq!(merged.len(), n_units);
    merged
}

/// The series every [`par_map`] call publishes, resolved once per process.
struct Telemetry {
    /// `worker.busy_ns`: time workers spent running units, summed.
    busy_ns: Arc<obs::Counter>,
    /// `worker.idle_ns`: time workers spent waiting for the cursor or
    /// spawning, summed.
    idle_ns: Arc<obs::Counter>,
    /// `eval.worker_imbalance_ppm`: the last call's busy-time spread.
    imbalance_ppm: Arc<obs::Gauge>,
}

fn telemetry() -> &'static Telemetry {
    static TELEMETRY: OnceLock<Telemetry> = OnceLock::new();
    TELEMETRY.get_or_init(|| Telemetry {
        busy_ns: obs::counter("worker.busy_ns"),
        idle_ns: obs::counter("worker.idle_ns"),
        imbalance_ppm: obs::gauge("eval.worker_imbalance_ppm"),
    })
}

impl Telemetry {
    /// Publishes one call's `(busy, idle)` ns per worker. The imbalance is
    /// `(max - min) / max` of busy time across workers, in ppm: 0 means
    /// perfectly even; 1_000_000 means at least one worker sat fully idle.
    /// Metrics only — never the trace stream — so telemetry cannot perturb
    /// trace determinism.
    fn publish(&self, time_by_worker: &[(u64, u64)]) {
        let busy = time_by_worker.iter().map(|&(busy, _)| busy);
        let max = busy.clone().max().unwrap_or(0);
        let min = busy.clone().min().unwrap_or(0);
        self.busy_ns.add(busy.sum());
        self.idle_ns
            .add(time_by_worker.iter().map(|&(_, idle)| idle).sum());
        let ppm = if max == 0 {
            0
        } else {
            ((max - min) as u128 * 1_000_000 / max as u128) as i64
        };
        self.imbalance_ppm.set(ppm);
    }
}

/// Maps `f` over fixed-size *batches* of the unit range `0..n_units` and
/// returns per-unit results in unit order.
///
/// Batch boundaries depend only on `(n_units, batch)` — batch `k` always
/// covers `k·batch .. min((k+1)·batch, n_units)` — never on the thread
/// count, so a kernel whose arithmetic is invariant to batch composition
/// (like [`css::BatchEstimator`], where every link occupies its own panel
/// column) stays **bit-identical** at any `threads`. Each batch is one
/// [`par_map`] work unit, inheriting its dynamic scheduling, ordered
/// merge, and trace capture (one trace id per batch).
///
/// `f(worker, range)` must return exactly `range.len()` results, one per
/// unit, in unit order.
pub fn par_map_batched<T, W, M, F>(
    n_units: usize,
    threads: usize,
    batch: usize,
    make_worker: M,
    f: F,
) -> Vec<T>
where
    T: Send,
    W: Send,
    M: Fn() -> W + Sync,
    F: Fn(&mut W, std::ops::Range<usize>) -> Vec<T> + Sync,
{
    let batch = batch.max(1);
    let n_batches = n_units.div_ceil(batch);
    let parts = par_map(n_batches, threads, make_worker, |w, k| {
        let start = k * batch;
        let end = (start + batch).min(n_units);
        let out = f(w, start..end);
        assert_eq!(
            out.len(),
            end - start,
            "batch fn must return one result per unit"
        );
        out
    });
    let mut merged = Vec::with_capacity(n_units);
    for part in parts {
        merged.extend(part);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_arrive_in_unit_order() {
        let _guard = obs::testing::lock();
        let out = par_map(97, 4, || (), |_, i| i * 3);
        assert_eq!(out, (0..97).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let _guard = obs::testing::lock();
        let run = |threads| {
            par_map(
                50,
                threads,
                || (),
                |_, i| {
                    let mut rng = geom::rng::sub_rng_indexed(42, "engine-test", i as u64);
                    rng.gen::<u64>()
                },
            )
        };
        let seq = run(1);
        assert_eq!(seq, run(2));
        assert_eq!(seq, run(8));
    }

    #[test]
    fn worker_state_is_per_thread() {
        let _guard = obs::testing::lock();
        // Each worker counts its own units; the sum covers every unit once.
        let counts: Vec<usize> = par_map(
            1000,
            3,
            || 0usize,
            |local, _| {
                *local += 1;
                *local
            },
        );
        assert_eq!(counts.len(), 1000);
    }

    #[test]
    fn batched_boundaries_are_thread_invariant() {
        let _guard = obs::testing::lock();
        // Each unit records which batch it ran in; the grouping must be a
        // pure function of (n_units, batch), not of the thread count.
        let run = |threads| {
            par_map_batched(
                103,
                threads,
                16,
                || (),
                |_, range| {
                    let start = range.start;
                    range.map(|i| (i, start)).collect()
                },
            )
        };
        let seq = run(1);
        assert_eq!(seq.len(), 103);
        for &(i, start) in &seq {
            assert_eq!(start, (i / 16) * 16);
        }
        assert_eq!(seq, run(2));
        assert_eq!(seq, run(8));
    }

    #[test]
    fn batched_handles_ragged_tail_and_zero() {
        let _guard = obs::testing::lock();
        let out = par_map_batched(10, 4, 3, || (), |_, r| r.map(|i| i * 2).collect());
        assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        let empty: Vec<u8> = par_map_batched(0, 4, 3, || (), |_, r| r.map(|_| 0).collect());
        assert!(empty.is_empty());
    }

    #[test]
    fn workers_publish_scheduler_telemetry() {
        let _guard = obs::testing::lock();
        let worker_ns = || {
            let snap = obs::global().snapshot();
            snap.counter("worker.busy_ns") + snap.counter("worker.idle_ns")
        };
        let before = worker_ns();
        par_map(64, 2, || (), |_, i| i);
        assert!(worker_ns() > before, "busy + idle time published");
        let snap = obs::global().snapshot();
        let ppm = snap.gauges["eval.worker_imbalance_ppm"];
        assert!((0..=1_000_000).contains(&ppm), "ppm in range: {ppm}");
    }

    #[test]
    fn zero_units_is_fine() {
        let _guard = obs::testing::lock();
        let out: Vec<u8> = par_map(0, 8, || (), |_, _| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let _guard = obs::testing::lock();
        let out = par_map(5, 0, || (), |_, i| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }
}
