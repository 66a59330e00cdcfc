//! Offline stand-in for `criterion`.
//!
//! Provides the harness surface the workspace's benches use (`Criterion`,
//! `benchmark_group`, `bench_with_input`, `iter_batched`, `BenchmarkId`,
//! `Throughput`, `criterion_group!` / `criterion_main!`) with a simple
//! wall-clock runner: each benchmark is warmed up briefly, then timed in
//! batches (about 1 ms of calls for `iter`, 16 inputs for `iter_batched`)
//! until a fixed measurement budget elapses, and the median of the
//! per-batch ns/iter is printed, so a batch preempted on a shared host does
//! not move the figure.
//!
//! There is no other statistical analysis, no HTML report, and no saved
//! baseline. `CRITERION_QUICK=1` shrinks the budgets for smoke runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Timed work per sample: long enough to amortise the `Instant` overhead
/// for sub-microsecond routines.
const SAMPLE_TIME: Duration = Duration::from_millis(1);

/// Measures closures passed to [`Bencher::iter`].
pub struct Bencher {
    warm: Duration,
    measure: Duration,
    /// ns/iter of each timed sample.
    samples: Vec<f64>,
}

impl Bencher {
    /// A bencher on the default budgets, or the short ones when
    /// `CRITERION_QUICK` is set.
    fn new() -> Self {
        let (warm, measure) = if std::env::var_os("CRITERION_QUICK").is_some() {
            (Duration::from_millis(20), Duration::from_millis(100))
        } else {
            (Duration::from_millis(200), Duration::from_secs(1))
        };
        Bencher {
            warm,
            measure,
            samples: Vec::new(),
        }
    }

    /// Times `routine`, batching calls until the measurement budget is spent.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: also estimates a batch size lasting about one sample.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = self.warm.as_nanos() as u64 / warm_iters.max(1);
        let batch = (SAMPLE_TIME.as_nanos() as u64 / per_iter.max(1)).clamp(1, 1 << 20);

        let start = Instant::now();
        while start.elapsed() < self.measure {
            let batch_start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.record(batch_start.elapsed(), batch);
        }
    }

    /// Times `routine` on inputs made by `setup`. Inputs are made 16 at a
    /// time before the batch is timed, and outputs are dropped after it, so
    /// neither `setup` nor the drops count. Each batch is one sample.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut timed_batch = || {
            let inputs: Vec<I> = (0..INPUT_BATCH).map(|_| setup()).collect();
            let mut outputs = Vec::with_capacity(inputs.len());
            let start = Instant::now();
            for input in inputs {
                outputs.push(black_box(routine(input)));
            }
            start.elapsed()
        };

        let mut warm_time = Duration::ZERO;
        while warm_time < self.warm {
            warm_time += timed_batch();
        }
        let mut total = Duration::ZERO;
        while total < self.measure {
            let elapsed = timed_batch();
            total += elapsed;
            self.record(elapsed, INPUT_BATCH);
        }
    }

    fn record(&mut self, elapsed: Duration, iters: u64) {
        self.samples.push(elapsed.as_nanos() as f64 / iters as f64);
    }

    /// The median of the samples' ns/iter; `None` before any sample.
    fn ns_per_iter(&self) -> Option<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(sorted[n / 2]),
            _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
        }
    }
}

/// Inputs [`Bencher::iter_batched`] sets up per timed batch: few, so they
/// stay small in memory next to what the routine touches.
const INPUT_BATCH: u64 = 16;

/// How [`Bencher::iter_batched`] batches its inputs. The shim always sets
/// up 16 at a time, so the choice is accepted for compatibility.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Inputs are cheap to hold many of at once.
    SmallInput,
}

/// Identifies a parameterised benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id from the parameter value alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

fn run_one(label: &str, f: impl FnOnce(&mut Bencher), throughput: Option<Throughput>) {
    let mut b = Bencher::new();
    f(&mut b);
    let Some(ns) = b.ns_per_iter() else {
        println!("{label:<40} (no iterations recorded)");
        return;
    };
    let rate = match throughput {
        Some(Throughput::Bytes(n)) => {
            format!("  {:.1} MiB/s", n as f64 / (ns * 1e-9) / (1024.0 * 1024.0))
        }
        Some(Throughput::Elements(n)) => format!("  {:.0} elem/s", n as f64 / (ns * 1e-9)),
        None => String::new(),
    };
    println!("{label:<40} {ns:>12.1} ns/iter{rate}");
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for compatibility; the shim's budget is time-based.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the throughput annotation for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        run_one(&format!("{}/{}", self.name, id), f, self.throughput);
        self
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher, &I),
    {
        run_one(
            &format!("{}/{}", self.name, id),
            |b| f(b, input),
            self.throughput,
        );
        self
    }

    /// Ends the group (no-op; results print as they run).
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Runs one standalone benchmark.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        run_one(id, f, None);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            _parent: self,
        }
    }
}

/// Bundles benchmark functions under a group name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Generates `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_iterations() {
        std::env::set_var("CRITERION_QUICK", "1");
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| black_box(1u64 + 1)));
        let mut g = c.benchmark_group("grp");
        g.throughput(Throughput::Bytes(1024));
        g.bench_with_input(BenchmarkId::new("f", 3), &3u32, |b, &x| {
            b.iter(|| black_box(x * 2))
        });
        g.finish();
    }

    /// A bencher on short budgets, independent of `CRITERION_QUICK`.
    fn short_bencher() -> Bencher {
        Bencher {
            warm: Duration::from_millis(10),
            measure: Duration::from_millis(100),
            samples: Vec::new(),
        }
    }

    /// Runs `time` twice — once clean, once with a 500 ms sleep in one
    /// call after warm-up — and returns both figures and the slowest
    /// sample of the slowed run. Under a mean over the 100 ms budget the
    /// sleep would raise the figure about sixfold.
    fn clean_and_slowed(time: impl Fn(&mut Bencher, &mut dyn FnMut())) -> (f64, f64, f64) {
        // One timing comparison at a time, so the tests don't slow each
        // other's clean runs.
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        // Both runs read the clock on every call until the sleep, so they
        // time the same work; the clean run's threshold is never reached.
        let run = |sleep_after: Duration| {
            let mut b = short_bencher();
            let started = Instant::now();
            let mut slept = false;
            time(&mut b, &mut || {
                if !slept && started.elapsed() > sleep_after {
                    slept = true;
                    std::thread::sleep(Duration::from_millis(500));
                }
            });
            b
        };
        let clean = run(Duration::MAX);
        let slowed = run(Duration::from_millis(40));
        let worst = slowed.samples.iter().copied().fold(0.0, f64::max);
        (
            clean.ns_per_iter().unwrap(),
            slowed.ns_per_iter().unwrap(),
            worst,
        )
    }

    fn check_slow_batch_is_ignored((clean, slowed, worst): (f64, f64, f64)) {
        assert!(
            worst > 20.0 * slowed,
            "the slow batch was timed: {worst} ns"
        );
        assert!(
            slowed < 3.0 * clean,
            "one slow batch moved the figure: {clean} -> {slowed} ns/iter"
        );
    }

    #[test]
    fn one_slow_batch_does_not_move_iter() {
        check_slow_batch_is_ignored(clean_and_slowed(|b, hook| {
            b.iter(|| {
                hook();
                black_box((0..20u64).sum::<u64>())
            })
        }));
    }

    #[test]
    fn one_slow_batch_does_not_move_iter_batched() {
        check_slow_batch_is_ignored(clean_and_slowed(|b, hook| {
            b.iter_batched(
                || 20u64,
                |n| {
                    hook();
                    black_box((0..n).sum::<u64>())
                },
                BatchSize::SmallInput,
            )
        }));
    }

    #[test]
    fn median_of_even_and_odd_sample_counts() {
        let mut b = short_bencher();
        assert_eq!(b.ns_per_iter(), None);
        b.samples = vec![5.0, 1.0, 100.0];
        assert_eq!(b.ns_per_iter(), Some(5.0));
        b.samples.push(7.0);
        assert_eq!(b.ns_per_iter(), Some(6.0));
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 7).to_string(), "f/7");
        assert_eq!(BenchmarkId::from_parameter(9).to_string(), "9");
    }
}
