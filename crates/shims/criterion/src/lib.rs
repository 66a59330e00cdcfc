//! Offline stand-in for `criterion`.
//!
//! Provides the harness surface the workspace's benches use (`Criterion`,
//! `benchmark_group`, `bench_with_input`, `iter_batched`, `BenchmarkId`,
//! `Throughput`, `criterion_group!` / `criterion_main!`) with a simple
//! wall-clock runner: each benchmark is warmed up briefly, then timed in
//! batches until a fixed measurement budget elapses, and the mean ns/iter
//! is printed.
//!
//! There is no statistical analysis, no HTML report, and no saved baseline.
//! `CRITERION_QUICK=1` shrinks the budgets for smoke runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

fn budget() -> (Duration, Duration) {
    if std::env::var_os("CRITERION_QUICK").is_some() {
        (Duration::from_millis(20), Duration::from_millis(100))
    } else {
        (Duration::from_millis(200), Duration::from_secs(1))
    }
}

/// Measures closures passed to [`Bencher::iter`].
pub struct Bencher {
    total: Duration,
    iters: u64,
}

impl Bencher {
    /// Times `routine`, batching calls until the measurement budget is spent.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let (warm, measure) = budget();

        // Warm-up: also estimates a batch size targeting ~1ms per batch so
        // the Instant overhead is amortised for sub-microsecond routines.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < warm {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm.as_nanos() as u64 / warm_iters.max(1);
        let batch = (1_000_000 / per_iter.max(1)).clamp(1, 1 << 20);

        let start = Instant::now();
        let mut iters: u64 = 0;
        while start.elapsed() < measure {
            for _ in 0..batch {
                black_box(routine());
            }
            iters += batch;
        }
        self.total = start.elapsed();
        self.iters = iters;
    }

    /// Times `routine` on inputs made by `setup`. Inputs are made 16 at a
    /// time before the batch is timed, and outputs are dropped after it, so
    /// neither `setup` nor the drops count.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let (warm, measure) = budget();
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
        while warm_time < warm {
            warm_time += timed_batch();
        }
        let mut total = Duration::ZERO;
        let mut iters: u64 = 0;
        while total < measure {
            total += timed_batch();
            iters += INPUT_BATCH;
        }
        self.total = total;
        self.iters = iters;
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
    let mut b = Bencher {
        total: Duration::ZERO,
        iters: 0,
    };
    f(&mut b);
    if b.iters == 0 {
        println!("{label:<40} (no iterations recorded)");
        return;
    }
    let ns = b.total.as_nanos() as f64 / b.iters as f64;
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

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 7).to_string(), "f/7");
        assert_eq!(BenchmarkId::from_parameter(9).to_string(), "9");
    }
}
