//! Dependency-light observability for the talon workspace.
//!
//! Layers, all usable independently:
//!
//! - **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) registered by name
//!   in the process-wide [`Registry`] (`obs::global()`), snapshottable to a
//!   serde-serializable [`Snapshot`].
//! - **Spans** ([`span!`]) — RAII stage timers feeding `<stage>.dur_us`
//!   histograms through a handle each call site resolves once and, when a
//!   sink is installed, emitting [`Event`]s with attached numeric fields.
//! - **Sinks** ([`EventSink`]) — no-op by default, [`MemorySink`] for tests,
//!   [`BinSink`] for `talon --trace <file>` capture in the CRC-framed
//!   [`binfmt`] format, the only format talon writes or reads;
//!   [`open_trace`] reads a file back for `talon report` / `profile`, and
//!   [`sink::record_line`] renders records as JSON Lines for the one-way
//!   `talon trace convert` export.
//! - **Traces** ([`trace`]) — recording spans carry
//!   `trace_id`/`span_id`/`parent_id` and form one causal tree per CSS
//!   session or eval work unit; [`TraceContext`] hands a trace across
//!   threads, and [`tree`] reconstructs/flattens the trees for
//!   `talon report --tree/--flame`.
//! - **Health** ([`health::anomaly`]) — link-health findings (clamped SNR,
//!   missing probes, outlier residuals) as counters plus trace-tagged
//!   anomaly events; [`monitor::QualityMonitor`] turns a link's SNR-loss
//!   and misselection streams into drift epochs.
//! - **Profiling** — `talon profile <trace>` replays a trace's decisions
//!   under a [`MemorySink`] and folds the replay's own span events with
//!   [`tree::folded_stacks`], the same exact self-time stacks
//!   `talon report --flame` prints.
//!
//! Everything is built on atomics and `parking_lot` locks; there are no
//! tracing/metrics framework dependencies. The no-sink fast path is one
//! relaxed atomic load, keeping instrumentation overhead in the noise
//! (see `crates/bench/benches/obs.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binfmt;
pub mod decision;
pub mod event;
pub mod health;
pub mod metrics;
pub mod monitor;
pub mod registry;
pub mod sink;
pub mod span;
pub mod trace;
pub mod tree;

pub use binfmt::{BinReader, BinSink, TraceRecord};
pub use decision::DecisionRecord;
pub use event::{Event, Fields};
pub use metrics::{Bucket, Counter, Gauge, Histogram, HistogramSnapshot};
pub use monitor::{DriftConfig, DriftDetector, QualityMonitor, QualitySummary};
pub use registry::{Registry, Snapshot};
pub use sink::{clear_sink, set_sink, sink_active, EventSink, MemorySink, NoopSink};
pub use span::{Span, Stage};
pub use trace::{
    current_context, current_ids, open_trace, reserve_trace_ids, with_context, Captured, Trace,
    TraceContext,
};

use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide metric registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Microseconds since the process trace clock started (first call).
pub fn now_us() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Shortcut: bump the global counter `name`.
pub fn counter(name: &str) -> std::sync::Arc<Counter> {
    global().counter(name)
}

/// Shortcut: the global gauge `name`.
pub fn gauge(name: &str) -> std::sync::Arc<Gauge> {
    global().gauge(name)
}

/// Shortcut: the global histogram `name`.
pub fn histogram(name: &str) -> std::sync::Arc<Histogram> {
    global().histogram(name)
}

/// Test support for code that installs global sinks.
pub mod testing {
    use parking_lot::{Mutex, MutexGuard};
    use std::sync::OnceLock;

    /// Serializes tests that install a global sink, so concurrently running
    /// `#[test]`s don't capture each other's events. Hold the guard for the
    /// whole test.
    pub fn lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        counter("obs.lib.test").add(2);
        assert!(global().snapshot().counter("obs.lib.test") >= 2);
    }

    #[test]
    fn now_us_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }

    #[test]
    fn bin_sink_round_trips_through_open_trace() {
        let _guard = testing::lock();
        let dir = std::env::temp_dir().join(format!("obs-lib-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.bin");

        let sink = std::sync::Arc::new(BinSink::create(&path).unwrap());
        set_sink(sink.clone());
        {
            let mut s = span!("obs.lib.trace");
            s.field("x", 1.5);
        }
        sink.write_snapshot(&global().snapshot());
        clear_sink();

        let trace = open_trace(&path).unwrap();
        assert_eq!(trace.skipped, 0);
        assert_eq!(trace.stage("obs.lib.trace").len(), 1);
        assert_eq!(trace.stage("obs.lib.trace")[0].field("x"), Some(1.5));
        let snap = trace.snapshot.expect("snapshot frame present");
        assert!(snap.histograms.contains_key("obs.lib.trace.dur_us"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
