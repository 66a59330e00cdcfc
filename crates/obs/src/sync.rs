//! Lock contention telemetry: a mutex wrapper that publishes labeled
//! `lock.*` series.
//!
//! [`TimedMutex`] wraps the workspace `parking_lot` mutex and counts
//! acquisitions, contended acquisitions (the fast `try_lock` missed), and
//! wait/hold times into log-histograms, all as labeled series
//! (`lock.acquisitions{lock="bin_sink"}`, …) in the global registry. The
//! wrapped lock is the real shared one: the global trace writer
//! ([`crate::BinSink`]).
//!
//! Cost model: the metric handles are resolved once at construction, so an
//! uncontended acquisition adds two counter/histogram atomics and two
//! `Instant` reads over the raw mutex (measured as
//! `timed_mutex_uncontended_ns` in `BENCH_obs.json`). Wait time is only
//! measured (second clock read pair) on the contended path.

use crate::labels::LabelSet;
use crate::metrics::{Counter, Histogram};
use parking_lot::{Mutex, MutexGuard};
use std::sync::Arc;
use std::time::Instant;

/// The metric handles behind one named lock.
#[derive(Debug)]
struct LockStats {
    acquisitions: Arc<Counter>,
    contended: Arc<Counter>,
    wait_ns: Arc<Histogram>,
    hold_ns: Arc<Histogram>,
}

impl LockStats {
    /// Registers (or re-resolves) the `lock.*{lock="name"}` series.
    fn for_name(name: &str) -> LockStats {
        let labels = LabelSet::from_pairs(&[("lock", name)]);
        LockStats {
            acquisitions: crate::counter_with("lock.acquisitions", &labels),
            contended: crate::counter_with("lock.contended", &labels),
            wait_ns: crate::histogram_with("lock.wait_ns", &labels),
            hold_ns: crate::histogram_with("lock.hold_ns", &labels),
        }
    }
}

/// A `parking_lot::Mutex` that reports acquisition/contention/hold
/// telemetry under a static lock name. API mirrors the raw mutex.
#[derive(Debug)]
pub struct TimedMutex<T: ?Sized> {
    stats: LockStats,
    inner: Mutex<T>,
}

impl<T> TimedMutex<T> {
    /// A telemetered mutex named `name` (the `lock` label value).
    pub fn new(name: &str, value: T) -> Self {
        TimedMutex {
            stats: LockStats::for_name(name),
            inner: Mutex::new(value),
        }
    }
}

impl<T: ?Sized> TimedMutex<T> {
    /// Acquires the lock, recording the telemetry. Uncontended
    /// acquisitions skip the wait-time measurement entirely.
    pub fn lock(&self) -> TimedMutexGuard<'_, T> {
        self.stats.acquisitions.inc();
        let guard = match self.inner.try_lock() {
            Some(guard) => guard,
            None => {
                self.stats.contended.inc();
                let waiting = Instant::now();
                let guard = self.inner.lock();
                self.stats
                    .wait_ns
                    .record(waiting.elapsed().as_nanos() as u64);
                guard
            }
        };
        TimedMutexGuard {
            stats: &self.stats,
            held_since: Instant::now(),
            guard,
        }
    }
}

/// RAII guard for a [`TimedMutex`]; records the hold time on drop.
#[derive(Debug)]
pub struct TimedMutexGuard<'a, T: ?Sized> {
    stats: &'a LockStats,
    held_since: Instant,
    guard: MutexGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for TimedMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for TimedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for TimedMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.stats
            .hold_ns
            .record(self.held_since.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn series(name: &str, lock: &str) -> String {
        LabelSet::from_pairs(&[("lock", lock)]).qualify(name)
    }

    #[test]
    fn uncontended_lock_counts_acquisitions_and_hold() {
        let m = TimedMutex::new("sync_test_quiet", 0u64);
        for _ in 0..5 {
            *m.lock() += 1;
        }
        assert_eq!(*m.lock(), 5);
        let snap = crate::global().snapshot();
        assert_eq!(
            snap.counter(&series("lock.acquisitions", "sync_test_quiet")),
            6
        );
        assert_eq!(
            snap.counter(&series("lock.contended", "sync_test_quiet")),
            0
        );
        assert_eq!(
            snap.histograms[&series("lock.hold_ns", "sync_test_quiet")].count,
            6
        );
        // Wait histogram only fills on contention.
        assert_eq!(
            snap.histograms
                .get(&series("lock.wait_ns", "sync_test_quiet"))
                .map_or(0, |h| h.count),
            0
        );
    }

    #[test]
    fn contended_lock_records_wait_time() {
        let m = Arc::new(TimedMutex::new("sync_test_contended", ()));
        let held = Arc::clone(&m);
        let guard = m.lock();
        let waiter = std::thread::spawn(move || {
            let _g = held.lock(); // blocks until the main thread releases
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(guard);
        waiter.join().expect("waiter joins");
        let snap = crate::global().snapshot();
        assert!(snap.counter(&series("lock.contended", "sync_test_contended")) >= 1);
        let wait = &snap.histograms[&series("lock.wait_ns", "sync_test_contended")];
        assert!(wait.count >= 1);
        assert!(
            wait.max >= 1_000_000,
            "waiter blocked ~20ms but max wait was {} ns",
            wait.max
        );
    }
}
