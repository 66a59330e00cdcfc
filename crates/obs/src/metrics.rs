//! Metric primitives: lock-free counters, gauges, and log-scale histograms.

use serde::{Serialize, Value};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (occupancy, last-seen sector, ...).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the current value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log-scale buckets: one per power of two of `u64`, plus a
/// zero bucket at index 0.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A histogram over `u64` samples with fixed power-of-two buckets.
///
/// Bucket 0 holds exact zeros; bucket `i >= 1` holds samples in
/// `[2^(i-1), 2^i)`. Recording is a single relaxed atomic add, so the
/// histogram is safe to share across threads and cheap enough to sit on
/// hot paths (the no-op-sink overhead budget in `crates/bench/benches/obs.rs`
/// depends on this).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_index(sample: u64) -> usize {
        if sample == 0 {
            0
        } else {
            64 - sample.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&self, sample: u64) {
        self.buckets[Self::bucket_index(sample)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(sample, Ordering::Relaxed);
        self.max.fetch_max(sample, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let count = b.load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                let (lo, hi) = bucket_bounds(i);
                Some(Bucket { lo, hi, count })
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Inclusive lower / exclusive upper bound of bucket `i` (upper bound
/// saturates at `u64::MAX` for the top bucket).
fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 1),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (i - 1), 1 << i),
    }
}

/// One populated histogram bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Inclusive lower bound of the bucket.
    pub lo: u64,
    /// Exclusive upper bound (saturated for the top bucket).
    pub hi: u64,
    /// Samples that fell in `[lo, hi)`.
    pub count: u64,
}

/// Serializable point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest recorded sample.
    pub max: u64,
    /// Populated buckets, in ascending order.
    pub buckets: Vec<Bucket>,
}

impl Serialize for Bucket {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("lo".into(), self.lo.serialize()),
            ("hi".into(), self.hi.serialize()),
            ("count".into(), self.count.serialize()),
        ])
    }
}

impl Serialize for HistogramSnapshot {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("count".into(), self.count.serialize()),
            ("sum".into(), self.sum.serialize()),
            ("max".into(), self.max.serialize()),
            ("buckets".into(), self.buckets.serialize()),
        ])
    }
}

impl HistogramSnapshot {
    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in 0..=1) from the bucket midpoints.
    ///
    /// Resolution is one power of two, which is plenty for latency triage.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return b.lo + (b.hi - b.lo) / 2;
            }
        }
        self.max
    }

    /// Median estimate (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::new();
        for v in [0, 1, 1, 2, 3, 4, 900, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8);
        assert_eq!(snap.max, u64::MAX);
        let zero = snap.buckets.iter().find(|b| b.lo == 0).unwrap();
        assert_eq!(zero.count, 1);
        let ones = snap.buckets.iter().find(|b| b.lo == 1).unwrap();
        assert_eq!(ones.count, 2); // both exact 1s
        let pair = snap.buckets.iter().find(|b| b.lo == 2).unwrap();
        assert_eq!(pair.count, 2); // 2 and 3
        assert!(snap.buckets.iter().any(|b| b.lo == 512 && b.count == 1)); // 900
    }

    #[test]
    fn histogram_quantiles_track_distribution() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(100_000);
        let snap = h.snapshot();
        assert!(snap.quantile(0.5) < 20);
        assert_eq!(snap.p50(), snap.quantile(0.5));
        assert!(snap.p95() < 20, "95/100 samples are 10us");
        assert!(snap.p99() < 20, "99/100 samples are 10us");
        assert!(snap.quantile(0.999) > 50_000);
        assert!((snap.mean() - (99.0 * 10.0 + 100_000.0) / 100.0).abs() < 1e-9);
    }
}
