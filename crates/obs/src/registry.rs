//! The metric registry: named counters/gauges/histograms plus snapshots.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A set of named metrics.
///
/// Lookup takes a short mutex; instrumented code should look up once and
/// hold the returned `Arc` (updates are lock-free atomics).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        // get-before-entry avoids allocating the name on the hot path.
        if let Some(c) = map.get(name) {
            return c.clone();
        }
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock();
        if let Some(g) = map.get(name) {
            return g.clone();
        }
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        if let Some(h) = map.get(name) {
            return h.clone();
        }
        map.entry(name.to_string()).or_default().clone()
    }

    /// A serializable point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Drops every registered metric (intended for test isolation).
    pub fn clear(&self) {
        self.counters.lock().clear();
        self.gauges.lock().clear();
        self.histograms.lock().clear();
    }
}

/// Serializable point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram distributions by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value, defaulting to 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_are_shared_by_name() {
        let reg = Registry::new();
        reg.counter("a").inc();
        reg.counter("a").add(2);
        reg.counter("b").inc();
        reg.gauge("g").set(7);
        reg.histogram("h").record(100);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), 3);
        assert_eq!(snap.counter("b"), 1);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauges["g"], 7);
        assert_eq!(snap.histograms["h"].count, 1);
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let reg = Registry::new();
        reg.counter("css.estimates").add(5);
        reg.gauge("wil.ring.occupancy").set(12);
        reg.histogram("sls.run.dur_us").record(1500);
        let snap = reg.snapshot();
        let json = serde::Serialize::serialize(&snap).to_json();
        let back: Snapshot =
            serde::Deserialize::deserialize(&serde::Value::from_json(&json).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn clear_resets_everything() {
        let reg = Registry::new();
        reg.counter("x").inc();
        reg.clear();
        assert_eq!(reg.snapshot().counters.len(), 0);
    }
}
