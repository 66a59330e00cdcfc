//! The metric registry: named counters/gauges/histograms plus snapshots.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::sync::lock;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

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
        let mut map = lock(&self.counters);
        // get-before-entry avoids allocating the name on the hot path.
        if let Some(c) = map.get(name) {
            return c.clone();
        }
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock(&self.gauges);
        if let Some(g) = map.get(name) {
            return g.clone();
        }
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock(&self.histograms);
        if let Some(h) = map.get(name) {
            return h.clone();
        }
        map.entry(name.to_string()).or_default().clone()
    }

    /// A serializable point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Drops every registered metric (intended for test isolation).
    pub fn clear(&self) {
        lock(&self.counters).clear();
        lock(&self.gauges).clear();
        lock(&self.histograms).clear();
    }
}

/// Serializable point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram distributions by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Serialize for Snapshot {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("counters".into(), self.counters.serialize()),
            ("gauges".into(), self.gauges.serialize()),
            ("histograms".into(), self.histograms.serialize()),
        ])
    }
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
    fn clear_resets_everything() {
        let reg = Registry::new();
        reg.counter("x").inc();
        reg.clear();
        assert_eq!(reg.snapshot().counters.len(), 0);
    }
}
