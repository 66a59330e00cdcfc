//! Trace events: the unit written to sinks and to trace files.

use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// One trace record.
///
/// JSONL export schema (one object per line):
/// `{"ts_us":12,"kind":"span","stage":"css.estimate","dur_us":34,
///   "trace_id":3,"span_id":2,"parent_id":1,"fields":{"probes":14.0}}`
///
/// `trace_id`/`span_id`/`parent_id` carry the causal tree: all records of
/// one CSS session (or one eval work unit) share a `trace_id`, spans link
/// to their enclosing span via `parent_id` (0 = trace root), and marks /
/// anomalies carry the id of the span they occurred under in `parent_id`
/// with `span_id` 0. Traces written before the hierarchy existed
/// deserialize with all three ids 0.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Event {
    /// Microseconds since trace start (process clock origin).
    pub ts_us: u64,
    /// Record kind: `"span"` for timed stages, `"mark"` for point events,
    /// `"anomaly"` for link-health findings.
    pub kind: String,
    /// Stage name, dot-separated by layer (e.g. `sls.run`, `wil.sweep`).
    pub stage: String,
    /// Span duration in microseconds (0 for marks and anomalies).
    pub dur_us: u64,
    /// Trace this record belongs to (0 = untraced).
    pub trace_id: u64,
    /// The span's own id within the trace (0 for marks and anomalies).
    pub span_id: u64,
    /// Id of the enclosing span (0 = trace root / no enclosing span).
    pub parent_id: u64,
    /// Numeric attributes attached by the instrumented code.
    pub fields: BTreeMap<String, f64>,
}

impl Event {
    /// A completed span record (untraced; see [`Event::with_ids`]).
    pub fn span(ts_us: u64, stage: &str, dur_us: u64, fields: BTreeMap<String, f64>) -> Self {
        Event {
            ts_us,
            kind: "span".into(),
            stage: stage.into(),
            dur_us,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            fields,
        }
    }

    /// An instantaneous point event.
    pub fn mark(ts_us: u64, stage: &str, fields: BTreeMap<String, f64>) -> Self {
        Event {
            ts_us,
            kind: "mark".into(),
            stage: stage.into(),
            dur_us: 0,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            fields,
        }
    }

    /// A link-health anomaly, tagged with the owning trace and span.
    pub fn anomaly(
        ts_us: u64,
        stage: &str,
        trace_id: u64,
        parent_id: u64,
        fields: BTreeMap<String, f64>,
    ) -> Self {
        Event {
            ts_us,
            kind: "anomaly".into(),
            stage: stage.into(),
            dur_us: 0,
            trace_id,
            span_id: 0,
            parent_id,
            fields,
        }
    }

    /// Stamps the causal-tree ids (builder style).
    pub fn with_ids(mut self, trace_id: u64, span_id: u64, parent_id: u64) -> Self {
        self.trace_id = trace_id;
        self.span_id = span_id;
        self.parent_id = parent_id;
        self
    }

    /// Field value, if present.
    pub fn field(&self, name: &str) -> Option<f64> {
        self.fields.get(name).copied()
    }
}

// Hand-written so trace files from before the causal hierarchy (no id
// fields) still deserialize, with ids defaulting to 0.
impl Deserialize for Event {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error("Event: expected map".into()))?;
        let opt_u64 = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        Ok(Event {
            ts_us: Deserialize::deserialize(serde::get_field(map, "ts_us", "Event")?)?,
            kind: Deserialize::deserialize(serde::get_field(map, "kind", "Event")?)?,
            stage: Deserialize::deserialize(serde::get_field(map, "stage", "Event")?)?,
            dur_us: Deserialize::deserialize(serde::get_field(map, "dur_us", "Event")?)?,
            trace_id: opt_u64("trace_id"),
            span_id: opt_u64("span_id"),
            parent_id: opt_u64("parent_id"),
            fields: Deserialize::deserialize(serde::get_field(map, "fields", "Event")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_round_trip() {
        let mut fields = BTreeMap::new();
        fields.insert("probes".to_string(), 14.0);
        fields.insert("margin_db".to_string(), 2.5);
        let ev = Event::span(12, "css.estimate", 34, fields).with_ids(7, 3, 1);
        let json = serde::Serialize::serialize(&ev).to_json();
        assert!(json.contains("\"kind\":\"span\""), "{json}");
        assert!(json.contains("\"trace_id\":7"), "{json}");
        let back: Event =
            serde::Deserialize::deserialize(&serde::Value::from_json(&json).unwrap()).unwrap();
        assert_eq!(back, ev);
        assert_eq!(back.field("probes"), Some(14.0));
    }

    #[test]
    fn pre_hierarchy_events_deserialize_with_zero_ids() {
        let legacy = r#"{"ts_us":5,"kind":"span","stage":"sls.run","dur_us":9,"fields":{}}"#;
        let ev: Event =
            serde::Deserialize::deserialize(&serde::Value::from_json(legacy).unwrap()).unwrap();
        assert_eq!((ev.trace_id, ev.span_id, ev.parent_id), (0, 0, 0));
        assert_eq!(ev.stage, "sls.run");
    }

    #[test]
    fn anomaly_constructor_tags_the_owning_trace() {
        let ev = Event::anomaly(9, "health.missing_probe", 4, 2, BTreeMap::new());
        assert_eq!(ev.kind, "anomaly");
        assert_eq!(ev.trace_id, 4);
        assert_eq!(ev.parent_id, 2);
        assert_eq!(ev.span_id, 0);
        assert_eq!(ev.dur_us, 0);
    }
}
