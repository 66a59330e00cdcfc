//! Trace events: the unit written to sinks and to trace files.

use serde::{Serialize, Value};
use std::borrow::Cow;
use std::cell::Cell;

/// A kind, stage or field name: borrowed for the `&'static str` names
/// instrumented code writes, owned for names decoded from a trace file.
pub type Name = Cow<'static, str>;

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
/// with `span_id` 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since trace start (process clock origin).
    pub ts_us: u64,
    /// Record kind: `"span"` for timed stages, `"mark"` for point events,
    /// `"anomaly"` for link-health findings.
    pub kind: Name,
    /// Stage name, dot-separated by layer (e.g. `sls.run`, `wil.sweep`).
    pub stage: Name,
    /// Span duration in microseconds (0 for marks and anomalies).
    pub dur_us: u64,
    /// Trace this record belongs to (0 = untraced).
    pub trace_id: u64,
    /// The span's own id within the trace (0 for marks and anomalies).
    pub span_id: u64,
    /// Id of the enclosing span (0 = trace root / no enclosing span).
    pub parent_id: u64,
    /// Numeric attributes attached by the instrumented code.
    pub fields: Fields,
}

impl Event {
    /// A completed span record (untraced; see [`Event::with_ids`]).
    pub fn span(ts_us: u64, stage: impl Into<Name>, dur_us: u64, fields: Fields) -> Self {
        Event {
            ts_us,
            kind: Cow::Borrowed("span"),
            stage: stage.into(),
            dur_us,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            fields,
        }
    }

    /// An instantaneous point event.
    pub fn mark(ts_us: u64, stage: impl Into<Name>, fields: Fields) -> Self {
        Event {
            kind: Cow::Borrowed("mark"),
            ..Event::span(ts_us, stage, 0, fields)
        }
    }

    /// A link-health anomaly, tagged with the owning trace and span.
    pub fn anomaly(
        ts_us: u64,
        stage: impl Into<Name>,
        trace_id: u64,
        parent_id: u64,
        fields: Fields,
    ) -> Self {
        Event {
            kind: Cow::Borrowed("anomaly"),
            ..Event::span(ts_us, stage, 0, fields).with_ids(trace_id, 0, parent_id)
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
        self.fields.get(name)
    }
}

/// An event's numeric fields: name-sorted with unique names, so every
/// encoder writes them in one order whatever order they were attached in.
/// Inserting a name that is already present replaces its value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fields(Vec<(Name, f64)>);

thread_local! {
    /// The field buffer [`Fields::spare`] lends and [`Fields::recycle`]
    /// takes back, so emitting an event allocates nothing once warm.
    static SPARE: Cell<Vec<(Name, f64)>> = const { Cell::new(Vec::new()) };
}

impl Fields {
    /// No fields.
    pub const fn new() -> Self {
        Fields(Vec::new())
    }

    /// An empty set backed by this thread's reused buffer: pair with
    /// [`Fields::recycle`] once the event holding it is emitted.
    pub(crate) fn spare() -> Self {
        Fields(SPARE.with(Cell::take))
    }

    /// Returns the buffer to this thread for the next [`Fields::spare`].
    pub(crate) fn recycle(mut self) {
        self.0.clear();
        SPARE.with(|spare| spare.set(self.0));
    }

    /// Sets `name` to `value`, keeping the names sorted.
    pub fn insert(&mut self, name: impl Into<Name>, value: f64) {
        let name = name.into();
        match self
            .0
            .binary_search_by(|(k, _)| k.as_ref().cmp(name.as_ref()))
        {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (name, value)),
        }
    }

    /// Appends `name` = `value`. The caller guarantees `name` sorts after
    /// every name present; anything else breaks the order invariant.
    pub(crate) fn push_sorted(&mut self, name: Name, value: f64) {
        debug_assert!(self.0.last().is_none_or(|(k, _)| *k < name));
        self.0.push((name, value));
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .binary_search_by(|(k, _)| k.as_ref().cmp(name))
            .ok()
            .map(|i| self.0[i].1)
    }

    /// `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no fields.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Fields from `(name, value)` pairs read in any order (a trace file's,
    /// say): sorted, and the last value wins for a repeated name. One
    /// allocation for the set; none for the sort.
    pub(crate) fn from_unsorted(mut pairs: Vec<(Name, f64)>) -> Self {
        // Stable, so repeats stay in reading order for the merge below.
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|later, kept| {
            let repeat = later.0 == kept.0;
            if repeat {
                kept.1 = later.1;
            }
            repeat
        });
        Fields(pairs)
    }
}

impl<N: Into<Name>> FromIterator<(N, f64)> for Fields {
    fn from_iter<I: IntoIterator<Item = (N, f64)>>(iter: I) -> Self {
        Fields::from_unsorted(iter.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl Serialize for Fields {
    fn serialize(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.serialize()))
                .collect(),
        )
    }
}

impl Serialize for Event {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("ts_us".into(), Value::U64(self.ts_us)),
            ("kind".into(), Value::Str(self.kind.to_string())),
            ("stage".into(), Value::Str(self.stage.to_string())),
            ("dur_us".into(), Value::U64(self.dur_us)),
            ("trace_id".into(), Value::U64(self.trace_id)),
            ("span_id".into(), Value::U64(self.span_id)),
            ("parent_id".into(), Value::U64(self.parent_id)),
            ("fields".into(), self.fields.serialize()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anomaly_constructor_tags_the_owning_trace() {
        let ev = Event::anomaly(9, "health.missing_probe", 4, 2, Fields::new());
        assert_eq!(ev.kind, "anomaly");
        assert_eq!(ev.trace_id, 4);
        assert_eq!(ev.parent_id, 2);
        assert_eq!(ev.span_id, 0);
        assert_eq!(ev.dur_us, 0);
    }
}
