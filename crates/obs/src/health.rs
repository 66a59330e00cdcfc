//! Link-health anomaly reporting.
//!
//! The CSS pipeline degrades in recognizable ways long before a selection
//! goes visibly wrong: the firmware clamps/quantizes SNR reports, probe
//! frames go missing, a reading disagrees with the Eq. 5 model at the
//! estimated direction, the export ring overflows. [`anomaly`] gives every
//! layer one cheap call to surface such findings:
//!
//! * a `health.<kind>` counter is always bumped (visible in registry
//!   snapshots and the trace's closing snapshot record), and
//! * while a sink records, an `"anomaly"` [`Event`] tagged with the owning
//!   trace and enclosing span is emitted, so `talon report` can attribute
//!   the finding to the exact CSS session (and probe batch) that caused it.
//!
//! The no-sink cost is one cached counter bump — the event, its fields and
//! the trace lookup only happen while tracing.

use crate::event::{Event, Fields};
use crate::metrics::Counter;
use crate::sync::lock;
use crate::{sink, trace};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// What one anomaly kind needs on every report: its `health.<kind>`
/// counter and stage name.
struct Handles {
    counter: Arc<Counter>,
    stage: &'static str,
}

/// The per-kind handles, built on a kind's first report. Kinds are
/// `&'static str` literals, a fixed set, so each entry and its stage name
/// are allocated once and live for the rest of the process.
fn handles(kind: &'static str) -> &'static Handles {
    static CACHE: OnceLock<Mutex<BTreeMap<&'static str, &'static Handles>>> = OnceLock::new();
    let mut cache = lock(CACHE.get_or_init(|| Mutex::new(BTreeMap::new())));
    cache.entry(kind).or_insert_with(|| {
        let stage = format!("{STAGE_PREFIX}{kind}");
        Box::leak(Box::new(Handles {
            counter: crate::global().counter(&stage),
            stage: Box::leak(stage.into_boxed_str()),
        }))
    })
}

/// Reports one link-health anomaly of `kind` (e.g. `"snr_clamped"`,
/// `"missing_probe"`, `"outlier_residual"`) with numeric context fields.
///
/// Always bumps the `health.<kind>` counter; while a sink records, also
/// emits an `"anomaly"` event at stage `health.<kind>`, tagged with the
/// current trace and enclosing span.
pub fn anomaly(kind: &'static str, fields: &[(&'static str, f64)]) {
    anomaly_n(kind, 1, fields);
}

/// Counter-only accounting: bumps `health.<kind>` by `n` without emitting
/// an anomaly event even while a sink records. This is the reporting path
/// for findings *about the sink itself* (e.g. `trace_write_failed`) —
/// routing an event through a sink that is failing to write would recurse.
pub fn tally(kind: &'static str, n: u64) {
    if n > 0 {
        handles(kind).counter.add(n);
    }
}

/// Like [`anomaly`], but accounts for `n` occurrences at once (e.g. the
/// malformed-line tally from one trace file). Bumps the counter by `n` and
/// emits a single event carrying `count` alongside `fields`.
pub fn anomaly_n(kind: &'static str, n: u64, fields: &[(&'static str, f64)]) {
    if n == 0 {
        return;
    }
    let handles = handles(kind);
    handles.counter.add(n);
    if !sink::sink_active() {
        return;
    }
    let (trace_id, parent_id) = trace::current_ids();
    let mut set = Fields::spare();
    for &(name, value) in fields {
        set.insert(name, value);
    }
    if n > 1 {
        set.insert("count", n as f64);
    }
    let event = Event::anomaly(crate::now_us(), handles.stage, trace_id, parent_id, set);
    sink::emit(&event);
    event.fields.recycle();
}

/// Stage-name prefix of anomaly events (`health.<kind>`).
pub const STAGE_PREFIX: &str = "health.";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn anomaly_bumps_counter_and_tags_the_trace() {
        let _guard = crate::testing::lock();
        let mem = Arc::new(MemorySink::new());
        sink::set_sink(mem.clone());
        let before = crate::global().snapshot().counter("health.test_kind");
        let span_ids = {
            let s = crate::span!("health.test.session");
            anomaly("test_kind", &[("snr_db", -8.0)]);
            s.ids().expect("recording")
        };
        sink::clear_sink();
        let after = crate::global().snapshot().counter("health.test_kind");
        assert_eq!(after, before + 1);
        let events = mem.take();
        let anom = events
            .iter()
            .find(|e| e.kind == "anomaly")
            .expect("anomaly event emitted");
        assert_eq!(anom.stage, "health.test_kind");
        assert_eq!(anom.trace_id, span_ids.trace_id);
        assert_eq!(anom.parent_id, span_ids.span_id);
        assert_eq!(anom.field("snr_db"), Some(-8.0));
    }

    #[test]
    fn no_sink_means_counter_only() {
        let _guard = crate::testing::lock();
        sink::clear_sink();
        let before = crate::global().snapshot().counter("health.silent_kind");
        anomaly("silent_kind", &[("x", 1.0)]);
        assert_eq!(
            crate::global().snapshot().counter("health.silent_kind"),
            before + 1
        );
    }
}
