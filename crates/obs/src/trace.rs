//! Hierarchical causal tracing: trace identity, the per-thread span stack,
//! and cross-thread context propagation.
//!
//! A **trace** groups every span and anomaly of one causal chain — one CSS
//! session (probe batch → estimate → sector select) or one eval work unit.
//! Within a trace, spans carry `span_id`/`parent_id` links that reconstruct
//! the tree in `talon report --tree/--flame`.
//!
//! Three propagation mechanisms cooperate:
//!
//! 1. **Thread-local span stack.** A recording [`crate::Span`] pushes its id
//!    on start and pops on drop; nested spans parent under the top of the
//!    stack. A recording span started with no active trace *auto-roots*: it
//!    allocates a fresh trace id and becomes that trace's root, so
//!    `talon sls --trace` sessions form rooted trees without any wiring.
//! 2. **Explicit [`TraceContext`] handoff.** Parallel engines capture or
//!    construct a context on the coordinating thread and enter it on worker
//!    threads ([`with_context`]), so work executed elsewhere still parents
//!    correctly. Span ids are allocated from a per-trace atomic carried by
//!    the context, keeping ids deterministic for single-threaded traces
//!    regardless of which thread runs them.
//! 3. **Per-thread capture buffers.** [`with_context`] also installs a
//!    thread-local event buffer: events emitted inside the scope go to the
//!    buffer instead of the global sink (zero cross-thread contention) and
//!    are returned to the caller, which emits them in deterministic order —
//!    `eval::engine::par_map` merges unit buffers in unit-index order, so
//!    the trace stream is identical at any thread count.

use crate::decision::DecisionRecord;
use crate::event::Event;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One record routed into a capture scope: events and decision records
/// share the buffer so their relative order survives the deterministic
/// replay in parallel engines.
#[derive(Debug, Clone, PartialEq)]
pub enum Captured {
    /// A span / mark / anomaly event.
    Event(Event),
    /// A decision-provenance record (boxed: ~4× the size of an event,
    /// and rare relative to span events in a capture buffer).
    Decision(Box<DecisionRecord>),
}

impl Captured {
    /// The event, if this is one.
    pub fn as_event(&self) -> Option<&Event> {
        match self {
            Captured::Event(e) => Some(e),
            Captured::Decision(_) => None,
        }
    }

    /// Forwards this record to the installed sink (the merge step of
    /// parallel engines, after ordering the capture deterministically).
    pub fn forward_to_sink(&self) {
        match self {
            Captured::Event(e) => crate::sink::emit(e),
            Captured::Decision(d) => crate::sink::emit_decision(d),
        }
    }
}

/// Process-wide trace-id allocator. Ids are allocated on coordinating
/// threads only (sequential program order), so they are deterministic for a
/// given workload regardless of worker-thread count.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Reserves a contiguous block of `n` trace ids and returns the first.
///
/// Parallel engines call this once per fan-out on the coordinating thread
/// and assign `base + unit_index` to each work unit, which keeps unit →
/// trace-id assignment independent of scheduling.
pub fn reserve_trace_ids(n: u64) -> u64 {
    NEXT_TRACE_ID.fetch_add(n.max(1), Ordering::Relaxed)
}

/// A handle to one trace, safe to send across threads.
///
/// Cloning shares the span-id allocator, so spans opened through any clone
/// of the context get distinct ids within the trace.
#[derive(Debug, Clone)]
pub struct TraceContext {
    trace_id: u64,
    /// Span under which spans opened in this context nest (0 = root level).
    parent_span: u64,
    /// Per-trace span-id allocator.
    next_span: Arc<AtomicU64>,
}

impl TraceContext {
    /// Starts a brand-new trace with a freshly allocated id.
    pub fn fresh() -> Self {
        Self::for_trace_id(reserve_trace_ids(1))
    }

    /// A root-level context for an explicit trace id (see
    /// [`reserve_trace_ids`] for how parallel engines pick ids).
    pub fn for_trace_id(trace_id: u64) -> Self {
        TraceContext {
            trace_id,
            parent_span: 0,
            next_span: Arc::new(AtomicU64::new(1)),
        }
    }

    /// The trace id this context belongs to.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The span new work in this context parents under (0 = root).
    pub fn parent_span(&self) -> u64 {
        self.parent_span
    }

    fn alloc_span(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }
}

/// The thread's active trace: context plus the open-span stack.
struct ActiveTrace {
    ctx: TraceContext,
    /// Open span ids, innermost last.
    stack: Vec<u64>,
    /// Whether the trace was installed by a scope guard (kept alive on an
    /// empty stack) or auto-rooted by a span (discarded when its root pops).
    ambient: bool,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
    static CAPTURE: RefCell<Option<Vec<Captured>>> = const { RefCell::new(None) };
}

/// Identity assigned to one recording span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanIds {
    /// Trace the span belongs to.
    pub trace_id: u64,
    /// The span's own id (unique within the trace).
    pub span_id: u64,
    /// Enclosing span id, 0 for trace roots.
    pub parent_id: u64,
}

/// Opens a span on the current thread: nests under the innermost open span,
/// or under the ambient context's parent, or auto-roots a fresh trace.
/// Returns the ids to stamp on the span's event. Callers must pair this
/// with [`end_span`].
pub(crate) fn begin_span() -> SpanIds {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let tt = slot.get_or_insert_with(|| ActiveTrace {
            ctx: TraceContext::fresh(),
            stack: Vec::new(),
            ambient: false,
        });
        let parent_id = tt.stack.last().copied().unwrap_or(tt.ctx.parent_span);
        let span_id = tt.ctx.alloc_span();
        tt.stack.push(span_id);
        SpanIds {
            trace_id: tt.ctx.trace_id,
            span_id,
            parent_id,
        }
    })
}

/// Closes the span `span_id` opened by [`begin_span`]. Tolerates
/// out-of-LIFO drops (the id is removed wherever it sits); an auto-rooted
/// trace is discarded once its last open span closes.
pub(crate) fn end_span(span_id: u64) {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let Some(tt) = slot.as_mut() else { return };
        match tt.stack.last() {
            Some(&top) if top == span_id => {
                tt.stack.pop();
            }
            _ => {
                if let Some(pos) = tt.stack.iter().rposition(|&id| id == span_id) {
                    tt.stack.remove(pos);
                }
            }
        }
        if tt.stack.is_empty() && !tt.ambient {
            *slot = None;
        }
    })
}

/// The ids a point event (mark / anomaly) emitted right now should carry:
/// `(trace_id, parent_span_id)`. `(0, 0)` when no trace is active.
pub fn current_ids() -> (u64, u64) {
    ACTIVE.with(|a| {
        a.borrow().as_ref().map_or((0, 0), |tt| {
            (
                tt.ctx.trace_id,
                tt.stack.last().copied().unwrap_or(tt.ctx.parent_span),
            )
        })
    })
}

/// A context for continuing the current trace elsewhere: same trace id,
/// parented under the innermost open span. `None` when no trace is active.
pub fn current_context() -> Option<TraceContext> {
    ACTIVE.with(|a| {
        a.borrow().as_ref().map(|tt| TraceContext {
            trace_id: tt.ctx.trace_id,
            parent_span: tt.stack.last().copied().unwrap_or(tt.ctx.parent_span),
            next_span: Arc::clone(&tt.ctx.next_span),
        })
    })
}

/// Runs `f` with `ctx` installed as the thread's ambient trace and a
/// thread-local capture buffer collecting every event and decision record
/// emitted inside. Returns `f`'s result and the captured records, which
/// the caller is responsible for forwarding to the sink (typically after a
/// deterministic merge — see `eval::engine::par_map`).
///
/// The previous ambient trace and capture buffer (if any) are restored on
/// exit, so scopes nest.
pub fn with_context<T>(ctx: &TraceContext, f: impl FnOnce() -> T) -> (T, Vec<Captured>) {
    let prev_active = ACTIVE.with(|a| {
        a.borrow_mut().replace(ActiveTrace {
            ctx: ctx.clone(),
            stack: Vec::new(),
            ambient: true,
        })
    });
    let prev_capture = CAPTURE.with(|c| c.borrow_mut().replace(Vec::new()));
    let result = f();
    let events = CAPTURE
        .with(|c| std::mem::replace(&mut *c.borrow_mut(), prev_capture))
        .unwrap_or_default();
    ACTIVE.with(|a| *a.borrow_mut() = prev_active);
    (result, events)
}

/// Routes `event` into the thread's capture buffer if one is installed.
/// Returns whether the event was captured (and must not reach the sink).
pub(crate) fn capture_push(event: &Event) -> bool {
    CAPTURE.with(|c| {
        if let Some(buf) = c.borrow_mut().as_mut() {
            buf.push(Captured::Event(event.clone()));
            true
        } else {
            false
        }
    })
}

/// Routes `record` into the thread's capture buffer if one is installed.
/// Returns whether the record was captured (and must not reach the sink).
pub(crate) fn capture_push_decision(record: &DecisionRecord) -> bool {
    CAPTURE.with(|c| {
        if let Some(buf) = c.borrow_mut().as_mut() {
            buf.push(Captured::Decision(Box::new(record.clone())));
            true
        } else {
            false
        }
    })
}

// ── Reading a trace file back ───────────────────────────────────────────

/// Everything read from a trace file.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Span, mark, and anomaly events, in file order.
    pub events: Vec<Event>,
    /// Decision-provenance records, in file order.
    pub decisions: Vec<DecisionRecord>,
    /// The final registry snapshot, when the trace was closed cleanly.
    pub snapshot: Option<crate::registry::Snapshot>,
    /// Damaged frames that were skipped.
    pub skipped: usize,
}

impl Trace {
    /// Events for one stage, in order.
    pub fn stage(&self, stage: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.stage == stage).collect()
    }

    /// Distinct stage names, in first-seen order.
    pub fn stages(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for e in &self.events {
            if !out.contains(&e.stage) {
                out.push(e.stage.clone());
            }
        }
        out
    }

    /// Files one record into the matching collection.
    pub(crate) fn push(&mut self, record: crate::binfmt::TraceRecord) {
        use crate::binfmt::TraceRecord;
        match record {
            TraceRecord::Event(e) => self.events.push(e),
            TraceRecord::Decision(d) => self.decisions.push(*d),
            TraceRecord::Snapshot(s) => self.snapshot = Some(s),
        }
    }
}

/// Reads a whole binary trace file into a [`Trace`]. Skips-and-counts
/// damaged frames (bumping `health.trace_corrupt` by the skip count);
/// errors on unreadable files and newer-schema traces. `talon report`,
/// `talon replay`, `talon profile` and `quality_from_trace` all read
/// through this one front door; stream with
/// [`crate::binfmt::FileBinReader`] when the trace may not fit in memory
/// (see `eval::soak`).
pub fn open_trace(path: impl AsRef<std::path::Path>) -> Result<Trace, String> {
    let mut reader = crate::binfmt::FileBinReader::open(path)?;
    let mut trace = Trace::default();
    while let Some(record) = reader.next_record()? {
        trace.push(record);
    }
    trace.skipped = reader.skipped();
    if trace.skipped > 0 {
        crate::health::anomaly_n("trace_corrupt", trace.skipped as u64, &[]);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{self, MemorySink};
    use crate::span;

    #[test]
    fn nested_spans_share_a_trace_and_parent_correctly() {
        let _guard = crate::testing::lock();
        let mem = std::sync::Arc::new(MemorySink::new());
        sink::set_sink(mem.clone());
        {
            let _outer = span("trace.test.outer");
            let _inner = span("trace.test.inner");
        }
        sink::clear_sink();
        let events = mem.take();
        assert_eq!(events.len(), 2);
        // Drop order: inner first.
        let inner = &events[0];
        let outer = &events[1];
        assert_eq!(inner.stage, "trace.test.inner");
        assert_eq!(outer.stage, "trace.test.outer");
        assert_eq!(inner.trace_id, outer.trace_id);
        assert_ne!(inner.trace_id, 0);
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(outer.parent_id, 0, "outer span is the trace root");
    }

    #[test]
    fn sequential_roots_get_distinct_traces() {
        let _guard = crate::testing::lock();
        let mem = std::sync::Arc::new(MemorySink::new());
        sink::set_sink(mem.clone());
        drop(span("trace.test.a"));
        drop(span("trace.test.b"));
        sink::clear_sink();
        let events = mem.take();
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].trace_id, events[1].trace_id);
        assert_eq!(events[0].parent_id, 0);
        assert_eq!(events[1].parent_id, 0);
    }

    #[test]
    fn with_context_captures_and_parents_under_the_handoff() {
        let _guard = crate::testing::lock();
        let mem = std::sync::Arc::new(MemorySink::new());
        sink::set_sink(mem.clone());
        let ctx = TraceContext::for_trace_id(777);
        let ((), captured) = with_context(&ctx, || {
            let _s = span("trace.test.unit");
        });
        sink::clear_sink();
        assert!(mem.take().is_empty(), "captured events bypass the sink");
        assert_eq!(captured.len(), 1);
        let event = captured[0].as_event().expect("an event was captured");
        assert_eq!(event.trace_id, 777);
        assert_eq!(event.parent_id, 0);
        assert_eq!(event.span_id, 1);
    }

    #[test]
    fn capture_scope_interleaves_decisions_with_events() {
        let _guard = crate::testing::lock();
        let mem = std::sync::Arc::new(MemorySink::new());
        sink::set_sink(mem.clone());
        let ctx = TraceContext::for_trace_id(31);
        let ((), captured) = with_context(&ctx, || {
            let _s = span("trace.test.decide");
            crate::decision::emit(crate::decision::DecisionRecord::new("css.select"));
        });
        sink::clear_sink();
        assert!(
            mem.take_decisions().is_empty(),
            "captured decisions bypass the sink"
        );
        // Order: the decision is emitted inside the (still open) span, so
        // it precedes the span's own completion event.
        assert_eq!(captured.len(), 2);
        let Captured::Decision(d) = &captured[0] else {
            panic!("decision first: {captured:?}");
        };
        assert_eq!(d.trace_id, 31);
        assert!(captured[1].as_event().is_some());
        // Forwarding replays both record kinds into the sink.
        let mem2 = std::sync::Arc::new(MemorySink::new());
        sink::set_sink(mem2.clone());
        for c in &captured {
            c.forward_to_sink();
        }
        sink::clear_sink();
        assert_eq!(mem2.take().len(), 1);
        assert_eq!(mem2.take_decisions().len(), 1);
    }

    #[test]
    fn with_context_hands_the_trace_across_a_real_thread() {
        let _guard = crate::testing::lock();
        let mem = std::sync::Arc::new(MemorySink::new());
        sink::set_sink(mem.clone());
        let ctx = TraceContext::for_trace_id(4242);
        let events = std::thread::scope(|s| {
            s.spawn(|| {
                let ((), ev) = with_context(&ctx, || {
                    let _root = span("trace.test.worker");
                    let _leaf = span("trace.test.leaf");
                });
                ev
            })
            .join()
            .expect("worker joins")
        });
        sink::clear_sink();
        let events: Vec<&Event> = events.iter().filter_map(|c| c.as_event()).collect();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.trace_id == 4242));
        let root = events.iter().find(|e| e.stage == "trace.test.worker");
        let leaf = events.iter().find(|e| e.stage == "trace.test.leaf");
        assert_eq!(leaf.unwrap().parent_id, root.unwrap().span_id);
    }

    #[test]
    fn current_ids_track_the_open_span() {
        let _guard = crate::testing::lock();
        let mem = std::sync::Arc::new(MemorySink::new());
        sink::set_sink(mem.clone());
        assert_eq!(current_ids(), (0, 0));
        {
            let _s = span("trace.test.current");
            let (trace_id, parent) = current_ids();
            assert_ne!(trace_id, 0);
            assert_ne!(parent, 0);
        }
        assert_eq!(current_ids(), (0, 0), "auto-rooted trace is discarded");
        sink::clear_sink();
    }
}
