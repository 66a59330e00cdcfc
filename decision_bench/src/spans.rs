//! The benchmark's own span trace, recorded around calls into each
//! layer's public functions (never inside the program).
//!
//! Spans live in a thread-local buffer on the benchmark's coordinating
//! thread: every timed call is made from that thread (layers that fan out,
//! like `ReplaySession::replay_chunk`, are timed as one call from
//! outside). A layer's self time is its span's duration minus the time
//! its child spans cover; the root span's self time is the benchmark's
//! own glue, reported as the unattributed residual.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A timed call into one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// One unit of work: a decision, a replay chunk or a Fig. 7 pass.
    Unit,
    /// `SlsRunner::run`.
    SlsRun,
    /// `Link::sweep`.
    ChannelSweep,
    /// `<&Qca9500Firmware as FeedbackPolicy>::select`.
    WilSelect,
    /// `Wil6210Driver::read_sweep_info`.
    WilDrain,
    /// `Wil6210Driver::wmi`.
    WilWmi,
    /// `CompressiveSelection::probe_sectors` / `draw_probes`.
    CssProbeDraw,
    /// `CompressiveSelection::select_from_readings`.
    CssSelect,
    /// `BinSink::emit_decision`.
    ObsSinkDecision,
    /// `BinSink::emit`.
    ObsSinkEvent,
    /// `FileBinReader::next_record`.
    ObsDecode,
    /// `ReplaySession::replay_chunk`.
    EvalReplayChunk,
    /// `estimation_error_par`.
    EvalFig7,
}

/// The layers self time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own glue between calls (the residual).
    Unattributed,
    /// `mac` frame building plus `channel` probes inside `SlsRunner::run`.
    Mac,
    /// `channel`, called directly.
    Channel,
    /// `wil6210` firmware and driver.
    Wil,
    /// `core` (the `css` crate).
    Core,
    /// `obs` sinks and decoders.
    Obs,
    /// `eval` batch engines (their worker threads included).
    Eval,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Mac,
        Layer::Channel,
        Layer::Wil,
        Layer::Core,
        Layer::Obs,
        Layer::Eval,
        Layer::Unattributed,
    ];

    /// The per-layer metric reporting this layer's self time per decision.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Unattributed => "layer.unattributed_ns",
            Layer::Mac => "layer.mac_ns",
            Layer::Channel => "layer.channel_ns",
            Layer::Wil => "layer.wil_ns",
            Layer::Core => "layer.core_ns",
            Layer::Obs => "layer.obs_ns",
            Layer::Eval => "layer.eval_ns",
        }
    }
}

impl Call {
    /// Span name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Call::Unit => "unit",
            Call::SlsRun => "sls.run",
            Call::ChannelSweep => "channel.sweep",
            Call::WilSelect => "wil.select",
            Call::WilDrain => "wil.drain",
            Call::WilWmi => "wil.wmi",
            Call::CssProbeDraw => "css.probe_draw",
            Call::CssSelect => "css.select",
            Call::ObsSinkDecision => "obs.sink_decision",
            Call::ObsSinkEvent => "obs.sink_event",
            Call::ObsDecode => "obs.decode",
            Call::EvalReplayChunk => "eval.replay_chunk",
            Call::EvalFig7 => "eval.fig7",
        }
    }

    /// The layer this call's self time belongs to.
    pub fn layer(self) -> Layer {
        match self {
            Call::Unit => Layer::Unattributed,
            Call::SlsRun => Layer::Mac,
            Call::ChannelSweep => Layer::Channel,
            Call::WilSelect | Call::WilDrain | Call::WilWmi => Layer::Wil,
            Call::CssProbeDraw | Call::CssSelect => Layer::Core,
            Call::ObsSinkDecision | Call::ObsSinkEvent | Call::ObsDecode => Layer::Obs,
            Call::EvalReplayChunk | Call::EvalFig7 => Layer::Eval,
        }
    }

    /// The per-call timing metric, and whether it reports self time
    /// (duration minus child spans) instead of the full duration.
    pub fn metric(self) -> Option<(&'static str, bool)> {
        match self {
            Call::Unit => None,
            Call::SlsRun => Some(("sls.sweep_ns", true)),
            Call::ChannelSweep => Some(("channel.sweep_ns", false)),
            Call::WilSelect => Some(("wil.select_ns", false)),
            Call::WilDrain => Some(("wil.drain_ns", false)),
            Call::WilWmi => Some(("wil.wmi_ns", false)),
            Call::CssProbeDraw => Some(("css.probe_draw_ns", false)),
            Call::CssSelect => Some(("css.select_ns", false)),
            Call::ObsSinkDecision => Some(("obs.sink_decision_ns", false)),
            Call::ObsSinkEvent => Some(("obs.sink_event_ns", false)),
            Call::ObsDecode => Some(("obs.decode_ns", false)),
            Call::EvalReplayChunk => Some(("eval.replay_chunk_ns", false)),
            Call::EvalFig7 => Some(("eval.fig7_unit_ns", false)),
        }
    }
}

/// What the recorder does with a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing: the untraced path.
    Off,
    /// Counts calls only (the fixed pass of a traced run).
    Count,
    /// Counts calls and records a span for each.
    Time,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    call: Call,
    /// Index of the enclosing span, or `NO_PARENT`.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
    /// Decisions the call covers (a replay chunk's length, a Fig. 7
    /// pass's estimates); per-call metrics are divided by it, and a call
    /// that covered none yields no per-call sample.
    work: u32,
}

const NO_PARENT: u32 = u32::MAX;
/// Number of `Call` kinds.
const CALLS: usize = Call::EvalFig7 as usize + 1;

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    calls: [u64; CALLS],
}

thread_local! {
    static MODE: Cell<Mode> = const { Cell::new(Mode::Off) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        calls: [0; CALLS],
    });
}

/// Spans reserved the first time timing starts, so that growing the
/// buffer does not land inside traced decisions.
const RESERVE: usize = 1 << 20;

/// Switches what calls on this thread record.
pub fn set_mode(mode: Mode) {
    if mode == Mode::Time {
        REC.with(|r| {
            let spans = &mut r.borrow_mut().spans;
            if spans.capacity() == 0 {
                spans.reserve(RESERVE);
            }
        });
    }
    MODE.with(|m| m.set(mode));
}

/// Runs `f` as one call of kind `call`.
pub fn timed<T>(call: Call, f: impl FnOnce() -> T) -> T {
    timed_work(call, 1, f)
}

/// Runs `f` as one call of kind `call` that covers `work` decisions.
pub fn timed_work<T>(call: Call, work: u32, f: impl FnOnce() -> T) -> T {
    timed_counted(call, || (f(), work))
}

/// Runs `f` as one call of kind `call`; `f` also returns how many
/// decisions the call covered.
pub fn timed_counted<T>(call: Call, f: impl FnOnce() -> (T, u32)) -> T {
    let mode = MODE.with(Cell::get);
    if mode == Mode::Off {
        return f().0;
    }
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        r.calls[call as usize] += 1;
        (mode == Mode::Time).then(|| {
            let idx = r.spans.len() as u32;
            let parent = r.open.last().copied().unwrap_or(NO_PARENT);
            r.open.push(idx);
            let start_ns = r.origin.elapsed().as_nanos() as u64;
            r.spans.push(Span {
                call,
                parent,
                start_ns,
                end_ns: start_ns,
                work: 0,
            });
            idx
        })
    });
    let (out, work) = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.origin.elapsed().as_nanos() as u64;
            let span = &mut r.spans[idx as usize];
            span.end_ns = end_ns;
            span.work = work;
            r.open.pop();
        });
    }
    out
}

/// Calls of `call` counted so far on this thread (in `Count` or `Time`
/// mode).
pub fn calls(call: Call) -> u64 {
    REC.with(|r| r.borrow().calls[call as usize])
}

/// What the recorded spans add up to.
#[derive(Debug, Default)]
pub struct Summary {
    /// Per-call samples (ns, divided by the call's work) by metric name.
    pub per_call: Vec<(&'static str, Vec<f64>)>,
    /// Self time per layer, summed over every span (ns).
    pub layer_self_ns: Vec<(Layer, u64)>,
    /// Summed duration of the root spans (ns).
    pub total_ns: u64,
    /// Decisions the root spans covered.
    pub decisions: u64,
    /// Spans recorded.
    pub spans: usize,
}

/// Summarizes every span recorded on this thread.
pub fn summarize() -> Summary {
    REC.with(|r| {
        let r = r.borrow();
        let mut child_ns = vec![0u64; r.spans.len()];
        for s in &r.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut per_call: Vec<(&'static str, Vec<f64>)> = Vec::new();
        let mut select_self = Vec::new();
        let mut layer_self_ns: Vec<(Layer, u64)> = Layer::ALL.iter().map(|&l| (l, 0)).collect();
        let (mut total_ns, mut decisions) = (0u64, 0u64);
        for (s, &child) in r.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let self_ns = dur - child;
            let layer = s.call.layer();
            let slot = layer_self_ns
                .iter_mut()
                .find(|(l, _)| *l == layer)
                .expect("every layer has a slot");
            slot.1 += self_ns;
            if s.parent == NO_PARENT {
                total_ns += dur;
                decisions += u64::from(s.work);
            }
            if s.call == Call::CssSelect {
                select_self.push(self_ns as f64);
            }
            if let Some((name, use_self)) = s.call.metric().filter(|_| s.work > 0) {
                let v = if use_self { self_ns } else { dur } as f64 / f64::from(s.work);
                match per_call.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, xs)) => xs.push(v),
                    None => per_call.push((name, vec![v])),
                }
            }
        }
        per_call.push(("css.select_self_ns", select_self));
        Summary {
            per_call,
            layer_self_ns,
            total_ns,
            decisions,
            spans: r.spans.len(),
        }
    })
}

/// Writes every recorded span as CSV (`span,parent,call,start_ns,end_ns,
/// work`; `parent` is -1 for a root) and clears the buffer.
pub fn write_out(path: &Path) -> std::io::Result<()> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span,parent,call,start_ns,end_ns,work")?;
        for (i, s) in r.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i},{parent},{},{},{},{}",
                s.call.name(),
                s.start_ns,
                s.end_ns,
                s.work
            )?;
        }
        out.flush()?;
        r.spans = Vec::new();
        Ok(())
    })
}
