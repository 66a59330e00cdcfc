//! Alert-triggered flight recorder.
//!
//! A [`FlightRecorder`] keeps an always-on, byte-budgeted in-memory ring of
//! [`crate::binfmt`]-encoded trace frames. It is an [`EventSink`], so it can
//! sit alone or fanned out next to a `--trace` file sink; appending encodes
//! the frame *outside* the ring lock and then does one `VecDeque` push, so
//! the cost on the traced path stays small and bounded.
//!
//! When something goes wrong — an alert's pending→firing transition (see
//! [`crate::live::LiveMonitor`]) or a panic (see [`install_panic_hook`]) —
//! [`FlightRecorder::dump`] writes the ring's last-N-seconds of history to
//! `flight-<reason>-<runid>-<seq>.bin`: a standard binary trace (file
//! header + standalone frames) that the existing `talon report` /
//! `talon replay` tooling reads with no changes, so the decisions leading
//! up to the incident replay bit-exactly after the fact. The per-process
//! [`run_id`] keeps restarts in the same `--flight-dir` from clobbering an
//! earlier run's dumps (seq restarts at 0 every process), and a collision
//! check skips any name that still exists.

use crate::binfmt::{self, TraceRecord};
use crate::decision::DecisionRecord;
use crate::event::Event;
use crate::registry::Snapshot;
use crate::sink::EventSink;
use crate::sync::TimedMutex;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default ring budget: enough for tens of thousands of frames while
/// staying invisible next to the soak harness's RSS ceiling.
pub const DEFAULT_BYTE_BUDGET: usize = 4 << 20;

/// Configuration for a [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Ring capacity in encoded-frame bytes; the oldest frames are evicted
    /// once the budget is exceeded.
    pub byte_budget: usize,
    /// Directory dumps are written into.
    pub dir: PathBuf,
    /// Dump file prefix (`<prefix>-<reason>-<runid>-<seq>.bin`).
    pub prefix: String,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            byte_budget: DEFAULT_BYTE_BUDGET,
            dir: PathBuf::from("."),
            prefix: "flight".to_string(),
        }
    }
}

#[derive(Debug, Default)]
struct Ring {
    frames: VecDeque<Vec<u8>>,
    bytes: usize,
}

/// The per-process run id stamped into dump filenames: boot seconds plus
/// pid, hex. Distinct across restarts of the same deployment dir (same-pid
/// restarts within one second are caught by the collision check in
/// [`FlightRecorder::dump`]).
pub fn run_id() -> &'static str {
    static RUN_ID: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    RUN_ID.get_or_init(|| {
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        format!("{:x}p{:x}", secs, std::process::id())
    })
}

/// Bounded in-memory ring of encoded trace frames, dumpable on demand.
#[derive(Debug)]
pub struct FlightRecorder {
    config: FlightConfig,
    ring: TimedMutex<Ring>,
    seq: AtomicU64,
    appended: AtomicU64,
    evicted: AtomicU64,
    dumps: AtomicU64,
    dump_failures: AtomicU64,
    last_dump: Mutex<Option<String>>,
}

fn sanitize_reason(reason: &str) -> String {
    let cleaned: String = reason
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "dump".to_string()
    } else {
        cleaned
    }
}

impl FlightRecorder {
    /// A recorder with the given configuration.
    pub fn new(config: FlightConfig) -> Self {
        FlightRecorder {
            config,
            ring: TimedMutex::new("flight_ring", Ring::default()),
            seq: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            dump_failures: AtomicU64::new(0),
            last_dump: Mutex::new(None),
        }
    }

    /// A recorder with the default byte budget, dumping into the current
    /// directory.
    pub fn with_defaults() -> Self {
        FlightRecorder::new(FlightConfig::default())
    }

    /// Appends one record to the ring, evicting the oldest frames once the
    /// byte budget is exceeded. Encoding happens before the lock is taken.
    pub fn append(&self, record: &TraceRecord) {
        let frame = binfmt::encode_frame(record);
        self.push_frame(frame);
    }

    fn push_frame(&self, frame: Vec<u8>) {
        self.appended.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock();
        ring.bytes += frame.len();
        ring.frames.push_back(frame);
        while ring.bytes > self.config.byte_budget && ring.frames.len() > 1 {
            if let Some(old) = ring.frames.pop_front() {
                ring.bytes -= old.len();
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of frames currently buffered.
    pub fn frames(&self) -> usize {
        self.ring.lock().frames.len()
    }

    /// Bytes currently buffered.
    pub fn bytes(&self) -> usize {
        self.ring.lock().bytes
    }

    /// Number of dumps written so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Writes the buffered history to
    /// `<dir>/<prefix>-<reason>-<runid>-<seq>.bin` as a standard binary
    /// trace and returns its path. The ring is *not* cleared: overlapping
    /// incidents each get the full window. Sequence numbers restart at 0
    /// each process, so the per-process [`run_id`] plus an existence check
    /// keep a restart from clobbering an earlier run's dumps in the same
    /// directory. Failures bump `health.trace_write_failed` (warn-once),
    /// successes bump `health.flight_dump`.
    pub fn dump(&self, reason: &str) -> std::io::Result<PathBuf> {
        // Copy the frames out under the lock, write outside it so a slow
        // disk never stalls the traced path.
        let frames: Vec<Vec<u8>> = {
            let ring = self.ring.lock();
            ring.frames.iter().cloned().collect()
        };
        let reason = sanitize_reason(reason);
        let path = loop {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let name = format!("{}-{}-{}-{}.bin", self.config.prefix, reason, run_id(), seq);
            let candidate = self.config.dir.join(name);
            if !candidate.exists() {
                break candidate;
            }
        };
        match self.write_dump(&path, &frames) {
            Ok(()) => {
                self.dumps.fetch_add(1, Ordering::Relaxed);
                crate::health::tally("flight_dump", 1);
                *self.last_dump.lock() = Some(path.display().to_string());
                Ok(path)
            }
            Err(e) => {
                self.dump_failures.fetch_add(1, Ordering::Relaxed);
                crate::sink::note_write_error("FlightRecorder", "flight dump", &e);
                Err(e)
            }
        }
    }

    fn write_dump(&self, path: &std::path::Path, frames: &[Vec<u8>]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(&binfmt::file_header())?;
        for frame in frames {
            out.write_all(frame)?;
        }
        out.flush()
    }

    /// JSON status for the `/flight` endpoint.
    pub fn status_json(&self) -> String {
        use serde::Value;
        let ring = self.ring.lock();
        let last = self.last_dump.lock().clone();
        Value::Map(vec![
            ("frames".into(), Value::U64(ring.frames.len() as u64)),
            ("bytes".into(), Value::U64(ring.bytes as u64)),
            (
                "byte_budget".into(),
                Value::U64(self.config.byte_budget as u64),
            ),
            (
                "appended".into(),
                Value::U64(self.appended.load(Ordering::Relaxed)),
            ),
            (
                "evicted".into(),
                Value::U64(self.evicted.load(Ordering::Relaxed)),
            ),
            (
                "dumps".into(),
                Value::U64(self.dumps.load(Ordering::Relaxed)),
            ),
            (
                "dump_failures".into(),
                Value::U64(self.dump_failures.load(Ordering::Relaxed)),
            ),
            (
                "last_dump".into(),
                match last {
                    Some(p) => Value::Str(p),
                    None => Value::Null,
                },
            ),
        ])
        .to_json()
    }
}

impl EventSink for FlightRecorder {
    fn emit(&self, event: &Event) {
        self.append(&TraceRecord::Event(event.clone()));
    }

    fn emit_decision(&self, record: &DecisionRecord) {
        self.append(&TraceRecord::Decision(Box::new(record.clone())));
    }

    fn write_snapshot(&self, snapshot: &Snapshot) {
        self.append(&TraceRecord::Snapshot(snapshot.clone()));
    }
}

/// Chains a panic hook that dumps `recorder`'s ring (reason `panic`) before
/// delegating to the previous hook, so a crash leaves a readable black box
/// behind.
pub fn install_panic_hook(recorder: &Arc<FlightRecorder>) {
    let rec = Arc::clone(recorder);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = rec.dump("panic");
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn event(stage: &str) -> Event {
        Event::mark(1, stage, BTreeMap::new())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("obs-flight-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn ring_evicts_oldest_frames_under_budget() {
        let rec = FlightRecorder::new(FlightConfig {
            byte_budget: 512,
            ..FlightConfig::default()
        });
        for i in 0..200 {
            rec.append(&TraceRecord::Event(event(&format!("stage.{i}"))));
        }
        assert!(rec.bytes() <= 512, "bytes {} over budget", rec.bytes());
        assert!(rec.frames() >= 1);
        let appended = rec.appended.load(Ordering::Relaxed);
        let evicted = rec.evicted.load(Ordering::Relaxed);
        assert_eq!(appended, 200);
        assert!(evicted > 0 && evicted < appended);
    }

    #[test]
    fn dump_writes_a_readable_binary_trace() {
        let dir = temp_dir("dump");
        let rec = FlightRecorder::new(FlightConfig {
            dir: dir.clone(),
            ..FlightConfig::default()
        });
        rec.emit(&event("flight.test"));
        rec.emit_decision(&DecisionRecord::new("css.select"));
        let path = rec.dump("link_drift{link=\"3\"}").unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            format!("flight-link_drift_link__3__-{}-0.bin", run_id())
        );
        let trace = crate::open_trace(&path).unwrap();
        assert_eq!(trace.stage("flight.test").len(), 1);
        assert_eq!(trace.decisions.len(), 1);
        assert_eq!(rec.dumps(), 1);

        // A second dump gets the next sequence number and keeps history.
        let path2 = rec.dump("panic").unwrap();
        assert!(path2.ends_with(format!("flight-panic-{}-1.bin", run_id())));
        let trace2 = crate::open_trace(&path2).unwrap();
        assert_eq!(trace2.decisions.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_skips_filenames_left_by_an_earlier_run() {
        let dir = temp_dir("collide");
        // Simulate a previous process run that (improbably) produced the
        // same run id: its seq-0 and seq-1 dumps are already on disk.
        for seq in [0, 1] {
            let stale = dir.join(format!("flight-drill-{}-{seq}.bin", run_id()));
            std::fs::write(&stale, b"previous run").unwrap();
        }
        let rec = FlightRecorder::new(FlightConfig {
            dir: dir.clone(),
            ..FlightConfig::default()
        });
        rec.emit(&event("flight.collide"));
        let path = rec.dump("drill").unwrap();
        assert!(
            path.ends_with(format!("flight-drill-{}-2.bin", run_id())),
            "dump skipped past the stale names: {}",
            path.display()
        );
        for seq in [0, 1] {
            let stale = dir.join(format!("flight-drill-{}-{seq}.bin", run_id()));
            assert_eq!(
                std::fs::read(&stale).unwrap(),
                b"previous run",
                "stale dump untouched"
            );
        }
        let trace = crate::open_trace(&path).unwrap();
        assert_eq!(trace.stage("flight.collide").len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn status_json_reports_ring_state() {
        let rec = FlightRecorder::with_defaults();
        rec.emit(&event("flight.status"));
        let json = rec.status_json();
        for key in [
            "\"frames\":1",
            "\"byte_budget\":",
            "\"appended\":1",
            "\"dumps\":0",
            "\"last_dump\":null",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        let parsed = serde::Value::from_json(&json).expect("valid json");
        assert!(matches!(parsed, serde::Value::Map(_)));
    }

    #[test]
    fn dump_into_missing_directory_fails_without_panicking() {
        let rec = FlightRecorder::new(FlightConfig {
            dir: PathBuf::from("/nonexistent-flight-dir/deeper"),
            ..FlightConfig::default()
        });
        rec.emit(&event("flight.fail"));
        assert!(rec.dump("oops").is_err());
        assert_eq!(rec.dump_failures.load(Ordering::Relaxed), 1);
    }
}
