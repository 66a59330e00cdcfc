//! Trace files meet the real world: killed writers truncate the last
//! frame, disks flip bits, many threads write through one sink, and tools
//! must read everything salvageable — skip-and-count, never panic, never
//! fail the whole file. These tests drive `obs::binfmt` end to end through
//! real files: full-fidelity round-trips (every field, unicode, float
//! extremes), damage recovery, version strictness, the documented
//! string-table corruption cascade, and concurrent writers. Every stream
//! here is also read through sources that deliver a few bytes per call,
//! and must read exactly as it does whole.

use obs::binfmt::{self, frame_with, BinSink, FileBinReader, KIND_EVENT, KIND_STRDEF, MARKER};
use obs::decision::SCHEMA_VERSION;
use obs::{BinReader, DecisionRecord, Event, EventSink, Trace, TraceRecord};
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::Arc;

fn scratch(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "obs-binfmt-robustness-{}-{name}.bin",
        std::process::id()
    ));
    p
}

/// Reads a whole trace through `obs::open_trace`, holding the lock every
/// test here takes around the process-global `health.trace_corrupt`
/// counter, so a test can assert the exact bump its own read caused.
fn read(path: &std::path::Path) -> Result<Trace, String> {
    let _guard = obs::testing::lock();
    obs::open_trace(path)
}

/// A source that yields at most `k` bytes per `read` call, so frames,
/// heads and CRCs arrive split at every possible boundary.
struct Trickle<'a> {
    data: &'a [u8],
    k: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.k.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Everything a reader makes of a stream: the records, how the stream
/// ended (a fatal error or not) and the skip count — or the header error.
type Outcome = Result<(Vec<TraceRecord>, Result<(), String>, usize), String>;

fn read_outcome(input: impl Read) -> Outcome {
    let mut reader = BinReader::from_reader(input)?;
    let mut records = Vec::new();
    let end = loop {
        match reader.next_record() {
            Ok(Some(record)) => records.push(record),
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    Ok((records, end, reader.skipped()))
}

/// Reading the trace at `path` through sources that yield 1..=17 bytes
/// per call gives exactly what reading it whole gives.
fn assert_chunking_invariant(path: &std::path::Path) {
    let bytes = std::fs::read(path).expect("trace bytes");
    let whole = read_outcome(bytes.as_slice());
    for k in 1..=17 {
        let data = bytes.as_slice();
        assert_eq!(
            read_outcome(Trickle { data, k }),
            whole,
            "{k} byte(s) per read"
        );
    }
}

/// An event exercising unicode strings, a custom kind, and f64 extremes
/// in fields.
fn fancy_event() -> Event {
    let mut fields = BTreeMap::new();
    fields.insert("μ-extreme".to_string(), f64::MAX);
    fields.insert("tiny".to_string(), f64::MIN_POSITIVE);
    fields.insert("neg-zero".to_string(), -0.0);
    let mut e = Event::span(7, "сектор.🛰.sweep", 123, fields).with_ids(42, 9, 3);
    e.kind = "задержка".to_string();
    e
}

/// A decision record with every field populated, including empty and
/// unicode strings and full-precision float extremes.
fn fancy_decision() -> DecisionRecord {
    let mut rec = DecisionRecord::new("");
    rec.context = "scénario=läb,seed=42".into();
    rec.mode = "joint".into();
    rec.energy_prior = true;
    rec.subcell_refinement = true;
    rec.replayable = true;
    rec.patterns_digest = u64::MAX;
    rec.push_probe(0, Some((f64::MAX, f64::MIN)));
    rec.push_probe(63, Some((-0.0, f64::EPSILON)));
    rec.push_probe(31, None);
    rec.p_snr = vec![1.0e300, -1.0e-300];
    rec.p_rssi = vec![f64::MIN_POSITIVE, -f64::MAX];
    rec.top_cells = vec![0, u64::MAX];
    rec.top_weights = vec![0.123_456_789_012_345_68, 1.0 / 3.0];
    rec.energy_max = f64::MAX;
    rec.has_estimate = true;
    rec.est_az_deg = -179.999_999_999_999_97;
    rec.est_el_deg = f64::EPSILON;
    rec.score = 2.0_f64.powi(-1000);
    rec.chosen_sector = i64::MIN;
    rec.set_oracle(&[(63, 55.75)], 63);
    rec
}

/// Writes a trace through the real `BinSink` and returns what was written
/// (events, decision) so reads can be compared field-for-field.
fn write_trace(path: &std::path::Path) -> (Vec<Event>, DecisionRecord) {
    let sink = BinSink::create(path).expect("create trace");
    let events = vec![fancy_event(), Event::mark(8, "plain.mark", BTreeMap::new())];
    let decision = fancy_decision();
    for e in &events {
        sink.emit(e);
    }
    sink.emit_decision(&decision);
    let reg = obs::Registry::new();
    reg.counter("binfmt.robustness").add(3);
    reg.histogram("binfmt.dur_us").record(17);
    sink.write_snapshot(&reg.snapshot());
    sink.flush();
    (events, decision)
}

#[test]
fn every_field_round_trips_bit_exactly_through_a_file() {
    let path = scratch("roundtrip");
    let (events, decision) = write_trace(&path);
    let trace = read(&path).expect("readable");
    assert_eq!(trace.skipped, 0);
    assert_eq!(trace.events, events, "unicode and extremes survive");
    assert_eq!(trace.decisions, vec![decision.clone()]);
    // Bit-exact, not just equal: replay depends on it.
    assert_eq!(
        trace.decisions[0].est_az_deg.to_bits(),
        decision.est_az_deg.to_bits()
    );
    assert_eq!(
        trace.decisions[0].p_snr[0].to_bits(),
        decision.p_snr[0].to_bits()
    );
    let snap = trace.snapshot.expect("snapshot frame");
    assert_eq!(snap.counter("binfmt.robustness"), 3);
    assert_chunking_invariant(&path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_tail_loses_only_the_last_record() {
    let path = scratch("truncated");
    let (events, decision) = write_trace(&path);
    // Chop mid-way through the final frame, as a SIGKILLed writer would:
    // the snapshot is lost and counted, everything before it survives.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
    let trace = read(&path).expect("still readable");
    assert_eq!(trace.skipped, 1);
    assert_eq!(trace.events, events);
    assert_eq!(trace.decisions, vec![decision]);
    assert!(trace.snapshot.is_none());
    assert_chunking_invariant(&path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_crc_skips_one_frame_not_the_file() {
    // Hand-built standalone frames (no interning) so boundaries are known.
    let e1 = TraceRecord::Event(Event::mark(1, "first", BTreeMap::new()));
    let d = TraceRecord::Decision(Box::new(fancy_decision()));
    let e2 = TraceRecord::Event(Event::mark(2, "last", BTreeMap::new()));
    let mut middle = binfmt::encode_frame(&d);
    let n = middle.len();
    middle[n - 6] ^= 0xFF; // inside the payload, ahead of the 4-byte CRC
    let mut bytes = binfmt::file_header();
    bytes.extend_from_slice(&binfmt::encode_frame(&e1));
    bytes.extend_from_slice(&middle);
    bytes.extend_from_slice(&binfmt::encode_frame(&e2));
    let path = scratch("badcrc");
    std::fs::write(&path, &bytes).unwrap();
    let trace = read(&path).expect("still readable");
    assert_eq!(trace.skipped, 1, "exactly the flipped frame");
    assert_eq!(trace.decisions.len(), 0);
    assert_eq!(trace.events.len(), 2);
    assert_eq!(trace.events[0].stage, "first");
    assert_eq!(trace.events[1].stage, "last");
    assert_chunking_invariant(&path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn garbage_between_frames_resyncs_on_the_marker() {
    let e1 = TraceRecord::Event(Event::mark(1, "before", BTreeMap::new()));
    let e2 = TraceRecord::Event(Event::mark(2, "after", BTreeMap::new()));
    let mut bytes = binfmt::file_header();
    bytes.extend_from_slice(&binfmt::encode_frame(&e1));
    // Overwritten region with no marker byte: resync lands exactly on the
    // next real frame and only the damaged region is counted.
    bytes.extend_from_slice(&[0x00, 0x13, 0xFF, 0xFE, 0x00]);
    bytes.extend_from_slice(&binfmt::encode_frame(&e2));
    let path = scratch("garbage");
    std::fs::write(&path, &bytes).unwrap();
    let trace = read(&path).expect("still readable");
    assert_eq!(trace.skipped, 1, "the damaged region is counted once");
    assert_eq!(
        trace
            .events
            .iter()
            .map(|e| e.stage.as_str())
            .collect::<Vec<_>>(),
        vec!["before", "after"],
        "both real frames survive"
    );
    assert_chunking_invariant(&path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_fake_marker_in_garbage_may_cost_a_neighbor_but_recovery_holds() {
    // When the junk itself contains a marker byte, resync can misparse a
    // frame head from it and consume into the following real frame. The
    // guarantee is recovery and honest accounting, not zero collateral:
    // the reader must find the next intact frame and count every loss.
    let e1 = TraceRecord::Event(Event::mark(1, "before", BTreeMap::new()));
    let e2 = TraceRecord::Event(Event::mark(2, "victim", BTreeMap::new()));
    let e3 = TraceRecord::Event(Event::mark(3, "final", BTreeMap::new()));
    let mut bytes = binfmt::file_header();
    bytes.extend_from_slice(&binfmt::encode_frame(&e1));
    bytes.extend_from_slice(&[0x00, MARKER, 0xFF, 0xFE, 0x00]);
    bytes.extend_from_slice(&binfmt::encode_frame(&e2));
    bytes.extend_from_slice(&binfmt::encode_frame(&e3));
    let path = scratch("fakemarker");
    std::fs::write(&path, &bytes).unwrap();
    let trace = read(&path).expect("still readable");
    let stages: Vec<&str> = trace.events.iter().map(|e| e.stage.as_str()).collect();
    assert_eq!(stages.first(), Some(&"before"));
    assert_eq!(
        stages.last(),
        Some(&"final"),
        "reader recovers past the damage"
    );
    assert!(
        trace.skipped >= 2,
        "garbage and collateral are both counted"
    );
    assert_chunking_invariant(&path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn an_oversized_length_costs_one_skip_and_no_neighbor() {
    // A length varint over MAX_RECORD_LEN, or longer than 3 bytes, is
    // corruption: the reader counts it once and resyncs from the byte
    // after its marker, so the next intact frame survives.
    let stages = ["first", "middle", "last"];
    let frames: Vec<Vec<u8>> = stages
        .iter()
        .map(|s| binfmt::encode_frame(&TraceRecord::Event(Event::mark(1, s, BTreeMap::new()))))
        .collect();
    let version = SCHEMA_VERSION as u8;
    let mut bytes = binfmt::file_header();
    bytes.extend_from_slice(&frames[0]);
    bytes.extend_from_slice(&[MARKER, KIND_EVENT, version, 0xFF, 0xFF, 0x7F, 0x00]);
    bytes.extend_from_slice(&frames[1]);
    bytes.extend_from_slice(&[MARKER, KIND_EVENT, version, 0x80, 0x80, 0x80, 0x01]);
    bytes.extend_from_slice(&frames[2]);
    let path = scratch("oversized");
    std::fs::write(&path, &bytes).unwrap();
    let trace = read(&path).expect("still readable");
    assert_eq!(trace.skipped, 2, "one skip per oversized head");
    let read_stages: Vec<&str> = trace.events.iter().map(|e| e.stage.as_str()).collect();
    assert_eq!(read_stages, stages);
    assert_chunking_invariant(&path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn newer_file_version_is_a_hard_error() {
    let mut bytes = binfmt::file_header();
    let v = (SCHEMA_VERSION as u32 + 1).to_le_bytes();
    bytes[8..12].copy_from_slice(&v);
    let path = scratch("newfile");
    std::fs::write(&path, &bytes).unwrap();
    let err = read(&path).unwrap_err();
    assert!(err.contains("newer"), "{err}");
    assert_chunking_invariant(&path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn newer_record_version_is_a_hard_error_once_crc_validates() {
    // A CRC-valid frame stamped with a future schema version really was
    // written by a newer build — corruption cannot masquerade as this.
    let mut bytes = binfmt::file_header();
    bytes.extend_from_slice(&frame_with(
        KIND_EVENT,
        SCHEMA_VERSION as u8 + 1,
        &[1, 2, 3],
    ));
    let path = scratch("newrecord");
    std::fs::write(&path, &bytes).unwrap();
    let err = read(&path).unwrap_err();
    assert!(err.contains("newer"), "{err}");
    assert!(err.contains("upgrade"), "{err}");
    assert_chunking_invariant(&path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupting_the_string_table_skips_referencing_records_loudly() {
    // Interned string ids are explicit and append-only, so a lost
    // string-definition frame makes every record referencing the table
    // *unresolvable* — skipped and counted — rather than silently
    // mislabeled. The cascade (later strdefs are now out of sequence) is
    // the documented price of that guarantee.
    let path = scratch("strtable");
    write_trace(&path);
    let mut bytes = std::fs::read(&path).unwrap();
    // BinSink interns the first event's strings before its frame, so the
    // first frame after the 12-byte header is a strdef. Flip one payload
    // byte to invalidate its CRC.
    assert_eq!(bytes[12], MARKER);
    assert_eq!(bytes[13], KIND_STRDEF);
    bytes[17] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let trace = read(&path).expect("still readable");
    assert!(
        trace.events.is_empty(),
        "records referencing the lost table entry never mislabel"
    );
    assert!(trace.skipped >= 2, "strdef and its dependents are counted");
    // The snapshot stays self-contained (inline strings) and survives.
    assert!(trace.snapshot.is_some());
    assert_chunking_invariant(&path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn open_trace_counts_damaged_frames_in_health() {
    let path = scratch("health");
    write_trace(&path);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
    let _guard = obs::testing::lock();
    let corrupt = || obs::global().snapshot().counter("health.trace_corrupt");
    let before = corrupt();
    let trace = obs::open_trace(&path).expect("still readable");
    assert_eq!(trace.skipped, 1);
    assert_eq!(corrupt(), before + trace.skipped as u64);
    assert_chunking_invariant(&path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_file_is_an_error_not_a_panic() {
    let err = FileBinReader::open("/nonexistent/talon-trace.bin").unwrap_err();
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn concurrent_writers_through_one_sink_keep_every_frame_whole() {
    // Four threads share one BinSink, each with its own stage strings, so
    // first-seen strings race to be interned. Every frame must come back
    // intact, each thread's records in emit order, every string decoded.
    const THREADS: usize = 4;
    const PER_THREAD: usize = 100;
    let path = scratch("concurrent");
    let sink = Arc::new(BinSink::create(&path).expect("create trace"));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let sink = Arc::clone(&sink);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let mut fields = BTreeMap::new();
                    fields.insert(format!("field.t{t}"), i as f64);
                    sink.emit(&Event::mark(i as u64, &format!("writer.t{t}.mark"), fields));
                    let mut d = DecisionRecord::new(&format!("writer.t{t}.decision"));
                    d.context = format!("thread={t}");
                    d.chosen_sector = i as i64;
                    sink.emit_decision(&d);
                }
            });
        }
    });
    sink.flush();
    let trace = read(&path).expect("readable");
    assert_eq!(trace.skipped, 0, "sink serialization keeps frames whole");
    assert_eq!(trace.events.len(), THREADS * PER_THREAD);
    assert_eq!(trace.decisions.len(), THREADS * PER_THREAD);
    for t in 0..THREADS {
        let marks = trace.stage(&format!("writer.t{t}.mark"));
        let order: Vec<u64> = marks.iter().map(|e| e.ts_us).collect();
        assert_eq!(
            order,
            (0..PER_THREAD as u64).collect::<Vec<_>>(),
            "thread {t}"
        );
        for e in &marks {
            assert_eq!(e.field(&format!("field.t{t}")), Some(e.ts_us as f64));
        }
        let decisions: Vec<&DecisionRecord> = trace
            .decisions
            .iter()
            .filter(|d| d.source == format!("writer.t{t}.decision"))
            .collect();
        let order: Vec<i64> = decisions.iter().map(|d| d.chosen_sector).collect();
        assert_eq!(
            order,
            (0..PER_THREAD as i64).collect::<Vec<_>>(),
            "thread {t}"
        );
        assert!(decisions.iter().all(|d| d.context == format!("thread={t}")));
    }
    assert_chunking_invariant(&path);
    let _ = std::fs::remove_file(&path);
}

/// A decision shaped like a real `css.select` record: firmware-quantized
/// quarter-dB readings and kernel vectors (the quarter-step f64 vector
/// encoding), full-precision weights and outputs (the XOR encoding).
fn quantized_decision(ts_us: u64) -> DecisionRecord {
    let mut rec = DecisionRecord::new("css.select");
    rec.ts_us = ts_us;
    rec.trace_id = 11;
    rec.parent_id = 5;
    rec.context = "scenario=lab,fidelity=fast,seed=7".into();
    rec.mode = "joint".into();
    rec.smoothing = true;
    rec.replayable = true;
    rec.patterns_digest = 599_070_852_699_260_445;
    for (i, s) in [2u64, 6, 11, 17, 25, 31, 63].into_iter().enumerate() {
        let q = f64::from(i as u32) * 0.75;
        rec.push_probe(s, (i != 3).then_some((-7.0 + q, -67.25 + q)));
    }
    rec.p_snr = vec![0.0, 0.75, 1.5, 3.0, 3.75, 4.5];
    rec.p_rssi = vec![5.25, 6.0, 6.75, 8.25, 9.0, 9.75];
    rec.top_cells = vec![16, 41, 15, 40];
    rec.top_weights = vec![0.209_633_842_341_586_36, 0.199_4, 0.199_4, 0.187_1];
    rec.energy_max = 28.757_094_535_281_396;
    rec.has_estimate = true;
    rec.est_az_deg = 28.988_257_190_257_2;
    rec.score = 0.209_633_842_341_586_36;
    rec.chosen_sector = 21;
    rec.set_oracle(&[(21, 18.620_452_248_893_272), (25, 17.5)], 21);
    rec
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn writer_output_is_pinned_byte_for_byte() {
    // The wire format is a contract with every trace already on disk: the
    // same records must always produce the same bytes. The set covers an
    // event with fields and a custom kind, an empty-field mark, a decision
    // with every vector non-empty (both f64 vector encodings), first-seen
    // strings (strdef frames), repeats that reuse interned ids, and a
    // closing snapshot.
    let path = scratch("golden");
    let sink = BinSink::create(&path).expect("create trace");
    sink.emit(&fancy_event());
    sink.emit(&Event::mark(8, "plain.mark", BTreeMap::new()));
    sink.emit_decision(&fancy_decision());
    sink.emit_decision(&quantized_decision(100));
    sink.emit(&fancy_event());
    sink.emit_decision(&quantized_decision(200));
    let reg = obs::Registry::new();
    reg.counter("binfmt.robustness").add(3);
    reg.gauge("binfmt.depth").set(-4);
    reg.histogram("binfmt.dur_us").record(17);
    sink.write_snapshot(&reg.snapshot());
    sink.flush();
    let bytes = std::fs::read(&path).unwrap();
    assert_chunking_invariant(&path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (932, 0xd392_1abe_351d_03ee),
        "BinSink output changed: the trace wire format must stay byte-identical"
    );
}
