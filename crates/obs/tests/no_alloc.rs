//! The shipping default is "no sink installed". This harness proves that
//! default costs zero heap traffic: a counting global allocator wraps
//! `System`, and after a warm-up pass (first use of a stage allocates its
//! cached histogram handle) the span / counter / anomaly hot paths must
//! perform no allocation at all.
//!
//! The trace reader has a budget too: once warm, framing and the CRC
//! allocate nothing, and a decoded record allocates only its own owned
//! fields.
//!
//! This lives in an integration test (its own crate) because the obs
//! library itself is `#![forbid(unsafe_code)]` and a `GlobalAlloc` impl
//! needs `unsafe`. Allocations are counted per thread, so one made by the
//! test harness or another test's thread never lands in a measured
//! window.

use obs::binfmt::{self, frame_with, BinReader, KIND_STRDEF};
use obs::decision::SCHEMA_VERSION;
use obs::{DecisionRecord, Event, Fields, TraceRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Const-initialized with no
    /// destructor, so the allocator can touch it without allocating.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread.
fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations this thread performed while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The gated-span idiom every pipeline stage uses: with no sink,
/// sink_active() is false and no Span is even constructed.
fn gated_span() {
    let mut span = obs::sink_active().then(|| obs::span!("noalloc.span"));
    if let Some(span) = &mut span {
        span.field("x", 1.0);
    }
}

/// An unconditional span (ungated call sites).
fn bare_span() {
    let mut s = obs::span!("noalloc.span");
    s.field("x", black_box(1.0));
}

#[test]
fn no_sink_hot_paths_are_allocation_free() {
    let _guard = obs::testing::lock();
    obs::clear_sink();

    // Warm-up: first use of each name allocates its registry entry, and
    // first use of each span call site resolves its stage's histogram —
    // that cost is paid once per process.
    let counter = obs::counter("noalloc.counter");
    let gauge = obs::gauge("noalloc.gauge");
    let hist = obs::histogram("noalloc.hist");
    gated_span();
    bare_span();
    obs::health::anomaly("noalloc_kind", &[("x", 1.0)]);

    // Cached metric handles: pure atomics.
    let n = allocations_during(|| {
        for i in 0..1_000u64 {
            black_box(&counter).inc();
            black_box(&gauge).set(black_box(i as i64));
            black_box(&hist).record(black_box(i));
        }
    });
    assert_eq!(n, 0, "metric handle ops allocated {n} times");

    let n = allocations_during(|| {
        for _ in 0..1_000 {
            gated_span();
        }
    });
    assert_eq!(n, 0, "gated no-sink span path allocated {n} times");

    // Still allocation-free without a sink — fields and trace ids are only
    // built while recording.
    let n = allocations_during(|| {
        for _ in 0..1_000 {
            bare_span();
        }
    });
    assert_eq!(n, 0, "bare no-sink span allocated {n} times");

    // Link-health anomaly with no sink: one cached counter bump.
    let n = allocations_during(|| {
        for _ in 0..1_000 {
            obs::health::anomaly("noalloc_kind", &[("x", black_box(1.0))]);
        }
    });
    assert_eq!(n, 0, "no-sink anomaly path allocated {n} times");

    // Sanity: the harness itself does count — a span recorded into a
    // MemorySink allocates (the sink keeps a copy).
    obs::set_sink(std::sync::Arc::new(obs::MemorySink::default()));
    let n = allocations_during(bare_span);
    obs::clear_sink();
    assert!(
        n > 0,
        "counting allocator failed to observe recording-path allocations"
    );
}

/// One recorded decision as the CSS pipeline makes it: an auto-rooted
/// span with six fields, an anomaly under it, and a decision record
/// refilled in place and emitted after the span closed.
fn recorded_decision(record: &mut DecisionRecord, i: u64) {
    {
        let mut span = obs::span!("noalloc.recorded");
        for (name, v) in [
            ("probes", 14.0),
            ("masked", 1.0),
            ("score", 0.25),
            ("argmax_margin", 0.01),
            ("refine_daz_deg", -0.4),
            ("refine_del_deg", 0.2),
        ] {
            span.field(name, black_box(v));
        }
        obs::health::anomaly("noalloc_recorded", &[("worst", 1.5), ("outliers", 1.0)]);
    }
    record.reset("css.select");
    record.mode.push_str("joint");
    for s in 0..14 {
        record.push_probe(s, (s != 3).then_some((i as f64 * 0.25, -60.0)));
    }
    record.top_cells.extend([16, 41, 15]);
    obs::decision::emit(record);
}

#[test]
fn warm_recording_into_a_bin_sink_allocates_nothing() {
    let _guard = obs::testing::lock();
    let path = std::env::temp_dir().join(format!("obs-no-alloc-rec-{}.bin", std::process::id()));
    let sink = std::sync::Arc::new(binfmt::BinSink::create(&path).expect("create trace"));
    obs::set_sink(sink.clone());
    let mut record = DecisionRecord::new("css.select");
    // Warm-up: first-seen strings are interned, buffers reach size.
    for i in 0..4 {
        recorded_decision(&mut record, i);
    }
    let n = allocations_during(|| {
        for i in 0..1_000 {
            recorded_decision(&mut record, i);
        }
    });
    obs::clear_sink();
    let trace = obs::open_trace(&path).expect("readable trace");
    let _ = std::fs::remove_file(&path);
    assert_eq!(n, 0, "1000 warm recorded decisions allocated {n} times");
    assert_eq!(trace.decisions.len(), 1_004);
    assert_eq!(trace.stage("noalloc.recorded").len(), 1_004);
    let anomaly = trace.stage("health.noalloc_recorded")[0];
    let span = trace.stage("noalloc.recorded")[0];
    assert_eq!(
        (anomaly.trace_id, anomaly.parent_id),
        (span.trace_id, span.span_id)
    );
    assert_eq!(span.fields.len(), 6);
}

/// A decision with every owned field non-empty, shaped like a recorded
/// `css.select` (quarter-dB readings, full-precision weights).
fn decision(ts_us: u64) -> DecisionRecord {
    let mut rec = DecisionRecord::new("css.select");
    rec.ts_us = ts_us;
    rec.context = "scenario=lab,fidelity=fast,seed=7".into();
    rec.mode = "joint".into();
    rec.replayable = true;
    for (i, s) in [2u64, 6, 11, 17, 25, 31, 40, 44, 50, 55, 58, 60, 62, 63]
        .into_iter()
        .enumerate()
    {
        let q = f64::from(i as u32) * 0.75;
        rec.push_probe(s, (i != 3).then_some((-7.0 + q, -67.25 + q)));
    }
    rec.p_snr = rec.snr_db.iter().map(|s| s + 7.0).collect();
    rec.p_rssi = rec.rssi_dbm.iter().map(|r| r + 72.25).collect();
    rec.top_cells = vec![16, 41, 15, 40, 17, 7, 66, 8];
    rec.top_weights = (0..8).map(|i| 0.2096 - f64::from(i) * 0.0102).collect();
    rec.has_estimate = true;
    rec.est_az_deg = 28.988_257_190_257_2;
    rec
}

/// The allocation budget of decoding `rec`: one block per non-empty
/// owned field, plus the record's `Box`.
fn decision_budget(rec: &DecisionRecord) -> usize {
    let strings = [&rec.source, &rec.context, &rec.mode, &rec.kernel_path];
    let lens = [
        rec.probed.len(),
        rec.snr_db.len(),
        rec.rssi_dbm.len(),
        rec.masked.len(),
        rec.clamped.len(),
        rec.p_snr.len(),
        rec.p_rssi.len(),
        rec.top_cells.len(),
        rec.top_weights.len(),
    ];
    1 + strings.iter().filter(|s| !s.is_empty()).count() + lens.iter().filter(|&&n| n > 0).count()
}

/// The allocation budget of decoding `e`: its stage, one block per field
/// key and the field list. A span, mark or anomaly kind is a borrowed
/// name and allocates nothing.
fn event_budget(e: &Event) -> usize {
    1 + e.fields.len() + usize::from(!e.fields.is_empty())
}

#[test]
fn warm_trace_decode_allocates_only_the_records_own_fields() {
    // A trace written by the real sink (interned strings, strdef frames),
    // long enough that the measured records span several window refills.
    let path = std::env::temp_dir().join(format!("obs-no-alloc-{}.bin", std::process::id()));
    let sink = binfmt::BinSink::create(&path).expect("create trace");
    let mut fields = Fields::new();
    fields.insert("probes".to_string(), 14.0);
    fields.insert("margin_db".to_string(), -2.5);
    let event = Event::span(12, "css.estimate", 34, fields).with_ids(7, 3, 1);
    const PAIRS: u64 = 4000;
    for i in 0..PAIRS {
        obs::EventSink::emit(&sink, &event);
        obs::EventSink::emit_decision(&sink, &decision(i));
    }
    obs::EventSink::flush(&sink);
    let bytes = std::fs::read(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    assert!(bytes.len() > 4 * 64 * 1024, "several read chunks");

    let mut reader = BinReader::from_reader(bytes.as_slice()).expect("header");
    // Warm-up: the string table and the reader's window fill here.
    for _ in 0..2 * 50 {
        reader.next_record().unwrap().expect("record");
    }
    let (d_budget, e_budget) = (decision_budget(&decision(0)), event_budget(&event));
    for i in 50..PAIRS {
        let mut record = None;
        let n = allocations_during(|| record = reader.next_record().unwrap());
        let Some(TraceRecord::Event(e)) = record else {
            panic!("record {i}: expected an event");
        };
        assert_eq!(e, event);
        assert!(n <= e_budget, "event {i}: {n} allocations > {e_budget}");

        let mut record = None;
        let n = allocations_during(|| record = reader.next_record().unwrap());
        let Some(TraceRecord::Decision(d)) = record else {
            panic!("record {i}: expected a decision");
        };
        assert_eq!(*d, decision(i));
        assert!(n <= d_budget, "decision {i}: {n} allocations > {d_budget}");
    }
    assert!(reader.next_record().unwrap().is_none());
    assert_eq!(reader.skipped(), 0);
}

#[test]
fn framing_and_crc_allocate_nothing() {
    let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
    let n = allocations_during(|| {
        black_box(binfmt::crc32(black_box(&data)));
    });
    assert_eq!(n, 0, "crc32 allocated {n} times");

    // One good frame to warm the reader, then a long damaged stream the
    // reader must frame, checksum and skip: bad CRCs, strdef re-sends
    // (CRC-valid, decoded only as far as the table check) and garbage
    // regions it resyncs over.
    let event = TraceRecord::Event(Event::mark(1, "stage.a", Fields::new()));
    let good = binfmt::encode_frame(&event);
    let mut bad_crc = good.clone();
    let last = bad_crc.len() - 5;
    bad_crc[last] ^= 0xFF;
    let mut strdef_payload = vec![0u8];
    strdef_payload.extend_from_slice(b"stage.a");
    let strdef = frame_with(KIND_STRDEF, SCHEMA_VERSION as u8, &strdef_payload);
    let mut bytes = binfmt::file_header();
    bytes.extend_from_slice(&strdef);
    bytes.extend_from_slice(&good);
    const DAMAGED: usize = 5000;
    for _ in 0..DAMAGED {
        bytes.extend_from_slice(&bad_crc);
        bytes.extend_from_slice(&strdef);
        bytes.extend_from_slice(&[0x00, 0x13, 0xFF, 0xFE, 0x00]);
    }
    assert!(bytes.len() > 2 * 64 * 1024, "several read chunks");
    let mut reader = BinReader::from_reader(bytes.as_slice()).expect("header");
    assert_eq!(reader.next_record().unwrap(), Some(event));
    let mut end = None;
    let n = allocations_during(|| end = Some(reader.next_record().unwrap()));
    assert_eq!(end, Some(None), "nothing decodable after the good frame");
    assert_eq!(
        reader.skipped(),
        2 * DAMAGED,
        "bad CRCs and garbage regions"
    );
    assert_eq!(n, 0, "framing allocated {n} times");
}
