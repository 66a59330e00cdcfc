//! `obs::binfmt` — the trace format.
//!
//! Every trace talon writes (`--trace`) and reads
//! (`report`, `replay`, `profile`) is in this format.
//! JSON Lines exists only as a one-way export (`talon trace convert`,
//! rendered by [`crate::sink::record_line`]): greppable and
//! self-describing, but ~5.5× larger, because every line repeats every
//! field name and prints every `f64` in decimal.
//!
//! ## Framing
//!
//! A trace file is an 8-byte magic ([`MAGIC`]) plus a little-endian `u32`
//! file schema version, followed by independent record frames:
//!
//! ```text
//! ┌────────┬──────┬─────────┬────────────┬───────────┬─────────┐
//! │ 0xA7   │ kind │ version │ len varint │ payload   │ crc u32 │
//! │ marker │ u8   │ u8      │ ≤ 3 bytes  │ len bytes │ LE      │
//! └────────┴──────┴─────────┴────────────┴───────────┴─────────┘
//! ```
//!
//! * the **marker** byte is a resync point: a reader that loses framing
//!   (corrupt length, overwritten region) scans forward to the next
//!   marker and tries again, skipping and counting the damaged region;
//! * **kind** selects the payload codec (1 = [`Event`], 2 =
//!   [`DecisionRecord`], 3 = [`Snapshot`], 4 = string definition);
//! * **version** stamps every record with [`SCHEMA_VERSION`]; a record
//!   written by a newer build is a hard error (checked after its CRC
//!   validates, so corruption cannot masquerade as a future version);
//! * **len** is capped at [`MAX_RECORD_LEN`] — an insane length is treated
//!   as corruption, not an allocation request;
//! * **crc** is CRC-32 (IEEE) over `kind ‖ version ‖ len ‖ payload`; a
//!   mismatch skips the frame.
//!
//! ## Payload encoding
//!
//! Payloads are fixed-field-order binary (the order is the schema, pinned
//! by the version byte): LEB128 varints for ids/counts, zigzag varints for
//! signed fields, and bit-packed `Vec<bool>` masks. Unknown trailing bytes
//! in a same-version payload are a decode error (skip-and-count), never
//! silently ignored.
//!
//! `f64` is encoded bit-exactly (replay depends on it) but rarely as raw
//! bits: the pattern is byte-swapped so a quantized value's trailing
//! mantissa zeros become a short capped varint, vectors whose every
//! element is an exact quarter-step (the firmware's dB quantization) drop
//! to zigzag integers, and non-quantized vectors XOR each element with its
//! predecessor, shrinking runs of similar magnitudes. See [`Enc::f64`] /
//! [`Enc::f64s`].
//!
//! ## String interning
//!
//! Stage names, sources, contexts, and field names repeat in virtually
//! every record. The writer assigns each distinct string a small id,
//! announced once in its own string-definition frame (kind 4, `id ‖
//! bytes`) *before* the first frame that references it; records then carry
//! `varint(id+1)` instead of the bytes. Code `0` means the string is
//! inline (unknown ids after damage, cap overflow, or standalone frames
//! from [`encode_frame`]). Definitions are append-only and ids are never
//! reused, so damage can only make a reference *unresolvable* (that record
//! is skipped and counted) — never silently resolve it to the wrong
//! string. Tables are capped ([`MAX_INTERNED`] entries,
//! [`MAX_INTERN_BYTES`] reader-side) so hostile input cannot balloon
//! memory; past the cap, strings simply go inline.
//!
//! Snapshot payloads do not intern: a trace's single closing snapshot
//! stays fully self-contained.
//!
//! ## Forward compatibility
//!
//! Any shape change bumps [`SCHEMA_VERSION`]. Readers reject newer
//! files/records instead of misparsing them; older records remain
//! readable as long as their version's field order is kept in the
//! decoders.
//!
//! ## Bounded memory
//!
//! [`BinReader`] parses frames in place in one byte window it refills
//! with large reads off any `Read`, and never buffers more than one record
//! (≤ [`MAX_RECORD_LEN`]) plus one read chunk plus the capped string
//! table, so a multi-GB trace replays in constant memory, as `talon
//! replay` streams it (`eval::replay::replay_file`).

use crate::decision::{DecisionRecord, SCHEMA_VERSION};
use crate::event::{Event, Fields};
use crate::registry::Snapshot;
use crate::sink::{note_write_error, EventSink};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::path::Path;

/// File magic: the first 8 bytes of every binary trace.
pub const MAGIC: &[u8; 8] = b"TALNTRC\x01";

/// Per-frame resync marker byte.
pub const MARKER: u8 = 0xA7;

/// Frame kind: an [`Event`] payload.
pub const KIND_EVENT: u8 = 1;
/// Frame kind: a [`DecisionRecord`] payload.
pub const KIND_DECISION: u8 = 2;
/// Frame kind: a [`Snapshot`] payload.
pub const KIND_SNAPSHOT: u8 = 3;
/// Frame kind: a string definition (`varint id ‖ UTF-8 bytes`).
pub const KIND_STRDEF: u8 = 4;

/// Upper bound on one record's payload. A frame declaring more is treated
/// as corruption (the reader resyncs), never as an allocation request.
pub const MAX_RECORD_LEN: usize = 1 << 20;

/// Maximum interned strings per trace; beyond this, strings go inline.
pub const MAX_INTERNED: usize = 1 << 16;

/// Reader-side cap on total interned bytes, against hostile inputs.
pub const MAX_INTERN_BYTES: usize = 1 << 24;

// ── CRC-32 (IEEE 802.3, reflected) ──────────────────────────────────────

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table,
/// and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight table lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Continues a CRC-32 (IEEE) over `data`: `crc` is the checksum of the
/// bytes so far (0 for none), so
/// `crc32_update(crc32_update(0, a), b) == crc32(a ‖ b)` and a frame's
/// head and payload are checksummed without being concatenated.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// CRC-32 (IEEE) of `data`, as used in the per-record frame checksum.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

// ── String interning (writer side) ──────────────────────────────────────

/// Writer-side string table: string → id, append-only, capped.
#[derive(Debug, Default)]
struct Interner {
    ids: HashMap<String, u32>,
}

impl Interner {
    /// The id for `s`, assigning the next one on first sight. `None` once
    /// the table is full (the caller writes the string inline instead).
    fn intern(&mut self, s: &str) -> Option<(u32, bool)> {
        if let Some(&id) = self.ids.get(s) {
            return Some((id, false));
        }
        if self.ids.len() >= MAX_INTERNED {
            return None;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(s.to_string(), id);
        Some((id, true))
    }
}

// ── Wire primitives ─────────────────────────────────────────────────────

/// Append-only encoder for one payload. When built with an interner
/// ([`Enc::interned`]), strings written via [`Enc::istr`] become table
/// references, and each newly assigned id is appended to `defs` as a
/// complete strdef frame for the caller to write before this payload's
/// frame.
#[derive(Default)]
struct Enc<'a> {
    buf: Vec<u8>,
    intern: Option<&'a mut Interner>,
    defs: Vec<u8>,
}

impl<'a> Enc<'a> {
    /// An interning encoder that appends to `buf` and `defs` (cleared
    /// first), so a caller can keep their capacity from record to record.
    fn interned(intern: &'a mut Interner, mut buf: Vec<u8>, mut defs: Vec<u8>) -> Self {
        buf.clear();
        defs.clear();
        Enc {
            buf,
            intern: Some(intern),
            defs,
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// LEB128 unsigned varint.
    fn varint(&mut self, v: u64) {
        // Most varints in a record (counts, sector ids, quarter-dB steps)
        // fit one byte: push it without assembling and copying a buffer.
        if v < 0x80 {
            self.buf.push(v as u8);
            return;
        }
        let (bytes, n) = varint_bytes(v);
        self.buf.extend_from_slice(&bytes[..n]);
    }

    /// Zigzag-encoded signed varint.
    fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Bit-exact `f64`, compactly: the bit pattern is byte-swapped (so the
    /// sign/exponent/high-mantissa land in the *low* bytes and a short
    /// mantissa's trailing zeros become leading zeros) and written as a
    /// capped varint ([`Enc::varint9`]).
    ///
    /// Trace floats are dominated by firmware-quantized dB values
    /// (quarter-dB steps — mantissas almost all zeros): those cost 1–3
    /// bytes here instead of 8 raw. Full-precision doubles (estimator
    /// outputs) pay 9 bytes, one more than raw — a trade the real record
    /// mix wins by ~3× on its float sections.
    fn f64(&mut self, v: f64) {
        self.varint9(v.to_bits().swap_bytes());
    }

    /// LEB128 varint capped at 9 bytes: after eight 7-bit groups the ninth
    /// byte carries the remaining 8 bits whole (no continuation flag), so
    /// a dense `u64` costs 9 bytes, not 10.
    fn varint9(&mut self, mut v: u64) {
        for _ in 0..8 {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
        self.buf.push(v as u8);
    }

    /// Inline string: varint length + UTF-8 bytes. Used for strdef
    /// payloads and snapshots (which stay self-contained).
    fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Internable string: `varint(id+1)` when the interner has (or can
    /// assign) an id for `s`, else `0` + inline. First-seen ids are pushed
    /// to `defs` so the caller announces them before this frame.
    fn istr(&mut self, s: &str) {
        match self.intern.as_mut().and_then(|i| i.intern(s)) {
            Some((id, is_new)) => {
                if is_new {
                    let (id_bytes, n) = varint_bytes(u64::from(id));
                    append_frame(
                        &mut self.defs,
                        KIND_STRDEF,
                        SCHEMA_VERSION as u8,
                        &[&id_bytes[..n], s.as_bytes()],
                    );
                }
                self.varint(u64::from(id) + 1);
            }
            None => {
                self.varint(0);
                self.str(s);
            }
        }
    }

    /// `f64` vector. The readings / kernel vectors in decision records are
    /// firmware-quantized to quarter-dB steps, so when every element
    /// round-trips bit-exactly through `value × 4` as an integer the whole
    /// vector is written as zigzag varints of those quarter-steps (tag 1,
    /// mostly 1 byte per value). Otherwise (tag 0) the first element is a
    /// varint9 float and each later element is the XOR of its bits with
    /// its predecessor's — consecutive values of similar magnitude (e.g.
    /// ranked correlation weights) share sign/exponent/leading-mantissa
    /// bits, and identical repeats collapse to one byte.
    fn f64s(&mut self, vs: &[f64]) {
        self.varint(vs.len() as u64);
        let is_quarter = |v: f64| {
            let q = v * 4.0;
            q.abs() < (1i64 << 52) as f64 && ((q as i64) as f64 / 4.0).to_bits() == v.to_bits()
        };
        if vs.iter().all(|&v| is_quarter(v)) {
            self.u8(1);
            for &v in vs {
                self.zigzag((v * 4.0) as i64);
            }
        } else {
            self.u8(0);
            let mut prev = 0u64;
            for (i, &v) in vs.iter().enumerate() {
                let bits = v.to_bits();
                if i == 0 {
                    self.varint9(bits.swap_bytes());
                } else {
                    // XOR zeroes the *high* (shared) bits, which is
                    // exactly what an unswapped varint drops.
                    self.varint9(bits ^ prev);
                }
                prev = bits;
            }
        }
    }

    fn varints(&mut self, vs: &[u64]) {
        self.varint(vs.len() as u64);
        for &v in vs {
            self.varint(v);
        }
    }

    /// Bit-packed bool vector: varint count, then ⌈n/8⌉ bytes, LSB first.
    fn bools(&mut self, vs: &[bool]) {
        self.varint(vs.len() as u64);
        let mut byte = 0u8;
        for (i, &b) in vs.iter().enumerate() {
            if b {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                self.buf.push(byte);
                byte = 0;
            }
        }
        if !vs.is_empty() && !vs.len().is_multiple_of(8) {
            self.buf.push(byte);
        }
    }
}

/// Cursor over one payload; every read is bounds-checked. `table` is the
/// interned-string table accumulated from strdef frames.
struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
    table: &'a [String],
}

type DecodeResult<T> = Result<T, String>;

impl<'a> Dec<'a> {
    fn new(data: &'a [u8], table: &'a [String]) -> Self {
        Dec {
            data,
            pos: 0,
            table,
        }
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> DecodeResult<u8> {
        let Some(&b) = self.data.get(self.pos) else {
            return Err(format!("payload truncated at byte {}", self.pos));
        };
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> DecodeResult<u64> {
        // Fast path: most ids, counts and quarter-steps fit in one byte.
        if let Some(&b) = self.data.get(self.pos).filter(|&&b| b < 0x80) {
            self.pos += 1;
            return Ok(u64::from(b));
        }
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err("varint overflows u64".into());
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err("varint longer than 10 bytes".into());
            }
        }
    }

    fn zigzag(&mut self) -> DecodeResult<i64> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    fn f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.varint9()?.swap_bytes()))
    }

    fn varint9(&mut self) -> DecodeResult<u64> {
        let mut v = 0u64;
        for group in 0..8 {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7F) << (7 * group);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Ok(v | u64::from(self.u8()?) << 56)
    }

    /// Guards a declared element count against the remaining bytes, so a
    /// corrupt count cannot request a pathological allocation.
    fn count(&mut self, min_elem_bytes: usize) -> DecodeResult<usize> {
        let n = self.varint()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.data.len() - self.pos + 7 {
            return Err(format!("count {n} exceeds remaining payload"));
        }
        Ok(n)
    }

    fn str(&mut self) -> DecodeResult<String> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 in string".into())
    }

    /// Internable string: code `0` = inline, `n` = table entry `n-1`. An
    /// id missing from the table (its strdef frame was lost to damage) is
    /// a decode error — the record is skipped, never mislabeled.
    fn istr(&mut self) -> DecodeResult<String> {
        match self.varint()? {
            0 => self.str(),
            n => self
                .table
                .get(n as usize - 1)
                .cloned()
                .ok_or_else(|| format!("unknown interned string id {}", n - 1)),
        }
    }

    /// Decoded vectors are presized from their guarded count: one
    /// allocation each, never a grow-and-copy.
    fn f64s(&mut self) -> DecodeResult<Vec<f64>> {
        // A quarter-step or varint9 element can be as short as one byte.
        let n = self.count(1)?;
        let mut out = Vec::with_capacity(n);
        match self.u8()? {
            1 => {
                for _ in 0..n {
                    out.push(self.zigzag()? as f64 / 4.0);
                }
            }
            0 => {
                let mut prev = 0u64;
                for i in 0..n {
                    let bits = if i == 0 {
                        self.varint9()?.swap_bytes()
                    } else {
                        self.varint9()? ^ prev
                    };
                    prev = bits;
                    out.push(f64::from_bits(bits));
                }
            }
            other => return Err(format!("unknown f64 vector tag {other}")),
        }
        Ok(out)
    }

    fn varints(&mut self) -> DecodeResult<Vec<u64>> {
        let n = self.count(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.varint()?);
        }
        Ok(out)
    }

    fn bools(&mut self) -> DecodeResult<Vec<bool>> {
        // Packed at 8 per byte, so guard the count against packed size,
        // not element count.
        let n = self.varint()? as usize;
        if n.div_ceil(8) > self.data.len() - self.pos {
            return Err(format!("bool count {n} exceeds remaining payload"));
        }
        let bytes = self.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 != 0).collect())
    }

    /// Decoding must consume the payload exactly: trailing bytes in a
    /// same-version record mean the codecs disagree, which is corruption.
    fn finish(self) -> DecodeResult<()> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing byte(s) after payload",
                self.data.len() - self.pos
            ))
        }
    }
}

// ── Payload codecs ──────────────────────────────────────────────────────

/// Event `kind` strings get a one-byte code; anything else (forward
/// compatibility with new kinds) is carried as an internable string.
const EVENT_KIND_OTHER: u8 = 3;

fn event_kind_code(kind: &str) -> u8 {
    match kind {
        "span" => 0,
        "mark" => 1,
        "anomaly" => 2,
        _ => EVENT_KIND_OTHER,
    }
}

fn encode_event(e: &Event, enc: &mut Enc) {
    let code = event_kind_code(&e.kind);
    enc.u8(code);
    if code == EVENT_KIND_OTHER {
        enc.istr(&e.kind);
    }
    enc.varint(e.ts_us);
    enc.istr(&e.stage);
    enc.varint(e.dur_us);
    enc.varint(e.trace_id);
    enc.varint(e.span_id);
    enc.varint(e.parent_id);
    enc.varint(e.fields.len() as u64);
    for (k, v) in e.fields.iter() {
        enc.istr(k);
        enc.f64(v);
    }
}

fn decode_event(dec: &mut Dec) -> DecodeResult<Event> {
    let kind = match dec.u8()? {
        0 => Cow::Borrowed("span"),
        1 => Cow::Borrowed("mark"),
        2 => Cow::Borrowed("anomaly"),
        EVENT_KIND_OTHER => Cow::Owned(dec.istr()?),
        other => return Err(format!("unknown event kind code {other}")),
    };
    let ts_us = dec.varint()?;
    let stage = dec.istr()?;
    let dur_us = dec.varint()?;
    let trace_id = dec.varint()?;
    let span_id = dec.varint()?;
    let parent_id = dec.varint()?;
    let n = dec.count(2)?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let key = dec.istr()?;
        fields.push((Cow::Owned(key), dec.f64()?));
    }
    let fields = Fields::from_unsorted(fields);
    Ok(Event {
        ts_us,
        kind,
        stage: Cow::Owned(stage),
        dur_us,
        trace_id,
        span_id,
        parent_id,
        fields,
    })
}

fn encode_decision(r: &DecisionRecord, enc: &mut Enc) {
    enc.varint(r.schema_version);
    enc.varint(r.ts_us);
    enc.varint(r.trace_id);
    enc.varint(r.parent_id);
    enc.istr(&r.source);
    enc.istr(&r.context);
    enc.istr(&r.mode);
    let flags = u8::from(r.energy_prior)
        | u8::from(r.smoothing) << 1
        | u8::from(r.subcell_refinement) << 2
        | u8::from(r.replayable) << 3
        | u8::from(r.has_estimate) << 4
        | u8::from(r.fallback) << 5
        | u8::from(r.has_oracle) << 6;
    enc.u8(flags);
    // The digest is a hash (uniformly random bits): a varint would cost
    // 9–10 bytes, raw LE costs exactly 8.
    enc.buf.extend_from_slice(&r.patterns_digest.to_le_bytes());
    enc.varints(&r.probed);
    enc.f64s(&r.snr_db);
    enc.f64s(&r.rssi_dbm);
    enc.bools(&r.masked);
    enc.bools(&r.clamped);
    enc.f64s(&r.p_snr);
    enc.f64s(&r.p_rssi);
    enc.varints(&r.top_cells);
    enc.f64s(&r.top_weights);
    enc.f64(r.energy_max);
    enc.f64(r.est_az_deg);
    enc.f64(r.est_el_deg);
    enc.f64(r.score);
    enc.zigzag(r.chosen_sector);
    enc.zigzag(r.oracle_sector);
    enc.f64(r.oracle_snr_db);
    enc.f64(r.chosen_snr_db);
    enc.f64(r.snr_loss_db);
    // Schema 3: fields append after the v2 payload, so a v2 frame is a
    // strict prefix of a v3 frame and the decoder can branch on the frame
    // version byte.
    enc.istr(&r.kernel_path);
}

/// Decodes a decision payload written under frame version
/// `frame_version` (v2 payloads lack the trailing `kernel_path`, which
/// only the f64 path could have produced).
fn decode_decision(dec: &mut Dec, frame_version: u8) -> DecodeResult<DecisionRecord> {
    let schema_version = dec.varint()?;
    let ts_us = dec.varint()?;
    let trace_id = dec.varint()?;
    let parent_id = dec.varint()?;
    let source = dec.istr()?;
    let context = dec.istr()?;
    let mode = dec.istr()?;
    let flags = dec.u8()?;
    let digest_bytes: [u8; 8] = dec.take(8)?.try_into().expect("take(8) is 8 bytes");
    let patterns_digest = u64::from_le_bytes(digest_bytes);
    Ok(DecisionRecord {
        schema_version,
        ts_us,
        trace_id,
        parent_id,
        source,
        context,
        mode,
        energy_prior: flags & 1 != 0,
        smoothing: flags >> 1 & 1 != 0,
        subcell_refinement: flags >> 2 & 1 != 0,
        replayable: flags >> 3 & 1 != 0,
        has_estimate: flags >> 4 & 1 != 0,
        fallback: flags >> 5 & 1 != 0,
        has_oracle: flags >> 6 & 1 != 0,
        patterns_digest,
        probed: dec.varints()?,
        snr_db: dec.f64s()?,
        rssi_dbm: dec.f64s()?,
        masked: dec.bools()?,
        clamped: dec.bools()?,
        p_snr: dec.f64s()?,
        p_rssi: dec.f64s()?,
        top_cells: dec.varints()?,
        top_weights: dec.f64s()?,
        energy_max: dec.f64()?,
        est_az_deg: dec.f64()?,
        est_el_deg: dec.f64()?,
        score: dec.f64()?,
        chosen_sector: dec.zigzag()?,
        oracle_sector: dec.zigzag()?,
        oracle_snr_db: dec.f64()?,
        chosen_snr_db: dec.f64()?,
        snr_loss_db: dec.f64()?,
        // Struct-literal fields evaluate in source order, so this istr
        // runs after every v2 field above has been consumed.
        kernel_path: if frame_version >= 3 {
            dec.istr()?
        } else {
            "f64".to_string()
        },
    })
}

fn encode_snapshot(s: &Snapshot, enc: &mut Enc) {
    enc.varint(s.counters.len() as u64);
    for (k, v) in &s.counters {
        enc.str(k);
        enc.varint(*v);
    }
    enc.varint(s.gauges.len() as u64);
    for (k, v) in &s.gauges {
        enc.str(k);
        enc.zigzag(*v);
    }
    enc.varint(s.histograms.len() as u64);
    for (k, h) in &s.histograms {
        enc.str(k);
        enc.varint(h.count);
        enc.varint(h.sum);
        enc.varint(h.max);
        enc.varint(h.buckets.len() as u64);
        for b in &h.buckets {
            enc.varint(b.lo);
            enc.varint(b.hi);
            enc.varint(b.count);
        }
    }
}

fn decode_snapshot(dec: &mut Dec) -> DecodeResult<Snapshot> {
    use crate::metrics::{Bucket, HistogramSnapshot};
    let mut snapshot = Snapshot::default();
    for _ in 0..dec.count(2)? {
        let key = dec.str()?;
        snapshot.counters.insert(key, dec.varint()?);
    }
    for _ in 0..dec.count(2)? {
        let key = dec.str()?;
        snapshot.gauges.insert(key, dec.zigzag()?);
    }
    for _ in 0..dec.count(4)? {
        let key = dec.str()?;
        let count = dec.varint()?;
        let sum = dec.varint()?;
        let max = dec.varint()?;
        let n = dec.count(3)?;
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            buckets.push(Bucket {
                lo: dec.varint()?,
                hi: dec.varint()?,
                count: dec.varint()?,
            });
        }
        snapshot.histograms.insert(
            key,
            HistogramSnapshot {
                count,
                sum,
                max,
                buckets,
            },
        );
    }
    Ok(snapshot)
}

// ── Records and frames ──────────────────────────────────────────────────

/// One record read from (or written to) a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A span / mark / anomaly event.
    Event(Event),
    /// A decision-provenance record (boxed — ~4× an event).
    Decision(Box<DecisionRecord>),
    /// A registry snapshot (normally the trace's closing record).
    Snapshot(Snapshot),
}

fn encode_payload(record: &TraceRecord, enc: &mut Enc) -> u8 {
    match record {
        TraceRecord::Event(e) => {
            encode_event(e, enc);
            KIND_EVENT
        }
        TraceRecord::Decision(d) => {
            encode_decision(d, enc);
            KIND_DECISION
        }
        TraceRecord::Snapshot(s) => {
            encode_snapshot(s, enc);
            KIND_SNAPSHOT
        }
    }
}

/// Encodes one record as a complete standalone frame (marker through CRC,
/// no interning — all strings inline), ready to append after the header.
pub fn encode_frame(record: &TraceRecord) -> Vec<u8> {
    let mut enc = Enc::default();
    let kind = encode_payload(record, &mut enc);
    frame_with(kind, SCHEMA_VERSION as u8, &enc.buf)
}

/// Builds a frame from raw parts (exposed so corruption tests can forge
/// frames the writer would never produce).
pub fn frame_with(kind: u8, version: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + MAX_HEAD_LEN + 4);
    append_frame(&mut out, kind, version, &[payload]);
    out
}

/// Longest frame head: marker, kind, version and a ≤ 3-byte length
/// varint ([`MAX_RECORD_LEN`] < 2²¹).
const MAX_HEAD_LEN: usize = 6;

/// The LEB128 bytes of `v` and how many of them are used.
fn varint_bytes(mut v: u64) -> ([u8; 10], usize) {
    let mut out = [0u8; 10];
    let mut n = 0;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out[n] = byte;
            return (out, n + 1);
        }
        out[n] = byte | 0x80;
        n += 1;
    }
}

/// A frame's head (`marker ‖ kind ‖ version ‖ len`) and its length.
fn frame_head(kind: u8, version: u8, len: usize) -> ([u8; MAX_HEAD_LEN], usize) {
    assert!(len <= MAX_RECORD_LEN, "record exceeds cap");
    let (len_bytes, n) = varint_bytes(len as u64);
    let mut head = [MARKER, kind, version, 0, 0, 0];
    head[3..3 + n].copy_from_slice(&len_bytes[..n]);
    (head, 3 + n)
}

/// Appends one complete frame whose payload is the concatenation of
/// `parts`, checksummed piece by piece.
fn append_frame(out: &mut Vec<u8>, kind: u8, version: u8, parts: &[&[u8]]) {
    let (head, n) = frame_head(kind, version, parts.iter().map(|p| p.len()).sum());
    out.extend_from_slice(&head[..n]);
    let mut crc = crc32_update(0, &head[1..n]);
    for part in parts {
        out.extend_from_slice(part);
        crc = crc32_update(crc, part);
    }
    out.extend_from_slice(&crc.to_le_bytes());
}

/// The file header every binary trace starts with.
pub fn file_header() -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(SCHEMA_VERSION as u32).to_le_bytes());
    out
}

fn decode_payload(
    kind: u8,
    frame_version: u8,
    payload: &[u8],
    table: &[String],
) -> DecodeResult<TraceRecord> {
    let mut dec = Dec::new(payload, table);
    let record = match kind {
        KIND_EVENT => TraceRecord::Event(decode_event(&mut dec)?),
        KIND_DECISION => TraceRecord::Decision(Box::new(decode_decision(&mut dec, frame_version)?)),
        KIND_SNAPSHOT => TraceRecord::Snapshot(decode_snapshot(&mut dec)?),
        other => return Err(format!("unknown record kind {other}")),
    };
    dec.finish()?;
    Ok(record)
}

// ── Writer ──────────────────────────────────────────────────────────────

/// The sink's state under one lock: output stream, the interner whose
/// ids the stream's frames reference, and the two encode buffers every
/// record reuses (its frame, and the strdef frames that precede it).
#[derive(Debug)]
struct BinState {
    out: BufWriter<File>,
    intern: Interner,
    frame: Vec<u8>,
    defs: Vec<u8>,
}

/// Streaming binary trace writer: an [`EventSink`] that appends one frame
/// per record through a `BufWriter` (preceded by strdef frames for any
/// first-seen strings), so the recording hot path costs one encode plus a
/// (usually buffered) memcpy. Records are encoded straight from the
/// borrowed event or decision into buffers the sink keeps, so a warm
/// sink allocates only for first-seen strings. Write failures bump
/// `health.trace_write_failed` and warn once — a full disk degrades the
/// trace, it no longer silently loses provenance.
#[derive(Debug)]
pub struct BinSink {
    state: Mutex<BinState>,
}

impl BinSink {
    /// Creates (truncating) the binary trace file at `path` and writes the
    /// magic + file-version header.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&file_header())?;
        Ok(BinSink {
            state: Mutex::new(BinState {
                out,
                intern: Interner::default(),
                frame: Vec::new(),
                defs: Vec::new(),
            }),
        })
    }

    /// Encodes and appends one record frame, preceded by strdef frames for
    /// any strings this record interned first. `encode` writes the payload
    /// and returns its frame kind.
    ///
    /// The frame is assembled in place: the payload is encoded after
    /// [`MAX_HEAD_LEN`] reserved bytes, and the head, once the length is
    /// known, is written right-aligned into them.
    fn write_record(&self, what: &str, encode: impl FnOnce(&mut Enc) -> u8) {
        let mut state = self.state.lock();
        let BinState {
            out,
            intern,
            frame,
            defs,
        } = &mut *state;
        let mut enc = Enc::interned(intern, std::mem::take(frame), std::mem::take(defs));
        enc.buf.resize(MAX_HEAD_LEN, 0);
        let kind = encode(&mut enc);
        let Enc {
            buf: mut assembled,
            defs: new_defs,
            ..
        } = enc;
        let (head, n) = frame_head(kind, SCHEMA_VERSION as u8, assembled.len() - MAX_HEAD_LEN);
        let at = MAX_HEAD_LEN - n;
        assembled[at..MAX_HEAD_LEN].copy_from_slice(&head[..n]);
        let crc = crc32_update(0, &assembled[at + 1..]);
        assembled.extend_from_slice(&crc.to_le_bytes());
        let result = out
            .write_all(&new_defs)
            .and_then(|()| out.write_all(&assembled[at..]));
        *frame = assembled;
        *defs = new_defs;
        if let Err(e) = result {
            note_write_error("BinSink", what, &e);
        }
    }
}

impl EventSink for BinSink {
    fn emit(&self, event: &Event) {
        self.write_record("event", |enc| {
            encode_event(event, enc);
            KIND_EVENT
        });
    }

    fn emit_decision(&self, record: &DecisionRecord) {
        self.write_record("decision record", |enc| {
            encode_decision(record, enc);
            KIND_DECISION
        });
    }

    fn write_snapshot(&self, snapshot: &Snapshot) {
        self.write_record("snapshot", |enc| {
            encode_snapshot(snapshot, enc);
            KIND_SNAPSHOT
        });
    }

    fn flush(&self) {
        if let Err(e) = self.state.lock().out.flush() {
            note_write_error("BinSink", "buffered trace frames", &e);
        }
    }
}

// ── Reader ──────────────────────────────────────────────────────────────

/// Bytes asked of the input per read: one large read amortizes the
/// per-call cost (a syscall, for a file) over hundreds of frames.
const READ_CHUNK: usize = 64 * 1024;

/// How the head of the frame at the window's start parsed.
enum Head {
    /// The input ends inside the head.
    Truncated,
    /// A length varint longer than 3 bytes or above [`MAX_RECORD_LEN`].
    Oversized,
    /// A plausible frame of `head_len + len + 4` bytes.
    Frame { head_len: usize, len: usize },
}

/// Bounded-memory streaming reader over any `Read` source.
///
/// The reader owns one byte window, refilled by [`READ_CHUNK`]-sized
/// reads and compacted when a frame runs past its end. Every frame is
/// parsed and checksummed where it lies in the window and decoded
/// straight from it: no per-frame copy, no per-frame allocation. The
/// window never grows past one read chunk plus the larger of one chunk
/// and one frame (≤ [`MAX_RECORD_LEN`] plus its head and CRC).
///
/// Forgiving about damage: corrupt frames (bad CRC, insane length,
/// truncated tail from a killed writer) are skipped and counted, never
/// fatal. Strict about versions: a file or a CRC-valid record stamped
/// with a newer schema version is a hard error.
#[derive(Debug)]
pub struct BinReader<R: Read> {
    input: R,
    /// `window[start..end]` is read from the input but not yet parsed.
    window: Vec<u8>,
    start: usize,
    end: usize,
    /// Set once the input reports end of stream (or a read error).
    eof: bool,
    /// Interned strings, by id, accumulated from strdef frames.
    table: Vec<String>,
    table_bytes: usize,
    skipped: usize,
}

/// The reader type [`BinReader::open`] returns for a trace file on disk.
pub type FileBinReader = BinReader<File>;

impl FileBinReader {
    /// Opens a binary trace file, validating magic and file version.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        BinReader::from_reader(file)
    }
}

impl<R: Read> BinReader<R> {
    /// Wraps a stream positioned at the file header.
    pub fn from_reader(mut input: R) -> Result<Self, String> {
        let mut header = [0u8; 12];
        input
            .read_exact(&mut header)
            .map_err(|e| format!("binary trace header unreadable: {e}"))?;
        if &header[..8] != MAGIC {
            return Err("not a binary trace (bad magic)".into());
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if u64::from(version) > SCHEMA_VERSION {
            return Err(format!(
                "trace schema_version {version} is newer than supported \
                 version {SCHEMA_VERSION}; upgrade talon to read this trace"
            ));
        }
        Ok(BinReader {
            input,
            window: Vec::new(),
            start: 0,
            end: 0,
            eof: false,
            table: Vec::new(),
            table_bytes: 0,
            skipped: 0,
        })
    }

    /// Frames skipped so far (CRC mismatches, truncated tails, resyncs,
    /// records whose strdef frame was lost).
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Makes at least `n` unparsed bytes available in the window, reading
    /// as needed; `false` if the input ends first. The unparsed bytes move
    /// to the window's front before each read, so every read asks for at
    /// least a chunk.
    fn fill(&mut self, n: usize) -> bool {
        while self.end - self.start < n {
            if self.eof {
                return false;
            }
            if self.start > 0 {
                self.window.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            // Sized once for any frame up to a chunk long, so a warm
            // reader never reallocates on ordinary frames.
            let size = n.max(READ_CHUNK) + READ_CHUNK;
            if self.window.len() < size {
                self.window.resize(size, 0);
            }
            match self.input.read(&mut self.window[self.end..]) {
                Ok(0) => self.eof = true,
                Ok(k) => self.end += k,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.eof = true,
            }
        }
        true
    }

    /// Scans forward to the next [`MARKER`] and leaves it at the window's
    /// start, or consumes everything if the input ends first. Called after
    /// losing framing; the caller has already counted the skip.
    fn resync(&mut self) {
        loop {
            let unparsed = &self.window[self.start..self.end];
            if let Some(i) = unparsed.iter().position(|&b| b == MARKER) {
                self.start += i;
                return;
            }
            self.start = self.end;
            if !self.fill(1) {
                return;
            }
        }
    }

    /// Parses the head of the frame whose marker is at the window's start.
    fn parse_head(&mut self) -> Head {
        let mut len = 0usize;
        for group in 0..3 {
            let at = 3 + group;
            if !self.fill(at + 1) {
                return Head::Truncated;
            }
            let b = self.window[self.start + at];
            len |= usize::from(b & 0x7F) << (7 * group);
            if b & 0x80 == 0 {
                return if len > MAX_RECORD_LEN {
                    Head::Oversized
                } else {
                    Head::Frame {
                        head_len: at + 1,
                        len,
                    }
                };
            }
        }
        // A 4th length byte means > 2^21: corruption.
        Head::Oversized
    }

    /// The next decoded record.
    ///
    /// `Ok(None)` at end of stream; `Err` only for the fatal
    /// newer-schema-version case. Everything else is skip-and-count.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, String> {
        loop {
            // ── Marker ──
            if !self.fill(1) {
                return Ok(None);
            }
            if self.window[self.start] != MARKER {
                // Lost framing (or garbage between frames): count one skip
                // for the damaged region and scan forward.
                self.skipped += 1;
                self.resync();
                continue;
            }
            // ── Head: kind, version, len varint ──
            let (head_len, len) = match self.parse_head() {
                Head::Frame { head_len, len } => (head_len, len),
                Head::Truncated => return Ok(self.drop_tail()),
                Head::Oversized => {
                    // An insane length is corruption, not an allocation
                    // request: step past this marker and resync.
                    self.skipped += 1;
                    self.start += 1;
                    self.resync();
                    continue;
                }
            };
            // ── Payload + CRC ──
            let total = head_len + len + 4;
            if !self.fill(total) {
                // Truncated mid-frame (killed writer): one dangling frame.
                return Ok(self.drop_tail());
            }
            let frame = &self.window[self.start..self.start + total];
            self.start += total;
            let (head, rest) = frame.split_at(head_len);
            let (payload, crc_bytes) = rest.split_at(len);
            let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
            if crc32_update(crc32_update(0, &head[1..]), payload) != stored_crc {
                self.skipped += 1;
                continue;
            }
            // CRC validated: the version byte is trustworthy, so a newer
            // record really was written by a newer build — hard error.
            let (kind, version) = (head[1], head[2]);
            if u64::from(version) > SCHEMA_VERSION {
                return Err(format!(
                    "trace record schema_version {version} is newer than supported \
                     version {SCHEMA_VERSION}; upgrade talon to read this trace"
                ));
            }
            if kind == KIND_STRDEF {
                if apply_strdef(&mut self.table, &mut self.table_bytes, payload).is_err() {
                    self.skipped += 1;
                }
                continue;
            }
            match decode_payload(kind, version, payload, &self.table) {
                Ok(record) => return Ok(Some(record)),
                // CRC-valid but undecodable (codec disagreement or a
                // reference to a lost strdef): skip, same accounting as
                // damage.
                Err(_) => self.skipped += 1,
            }
        }
    }

    /// Counts the dangling frame a truncated input ends in and discards it.
    fn drop_tail(&mut self) -> Option<TraceRecord> {
        self.skipped += 1;
        self.start = self.end;
        None
    }
}

/// Applies one CRC-valid strdef payload to the reader's string table.
/// Ids are append-only: the next expected id extends the table, a re-send
/// of an existing id must match it exactly, anything else (gaps, alias
/// attempts, cap overflow) is corruption.
fn apply_strdef(
    table: &mut Vec<String>,
    table_bytes: &mut usize,
    payload: &[u8],
) -> DecodeResult<()> {
    let mut dec = Dec::new(payload, &[]);
    let id = dec.varint()? as usize;
    let bytes = dec.take(payload.len() - dec.pos)?;
    let s = std::str::from_utf8(bytes).map_err(|_| "invalid UTF-8 in strdef")?;
    if id < table.len() {
        return if table[id] == s {
            Ok(())
        } else {
            Err(format!("strdef {id} redefines an existing string"))
        };
    }
    if id != table.len() || id >= MAX_INTERNED {
        return Err(format!("strdef id {id} out of sequence"));
    }
    if *table_bytes + s.len() > MAX_INTERN_BYTES {
        return Err("string table exceeds memory cap".into());
    }
    *table_bytes += s.len();
    table.push(s.to_string());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> Event {
        let mut fields = Fields::new();
        fields.insert("probes".to_string(), 14.0);
        fields.insert("margin_db".to_string(), -2.5);
        Event::span(12, "css.estimate", 34, fields).with_ids(7, 3, 1)
    }

    fn sample_decision() -> DecisionRecord {
        let mut rec = DecisionRecord::new("css.select");
        rec.mode = "joint".into();
        rec.replayable = true;
        rec.patterns_digest = 0xDEAD_BEEF_CAFE_F00D;
        rec.push_probe(3, Some((12.5, -55.0)));
        rec.push_probe(7, None);
        rec.push_probe(9, Some((60.0, -30.0)));
        rec.p_snr = vec![19.5, 67.0];
        rec.p_rssi = vec![5.0, 30.0];
        rec.top_cells = vec![42, 41];
        rec.top_weights = vec![0.93, 0.91];
        rec.has_estimate = true;
        rec.est_az_deg = -24.371;
        rec.est_el_deg = 1.25;
        rec.score = 0.93;
        rec.chosen_sector = 9;
        rec.set_oracle(&[(3, 18.0), (9, 15.5)], 9);
        rec
    }

    /// Round-trips one record through a standalone (uninterned) frame via
    /// the real streaming reader.
    fn roundtrip(record: &TraceRecord) -> TraceRecord {
        let mut bytes = file_header();
        bytes.extend_from_slice(&encode_frame(record));
        let mut reader = BinReader::from_reader(std::io::Cursor::new(bytes)).expect("header");
        let out = reader
            .next_record()
            .expect("no fatal error")
            .expect("one record");
        assert!(reader.next_record().expect("clean tail").is_none());
        assert_eq!(reader.skipped(), 0);
        out
    }

    #[test]
    fn v2_decision_frame_decodes_with_default_kernel_path() {
        // A v3 decision payload is a v2 payload plus a trailing
        // `kernel_path` istr, so forging a v2 frame is exactly "encode,
        // then strip that suffix". Old traces must decode with the
        // pre-kernel_path default of "f64".
        let mut d = sample_decision();
        d.schema_version = 2;
        let mut enc = Enc::default();
        encode_decision(&d, &mut enc);
        let mut suffix = Enc::default();
        suffix.istr(&d.kernel_path);
        let v2_payload = &enc.buf[..enc.buf.len() - suffix.buf.len()];
        let mut bytes = file_header();
        bytes.extend_from_slice(&frame_with(KIND_DECISION, 2, v2_payload));
        let mut reader = BinReader::from_reader(std::io::Cursor::new(bytes)).expect("header");
        let TraceRecord::Decision(back) = reader.next_record().unwrap().expect("one record") else {
            panic!("wrong kind");
        };
        assert_eq!(back.kernel_path, "f64");
        assert_eq!(*back, d);
        assert!(reader.next_record().unwrap().is_none());
        assert_eq!(reader.skipped(), 0);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// CRC-32 (IEEE) one bit at a time, straight from the polynomial: the
    /// reference the table-driven version must match.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn slicing_by_8_crc_matches_the_bitwise_reference() {
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        // xorshift64: deterministic bytes with no dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let buf: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        // Every short length, then random lengths up to 4096, each at all
        // eight start alignments.
        let lens: Vec<usize> = (0..=64)
            .chain((0..64).map(|_| (next() % 4097) as usize))
            .collect();
        for len in lens {
            for align in 0..8 {
                let data = &buf[align..align + len];
                let want = crc32_bitwise(data);
                assert_eq!(crc32(data), want, "len {len} at offset {align}");
                // Fed in two pieces split anywhere, it is the same CRC.
                let cut = if len == 0 { 0 } else { next() as usize % len };
                let (a, b) = data.split_at(cut);
                assert_eq!(crc32_update(crc32_update(0, a), b), want, "split at {cut}");
            }
        }
    }

    #[test]
    fn event_round_trips_bit_exactly() {
        let e = sample_event();
        let TraceRecord::Event(back) = roundtrip(&TraceRecord::Event(e.clone())) else {
            panic!("wrong kind");
        };
        assert_eq!(back, e);
    }

    #[test]
    fn decision_round_trips_bit_exactly() {
        let d = sample_decision();
        let TraceRecord::Decision(back) = roundtrip(&TraceRecord::Decision(Box::new(d.clone())))
        else {
            panic!("wrong kind");
        };
        assert_eq!(*back, d);
        assert_eq!(back.est_az_deg.to_bits(), d.est_az_deg.to_bits());
    }

    #[test]
    fn snapshot_round_trips() {
        let reg = crate::Registry::new();
        reg.counter("css.estimates").add(5);
        reg.gauge("wil.ring.occupancy").set(-12);
        reg.histogram("sls.run.dur_us").record(1500);
        let s = reg.snapshot();
        let TraceRecord::Snapshot(back) = roundtrip(&TraceRecord::Snapshot(s.clone())) else {
            panic!("wrong kind");
        };
        assert_eq!(back, s);
    }

    #[test]
    fn varint_and_zigzag_extremes() {
        let mut enc = Enc::default();
        enc.varint(0);
        enc.varint(u64::MAX);
        enc.zigzag(i64::MIN);
        enc.zigzag(i64::MAX);
        enc.zigzag(-1);
        let mut dec = Dec::new(&enc.buf, &[]);
        assert_eq!(dec.varint().unwrap(), 0);
        assert_eq!(dec.varint().unwrap(), u64::MAX);
        assert_eq!(dec.zigzag().unwrap(), i64::MIN);
        assert_eq!(dec.zigzag().unwrap(), i64::MAX);
        assert_eq!(dec.zigzag().unwrap(), -1);
        dec.finish().unwrap();
    }

    #[test]
    fn f64_vectors_round_trip_bit_exactly() {
        // Quantized quarter-steps, full-precision runs, extremes, and
        // negative zero (which must not take the quarter-int path).
        let vectors: Vec<Vec<f64>> = vec![
            vec![],
            vec![0.0, -7.0, -6.75, 12.25, 55.75, -128.0],
            vec![0.209_633_8, 0.207_1, 0.207_1, 0.198_4],
            vec![f64::MAX, f64::MIN, f64::MIN_POSITIVE, f64::EPSILON],
            vec![-0.0, 0.0, 1.0e300, -1.0e-300],
        ];
        for vs in vectors {
            let mut enc = Enc::default();
            enc.f64s(&vs);
            let mut dec = Dec::new(&enc.buf, &[]);
            let back = dec.f64s().unwrap();
            dec.finish().unwrap();
            let bits: Vec<u64> = vs.iter().map(|v| v.to_bits()).collect();
            let back_bits: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, back_bits, "{vs:?}");
        }
    }

    #[test]
    fn bool_packing_round_trips_awkward_lengths() {
        for n in [0usize, 1, 7, 8, 9, 14, 16, 33] {
            let vs: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut enc = Enc::default();
            enc.bools(&vs);
            let mut dec = Dec::new(&enc.buf, &[]);
            assert_eq!(dec.bools().unwrap(), vs, "n={n}");
            dec.finish().unwrap();
        }
    }

    #[test]
    fn trailing_bytes_are_a_decode_error() {
        let mut enc = Enc::default();
        encode_event(&sample_event(), &mut enc);
        enc.u8(0xFF); // one stray trailing byte
        assert!(decode_payload(KIND_EVENT, SCHEMA_VERSION as u8, &enc.buf, &[]).is_err());
    }

    #[test]
    fn interned_streams_round_trip_and_shrink() {
        // Two records sharing strings: the second frame references the
        // first's strdefs and must round-trip identically.
        let mut intern = Interner::default();
        let e = sample_event();
        let mut bytes = file_header();
        let mut sizes = Vec::new();
        for _ in 0..2 {
            let mut enc = Enc::interned(&mut intern, Vec::new(), Vec::new());
            encode_event(&e, &mut enc);
            let Enc { buf, defs, .. } = enc;
            bytes.extend_from_slice(&defs);
            sizes.push(buf.len());
            bytes.extend_from_slice(&frame_with(KIND_EVENT, SCHEMA_VERSION as u8, &buf));
        }
        let mut inline = Enc::default();
        encode_event(&e, &mut inline);
        assert!(
            sizes[0] == sizes[1] && sizes[1] < inline.buf.len(),
            "interned payloads must be stable and smaller than inline: \
             {sizes:?} vs {}",
            inline.buf.len()
        );
        let mut reader = BinReader::from_reader(std::io::Cursor::new(bytes)).unwrap();
        for _ in 0..2 {
            let TraceRecord::Event(back) = reader.next_record().unwrap().unwrap() else {
                panic!("wrong kind");
            };
            assert_eq!(back, e);
        }
        assert!(reader.next_record().unwrap().is_none());
        assert_eq!(reader.skipped(), 0);
    }

    #[test]
    fn binary_decision_is_much_smaller_than_jsonl() {
        // The shape of a real replayable `css.select` record (M=14 lab
        // sweep): firmware-quantized quarter-dB readings and kernel
        // vectors, full-precision weights and estimator outputs.
        let mut d = DecisionRecord::new("css.select");
        d.context = "scenario=lab,fidelity=fast,seed=7".into();
        d.mode = "joint".into();
        d.energy_prior = true;
        d.smoothing = true;
        d.subcell_refinement = true;
        d.patterns_digest = 599_070_852_699_260_445;
        d.replayable = true;
        for (i, s) in [2u64, 3, 6, 10, 11, 13, 17, 20, 25, 29, 31, 62, 63]
            .into_iter()
            .enumerate()
        {
            let snr = -7.0 + f64::from(i as u32) * 0.75;
            d.push_probe(s, Some((snr, -67.0 + f64::from(i as u32))));
        }
        d.p_snr = d.snr_db.iter().map(|s| (s + 7.0).max(0.0)).collect();
        d.p_rssi = d.rssi_dbm.iter().map(|r| r + 72.25).collect();
        d.top_cells = vec![16, 41, 15, 40, 17, 7, 66, 8];
        d.top_weights = (0..8)
            .map(|i| 0.209_633_842_341_586_36 - f64::from(i) * 0.010_215_973)
            .collect();
        d.energy_max = 28.757_094_535_281_396;
        d.has_estimate = true;
        d.est_az_deg = 28.988_257_190_257_2;
        d.score = 0.209_633_842_341_586_36;
        d.chosen_sector = 21;
        d.set_oracle(&[(21, 18.620_452_248_893_272)], 21);
        let jsonl = d.to_line().to_json().len() + 1;
        // Steady-state size: strings already interned (their one-time
        // strdef cost amortizes to nothing over a long trace).
        let mut intern = Interner::default();
        let mut warm = Enc::interned(&mut intern, Vec::new(), Vec::new());
        encode_decision(&d, &mut warm);
        let mut enc = Enc::interned(&mut intern, Vec::new(), Vec::new());
        encode_decision(&d, &mut enc);
        let binary = frame_with(KIND_DECISION, SCHEMA_VERSION as u8, &enc.buf).len();
        assert!(
            jsonl >= 5 * binary,
            "expected ≥5× shrink on a steady-state decision record, \
             got {jsonl} vs {binary}"
        );
    }
}
