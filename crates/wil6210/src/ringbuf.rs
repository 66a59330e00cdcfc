//! The measurement ring buffer (§3.3).
//!
//! "We modified the firmware to extract both measurements for each sector
//! sweep into a ring buffer that we can read from user space using our
//! modified driver."
//!
//! [`RingBuffer`] is that structure: a bounded ring of [`SweepEntry`]
//! records, written by the (emulated) ucode on every received SSW frame and
//! drained from user space. When full, the oldest entries are overwritten
//! — real firmware cannot block on a slow reader.

use obs::sync::lock;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use talon_array::SectorId;

/// One exported measurement record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepEntry {
    /// Monotonic sweep counter (which sweep this probe belonged to).
    pub sweep_id: u64,
    /// The transmit sector the peer probed.
    pub sector: SectorId,
    /// Reported SNR in dB (quantized per the firmware's format).
    pub snr_db: f64,
    /// Reported RSSI in dBm.
    pub rssi_dbm: f64,
}

/// A bounded, overwrite-on-full ring buffer with interior mutability, so
/// the "firmware" writer and the "user-space" reader can share it.
#[derive(Debug)]
pub struct RingBuffer {
    inner: Mutex<Inner>,
    /// Metric handles, resolved once: every push bumps two of them.
    pushes: Arc<obs::Counter>,
    dropped: Arc<obs::Counter>,
    occupancy: Arc<obs::Gauge>,
}

#[derive(Debug)]
struct Inner {
    entries: VecDeque<SweepEntry>,
    capacity: usize,
    overwritten: u64,
}

impl RingBuffer {
    /// The capacity used by the emulated firmware: enough for a handful of
    /// full 34-sector sweeps, mirroring the small SRAM budget of the chip.
    pub const FIRMWARE_CAPACITY: usize = 256;

    /// Creates a ring buffer with the given capacity.
    ///
    /// # Panics
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer needs capacity");
        RingBuffer {
            inner: Mutex::new(Inner {
                entries: VecDeque::with_capacity(capacity),
                capacity,
                overwritten: 0,
            }),
            pushes: obs::counter("wil.ring.pushes"),
            dropped: obs::counter("wil.ring.dropped"),
            occupancy: obs::gauge("wil.ring.occupancy"),
        }
    }

    /// Firmware side: pushes an entry, overwriting the oldest when full.
    pub fn push(&self, entry: SweepEntry) {
        let mut g = lock(&self.inner);
        self.pushes.inc();
        if g.entries.len() == g.capacity {
            g.entries.pop_front();
            g.overwritten += 1;
            self.dropped.inc();
            obs::health::anomaly(
                "ring_overflow",
                &[
                    ("capacity", g.capacity as f64),
                    ("overwritten", g.overwritten as f64),
                    ("sweep_id", entry.sweep_id as f64),
                ],
            );
        }
        g.entries.push_back(entry);
        self.occupancy.set(g.entries.len() as i64);
    }

    /// User-space side: drains all pending entries in FIFO order.
    pub fn drain(&self) -> Vec<SweepEntry> {
        let mut g = lock(&self.inner);
        self.occupancy.set(0);
        g.entries.drain(..).collect()
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        lock(&self.inner).entries.len()
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many entries have been lost to overwrites since creation.
    pub fn overwritten(&self) -> u64 {
        lock(&self.inner).overwritten
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(sweep_id: u64, sector: u8) -> SweepEntry {
        SweepEntry {
            sweep_id,
            sector: SectorId(sector),
            snr_db: 5.0,
            rssi_dbm: -60.0,
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let rb = RingBuffer::new(8);
        for i in 0..5 {
            rb.push(entry(1, i as u8 + 1));
        }
        let out = rb.drain();
        assert_eq!(out.len(), 5);
        assert!(out
            .windows(2)
            .all(|w| w[0].sector.raw() < w[1].sector.raw()));
        assert!(rb.is_empty());
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let rb = RingBuffer::new(3);
        for i in 1..=5u8 {
            rb.push(entry(1, i));
        }
        assert_eq!(rb.overwritten(), 2);
        let out = rb.drain();
        let sectors: Vec<u8> = out.iter().map(|e| e.sector.raw()).collect();
        assert_eq!(sectors, vec![3, 4, 5]);
    }

    #[test]
    fn drain_resets_but_overwrite_counter_persists() {
        let rb = RingBuffer::new(2);
        rb.push(entry(1, 1));
        rb.push(entry(1, 2));
        rb.push(entry(1, 3));
        assert_eq!(rb.drain().len(), 2);
        assert_eq!(rb.len(), 0);
        assert_eq!(rb.overwritten(), 1);
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let rb = Arc::new(RingBuffer::new(1024));
        let writer = {
            let rb = Arc::clone(&rb);
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    rb.push(entry(i, (i % 34 + 1) as u8));
                }
            })
        };
        writer.join().unwrap();
        assert_eq!(rb.drain().len(), 500);
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_panics() {
        RingBuffer::new(0);
    }

    #[test]
    fn overflow_drops_are_counted_in_obs() {
        let before = obs::global().snapshot().counter("wil.ring.dropped");
        let rb = RingBuffer::new(4);
        for i in 1..=10u8 {
            rb.push(entry(1, i));
        }
        assert_eq!(rb.overwritten(), 6);
        let after = obs::global().snapshot().counter("wil.ring.dropped");
        // The obs counter is process-global and other tests overflow their
        // own rings concurrently, so the delta is a lower bound.
        assert!(
            after - before >= 6,
            "wil.ring.dropped moved by {} (< 6)",
            after - before
        );
    }

    #[test]
    fn concurrent_overflow_yields_no_torn_entries() {
        use std::sync::Arc;
        // Every field of a pushed entry is derived from its sweep_id, so a
        // torn entry (fields from two different writers mixed) is
        // detectable in the drained output.
        fn derived(v: u64) -> SweepEntry {
            SweepEntry {
                sweep_id: v,
                sector: SectorId((v % 34 + 1) as u8),
                snr_db: v as f64 * 0.5,
                rssi_dbm: -1.0 - v as f64,
            }
        }
        let rb = Arc::new(RingBuffer::new(16));
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let rb = Arc::clone(&rb);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        rb.push(derived(w * 1000 + i));
                    }
                })
            })
            .collect();
        // Drain concurrently with the writers, checking consistency.
        let mut drained = 0u64;
        let mut check = |entries: Vec<SweepEntry>| {
            for e in entries {
                assert_eq!(e, derived(e.sweep_id), "torn entry {e:?}");
                drained += 1;
            }
        };
        while !writers.iter().all(std::thread::JoinHandle::is_finished) {
            check(rb.drain());
        }
        for w in writers {
            w.join().unwrap();
        }
        check(rb.drain());
        // Every push either reached a drain or was counted as dropped.
        assert_eq!(drained + rb.overwritten(), 2000);
    }
}
