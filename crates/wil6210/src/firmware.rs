//! The emulated QCA9500 firmware: the sweep handler of Fig. 2.
//!
//! The firmware owns the chip memory, the measurement ring buffer and the
//! sector-override switch. It implements
//! [`mac80211ad::FeedbackPolicy`], so an [`mac80211ad::SlsRunner`] drives
//! it exactly where the real sweep handler sits:
//!
//! * `select` is the "Receive SSW Frames → Select Best Sector → Set SSW
//!   Feedback Field" path. With the export patch flashed, every received
//!   probe is copied into the ring buffer (white box of Fig. 2); with the
//!   override patch flashed *and armed*, the returned sector is the
//!   user-space choice instead of the stock argmax (the 0/1 switch).
//! * `probe_sectors` is the transmit path; user space may restrict it to a
//!   probing subset via WMI.
//!
//! All hook state sits behind `parking_lot` locks so a user-space agent
//! thread can drive WMI while the MAC state machine runs.

use crate::memmap::MemoryMap;
use crate::patch::{flash_paper_patches, Patch};
use crate::registers::{fw_status, CsrBlock};
use crate::ringbuf::{RingBuffer, SweepEntry};
use crate::wmi::{WmiCommand, WmiError, WmiReply, FIRMWARE_VERSION};
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use talon_array::SectorId;
use talon_channel::SweepReading;

/// The emulated firmware instance of one device.
pub struct Qca9500Firmware {
    /// Chip memory (patched or stock).
    mem: Mutex<MemoryMap>,
    /// The measurement ring buffer (shared with user space).
    ring: Arc<RingBuffer>,
    /// The override switch state (None = stock algorithm).
    sector_override: Mutex<Option<SectorId>>,
    /// Optional probing-subset restriction for our own sweeps.
    probe_override: Mutex<Option<Vec<SectorId>>>,
    /// Monotonic sweep counter.
    sweep_counter: AtomicU64,
    /// The host-visible control/status registers.
    csr: Arc<CsrBlock>,
    /// Metric handles, resolved once.
    sweeps: Arc<obs::Counter>,
    wmi_commands: Arc<obs::Counter>,
}

impl Default for Qca9500Firmware {
    fn default() -> Self {
        Self::stock()
    }
}

impl Qca9500Firmware {
    /// Boots a stock (unpatched) firmware.
    pub fn stock() -> Self {
        let csr = Arc::new(CsrBlock::new());
        csr.fw_set_status(fw_status::RUNNING);
        Qca9500Firmware {
            mem: Mutex::new(MemoryMap::new()),
            ring: Arc::new(RingBuffer::new(RingBuffer::FIRMWARE_CAPACITY)),
            sector_override: Mutex::new(None),
            probe_override: Mutex::new(None),
            sweep_counter: AtomicU64::new(0),
            csr,
            sweeps: obs::counter("wil.sweeps"),
            wmi_commands: obs::counter("wil.wmi.commands"),
        }
    }

    /// Boots a firmware with the paper's patches already flashed.
    pub fn patched() -> Self {
        let fw = Self::stock();
        fw.flash_patches().expect("patching fresh memory succeeds");
        fw
    }

    /// Flashes the paper's two patches into chip memory.
    pub fn flash_patches(&self) -> Result<(), crate::memmap::MemError> {
        flash_paper_patches(&mut self.mem.lock())?;
        self.csr.fw_set_status(fw_status::PATCHED);
        Ok(())
    }

    /// The host-visible register block.
    pub fn csr(&self) -> Arc<CsrBlock> {
        Arc::clone(&self.csr)
    }

    /// Whether the ring-buffer export patch is active.
    pub fn export_patch_active(&self) -> bool {
        Patch::sweep_info_export().is_applied(&self.mem.lock())
    }

    /// Whether the sector-override patch is active.
    pub fn override_patch_active(&self) -> bool {
        Patch::sector_override().is_applied(&self.mem.lock())
    }

    /// The ring buffer handle (user space drains it through the driver).
    pub fn ring(&self) -> Arc<RingBuffer> {
        Arc::clone(&self.ring)
    }

    /// Handles a WMI command from the driver.
    pub fn handle_wmi(&self, cmd: &WmiCommand) -> Result<WmiReply, WmiError> {
        self.wmi_commands.inc();
        match cmd {
            WmiCommand::GetFirmwareVersion => {
                Ok(WmiReply::FirmwareVersion(FIRMWARE_VERSION.into()))
            }
            WmiCommand::SetSectorOverride(id) => {
                if !self.override_patch_active() {
                    return Err(WmiError::PatchNotApplied);
                }
                if !id.is_talon_tx() {
                    return Err(WmiError::InvalidSector(id.raw()));
                }
                *self.sector_override.lock() = Some(*id);
                Ok(WmiReply::Ok)
            }
            WmiCommand::ClearSectorOverride => {
                if !self.override_patch_active() {
                    return Err(WmiError::PatchNotApplied);
                }
                *self.sector_override.lock() = None;
                Ok(WmiReply::Ok)
            }
            WmiCommand::GetSweepInfoCount => {
                if !self.export_patch_active() {
                    return Err(WmiError::PatchNotApplied);
                }
                Ok(WmiReply::SweepInfoCount(self.ring.len()))
            }
            WmiCommand::SetProbeSectors(ids) => {
                if !self.override_patch_active() {
                    return Err(WmiError::PatchNotApplied);
                }
                if let Some(bad) = ids.iter().find(|id| !id.is_talon_tx()) {
                    return Err(WmiError::InvalidSector(bad.raw()));
                }
                *self.probe_override.lock() = Some(ids.clone());
                Ok(WmiReply::Ok)
            }
            WmiCommand::ClearProbeSectors => {
                if !self.override_patch_active() {
                    return Err(WmiError::PatchNotApplied);
                }
                *self.probe_override.lock() = None;
                Ok(WmiReply::Ok)
            }
        }
    }

    /// The current override, if armed.
    pub fn sector_override(&self) -> Option<SectorId> {
        *self.sector_override.lock()
    }

    /// ID of the sweep currently being processed.
    pub fn current_sweep_id(&self) -> u64 {
        self.sweep_counter.load(Ordering::SeqCst)
    }
}

impl FeedbackPolicy for &Qca9500Firmware {
    fn probe_sectors(&mut self, full_sweep: &[SectorId]) -> Vec<SectorId> {
        match &*self.probe_override.lock() {
            Some(ids) => ids.clone(),
            None => full_sweep.to_vec(),
        }
    }

    fn select(&mut self, readings: &[SweepReading]) -> Option<SectorId> {
        let mut span = obs::sink_active().then(|| obs::span!("wil.sweep"));
        self.sweeps.inc();
        let sweep_id = self.sweep_counter.fetch_add(1, Ordering::SeqCst) + 1;
        // Export hook (white box "Access Sector Information" of Fig. 2).
        let mut exported = 0u64;
        if self.export_patch_active() {
            for r in readings {
                if let Some(m) = r.measurement {
                    self.ring.push(SweepEntry {
                        sweep_id,
                        sector: r.sector,
                        snr_db: m.snr_db,
                        rssi_dbm: m.rssi_dbm,
                    });
                    exported += 1;
                }
            }
            // A gap between what was swept and what reached user space
            // means the compressive estimator will see fewer probes than
            // the schedule paid airtime for.
            if (exported as usize) < readings.len() {
                obs::health::anomaly(
                    "export_gap",
                    &[
                        ("swept", readings.len() as f64),
                        ("exported", exported as f64),
                        ("sweep_id", sweep_id as f64),
                    ],
                );
            }
        }
        if let Some(span) = &mut span {
            span.field("sweep_id", sweep_id as f64);
            span.field("exported", exported as f64);
        }
        // Raise the sweep-complete interrupt and refresh the counters the
        // host polls.
        let high_water = self.ring.len() * 4 >= RingBuffer::FIRMWARE_CAPACITY * 3;
        self.csr
            .fw_sweep_complete(sweep_id, self.ring.len(), high_water);
        // Override switch (white box "Set Sector ID" / "Enable Sector
        // Selection" of Fig. 2).
        if self.override_patch_active() {
            if let Some(forced) = *self.sector_override.lock() {
                return Some(forced);
            }
        }
        // Stock path: Eq. 1 argmax.
        MaxSnrPolicy.select(readings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use talon_channel::Measurement;

    fn reading(sector: u8, snr: f64) -> SweepReading {
        SweepReading {
            sector: SectorId(sector),
            measurement: Some(Measurement {
                snr_db: snr,
                rssi_dbm: -60.0,
            }),
        }
    }

    #[test]
    fn stock_firmware_rejects_patch_commands() {
        let fw = Qca9500Firmware::stock();
        assert_eq!(
            fw.handle_wmi(&WmiCommand::SetSectorOverride(SectorId(5))),
            Err(WmiError::PatchNotApplied)
        );
        assert_eq!(
            fw.handle_wmi(&WmiCommand::GetSweepInfoCount),
            Err(WmiError::PatchNotApplied)
        );
        // Stock commands still work.
        assert_eq!(
            fw.handle_wmi(&WmiCommand::GetFirmwareVersion),
            Ok(WmiReply::FirmwareVersion("3.3.3.7759".into()))
        );
    }

    #[test]
    fn stock_select_is_argmax_and_exports_nothing() {
        let fw = Qca9500Firmware::stock();
        let readings = vec![reading(1, 2.0), reading(7, 9.5), reading(20, 4.0)];
        let sel = (&mut &fw).select(&readings);
        assert_eq!(sel, Some(SectorId(7)));
        assert!(fw.ring().is_empty(), "no export without the patch");
    }

    #[test]
    fn patched_select_exports_to_ring_buffer() {
        let fw = Qca9500Firmware::patched();
        let readings = vec![reading(1, 2.0), reading(7, 9.5)];
        let _ = (&mut &fw).select(&readings);
        let entries = fw.ring().drain();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].sweep_id, 1);
        assert_eq!(entries[1].sector, SectorId(7));
        assert_eq!(entries[1].snr_db, 9.5);
    }

    #[test]
    fn override_switch_controls_selection() {
        let fw = Qca9500Firmware::patched();
        fw.handle_wmi(&WmiCommand::SetSectorOverride(SectorId(14)))
            .unwrap();
        let readings = vec![reading(7, 9.5)];
        assert_eq!((&mut &fw).select(&readings), Some(SectorId(14)));
        fw.handle_wmi(&WmiCommand::ClearSectorOverride).unwrap();
        assert_eq!((&mut &fw).select(&readings), Some(SectorId(7)));
    }

    #[test]
    fn invalid_override_sector_is_rejected() {
        let fw = Qca9500Firmware::patched();
        assert_eq!(
            fw.handle_wmi(&WmiCommand::SetSectorOverride(SectorId(40))),
            Err(WmiError::InvalidSector(40))
        );
        assert_eq!(fw.sector_override(), None);
    }

    #[test]
    fn probe_override_restricts_own_sweep() {
        let fw = Qca9500Firmware::patched();
        let subset = vec![SectorId(2), SectorId(9), SectorId(61)];
        fw.handle_wmi(&WmiCommand::SetProbeSectors(subset.clone()))
            .unwrap();
        let full: Vec<SectorId> = (1..=31).map(SectorId).collect();
        assert_eq!((&mut &fw).probe_sectors(&full), subset);
        fw.handle_wmi(&WmiCommand::ClearProbeSectors).unwrap();
        assert_eq!((&mut &fw).probe_sectors(&full), full);
    }

    #[test]
    fn sweep_counter_increments_per_select() {
        let fw = Qca9500Firmware::patched();
        assert_eq!(fw.current_sweep_id(), 0);
        let _ = (&mut &fw).select(&[reading(1, 1.0)]);
        let _ = (&mut &fw).select(&[reading(1, 1.0)]);
        assert_eq!(fw.current_sweep_id(), 2);
        let e = fw.ring().drain();
        assert_eq!(e[0].sweep_id, 1);
        assert_eq!(e[1].sweep_id, 2);
    }

    #[test]
    fn csr_reflects_firmware_lifecycle_and_sweeps() {
        use crate::registers::{fw_status, irq, offsets};
        let fw = Qca9500Firmware::stock();
        let csr = fw.csr();
        assert_eq!(csr.read(offsets::FW_STATUS), Ok(fw_status::RUNNING));
        fw.flash_patches().unwrap();
        assert_eq!(csr.read(offsets::FW_STATUS), Ok(fw_status::PATCHED));
        assert!(!csr.irq_asserted());
        let _ = (&mut &fw).select(&[reading(1, 2.0), reading(2, 6.0)]);
        assert!(csr.irq_asserted(), "sweep-complete interrupt raised");
        assert_eq!(csr.read(offsets::SWEEP_COUNT), Ok(1));
        assert_eq!(csr.read(offsets::RING_PENDING), Ok(2));
        csr.write(offsets::INT_CAUSE, irq::SWEEP_COMPLETE).unwrap();
        assert!(!csr.irq_asserted());
    }

    #[test]
    fn sweep_info_count_via_wmi() {
        let fw = Qca9500Firmware::patched();
        let _ = (&mut &fw).select(&[reading(1, 1.0), reading(2, 2.0)]);
        assert_eq!(
            fw.handle_wmi(&WmiCommand::GetSweepInfoCount),
            Ok(WmiReply::SweepInfoCount(2))
        );
    }
}
