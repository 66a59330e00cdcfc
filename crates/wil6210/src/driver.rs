//! The user-space driver facade.
//!
//! The paper ports LEDE to the router and extends the `wil6210` driver so
//! user space can (a) operate the chip as access point, station or monitor,
//! (b) read the exported measurements, and (c) send the custom WMI
//! commands (§3.1, §3.3, §3.4). [`Wil6210Driver`] is that surface: an
//! agent reads each sweep's exports with [`Wil6210Driver::read_sweep_info`]
//! after the sweep, as `talon sls` does.

use crate::firmware::Qca9500Firmware;
use crate::ringbuf::SweepEntry;
use crate::wmi::{WmiCommand, WmiError, WmiReply};
use std::sync::Arc;

/// Chip operation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverMode {
    /// Access point.
    AccessPoint,
    /// Managed station.
    Station,
    /// Passive monitor.
    Monitor,
}

/// User-space handle to one device's firmware.
pub struct Wil6210Driver {
    firmware: Arc<Qca9500Firmware>,
    mode: DriverMode,
    /// `wil.driver.reads`, resolved once.
    reads: Arc<obs::Counter>,
}

impl Wil6210Driver {
    /// Loads the driver against a firmware instance.
    pub fn new(firmware: Arc<Qca9500Firmware>) -> Self {
        Wil6210Driver {
            firmware,
            mode: DriverMode::Station,
            reads: obs::counter("wil.driver.reads"),
        }
    }

    /// The underlying firmware (e.g. to hand to an SLS runner as policy).
    pub fn firmware(&self) -> &Arc<Qca9500Firmware> {
        &self.firmware
    }

    /// Current operation mode.
    pub fn mode(&self) -> DriverMode {
        self.mode
    }

    /// Switches the operation mode.
    pub fn set_mode(&mut self, mode: DriverMode) {
        self.mode = mode;
    }

    /// Sends a WMI command to the firmware.
    pub fn wmi(&self, cmd: &WmiCommand) -> Result<WmiReply, WmiError> {
        self.firmware.handle_wmi(cmd)
    }

    /// Drains the exported measurements (the paper's "read from user space
    /// using our modified driver"). Clears the ring-pending counter.
    pub fn read_sweep_info(&self) -> Vec<SweepEntry> {
        self.reads.inc();
        let entries = self.firmware.ring().drain();
        self.firmware.csr().fw_set_ring_pending(0);
        entries
    }

    /// Access to the chip's register block (debugfs-style polling).
    pub fn csr(&self) -> std::sync::Arc<crate::registers::CsrBlock> {
        self.firmware.csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac80211ad::sls::FeedbackPolicy;
    use talon_array::SectorId;
    use talon_channel::{Measurement, SweepReading};

    fn reading(sector: u8, snr: f64) -> SweepReading {
        SweepReading {
            sector: SectorId(sector),
            measurement: Some(Measurement {
                snr_db: snr,
                rssi_dbm: -58.0,
            }),
        }
    }

    #[test]
    fn driver_reads_firmware_exports() {
        let fw = Arc::new(Qca9500Firmware::patched());
        let driver = Wil6210Driver::new(Arc::clone(&fw));
        let _ = (&mut &*fw).select(&[reading(3, 4.0), reading(8, 8.0)]);
        let info = driver.read_sweep_info();
        assert_eq!(info.len(), 2);
        assert_eq!(info[1].sector, SectorId(8));
        // Second read is empty (drained).
        assert!(driver.read_sweep_info().is_empty());
    }

    #[test]
    fn wmi_roundtrip_through_driver() {
        let fw = Arc::new(Qca9500Firmware::patched());
        let driver = Wil6210Driver::new(Arc::clone(&fw));
        assert_eq!(
            driver.wmi(&WmiCommand::SetSectorOverride(SectorId(21))),
            Ok(WmiReply::Ok)
        );
        assert_eq!(fw.sector_override(), Some(SectorId(21)));
    }

    #[test]
    fn mode_switching() {
        let fw = Arc::new(Qca9500Firmware::patched());
        let mut driver = Wil6210Driver::new(fw);
        assert_eq!(driver.mode(), DriverMode::Station);
        driver.set_mode(DriverMode::Monitor);
        assert_eq!(driver.mode(), DriverMode::Monitor);
    }
}
