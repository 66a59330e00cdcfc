//! The user-space driver facade.
//!
//! The paper ports LEDE to the router and extends the `wil6210` driver so
//! user space can (a) operate the chip as access point, station or monitor,
//! (b) read the exported measurements, and (c) send the custom WMI
//! commands (§3.1, §3.3, §3.4). [`Wil6210Driver`] is that surface.
//!
//! Sweep-completion events are delivered over a `crossbeam` channel so an
//! experiment-control thread (the paper's Python scripts over ssh) can
//! react to fresh measurements without polling.

use crate::firmware::Qca9500Firmware;
use crate::ringbuf::SweepEntry;
use crate::wmi::{WmiCommand, WmiError, WmiReply};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::Arc;
use talon_array::SectorId;
use talon_channel::SweepReading;

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

/// Event notifications from the firmware to user space.
#[derive(Debug, Clone, PartialEq)]
pub enum DriverEvent {
    /// A sector sweep finished; `entries` measurements were exported.
    SweepComplete {
        /// The firmware's sweep counter value.
        sweep_id: u64,
        /// Number of measurements exported for this sweep.
        entries: usize,
        /// The sector the firmware fed back (stock or overridden).
        selected: Option<SectorId>,
    },
}

/// User-space handle to one device's firmware.
pub struct Wil6210Driver {
    firmware: Arc<Qca9500Firmware>,
    mode: DriverMode,
    events_tx: Sender<DriverEvent>,
    events_rx: Receiver<DriverEvent>,
    /// `wil.driver.reads`, resolved once.
    reads: Arc<obs::Counter>,
}

impl Wil6210Driver {
    /// Loads the driver against a firmware instance.
    pub fn new(firmware: Arc<Qca9500Firmware>) -> Self {
        let (events_tx, events_rx) = unbounded();
        Wil6210Driver {
            firmware,
            mode: DriverMode::Station,
            events_tx,
            events_rx,
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

    /// A receiver of driver events for an experiment-control thread.
    pub fn events(&self) -> Receiver<DriverEvent> {
        self.events_rx.clone()
    }

    /// Called by the MAC integration after the firmware processed a sweep,
    /// to notify user space. (In the real system this is the driver
    /// interrupt path; our SLS runner calls it explicitly.)
    pub fn notify_sweep(&self, readings: &[SweepReading], selected: Option<SectorId>) {
        let entries = readings.iter().filter(|r| r.measurement.is_some()).count();
        let _ = self.events_tx.send(DriverEvent::SweepComplete {
            sweep_id: self.firmware.current_sweep_id(),
            entries,
            selected,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac80211ad::sls::FeedbackPolicy;
    use talon_channel::Measurement;

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

    #[test]
    fn events_reach_a_control_thread() {
        let fw = Arc::new(Qca9500Firmware::patched());
        let driver = Wil6210Driver::new(Arc::clone(&fw));
        let rx = driver.events();
        let handle = std::thread::spawn(move || rx.recv().unwrap());
        let readings = vec![reading(1, 1.0), reading(2, 6.0)];
        let selected = (&mut &*fw).select(&readings);
        driver.notify_sweep(&readings, selected);
        let ev = handle.join().unwrap();
        assert_eq!(
            ev,
            DriverEvent::SweepComplete {
                sweep_id: 1,
                entries: 2,
                selected: Some(SectorId(2)),
            }
        );
    }
}
