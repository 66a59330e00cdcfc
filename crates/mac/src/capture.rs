//! Monitor-mode capture — reproducing Table 1.
//!
//! §4.1: "We use the third device to capture all received beacon and
//! sector sweep frames by operating it in monitor mode … we captured the
//! sector IDs and the values of CDOWN and list them in Table 1."
//!
//! [`MonitorCapture`] plays that third device: it receives the raw bytes of
//! every frame a station transmits (subject to the same decode physics as
//! any receiver — frames sent on sectors pointing away from the monitor are
//! often missed, which is why the paper had to aggregate over many bursts
//! and positions), parses them, and aggregates a CDOWN → sector table per
//! burst kind.

use crate::addr::MacAddr;
use crate::fields::SswField;
use crate::frames::Frame;
use crate::schedule::{BurstKind, BurstSchedule};
use rand::Rng;
use std::collections::BTreeMap;
use talon_array::SectorId;
use talon_channel::{Device, Link};

/// Aggregated monitor observations.
#[derive(Debug, Clone, Default)]
pub struct MonitorCapture {
    /// Observed sector per CDOWN for beacon bursts.
    pub beacon_table: BTreeMap<u16, SectorId>,
    /// Observed sector per CDOWN for sweep bursts.
    pub sweep_table: BTreeMap<u16, SectorId>,
    /// Total frames captured.
    pub frames_captured: usize,
    /// Total frames that were transmitted but not decoded at the monitor.
    pub frames_missed: usize,
}

impl MonitorCapture {
    /// Creates an empty capture.
    pub fn new() -> Self {
        MonitorCapture::default()
    }

    /// Lets the monitor listen to one burst transmitted by `tx` over
    /// `link` (the link whose receive end is the monitor device).
    ///
    /// For each scheduled transmission the physical reception is simulated;
    /// frames that decode are parsed *from their wire bytes* and their SSW
    /// field recorded.
    pub fn observe_burst<R: Rng>(
        &mut self,
        rng: &mut R,
        link: &Link,
        tx: &Device,
        monitor: &Device,
        schedule: &BurstSchedule,
    ) {
        let plan = link.plan(tx, monitor);
        for (cdown, sector) in schedule.transmissions() {
            // Physical reception at the monitor.
            if plan.probe(rng, tx.sector_weights(sector)).is_none() {
                self.frames_missed += 1;
                continue;
            }
            // Build what the station put on the air and parse it back,
            // exactly like tcpdump + Wireshark would.
            let ssw = SswField {
                direction: crate::fields::SweepDirection::Initiator,
                cdown,
                sector_id: sector,
                dmg_antenna_id: 0,
                rxss_length: 0,
            };
            let frame = match schedule.kind {
                BurstKind::Beacon => Frame::Beacon(crate::frames::DmgBeacon {
                    bssid: MacAddr::device(1),
                    timestamp_us: 0,
                    beacon_interval_tu: 100,
                    ssw,
                }),
                BurstKind::Sweep => Frame::Ssw(crate::frames::SswFrame {
                    ra: MacAddr::BROADCAST,
                    ta: MacAddr::device(1),
                    ssw,
                    feedback: crate::fields::SswFeedbackField {
                        sector_select: SectorId(0),
                        dmg_antenna_select: 0,
                        snr_report: 0,
                        poll_required: false,
                    },
                }),
            };
            let wire = frame.encode();
            let Some(parsed) = Frame::decode(&wire) else {
                self.frames_missed += 1;
                continue;
            };
            let observed = match parsed {
                Frame::Beacon(b) => (BurstKind::Beacon, b.ssw),
                Frame::Ssw(s) => (BurstKind::Sweep, s.ssw),
                _ => continue,
            };
            self.frames_captured += 1;
            let table = match observed.0 {
                BurstKind::Beacon => &mut self.beacon_table,
                BurstKind::Sweep => &mut self.sweep_table,
            };
            table.insert(observed.1.cdown, observed.1.sector_id);
        }
    }

    /// Renders the capture as the two rows of Table 1: for each CDOWN from
    /// `max_cdown` down to 0, the observed sector or `None`.
    pub fn table_rows(&self, max_cdown: u16) -> (Vec<Option<SectorId>>, Vec<Option<SectorId>>) {
        let row = |t: &BTreeMap<u16, SectorId>| {
            (0..=max_cdown)
                .rev()
                .map(|c| t.get(&c).copied())
                .collect::<Vec<_>>()
        };
        (row(&self.beacon_table), row(&self.sweep_table))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::rng::sub_rng;
    use talon_channel::Environment;

    /// Captures many bursts from close range, as the paper does with three
    /// devices "in close proximity".
    fn capture_many() -> MonitorCapture {
        let link = Link::new(Environment::anechoic(1.0));
        let ap = Device::talon(1);
        let monitor = Device::talon(3);
        let mut cap = MonitorCapture::new();
        let mut rng = sub_rng(42, "capture");
        let beacon = BurstSchedule::talon_beacon();
        let sweep = BurstSchedule::talon_sweep();
        for _ in 0..60 {
            cap.observe_burst(&mut rng, &link, &ap, &monitor, &beacon);
            cap.observe_burst(&mut rng, &link, &ap, &monitor, &sweep);
        }
        cap
    }

    #[test]
    fn capture_reconstructs_table1() {
        let cap = capture_many();
        // Strong, frequently-transmitted slots must be observed with the
        // correct sector IDs.
        assert_eq!(cap.beacon_table.get(&33), Some(&SectorId(63)));
        assert_eq!(cap.beacon_table.get(&31), Some(&SectorId(1)));
        assert_eq!(cap.sweep_table.get(&34), Some(&SectorId(1)));
        assert_eq!(cap.sweep_table.get(&0), Some(&SectorId(63)));
        // Unused slots never show a frame.
        assert!(!cap.beacon_table.contains_key(&34));
        assert!(!cap.beacon_table.contains_key(&32));
        assert!(!cap.beacon_table.contains_key(&0));
        assert!(!cap.sweep_table.contains_key(&3));
    }

    #[test]
    fn low_gain_sectors_are_often_missed() {
        let cap = capture_many();
        assert!(cap.frames_missed > 0, "defective sectors drop frames");
        assert!(cap.frames_captured > cap.frames_missed);
    }

    #[test]
    fn table_rows_have_full_width() {
        let cap = capture_many();
        let (beacon, sweep) = cap.table_rows(34);
        assert_eq!(beacon.len(), 35);
        assert_eq!(sweep.len(), 35);
        // Row is ordered CDOWN 34 → 0.
        assert_eq!(beacon[1], Some(SectorId(63))); // CDOWN 33
        assert_eq!(sweep[0], Some(SectorId(1))); // CDOWN 34
    }
}
