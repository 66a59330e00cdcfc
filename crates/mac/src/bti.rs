//! Beacon Transmission Interval (BTI) and A-BFT scheduling.
//!
//! §4.1 of the paper observes the Talon's beaconing behaviour: "the AP
//! triggers beacons every 102.4 ms" over the sector schedule of Table 1,
//! and stations answer in the Association Beamforming Training (A-BFT)
//! period that follows. This module provides the AP-side beacon interval
//! machinery:
//!
//! * [`BeaconScheduler`] — emits timed, fully-encoded DMG beacons for
//!   every beacon interval, walking the Table 1 slot schedule with a TSF
//!   timestamp, and advertises the A-BFT structure.
//! * [`AbftConfig`] / [`AbftSlots`] — the slotted responder sweep window:
//!   stations pick a random slot and run their responder sector sweep
//!   towards the AP.
//!
//! Timing follows the standard: 1 TU = 1024 µs, beacon interval 100 TU.

use crate::addr::MacAddr;
use crate::fields::{SswField, SweepDirection};
use crate::frames::DmgBeacon;
use crate::schedule::BurstSchedule;
use crate::timing::{SimDuration, SimTime, BEACON_INTERVAL, SSW_FRAME_TIME};
use rand::Rng;

/// A-BFT parameters advertised in the beacon (simplified to the fields the
/// sweep cares about).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbftConfig {
    /// Number of responder slots per A-BFT (the standard allows up to 8).
    pub slots: u8,
    /// SSW frames a responder may send per slot (FSS).
    pub frames_per_slot: u8,
}

impl Default for AbftConfig {
    fn default() -> Self {
        AbftConfig {
            slots: 8,
            frames_per_slot: 8,
        }
    }
}

impl AbftConfig {
    /// Duration of one A-BFT slot.
    pub fn slot_duration(&self) -> SimDuration {
        SSW_FRAME_TIME.times(self.frames_per_slot as u64)
    }

    /// Duration of the whole A-BFT period.
    pub fn duration(&self) -> SimDuration {
        self.slot_duration().times(self.slots as u64)
    }
}

/// One beacon transmission: when, and the full frame.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedBeacon {
    /// Transmit time.
    pub at: SimTime,
    /// The beacon frame (carries sector ID + CDOWN in its SSW field).
    pub frame: DmgBeacon,
}

/// AP-side scheduler: produces the beacon bursts of successive beacon
/// intervals.
#[derive(Debug, Clone)]
pub struct BeaconScheduler {
    /// BSSID used in all beacons.
    pub bssid: MacAddr,
    /// Slot schedule (Table 1 "Beacon" row for the Talon).
    pub schedule: BurstSchedule,
    /// A-BFT advertisement.
    pub abft: AbftConfig,
    /// Next beacon-interval start.
    next_bi: SimTime,
    /// Beacon intervals elapsed.
    intervals: u64,
}

impl BeaconScheduler {
    /// Creates a scheduler starting at simulation time zero.
    pub fn new(bssid: MacAddr) -> Self {
        BeaconScheduler {
            bssid,
            schedule: BurstSchedule::talon_beacon(),
            abft: AbftConfig::default(),
            next_bi: SimTime::ZERO,
            intervals: 0,
        }
    }

    /// Number of beacon intervals generated so far.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Start time of the A-BFT within the most recently generated interval.
    pub fn abft_start(&self) -> SimTime {
        // A-BFT directly follows the beacon burst.
        let burst = SSW_FRAME_TIME.times(self.schedule.frame_count() as u64);
        SimTime(self.next_bi.0 - BEACON_INTERVAL.0) + burst
    }

    /// Generates the next beacon interval's burst: one beacon per
    /// scheduled slot, 18 µs apart, TSF timestamps in microseconds.
    pub fn next_interval(&mut self) -> Vec<TimedBeacon> {
        let start = self.next_bi;
        let mut out = Vec::with_capacity(self.schedule.frame_count());
        let mut t = start;
        for (cdown, sector) in self.schedule.transmissions() {
            out.push(TimedBeacon {
                at: t,
                frame: DmgBeacon {
                    bssid: self.bssid,
                    timestamp_us: t.as_us() as u64,
                    beacon_interval_tu: 100,
                    ssw: SswField {
                        direction: SweepDirection::Initiator,
                        cdown,
                        sector_id: sector,
                        dmg_antenna_id: 0,
                        rxss_length: 0,
                    },
                },
            });
            t += SSW_FRAME_TIME;
        }
        self.next_bi = start + BEACON_INTERVAL;
        self.intervals += 1;
        out
    }
}

/// The slotted A-BFT contention: stations draw a random slot; stations
/// that pick the same slot collide and must retry in the next interval.
#[derive(Debug, Clone, Default)]
pub struct AbftSlots {
    /// `(station, slot)` picks of the current interval.
    picks: Vec<(MacAddr, u8)>,
}

impl AbftSlots {
    /// Creates an empty slot map.
    pub fn new() -> Self {
        AbftSlots::default()
    }

    /// A station draws a random slot for this A-BFT.
    pub fn draw<R: Rng>(&mut self, rng: &mut R, station: MacAddr, config: &AbftConfig) -> u8 {
        let slot = rng.gen_range(0..config.slots);
        self.picks.push((station, slot));
        slot
    }

    /// Stations whose slot nobody else picked (their responder sweep gets
    /// through); collided stations must retry next interval.
    pub fn winners(&self) -> Vec<MacAddr> {
        self.picks
            .iter()
            .filter(|(_, slot)| self.picks.iter().filter(|(_, s)| s == slot).count() == 1)
            .map(|&(sta, _)| sta)
            .collect()
    }

    /// Stations that collided.
    pub fn collided(&self) -> Vec<MacAddr> {
        self.picks
            .iter()
            .filter(|(_, slot)| self.picks.iter().filter(|(_, s)| s == slot).count() > 1)
            .map(|&(sta, _)| sta)
            .collect()
    }

    /// Clears the picks for the next interval.
    pub fn reset(&mut self) {
        self.picks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::Frame;
    use geom::rng::sub_rng;

    #[test]
    fn beacon_interval_spacing_is_102_4_ms() {
        let mut sched = BeaconScheduler::new(MacAddr::device(1));
        let b1 = sched.next_interval();
        let b2 = sched.next_interval();
        assert_eq!(sched.intervals(), 2);
        let dt = b2[0].at.since(b1[0].at);
        assert_eq!(dt, BEACON_INTERVAL);
    }

    #[test]
    fn burst_follows_table1_and_is_18us_spaced() {
        let mut sched = BeaconScheduler::new(MacAddr::device(1));
        let burst = sched.next_interval();
        assert_eq!(burst.len(), 32, "63 plus sectors 1..31");
        assert_eq!(burst[0].frame.ssw.sector_id, talon_array::SectorId(63));
        assert_eq!(burst[0].frame.ssw.cdown, 33);
        assert_eq!(burst[1].frame.ssw.sector_id, talon_array::SectorId(1));
        for w in burst.windows(2) {
            assert_eq!(w[1].at.since(w[0].at), SSW_FRAME_TIME);
        }
        // Beacons carry valid wire encodings.
        let f = Frame::Beacon(burst[5].frame);
        assert_eq!(Frame::decode(&f.encode()), Some(f));
    }

    #[test]
    fn timestamps_advance_with_the_tsf() {
        let mut sched = BeaconScheduler::new(MacAddr::device(1));
        let b1 = sched.next_interval();
        let b2 = sched.next_interval();
        assert!(b2[0].frame.timestamp_us > b1[0].frame.timestamp_us);
        assert_eq!(
            b2[0].frame.timestamp_us - b1[0].frame.timestamp_us,
            BEACON_INTERVAL.as_us() as u64
        );
    }

    #[test]
    fn abft_duration_matches_config() {
        let abft = AbftConfig::default();
        // 8 slots × 8 frames × 18 µs = 1152 µs.
        assert_eq!(abft.duration().as_us(), 1152.0);
        assert_eq!(abft.slot_duration().as_us(), 144.0);
    }

    #[test]
    fn abft_collisions_are_detected() {
        let config = AbftConfig {
            slots: 2,
            frames_per_slot: 8,
        };
        let mut slots = AbftSlots::new();
        let mut rng = sub_rng(3, "abft");
        // With 4 stations on 2 slots, someone must collide.
        for i in 0..4 {
            slots.draw(&mut rng, MacAddr::device(i), &config);
        }
        let winners = slots.winners();
        let collided = slots.collided();
        assert_eq!(winners.len() + collided.len(), 4);
        assert!(collided.len() >= 2, "pigeonhole collision");
        slots.reset();
        assert!(slots.winners().is_empty());
    }

    #[test]
    fn single_station_always_wins() {
        let config = AbftConfig::default();
        let mut slots = AbftSlots::new();
        let mut rng = sub_rng(4, "abft");
        let slot = slots.draw(&mut rng, MacAddr::device(9), &config);
        assert!(slot < config.slots);
        assert_eq!(slots.winners(), vec![MacAddr::device(9)]);
    }
}
