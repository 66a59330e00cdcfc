//! Beacon and sweep slot schedules (Table 1).
//!
//! The paper captures which sector the Talon transmits at each CDOWN value
//! during beaconing and sweeping (Table 1):
//!
//! * **Beacon** bursts use CDOWN 33 for sector 63, then CDOWN 31…1 for
//!   sectors 1…31; CDOWN 34, 32 and 0 are unused slots in which no frame is
//!   ever observed.
//! * **Sweep** bursts use CDOWN 34…4 for sectors 1…31, skip CDOWN 3, then
//!   CDOWN 2, 1, 0 for sectors 61, 62, 63.
//!
//! A schedule is an ordered list of `(cdown, Option<SectorId>)` slots; the
//! transmitter walks it top-down, skipping `None` slots (which is why the
//! monitor never sees frames there).

use talon_array::SectorId;

/// Which burst type a schedule describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstKind {
    /// DMG Beacon burst (BTI).
    Beacon,
    /// Sector sweep burst (SLS).
    Sweep,
}

/// An ordered transmission schedule: CDOWN slots from the maximum down to
/// zero, each either carrying a sector or unused.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstSchedule {
    /// The burst type.
    pub kind: BurstKind,
    /// `(cdown, sector)` slots, in descending CDOWN order.
    pub slots: Vec<(u16, Option<SectorId>)>,
}

impl BurstSchedule {
    /// The Talon's beacon schedule (Table 1, "Beacon" row).
    pub fn talon_beacon() -> Self {
        let mut slots: Vec<(u16, Option<SectorId>)> = Vec::with_capacity(35);
        slots.push((34, None));
        slots.push((33, Some(SectorId(63))));
        slots.push((32, None));
        for i in 0..31u16 {
            // CDOWN 31 → sector 1, …, CDOWN 1 → sector 31.
            slots.push((31 - i, Some(SectorId(i as u8 + 1))));
        }
        slots.push((0, None));
        BurstSchedule {
            kind: BurstKind::Beacon,
            slots,
        }
    }

    /// The Talon's sweep schedule (Table 1, "Sweep" row).
    pub fn talon_sweep() -> Self {
        let mut slots: Vec<(u16, Option<SectorId>)> = Vec::with_capacity(35);
        for i in 0..31u16 {
            // CDOWN 34 → sector 1, …, CDOWN 4 → sector 31.
            slots.push((34 - i, Some(SectorId(i as u8 + 1))));
        }
        slots.push((3, None));
        slots.push((2, Some(SectorId(61))));
        slots.push((1, Some(SectorId(62))));
        slots.push((0, Some(SectorId(63))));
        BurstSchedule {
            kind: BurstKind::Sweep,
            slots,
        }
    }

    /// A custom sweep over an arbitrary sector list (used by the
    /// compressive selection, which probes a subset): CDOWN counts down
    /// from `len-1` to 0 with no unused slots.
    pub fn custom_sweep(sectors: &[SectorId]) -> Self {
        let n = sectors.len() as u16;
        BurstSchedule {
            kind: BurstKind::Sweep,
            slots: sectors
                .iter()
                .enumerate()
                .map(|(i, &s)| (n - 1 - i as u16, Some(s)))
                .collect(),
        }
    }

    /// The transmitted `(cdown, sector)` pairs, in order (skipping unused
    /// slots).
    pub fn transmissions(&self) -> impl Iterator<Item = (u16, SectorId)> + '_ {
        self.slots
            .iter()
            .filter_map(|&(cdown, s)| s.map(|sec| (cdown, sec)))
    }

    /// Number of frames actually transmitted in one burst.
    pub fn frame_count(&self) -> usize {
        self.transmissions().count()
    }

    /// The sector transmitted at a given CDOWN, if any.
    pub fn sector_at(&self, cdown: u16) -> Option<SectorId> {
        self.slots
            .iter()
            .find(|&&(c, _)| c == cdown)
            .and_then(|&(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacon_schedule_matches_table1() {
        let b = BurstSchedule::talon_beacon();
        assert_eq!(b.slots.len(), 35, "CDOWN 34..0");
        assert_eq!(b.sector_at(34), None);
        assert_eq!(b.sector_at(33), Some(SectorId(63)));
        assert_eq!(b.sector_at(32), None);
        assert_eq!(b.sector_at(31), Some(SectorId(1)));
        assert_eq!(b.sector_at(16), Some(SectorId(16)));
        assert_eq!(b.sector_at(1), Some(SectorId(31)));
        assert_eq!(b.sector_at(0), None);
        assert_eq!(b.frame_count(), 32, "63 plus 1..31");
    }

    #[test]
    fn sweep_schedule_matches_table1() {
        let s = BurstSchedule::talon_sweep();
        assert_eq!(s.sector_at(34), Some(SectorId(1)));
        assert_eq!(s.sector_at(4), Some(SectorId(31)));
        assert_eq!(s.sector_at(3), None);
        assert_eq!(s.sector_at(2), Some(SectorId(61)));
        assert_eq!(s.sector_at(1), Some(SectorId(62)));
        assert_eq!(s.sector_at(0), Some(SectorId(63)));
        assert_eq!(s.frame_count(), 34);
    }

    #[test]
    fn cdown_is_strictly_decreasing() {
        for sched in [BurstSchedule::talon_beacon(), BurstSchedule::talon_sweep()] {
            let cdowns: Vec<u16> = sched.slots.iter().map(|&(c, _)| c).collect();
            assert!(cdowns.windows(2).all(|w| w[0] > w[1]));
        }
    }

    #[test]
    fn custom_sweep_counts_down_to_zero() {
        let ids = [SectorId(5), SectorId(9), SectorId(61)];
        let s = BurstSchedule::custom_sweep(&ids);
        let tx: Vec<(u16, SectorId)> = s.transmissions().collect();
        assert_eq!(
            tx,
            vec![(2, SectorId(5)), (1, SectorId(9)), (0, SectorId(61))]
        );
        assert_eq!(s.frame_count(), 3);
    }

    #[test]
    fn sweep_covers_every_talon_tx_sector_once() {
        let s = BurstSchedule::talon_sweep();
        let mut ids: Vec<u8> = s.transmissions().map(|(_, id)| id.raw()).collect();
        ids.sort_unstable();
        let expected: Vec<u8> = (1..=31).chain(61..=63).collect();
        assert_eq!(ids, expected);
    }
}
