//! Table 1 and the §4.1 timing audit.
//!
//! Table 1 lists, per CDOWN value, which sector the Talon transmits during
//! a beacon burst and during a sector sweep. The experiment runs the
//! monitor-capture setup of §4.1 (three devices in close proximity: AP,
//! station, monitor) and compares the reconstructed table against the
//! schedules the transmitter used.

use geom::rng::sub_rng;
use mac80211ad::capture::MonitorCapture;
use mac80211ad::schedule::BurstSchedule;
use mac80211ad::timing::{mutual_training_time, BEACON_INTERVAL, SLS_OVERHEAD, SSW_FRAME_TIME};
use serde::Serialize;
use talon_array::SectorId;
use talon_channel::{Device, Environment, Link};

/// The reconstructed Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Result {
    /// Observed beacon row: CDOWN 34 → 0.
    pub beacon: Vec<Option<SectorId>>,
    /// Observed sweep row: CDOWN 34 → 0.
    pub sweep: Vec<Option<SectorId>>,
    /// Frames decoded at the monitor.
    pub frames_captured: usize,
    /// Frames transmitted but missed.
    pub frames_missed: usize,
    /// Number of bursts observed.
    pub bursts: usize,
}

/// Runs the Table 1 capture experiment.
pub fn capture_table1(bursts: usize, seed: u64) -> Table1Result {
    // Close proximity (§4.1) so even weak sectors decode eventually.
    let link = Link::new(Environment::anechoic(1.0));
    let ap = Device::talon(seed);
    let monitor = Device::talon(seed.wrapping_add(2));
    let beacon = BurstSchedule::talon_beacon();
    let sweep = BurstSchedule::talon_sweep();
    let mut cap = MonitorCapture::new();
    let mut rng = sub_rng(seed, "table1");
    for _ in 0..bursts {
        cap.observe_burst(&mut rng, &link, &ap, &monitor, &beacon);
        cap.observe_burst(&mut rng, &link, &ap, &monitor, &sweep);
    }
    let (beacon_row, sweep_row) = cap.table_rows(34);
    Table1Result {
        beacon: beacon_row,
        sweep: sweep_row,
        frames_captured: cap.frames_captured,
        frames_missed: cap.frames_missed,
        bursts,
    }
}

/// The §4.1 timing facts, as reported by the timing model.
#[derive(Debug, Clone, Serialize)]
pub struct TimingAudit {
    /// Beacon interval, ms (paper: 102.4).
    pub beacon_interval_ms: f64,
    /// Per-frame sweep time, µs (paper: 18.0).
    pub ssw_frame_us: f64,
    /// Initialization + feedback overhead, µs (paper: 49.1).
    pub overhead_us: f64,
    /// Mutual training with the stock 34-sector sweep, ms (paper: 1.27).
    pub full_training_ms: f64,
}

/// Produces the timing audit.
pub fn timing_audit() -> TimingAudit {
    TimingAudit {
        beacon_interval_ms: BEACON_INTERVAL.as_ms(),
        ssw_frame_us: SSW_FRAME_TIME.as_us(),
        overhead_us: SLS_OVERHEAD.as_us(),
        full_training_ms: mutual_training_time(34).as_ms(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captured_table_matches_ground_truth_schedules() {
        let _guard = obs::testing::lock();
        let res = capture_table1(80, 7);
        let beacon = BurstSchedule::talon_beacon();
        let sweep = BurstSchedule::talon_sweep();
        for (i, cdown) in (0..=34u16).rev().enumerate() {
            // Every *observed* slot must agree with the schedule; strong
            // slots must actually be observed.
            if let Some(obs) = res.beacon[i] {
                assert_eq!(Some(obs), beacon.sector_at(cdown), "beacon CDOWN {cdown}");
            }
            if let Some(obs) = res.sweep[i] {
                assert_eq!(Some(obs), sweep.sector_at(cdown), "sweep CDOWN {cdown}");
            }
        }
        // The paper's unused slots stay empty forever.
        assert_eq!(res.beacon[0], None, "beacon CDOWN 34 unused");
        assert_eq!(res.beacon[2], None, "beacon CDOWN 32 unused");
        assert_eq!(res.beacon[34], None, "beacon CDOWN 0 unused");
        assert_eq!(res.sweep[31], None, "sweep CDOWN 3 unused");
        // Strong slots must be present after 80 bursts.
        assert_eq!(res.beacon[1], Some(SectorId(63)));
        assert_eq!(res.sweep[0], Some(SectorId(1)));
        assert_eq!(res.sweep[34], Some(SectorId(63)));
    }

    #[test]
    fn timing_audit_matches_paper() {
        let t = timing_audit();
        assert_eq!(t.beacon_interval_ms, 102.4);
        assert_eq!(t.ssw_frame_us, 18.0);
        assert_eq!(t.overhead_us, 49.1);
        assert!((t.full_training_ms - 1.27).abs() < 0.005);
    }

    #[test]
    fn capture_has_realistic_miss_rate() {
        let _guard = obs::testing::lock();
        let res = capture_table1(40, 8);
        assert!(res.frames_captured > 0);
        assert!(res.frames_missed > 0, "weak sectors drop frames");
        let total = res.frames_captured + res.frames_missed;
        assert!(
            res.frames_captured as f64 / total as f64 > 0.5,
            "most frames decode in close proximity"
        );
    }
}
