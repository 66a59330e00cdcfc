//! Virtual time and the paper's measured timing constants.
//!
//! §4.1 measures on the real device: beacons fire every 102.4 ms, sector
//! sweeps at least once per second, each sweep frame occupies 18.0 µs on
//! the air, and a mutual transmit-sector training adds 49.1 µs of
//! initialization and feedback overhead — 1.27 ms total for the stock
//! 34-sector sweep, 0.55 ms for the paper's 14-probe compressive sweep
//! (Fig. 10).
//!
//! The simulator never touches the wall clock: [`SimTime`] is a nanosecond
//! counter advanced explicitly by the protocol code.

/// A point in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// The time as fractional microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The time as fractional milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    /// Panics if `earlier` is after `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(earlier.0 <= self.0, "time went backwards");
        SimDuration(self.0 - earlier.0)
    }
}

impl SimDuration {
    /// Builds a duration from microseconds.
    pub fn from_us(us: f64) -> SimDuration {
        SimDuration((us * 1_000.0).round() as u64)
    }

    /// Builds a duration from milliseconds.
    pub fn from_ms(ms: f64) -> SimDuration {
        SimDuration((ms * 1_000_000.0).round() as u64)
    }

    /// The duration as fractional microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration as fractional milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Scales by an integer count.
    pub fn times(self, n: u64) -> SimDuration {
        SimDuration(self.0 * n)
    }
}

impl std::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl std::ops::AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

/// On-air time of one SSW probe frame: 18.0 µs (§4.1).
pub const SSW_FRAME_TIME: SimDuration = SimDuration(18_000);

/// Initialization + feedback + acknowledgment overhead of one mutual
/// transmit-sector training: 49.1 µs (§4.1).
pub const SLS_OVERHEAD: SimDuration = SimDuration(49_100);

/// Beacon interval: 100 TU = 102.4 ms (§4.1).
pub const BEACON_INTERVAL: SimDuration = SimDuration(102_400_000);

/// The Talon triggers sector sweeps at least once per second (§4.1).
pub const SWEEP_PERIOD: SimDuration = SimDuration(1_000_000_000);

/// Time for a *mutual* (both directions) transmit-sector training in which
/// each side probes `probes` sectors.
///
/// `t = 2 · probes · 18.0 µs + 49.1 µs` — Fig. 10's line. The stock sweep
/// (34 probes) gives 1.27 ms; 14 probes give 0.55 ms.
pub fn mutual_training_time(probes: usize) -> SimDuration {
    SSW_FRAME_TIME.times(2 * probes as u64) + SLS_OVERHEAD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_training_times() {
        // §4.1 / Fig. 10 anchor points.
        let full = mutual_training_time(34);
        assert!((full.as_ms() - 1.273).abs() < 0.005, "{}", full.as_ms());
        let css = mutual_training_time(14);
        assert!((css.as_ms() - 0.553).abs() < 0.005, "{}", css.as_ms());
        // Headline speedup factor 2.3.
        let speedup = full.as_ms() / css.as_ms();
        assert!((speedup - 2.3).abs() < 0.05, "speedup {speedup}");
    }

    #[test]
    fn beacon_interval_is_102_4_ms() {
        assert_eq!(BEACON_INTERVAL.as_ms(), 102.4);
    }

    #[test]
    fn time_arithmetic() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_us(18.0);
        // Exercise the by-value Add impl as well as AddAssign.
        t = SimTime::ZERO + SimDuration::from_us(18.0) + SimDuration::from_us(49.1);
        assert!((t.as_us() - 67.1).abs() < 1e-9);
        assert_eq!(t.since(SimTime::ZERO), SimDuration(67_100));
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_ms(1.27).0, 1_270_000);
        assert_eq!(SimDuration::from_us(18.0).times(34).as_us(), 612.0);
        assert_eq!(
            SimDuration::from_us(10.0) + SimDuration::from_us(5.0),
            SimDuration::from_us(15.0)
        );
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn since_panics_on_reversed_order() {
        SimTime(5).since(SimTime(10));
    }
}
