//! Decibel math and the firmware's quantized SNR representation.
//!
//! The QCA9500 firmware reports SNR values "quantized in quarters of dB in a
//! range from -7 to 12 dB" (paper §4.3). [`QuantizedDb`] models exactly that
//! representation so the rest of the pipeline sees the same granularity and
//! clipping the paper's algorithm had to cope with.

/// Converts a power ratio in dB to linear scale.
///
/// ```
/// use geom::db::db_to_linear;
/// assert!((db_to_linear(3.0103) - 2.0).abs() < 1e-4);
/// assert_eq!(db_to_linear(0.0), 1.0);
/// ```
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts a linear power ratio to dB. Returns `-inf` for zero input.
///
/// ```
/// use geom::db::linear_to_db;
/// assert!((linear_to_db(100.0) - 20.0).abs() < 1e-12);
/// ```
pub fn linear_to_db(linear: f64) -> f64 {
    10.0 * linear.log10()
}

/// Sums two powers given in dB (i.e. converts to linear, adds, converts
/// back). Useful when combining multipath components.
pub fn db_power_sum(a_db: f64, b_db: f64) -> f64 {
    linear_to_db(db_to_linear(a_db) + db_to_linear(b_db))
}

/// A dB value quantized to a fixed step within a clamped range, as produced
/// by low-cost 802.11ad firmware.
///
/// The default parameters ([`QuantizedDb::TALON_SNR`]) match the paper:
/// quarter-dB steps, clamped to `[-7, 12]` dB. Values are stored as an
/// integer number of steps so equality and hashing are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QuantizedDb {
    /// Number of quantization steps from zero (may be negative).
    steps: i32,
}

/// Quantization rule: step size and clamp range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbQuantizer {
    /// Quantization step in dB.
    pub step_db: f64,
    /// Lowest representable value in dB.
    pub min_db: f64,
    /// Highest representable value in dB.
    pub max_db: f64,
}

impl DbQuantizer {
    /// The Talon AD7200 SNR report format: quarter-dB steps in `[-7, 12]` dB
    /// (paper §4.3).
    pub const TALON_SNR: DbQuantizer = DbQuantizer {
        step_db: 0.25,
        min_db: -7.0,
        max_db: 12.0,
    };

    /// The (coarser) RSSI report format used by our firmware emulation:
    /// 1 dB steps over a wide dynamic range. The paper does not document the
    /// RSSI granularity; 1 dB matches what the wil6210 driver exposes.
    pub const TALON_RSSI: DbQuantizer = DbQuantizer {
        step_db: 1.0,
        min_db: -100.0,
        max_db: -20.0,
    };

    /// Quantizes a raw dB value: clamp to range, round to nearest step.
    pub fn quantize(&self, db: f64) -> QuantizedDb {
        let clamped = db.clamp(self.min_db, self.max_db);
        QuantizedDb {
            steps: (clamped / self.step_db).round() as i32,
        }
    }

    /// Recovers the dB value of a quantized sample under this rule.
    pub fn value(&self, q: QuantizedDb) -> f64 {
        q.steps as f64 * self.step_db
    }

    /// Whether `db` lies outside the representable range (and would clip).
    pub fn clips(&self, db: f64) -> bool {
        db < self.min_db || db > self.max_db
    }

    /// Number of representable levels.
    pub fn levels(&self) -> usize {
        (((self.max_db - self.min_db) / self.step_db).round() as usize) + 1
    }
}

impl QuantizedDb {
    /// Raw step count (exact integer representation).
    pub fn steps(self) -> i32 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_linear_roundtrip() {
        for &db in &[-30.0, -7.0, 0.0, 3.0, 12.0, 20.0] {
            let back = linear_to_db(db_to_linear(db));
            assert!((back - db).abs() < 1e-10, "{db} -> {back}");
        }
    }

    #[test]
    fn power_sum_doubles() {
        // Adding two equal powers gives +3.0103 dB.
        let s = db_power_sum(10.0, 10.0);
        assert!((s - 13.0103).abs() < 1e-3);
        // Adding a much weaker component barely changes the total.
        let s = db_power_sum(10.0, -40.0);
        assert!((s - 10.0).abs() < 1e-3);
    }

    #[test]
    fn talon_snr_quantizer_steps() {
        let q = DbQuantizer::TALON_SNR;
        assert_eq!(q.value(q.quantize(5.1)), 5.0);
        assert_eq!(q.value(q.quantize(5.13)), 5.25);
        assert_eq!(q.value(q.quantize(-3.9)), -4.0);
    }

    #[test]
    fn talon_snr_quantizer_clamps() {
        let q = DbQuantizer::TALON_SNR;
        assert_eq!(q.value(q.quantize(25.0)), 12.0);
        assert_eq!(q.value(q.quantize(-33.0)), -7.0);
        assert!(q.clips(12.5));
        assert!(q.clips(-7.5));
        assert!(!q.clips(0.0));
    }

    #[test]
    fn level_count() {
        // [-7, 12] in 0.25 steps: 19/0.25 + 1 = 77 levels.
        assert_eq!(DbQuantizer::TALON_SNR.levels(), 77);
        assert_eq!(DbQuantizer::TALON_RSSI.levels(), 81);
    }

    #[test]
    fn quantized_values_are_ordered() {
        let q = DbQuantizer::TALON_SNR;
        assert!(q.quantize(3.0) < q.quantize(4.0));
        assert_eq!(q.quantize(3.1), q.quantize(3.05));
    }
}
