//! The low-cost firmware measurement process.
//!
//! §5 of the paper describes what the firmware actually delivers: SNR
//! readings with "severe outliers", channels with low gain producing "high
//! signal strength deviations", occasional sweeps where "the firmware does
//! not report any measurements at all", and RSSI readings whose fluctuations
//! are *not* observable at the same time as the SNR's (they are acquired
//! differently) while still being correlated on average.
//!
//! [`MeasurementModel`] turns a true per-frame SNR into what the firmware
//! reports:
//!
//! 1. small-scale fading jitter (log-normal, per frame);
//! 2. frame decode: a logistic success probability in the true SNR — frames
//!    in low-gain directions are simply missing;
//! 3. independent report noise on SNR and RSSI, plus heavy-tailed outliers
//!    whose probability grows as the SNR approaches the decode threshold;
//! 4. quantization and clamping per [`geom::db::DbQuantizer`].

use geom::db::DbQuantizer;
use rand::Rng;

/// One reported measurement of a received SSW frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Reported SNR in dB (quantized, clamped).
    pub snr_db: f64,
    /// Reported RSSI in dBm (quantized, clamped).
    pub rssi_dbm: f64,
}

/// Parameters of the measurement process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementModel {
    /// Std-dev of per-frame fading on the true SNR, dB.
    pub fading_std_db: f64,
    /// SNR at which half the frames decode, dB.
    pub decode_snr_db: f64,
    /// Logistic width of the decode curve, dB.
    pub decode_width_db: f64,
    /// Probability that a decoded frame's measurement is dropped anyway
    /// (firmware misses the report).
    pub report_drop_prob: f64,
    /// Std-dev of the SNR report noise, dB.
    pub snr_noise_std_db: f64,
    /// Std-dev of the RSSI report noise, dB.
    pub rssi_noise_std_db: f64,
    /// Offset between physical SNR and the firmware's internal SNR report
    /// scale, dB: `report = physical − offset`, then quantize/clamp. 12 dB
    /// pins the best 3 m chamber sectors at the 12 dB clamp (as in the
    /// paper's Fig. 5, where the strongest lobes saturate the scale) while
    /// keeping side-lobe structure above the −7 dB floor.
    pub report_offset_db: f64,
    /// Baseline probability of an SNR outlier at high SNR.
    pub outlier_prob_floor: f64,
    /// Additional outlier probability reached near the decode threshold.
    pub outlier_prob_low_snr: f64,
    /// Magnitude scale of outliers, dB (uniform in ±[2, 2+scale]).
    pub outlier_scale_db: f64,
    /// SNR quantizer (firmware report format).
    pub snr_quant: DbQuantizer,
    /// RSSI quantizer (firmware report format).
    pub rssi_quant: DbQuantizer,
}

impl Default for MeasurementModel {
    fn default() -> Self {
        MeasurementModel {
            fading_std_db: 0.8,
            decode_snr_db: -5.0,
            decode_width_db: 1.5,
            report_drop_prob: 0.02,
            snr_noise_std_db: 0.6,
            rssi_noise_std_db: 0.9,
            report_offset_db: 12.0,
            outlier_prob_floor: 0.01,
            outlier_prob_low_snr: 0.12,
            outlier_scale_db: 6.0,
            snr_quant: DbQuantizer::TALON_SNR,
            rssi_quant: DbQuantizer::TALON_RSSI,
        }
    }
}

impl MeasurementModel {
    /// An idealized reporting chain (no noise, no misses, no quantization
    /// artifacts beyond the format) for ablation experiments.
    pub fn ideal() -> Self {
        MeasurementModel {
            fading_std_db: 0.0,
            decode_snr_db: -1e6,
            decode_width_db: 1.0,
            report_drop_prob: 0.0,
            snr_noise_std_db: 0.0,
            rssi_noise_std_db: 0.0,
            report_offset_db: 0.0,
            outlier_prob_floor: 0.0,
            outlier_prob_low_snr: 0.0,
            outlier_scale_db: 0.0,
            ..MeasurementModel::default()
        }
    }

    /// Probability that a frame at `true_snr_db` decodes.
    pub fn decode_prob(&self, true_snr_db: f64) -> f64 {
        let x = (true_snr_db - self.decode_snr_db) / self.decode_width_db;
        1.0 / (1.0 + (-x).exp())
    }

    /// Probability of an outlier report at `true_snr_db`: floor at high
    /// SNR, rising towards the decode threshold.
    pub fn outlier_prob(&self, true_snr_db: f64) -> f64 {
        let x = (true_snr_db - self.decode_snr_db) / (2.0 * self.decode_width_db);
        let low = 1.0 / (1.0 + x.max(0.0));
        (self.outlier_prob_floor + self.outlier_prob_low_snr * low).min(1.0)
    }

    /// Simulates the firmware report for one received SSW frame.
    ///
    /// `true_snr_db` / `true_rssi_dbm` are the physical values from the
    /// link budget. Returns `None` when the frame does not decode or the
    /// firmware drops the report.
    pub fn report<R: Rng>(
        &self,
        rng: &mut R,
        true_snr_db: f64,
        true_rssi_dbm: f64,
    ) -> Option<Measurement> {
        // Per-frame fading affects decode and both reports coherently.
        let fade = gaussian(rng) * self.fading_std_db;
        let snr = true_snr_db + fade;
        if rng.gen::<f64>() >= self.decode_prob(snr) {
            return None;
        }
        if rng.gen::<f64>() < self.report_drop_prob {
            return None;
        }
        // Independent report noise on the two values (§5: fluctuations "are
        // not observable in both values at the same time").
        let mut snr_rep = snr - self.report_offset_db + gaussian(rng) * self.snr_noise_std_db;
        let mut rssi_rep = true_rssi_dbm + fade + gaussian(rng) * self.rssi_noise_std_db;
        // Heavy-tailed outliers, independently per value.
        let p_out = self.outlier_prob(snr);
        if rng.gen::<f64>() < p_out {
            snr_rep += outlier(rng, self.outlier_scale_db);
        }
        if rng.gen::<f64>() < p_out {
            rssi_rep += outlier(rng, self.outlier_scale_db);
        }
        Some(Measurement {
            snr_db: self.snr_quant.value(self.snr_quant.quantize(snr_rep)),
            rssi_dbm: self.rssi_quant.value(self.rssi_quant.quantize(rssi_rep)),
        })
    }
}

/// Box–Muller standard normal draw.
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.gen();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// A two-sided heavy outlier: ±(2 .. 2+scale) dB, uniform.
fn outlier<R: Rng>(rng: &mut R, scale_db: f64) -> f64 {
    let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
    sign * (2.0 + rng.gen::<f64>() * scale_db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::rng::sub_rng;

    #[test]
    fn decode_prob_is_monotone() {
        let m = MeasurementModel::default();
        assert!(m.decode_prob(-20.0) < 0.01);
        assert!((m.decode_prob(m.decode_snr_db) - 0.5).abs() < 1e-12);
        assert!(m.decode_prob(10.0) > 0.999);
    }

    #[test]
    fn outlier_prob_rises_at_low_snr() {
        let m = MeasurementModel::default();
        assert!(m.outlier_prob(-5.0) > m.outlier_prob(10.0));
        assert!(m.outlier_prob(10.0) >= m.outlier_prob_floor);
        assert!(m.outlier_prob(-30.0) <= 1.0);
    }

    #[test]
    fn high_snr_frames_mostly_report_close_to_truth() {
        let m = MeasurementModel::default();
        let mut rng = sub_rng(1, "meas");
        let mut reported = 0;
        let mut close = 0;
        // Physical 20 dB → report ≈ 20 − 12 = 8 dB.
        for _ in 0..2000 {
            if let Some(r) = m.report(&mut rng, 20.0, -60.0) {
                reported += 1;
                if (r.snr_db - 8.0).abs() < 3.0 {
                    close += 1;
                }
            }
        }
        assert!(reported > 1900, "reported {reported}");
        assert!(close as f64 / reported as f64 > 0.9);
    }

    #[test]
    fn low_snr_frames_often_go_missing() {
        let m = MeasurementModel::default();
        let mut rng = sub_rng(2, "meas");
        let reported = (0..2000)
            .filter(|_| m.report(&mut rng, -6.5, -75.0).is_some())
            .count();
        // decode_prob(-6.5) ≈ 0.27 before fading.
        assert!(
            (200..800).contains(&reported),
            "low-SNR report count {reported}"
        );
    }

    #[test]
    fn reports_are_quantized_and_clamped() {
        let m = MeasurementModel::default();
        let mut rng = sub_rng(3, "meas");
        for _ in 0..500 {
            if let Some(r) = m.report(&mut rng, 30.0, -25.0) {
                assert!(r.snr_db <= 12.0, "SNR clamp violated: {}", r.snr_db);
                let steps = r.snr_db / 0.25;
                assert!((steps - steps.round()).abs() < 1e-9, "quantized SNR");
                let rsteps = r.rssi_dbm / 1.0;
                assert!((rsteps - rsteps.round()).abs() < 1e-9, "quantized RSSI");
            }
        }
    }

    #[test]
    fn ideal_model_is_transparent() {
        let m = MeasurementModel::ideal();
        let mut rng = sub_rng(4, "meas");
        let r = m.report(&mut rng, 7.13, -61.7).unwrap();
        assert!((r.snr_db - 7.25).abs() < 1e-9, "only quantization remains");
        assert!((r.rssi_dbm + 62.0).abs() < 1e-9);
    }

    #[test]
    fn snr_and_rssi_noise_are_independent() {
        // With SNR noise disabled but RSSI noise huge, SNR reports stay
        // tight while RSSI reports scatter — the §5 behaviour.
        let m = MeasurementModel {
            snr_noise_std_db: 0.0,
            rssi_noise_std_db: 5.0,
            fading_std_db: 0.0,
            outlier_prob_floor: 0.0,
            outlier_prob_low_snr: 0.0,
            ..MeasurementModel::default()
        };
        let mut rng = sub_rng(5, "meas");
        let mut snrs = Vec::new();
        let mut rssis = Vec::new();
        for _ in 0..500 {
            if let Some(r) = m.report(&mut rng, 20.0, -60.0) {
                snrs.push(r.snr_db);
                rssis.push(r.rssi_dbm);
            }
        }
        let snr_sd = geom::stats::std_dev(&snrs).unwrap();
        let rssi_sd = geom::stats::std_dev(&rssis).unwrap();
        assert!(snr_sd < 0.2, "snr sd {snr_sd}");
        assert!(rssi_sd > 3.0, "rssi sd {rssi_sd}");
    }
}
