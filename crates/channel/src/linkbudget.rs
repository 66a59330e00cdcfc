//! 60 GHz link budget: path loss and noise floor.
//!
//! The high free-space loss of the mm-wave band is the whole reason 802.11ad
//! needs beamforming (§1). We use Friis free-space loss at the carrier plus
//! the ~16 dB/km oxygen absorption peak around 60 GHz, and the thermal noise
//! floor of the 1.76 GHz-wide 802.11ad channel with a consumer-grade noise
//! figure.
//!
//! Calibration: the control-PHY probe frames enjoy a large spreading gain,
//! so their *physical* SNR at the paper's 3 m chamber distance is around
//! 25 dB for the best sector. The firmware reports SNR on its own internal
//! scale, clamped to [−7, 12] dB — that offset lives in
//! [`crate::measurement::MeasurementModel::report_offset_db`], chosen so
//! the best 3 m sector *reports* ≈ 11 dB, right below the clamp, matching
//! the dynamic range visible in Fig. 5/6.

use talon_array::wavelength_m;

/// Static link-budget parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// Effective probe transmit power, dBm (includes implementation loss).
    pub tx_power_dbm: f64,
    /// Oxygen absorption, dB per meter (≈ 0.016 at 60 GHz).
    pub oxygen_db_per_m: f64,
    /// Receiver noise floor, dBm (thermal + noise figure over 1.76 GHz).
    pub noise_floor_dbm: f64,
}

impl Default for LinkBudget {
    fn default() -> Self {
        LinkBudget {
            // Calibrated: peak sector ≈ 20 dBi TX, quasi-omni ≈ 5 dBi RX,
            // 3 m → FSPL 77.6 dB ⇒ physical probe SNR ≈ 25 dB.
            tx_power_dbm: 6.0,
            oxygen_db_per_m: 0.016,
            // kTB = −174 dBm/Hz + 10·log10(1.76 GHz) ≈ −81.5 dBm, NF 10 dB.
            noise_floor_dbm: -71.5,
        }
    }
}

impl LinkBudget {
    /// Free-space path loss over `distance_m`, in dB (Friis), including
    /// oxygen absorption.
    ///
    /// # Panics
    /// Panics on non-positive distances.
    pub fn path_loss_db(&self, distance_m: f64) -> f64 {
        assert!(distance_m > 0.0, "path loss needs a positive distance");
        let fspl = 20.0 * (4.0 * std::f64::consts::PI * distance_m / wavelength_m()).log10();
        fspl + self.oxygen_db_per_m * distance_m
    }

    /// Received power in dBm given total antenna gains and path loss.
    pub fn rx_power_dbm(&self, tx_gain_dbi: f64, rx_gain_dbi: f64, path_loss_db: f64) -> f64 {
        self.tx_power_dbm + tx_gain_dbi + rx_gain_dbi - path_loss_db
    }

    /// True SNR in dB for a received power.
    pub fn snr_db(&self, rx_power_dbm: f64) -> f64 {
        rx_power_dbm - self.noise_floor_dbm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fspl_at_one_meter() {
        let lb = LinkBudget::default();
        // 20·log10(4π/λ) at λ≈4.957 mm → ≈ 68.1 dB.
        let pl = lb.path_loss_db(1.0);
        assert!((pl - 68.1).abs() < 0.2, "{pl}");
    }

    #[test]
    fn fspl_doubles_distance_adds_6db() {
        let lb = LinkBudget {
            oxygen_db_per_m: 0.0,
            ..LinkBudget::default()
        };
        let d = lb.path_loss_db(6.0) - lb.path_loss_db(3.0);
        assert!((d - 6.0206).abs() < 1e-3, "{d}");
    }

    #[test]
    fn oxygen_absorption_accumulates() {
        let with = LinkBudget::default();
        let without = LinkBudget {
            oxygen_db_per_m: 0.0,
            ..with
        };
        let delta = with.path_loss_db(100.0) - without.path_loss_db(100.0);
        assert!((delta - 1.6).abs() < 1e-9);
    }

    #[test]
    fn calibration_gives_strong_physical_snr_at_3m() {
        // Peak sector (≈20 dBi) to quasi-omni (≈5 dBi) at 3 m: ≈ 25 dB of
        // physical probe SNR (so the 14 dB report offset puts the report
        // just under the 12 dB firmware clamp).
        let lb = LinkBudget::default();
        let pl = lb.path_loss_db(3.0);
        let rx = lb.rx_power_dbm(20.0, 5.0, pl);
        let snr = lb.snr_db(rx);
        assert!((23.0..27.0).contains(&snr), "calibrated SNR {snr}");
    }

    #[test]
    fn six_meter_link_keeps_most_sectors_decodable() {
        // At the conference-room distance a sector 15 dB below the peak
        // still sits far above the −5 dB decode threshold.
        let lb = LinkBudget::default();
        let pl = lb.path_loss_db(6.0);
        let rx = lb.rx_power_dbm(20.0 - 15.0, 5.0, pl);
        assert!(lb.snr_db(rx) > 0.0);
    }

    #[test]
    #[should_panic(expected = "positive distance")]
    fn zero_distance_panics() {
        LinkBudget::default().path_loss_db(0.0);
    }
}
