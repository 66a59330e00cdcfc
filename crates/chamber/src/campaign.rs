//! The pattern measurement campaign (§4.3–§4.5).
//!
//! For every grid orientation the campaign turns the rotation head, makes
//! the two devices perform sector sweeps (keeping the "connection alive"
//! with pings in the paper; here we simply trigger the sweeps), and
//! collects the exported SNR readings per sector. Post-processing follows
//! §4.3: obvious outliers are omitted (median-absolute-deviation filter),
//! the rest averaged, and gaps where no frame decoded are interpolated.
//!
//! The output is one measured [`GainPattern`] per sector — the pattern
//! database the compressive selection runs on.

use crate::rotation::RotationHead;
use crate::store::SectorPatterns;
use geom::interp::{fill_gaps_circular, fill_gaps_linear};
use geom::sphere::SphericalGrid;
use geom::stats::median;
use rand::Rng;
use talon_array::{GainPattern, SectorId, WeightVector};
use talon_channel::{Device, Link};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The angular grid to measure (device coordinates).
    pub grid: SphericalGrid,
    /// Sweeps performed per orientation (the paper pings for 20 s with at
    /// least one sweep per second → ~20).
    pub sweeps_per_position: usize,
    /// MAD multiple beyond which a sample is an "obvious outlier".
    pub outlier_mad_threshold: f64,
    /// Fallback gain for sectors never observed at all, in dB (the
    /// firmware's report floor).
    pub floor_db: f64,
    /// Whether the azimuth axis wraps (full-circle scans do; ±90° scans
    /// don't).
    pub azimuth_wraps: bool,
}

impl CampaignConfig {
    /// §4.3: full azimuth circle at 0.9°, elevation 0°.
    pub fn paper_azimuth_scan() -> Self {
        CampaignConfig {
            grid: SphericalGrid::chamber_azimuth_scan(),
            sweeps_per_position: 20,
            outlier_mad_threshold: 4.0,
            floor_db: -7.0,
            azimuth_wraps: true,
        }
    }

    /// §4.5: az ±90° at 1.8°, el 0°–32.4° at 3.6°.
    pub fn paper_3d_scan() -> Self {
        CampaignConfig {
            grid: SphericalGrid::chamber_3d_scan(),
            sweeps_per_position: 20,
            outlier_mad_threshold: 4.0,
            floor_db: -7.0,
            azimuth_wraps: false,
        }
    }

    /// A coarse, fast variant for tests and quick runs.
    pub fn coarse() -> Self {
        CampaignConfig {
            grid: SphericalGrid::new(
                geom::sphere::GridSpec::new(-90.0, 90.0, 7.5),
                geom::sphere::GridSpec::new(0.0, 30.0, 10.0),
            ),
            sweeps_per_position: 6,
            outlier_mad_threshold: 4.0,
            floor_db: -7.0,
            azimuth_wraps: false,
        }
    }
}

/// The campaign driver.
pub struct Campaign {
    /// Configuration.
    pub config: CampaignConfig,
    /// The rotation head carrying the device under test.
    pub head: RotationHead,
}

impl Campaign {
    /// Creates a campaign with the paper's rotation head.
    pub fn new(config: CampaignConfig, head_seed: u64) -> Self {
        Campaign {
            config,
            head: RotationHead::paper_setup(head_seed),
        }
    }

    /// Measures the transmit patterns of every sweep sector of `dut` (the
    /// rotating device) as observed by `observer` over `link`.
    ///
    /// Returns the measured pattern database. To measure at device
    /// direction `(az, el)` the head turns to yaw `−az`, tilt `−el`, so the
    /// fixed line-of-sight ray arrives at exactly that device angle.
    pub fn measure_tx_patterns<R: Rng>(
        &mut self,
        rng: &mut R,
        link: &Link,
        dut: &mut Device,
        observer: &Device,
    ) -> SectorPatterns {
        let sectors = dut.codebook.sweep_order();
        let weights: Vec<WeightVector> = sectors
            .iter()
            .map(|&s| dut.sector_weights(s).clone())
            .collect();
        let mut raw: Vec<Vec<Vec<f64>>> =
            vec![vec![Vec::new(); self.config.grid.len()]; sectors.len()];

        for el_i in 0..self.config.grid.el.len() {
            let el = self.config.grid.el.value(el_i);
            self.head.set_tilt(-el);
            for az_i in 0..self.config.grid.az.len() {
                let az = self.config.grid.az.value(az_i);
                self.head.set_azimuth(-az);
                dut.orientation = self.head.realized_orientation();
                let flat = el_i * self.config.grid.az.len() + az_i;
                let plan = link.plan(dut, observer);
                for _ in 0..self.config.sweeps_per_position {
                    for (si, w) in weights.iter().enumerate() {
                        if let Some(m) = plan.probe(rng, w) {
                            raw[si][flat].push(m.snr_db);
                        }
                    }
                }
            }
        }

        let mut store = SectorPatterns::new(self.config.grid.clone());
        for (si, &sector) in sectors.iter().enumerate() {
            let pattern = self.post_process(&raw[si]);
            store.insert(sector, pattern);
        }
        store
    }

    /// Measures the receive pattern ("Sector RX" of Fig. 5/6): roles are
    /// swapped — the fixed device transmits its strong unidirectional
    /// sector 63, the rotating device receives with its quasi-omni sector
    /// (§4.3).
    pub fn measure_rx_pattern<R: Rng>(
        &mut self,
        rng: &mut R,
        link: &Link,
        dut: &mut Device,
        fixed_tx: &Device,
    ) -> GainPattern {
        let weights = fixed_tx.sector_weights(SectorId(63));
        let mut raw: Vec<Vec<f64>> = vec![Vec::new(); self.config.grid.len()];
        for el_i in 0..self.config.grid.el.len() {
            let el = self.config.grid.el.value(el_i);
            self.head.set_tilt(-el);
            for az_i in 0..self.config.grid.az.len() {
                let az = self.config.grid.az.value(az_i);
                self.head.set_azimuth(-az);
                dut.orientation = self.head.realized_orientation();
                let flat = el_i * self.config.grid.az.len() + az_i;
                // The rotating device is now the *receiver*.
                let plan = link.plan(fixed_tx, dut);
                for _ in 0..self.config.sweeps_per_position {
                    if let Some(m) = plan.probe(rng, weights) {
                        raw[flat].push(m.snr_db);
                    }
                }
            }
        }
        self.post_process(&raw)
    }

    /// §4.3 post-processing: outlier removal, averaging, gap interpolation.
    fn post_process(&self, samples_per_point: &[Vec<f64>]) -> GainPattern {
        let cfg = &self.config;
        let n_az = cfg.grid.az.len();
        let n_el = cfg.grid.el.len();
        let mut table: Vec<Option<f64>> = samples_per_point
            .iter()
            .map(|samples| robust_mean(samples, cfg.outlier_mad_threshold))
            .collect();
        // Interpolate gaps row by row (each elevation is one scan line).
        let mut out = Vec::with_capacity(table.len());
        for el_i in 0..n_el {
            let row = &mut table[el_i * n_az..(el_i + 1) * n_az];
            let filled = if cfg.azimuth_wraps {
                fill_gaps_circular(row, cfg.floor_db)
            } else {
                fill_gaps_linear(row, cfg.floor_db)
            };
            out.extend(filled);
        }
        GainPattern::from_table(cfg.grid.clone(), out)
    }
}

/// Removes samples farther than `mad_threshold` MADs from the median, then
/// averages the remainder. `None` if no samples survive.
fn robust_mean(samples: &[f64], mad_threshold: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let med = median(samples)?;
    let deviations: Vec<f64> = samples.iter().map(|s| (s - med).abs()).collect();
    let mad = median(&deviations)?;
    // Guard: with tiny samples/quantized data MAD can be 0; fall back to a
    // fixed 2 dB window around the median.
    let window = if mad > 1e-9 { mad * mad_threshold } else { 2.0 };
    let kept: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|s| (s - med).abs() <= window)
        .collect();
    geom::stats::mean(&kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::rng::sub_rng;
    use geom::sphere::{Direction, GridSpec};
    use talon_channel::Environment;

    #[test]
    fn robust_mean_drops_outliers() {
        let samples = vec![5.0, 5.25, 4.75, 5.0, 40.0];
        let m = robust_mean(&samples, 4.0).unwrap();
        assert!((m - 5.0).abs() < 0.2, "outlier removed: {m}");
        assert_eq!(robust_mean(&[], 4.0), None);
        assert_eq!(robust_mean(&[3.0], 4.0), Some(3.0));
    }

    /// One coarse campaign reused by the checks below (it is the slow part).
    fn run_campaign() -> (SectorPatterns, Device) {
        let link = Link::new(Environment::anechoic(3.0));
        let mut dut = Device::talon(11);
        let observer = Device::talon(12);
        let mut campaign = Campaign::new(CampaignConfig::coarse(), 7);
        let mut rng = sub_rng(7, "campaign-test");
        let store = campaign.measure_tx_patterns(&mut rng, &link, &mut dut, &observer);
        (store, dut)
    }

    #[test]
    fn campaign_measures_all_sweep_sectors() {
        let (store, dut) = run_campaign();
        assert_eq!(store.len(), 34);
        for id in dut.codebook.sweep_order() {
            assert!(store.get(id).is_some(), "sector {id} measured");
        }
    }

    #[test]
    fn measured_peak_tracks_ground_truth_peak() {
        let (store, dut) = run_campaign();
        // For a strongly directional sector the measured pattern must peak
        // close to the true pattern's peak.
        let sector = dut.codebook.get(SectorId(63)).unwrap();
        let grid = store.grid().clone();
        let truth = GainPattern::sample(&dut.array, &sector.weights, &grid);
        let (_, true_peak) = truth.peak();
        let (_, meas_peak) = store.get(SectorId(63)).unwrap().peak();
        assert!(
            meas_peak.angle_to(&true_peak) < 12.0,
            "measured {meas_peak} vs truth {true_peak}"
        );
    }

    #[test]
    fn defective_sector_measures_weak() {
        let (store, _) = run_campaign();
        let p25 = store.get(SectorId(25)).unwrap();
        let p63 = store.get(SectorId(63)).unwrap();
        assert!(
            p63.peak().0 > p25.peak().0 + 4.0,
            "sector 63 {} vs 25 {}",
            p63.peak().0,
            p25.peak().0
        );
    }

    #[test]
    fn rx_pattern_is_measured_with_swapped_roles() {
        let link = Link::new(Environment::anechoic(3.0));
        let mut dut = Device::talon(11);
        let fixed = Device::talon(12);
        let cfg = CampaignConfig {
            grid: SphericalGrid::new(GridSpec::new(-60.0, 60.0, 15.0), GridSpec::fixed(0.0)),
            sweeps_per_position: 4,
            ..CampaignConfig::coarse()
        };
        let mut campaign = Campaign::new(cfg, 8);
        let mut rng = sub_rng(8, "rx-campaign");
        let rx = campaign.measure_rx_pattern(&mut rng, &link, &mut dut, &fixed);
        // Quasi-omni: coverage across the frontal range with modest spread.
        let (az, g) = rx.azimuth_cut(0.0);
        assert_eq!(az.len(), 9);
        let max = g.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = g.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max - min < 10.0, "quasi-omni spread {max}-{min}");
    }

    #[test]
    fn pattern_gain_at_interrogates_measured_direction() {
        let (store, dut) = run_campaign();
        // The steered sector 20's measured gain at its nominal direction
        // beats its gain 60° away.
        let nominal = dut.codebook.get(SectorId(20)).unwrap().nominal_dir.unwrap();
        let p = store.get(SectorId(20)).unwrap();
        let at_peak = p.gain_interp(&nominal);
        let away = p.gain_interp(&Direction::new(nominal.az_deg - 60.0, 0.0));
        assert!(at_peak > away + 3.0, "{at_peak} vs {away}");
    }
}
