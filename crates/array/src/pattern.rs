//! Sampled gain patterns over an angular grid.
//!
//! A [`GainPattern`] is a sector's gain tabulated on a
//! [`geom::SphericalGrid`]. Two kinds exist in the workspace:
//!
//! * *ground-truth* patterns, sampled directly from the array model (this
//!   module) — used by the channel simulator;
//! * *measured* patterns, produced by the `chamber` crate's campaign — the
//!   only patterns the compressive algorithm is allowed to see, mirroring
//!   the paper's methodology.
//!
//! Both share this storage type, so the estimator code cannot tell them
//! apart.

use crate::steering::PhasedArray;
use crate::weights::WeightVector;
use geom::sphere::{Direction, SphericalGrid};
use serde::{Deserialize, Serialize};

/// A gain table over a spherical grid, elevation-major (matching
/// [`SphericalGrid`] flat indexing). Values are in dB (dBi for ground
/// truth, measured SNR in dB for chamber output — the estimator only uses
/// relative shape, see Eq. 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GainPattern {
    /// The sampling grid.
    pub grid: SphericalGrid,
    /// Gain per grid point, flat elevation-major layout.
    pub gain_db: Vec<f64>,
}

impl GainPattern {
    /// Samples the ground-truth pattern of an excitation on the array.
    pub fn sample(array: &PhasedArray, weights: &WeightVector, grid: &SphericalGrid) -> Self {
        let excitation = array.excitation(weights);
        let gain_db = grid
            .iter()
            .map(|(_, dir)| array.excitation_gain_dbi(&excitation, &dir))
            .collect();
        GainPattern {
            grid: grid.clone(),
            gain_db,
        }
    }

    /// Builds a pattern from an existing gain table.
    ///
    /// # Panics
    /// Panics if the table length does not match the grid size.
    pub fn from_table(grid: SphericalGrid, gain_db: Vec<f64>) -> Self {
        assert_eq!(gain_db.len(), grid.len(), "gain table size mismatch");
        GainPattern { grid, gain_db }
    }

    /// Gain at the grid point nearest to `dir`.
    pub fn gain_at(&self, dir: &Direction) -> f64 {
        self.gain_db[self.grid.nearest_index(dir)]
    }

    /// Bilinearly interpolated gain at an arbitrary direction (clamped to
    /// the grid's angular extent).
    pub fn gain_interp(&self, dir: &Direction) -> f64 {
        self.grid.stencil(dir).apply(&self.gain_db)
    }

    /// Peak gain and its direction.
    pub fn peak(&self) -> (f64, Direction) {
        let (mut best, mut best_i) = (f64::NEG_INFINITY, 0);
        for (i, &g) in self.gain_db.iter().enumerate() {
            if g > best {
                best = g;
                best_i = i;
            }
        }
        (best, self.grid.direction(best_i))
    }

    /// The azimuth cut at the elevation row nearest `el_deg`: `(azimuths,
    /// gains)`. This is what Fig. 5 plots (el = 0°).
    pub fn azimuth_cut(&self, el_deg: f64) -> (Vec<f64>, Vec<f64>) {
        let row = self.grid.el.nearest(el_deg);
        let cols = self.grid.az.len();
        let az: Vec<f64> = self.grid.az.iter().collect();
        let g = self.gain_db[row * cols..(row + 1) * cols].to_vec();
        (az, g)
    }

    /// Mean gain over the whole grid (a crude "total radiated" proxy used
    /// to spot defective sectors).
    pub fn mean_gain_db(&self) -> f64 {
        geom::stats::mean(&self.gain_db).expect("grid is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook::{Codebook, SectorId};
    use geom::sphere::GridSpec;

    fn small_grid() -> SphericalGrid {
        SphericalGrid::new(
            GridSpec::new(-90.0, 90.0, 5.0),
            GridSpec::new(0.0, 30.0, 10.0),
        )
    }

    #[test]
    fn sampled_pattern_matches_direct_evaluation() {
        let arr = PhasedArray::talon(3);
        let cb = Codebook::talon(&arr, 3);
        let s = cb.get(SectorId(8)).unwrap();
        let grid = small_grid();
        let p = GainPattern::sample(&arr, &s.weights, &grid);
        for &i in &[0usize, 7, 36, 100] {
            let d = grid.direction(i);
            assert_eq!(p.gain_db[i], arr.gain_dbi(&s.weights, &d));
            assert_eq!(p.gain_at(&d), p.gain_db[i]);
        }
    }

    #[test]
    fn peak_of_steered_sector_is_near_nominal() {
        let arr = PhasedArray::talon(3);
        let cb = Codebook::talon(&arr, 3);
        let s = cb.get(SectorId(20)).unwrap();
        let nominal = s.nominal_dir.unwrap();
        let grid = SphericalGrid::new(
            GridSpec::new(-90.0, 90.0, 1.0),
            GridSpec::new(0.0, 30.0, 2.0),
        );
        let p = GainPattern::sample(&arr, &s.weights, &grid);
        let (_, peak_dir) = p.peak();
        // Quantization and element errors shift the lobe a little, but it
        // must stay in the neighbourhood of the design direction.
        assert!(
            peak_dir.angle_to(&nominal) < 15.0,
            "peak {peak_dir} vs nominal {nominal}"
        );
    }

    #[test]
    fn interp_agrees_on_grid_points_and_between() {
        let grid = SphericalGrid::new(GridSpec::new(0.0, 10.0, 5.0), GridSpec::new(0.0, 10.0, 5.0));
        // gains: row-major 3x3 ramp
        let gains: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let p = GainPattern::from_table(grid, gains);
        assert_eq!(p.gain_interp(&Direction::new(0.0, 0.0)), 0.0);
        assert_eq!(p.gain_interp(&Direction::new(10.0, 10.0)), 8.0);
        assert_eq!(p.gain_interp(&Direction::new(5.0, 5.0)), 4.0);
        assert_eq!(p.gain_interp(&Direction::new(2.5, 0.0)), 0.5);
    }

    #[test]
    fn azimuth_cut_extracts_row() {
        let grid = small_grid();
        let arr = PhasedArray::talon(3);
        let cb = Codebook::talon(&arr, 3);
        let p = GainPattern::sample(&arr, &cb.get(SectorId(63)).unwrap().weights, &grid);
        let (az, g) = p.azimuth_cut(0.0);
        assert_eq!(az.len(), grid.az.len());
        assert_eq!(g.len(), grid.az.len());
        assert_eq!(g[0], p.gain_db[0]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn from_table_checks_length() {
        GainPattern::from_table(small_grid(), vec![0.0; 3]);
    }
}
