//! Directions on the sphere and discrete angular grids.
//!
//! The paper estimates the angle of arrival by maximizing a correlation over
//! a discrete grid of azimuth `φ` and elevation `θ` (Eq. 3). [`SphericalGrid`]
//! is that grid; [`Direction`] is a single `(φ, θ)` pair.
//!
//! Conventions (matching the paper's measurement setup):
//! * azimuth `φ` ∈ `(-180°, 180°]`, `0°` is broadside of the antenna array;
//! * elevation `θ` ∈ `[-90°, 90°]`, `0°` is the horizontal plane, positive is
//!   up (the paper tilts the rotation head from 0° to 32.4°).

use crate::angle::{angular_dist, wrap_180};
use crate::interp::Stencil;

/// A direction on the unit sphere in antenna coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Direction {
    /// Azimuth in degrees, wrapped to `(-180, 180]`.
    pub az_deg: f64,
    /// Elevation in degrees, clamped to `[-90, 90]`.
    pub el_deg: f64,
}

impl Direction {
    /// Creates a direction, wrapping azimuth and clamping elevation.
    pub fn new(az_deg: f64, el_deg: f64) -> Self {
        Direction {
            az_deg: wrap_180(az_deg),
            el_deg: el_deg.clamp(-90.0, 90.0),
        }
    }

    /// The broadside direction `(0°, 0°)`.
    pub const BROADSIDE: Direction = Direction {
        az_deg: 0.0,
        el_deg: 0.0,
    };

    /// Unit vector in Cartesian antenna coordinates.
    ///
    /// `x` points broadside (az 0, el 0), `y` to azimuth +90°, `z` up.
    pub fn unit_vector(&self) -> [f64; 3] {
        let az = self.az_deg.to_radians();
        let el = self.el_deg.to_radians();
        [el.cos() * az.cos(), el.cos() * az.sin(), el.sin()]
    }

    /// Great-circle angular distance to another direction, in degrees.
    ///
    /// ```
    /// use geom::sphere::Direction;
    /// let a = Direction::new(0.0, 0.0);
    /// let b = Direction::new(90.0, 0.0);
    /// assert!((a.angle_to(&b) - 90.0).abs() < 1e-9);
    /// ```
    pub fn angle_to(&self, other: &Direction) -> f64 {
        let u = self.unit_vector();
        let v = other.unit_vector();
        let dot: f64 = u.iter().zip(&v).map(|(a, b)| a * b).sum();
        dot.clamp(-1.0, 1.0).acos().to_degrees()
    }

    /// Component-wise angular error `(azimuth, elevation)` against a ground
    /// truth, both in degrees and non-negative.
    ///
    /// This is the error metric of Fig. 7, which treats azimuth and elevation
    /// independently because they were measured with different resolution.
    pub fn component_error(&self, truth: &Direction) -> (f64, f64) {
        (
            angular_dist(self.az_deg, truth.az_deg),
            (self.el_deg - truth.el_deg).abs(),
        )
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(az {:.2}°, el {:.2}°)", self.az_deg, self.el_deg)
    }
}

/// Specification of one angular axis of a grid: inclusive start/end with a
/// fixed step (all degrees).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// First sample in degrees.
    pub start_deg: f64,
    /// Last sample in degrees (inclusive; the actual last sample is the
    /// largest `start + k*step <= end + eps`).
    pub end_deg: f64,
    /// Step between samples in degrees. Must be positive.
    pub step_deg: f64,
}

impl GridSpec {
    /// Creates a new axis spec.
    ///
    /// # Panics
    /// Panics if `step_deg <= 0` or `end_deg < start_deg`.
    pub fn new(start_deg: f64, end_deg: f64, step_deg: f64) -> Self {
        assert!(step_deg > 0.0, "grid step must be positive");
        assert!(end_deg >= start_deg, "grid end must be >= start");
        GridSpec {
            start_deg,
            end_deg,
            step_deg,
        }
    }

    /// A single-sample axis (used for 2-D setups where elevation is fixed).
    pub fn fixed(value_deg: f64) -> Self {
        GridSpec {
            start_deg: value_deg,
            end_deg: value_deg,
            step_deg: 1.0,
        }
    }

    /// Number of samples along this axis.
    pub fn len(&self) -> usize {
        ((self.end_deg - self.start_deg) / self.step_deg + 1e-9).floor() as usize + 1
    }

    /// Whether the axis has exactly one sample.
    pub fn is_empty(&self) -> bool {
        false // a valid spec always has >= 1 sample
    }

    /// The `i`-th sample in degrees.
    pub fn value(&self, i: usize) -> f64 {
        self.start_deg + i as f64 * self.step_deg
    }

    /// Index of the sample closest to `deg` (clamped into range).
    pub fn nearest(&self, deg: f64) -> usize {
        let idx = ((deg - self.start_deg) / self.step_deg).round();
        (idx.max(0.0) as usize).min(self.len() - 1)
    }

    /// Iterates over all sample values in degrees.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }
}

/// A discrete grid over azimuth × elevation — the search space of Eq. 3.
///
/// Iteration order is elevation-major (all azimuths of the first elevation,
/// then the next elevation), matching the storage order of pattern tables.
#[derive(Debug, Clone, PartialEq)]
pub struct SphericalGrid {
    /// Azimuth axis.
    pub az: GridSpec,
    /// Elevation axis.
    pub el: GridSpec,
}

impl SphericalGrid {
    /// Creates a grid from two axis specs.
    pub fn new(az: GridSpec, el: GridSpec) -> Self {
        SphericalGrid { az, el }
    }

    /// The anechoic-chamber azimuth scan of §4.3: az −180°..180° in 0.9°
    /// steps, elevation fixed at 0°.
    pub fn chamber_azimuth_scan() -> Self {
        SphericalGrid::new(GridSpec::new(-180.0, 180.0, 0.9), GridSpec::fixed(0.0))
    }

    /// The 3-D chamber scan of §4.5: az ±90° in 1.8° steps, el 0°..32.4° in
    /// 3.6° steps.
    pub fn chamber_3d_scan() -> Self {
        SphericalGrid::new(
            GridSpec::new(-90.0, 90.0, 1.8),
            GridSpec::new(0.0, 32.4, 3.6),
        )
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.az.len() * self.el.len()
    }

    /// Whether the grid is empty (never true for valid specs).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Direction at flat index `i` (elevation-major layout).
    pub fn direction(&self, i: usize) -> Direction {
        let n_az = self.az.len();
        let el_i = i / n_az;
        let az_i = i % n_az;
        Direction::new(self.az.value(az_i), self.el.value(el_i))
    }

    /// Flat index of the grid point nearest to `dir`.
    pub fn nearest_index(&self, dir: &Direction) -> usize {
        let az_i = self.az.nearest(dir.az_deg);
        let el_i = self.el.nearest(dir.el_deg);
        el_i * self.az.len() + az_i
    }

    /// The bilinear lookup of `dir` on any table laid out on this grid
    /// (clamped to the grid's angular extent): one [`Stencil`] reads the
    /// same direction from every pattern of the grid.
    pub fn stencil(&self, dir: &Direction) -> Stencil {
        let r = (dir.el_deg - self.el.start_deg) / self.el.step_deg;
        let c = (dir.az_deg - self.az.start_deg) / self.az.step_deg;
        Stencil::new(self.el.len(), self.az.len(), r, c)
    }

    /// Iterates over `(flat_index, Direction)` pairs in layout order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Direction)> + '_ {
        (0..self.len()).map(move |i| (i, self.direction(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_vectors_are_unit() {
        for &(az, el) in &[(0.0, 0.0), (90.0, 0.0), (45.0, 30.0), (-120.0, -60.0)] {
            let v = Direction::new(az, el).unit_vector();
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn broadside_is_x_axis() {
        let v = Direction::BROADSIDE.unit_vector();
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!(v[1].abs() < 1e-12 && v[2].abs() < 1e-12);
    }

    #[test]
    fn angle_between_orthogonal_directions() {
        let a = Direction::new(0.0, 0.0);
        assert!((a.angle_to(&Direction::new(0.0, 90.0)) - 90.0).abs() < 1e-9);
        assert!((a.angle_to(&Direction::new(180.0, 0.0)) - 180.0).abs() < 1e-9);
        assert!(a.angle_to(&a) < 1e-9);
    }

    #[test]
    fn component_error_wraps_azimuth() {
        let est = Direction::new(-175.0, 10.0);
        let truth = Direction::new(175.0, 5.0);
        let (az_e, el_e) = est.component_error(&truth);
        assert!((az_e - 10.0).abs() < 1e-12);
        assert!((el_e - 5.0).abs() < 1e-12);
    }

    #[test]
    fn grid_spec_len_and_values() {
        let g = GridSpec::new(-180.0, 180.0, 0.9);
        assert_eq!(g.len(), 401);
        assert_eq!(g.value(0), -180.0);
        assert!((g.value(400) - 180.0).abs() < 1e-9);

        let f = GridSpec::fixed(12.0);
        assert_eq!(f.len(), 1);
        assert_eq!(f.value(0), 12.0);
    }

    #[test]
    fn grid_spec_nearest_clamps() {
        let g = GridSpec::new(0.0, 30.0, 2.0);
        assert_eq!(g.nearest(-5.0), 0);
        assert_eq!(g.nearest(31.0), 15);
        assert_eq!(g.nearest(7.1), 4); // 8.0 is closest
        assert_eq!(g.nearest(6.9), 3); // hmm: 6.9 -> idx 3.45 -> 3 (6.0)? no:
                                       // (6.9-0)/2 = 3.45 rounds to 3 => 6.0
    }

    #[test]
    fn spherical_grid_roundtrip() {
        let grid = SphericalGrid::chamber_3d_scan();
        assert_eq!(grid.az.len(), 101);
        assert_eq!(grid.el.len(), 10);
        assert_eq!(grid.len(), 1010);
        for &i in &[0usize, 1, 100, 101, 555, 1009] {
            let d = grid.direction(i);
            assert_eq!(grid.nearest_index(&d), i);
        }
    }

    #[test]
    fn nearest_index_snaps_off_grid_directions() {
        let grid = SphericalGrid::new(
            GridSpec::new(-10.0, 10.0, 5.0),
            GridSpec::new(0.0, 10.0, 5.0),
        );
        let idx = grid.nearest_index(&Direction::new(3.0, 7.0));
        let d = grid.direction(idx);
        assert_eq!(d.az_deg, 5.0);
        assert_eq!(d.el_deg, 5.0);
    }

    #[test]
    #[should_panic(expected = "grid step must be positive")]
    fn zero_step_panics() {
        GridSpec::new(0.0, 10.0, 0.0);
    }
}
