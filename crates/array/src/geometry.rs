//! Element placement of the planar array.
//!
//! The QCA9500 module drives 32 elements. We arrange them as an 8 (azimuth)
//! × 4 (elevation) rectangular lattice with half-wavelength spacing in the
//! y/z plane; broadside is +x, matching the coordinate convention of
//! [`geom::sphere::Direction`]. An 8-wide aperture gives ~13° azimuth beams
//! and the 4-high aperture ~26° elevation beams — comparable to the measured
//! lobes in the paper's Fig. 5/6.

use crate::wavelength_m;
use geom::sphere::Direction;

/// Positions of all array elements, in meters, in antenna coordinates
/// (x broadside, y towards azimuth +90°, z up).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayGeometry {
    /// Element positions `[x, y, z]` in meters.
    pub positions: Vec<[f64; 3]>,
    /// Lattice columns (azimuth direction).
    pub cols: usize,
    /// Lattice rows (elevation direction).
    pub rows: usize,
}

impl ArrayGeometry {
    /// The Talon-like 8×4 half-wavelength lattice (32 elements).
    pub fn talon() -> Self {
        ArrayGeometry::rectangular(8, 4, 0.5)
    }

    /// A rectangular `cols × rows` lattice with `spacing_wl` wavelength
    /// spacing, centred on the origin in the y/z plane.
    pub fn rectangular(cols: usize, rows: usize, spacing_wl: f64) -> Self {
        assert!(cols > 0 && rows > 0, "array must have elements");
        let d = spacing_wl * wavelength_m();
        let mut positions = Vec::with_capacity(cols * rows);
        for r in 0..rows {
            for c in 0..cols {
                let y = (c as f64 - (cols as f64 - 1.0) / 2.0) * d;
                let z = (r as f64 - (rows as f64 - 1.0) / 2.0) * d;
                positions.push([0.0, y, z]);
            }
        }
        ArrayGeometry {
            positions,
            cols,
            rows,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if the array has no elements (never for valid constructions).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Free-space phase (radians) accumulated by a plane wave from
    /// direction `dir` at element `i`, relative to the array origin.
    ///
    /// `φ_i = k · (r_i · u)` with `k = 2π/λ`.
    pub fn phase_at(&self, i: usize, dir: &Direction) -> f64 {
        self.phases_towards(dir)(i)
    }

    /// [`ArrayGeometry::phase_at`] for every element towards one
    /// direction: computes `u` and `k` once, then the phase of element `i`
    /// per call, with the same arithmetic.
    pub(crate) fn phases_towards(&self, dir: &Direction) -> impl Fn(usize) -> f64 + '_ {
        let u = dir.unit_vector();
        let k = 2.0 * std::f64::consts::PI / wavelength_m();
        move |i| {
            let r = self.positions[i];
            k * (r[0] * u[0] + r[1] * u[1] + r[2] * u[2])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn talon_has_32_elements() {
        let g = ArrayGeometry::talon();
        assert_eq!(g.len(), 32);
        assert_eq!(g.cols, 8);
        assert_eq!(g.rows, 4);
        assert!(!g.is_empty());
    }

    #[test]
    fn lattice_is_centred() {
        let g = ArrayGeometry::talon();
        let (mut sy, mut sz) = (0.0, 0.0);
        for p in &g.positions {
            assert_eq!(p[0], 0.0, "elements lie in the y/z plane");
            sy += p[1];
            sz += p[2];
        }
        assert!(sy.abs() < 1e-12 && sz.abs() < 1e-12);
    }

    #[test]
    fn spacing_is_half_wavelength() {
        let g = ArrayGeometry::talon();
        let d = (g.positions[1][1] - g.positions[0][1]).abs();
        assert!((d - 0.5 * wavelength_m()).abs() < 1e-12);
    }

    #[test]
    fn broadside_phase_is_zero() {
        let g = ArrayGeometry::talon();
        for i in 0..g.len() {
            assert!(g.phase_at(i, &Direction::BROADSIDE).abs() < 1e-9);
        }
    }

    #[test]
    fn endfire_phase_spans_pi_per_half_wavelength() {
        let g = ArrayGeometry::rectangular(2, 1, 0.5);
        // Elements at y = ±λ/4; a wave from az=90° hits them with phase
        // difference k*λ/2 = π.
        let d = Direction::new(90.0, 0.0);
        let dp = g.phase_at(1, &d) - g.phase_at(0, &d);
        assert!((dp - std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "array must have elements")]
    fn empty_lattice_panics() {
        ArrayGeometry::rectangular(0, 4, 0.5);
    }
}
