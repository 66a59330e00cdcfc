//! Single antenna element model.
//!
//! Consumer 60 GHz modules use printed patch-like radiators: moderately
//! directive towards broadside, with poor (but non-zero) radiation towards
//! the back. We model the element power gain as
//!
//! ```text
//! g(ψ) = cos^{2q}(ψ/2) scaled to peak gain,   ψ = angle off broadside
//! ```
//!
//! which is the standard cosine-power element model; `q` controls the
//! directivity. The `cos(ψ/2)` form keeps a small but finite rear gain so
//! the distorted rear lobes of Fig. 5 can appear once chassis shadowing and
//! per-element errors are applied.

use geom::sphere::Direction;

/// Radiation model of one array element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElementModel {
    /// Peak (broadside) element gain in dBi.
    pub peak_gain_dbi: f64,
    /// Cosine exponent `q`; larger is more directive.
    pub cos_exponent: f64,
    /// Floor on the element gain in dB relative to peak, modelling leakage
    /// and scattering that keep the rear hemisphere from being perfectly
    /// dark.
    pub rear_floor_db: f64,
}

impl Default for ElementModel {
    fn default() -> Self {
        // Printed patch in a plastic chassis: wide and ripply. The low
        // cosine exponent and shallow rear floor reflect the strong
        // scattering visible in the paper's measured patterns, where even
        // off-lobe directions stay within the report range.
        ElementModel {
            peak_gain_dbi: 5.0,
            cos_exponent: 0.9,
            rear_floor_db: -18.0,
        }
    }
}

impl ElementModel {
    /// Element power gain in dBi towards `dir`.
    pub fn gain_dbi(&self, dir: &Direction) -> f64 {
        let psi = Direction::BROADSIDE.angle_to(dir).to_radians();
        // cos^{2q}(ψ/2) in dB: 20 q log10(cos(ψ/2))
        let c = (psi / 2.0).cos().max(1e-9);
        let rolloff_db = 20.0 * self.cos_exponent * c.log10();
        self.peak_gain_dbi + rolloff_db.max(self.rear_floor_db)
    }

    /// Element power gain as a linear factor towards `dir`.
    pub fn gain_linear(&self, dir: &Direction) -> f64 {
        geom::db::db_to_linear(self.gain_dbi(dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_at_broadside() {
        let e = ElementModel::default();
        assert!((e.gain_dbi(&Direction::BROADSIDE) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn gain_decreases_off_broadside() {
        let e = ElementModel::default();
        let g0 = e.gain_dbi(&Direction::new(0.0, 0.0));
        let g45 = e.gain_dbi(&Direction::new(45.0, 0.0));
        let g90 = e.gain_dbi(&Direction::new(90.0, 0.0));
        assert!(g0 > g45 && g45 > g90);
    }

    #[test]
    fn elevation_and_azimuth_are_symmetric() {
        // The cosine model depends only on the off-broadside angle.
        let e = ElementModel::default();
        let a = e.gain_dbi(&Direction::new(30.0, 0.0));
        let b = e.gain_dbi(&Direction::new(0.0, 30.0));
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn rear_gain_hits_floor() {
        let e = ElementModel::default();
        let g = e.gain_dbi(&Direction::new(180.0, 0.0));
        assert!((g - (e.peak_gain_dbi + e.rear_floor_db)).abs() < 1e-6);
    }

    #[test]
    fn linear_matches_db() {
        let e = ElementModel::default();
        let d = Direction::new(25.0, 10.0);
        let db = e.gain_dbi(&d);
        assert!((geom::db::linear_to_db(e.gain_linear(&d)) - db).abs() < 1e-9);
    }
}
