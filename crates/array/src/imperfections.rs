//! Low-cost hardware error model.
//!
//! The paper stresses that commodity devices "cause imperfections and do not
//! achieve the precision of laboratory equipment" (§1) and that the array is
//! "partially blocked by a chip and shielded" towards the rear, distorting
//! the patterns for |azimuth| > 120° (§4.4). [`HardwareProfile`] captures
//! those effects:
//!
//! * static per-element amplitude and phase errors (calibration residuals),
//! * randomly dead elements,
//! * chassis shadowing: a smooth extra attenuation ramp behind ±120°, with
//!   direction-dependent ripple so the rear patterns look "distorted" rather
//!   than just weak.
//!
//! The profile is *frozen at construction* from a seed: the same device
//! always has the same imperfections, which is exactly why the paper has to
//! measure its device's patterns instead of using theoretical ones.

use geom::rng::sub_rng;
use geom::sphere::Direction;
use rand::Rng;

/// Parameters of the imperfection model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareProfile {
    /// Std-dev of static per-element gain error, in dB.
    pub element_gain_err_db: f64,
    /// Std-dev of static per-element phase error, in degrees.
    pub element_phase_err_deg: f64,
    /// Probability that an element is dead (stuck off).
    pub dead_element_prob: f64,
    /// Azimuth (absolute, degrees) beyond which chassis shadowing sets in.
    pub shadow_start_deg: f64,
    /// Maximum extra attenuation applied directly behind the array, in dB.
    pub shadow_max_db: f64,
    /// Peak-to-peak ripple added on top of the shadow ramp, in dB, to model
    /// scattering off the blocking chip.
    pub shadow_ripple_db: f64,
}

impl Default for HardwareProfile {
    fn default() -> Self {
        HardwareProfile {
            element_gain_err_db: 1.2,
            element_phase_err_deg: 22.0,
            dead_element_prob: 0.02,
            shadow_start_deg: 120.0,
            shadow_max_db: 18.0,
            shadow_ripple_db: 6.0,
        }
    }
}

impl HardwareProfile {
    /// A perfect device (for ablation benches).
    pub fn ideal() -> Self {
        HardwareProfile {
            element_gain_err_db: 0.0,
            element_phase_err_deg: 0.0,
            dead_element_prob: 0.0,
            shadow_start_deg: 180.0,
            shadow_max_db: 0.0,
            shadow_ripple_db: 0.0,
        }
    }

    /// Draws the frozen per-device imperfection state for `n` elements.
    pub fn freeze(&self, n: usize, device_seed: u64) -> FrozenImperfections {
        let mut rng = sub_rng(device_seed, "hardware-imperfections");
        let mut gain_err_db = Vec::with_capacity(n);
        let mut phase_err_rad = Vec::with_capacity(n);
        let mut dead = Vec::with_capacity(n);
        for _ in 0..n {
            gain_err_db.push(gaussian(&mut rng) * self.element_gain_err_db);
            phase_err_rad.push((gaussian(&mut rng) * self.element_phase_err_deg).to_radians());
            dead.push(rng.gen::<f64>() < self.dead_element_prob);
        }
        // Random phases for the shadow ripple harmonics.
        let ripple_phases = [
            rng.gen::<f64>() * std::f64::consts::TAU,
            rng.gen::<f64>() * std::f64::consts::TAU,
            rng.gen::<f64>() * std::f64::consts::TAU,
        ];
        FrozenImperfections {
            profile: *self,
            gain_err_db,
            phase_err_rad,
            dead,
            ripple_phases,
        }
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

/// The per-device realization of a [`HardwareProfile`].
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenImperfections {
    /// The generating profile.
    pub profile: HardwareProfile,
    /// Static gain error per element, dB.
    pub gain_err_db: Vec<f64>,
    /// Static phase error per element, radians.
    pub phase_err_rad: Vec<f64>,
    /// Whether each element is dead.
    pub dead: Vec<bool>,
    /// Phases of the shadow ripple harmonics.
    ripple_phases: [f64; 3],
}

impl FrozenImperfections {
    /// Effective complex weight multiplier of element `i`
    /// (gain error × phase error, or zero if dead).
    pub fn element_factor(&self, i: usize) -> crate::complex::Complex {
        if self.dead[i] {
            return crate::complex::Complex::ZERO;
        }
        let amp = geom::db::db_to_linear(self.gain_err_db[i] / 2.0); // field, not power
        crate::complex::Complex::from_polar(amp, self.phase_err_rad[i])
    }

    /// Chassis shadowing attenuation (≥ 0 dB to subtract) towards `dir`.
    ///
    /// Zero in front of the array; ramps up smoothly beyond
    /// `shadow_start_deg` of azimuth, with deterministic ripple so the rear
    /// hemisphere looks scrambled, not just attenuated.
    pub fn shadow_db(&self, dir: &Direction) -> f64 {
        let p = &self.profile;
        let a = dir.az_deg.abs();
        if a <= p.shadow_start_deg || p.shadow_max_db == 0.0 {
            return 0.0;
        }
        let t = ((a - p.shadow_start_deg) / (180.0 - p.shadow_start_deg)).clamp(0.0, 1.0);
        // Smoothstep ramp.
        let ramp = t * t * (3.0 - 2.0 * t) * p.shadow_max_db;
        // Ripple: three incommensurate angular harmonics over az and el.
        let az = dir.az_deg.to_radians();
        let el = dir.el_deg.to_radians();
        let r = (5.0 * az + self.ripple_phases[0]).sin()
            + (9.0 * az + 3.0 * el + self.ripple_phases[1]).sin()
            + (13.0 * az - 5.0 * el + self.ripple_phases[2]).sin();
        let ripple = r / 3.0 * (p.shadow_ripple_db / 2.0) * t;
        (ramp + ripple).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_is_deterministic() {
        let p = HardwareProfile::default();
        let a = p.freeze(32, 99);
        let b = p.freeze(32, 99);
        assert_eq!(a, b);
        let c = p.freeze(32, 100);
        assert_ne!(a, c, "different devices differ");
    }

    #[test]
    fn ideal_profile_is_transparent() {
        let f = HardwareProfile::ideal().freeze(32, 1);
        for i in 0..32 {
            let w = f.element_factor(i);
            assert!((w.abs() - 1.0).abs() < 1e-12);
            assert!(w.arg().abs() < 1e-12);
        }
        assert_eq!(f.shadow_db(&Direction::new(180.0, 0.0)), 0.0);
    }

    #[test]
    fn shadow_is_zero_in_front() {
        let f = HardwareProfile::default().freeze(32, 7);
        assert_eq!(f.shadow_db(&Direction::new(0.0, 0.0)), 0.0);
        assert_eq!(f.shadow_db(&Direction::new(-119.0, 20.0)), 0.0);
    }

    #[test]
    fn shadow_grows_towards_rear() {
        let f = HardwareProfile::default().freeze(32, 7);
        let mid = f.shadow_db(&Direction::new(150.0, 0.0));
        let rear = f.shadow_db(&Direction::new(179.0, 0.0));
        assert!(mid > 0.0);
        assert!(rear > mid * 0.8, "rear {rear} should be large vs mid {mid}");
        assert!(rear <= HardwareProfile::default().shadow_max_db + 4.0);
    }

    #[test]
    fn dead_elements_have_zero_factor() {
        let p = HardwareProfile {
            dead_element_prob: 1.0,
            ..HardwareProfile::default()
        };
        let f = p.freeze(8, 3);
        for i in 0..8 {
            assert_eq!(f.element_factor(i), crate::complex::Complex::ZERO);
        }
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = sub_rng(5, "gauss-test");
        let xs: Vec<f64> = (0..20000).map(|_| gaussian(&mut rng)).collect();
        let m = geom::stats::mean(&xs).unwrap();
        let s = geom::stats::std_dev(&xs).unwrap();
        assert!(m.abs() < 0.03, "mean {m}");
        assert!((s - 1.0).abs() < 0.03, "std {s}");
    }
}
