//! Minimal complex arithmetic for far-field array factors.
//!
//! The workspace's approved dependency list has no `num-complex`, and the
//! array math needs only a handful of operations, so we carry our own small
//! `Complex` type. Operations are implemented directly (no trait gymnastics)
//! and tested against hand-computed values.

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number from rectangular components.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{jθ}` — unit phasor with phase `theta` in radians.
    pub fn from_phase(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Polar constructor: magnitude `r`, phase `theta` radians.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Squared magnitude `|z|²`.
    pub fn abs2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.abs2().sqrt()
    }

    /// Phase in radians, in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Complex {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Scales by a real factor.
    pub fn scale(self, k: f64) -> Complex {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl std::ops::AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn phasor_quadrants() {
        let z = Complex::from_phase(0.0);
        assert!((z.re - 1.0).abs() < 1e-15 && z.im.abs() < 1e-15);
        let z = Complex::from_phase(FRAC_PI_2);
        assert!(z.re.abs() < 1e-15 && (z.im - 1.0).abs() < 1e-15);
        let z = Complex::from_phase(PI);
        assert!((z.re + 1.0).abs() < 1e-12);
    }

    #[test]
    fn multiplication_adds_phases() {
        let a = Complex::from_phase(0.3);
        let b = Complex::from_phase(0.4);
        let c = a * b;
        assert!((c.arg() - 0.7).abs() < 1e-12);
        assert!((c.abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn abs_and_conj() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.abs2(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.conj(), Complex::new(3.0, 4.0));
        let p = z * z.conj();
        assert!((p.re - 25.0).abs() < 1e-12 && p.im.abs() < 1e-12);
    }

    #[test]
    fn add_sub_scale() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-0.5, 1.0);
        assert_eq!(a + b, Complex::new(0.5, 3.0));
        assert_eq!(a - b, Complex::new(1.5, 1.0));
        assert_eq!(a.scale(2.0), Complex::new(2.0, 4.0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.5, 1.1);
        assert!((z.abs() - 2.5).abs() < 1e-12);
        assert!((z.arg() - 1.1).abs() < 1e-12);
    }
}
