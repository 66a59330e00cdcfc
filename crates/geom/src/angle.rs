//! Wrap-aware angle arithmetic in degrees.
//!
//! Azimuth angles live on a circle: `-180°` and `180°` are the same physical
//! direction, and the distance between `170°` and `-170°` is `20°`, not
//! `340°`. Getting this wrong silently corrupts angle-of-arrival error
//! statistics (Fig. 7), so all angle handling funnels through this module.

/// Wraps an angle in degrees into the half-open interval `(-180, 180]`.
///
/// This is the canonical representation for azimuth angles throughout the
/// workspace and matches the plot range of Fig. 5 in the paper.
///
/// ```
/// use geom::angle::wrap_180;
/// assert_eq!(wrap_180(190.0), -170.0);
/// assert_eq!(wrap_180(-180.0), 180.0);
/// assert_eq!(wrap_180(540.0), 180.0);
/// ```
pub fn wrap_180(deg: f64) -> f64 {
    let mut a = deg % 360.0;
    if a <= -180.0 {
        a += 360.0;
    } else if a > 180.0 {
        a -= 360.0;
    }
    a
}

/// Wraps an angle in degrees into `[0, 360)`.
pub fn wrap_360(deg: f64) -> f64 {
    let mut a = deg % 360.0;
    if a < 0.0 {
        a += 360.0;
    }
    a
}

/// Shortest signed angular difference `a - b` on the circle, in `(-180, 180]`.
///
/// ```
/// use geom::angle::angular_diff;
/// assert_eq!(angular_diff(170.0, -170.0), -20.0);
/// assert_eq!(angular_diff(-170.0, 170.0), 20.0);
/// ```
pub fn angular_diff(a: f64, b: f64) -> f64 {
    wrap_180(a - b)
}

/// Absolute shortest angular distance between two angles in degrees, in
/// `[0, 180]`.
pub fn angular_dist(a: f64, b: f64) -> f64 {
    angular_diff(a, b).abs()
}

/// An azimuth/elevation-style angle in degrees, stored wrapped to
/// `(-180, 180]`.
///
/// `AngleDeg` is a thin newtype used where mixing up degrees and radians or
/// forgetting to wrap would be costly. Plain `f64` degrees remain acceptable
/// in local computations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AngleDeg(f64);

impl AngleDeg {
    /// Creates an angle from degrees, wrapping into `(-180, 180]`.
    pub fn new(deg: f64) -> Self {
        AngleDeg(wrap_180(deg))
    }

    /// The wrapped value in degrees.
    pub fn deg(self) -> f64 {
        self.0
    }

    /// The value in radians.
    pub fn rad(self) -> f64 {
        self.0.to_radians()
    }

    /// Creates an angle from radians.
    pub fn from_rad(rad: f64) -> Self {
        AngleDeg::new(rad.to_degrees())
    }

    /// Shortest signed difference `self - other` in degrees.
    pub fn diff(self, other: AngleDeg) -> f64 {
        angular_diff(self.0, other.0)
    }

    /// Absolute shortest distance to `other` in degrees.
    pub fn dist(self, other: AngleDeg) -> f64 {
        angular_dist(self.0, other.0)
    }

    /// Returns the angle rotated by `deg` degrees (wrapped).
    pub fn rotated(self, deg: f64) -> AngleDeg {
        AngleDeg::new(self.0 + deg)
    }
}

impl std::ops::Add<f64> for AngleDeg {
    type Output = AngleDeg;
    fn add(self, rhs: f64) -> AngleDeg {
        self.rotated(rhs)
    }
}

impl std::ops::Sub<f64> for AngleDeg {
    type Output = AngleDeg;
    fn sub(self, rhs: f64) -> AngleDeg {
        self.rotated(-rhs)
    }
}

impl std::fmt::Display for AngleDeg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}°", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_180_basic() {
        assert_eq!(wrap_180(0.0), 0.0);
        assert_eq!(wrap_180(180.0), 180.0);
        assert_eq!(wrap_180(-180.0), 180.0);
        assert_eq!(wrap_180(181.0), -179.0);
        assert_eq!(wrap_180(-181.0), 179.0);
        assert_eq!(wrap_180(360.0), 0.0);
        assert_eq!(wrap_180(-360.0), 0.0);
        assert_eq!(wrap_180(720.0 + 45.0), 45.0);
    }

    #[test]
    fn wrap_360_basic() {
        assert_eq!(wrap_360(0.0), 0.0);
        assert_eq!(wrap_360(-1.0), 359.0);
        assert_eq!(wrap_360(360.0), 0.0);
        assert_eq!(wrap_360(725.0), 5.0);
    }

    #[test]
    fn diff_is_shortest_path() {
        assert_eq!(angular_diff(10.0, 350.0), 20.0);
        assert_eq!(angular_diff(350.0, 10.0), -20.0);
        assert_eq!(angular_diff(90.0, -90.0), 180.0);
        assert_eq!(angular_dist(90.0, -90.0), 180.0);
        assert_eq!(angular_dist(-170.0, 170.0), 20.0);
    }

    #[test]
    fn angle_type_roundtrip() {
        let a = AngleDeg::new(190.0);
        assert_eq!(a.deg(), -170.0);
        let b = AngleDeg::from_rad(std::f64::consts::PI / 2.0);
        assert!((b.deg() - 90.0).abs() < 1e-12);
        assert!((b.rad() - std::f64::consts::PI / 2.0).abs() < 1e-12);
    }

    #[test]
    fn angle_ops() {
        let a = AngleDeg::new(170.0) + 20.0;
        assert_eq!(a.deg(), -170.0);
        let b = AngleDeg::new(-170.0) - 20.0;
        assert_eq!(b.deg(), 170.0);
        assert_eq!(AngleDeg::new(170.0).dist(AngleDeg::new(-170.0)), 20.0);
    }

    #[test]
    fn display_formats_degrees() {
        assert_eq!(format!("{}", AngleDeg::new(45.125)), "45.12°");
    }
}
