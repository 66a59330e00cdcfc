//! Device mounting and rotation state.
//!
//! The measurement campaigns rotate the device under test on a stepper head
//! (azimuth) and manually tilt it (elevation, §4.5). Propagation rays are
//! fixed in *world* coordinates; the antenna evaluates gains in *device*
//! coordinates. [`Orientation`] performs that conversion.
//!
//! The tilt conversion is the small-angle decomposition `az' = az − yaw`,
//! `el' = el − tilt`, exact for pure yaw and accurate to well under a degree
//! for the tilts the paper uses (≤ 32.4°) at the frontal azimuths where its
//! evaluation happens. The paper itself reports that manual tilting did not
//! achieve sub-degree precision (§6.2), so this approximation is below the
//! setup's own error floor.

use geom::sphere::Direction;

/// Yaw/tilt of a device in world coordinates, degrees.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Orientation {
    /// Rotation about the vertical axis (positive turns the broadside
    /// towards world azimuth +yaw).
    pub yaw_deg: f64,
    /// Tilt of the rotation head (positive tilts the broadside upwards).
    pub tilt_deg: f64,
}

impl Orientation {
    /// The neutral mounting: broadside facing world azimuth 0, no tilt.
    pub const NEUTRAL: Orientation = Orientation {
        yaw_deg: 0.0,
        tilt_deg: 0.0,
    };

    /// Creates an orientation.
    pub fn new(yaw_deg: f64, tilt_deg: f64) -> Self {
        Orientation { yaw_deg, tilt_deg }
    }

    /// Converts a world-coordinate direction into device coordinates.
    pub fn world_to_device(&self, world: &Direction) -> Direction {
        Direction::new(world.az_deg - self.yaw_deg, world.el_deg - self.tilt_deg)
    }

    /// Converts a device-coordinate direction into world coordinates.
    pub fn device_to_world(&self, device: &Direction) -> Direction {
        Direction::new(device.az_deg + self.yaw_deg, device.el_deg + self.tilt_deg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neutral_is_identity() {
        let d = Direction::new(33.0, 12.0);
        let o = Orientation::NEUTRAL;
        assert_eq!(o.world_to_device(&d), d);
        assert_eq!(o.device_to_world(&d), d);
    }

    #[test]
    fn yaw_shifts_azimuth() {
        let o = Orientation::new(30.0, 0.0);
        let dev = o.world_to_device(&Direction::new(30.0, 0.0));
        assert_eq!(dev.az_deg, 0.0);
        // A device yawed +30° sees world azimuth 0 at device azimuth −30.
        let dev = o.world_to_device(&Direction::new(0.0, 0.0));
        assert_eq!(dev.az_deg, -30.0);
    }

    #[test]
    fn tilt_shifts_elevation() {
        let o = Orientation::new(0.0, 10.0);
        let dev = o.world_to_device(&Direction::new(0.0, 10.0));
        assert_eq!(dev.el_deg, 0.0);
    }

    #[test]
    fn roundtrip_within_range() {
        let o = Orientation::new(-42.0, 14.0);
        let d = Direction::new(17.0, 8.0);
        let back = o.device_to_world(&o.world_to_device(&d));
        assert!((back.az_deg - d.az_deg).abs() < 1e-12);
        assert!((back.el_deg - d.el_deg).abs() < 1e-12);
    }

    #[test]
    fn azimuth_wraps_through_180() {
        let o = Orientation::new(170.0, 0.0);
        let dev = o.world_to_device(&Direction::new(-170.0, 0.0));
        assert_eq!(dev.az_deg, 20.0);
    }
}
