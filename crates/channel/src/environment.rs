//! Ray-based propagation environments.
//!
//! Each environment is a small set of [`Ray`]s between the two devices:
//! the line-of-sight path plus zero or more single-bounce reflections
//! (image-source model). Ray directions are given in *world* coordinates;
//! the link layer converts them into each device's coordinates using the
//! device orientations.
//!
//! The three environments mirror the paper's setups:
//!
//! * [`Environment::anechoic`] — 3 m, LoS only (§4.2: "anechoic chamber to
//!   omit disturbing reflections and multi-path effects").
//! * [`Environment::lab`] — 3 m LoS plus two weak wall reflections (§6.1).
//! * [`Environment::conference_room`] — 6 m LoS plus stronger reflectors
//!   ("a couple of potential reflectors such as white-boards", §6.1).

use crate::linkbudget::LinkBudget;
use geom::sphere::Direction;

/// One propagation path between transmitter and receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Departure direction at the transmitter, world coordinates.
    pub depart_world: Direction,
    /// Arrival direction at the receiver, world coordinates.
    pub arrive_world: Direction,
    /// Total geometric path length in meters.
    pub length_m: f64,
    /// Extra loss beyond free space (reflection coefficient), dB.
    pub reflection_loss_db: f64,
}

impl Ray {
    /// Total propagation loss of this ray under a link budget.
    pub fn total_loss_db(&self, budget: &LinkBudget) -> f64 {
        budget.path_loss_db(self.length_m) + self.reflection_loss_db
    }
}

/// A named set of rays between the two devices of an experiment.
///
/// World-coordinate convention: the receiver sits at world azimuth 0 as seen
/// from the transmitter, and vice versa (the devices face each other, as in
/// Fig. 3). Rotating a device changes its *orientation*, not the rays.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// Human-readable name for reports.
    pub name: String,
    /// Propagation paths, strongest (LoS) first.
    pub rays: Vec<Ray>,
    /// Nominal device separation in meters.
    pub distance_m: f64,
}

impl Environment {
    /// The anechoic chamber: a single LoS ray at the given distance
    /// (3 m in the paper's campaign).
    pub fn anechoic(distance_m: f64) -> Self {
        Environment {
            name: format!("anechoic-{distance_m}m"),
            rays: vec![Ray {
                depart_world: Direction::new(0.0, 0.0),
                arrive_world: Direction::new(0.0, 0.0),
                length_m: distance_m,
                reflection_loss_db: 0.0,
            }],
            distance_m,
        }
    }

    /// The lab environment of §6.1: 3 m separation, LoS plus two weak
    /// side-wall reflections.
    pub fn lab() -> Self {
        let d = 3.0;
        Environment {
            name: "lab".into(),
            rays: vec![
                Ray {
                    depart_world: Direction::new(0.0, 0.0),
                    arrive_world: Direction::new(0.0, 0.0),
                    length_m: d,
                    reflection_loss_db: 0.0,
                },
                // Side wall ~1.2 m to the left: image source geometry.
                wall_bounce(d, 1.2, -14.0),
                // Ceiling bounce, arriving from above.
                ceiling_bounce(d, 1.0, -16.0),
            ],
            distance_m: d,
        }
    }

    /// The conference room of §6.1: 6 m separation, LoS plus stronger
    /// multipath (whiteboard on one side, table reflection).
    pub fn conference_room() -> Self {
        let d = 6.0;
        Environment {
            name: "conference-room".into(),
            rays: vec![
                Ray {
                    depart_world: Direction::new(0.0, 0.0),
                    arrive_world: Direction::new(0.0, 0.0),
                    length_m: d,
                    reflection_loss_db: 0.0,
                },
                // Whiteboard ~1.5 m to the right: the strongest reflector
                // (smooth surfaces at 60 GHz typically sit 10–15 dB below
                // the line of sight).
                wall_bounce(d, -1.5, -11.0),
                // Opposite wall, weaker.
                wall_bounce(d, 2.0, -16.0),
                // Table reflection from below.
                Ray {
                    depart_world: Direction::new(0.0, -16.0),
                    arrive_world: Direction::new(0.0, -16.0),
                    length_m: (d * d + 4.0 * 0.85 * 0.85).sqrt(),
                    reflection_loss_db: 14.0,
                },
            ],
            distance_m: d,
        }
    }

    /// The line-of-sight ray (always the first entry).
    pub fn los(&self) -> &Ray {
        &self.rays[0]
    }
}

/// Builds a single-bounce side-wall ray for devices `d` meters apart with
/// the wall `offset_m` to the side (sign = world azimuth sign of the bounce
/// direction at the transmitter).
fn wall_bounce(d: f64, offset_m: f64, refl_loss_db: f64) -> Ray {
    // Image-source: bounce point at half distance, lateral offset `offset`.
    let az = (2.0 * offset_m / d).atan().to_degrees();
    let length = (d * d + 4.0 * offset_m * offset_m).sqrt();
    Ray {
        depart_world: Direction::new(az, 0.0),
        arrive_world: Direction::new(-az, 0.0),
        length_m: length,
        reflection_loss_db: refl_loss_db.abs(),
    }
}

/// Builds a ceiling-bounce ray arriving from positive elevation.
fn ceiling_bounce(d: f64, height_m: f64, refl_loss_db: f64) -> Ray {
    let el = (2.0 * height_m / d).atan().to_degrees();
    let length = (d * d + 4.0 * height_m * height_m).sqrt();
    Ray {
        depart_world: Direction::new(0.0, el),
        arrive_world: Direction::new(0.0, el),
        length_m: length,
        reflection_loss_db: refl_loss_db.abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anechoic_is_los_only() {
        let e = Environment::anechoic(3.0);
        assert_eq!(e.rays.len(), 1);
        assert_eq!(e.los().length_m, 3.0);
        assert_eq!(e.los().reflection_loss_db, 0.0);
        assert_eq!(e.los().depart_world, Direction::new(0.0, 0.0));
    }

    #[test]
    fn lab_and_conference_have_multipath() {
        assert!(Environment::lab().rays.len() >= 3);
        assert!(Environment::conference_room().rays.len() >= 3);
    }

    #[test]
    fn reflections_are_longer_and_lossier_than_los() {
        for env in [Environment::lab(), Environment::conference_room()] {
            let los = env.los();
            let budget = LinkBudget::default();
            for ray in &env.rays[1..] {
                assert!(ray.length_m > los.length_m, "{}", env.name);
                assert!(
                    ray.total_loss_db(&budget) > los.total_loss_db(&budget) + 3.0,
                    "{}: reflection must be clearly weaker",
                    env.name
                );
            }
        }
    }

    #[test]
    fn wall_bounce_geometry() {
        let r = wall_bounce(6.0, -1.5, -7.0);
        // atan(2·1.5/6) = atan(0.5) ≈ 26.57°, on the negative side.
        assert!((r.depart_world.az_deg + 26.565).abs() < 0.01);
        assert!((r.arrive_world.az_deg - 26.565).abs() < 0.01);
        assert!((r.length_m - (36.0 + 9.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(r.reflection_loss_db, 7.0);
    }

    #[test]
    fn ceiling_bounce_arrives_from_above() {
        let r = ceiling_bounce(3.0, 1.0, -16.0);
        assert!(r.depart_world.el_deg > 0.0);
        assert!(r.length_m > 3.0);
    }

    #[test]
    fn conference_room_has_a_strong_reflector() {
        // The whiteboard path must be within ~15 dB of LoS so it can create
        // visible multipath effects in the estimator.
        let env = Environment::conference_room();
        let b = LinkBudget::default();
        let los = env.los().total_loss_db(&b);
        let strongest_refl = env.rays[1..]
            .iter()
            .map(|r| r.total_loss_db(&b))
            .fold(f64::INFINITY, f64::min);
        assert!(strongest_refl - los < 15.0);
    }
}
