//! Time-varying channel dynamics: blockage and environment evolution.
//!
//! The paper's discussion (§7, and the BeamSpy line of related work in §8)
//! motivates fast re-training with mobility and blockage: "highly
//! directional mm-wave connections [are] threatened by mobility and
//! blockage". This module adds the time dimension the static
//! [`crate::environment::Environment`] lacks:
//!
//! * [`Blockage`] — one blockage episode: an interval during which a ray
//!   suffers extra attenuation (a person crossing the LoS costs 15–25 dB
//!   at 60 GHz and lasts a few hundred milliseconds).
//! * [`BlockageModel`] — a Poisson process over a time horizon that
//!   generates reproducible episodes.
//! * [`DynamicEnvironment`] — the base environment plus its episodes;
//!   `at(t)` materializes the effective environment at time `t`.

use crate::environment::Environment;
use rand::Rng;

/// One blockage episode affecting one ray.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blockage {
    /// Index of the affected ray in the environment's ray list
    /// (0 = line of sight).
    pub ray: usize,
    /// Episode start, seconds.
    pub start_s: f64,
    /// Episode end, seconds.
    pub end_s: f64,
    /// Extra attenuation while active, dB.
    pub attenuation_db: f64,
}

impl Blockage {
    /// Whether the episode is active at time `t`.
    pub fn active_at(&self, t_s: f64) -> bool {
        (self.start_s..self.end_s).contains(&t_s)
    }
}

/// Parameters of the blockage process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockageModel {
    /// Mean episodes per second (Poisson arrival rate).
    pub rate_per_s: f64,
    /// Attenuation range, dB.
    pub attenuation_db: (f64, f64),
    /// Episode duration range, seconds.
    pub duration_s: (f64, f64),
    /// Probability that an episode hits the LoS ray (otherwise a random
    /// reflection).
    pub los_fraction: f64,
}

impl Default for BlockageModel {
    fn default() -> Self {
        BlockageModel {
            rate_per_s: 0.5,
            attenuation_db: (15.0, 25.0),
            duration_s: (0.1, 0.5),
            los_fraction: 0.8,
        }
    }
}

impl BlockageModel {
    /// Generates the episodes of a time horizon.
    pub fn generate<R: Rng>(&self, rng: &mut R, horizon_s: f64, num_rays: usize) -> Vec<Blockage> {
        assert!(num_rays > 0, "environment needs rays");
        let mut out = Vec::new();
        let mut t = 0.0;
        loop {
            // Exponential inter-arrival times.
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            t += -u.ln() / self.rate_per_s;
            if t >= horizon_s {
                break;
            }
            let ray = if rng.gen::<f64>() < self.los_fraction || num_rays == 1 {
                0
            } else {
                1 + rng.gen_range(0..num_rays - 1)
            };
            let dur = rng.gen_range(self.duration_s.0..=self.duration_s.1);
            let att = rng.gen_range(self.attenuation_db.0..=self.attenuation_db.1);
            out.push(Blockage {
                ray,
                start_s: t,
                end_s: t + dur,
                attenuation_db: att,
            });
        }
        out
    }
}

/// An environment whose rays can be blocked over time.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicEnvironment {
    /// The unblocked base environment.
    pub base: Environment,
    /// All blockage episodes of the simulated horizon.
    pub episodes: Vec<Blockage>,
}

impl DynamicEnvironment {
    /// Wraps a static environment with a generated blockage trace.
    pub fn with_blockage<R: Rng>(
        base: Environment,
        model: &BlockageModel,
        rng: &mut R,
        horizon_s: f64,
    ) -> Self {
        let episodes = model.generate(rng, horizon_s, base.rays.len());
        DynamicEnvironment { base, episodes }
    }

    /// A static wrapper with no episodes.
    pub fn still(base: Environment) -> Self {
        DynamicEnvironment {
            base,
            episodes: Vec::new(),
        }
    }

    /// The effective environment at time `t`: active episodes add their
    /// attenuation to their ray's reflection loss.
    pub fn at(&self, t_s: f64) -> Environment {
        let mut env = self.base.clone();
        for ep in &self.episodes {
            if ep.active_at(t_s) && ep.ray < env.rays.len() {
                env.rays[ep.ray].reflection_loss_db += ep.attenuation_db;
            }
        }
        env
    }

    /// Whether any episode blocks the LoS at time `t`.
    pub fn los_blocked_at(&self, t_s: f64) -> bool {
        self.episodes
            .iter()
            .any(|ep| ep.ray == 0 && ep.active_at(t_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::rng::sub_rng;

    #[test]
    fn poisson_process_has_expected_rate() {
        let model = BlockageModel {
            rate_per_s: 2.0,
            ..BlockageModel::default()
        };
        let mut rng = sub_rng(1, "blockage");
        let eps = model.generate(&mut rng, 500.0, 4);
        // ~1000 expected; allow generous slack.
        assert!(
            (800..1200).contains(&eps.len()),
            "episode count {}",
            eps.len()
        );
        for ep in &eps {
            assert!(ep.end_s > ep.start_s);
            assert!(ep.attenuation_db >= 15.0 && ep.attenuation_db <= 25.0);
            assert!(ep.ray < 4);
        }
    }

    #[test]
    fn most_episodes_hit_the_los() {
        let model = BlockageModel::default();
        let mut rng = sub_rng(2, "blockage");
        let eps = model.generate(&mut rng, 2000.0, 4);
        let los = eps.iter().filter(|e| e.ray == 0).count();
        let frac = los as f64 / eps.len() as f64;
        assert!((0.7..0.9).contains(&frac), "LoS fraction {frac}");
    }

    #[test]
    fn blockage_raises_ray_loss_only_while_active() {
        let base = Environment::conference_room();
        let dynenv = DynamicEnvironment {
            base: base.clone(),
            episodes: vec![Blockage {
                ray: 0,
                start_s: 1.0,
                end_s: 1.3,
                attenuation_db: 20.0,
            }],
        };
        let before = dynenv.at(0.5);
        let during = dynenv.at(1.1);
        let after = dynenv.at(2.0);
        assert_eq!(before, base);
        assert_eq!(after, base);
        assert_eq!(
            during.rays[0].reflection_loss_db,
            base.rays[0].reflection_loss_db + 20.0
        );
        assert!(dynenv.los_blocked_at(1.1));
        assert!(!dynenv.los_blocked_at(0.5));
    }

    #[test]
    fn overlapping_episodes_stack() {
        let base = Environment::anechoic(3.0);
        let dynenv = DynamicEnvironment {
            base,
            episodes: vec![
                Blockage {
                    ray: 0,
                    start_s: 0.0,
                    end_s: 1.0,
                    attenuation_db: 10.0,
                },
                Blockage {
                    ray: 0,
                    start_s: 0.5,
                    end_s: 1.5,
                    attenuation_db: 5.0,
                },
            ],
        };
        assert_eq!(dynenv.at(0.7).rays[0].reflection_loss_db, 15.0);
        assert_eq!(dynenv.at(1.2).rays[0].reflection_loss_db, 5.0);
    }

    #[test]
    fn still_environment_never_changes() {
        let dynenv = DynamicEnvironment::still(Environment::lab());
        assert_eq!(dynenv.at(0.0), dynenv.at(100.0));
        assert!(!dynenv.los_blocked_at(50.0));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let model = BlockageModel::default();
        let a = model.generate(&mut sub_rng(9, "b"), 100.0, 2);
        let b = model.generate(&mut sub_rng(9, "b"), 100.0, 2);
        assert_eq!(a, b);
    }
}
