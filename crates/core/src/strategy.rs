//! Probing-set strategies.
//!
//! The paper's protocol takes "a random subset of M out of N sectors"
//! (§2.2) and keeps "the number of probes as well as the selection of
//! sectors a variable parameter" (§7), noting that designed probing sets
//! "might provide further benefits". Three strategies are provided:
//!
//! * [`ProbeStrategy::UniformRandom`] — the paper's default.
//! * [`ProbeStrategy::Fixed`] — an explicit, repeatable set.
//! * [`ProbeStrategy::LowCoherence`] — a greedy design that picks sectors
//!   whose measured patterns are mutually least correlated, the natural
//!   reading of §7's "predefined probing sectors" suggestion. Exercised by
//!   the ablation benches.

use chamber::SectorPatterns;
use geom::db::db_to_linear;
use geom::vector::correlation_sq;
use rand::Rng;
use talon_array::SectorId;

/// How to pick the `M` probing sectors out of the available `N`.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeStrategy {
    /// Fresh uniform random subset for every sweep (paper default).
    UniformRandom,
    /// Always probe exactly these sectors.
    Fixed(Vec<SectorId>),
    /// A precomputed minimal-mutual-coherence subset (see
    /// [`design_low_coherence`]). Falls back to uniform random if the
    /// design has fewer sectors than requested.
    LowCoherence(Vec<SectorId>),
}

impl ProbeStrategy {
    /// Draws the probing set for one sweep from the `available` sectors,
    /// read in order. The iterator is walked again rather than collected,
    /// so a caller can pass a filtered view of a sweep without building a
    /// list per draw.
    pub fn pick<'a, R, I>(&self, rng: &mut R, available: I, m: usize) -> Vec<SectorId>
    where
        R: Rng,
        I: IntoIterator<Item = &'a SectorId>,
        I::IntoIter: Clone,
    {
        let available = available.into_iter();
        let n = available.clone().count();
        let m = m.min(n);
        let listed = |ids: &[SectorId]| -> Vec<SectorId> {
            ids.iter()
                .copied()
                .filter(|id| available.clone().any(|a| a == id))
                .take(m)
                .collect()
        };
        match self {
            ProbeStrategy::UniformRandom => {
                // One walk of the sweep against the drawn bitset.
                let drawn = geom::rng::sample_index_set(rng, n, m);
                let mut picked = Vec::with_capacity(m);
                for (i, &id) in available.enumerate() {
                    if drawn.contains(i) {
                        picked.push(id);
                    }
                }
                picked
            }
            ProbeStrategy::Fixed(ids) => listed(ids),
            ProbeStrategy::LowCoherence(ids) => {
                let picked = listed(ids);
                if picked.len() == m {
                    picked
                } else {
                    ProbeStrategy::UniformRandom.pick(rng, available, m)
                }
            }
        }
    }
}

/// Greedily designs a probing order with low mutual pattern coherence.
///
/// Starts from the sector with the highest mean gain (a reliable anchor)
/// and repeatedly appends the sector whose measured pattern has the lowest
/// maximum squared correlation with any already-chosen pattern. The
/// returned order can be truncated to any `M`.
pub fn design_low_coherence(patterns: &SectorPatterns) -> Vec<SectorId> {
    let ids = patterns.sector_ids();
    if ids.is_empty() {
        return Vec::new();
    }
    // Linear-gain tables.
    let tables: Vec<Vec<f64>> = ids
        .iter()
        .map(|id| {
            patterns
                .get(*id)
                .unwrap()
                .gain_db
                .iter()
                .map(|&g| db_to_linear(g))
                .collect()
        })
        .collect();
    // Anchor: strongest mean linear gain.
    let start = (0..ids.len())
        .max_by(|&a, &b| {
            let ma: f64 = tables[a].iter().sum();
            let mb: f64 = tables[b].iter().sum();
            ma.partial_cmp(&mb).expect("gains are finite")
        })
        .expect("non-empty");
    let mut chosen = vec![start];
    let mut remaining: Vec<usize> = (0..ids.len()).filter(|&i| i != start).collect();
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| {
                let ca = max_coherence(&tables, &chosen, a);
                let cb = max_coherence(&tables, &chosen, b);
                ca.partial_cmp(&cb).expect("coherence is finite")
            })
            .expect("non-empty");
        chosen.push(best);
        remaining.remove(pos);
    }
    chosen.into_iter().map(|i| ids[i]).collect()
}

/// Highest squared correlation of candidate `c` with any chosen pattern.
fn max_coherence(tables: &[Vec<f64>], chosen: &[usize], c: usize) -> f64 {
    chosen
        .iter()
        .map(|&s| correlation_sq(&tables[s], &tables[c]))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::rng::sub_rng;
    use geom::sphere::{GridSpec, SphericalGrid};
    use talon_array::GainPattern;

    fn ids(raw: &[u8]) -> Vec<SectorId> {
        raw.iter().map(|&r| SectorId(r)).collect()
    }

    #[test]
    fn uniform_random_picks_m_distinct_available() {
        let avail = ids(&[1, 2, 3, 5, 8, 13, 21]);
        let mut rng = sub_rng(1, "strategy");
        let picked = ProbeStrategy::UniformRandom.pick(&mut rng, &avail, 4);
        assert_eq!(picked.len(), 4);
        let mut dedup = picked.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
        assert!(picked.iter().all(|id| avail.contains(id)));
    }

    #[test]
    fn uniform_random_caps_at_available() {
        let avail = ids(&[1, 2]);
        let mut rng = sub_rng(2, "strategy");
        assert_eq!(
            ProbeStrategy::UniformRandom
                .pick(&mut rng, &avail, 10)
                .len(),
            2
        );
    }

    #[test]
    fn fixed_strategy_filters_unavailable() {
        let avail = ids(&[1, 2, 3]);
        let strat = ProbeStrategy::Fixed(ids(&[2, 9, 1]));
        let mut rng = sub_rng(3, "strategy");
        assert_eq!(strat.pick(&mut rng, &avail, 5), ids(&[2, 1]));
    }

    /// A store with two nearly identical sectors and one distinct one.
    fn coherence_store() -> SectorPatterns {
        let grid = SphericalGrid::new(GridSpec::new(-30.0, 30.0, 5.0), GridSpec::fixed(0.0));
        let mut store = SectorPatterns::new(grid.clone());
        let lobes = [(-20.0, 1u8), (-19.0, 2), (25.0, 3)];
        for (peak, id) in lobes {
            let gains: Vec<f64> = grid
                .iter()
                .map(|(_, d)| 8.0 - (d.az_deg - peak).powi(2) / 30.0)
                .collect();
            store.insert(SectorId(id), GainPattern::from_table(grid.clone(), gains));
        }
        store
    }

    #[test]
    fn low_coherence_design_separates_similar_patterns() {
        let store = coherence_store();
        let order = design_low_coherence(&store);
        assert_eq!(order.len(), 3);
        // The first two picks must not be the nearly identical pair (1, 2):
        // whichever of them is picked first, the distinct sector 3 must be
        // chosen before its twin.
        let first_two: Vec<u8> = order[..2].iter().map(|s| s.raw()).collect();
        assert!(
            first_two.contains(&3),
            "distinct sector chosen early: {order:?}"
        );
    }

    #[test]
    fn low_coherence_strategy_truncates_the_design() {
        let store = coherence_store();
        let design = design_low_coherence(&store);
        let strat = ProbeStrategy::LowCoherence(design.clone());
        let avail = store.sector_ids();
        let mut rng = sub_rng(4, "strategy");
        assert_eq!(strat.pick(&mut rng, &avail, 2), design[..2].to_vec());
    }

    #[test]
    fn low_coherence_falls_back_to_random_when_short() {
        let strat = ProbeStrategy::LowCoherence(ids(&[1]));
        let avail = ids(&[1, 2, 3, 4]);
        let mut rng = sub_rng(5, "strategy");
        let picked = strat.pick(&mut rng, &avail, 3);
        assert_eq!(picked.len(), 3);
    }

    #[test]
    fn empty_design_on_empty_store() {
        let grid = SphericalGrid::new(GridSpec::new(0.0, 1.0, 1.0), GridSpec::fixed(0.0));
        assert!(design_low_coherence(&SectorPatterns::new(grid)).is_empty());
    }
}
