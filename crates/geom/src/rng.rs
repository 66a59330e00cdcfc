//! Deterministic randomness plumbing.
//!
//! Every stochastic component in the workspace (channel noise, measurement
//! outliers, probe subset sampling, …) draws from an explicitly seeded RNG.
//! To avoid correlated streams when one master seed fans out into many
//! components, seeds are derived with a SplitMix64 mix of the master seed and
//! a component label hash.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One round of the SplitMix64 output function: a high-quality 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label string, used to separate RNG streams by purpose.
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Derives a child seed from a master seed and a component label.
///
/// Distinct labels produce statistically independent streams; the same
/// `(seed, label)` pair always produces the same stream.
pub fn derive_seed(master: u64, label: &str) -> u64 {
    splitmix64(master ^ fnv1a(label))
}

/// Creates a deterministically seeded [`StdRng`] for a labelled component.
///
/// ```
/// use geom::rng::sub_rng;
/// use rand::Rng;
/// let mut a = sub_rng(42, "channel");
/// let mut b = sub_rng(42, "channel");
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn sub_rng(master: u64, label: &str) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, label))
}

/// Derives a child seed for the `index`-th unit of a labelled stream family.
///
/// This is the per-work-unit variant of [`derive_seed`] used by the parallel
/// evaluation engine: every Monte Carlo unit (a position × sweep × draw cell)
/// gets its own statistically independent stream keyed by `(master, label,
/// index)`, so results do not depend on which thread processes which unit or
/// in what order. The index is folded through a second SplitMix64 round
/// rather than a plain XOR so that consecutive indices land far apart.
pub fn derive_seed_indexed(master: u64, label: &str, index: u64) -> u64 {
    splitmix64(derive_seed(master, label) ^ splitmix64(index))
}

/// Creates the deterministically seeded [`StdRng`] of the `index`-th unit of
/// a labelled stream family (see [`derive_seed_indexed`]).
///
/// ```
/// use geom::rng::sub_rng_indexed;
/// use rand::Rng;
/// let mut a = sub_rng_indexed(42, "fig7-subsets", 9);
/// let mut b = sub_rng_indexed(42, "fig7-subsets", 9);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn sub_rng_indexed(master: u64, label: &str, index: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed_indexed(master, label, index))
}

/// A set of distinct indices out of `0..n`, as drawn by
/// [`sample_index_set`]: one bit per index, inline for `n ≤ 256` (the
/// Talon's 34-sector sweep needs one word), read back in ascending order.
#[derive(Debug, Clone)]
pub struct IndexSet {
    inline: [u64; 4],
    /// The bit words when `n > 256`; empty otherwise.
    spill: Vec<u64>,
}

impl IndexSet {
    /// An empty set over `0..n`.
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        IndexSet {
            inline: [0; 4],
            spill: if words > 4 {
                vec![0; words]
            } else {
                Vec::new()
            },
        }
    }

    fn words(&self) -> &[u64] {
        if self.spill.is_empty() {
            &self.inline
        } else {
            &self.spill
        }
    }

    /// Whether `i` was drawn.
    pub fn contains(&self, i: usize) -> bool {
        self.words()
            .get(i / 64)
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    fn insert(&mut self, i: usize) {
        let words = if self.spill.is_empty() {
            &mut self.inline[..]
        } else {
            &mut self.spill[..]
        };
        words[i / 64] |= 1 << (i % 64);
    }

    /// The drawn indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(k, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    k * 64 + bit
                })
            })
        })
    }
}

/// Draws `m` distinct indices out of `0..n` with Floyd's algorithm: for
/// each `j` in `n − m .. n`, one `gen_range(0..=j)` draw `t`, keeping `t`
/// unless it is already in the set, else `j`. The set is a bitset, so
/// reading it back in ascending order needs no sort.
///
/// # Panics
/// Panics if `m > n`.
pub fn sample_index_set<R: Rng>(rng: &mut R, n: usize, m: usize) -> IndexSet {
    assert!(m <= n, "cannot sample {m} of {n} indices");
    let mut set = IndexSet::new(n);
    for j in (n - m)..n {
        let t = rng.gen_range(0..=j);
        set.insert(if set.contains(t) { j } else { t });
    }
    set
}

/// Samples `m` distinct indices out of `0..n`, in ascending order.
///
/// This is the probe-subset draw of the compressive selection: "we take a
/// random subset of M out of N sectors" (§2.2). Ascending order makes the
/// probing order deterministic given the draw, which keeps sweep transcripts
/// reproducible. See [`sample_index_set`] for the draw itself.
///
/// # Panics
/// Panics if `m > n`.
pub fn sample_indices<R: Rng>(rng: &mut R, n: usize, m: usize) -> Vec<usize> {
    let set = sample_index_set(rng, n, m);
    let mut idx = Vec::with_capacity(m);
    idx.extend(set.iter());
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic_and_label_sensitive() {
        assert_eq!(derive_seed(1, "a"), derive_seed(1, "a"));
        assert_ne!(derive_seed(1, "a"), derive_seed(1, "b"));
        assert_ne!(derive_seed(1, "a"), derive_seed(2, "a"));
    }

    #[test]
    fn sub_rng_streams_differ_by_label() {
        let mut a = sub_rng(7, "x");
        let mut b = sub_rng(7, "y");
        let va: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn indexed_seeds_are_deterministic_and_index_sensitive() {
        assert_eq!(
            derive_seed_indexed(1, "a", 5),
            derive_seed_indexed(1, "a", 5)
        );
        assert_ne!(
            derive_seed_indexed(1, "a", 5),
            derive_seed_indexed(1, "a", 6)
        );
        assert_ne!(
            derive_seed_indexed(1, "a", 5),
            derive_seed_indexed(1, "b", 5)
        );
        // Index 0 is not the plain labelled stream (splitmix64(0) != 0).
        assert_ne!(derive_seed_indexed(1, "a", 0), derive_seed(1, "a"));
    }

    #[test]
    fn sample_indices_properties() {
        let mut rng = sub_rng(3, "sample");
        for _ in 0..50 {
            let s = sample_indices(&mut rng, 34, 14);
            assert_eq!(s.len(), 14);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
            assert!(s.iter().all(|&i| i < 34));
        }
    }

    #[test]
    fn sample_indices_full_set() {
        let mut rng = sub_rng(3, "sample");
        let s = sample_indices(&mut rng, 5, 5);
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    /// Floyd's draw as it read before the bitset: the chosen indices in
    /// draw order, then sorted.
    fn floyd_then_sort<R: Rng>(rng: &mut R, n: usize, m: usize) -> Vec<usize> {
        let mut chosen: Vec<usize> = Vec::with_capacity(m);
        for j in (n - m)..n {
            let t = rng.gen_range(0..=j);
            chosen.push(if chosen.contains(&t) { j } else { t });
        }
        chosen.sort_unstable();
        chosen
    }

    #[test]
    fn bitset_draw_equals_floyd_then_sort() {
        for n in [1usize, 34, 64, 65, 300] {
            for m in [0, 1, n / 2, n] {
                let mut a = sub_rng(n as u64, "floyd");
                let mut b = sub_rng(n as u64, "floyd");
                for draw in 0..50 {
                    let set = sample_index_set(&mut a, n, m);
                    let want = floyd_then_sort(&mut b, n, m);
                    assert_eq!(set.iter().collect::<Vec<_>>(), want, "n={n} m={m} #{draw}");
                    assert!((0..n + 70).all(|i| set.contains(i) == want.contains(&i)));
                }
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "n={n} m={m}: streams agree");
                assert_eq!(sample_indices(&mut a, n, m), floyd_then_sort(&mut b, n, m));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_more_than_n_panics() {
        let mut rng = sub_rng(3, "sample");
        sample_indices(&mut rng, 3, 4);
    }
}
