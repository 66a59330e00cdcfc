//! Offline stand-in for the `rand` crate.
//!
//! The build environment for this workspace has no access to crates.io, so
//! every external dependency is replaced by a local shim that implements the
//! exact API surface the workspace uses (see `crates/shims/README.md`). This
//! one covers `rand` 0.8: the [`Rng`] / [`SeedableRng`] traits and
//! [`rngs::StdRng`], backed by a xoshiro256++ generator seeded with
//! SplitMix64 (the probe-subset draw is `geom::rng::sample_indices`).
//! Determinism contract: the same seed always produces the same stream (the
//! workspace's reproducibility relies on it), but streams are NOT
//! bit-compatible with upstream `rand`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of 64-bit randomness.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from an [`RngCore`] ("Standard"
/// distribution in upstream terms).
pub trait StandardSample: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl StandardSample for u16 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl StandardSample for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl StandardSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// A range that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased draw from `0..=span_minus_one` via 128-bit multiply scaling.
fn scale_u64(raw: u64, span: u64) -> u64 {
    ((raw as u128 * span as u128) >> 64) as u64
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + scale_u64(rng.next_u64(), span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + scale_u64(rng.next_u64(), span as u64) as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let u = <$t as StandardSample>::sample(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let u = <$t as StandardSample>::sample(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// The user-facing randomness trait (blanket-implemented for every
/// [`RngCore`], mirroring upstream).
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value.
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws a value from `range`.
    fn gen_range<T, Ra: SampleRange<T>>(&mut self, range: Ra) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool needs p in [0, 1]");
        <f64 as StandardSample>::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Constructing generators from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// One round of the SplitMix64 output function.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Concrete generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman/Vigna),
    /// seeded via SplitMix64 like the reference implementation recommends.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            // xoshiro must not start from the all-zero state; SplitMix64
            // never yields four zeros in a row, but be defensive.
            if s.iter().all(|&w| w == 0) {
                return StdRng { s: [1, 2, 3, 4] };
            }
            StdRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn determinism_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
        let mut c = StdRng::seed_from_u64(8);
        let vc: Vec<u64> = (0..8).map(|_| c.gen()).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn unit_float_is_in_range() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = r.gen_range(3..17u32);
            assert!((3..17).contains(&x));
            let y = r.gen_range(-4..=4i64);
            assert!((-4..=4).contains(&y));
            let z = r.gen_range(-2.5..7.5f64);
            assert!((-2.5..7.5).contains(&z));
        }
    }

    #[test]
    fn gen_range_hits_every_value() {
        let mut r = StdRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[r.gen_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(4);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((20_000..30_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn works_through_mut_references() {
        fn takes_rng<R: Rng>(rng: &mut R) -> u64 {
            rng.gen()
        }
        let mut r = StdRng::seed_from_u64(6);
        let _ = takes_rng(&mut r);
        let _ = takes_rng(&mut &mut r);
    }
}
