//! Offline stand-in for the `rand` crate (0.9-style method names).
//!
//! Provides the deterministic subset `h2h-model`'s synthetic generator
//! uses: a seedable RNG plus `random_bool` / `random_range`. The
//! underlying generator is SplitMix64 — statistically fine for model
//! synthesis, deterministic per seed (the only property tests rely on).

use std::ops::{Range, RangeInclusive};

/// RNG implementations.
pub mod rngs {
    /// The standard (shim) RNG: SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        pub(crate) state: u64,
    }
}

use rngs::StdRng;

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds the RNG from `seed`; equal seeds yield equal streams.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        StdRng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }
}

/// Sampling interface.
pub trait Rng {
    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// A uniform draw in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// A uniform draw from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        // SplitMix64.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Ranges a value of type `T` can be drawn from.
pub trait SampleRange<T> {
    /// Draws one value.
    fn sample<R: Rng>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64 + 1;
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

int_range!(u16, u32, u64, usize);

macro_rules! signed_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i64 - self.start as i64) as u64;
                (self.start as i64 + (rng.next_u64() % span) as i64) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i64 - lo as i64) as u64 + 1;
                (lo as i64 + (rng.next_u64() % span) as i64) as $t
            }
        }
    )*};
}

signed_range!(i32, i64);

impl SampleRange<f64> for Range<f64> {
    fn sample<R: Rng>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed_and_in_range() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = r.random_range(3u32..=7);
            assert!((3..=7).contains(&x));
            let y = r.random_range(10usize..20);
            assert!((10..20).contains(&y));
            let f = r.random_range(0.5f64..2.0);
            assert!((0.5..2.0).contains(&f));
        }
        let mut heads = 0;
        for _ in 0..1000 {
            if r.random_bool(0.5) {
                heads += 1;
            }
        }
        assert!((300..700).contains(&heads));
    }
}
