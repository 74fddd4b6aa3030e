//! Seeded deterministic random numbers.
//!
//! [`DetRng`] is a xoshiro256** generator seeded through SplitMix64, the
//! standard construction for turning a single `u64` seed into a
//! well-distributed 256-bit state. It exposes exactly the surface the
//! workspace uses: uniform integers over ranges, uniform floats,
//! Bernoulli draws, Fisher–Yates shuffling, sampling without
//! replacement, byte filling (for key material), and Box–Muller
//! gaussians.
//!
//! Two generators built with the same seed produce identical streams on
//! every platform; this is the determinism guarantee the experiment
//! harness (E1–E18) and the property-check harness rely on.

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step — used only to expand seeds into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, deterministic xoshiro256** random number generator.
///
/// ```
/// use medchain_runtime::DetRng;
/// let mut a = DetRng::from_seed(42);
/// let mut b = DetRng::from_seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Builds a generator from a 64-bit seed (SplitMix64-expanded).
    pub fn from_seed(seed: u64) -> DetRng {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro256** state must not be all-zero; SplitMix64 cannot
        // produce four zero outputs in a row, but keep the guard cheap.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        DetRng { s }
    }

    /// Derives an independent child generator; advances this one.
    ///
    /// Useful for handing deterministic sub-streams to parallel workers
    /// without sharing a generator across threads.
    pub fn split(&mut self) -> DetRng {
        DetRng::from_seed(self.next_u64())
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next raw 32-bit output (upper half of [`Self::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes (key material, nonces).
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw of a [`Standard`] type (`rng.gen::<f64>()`).
    pub fn gen<T: Standard>(&mut self) -> T {
        T::standard(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.gen_f64() < p
    }

    /// Uniform value in `range` (half-open `a..b` or inclusive `a..=b`),
    /// over any primitive integer or float type.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Unbiased uniform integer in `[0, span)` via Lemire rejection.
    fn bounded_u64(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut lo = m as u64;
        if lo < span {
            let threshold = span.wrapping_neg() % span;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Samples `n` distinct elements without replacement (partial
    /// Fisher–Yates over indices); returns fewer if the slice is short.
    /// Order of the sample is random.
    pub fn sample<T: Clone>(&mut self, slice: &[T], n: usize) -> Vec<T> {
        let n = n.min(slice.len());
        let mut indices: Vec<usize> = (0..slice.len()).collect();
        for i in 0..n {
            let j = i + self.bounded_u64((indices.len() - i) as u64) as usize;
            indices.swap(i, j);
        }
        indices[..n].iter().map(|&i| slice[i].clone()).collect()
    }

    /// Gaussian draw via Box–Muller.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        let u1 = loop {
            let u = self.gen_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.gen_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + sd * z
    }
}

/// Types with a canonical "uniform" distribution for [`DetRng::gen`].
pub trait Standard {
    /// Draws one uniform value.
    fn standard(rng: &mut DetRng) -> Self;
}

impl Standard for f64 {
    fn standard(rng: &mut DetRng) -> f64 {
        rng.gen_f64()
    }
}

impl Standard for f32 {
    fn standard(rng: &mut DetRng) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u64 {
    fn standard(rng: &mut DetRng) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn standard(rng: &mut DetRng) -> u32 {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn standard(rng: &mut DetRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`DetRng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut DetRng) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty => $u:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut DetRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = self.end.wrapping_sub(self.start) as $u as u64;
                self.start.wrapping_add(rng.bounded_u64(span) as $u as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut DetRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = end.wrapping_sub(start) as $u as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $u as $t;
                }
                start.wrapping_add(rng.bounded_u64(span + 1) as $u as $t)
            }
        }
    )*};
}

int_sample_range! {
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize,
}

macro_rules! float_sample_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut DetRng) -> $t {
                assert!(
                    self.start < self.end && self.start.is_finite() && self.end.is_finite(),
                    "gen_range: empty or non-finite float range"
                );
                let v = self.start + (rng.gen_f64() as $t) * (self.end - self.start);
                // Guard the half-open upper bound against rounding.
                if v >= self.end { self.start } else { v }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut DetRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(
                    start <= end && start.is_finite() && end.is_finite(),
                    "gen_range: empty or non-finite float range"
                );
                start + (rng.gen_f64() as $t) * (end - start)
            }
        }
    )*};
}

float_sample_range!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = DetRng::from_seed(7);
        let mut b = DetRng::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::from_seed(1);
        let mut b = DetRng::from_seed(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = DetRng::from_seed(3);
        for _ in 0..1_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&f));
            let x = rng.gen_range(0usize..1);
            assert_eq!(x, 0);
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = DetRng::from_seed(11);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[rng.gen_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    fn gen_bool_edges() {
        let mut rng = DetRng::from_seed(5);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "{hits}");
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        DetRng::from_seed(9).shuffle(&mut a);
        DetRng::from_seed(9).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_without_replacement() {
        let mut rng = DetRng::from_seed(13);
        let pool: Vec<u32> = (0..100).collect();
        let picked = rng.sample(&pool, 10);
        assert_eq!(picked.len(), 10);
        let mut dedup = picked.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn normal_moments() {
        let mut rng = DetRng::from_seed(21);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn fill_bytes_deterministic_and_covering() {
        let mut buf1 = [0u8; 37];
        let mut buf2 = [0u8; 37];
        DetRng::from_seed(4).fill_bytes(&mut buf1);
        DetRng::from_seed(4).fill_bytes(&mut buf2);
        assert_eq!(buf1, buf2);
        assert!(buf1.iter().any(|&b| b != 0));
    }
}
