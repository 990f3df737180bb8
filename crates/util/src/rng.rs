//! Deterministic pseudo-random number generation.
//!
//! The workspace needs bit-for-bit reproducible experiments across
//! crate-version bumps, so instead of relying on `rand`'s unspecified
//! `StdRng` algorithm we implement **xoshiro256++** (Blackman &
//! Vigna), seeded through SplitMix64 as its authors recommend.
//!
//! [`Prng`] additionally offers Gaussian deviates via the polar
//! Box–Muller transform, Fisher–Yates shuffling, and *stream
//! splitting*: deriving statistically independent child generators so
//! distributed workers can draw from per-rank streams that do not
//! depend on the number of ranks.

/// SplitMix64 step; used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
///
/// Cloning a `Prng` yields an identical stream; use [`Prng::split`]
/// for independent streams.
#[derive(Clone, Debug)]
pub struct Prng {
    s: [u64; 4],
    /// Cached second Gaussian deviate from the last Box–Muller draw.
    spare_normal: Option<f64>,
}

impl Prng {
    /// Create a generator from a 64-bit seed.
    ///
    /// Any seed is valid, including zero (SplitMix64 expansion never
    /// produces the all-zero xoshiro state).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prng {
            s,
            spare_normal: None,
        }
    }

    /// Derive an independent child generator for `stream`.
    ///
    /// The mapping `(seed, stream) -> child state` is injective in
    /// practice: the child is seeded from a hash of the parent state
    /// and the stream index, so `split(0)`, `split(1)`, … are
    /// decorrelated and stable regardless of how much the parent has
    /// been used before splitting.
    pub fn split(&self, stream: u64) -> Prng {
        let mut sm =
            self.s[0] ^ self.s[2].rotate_left(17) ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prng {
            s,
            spare_normal: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256++ scrambler).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
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
        result
    }

    /// Uniform `u32`.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    fn uniform_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is
    /// unbiased and avoids the modulo.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Prng::below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal deviate (mean 0, stddev 1) via polar Box–Muller.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.spare_normal = Some(v * factor);
                return u * factor;
            }
        }
    }

    /// Normal deviate with the given mean and standard deviation.
    #[inline]
    fn normal_with(&mut self, mean: f64, stddev: f64) -> f64 {
        mean + stddev * self.normal()
    }

    /// Log-normal deviate: `exp(N(mu, sigma))`.
    #[inline]
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal_with(mu, sigma).exp()
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (order unspecified but
    /// deterministic). Panics if `k > n`.
    ///
    /// Uses Floyd's algorithm: O(k) expected work regardless of `n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices: k={k} > n={n}");
        let mut chosen = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.index(j + 1);
            let pick = if chosen.contains(&t) { j } else { t };
            chosen.insert(pick);
            out.push(pick);
        }
        out
    }

    /// Fill a slice with standard-normal `f32` values scaled by `scale`.
    pub fn fill_normal_f32(&mut self, out: &mut [f32], scale: f32) {
        for v in out.iter_mut() {
            *v = self.normal() as f32 * scale;
        }
    }

    /// Fill a slice with uniform `f32` values in `[lo, hi)`.
    pub fn fill_uniform_f32(&mut self, out: &mut [f32], lo: f32, hi: f32) {
        for v in out.iter_mut() {
            *v = lo + (hi - lo) * self.uniform_f32();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Prng::new(1);
        let mut b = Prng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Prng::new(0);
        let mut seen_nonzero = false;
        for _ in 0..16 {
            if r.next_u64() != 0 {
                seen_nonzero = true;
            }
        }
        assert!(seen_nonzero);
    }

    #[test]
    fn split_streams_are_independent_and_stable() {
        let parent = Prng::new(7);
        let mut c0 = parent.split(0);
        let mut c1 = parent.split(1);
        let mut c0_again = parent.split(0);
        assert_eq!(c0.next_u64(), c0_again.next_u64());
        let matches = (0..64).filter(|_| c0.next_u64() == c1.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Prng::new(3);
        for _ in 0..10_000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = Prng::new(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = Prng::new(11);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "Prng::below(0)")]
    fn below_zero_panics() {
        Prng::new(0).below(0);
    }

    #[test]
    fn normal_moments() {
        let mut r = Prng::new(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn normal_with_scales() {
        let mut r = Prng::new(6);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal_with(3.0, 0.5)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Prng::new(8);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_handles_degenerate_lengths() {
        let mut r = Prng::new(8);
        let mut empty: [u8; 0] = [];
        r.shuffle(&mut empty);
        let mut one = [42u8];
        r.shuffle(&mut one);
        assert_eq!(one, [42]);
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = Prng::new(10);
        for _ in 0..50 {
            let idx = r.sample_indices(100, 13);
            assert_eq!(idx.len(), 13);
            let set: std::collections::HashSet<_> = idx.iter().collect();
            assert_eq!(set.len(), 13);
            assert!(idx.iter().all(|&i| i < 100));
        }
    }

    #[test]
    fn sample_indices_full_population() {
        let mut r = Prng::new(10);
        let mut idx = r.sample_indices(8, 8);
        idx.sort_unstable();
        assert_eq!(idx, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn log_normal_is_positive() {
        let mut r = Prng::new(12);
        for _ in 0..1000 {
            assert!(r.log_normal(1.0, 0.8) > 0.0);
        }
    }

    #[test]
    fn fill_normal_f32_fills_everything() {
        let mut r = Prng::new(13);
        let mut buf = vec![0.0f32; 1024];
        r.fill_normal_f32(&mut buf, 0.1);
        assert!(buf.iter().any(|&x| x != 0.0));
        let rms = (buf.iter().map(|&x| (x as f64).powi(2)).sum::<f64>() / 1024.0).sqrt();
        assert!((rms - 0.1).abs() < 0.02, "rms={rms}");
    }
}
