//! Deterministic pseudo-random numbers for workload generation and
//! Monte-Carlo studies.
//!
//! The workspace is hermetic (no registry dependencies), so the random
//! layer every stochastic check needs — bench workload draws, the §3.2
//! inductance-variation Monte-Carlo, the property-test harness in
//! `rlckit-check` — lives here. The generator is xoshiro256++ seeded
//! through SplitMix64, the combination its authors recommend: nearby
//! integer seeds (`seed`, `seed + 1`, …) still yield statistically
//! independent streams, which is exactly what a per-case property-test
//! seed schedule requires.
//!
//! Everything is deterministic: the same seed always produces the same
//! sequence, on every platform, so any failure can be replayed from its
//! reported seed alone.
//!
//! # Examples
//!
//! ```
//! use rlckit_numeric::rng::Rng;
//!
//! let mut rng = Rng::new(42);
//! let a = rng.uniform(0.0, 5.0);
//! assert!((0.0..5.0).contains(&a));
//!
//! // Same seed, same stream.
//! let b = Rng::new(42).uniform(0.0, 5.0);
//! assert_eq!(a.to_bits(), b.to_bits());
//! ```

/// One step of the SplitMix64 sequence; used to expand a 64-bit seed
/// into the 256-bit xoshiro state.
#[must_use]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ pseudo-random generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
    /// Cached second Box–Muller variate, so `normal` consumes uniforms
    /// in pairs.
    spare_normal: Option<u64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u64; 4];
        for slot in &mut state {
            *slot = splitmix64(&mut sm);
        }
        if state == [0, 0, 0, 0] {
            // xoshiro must never be seeded with the all-zero state.
            state[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self {
            state,
            spare_normal: None,
        }
    }

    /// Returns the next raw 64-bit output of xoshiro256++.
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[must_use]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform draw from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite or `lo > hi`.
    #[must_use]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a uniform index in `[0, n)`.
    ///
    /// Uses Lemire's multiply-shift reduction; the modulo bias is
    /// eliminated by widening to 128 bits, which matters for none of the
    /// workloads here but costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Returns a normal draw with the given mean and standard deviation
    /// (Box–Muller; the paired variate is cached so uniforms are consumed
    /// two draws at a time).
    #[must_use]
    pub fn normal(&mut self, mean: f64, sigma: f64) -> f64 {
        if let Some(bits) = self.spare_normal.take() {
            return mean + sigma * f64::from_bits(bits);
        }
        // Reject u1 == 0 so ln stays finite.
        let u1 = loop {
            let v = self.next_f64();
            if v > 0.0 {
                break v;
            }
        };
        let u2 = self.next_f64();
        let radius = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (2.0 * core::f64::consts::PI * u2).sin_cos();
        self.spare_normal = Some((radius * sin).to_bits());
        mean + sigma * radius * cos
    }

    /// Fills a slice with uniform draws from `[0, 1)`.
    pub fn fill(&mut self, out: &mut [f64]) {
        for v in out {
            *v = self.next_f64();
        }
    }

    /// Derives an independent child generator, advancing this one.
    ///
    /// Useful to hand each parallel worker its own stream from one
    /// master seed.
    #[must_use]
    pub fn split(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // First outputs for seed 0, from the reference implementation.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(0xDEAD_BEEF);
        let mut b = Rng::new(0xDEAD_BEEF);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_interval_is_half_open() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v), "{v} outside [0, 1)");
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Rng::new(11);
        for _ in 0..10_000 {
            let v = rng.uniform(-3.0, 17.5);
            assert!((-3.0..17.5).contains(&v), "{v} outside [-3, 17.5)");
        }
    }

    #[test]
    fn uniform_degenerate_range_is_constant() {
        let mut rng = Rng::new(3);
        assert_eq!(rng.uniform(2.5, 2.5), 2.5);
    }

    #[test]
    fn index_respects_bound_and_covers() {
        let mut rng = Rng::new(5);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.index(7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn normal_moments_at_fixed_seed() {
        let mut rng = Rng::new(0x5EED);
        let n = 40_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let v = rng.normal(2.0, 3.0);
            sum += v;
            sum_sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.3, "variance {var}");
    }

    #[test]
    fn normal_spare_is_deterministic() {
        // Pairs of draws must replay identically across clones.
        let mut a = Rng::new(99);
        let mut b = a.clone();
        for _ in 0..9 {
            assert_eq!(a.normal(0.0, 1.0).to_bits(), b.normal(0.0, 1.0).to_bits());
        }
    }

    #[test]
    fn fill_covers_whole_slice() {
        let mut rng = Rng::new(21);
        let mut buf = [f64::NAN; 33];
        rng.fill(&mut buf);
        assert!(buf.iter().all(|v| (0.0..1.0).contains(v)));
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = Rng::new(1234);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }
}
