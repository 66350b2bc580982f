//! Deterministic random number generation.
//!
//! Every stochastic component in the workspace (weight initialisation,
//! synthetic data generation, dropout-style noise) draws from a
//! [`SeededRng`], a thin wrapper around ChaCha8 that can be forked into
//! independent, reproducible sub-streams.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A reproducible random number generator.
///
/// Wraps [`ChaCha8Rng`] and adds [`SeededRng::fork`], which derives an
/// independent stream from a parent seed and a stream label. Forking lets,
/// e.g., each embedding table or each simulated rank own its own stream so
/// that changing the order in which components are constructed does not
/// perturb the values any single component sees.
#[derive(Debug, Clone)]
pub struct SeededRng {
    inner: ChaCha8Rng,
    seed: u64,
}

impl SeededRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: ChaCha8Rng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent generator for the given stream label.
    ///
    /// The derived seed mixes the parent seed and the label with a
    /// SplitMix64-style finalizer so that nearby labels produce unrelated
    /// streams.
    pub fn fork(&self, stream: u64) -> Self {
        let mixed = splitmix64(self.seed ^ splitmix64(stream.wrapping_add(0x9E37_79B9_7F4A_7C15)));
        Self::new(mixed)
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        self.inner.gen_range(lo..hi)
    }

    /// Standard normal `f32` via Box–Muller.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        // Box–Muller transform. It yields a pair per two uniforms; we use one
        // and regenerate. This *is* on the input hot path (14 of the 41 draws
        // behind every synthetic sample), but caching the spare would change
        // every seeded stream in the repo.
        let u1: f32 = self.inner.gen_range(f32::EPSILON..1.0);
        let u2: f32 = self.inner.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        mean + std * z
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() requires a non-empty range");
        self.inner.gen_range(0..n)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen_range(0.0..1.0)
    }

    /// Bernoulli draw with probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Access the underlying rand RNG for use with `rand` distributions.
    pub fn raw(&mut self) -> &mut ChaCha8Rng {
        &mut self.inner
    }
}

impl RngCore for SeededRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

/// SplitMix64 finalizer used for seed derivation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeededRng::new(42);
        let mut b = SeededRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let parent = SeededRng::new(7);
        let mut f1 = parent.fork(0);
        let mut f1b = parent.fork(0);
        let mut f2 = parent.fork(1);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        // Independent streams should not be identical.
        let mut equal = 0;
        for _ in 0..64 {
            if f1.next_u64() == f2.next_u64() {
                equal += 1;
            }
        }
        assert!(equal < 4);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SeededRng::new(3);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn normal_moments_are_roughly_correct() {
        let mut rng = SeededRng::new(11);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal(1.5, 2.0)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!((mean - 1.5).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = SeededRng::new(5);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.25)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.03, "rate {rate}");
    }

    #[test]
    #[should_panic]
    fn index_empty_panics() {
        let mut rng = SeededRng::new(0);
        let _ = rng.index(0);
    }
}
