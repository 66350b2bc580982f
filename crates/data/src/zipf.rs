//! Zipf (power-law) sampling over category indices.
//!
//! The paper's compression gains hinge on the "unbalanced queries"
//! phenomenon: a handful of categories account for most lookups, so a batch
//! of embedding lookups contains many repeated vectors. A Zipf distribution
//! with exponent `s` over `n` categories is the standard model for this.

use dlrm_tensor::SeededRng;

/// A Zipf distribution over `{0, 1, …, n-1}` with exponent `s`.
///
/// Sampling inverts an explicit cumulative distribution table: O(n) memory
/// at construction, and per sample a binary search confined by a guide
/// table to the few entries one of `K` equal slices of `[0, 1)` can land on
/// — O(1) on average, and a few cache lines instead of a walk over the
/// whole table. Category `k` has unnormalised weight `1 / (k+1)^s`, so
/// index 0 is the hottest category. `s = 0` degenerates to the uniform
/// distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first index whose `cdf` value is `>= j / K`, for
    /// `j` in `0..=K` with `K = guide.len() - 1` a power of two.
    guide: Vec<u32>,
    n: usize,
    s: f64,
}

/// Most slices a guide table cuts `[0, 1)` into (64 KiB of `u32` per table).
const MAX_GUIDE_SLICES: usize = 1 << 14;

impl Zipf {
    /// Build the distribution.
    ///
    /// # Panics
    /// Panics if `n == 0`, `n` does not fit a `u32`, or `s` is
    /// negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one category");
        assert!(
            u32::try_from(n).is_ok(),
            "Zipf indexes categories with u32, got {n} of them"
        );
        assert!(
            s >= 0.0 && s.is_finite(),
            "Zipf exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in cdf.iter_mut() {
            *v /= total;
        }
        // Guard against floating point drift: the last entry must be exactly 1.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        // `j / K` is exact (K is a power of two) and never exceeds the last
        // entry, so the sweep stays in bounds.
        let slices = n.next_power_of_two().min(MAX_GUIDE_SLICES);
        let mut guide = Vec::with_capacity(slices + 1);
        let mut first = 0usize;
        for j in 0..=slices {
            let edge = j as f64 / slices as f64;
            while cdf[first] < edge {
                first += 1;
            }
            guide.push(first as u32);
        }
        Self { cdf, guide, n, s }
    }

    /// Number of categories.
    pub fn categories(&self) -> usize {
        self.n
    }

    /// The exponent this distribution was built with.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Draw one category index.
    pub fn sample(&self, rng: &mut SeededRng) -> usize {
        self.index_of(rng.unit())
    }

    /// The first index whose `cdf` value is `>= u`, for `u` in `[0, 1)`.
    ///
    /// With `j = ⌊u·K⌋` (exact: `K` is a power of two) `j/K <= u < (j+1)/K`,
    /// so that index can lie neither before `guide[j]` (every earlier entry
    /// is `< j/K <= u`) nor after `guide[j+1]` (whose entry is
    /// `>= (j+1)/K > u`): searching `cdf[guide[j]..=guide[j+1]]` returns
    /// exactly what searching the whole table would.
    pub(crate) fn index_of(&self, u: f64) -> usize {
        let slices = self.guide.len() - 1;
        let j = (u * slices as f64) as usize;
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        lo + self.cdf[lo..=hi].partition_point(|&c| c < u)
    }

    /// [`Zipf::index_of`] as a search of the whole table — the sampler
    /// before the guide table, kept as the tests' reference.
    #[cfg(test)]
    fn reference_index_of(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.n - 1)
    }

    /// Draw `count` category indices.
    pub fn sample_many(&self, count: usize, rng: &mut SeededRng) -> Vec<usize> {
        (0..count).map(|_| self.sample(rng)).collect()
    }

    /// Probability mass of category `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        assert!(k < self.n);
        let prev = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        self.cdf[k] - prev
    }

    /// Expected number of distinct categories among `draws` independent
    /// samples: `Σ_k 1 − (1 − p_k)^draws`, one pass over the cumulative
    /// table (no `powf`). The powers are taken by binary exponentiation on
    /// eight categories at a time, so the loop vectorises.
    pub fn expected_distinct(&self, draws: usize) -> f64 {
        const LANES: usize = 8;
        let mut prev = 0.0f64;
        let mut sum = 0.0f64;
        for chunk in self.cdf.chunks(LANES) {
            // `base[i]` starts at category i's miss probability `1 − p`.
            let mut base = [1.0f64; LANES];
            for (b, &c) in base.iter_mut().zip(chunk) {
                *b = 1.0 - (c - prev);
                prev = c;
            }
            let mut miss = [1.0f64; LANES];
            let mut e = draws;
            while e > 0 {
                if e & 1 == 1 {
                    miss.iter_mut().zip(&base).for_each(|(m, b)| *m *= b);
                }
                base.iter_mut().for_each(|b| *b *= *b);
                e >>= 1;
            }
            for m in &miss[..chunk.len()] {
                sum += 1.0 - m;
            }
        }
        sum
    }

    /// Expected fraction of a batch covered by the `top` hottest categories.
    pub fn head_mass(&self, top: usize) -> f64 {
        if top == 0 {
            0.0
        } else {
            self.cdf[top.min(self.n) - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The neighbours of `u` worth probing: itself and the adjacent floats,
    /// kept inside the sampler's `[0, 1)` domain.
    fn around(u: f64) -> impl Iterator<Item = f64> {
        [
            f64::from_bits(u.to_bits().saturating_sub(1)),
            u,
            f64::from_bits(u.to_bits() + 1),
        ]
        .into_iter()
        .filter(|v| (0.0..1.0).contains(v))
    }

    fn assert_guided_is_reference(z: &Zipf, u: f64) {
        assert_eq!(
            z.index_of(u),
            z.reference_index_of(u),
            "n = {}, s = {}, u = {u:?} (bits {:#x})",
            z.n,
            z.s,
            u.to_bits()
        );
    }

    #[test]
    fn guided_search_is_the_reference_at_every_edge() {
        for n in [1, 2, 3, 7, 64, 1000, (1 << 14) + 1, 174_000] {
            for s in [0.0, 0.7, 1.6] {
                let z = Zipf::new(n, s);
                let slices = z.guide.len() - 1;
                assert_eq!(slices, n.next_power_of_two().min(MAX_GUIDE_SLICES));
                // u = 0 and the largest f64 below 1.
                assert_guided_is_reference(&z, 0.0);
                assert_guided_is_reference(&z, 1.0 - f64::EPSILON / 2.0);
                // u exactly on (and one float either side of) every slice
                // edge and every table entry.
                let edges = (0..slices).map(|j| j as f64 / slices as f64);
                for u in edges.chain(z.cdf.iter().copied()).flat_map(around) {
                    assert_guided_is_reference(&z, u);
                }
            }
        }
    }

    /// `1, 2, 3, 7, 174 000` and `2^k - 1, 2^k, 2^k + 1` on both sides of
    /// the guide table's size cap.
    fn category_counts() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(1usize),
            Just(2usize),
            Just(3usize),
            Just(7usize),
            Just(174_000usize),
            (1u32..=17, 0usize..3).prop_map(|(k, d)| (1usize << k) + d - 1),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn guided_sample_is_the_reference_sample(
            n in category_counts(),
            s in prop_oneof![Just(0.0f64), Just(0.7f64), Just(1.6f64)],
            seed in any::<u64>(),
        ) {
            let z = Zipf::new(n, s);
            // Two copies of one stream: the sampler consumes one, the
            // reference reads the same `u` from the other.
            let mut rng = SeededRng::new(seed);
            let mut twin = rng.clone();
            for draw in 0..4_000 {
                let u = twin.unit();
                prop_assert_eq!(
                    z.sample(&mut rng),
                    z.reference_index_of(u),
                    "n = {}, s = {}, seed = {}, draw {}: u = {:?}",
                    n, s, seed, draw, u
                );
            }
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 1.2);
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn higher_exponent_concentrates_head() {
        let flat = Zipf::new(1000, 0.5);
        let steep = Zipf::new(1000, 1.5);
        assert!(steep.head_mass(10) > flat.head_mass(10));
    }

    #[test]
    fn samples_respect_range_and_skew() {
        let z = Zipf::new(50, 1.3);
        let mut rng = SeededRng::new(17);
        let samples = z.sample_many(20_000, &mut rng);
        assert!(samples.iter().all(|&s| s < 50));
        let zero_freq = samples.iter().filter(|&&s| s == 0).count() as f64 / 20_000.0;
        assert!(
            (zero_freq - z.pmf(0)).abs() < 0.02,
            "empirical {zero_freq} vs pmf {}",
            z.pmf(0)
        );
        // Hot category must dominate a cold one.
        let cold_freq = samples.iter().filter(|&&s| s == 49).count();
        assert!(samples.iter().filter(|&&s| s == 0).count() > cold_freq * 5);
    }

    #[test]
    fn expected_distinct_is_exact_on_closed_forms() {
        // One category: every draw hits it.
        for m in [0, 1, 7, 128] {
            let expected = if m == 0 { 0.0 } else { 1.0 };
            assert_eq!(Zipf::new(1, 1.3).expected_distinct(m), expected);
        }
        // Uniform: n·(1 − (1 − 1/n)^m).
        for n in [2usize, 9, 1000, 174_000] {
            for m in [1usize, 128, 2048] {
                let closed = n as f64 * (1.0 - (1.0 - 1.0 / n as f64).powi(m as i32));
                let got = Zipf::new(n, 0.0).expected_distinct(m);
                assert!(
                    (got - closed).abs() <= 1e-9 * closed,
                    "n = {n}, m = {m}: {got} vs {closed}"
                );
            }
        }
    }

    #[test]
    fn expected_distinct_grows_with_draws_and_stays_in_range() {
        let z = Zipf::new(5_000, 0.9);
        let mut last = 0.0;
        for m in [1, 2, 16, 128, 1024] {
            let d = z.expected_distinct(m);
            assert!(d > last && d <= m as f64 + 1e-9, "m = {m}: {d}");
            last = d;
        }
    }

    #[test]
    fn single_category_always_zero() {
        let z = Zipf::new(1, 2.0);
        let mut rng = SeededRng::new(1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic]
    fn zero_categories_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
