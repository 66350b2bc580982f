//! Synthetic Criteo-like mini-batch generator.
//!
//! [`SyntheticCriteo`] produces [`MiniBatch`]es whose categorical lookups
//! follow each table's Zipf query distribution and whose labels come from a
//! *hidden ground-truth model*, so a DLRM trained on this stream genuinely
//! learns (loss decreases, accuracy rises above the majority-class rate).
//! That is what makes the paper's accuracy comparisons (compressed vs
//! uncompressed training, Figures 8–10) meaningful on synthetic data.

use crate::batch::{shard_sizes, MiniBatch};
use crate::config::DatasetConfig;
use crate::zipf::Zipf;
use dlrm_tensor::{Matrix, SeededRng};

/// Streaming generator of synthetic DLRM training data.
///
/// The generator is deterministic for a given `(config, seed)` pair and can
/// be cloned to replay the same stream (e.g. to train a baseline and a
/// compressed run on identical batches).
#[derive(Debug, Clone)]
pub struct SyntheticCriteo {
    config: DatasetConfig,
    queries: Vec<Zipf>,
    /// Post-drift query distributions, built lazily the first time a batch
    /// falls past the drift's `start_batch` (`None` until then, and forever
    /// when the dataset has no drift or a pure-rotation drift).
    drifted_queries: Option<Vec<Zipf>>,
    /// Hidden per-table, per-category-bucket logit contributions.
    table_weights: Vec<Vec<f32>>,
    /// Hidden weights on the dense features.
    dense_weights: Vec<f32>,
    /// Bias chosen so the positive rate lands in a CTR-like range.
    bias: f32,
    rng: SeededRng,
    samples_drawn: u64,
    batches_drawn: u64,
}

/// Number of hash buckets the hidden labeler uses per table. Keeping this
/// small (and independent of cardinality) means the label signal depends on
/// coarse category groups, which a low-dimensional embedding can learn.
const LABEL_BUCKETS: usize = 16;

impl SyntheticCriteo {
    /// Create a generator for `config`, seeded by `seed`.
    pub fn new(config: DatasetConfig, seed: u64) -> Self {
        config.validate().expect("invalid dataset config");
        let root = SeededRng::new(seed);
        let mut label_rng = SeededRng::new(config.label_seed);
        let queries = config
            .tables
            .iter()
            .map(|t| Zipf::new(t.cardinality, t.zipf_exponent))
            .collect();
        let table_weights = config
            .tables
            .iter()
            .map(|_| {
                (0..LABEL_BUCKETS)
                    .map(|_| label_rng.normal(0.0, 0.35))
                    .collect()
            })
            .collect();
        let dense_weights = (0..config.num_dense)
            .map(|_| label_rng.normal(0.0, 0.5))
            .collect();
        Self {
            rng: root.fork(1),
            config,
            queries,
            drifted_queries: None,
            table_weights,
            dense_weights,
            bias: -0.8,
            samples_drawn: 0,
            batches_drawn: 0,
        }
    }

    /// The dataset configuration this generator was built from.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// Total number of samples generated so far.
    pub fn samples_drawn(&self) -> u64 {
        self.samples_drawn
    }

    /// Number of batches generated so far (the drift clock).
    pub fn batches_drawn(&self) -> u64 {
        self.batches_drawn
    }

    /// Generate the next mini-batch of `batch_size` samples.
    ///
    /// With [`DatasetConfig::drift`] set, batches past the drift's
    /// `start_batch` sample from the shifted Zipf distributions and rotate
    /// the hot set; without drift the stream is bit-identical to the
    /// drift-less generator.
    pub fn next_batch(&mut self, batch_size: usize) -> MiniBatch {
        let mut shards = Vec::with_capacity(1);
        self.next_batch_into(batch_size, 1, &mut shards);
        shards.pop().expect("one part was requested")
    }

    /// Generate the next mini-batch of `batch_size` samples directly as its
    /// `parts` contiguous shards — `shards` ends up equal to
    /// `self.next_batch(batch_size).shard(parts)` — reusing whatever storage
    /// `shards` already holds: once it has carried a batch of this shape, a
    /// further call performs no heap allocation.
    pub fn next_batch_into(
        &mut self,
        batch_size: usize,
        parts: usize,
        shards: &mut Vec<MiniBatch>,
    ) {
        assert!(batch_size > 0, "batch size must be positive");
        let num_dense = self.config.num_dense;
        let num_tables = self.config.num_tables();

        // Resolve the drift state of this batch before any sampling: the
        // active query distributions and the hot-set rotation offset.
        let batch_index = self.batches_drawn as usize;
        let drift = self.config.drift.filter(|d| d.active_at(batch_index));
        if let Some(d) = drift {
            if d.exponent_shift != 0.0 && self.drifted_queries.is_none() {
                self.drifted_queries = Some(
                    self.config
                        .tables
                        .iter()
                        .map(|t| {
                            Zipf::new(
                                t.cardinality,
                                (t.zipf_exponent + d.exponent_shift).clamp(0.0, 5.0),
                            )
                        })
                        .collect(),
                );
            }
        }
        let queries = match (&drift, &self.drifted_queries) {
            (Some(d), Some(shifted)) if d.exponent_shift != 0.0 => shifted,
            _ => &self.queries,
        };
        let rotation_steps = drift.map_or(0, |d| d.rotation_steps(batch_index));

        shards.resize_with(parts, MiniBatch::default);
        // Samples are drawn in global order, shard after shard, so the
        // stream does not depend on `parts`.
        for (shard, len) in shards.iter_mut().zip(shard_sizes(batch_size, parts)) {
            let mut dense = std::mem::take(&mut shard.dense).into_vec();
            dense.clear();
            dense.resize(len * num_dense, 0.0);
            shard.dense = Matrix::from_vec(len, num_dense, dense);
            shard.sparse.resize_with(num_tables, Vec::new);
            shard.sparse.iter_mut().for_each(Vec::clear);
            shard.labels.clear();

            for i in 0..len {
                // Dense features: log-normal-ish positive values, standardised
                // the way the DLRM reference preprocesses Criteo (log(1+x)).
                let mut logit = self.bias;
                for (v, w) in shard.dense.row_mut(i).iter_mut().zip(&self.dense_weights) {
                    let raw = self.rng.normal(0.0, 1.0).abs() * 3.0;
                    *v = (1.0 + raw).ln();
                    logit += w * *v;
                }
                // Categorical features. Hot-set rotation re-maps the sampled
                // rank onto a rotated category identity, so which categories
                // are hot (and therefore which vectors repeat, and which label
                // buckets fire) churns over the run.
                for (t, zipf) in queries.iter().enumerate() {
                    let mut cat = zipf.sample(&mut self.rng);
                    if rotation_steps > 0 {
                        let card = self.config.tables[t].cardinality;
                        let stride = (card / 8).max(1);
                        cat = (cat + rotation_steps * stride) % card;
                    }
                    shard.sparse[t].push(cat as u32);
                    let bucket = bucket_of(t, cat);
                    logit += self.table_weights[t][bucket];
                }
                // Label noise keeps the task from being perfectly separable.
                let noise = self.rng.normal(0.0, 0.5);
                let p = sigmoid(logit + noise);
                shard.labels.push(if self.rng.bernoulli(p as f64) {
                    1.0
                } else {
                    0.0
                });
            }
            debug_assert!(shard.validate().is_ok());
        }
        self.samples_drawn += batch_size as u64;
        self.batches_drawn += 1;
    }

    /// Generate `count` batches of the dataset's default batch size.
    pub fn batches(&mut self, count: usize) -> Vec<MiniBatch> {
        let bs = self.config.default_batch_size;
        (0..count).map(|_| self.next_batch(bs)).collect()
    }
}

/// Deterministic mapping of (table, category) to one of the hidden label
/// buckets. A multiplicative hash keeps adjacent categories in different
/// buckets.
fn bucket_of(table: usize, category: usize) -> usize {
    let x = (category as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(table as u64);
    ((x >> 33) % LABEL_BUCKETS as u64) as usize
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn batches_have_requested_shape() {
        let cfg = presets::tiny();
        let mut g = SyntheticCriteo::new(cfg.clone(), 1);
        let b = g.next_batch(20);
        assert_eq!(b.batch_size(), 20);
        assert_eq!(b.num_tables(), cfg.num_tables());
        assert_eq!(b.dense.rows(), 20);
        assert_eq!(b.dense.cols(), cfg.num_dense);
        assert!(b.validate().is_ok());
        assert_eq!(g.samples_drawn(), 20);
    }

    #[test]
    fn category_indices_stay_in_range() {
        let cfg = presets::tiny();
        let mut g = SyntheticCriteo::new(cfg.clone(), 2);
        let b = g.next_batch(256);
        for (t, col) in b.sparse.iter().enumerate() {
            let card = cfg.tables[t].cardinality as u32;
            assert!(col.iter().all(|&c| c < card), "table {t} out of range");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let cfg = presets::tiny();
        let mut a = SyntheticCriteo::new(cfg.clone(), 7);
        let mut b = SyntheticCriteo::new(cfg, 7);
        assert_eq!(a.next_batch(64), b.next_batch(64));
    }

    #[test]
    fn different_seed_different_stream() {
        let cfg = presets::tiny();
        let mut a = SyntheticCriteo::new(cfg.clone(), 7);
        let mut b = SyntheticCriteo::new(cfg, 8);
        assert_ne!(a.next_batch(64), b.next_batch(64));
    }

    #[test]
    fn positive_rate_is_ctr_like() {
        let cfg = presets::tiny();
        let mut g = SyntheticCriteo::new(cfg, 3);
        let b = g.next_batch(4000);
        let rate = b.positive_rate();
        assert!(
            (0.1..0.6).contains(&rate),
            "positive rate {rate} outside CTR-like range"
        );
    }

    #[test]
    fn labels_are_learnable_from_categories() {
        // The hidden labeler must create real signal: the positive rate
        // conditioned on the hottest category of a skewed table should differ
        // from the global rate for at least one table/bucket. A weak sanity
        // check that training has something to learn.
        let cfg = presets::tiny();
        let mut g = SyntheticCriteo::new(cfg.clone(), 5);
        let b = g.next_batch(6000);
        let global = b.positive_rate();
        let mut max_gap = 0.0f64;
        for t in 0..cfg.num_tables() {
            let mask: Vec<bool> = b.sparse[t].iter().map(|&c| c == 0).collect();
            let n = mask.iter().filter(|&&m| m).count();
            if n < 50 {
                continue;
            }
            let pos = b
                .labels
                .iter()
                .zip(mask.iter())
                .filter(|(_, &m)| m)
                .filter(|(&y, _)| y >= 0.5)
                .count();
            let rate = pos as f64 / n as f64;
            max_gap = max_gap.max((rate - global).abs());
        }
        assert!(
            max_gap > 0.02,
            "no conditional signal found (gap {max_gap})"
        );
    }

    #[test]
    fn drifting_stream_matches_stationary_until_start_batch() {
        use crate::config::TrafficDrift;
        let cfg = presets::tiny();
        let drifted_cfg = cfg.clone().with_drift(TrafficDrift {
            start_batch: 3,
            exponent_shift: 1.0,
            hot_rotation_every: 2,
        });
        let mut stationary = SyntheticCriteo::new(cfg, 21);
        let mut drifting = SyntheticCriteo::new(drifted_cfg, 21);
        for b in 0..3 {
            assert_eq!(
                stationary.next_batch(64),
                drifting.next_batch(64),
                "batch {b} diverged before the drift began"
            );
        }
        // Once the drift starts the streams part ways.
        assert_ne!(stationary.next_batch(512), drifting.next_batch(512));
        assert_eq!(drifting.batches_drawn(), 4);
    }

    #[test]
    fn exponent_shift_concentrates_queries() {
        use crate::config::TrafficDrift;
        // A strong positive shift must make the hot category dominate far
        // more after the drift than before — the repetition structure (and
        // therefore table homogenization) genuinely moves mid-run.
        let cfg = presets::tiny().with_drift(TrafficDrift::exponent_shift(1, 2.0));
        let mut g = SyntheticCriteo::new(cfg, 13);
        let before = g.next_batch(2000);
        let after = g.next_batch(2000);
        // Table 0 (cardinality 7, mild base skew): count the modal category.
        let modal = |b: &MiniBatch| {
            let mut counts = [0usize; 16];
            for &c in &b.sparse[0] {
                counts[c as usize % 16] += 1;
            }
            counts.iter().copied().max().unwrap()
        };
        assert!(
            modal(&after) > modal(&before) + 200,
            "repetition did not increase: {} -> {}",
            modal(&before),
            modal(&after)
        );
    }

    #[test]
    fn hot_rotation_moves_the_modal_category() {
        use crate::config::TrafficDrift;
        let cfg = presets::tiny().with_drift(TrafficDrift::hot_rotation(0, 1));
        let mut g = SyntheticCriteo::new(cfg.clone(), 29);
        let modal = |b: &MiniBatch, t: usize| {
            let mut counts = std::collections::HashMap::new();
            for &c in &b.sparse[t] {
                *counts.entry(c).or_insert(0usize) += 1;
            }
            counts.into_iter().max_by_key(|&(_, n)| n).unwrap().0
        };
        // Pick a table with real skew so the mode is stable; table 0 of the
        // tiny preset has cardinality 7 with exponent >= 1.
        let b0 = g.next_batch(2000); // rotation step 0
        let b1 = g.next_batch(2000); // rotation step 1
        assert_ne!(
            modal(&b0, 0),
            modal(&b1, 0),
            "hot set did not rotate between batches"
        );
    }

    #[test]
    fn hot_categories_repeat_within_batch() {
        // Unbalanced queries: the hottest category of a high-skew table must
        // appear many times in one batch — this is what the vector-based LZ
        // compressor exploits.
        let cfg = presets::criteo_kaggle_like();
        let mut g = SyntheticCriteo::new(cfg.clone(), 11);
        let b = g.next_batch(128);
        // Table 8 has cardinality 3 and exponent 1.6: expect heavy repetition.
        let col = &b.sparse[8];
        let zero_count = col.iter().filter(|&&c| c == 0).count();
        assert!(
            zero_count > 40,
            "hot category only appeared {zero_count} times"
        );
    }
}
