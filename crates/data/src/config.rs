//! Dataset and embedding-table configuration.

/// How the values of an embedding table are distributed.
///
/// The paper's observation ❸ notes that some tables' value distributions
/// look Gaussian (tables with very unbalanced query frequencies — repeated
/// vectors concentrate mass) while others look uniform. The synthetic
/// generator makes this an explicit per-table property so that both the
/// Huffman-friendly and the LZ-friendly regimes appear in every preset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueDistribution {
    /// Values drawn from N(0, std²), truncated to ±4·std.
    Gaussian {
        /// Standard deviation of the embedding values.
        std: f32,
    },
    /// Values drawn uniformly from `[-range, range]`.
    Uniform {
        /// Half-width of the uniform support.
        range: f32,
    },
}

impl ValueDistribution {
    /// A reasonable default matching DLRM's 1/sqrt(cardinality) init scale.
    pub fn default_for(cardinality: usize) -> Self {
        ValueDistribution::Uniform {
            range: 1.0 / (cardinality.max(1) as f32).sqrt(),
        }
    }
}

/// Clustering of a table's embedding vectors around shared centroids.
///
/// This is how the synthetic data reproduces the paper's *vector
/// homogenization* observation: in a real DLRM, semantically similar
/// categories end up with nearly identical embedding vectors, and an
/// error-bounded quantizer collapses them onto one pattern. A clustered table
/// draws each category's vector as `centroid[c mod centroids] + jitter`, so
/// the amount of homogenization is controlled by how the jitter compares to
/// the quantization bin width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of distinct centroids the category vectors cluster around.
    pub centroids: usize,
    /// Standard deviation of the per-dimension jitter added to the centroid.
    pub jitter: f32,
}

/// Static description of one categorical feature / embedding table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableProfile {
    /// Stable identifier (0-based, matches the paper's "EMB Table ID").
    pub id: usize,
    /// Number of categories (rows of the embedding table).
    pub cardinality: usize,
    /// Zipf exponent of the query distribution over categories. Larger
    /// values mean more unbalanced queries and therefore more repeated
    /// vectors per batch.
    pub zipf_exponent: f64,
    /// Distribution of the embedding values stored in the table.
    pub values: ValueDistribution,
    /// Optional clustering of the table's vectors (drives homogenization).
    pub clusters: Option<ClusterSpec>,
}

impl TableProfile {
    /// Convenience constructor (no clustering).
    pub fn new(
        id: usize,
        cardinality: usize,
        zipf_exponent: f64,
        values: ValueDistribution,
    ) -> Self {
        Self {
            id,
            cardinality,
            zipf_exponent,
            values,
            clusters: None,
        }
    }

    /// Builder: cluster the table's vectors around `centroids` centroids with
    /// the given per-dimension jitter.
    pub fn clustered(mut self, centroids: usize, jitter: f32) -> Self {
        assert!(centroids > 0, "need at least one centroid");
        self.clusters = Some(ClusterSpec { centroids, jitter });
        self
    }

    /// Size of the table in bytes at a given embedding dimension (f32).
    pub fn bytes(&self, embedding_dim: usize) -> usize {
        self.cardinality * embedding_dim * std::mem::size_of::<f32>()
    }
}

/// Mid-run drift of a dataset's query traffic.
///
/// Real recommendation traffic does not hold still: item popularity shifts
/// (the hot set rotates) and the overall skew of the query distribution
/// changes with time of day and catalogue churn. Both move exactly the
/// properties the paper's compression exploits — repeated vectors and table
/// homogenization — so a selection made offline on iteration-0 traffic can
/// stop being the right one mid-run. `TrafficDrift` makes the synthetic
/// stream reproduce that: from `start_batch` on, every table's Zipf exponent
/// shifts by `exponent_shift` (more or less repetition per batch), and every
/// `hot_rotation_every` batches the hot set rotates to a different slice of
/// each table's categories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficDrift {
    /// Batch index at which the drift begins.
    pub start_batch: usize,
    /// Added to every table's Zipf exponent from `start_batch` on (the
    /// effective exponent is clamped to the valid `[0, 5]` range). Positive
    /// shifts concentrate queries (more repeated vectors); negative shifts
    /// spread them.
    pub exponent_shift: f64,
    /// Rotate every table's hot set one step (an eighth of the table's
    /// cardinality, at least one category) each `hot_rotation_every` batches
    /// after `start_batch`; `0` disables rotation.
    pub hot_rotation_every: usize,
}

impl TrafficDrift {
    /// Pure skew drift: shift every table's exponent at `start_batch`.
    pub fn exponent_shift(start_batch: usize, exponent_shift: f64) -> Self {
        Self {
            start_batch,
            exponent_shift,
            hot_rotation_every: 0,
        }
    }

    /// Pure popularity churn: rotate the hot set every `every` batches.
    pub fn hot_rotation(start_batch: usize, every: usize) -> Self {
        Self {
            start_batch,
            exponent_shift: 0.0,
            hot_rotation_every: every,
        }
    }

    /// Number of hot-set rotation steps in effect at `batch_index`.
    pub fn rotation_steps(&self, batch_index: usize) -> usize {
        if self.hot_rotation_every == 0 || batch_index < self.start_batch {
            0
        } else {
            (batch_index - self.start_batch) / self.hot_rotation_every
        }
    }

    /// True once the drift has begun at `batch_index`.
    pub fn active_at(&self, batch_index: usize) -> bool {
        batch_index >= self.start_batch
    }

    /// Structural validation.
    pub fn validate(&self) -> Result<(), String> {
        if !self.exponent_shift.is_finite() {
            return Err("exponent shift must be finite".into());
        }
        if self.exponent_shift == 0.0 && self.hot_rotation_every == 0 {
            return Err("drift must shift the exponent or rotate the hot set".into());
        }
        Ok(())
    }
}

/// Full description of a synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Human-readable preset name ("criteo-kaggle-like", …).
    pub name: String,
    /// Number of continuous (dense) features. Criteo has 13.
    pub num_dense: usize,
    /// Embedding vector length shared by all tables.
    pub embedding_dim: usize,
    /// Default mini-batch size used by the paper for this dataset.
    pub default_batch_size: usize,
    /// One profile per categorical feature. Criteo has 26.
    pub tables: Vec<TableProfile>,
    /// Seed that pins the hidden ground-truth labelling model.
    pub label_seed: u64,
    /// Optional mid-run traffic drift (`None` keeps the stream stationary —
    /// and bit-identical to the drift-less generator).
    pub drift: Option<TrafficDrift>,
}

impl DatasetConfig {
    /// The same dataset with the given traffic drift (builder-style).
    pub fn with_drift(mut self, drift: TrafficDrift) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Number of categorical features / embedding tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Total embedding parameter count across all tables.
    pub fn total_embedding_params(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.cardinality * self.embedding_dim)
            .sum()
    }

    /// Total embedding bytes across all tables (f32 storage).
    pub fn total_embedding_bytes(&self) -> usize {
        self.total_embedding_params() * std::mem::size_of::<f32>()
    }

    /// Bytes of lookup data produced per batch per table:
    /// `batch_size * embedding_dim * 4`.
    pub fn lookup_bytes_per_table(&self, batch_size: usize) -> usize {
        batch_size * self.embedding_dim * std::mem::size_of::<f32>()
    }

    /// Bytes of lookup data produced per batch across all tables.
    pub fn lookup_bytes_per_batch(&self, batch_size: usize) -> usize {
        self.lookup_bytes_per_table(batch_size) * self.num_tables()
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_dense == 0 {
            return Err("num_dense must be positive".into());
        }
        if self.embedding_dim == 0 {
            return Err("embedding_dim must be positive".into());
        }
        if self.default_batch_size == 0 {
            return Err("default_batch_size must be positive".into());
        }
        if self.tables.is_empty() {
            return Err("at least one embedding table is required".into());
        }
        for (i, t) in self.tables.iter().enumerate() {
            if t.id != i {
                return Err(format!("table at position {i} has id {}", t.id));
            }
            if t.cardinality == 0 {
                return Err(format!("table {i} has zero cardinality"));
            }
            if !(0.0..=5.0).contains(&t.zipf_exponent) {
                return Err(format!("table {i} has implausible zipf exponent"));
            }
        }
        if let Some(drift) = &self.drift {
            drift.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> DatasetConfig {
        DatasetConfig {
            name: "tiny".into(),
            num_dense: 4,
            embedding_dim: 8,
            default_batch_size: 16,
            tables: vec![
                TableProfile::new(0, 100, 1.0, ValueDistribution::Gaussian { std: 0.05 }),
                TableProfile::new(1, 10, 0.5, ValueDistribution::Uniform { range: 0.1 }),
            ],
            label_seed: 7,
            drift: None,
        }
    }

    #[test]
    fn byte_accounting() {
        let cfg = tiny_config();
        assert_eq!(cfg.total_embedding_params(), 110 * 8);
        assert_eq!(cfg.total_embedding_bytes(), 110 * 8 * 4);
        assert_eq!(cfg.lookup_bytes_per_table(16), 16 * 8 * 4);
        assert_eq!(cfg.lookup_bytes_per_batch(16), 2 * 16 * 8 * 4);
    }

    #[test]
    fn validation_catches_errors() {
        let mut cfg = tiny_config();
        assert!(cfg.validate().is_ok());
        cfg.tables[1].id = 5;
        assert!(cfg.validate().is_err());
        let mut cfg2 = tiny_config();
        cfg2.embedding_dim = 0;
        assert!(cfg2.validate().is_err());
        let mut cfg3 = tiny_config();
        cfg3.tables.clear();
        assert!(cfg3.validate().is_err());
    }

    #[test]
    fn table_bytes() {
        let t = TableProfile::new(0, 1000, 1.0, ValueDistribution::default_for(1000));
        assert_eq!(t.bytes(32), 1000 * 32 * 4);
    }
}
