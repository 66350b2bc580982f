//! Dataset presets mirroring the paper's two evaluation datasets.
//!
//! The cardinalities follow the *shape* of the real Criteo tables (Figure 6
//! of the paper): a few tables with fewer than ten categories, a broad middle
//! range, and several very large tables. The largest real tables have
//! millions of rows; they are scaled down to at most a few hundred thousand
//! rows so the whole workspace runs on a laptop — the compression behaviour
//! only depends on the query skew and value distribution, not on the absolute
//! row count.

use crate::config::{DatasetConfig, TableProfile, ValueDistribution};

/// Scale factor applied to the largest cardinalities. Kept as a named
/// constant so experiments can report the scaling they ran with.
pub const LARGE_TABLE_CAP: usize = 200_000;

/// Criteo-Kaggle-like preset: 13 dense features, 26 categorical features,
/// embedding dimension 32, default mini-batch 128 (the batch size used in the
/// paper's Kaggle experiments, e.g. Table III).
pub fn criteo_kaggle_like() -> DatasetConfig {
    // (cardinality, zipf exponent, gaussian?) per table. Tables with strong
    // query skew (large exponent) end up with many repeated vectors per
    // batch → high homogenization → LZ-friendly; tables with mild skew and
    // Gaussian values are Huffman-friendly; a few tables are neither.
    let spec: [(usize, f64, bool, u8); 26] = [
        (9, 1.30, true, 1),        // 0  tiny table, very hot head
        (531, 1.25, true, 1),      // 1
        (174_000, 0.70, false, 2), // 2  large, strongly clustered vectors
        (128_000, 0.75, false, 2), // 3
        (280, 1.10, true, 1),      // 4
        (19, 1.40, true, 1),       // 5
        (11_000, 0.85, false, 1),  // 6
        (620, 1.05, true, 1),      // 7
        (3, 1.60, true, 0),        // 8  near-constant lookups
        (86_000, 0.70, false, 2),  // 9
        (5_200, 0.95, true, 1),    // 10
        (152_000, 0.72, false, 2), // 11
        (3_100, 1.00, true, 1),    // 12
        (27, 1.35, true, 1),       // 13
        (14_000, 0.88, false, 1),  // 14
        (118_000, 0.74, false, 2), // 15
        (10, 1.50, true, 0),       // 16
        (4_400, 0.98, true, 1),    // 17
        (2_000, 1.02, true, 1),    // 18
        (4, 1.55, true, 0),        // 19
        (164_000, 0.68, false, 2), // 20
        (17, 1.45, true, 0),       // 21
        (15, 1.42, true, 0),       // 22
        (96_000, 0.73, false, 2),  // 23
        (77, 1.20, true, 0),       // 24
        (104_000, 0.71, false, 2), // 25
    ];
    build("criteo-kaggle-like", 13, 32, 128, 20_240_601, &spec)
}

/// Criteo-Terabyte-like preset: same feature layout, embedding dimension 64,
/// default mini-batch 2048 (the batch size used in the paper's Terabyte
/// experiments, e.g. Table IV), with generally larger tables and stronger
/// query skew.
pub fn criteo_terabyte_like() -> DatasetConfig {
    let spec: [(usize, f64, bool, u8); 26] = [
        (196_000, 0.90, true, 2),  // 0
        (188_000, 0.60, false, 0), // 1
        (200_000, 0.58, false, 0), // 2
        (42_000, 0.95, true, 1),   // 3
        (2_100, 1.10, true, 1),    // 4
        (12, 1.55, true, 0),       // 5
        (7_900, 1.00, false, 1),   // 6
        (1_300, 1.08, true, 1),    // 7
        (8, 1.60, true, 0),        // 8
        (175_000, 0.62, false, 2), // 9
        (160_000, 0.64, false, 0), // 10
        (9_400, 0.98, true, 1),    // 11
        (6, 1.62, true, 0),        // 12
        (52_000, 0.92, true, 2),   // 13
        (31_000, 0.94, false, 1),  // 14
        (11, 1.58, true, 0),       // 15
        (9, 1.56, true, 0),        // 16
        (5, 1.64, true, 0),        // 17
        (14, 1.52, true, 0),       // 18
        (182_000, 0.61, false, 2), // 19
        (147_000, 0.66, false, 1), // 20
        (169_000, 0.63, false, 2), // 21
        (136_000, 0.67, false, 1), // 22
        (24_000, 0.96, true, 1),   // 23
        (7, 1.61, true, 0),        // 24
        (16, 1.50, true, 0),       // 25
    ];
    build("criteo-terabyte-like", 13, 64, 2048, 20_240_602, &spec)
}

/// A deliberately tiny preset for unit/integration tests: 4 tables, embedding
/// dimension 8, batch 32. Runs a full distributed training iteration in
/// milliseconds.
pub fn tiny() -> DatasetConfig {
    let spec: [(usize, f64, bool, u8); 4] = [
        (7, 1.4, true, 0),
        (500, 1.0, true, 2),
        (5_000, 0.7, false, 0),
        (60, 1.2, true, 1),
    ];
    build("tiny", 4, 8, 32, 42, &spec)
}

fn build(
    name: &str,
    num_dense: usize,
    embedding_dim: usize,
    batch: usize,
    label_seed: u64,
    spec: &[(usize, f64, bool, u8)],
) -> DatasetConfig {
    let tables = spec
        .iter()
        .enumerate()
        .map(|(id, &(card, zipf, gaussian, cluster_level))| {
            let card = card.min(LARGE_TABLE_CAP);
            // Value scales are deliberately *independent of cardinality* and
            // sized like the embedding values of a partially trained DLRM
            // (|values| up to a few tenths). Tying the scale to
            // 1/sqrt(cardinality) — as the initialiser does — would leave the
            // largest tables' values far below the paper's 0.01–0.05 error
            // bounds, so every vector would quantize to zero and every
            // compressor would report meaninglessly high ratios.
            let values = if gaussian {
                ValueDistribution::Gaussian { std: 0.08 }
            } else {
                ValueDistribution::Uniform { range: 0.2 }
            };
            let profile = TableProfile::new(id, card, zipf, values);
            // Clustering levels reproduce the paper's homogenization spread:
            // level 2 tables collapse almost entirely under the medium error
            // bound (-> Small-EB class), level 1 tables collapse partially
            // (-> Medium), level 0 tables barely at all (-> Large). The
            // jitter scales with 1/dim so both presets land in the same
            // classification bands despite different vector lengths.
            match cluster_level {
                // Strong clustering: few centroids, jitter far below the
                // quantization bin width — vectors collapse almost entirely.
                2 => profile.clustered((card / 16).clamp(4, 16), 0.0002),
                // Mild clustering: more centroids and jitter comparable to
                // the bin width — vectors collapse only partially.
                1 => profile.clustered((card / 8).clamp(8, 64), 0.064 / embedding_dim as f32),
                _ => profile,
            }
        })
        .collect();
    let cfg = DatasetConfig {
        name: name.to_string(),
        num_dense,
        embedding_dim,
        default_batch_size: batch,
        tables,
        label_seed,
        drift: None,
    };
    debug_assert!(cfg.validate().is_ok());
    cfg
}

/// Look a preset up by name ("kaggle", "terabyte" or "tiny"); used by the
/// `expfig` harness command line.
pub fn by_name(name: &str) -> Option<DatasetConfig> {
    match name.to_ascii_lowercase().as_str() {
        "kaggle" | "criteo-kaggle" | "criteo-kaggle-like" => Some(criteo_kaggle_like()),
        "terabyte" | "criteo-terabyte" | "criteo-terabyte-like" => Some(criteo_terabyte_like()),
        "tiny" => Some(tiny()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid_and_have_26_tables() {
        for cfg in [criteo_kaggle_like(), criteo_terabyte_like()] {
            assert!(cfg.validate().is_ok());
            assert_eq!(cfg.num_tables(), 26);
            assert_eq!(cfg.num_dense, 13);
        }
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn kaggle_matches_paper_scale_parameters() {
        let cfg = criteo_kaggle_like();
        assert_eq!(cfg.embedding_dim, 32);
        assert_eq!(cfg.default_batch_size, 128);
    }

    #[test]
    fn terabyte_matches_paper_scale_parameters() {
        let cfg = criteo_terabyte_like();
        assert_eq!(cfg.embedding_dim, 64);
        assert_eq!(cfg.default_batch_size, 2048);
    }

    #[test]
    fn table_sizes_span_orders_of_magnitude() {
        // Figure 6 of the paper: table sizes range from <10 to >10^5 rows.
        for cfg in [criteo_kaggle_like(), criteo_terabyte_like()] {
            let min = cfg.tables.iter().map(|t| t.cardinality).min().unwrap();
            let max = cfg.tables.iter().map(|t| t.cardinality).max().unwrap();
            assert!(min < 10, "{}: min cardinality {min}", cfg.name);
            assert!(max >= 100_000, "{}: max cardinality {max}", cfg.name);
        }
    }

    #[test]
    fn cardinalities_respect_cap() {
        for cfg in [criteo_kaggle_like(), criteo_terabyte_like()] {
            assert!(cfg.tables.iter().all(|t| t.cardinality <= LARGE_TABLE_CAP));
        }
    }

    #[test]
    fn by_name_resolves_aliases() {
        assert!(by_name("kaggle").is_some());
        assert!(by_name("Terabyte").is_some());
        assert!(by_name("tiny").is_some());
        assert!(by_name("mnist").is_none());
    }

    #[test]
    fn total_memory_is_laptop_sized() {
        // Guard against accidentally blowing up memory when editing presets:
        // all embedding parameters together must stay under 1 GiB.
        for cfg in [criteo_kaggle_like(), criteo_terabyte_like()] {
            assert!(
                cfg.total_embedding_bytes() < (1 << 30),
                "{} uses {} bytes",
                cfg.name,
                cfg.total_embedding_bytes()
            );
        }
    }
}
