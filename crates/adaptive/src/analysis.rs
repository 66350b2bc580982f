//! Offline analysis (the left half of Figure 3): sample each embedding
//! table's traffic, score it, classify it, and pick its compressor.
//!
//! The output is a [`CompressionPlan`] that the distributed trainer consumes:
//! for every table it records the homogenization report, the L/M/S class,
//! the base error bound and the selected lossless back-end, plus the
//! iteration-wise decay schedule shared by all tables.

use crate::classify::{EbClass, EbConfig, Thresholds};
use crate::decay::EbSchedule;
use crate::homo::{pattern_counts, HomoReport};
use crate::speedup::{estimate_speedup, SpeedupInputs};
use dlrm_compress::{measure_roundtrip, CompressorKind};
use serde::{Deserialize, Serialize};

/// Per-table outcome of the offline analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TablePlan {
    /// Table id (matches the dataset config).
    pub table_id: usize,
    /// Pattern counts measured on the sampled batch.
    pub homo: HomoReport,
    /// L/M/S class assigned from the homogenization index.
    pub class: EbClass,
    /// Base (stable-phase) error bound for this table.
    pub base_error_bound: f32,
    /// Lossless back-end selected for this table.
    pub compressor: CompressorKind,
    /// Estimated communication speedup for the selected compressor
    /// (Equation 2, at the analysis bandwidth).
    pub estimated_speedup: f64,
}

/// Full output of the offline analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressionPlan {
    /// One plan per table, indexed by table id.
    pub tables: Vec<TablePlan>,
    /// The error-bound levels used for classification.
    pub eb_config: EbConfig,
    /// Iteration-wise schedule shared by all tables.
    pub schedule: EbSchedule,
    /// All-to-all bandwidth (bytes/s) the selection assumed.
    pub bandwidth: f64,
}

impl CompressionPlan {
    /// Effective error bound of `table_id` at training iteration `iter`.
    pub fn error_bound(&self, table_id: usize, iter: usize) -> f32 {
        let base = self.tables[table_id].base_error_bound;
        self.schedule.error_bound_at(base, iter)
    }

    /// The compressor selected for `table_id`.
    pub fn compressor(&self, table_id: usize) -> CompressorKind {
        self.tables[table_id].compressor
    }

    /// Count of tables per class, in (large, medium, small) order.
    pub fn class_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for t in &self.tables {
            match t.class {
                EbClass::Large => counts.0 += 1,
                EbClass::Medium => counts.1 += 1,
                EbClass::Small => counts.2 += 1,
            }
        }
        counts
    }
}

/// Candidate back-ends the offline analysis considers (the paper limits the
/// pool to its two specialised encoders): vector-LZ alone, or the hybrid,
/// which picks vector-LZ or Huffman per chunk from the bytes each would send.
///
/// Huffman is not forced on a table from the offline sample: the hybrid's
/// choice costs at most one histogram on top of the vector-LZ pass, never
/// sends more than either back-end, and so also covers the traffic the sample
/// does not show — lookups of the tables as trained (which homogenize under
/// the error bound far more than sampled traffic) and backward gradients
/// (all-zero codes, where Huffman's 513-byte table is six times a vector-LZ
/// stream).
const CANDIDATES: [CompressorKind; 2] = [CompressorKind::OursVector, CompressorKind::OursHybrid];

/// Run the offline analysis over one sampled lookup batch per table.
///
/// * `samples[t]` is a row-major `batch x dim` sample of table `t`'s lookups.
/// * `dim` is the embedding dimension.
/// * `eb_config`/`thresholds` control the table-wise classification.
/// * `schedule` is the iteration-wise decay plan.
/// * `bandwidth` (bytes/s) feeds the compressor-selection model.
pub fn analyze_tables(
    samples: &[Vec<f32>],
    dim: usize,
    eb_config: EbConfig,
    thresholds: Thresholds,
    schedule: EbSchedule,
    bandwidth: f64,
) -> dlrm_compress::Result<CompressionPlan> {
    eb_config
        .validate()
        .map_err(|_| dlrm_compress::CompressError::InvalidErrorBound(eb_config.small))?;
    let mut tables = Vec::with_capacity(samples.len());
    for (table_id, sample) in samples.iter().enumerate() {
        // Classification uses the medium (global) bound, as in Algorithm 1.
        let homo = pattern_counts(sample, dim, eb_config.medium)?;
        let class = thresholds.classify(homo.index());
        let base_eb = eb_config.for_class(class);

        // Compressor selection (Algorithm 2): measure both candidates on the
        // sample at the table's own bound and keep the better Equation-2 score.
        //
        // A later candidate must also send fewer bytes than the incumbent.
        // The hybrid that kept its vector-LZ stream is the vector-LZ encoder
        // plus a tag byte, and since it skips the entropy plan on streams no
        // plan can beat, it is not measurably slower either: without this,
        // timer noise would pick the back-end of every repeat-heavy table.
        let mut best: Option<(CompressorKind, f64, usize)> = None;
        for kind in CANDIDATES {
            let comp = kind.build();
            let report = measure_roundtrip(comp.as_ref(), sample, dim, base_eb)?;
            let speedup = estimate_speedup(SpeedupInputs::from_report(&report, bandwidth));
            if best.is_none_or(|(_, s, bytes)| speedup > s && report.compressed_bytes < bytes) {
                best = Some((kind, speedup, report.compressed_bytes));
            }
        }
        let (compressor, estimated_speedup, _) =
            best.unwrap_or((CompressorKind::OursHybrid, 1.0, 0));
        tables.push(TablePlan {
            table_id,
            homo,
            class,
            base_error_bound: base_eb,
            compressor,
            estimated_speedup,
        });
    }
    Ok(CompressionPlan {
        tables,
        eb_config,
        schedule,
        bandwidth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decay::TrainingPhases;

    /// A table whose batch is dominated by a handful of repeated vectors.
    fn repeated_sample(dim: usize, batch: usize, distinct: usize) -> Vec<f32> {
        (0..batch)
            .flat_map(|i| {
                let id = i % distinct;
                (0..dim).map(move |j| ((id * dim + j) as f32).sin() * 0.2)
            })
            .collect()
    }

    /// A table whose vectors are all distinct with well-spread values.
    fn spread_sample(dim: usize, batch: usize) -> Vec<f32> {
        (0..batch * dim)
            .map(|i| (((i * 2_654_435_761usize) % 9973) as f32 / 9973.0 - 0.5) * 0.8)
            .collect()
    }

    /// A table of distinct but *nearly identical* vectors (strong
    /// homogenization under quantization).
    fn homogenizing_sample(dim: usize, batch: usize) -> Vec<f32> {
        (0..batch)
            .flat_map(|i| (0..dim).map(move |j| 0.1 * (j as f32 % 3.0) + i as f32 * 1e-4))
            .collect()
    }

    fn schedule() -> EbSchedule {
        EbSchedule::paper_default(TrainingPhases {
            initial_iters: 10,
            stable_iters: 20,
        })
    }

    #[test]
    fn plan_covers_every_table_and_respects_classes() {
        let dim = 16;
        let samples = vec![
            repeated_sample(dim, 128, 4),
            spread_sample(dim, 128),
            homogenizing_sample(dim, 128),
        ];
        let plan = analyze_tables(
            &samples,
            dim,
            EbConfig::paper_default(),
            Thresholds::default(),
            schedule(),
            4e9,
        )
        .unwrap();
        assert_eq!(plan.tables.len(), 3);
        for (i, t) in plan.tables.iter().enumerate() {
            assert_eq!(t.table_id, i);
            assert_eq!(t.base_error_bound, plan.eb_config.for_class(t.class));
            assert!(t.estimated_speedup > 0.0);
        }
        // The spread table must not homogenize; the nearly-identical table must.
        assert!(plan.tables[1].homo.index() < 0.2);
        assert!(plan.tables[2].homo.index() > 0.7);
        assert_eq!(plan.tables[2].class, EbClass::Small);
        assert_eq!(plan.tables[1].class, EbClass::Large);
    }

    #[test]
    fn repeated_tables_get_the_vector_backend() {
        let dim = 32;
        let samples = vec![repeated_sample(dim, 256, 3), spread_sample(dim, 256)];
        let plan = analyze_tables(
            &samples,
            dim,
            EbConfig::paper_default(),
            Thresholds::default(),
            schedule(),
            4e9,
        )
        .unwrap();
        assert_eq!(plan.compressor(0), CompressorKind::OursVector);
    }

    #[test]
    fn error_bound_decays_then_stabilises() {
        let dim = 8;
        let samples = vec![spread_sample(dim, 64)];
        let plan = analyze_tables(
            &samples,
            dim,
            EbConfig::paper_default(),
            Thresholds::default(),
            schedule(),
            4e9,
        )
        .unwrap();
        let early = plan.error_bound(0, 0);
        let late = plan.error_bound(0, 25);
        assert!(early > late);
        assert_eq!(late, plan.tables[0].base_error_bound);
    }

    #[test]
    fn class_counts_add_up() {
        let dim = 8;
        let samples = vec![
            repeated_sample(dim, 64, 2),
            spread_sample(dim, 64),
            homogenizing_sample(dim, 64),
            spread_sample(dim, 64),
        ];
        let plan = analyze_tables(
            &samples,
            dim,
            EbConfig::paper_default(),
            Thresholds::default(),
            schedule(),
            4e9,
        )
        .unwrap();
        let (l, m, s) = plan.class_counts();
        assert_eq!(l + m + s, 4);
    }

    #[test]
    fn invalid_eb_config_is_rejected() {
        let bad = EbConfig {
            large: 0.01,
            medium: 0.03,
            small: 0.05,
        };
        let samples = vec![spread_sample(4, 16)];
        assert!(analyze_tables(&samples, 4, bad, Thresholds::default(), schedule(), 4e9).is_err());
    }
}
