//! Mini-batch container shared by the data generator, the model and the
//! distributed trainer.

use dlrm_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Sizes of the `parts` contiguous shards `n` samples split into — the one
/// split rule, shared by [`MiniBatch::shard`] and the generator's sharded
/// fill: (almost) equal, earlier shards take the remainder samples.
pub(crate) fn shard_sizes(n: usize, parts: usize) -> impl Iterator<Item = usize> {
    assert!(parts > 0, "cannot shard into zero parts");
    (0..parts).map(move |p| n / parts + usize::from(p < n % parts))
}

/// One mini-batch of DLRM training data. The default is the empty batch,
/// which owns no storage.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MiniBatch {
    /// Dense (continuous) features, `batch_size x num_dense`.
    pub dense: Matrix,
    /// Per-table categorical lookups: `sparse[t][i]` is the category index
    /// of sample `i` in embedding table `t`. Every inner vector has length
    /// `batch_size`.
    pub sparse: Vec<Vec<u32>>,
    /// Binary click labels (0.0 or 1.0), length `batch_size`.
    pub labels: Vec<f32>,
}

impl MiniBatch {
    /// Number of samples in the batch.
    pub fn batch_size(&self) -> usize {
        self.labels.len()
    }

    /// Number of categorical features.
    pub fn num_tables(&self) -> usize {
        self.sparse.len()
    }

    /// Fraction of positive labels.
    pub fn positive_rate(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|&&y| y >= 0.5).count() as f64 / self.labels.len() as f64
    }

    /// Split the batch into `parts` contiguous shards of (almost) equal size,
    /// as the hybrid-parallel trainer does when every rank takes one shard of
    /// the global batch. Earlier shards get the remainder samples.
    pub fn shard(&self, parts: usize) -> Vec<MiniBatch> {
        let mut out = Vec::with_capacity(parts);
        let mut start = 0usize;
        for len in shard_sizes(self.batch_size(), parts) {
            let dense = self.dense.row_block(start, len);
            let sparse = self
                .sparse
                .iter()
                .map(|col| col[start..start + len].to_vec())
                .collect();
            let labels = self.labels[start..start + len].to_vec();
            out.push(MiniBatch {
                dense,
                sparse,
                labels,
            });
            start += len;
        }
        out
    }

    /// Consistency check used by tests and the trainer's debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.batch_size();
        if self.dense.rows() != n {
            return Err(format!(
                "dense rows {} != batch size {n}",
                self.dense.rows()
            ));
        }
        for (t, col) in self.sparse.iter().enumerate() {
            if col.len() != n {
                return Err(format!("table {t} has {} lookups, expected {n}", col.len()));
            }
        }
        if !self.labels.iter().all(|&y| y == 0.0 || y == 1.0) {
            return Err("labels must be 0.0 or 1.0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_batch(n: usize) -> MiniBatch {
        MiniBatch {
            dense: Matrix::from_fn(n, 3, |r, c| (r * 3 + c) as f32),
            sparse: vec![(0..n as u32).collect(), vec![1; n]],
            labels: (0..n).map(|i| (i % 2) as f32).collect(),
        }
    }

    #[test]
    fn shard_covers_all_samples() {
        let b = make_batch(10);
        let shards = b.shard(3);
        assert_eq!(shards.len(), 3);
        let sizes: Vec<usize> = shards.iter().map(|s| s.batch_size()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert_eq!(sizes, vec![4, 3, 3]);
        // First shard starts with the first sample, last shard ends with the last.
        assert_eq!(shards[0].sparse[0][0], 0);
        assert_eq!(*shards[2].sparse[0].last().unwrap(), 9);
        for s in &shards {
            assert!(s.validate().is_ok());
        }
    }

    #[test]
    fn shard_more_parts_than_samples() {
        let b = make_batch(2);
        let shards = b.shard(4);
        let sizes: Vec<usize> = shards.iter().map(|s| s.batch_size()).collect();
        assert_eq!(sizes, vec![1, 1, 0, 0]);
    }

    #[test]
    fn validate_detects_ragged_sparse() {
        let mut b = make_batch(4);
        b.sparse[1].pop();
        assert!(b.validate().is_err());
    }

    #[test]
    fn positive_rate() {
        let b = make_batch(10);
        assert!((b.positive_rate() - 0.5).abs() < 1e-9);
    }
}
