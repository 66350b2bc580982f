//! Embedding tables: the model-parallel half of a DLRM.

use dlrm_tensor::{init, Initializer, Matrix, SeededRng};

/// One embedding table (`cardinality x dim`), storing a dense vector per
/// category of a categorical feature.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    /// Stable table id (matches the dataset configuration).
    pub id: usize,
    weights: Matrix,
}

impl EmbeddingTable {
    /// Create a table with DLRM's ±1/√cardinality uniform initialisation.
    pub fn new(id: usize, cardinality: usize, dim: usize, rng: &mut SeededRng) -> Self {
        assert!(cardinality > 0 && dim > 0);
        Self {
            id,
            weights: init::init_matrix(cardinality, dim, Initializer::EmbeddingUniform, rng),
        }
    }

    /// Number of categories (rows).
    pub fn cardinality(&self) -> usize {
        self.weights.rows()
    }

    /// Embedding dimension (columns).
    pub fn dim(&self) -> usize {
        self.weights.cols()
    }

    /// Borrow the raw weight matrix (used by tests and analysis tooling).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutably borrow the raw weight matrix (used by checkpoint restore,
    /// which overwrites the rows in place).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Look up a batch of category indices, producing a `batch x dim` matrix.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn lookup(&self, indices: &[u32]) -> Matrix {
        let mut out = Vec::new();
        self.lookup_into(indices, &mut out);
        Matrix::from_vec(indices.len(), self.dim(), out)
    }

    /// Allocation-free [`EmbeddingTable::lookup`]: clears `out` and fills it
    /// with the row-major `batch x dim` lookup values, reusing its capacity.
    /// (The trainer recycles the storage of the previous iteration's lookup
    /// matrices through this path.)
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn lookup_into(&self, indices: &[u32], out: &mut Vec<f32>) {
        let dim = self.dim();
        out.clear();
        out.reserve(indices.len() * dim);
        for &idx in indices {
            let idx = idx as usize;
            assert!(
                idx < self.cardinality(),
                "table {}: index {idx} out of range {}",
                self.id,
                self.cardinality()
            );
            out.extend_from_slice(self.weights.row(idx));
        }
    }

    /// Apply the gradient of a lookup with plain SGD: for every sample `i`,
    /// `weights[indices[i]] -= lr * grad.row(i)`. Duplicate indices within the
    /// batch accumulate naturally (they are applied sequentially), matching
    /// the dense-gradient semantics of the reference DLRM's `EmbeddingBag`
    /// in sum mode with per-sample gradients.
    pub fn apply_sparse_grad(&mut self, indices: &[u32], grad: &Matrix, lr: f32) {
        assert_eq!(indices.len(), grad.rows(), "one gradient row per lookup");
        assert_eq!(grad.cols(), self.dim());
        for (i, &idx) in indices.iter().enumerate() {
            let row = self.weights.row_mut(idx as usize);
            for (w, g) in row.iter_mut().zip(grad.row(i).iter()) {
                *w -= lr * g;
            }
        }
    }

    /// Total number of parameters.
    pub fn num_params(&self) -> usize {
        self.weights.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> EmbeddingTable {
        let mut rng = SeededRng::new(1);
        EmbeddingTable::new(0, 10, 4, &mut rng)
    }

    #[test]
    fn lookup_gathers_rows() {
        let t = table();
        let batch = t.lookup(&[3, 3, 7]);
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.cols(), 4);
        assert_eq!(batch.row(0), t.weights().row(3));
        assert_eq!(batch.row(0), batch.row(1));
        assert_eq!(batch.row(2), t.weights().row(7));
    }

    #[test]
    fn init_scale_follows_cardinality() {
        let mut rng = SeededRng::new(2);
        let t = EmbeddingTable::new(0, 400, 8, &mut rng);
        let limit = 1.0 / (400f32).sqrt();
        assert!(t
            .weights()
            .as_slice()
            .iter()
            .all(|w| w.abs() <= limit + 1e-6));
    }

    #[test]
    fn sparse_grad_updates_only_touched_rows() {
        let mut t = table();
        let before = t.weights().clone();
        let grad = Matrix::from_vec(2, 4, vec![1.0; 8]);
        t.apply_sparse_grad(&[2, 5], &grad, 0.1);
        for r in 0..t.cardinality() {
            if r == 2 || r == 5 {
                for (w, b) in t.weights().row(r).iter().zip(before.row(r).iter()) {
                    assert!((w - (b - 0.1)).abs() < 1e-6);
                }
            } else {
                assert_eq!(t.weights().row(r), before.row(r));
            }
        }
    }

    #[test]
    fn duplicate_indices_accumulate() {
        let mut t = table();
        let before = t.weights().row(4).to_vec();
        let grad = Matrix::from_vec(3, 4, vec![1.0; 12]);
        t.apply_sparse_grad(&[4, 4, 4], &grad, 0.01);
        for (w, b) in t.weights().row(4).iter().zip(before.iter()) {
            assert!((w - (b - 0.03)).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_lookup_panics() {
        let t = table();
        let _ = t.lookup(&[10]);
    }

    #[test]
    fn num_params() {
        assert_eq!(table().num_params(), 40);
    }
}
