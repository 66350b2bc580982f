//! Homogenization Index (Equation 1 / Tables III–IV of the paper).
//!
//! For a sampled batch of embedding vectors the index measures how strongly
//! quantization collapses similar vectors into identical ones:
//!
//! ```text
//! η = (N_original − N_quantized) / N_original
//! ```
//!
//! where `N_original` is the number of *distinct* vectors before quantization
//! and `N_quantized` the number of distinct vectors after quantizing with the
//! table's error bound. η = 0 means quantization merged nothing; η close to 1
//! means nearly all vectors collapsed onto a single pattern.
//!
//! The paper's Tables III/IV print the raw pattern counts alongside a
//! "Homo Index" column computed as `N_quantized / N_original` (the complement
//! of Equation 1's numerator normalisation). Both views are reported here:
//! [`HomoReport::index`] follows Equation 1 and
//! [`HomoReport::pattern_ratio`] reproduces the tables' column, so either
//! convention can be compared against the paper.

use dlrm_compress::quant;
use std::collections::HashSet;

/// Pattern counts and homogenization scores for one sampled batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HomoReport {
    /// Number of vectors in the sampled batch.
    pub batch_size: usize,
    /// Distinct vectors before quantization ("# Ori. Patterns").
    pub original_patterns: usize,
    /// Distinct vectors after quantization ("# Quant. Patterns").
    pub quantized_patterns: usize,
    /// The error bound used for quantization.
    pub error_bound: f32,
}

impl HomoReport {
    /// Equation 1 of the paper: `(N_orig − N_quant) / N_orig`, in `[0, 1]`.
    /// Returns 0 for an empty batch.
    pub fn index(&self) -> f64 {
        if self.original_patterns == 0 {
            return 0.0;
        }
        (self.original_patterns - self.quantized_patterns) as f64 / self.original_patterns as f64
    }

    /// The "Homo Index" column as printed in Tables III/IV:
    /// `N_quant / N_orig`, in `[0, 1]` (1 = no collapse).
    pub fn pattern_ratio(&self) -> f64 {
        if self.original_patterns == 0 {
            return 1.0;
        }
        self.quantized_patterns as f64 / self.original_patterns as f64
    }
}

/// Count distinct vectors before and after quantization for a row-major batch
/// of `dim`-length vectors under error bound `eb`.
pub fn pattern_counts(batch: &[f32], dim: usize, eb: f32) -> dlrm_compress::Result<HomoReport> {
    if dim == 0 || !batch.len().is_multiple_of(dim) {
        return Err(dlrm_compress::CompressError::DimensionMismatch {
            len: batch.len(),
            dim,
        });
    }
    let n = batch.len() / dim;
    let mut original: HashSet<Vec<u32>> = HashSet::with_capacity(n);
    for v in 0..n {
        original.insert(
            batch[v * dim..(v + 1) * dim]
                .iter()
                .map(|x| x.to_bits())
                .collect(),
        );
    }
    let q = quant::quantize(batch, eb)?;
    let mut quantized: HashSet<&[i32]> = HashSet::with_capacity(n);
    for v in 0..n {
        quantized.insert(&q.codes[v * dim..(v + 1) * dim]);
    }
    Ok(HomoReport {
        batch_size: n,
        original_patterns: original.len(),
        quantized_patterns: quantized.len(),
        error_bound: eb,
    })
}

/// Convenience wrapper returning only Equation 1's η.
pub fn homogenization_index(batch: &[f32], dim: usize, eb: f32) -> dlrm_compress::Result<f64> {
    Ok(pattern_counts(batch, dim, eb)?.index())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_of(vectors: &[Vec<f32>]) -> (Vec<f32>, usize) {
        (
            vectors.iter().flatten().copied().collect(),
            vectors[0].len(),
        )
    }

    #[test]
    fn identical_vectors_have_zero_index() {
        // Only one original pattern and one quantized pattern: nothing to merge.
        let (batch, dim) = batch_of(&[vec![0.1, 0.2], vec![0.1, 0.2], vec![0.1, 0.2]]);
        let r = pattern_counts(&batch, dim, 0.01).unwrap();
        assert_eq!(r.original_patterns, 1);
        assert_eq!(r.quantized_patterns, 1);
        assert_eq!(r.index(), 0.0);
        assert_eq!(r.pattern_ratio(), 1.0);
    }

    #[test]
    fn near_identical_vectors_collapse() {
        let (batch, dim) = batch_of(&[
            vec![0.100, 0.200],
            vec![0.1004, 0.2003], // same bins as above at eb = 0.01
            vec![0.500, -0.300],
        ]);
        let r = pattern_counts(&batch, dim, 0.01).unwrap();
        assert_eq!(r.original_patterns, 3);
        assert_eq!(r.quantized_patterns, 2);
        assert!((r.index() - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.pattern_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn index_is_monotone_in_error_bound() {
        // Larger error bounds can only merge more vectors.
        let dim = 8;
        let batch: Vec<f32> = (0..dim * 64)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.002)
            .collect();
        let coarse = homogenization_index(&batch, dim, 0.05).unwrap();
        let medium = homogenization_index(&batch, dim, 0.01).unwrap();
        let fine = homogenization_index(&batch, dim, 0.0001).unwrap();
        assert!(coarse >= medium, "{coarse} < {medium}");
        assert!(medium >= fine, "{medium} < {fine}");
    }

    #[test]
    fn index_stays_in_unit_interval() {
        let dim = 4;
        let batch: Vec<f32> = (0..dim * 100).map(|i| (i as f32).sin() * 0.3).collect();
        for &eb in &[1e-5f32, 1e-3, 0.1, 1.0] {
            let eta = homogenization_index(&batch, dim, eb).unwrap();
            assert!((0.0..=1.0).contains(&eta), "eb {eb} gave {eta}");
        }
    }

    #[test]
    fn empty_batch_is_handled() {
        let r = pattern_counts(&[], 8, 0.01).unwrap();
        assert_eq!(r.batch_size, 0);
        assert_eq!(r.index(), 0.0);
        assert_eq!(r.pattern_ratio(), 1.0);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        assert!(pattern_counts(&[1.0, 2.0, 3.0], 2, 0.01).is_err());
    }
}
