//! Activation functions and small vector kernels used by the MLP layers.

use crate::matrix::Matrix;

/// Rectified linear unit applied element-wise.
pub fn relu(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Numerically stable logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// Apply ReLU to a whole matrix, returning a new matrix.
pub fn relu_matrix(m: &Matrix) -> Matrix {
    m.map(relu)
}

/// Apply sigmoid to a whole matrix, returning a new matrix.
pub fn sigmoid_matrix(m: &Matrix) -> Matrix {
    m.map(sigmoid)
}

/// Binary cross-entropy with logits for a single example.
///
/// `logit` is the raw model output, `label` is 0.0 or 1.0. Uses the
/// log-sum-exp form that is stable for large |logit|.
pub fn bce_with_logits(logit: f32, label: f32) -> f32 {
    let max = logit.max(0.0);
    max - logit * label + (1.0 + (-logit.abs()).exp()).ln()
}

/// Gradient of [`bce_with_logits`] with respect to the logit.
pub fn bce_with_logits_grad(logit: f32, label: f32) -> f32 {
    sigmoid(logit) - label
}

/// Mean binary cross-entropy over a batch of logits.
pub fn bce_mean(logits: &[f32], labels: &[f32]) -> f32 {
    assert_eq!(logits.len(), labels.len());
    if logits.is_empty() {
        return 0.0;
    }
    logits
        .iter()
        .zip(labels.iter())
        .map(|(&z, &y)| bce_with_logits(z, y))
        .sum::<f32>()
        / logits.len() as f32
}

/// Classification accuracy of sigmoid(logit) >= 0.5 against binary labels.
pub fn binary_accuracy(logits: &[f32], labels: &[f32]) -> f64 {
    assert_eq!(logits.len(), labels.len());
    if logits.is_empty() {
        return 0.0;
    }
    let correct = logits
        .iter()
        .zip(labels.iter())
        .filter(|(&z, &y)| (z >= 0.0) == (y >= 0.5))
        .count();
    correct as f64 / logits.len() as f64
}

/// Area under the ROC curve computed by the rank-sum method.
///
/// Returns 0.5 when one of the classes is absent (undefined AUC).
pub fn auc(logits: &[f32], labels: &[f32]) -> f64 {
    assert_eq!(logits.len(), labels.len());
    let mut indexed: Vec<(f32, f32)> = logits.iter().copied().zip(labels.iter().copied()).collect();
    indexed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let n_pos = indexed.iter().filter(|(_, y)| *y >= 0.5).count();
    let n_neg = indexed.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Sum of ranks (1-based, averaging ties is skipped: synthetic logits
    // essentially never tie exactly).
    let mut rank_sum_pos = 0.0f64;
    for (rank0, (_, y)) in indexed.iter().enumerate() {
        if *y >= 0.5 {
            rank_sum_pos += (rank0 + 1) as f64;
        }
    }
    let np = n_pos as f64;
    let nn = n_neg as f64;
    (rank_sum_pos - np * (np + 1.0) / 2.0) / (np * nn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_basic() {
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(2.5), 2.5);
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(100.0) > 0.999_999);
        assert!(sigmoid(-100.0) < 1e-6);
        for &x in &[-3.0f32, -1.0, 0.5, 2.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn bce_matches_reference_formula() {
        for &(z, y) in &[(0.3f32, 1.0f32), (-2.0, 0.0), (5.0, 1.0), (-5.0, 1.0)] {
            let p = sigmoid(z) as f64;
            let reference = -(y as f64 * p.ln() + (1.0 - y as f64) * (1.0 - p).ln());
            assert!(
                (bce_with_logits(z, y) as f64 - reference).abs() < 1e-5,
                "z={z}, y={y}"
            );
        }
    }

    #[test]
    fn bce_grad_is_sigmoid_minus_label() {
        assert!((bce_with_logits_grad(0.0, 1.0) + 0.5).abs() < 1e-6);
        assert!((bce_with_logits_grad(0.0, 0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn accuracy_counts_correct_sign() {
        let logits = [2.0, -1.0, 0.5, -0.5];
        let labels = [1.0, 0.0, 0.0, 0.0];
        assert!((binary_accuracy(&logits, &labels) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn auc_perfect_and_random() {
        let logits = [0.9, 0.8, -0.5, -0.9];
        let labels = [1.0, 1.0, 0.0, 0.0];
        assert!((auc(&logits, &labels) - 1.0).abs() < 1e-9);
        let labels_one_class = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(auc(&logits, &labels_one_class), 0.5);
    }

    #[test]
    fn bce_mean_empty_is_zero() {
        assert_eq!(bce_mean(&[], &[]), 0.0);
    }
}
