//! Evaluation metrics for CTR prediction.

use dlrm_tensor::ops;

/// Loss/accuracy/AUC of one evaluation pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalMetrics {
    /// Mean binary cross-entropy (with logits).
    pub loss: f64,
    /// Fraction of correctly classified samples at threshold 0.5.
    pub accuracy: f64,
    /// Area under the ROC curve.
    pub auc: f64,
    /// Number of samples evaluated.
    pub samples: usize,
}

impl EvalMetrics {
    /// Compute metrics from raw logits and binary labels.
    pub fn from_logits(logits: &[f32], labels: &[f32]) -> EvalMetrics {
        assert_eq!(logits.len(), labels.len());
        EvalMetrics {
            loss: ops::bce_mean(logits, labels) as f64,
            accuracy: ops::binary_accuracy(logits, labels),
            auc: ops::auc(logits, labels),
            samples: logits.len(),
        }
    }

    /// Sample-weighted combination of several evaluation batches.
    pub fn combine(parts: &[EvalMetrics]) -> EvalMetrics {
        let total: usize = parts.iter().map(|p| p.samples).sum();
        if total == 0 {
            return EvalMetrics {
                loss: 0.0,
                accuracy: 0.0,
                auc: 0.5,
                samples: 0,
            };
        }
        let w = |f: fn(&EvalMetrics) -> f64| {
            parts.iter().map(|p| f(p) * p.samples as f64).sum::<f64>() / total as f64
        };
        EvalMetrics {
            loss: w(|p| p.loss),
            accuracy: w(|p| p.accuracy),
            auc: w(|p| p.auc),
            samples: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_logits_matches_ops() {
        let logits = [1.0f32, -1.0, 0.5, -2.0];
        let labels = [1.0f32, 0.0, 0.0, 0.0];
        let m = EvalMetrics::from_logits(&logits, &labels);
        assert_eq!(m.samples, 4);
        assert!((m.accuracy - 0.75).abs() < 1e-9);
        assert!(m.loss > 0.0);
        assert!(m.auc > 0.5);
    }

    #[test]
    fn combine_is_sample_weighted() {
        let a = EvalMetrics {
            loss: 1.0,
            accuracy: 1.0,
            auc: 1.0,
            samples: 10,
        };
        let b = EvalMetrics {
            loss: 0.0,
            accuracy: 0.0,
            auc: 0.0,
            samples: 30,
        };
        let c = EvalMetrics::combine(&[a, b]);
        assert_eq!(c.samples, 40);
        assert!((c.accuracy - 0.25).abs() < 1e-9);
        assert!((c.loss - 0.25).abs() < 1e-9);
    }

    #[test]
    fn combine_empty() {
        let c = EvalMetrics::combine(&[]);
        assert_eq!(c.samples, 0);
        assert_eq!(c.auc, 0.5);
    }
}
