//! Per-layer gradient statistics and codec selection for the dense path.
//!
//! Dense-gradient codecs trade differently depending on what the gradients
//! look like: near-sparse gradients (most elements ~0, as late-training MLP
//! layers produce) favour top-k sparsification, dense smooth gradients
//! favour a cheap cast or an error-bounded codec. [`GradStats`] measures the
//! relevant features per layer; [`advise_dense`] ranks the candidate kinds
//! by Equation 2's all-reduce arm (`dlrm_adaptive::estimate_speedup`) at
//! each kind's one price ([`GradCodecKind::price`]) — the dense-path mirror
//! of the paper's per-table compressor selection.

use crate::codec::GradCodecKind;
use dlrm_adaptive::{estimate_speedup, CodecProfile, Dataflow, SpeedupInputs};
use serde::{Deserialize, Serialize};

/// Summary statistics of one gradient slice (a layer, or the whole flat
/// vector).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GradStats {
    /// Number of elements.
    pub count: usize,
    /// L2 norm.
    pub l2_norm: f64,
    /// Largest |value|.
    pub max_abs: f32,
    /// Mean |value|.
    pub mean_abs: f64,
    /// Fraction of elements with |value| below 1% of the largest |value|
    /// (1.0 for an all-zero slice) — the sparsity signal top-k keys on.
    pub near_zero_fraction: f64,
}

impl GradStats {
    /// Measure a gradient slice.
    pub fn from_slice(data: &[f32]) -> Self {
        if data.is_empty() {
            return Self {
                count: 0,
                l2_norm: 0.0,
                max_abs: 0.0,
                mean_abs: 0.0,
                near_zero_fraction: 1.0,
            };
        }
        let mut sq = 0.0f64;
        let mut abs_sum = 0.0f64;
        let mut max_abs = 0.0f32;
        for &v in data {
            let a = v.abs();
            sq += v as f64 * v as f64;
            abs_sum += a as f64;
            if a > max_abs {
                max_abs = a;
            }
        }
        let threshold = max_abs * 0.01;
        let near_zero = data.iter().filter(|v| v.abs() <= threshold).count();
        Self {
            count: data.len(),
            l2_norm: sq.sqrt(),
            max_abs,
            mean_abs: abs_sum / data.len() as f64,
            near_zero_fraction: near_zero as f64 / data.len() as f64,
        }
    }
}

/// Per-layer statistics of a flattened gradient, given the layer segment
/// lengths (e.g. weight+bias parameter counts per MLP layer, in flatten
/// order).
///
/// # Panics
/// Panics if the lengths do not sum to `flat.len()`.
pub fn per_layer_stats(flat: &[f32], layer_lens: &[usize]) -> Vec<GradStats> {
    let total: usize = layer_lens.iter().sum();
    assert_eq!(total, flat.len(), "layer lengths do not tile the gradient");
    let mut out = Vec::with_capacity(layer_lens.len());
    let mut pos = 0usize;
    for &len in layer_lens {
        out.push(GradStats::from_slice(&flat[pos..pos + len]));
        pos += len;
    }
    out
}

/// Expected wire compression ratio of a codec on gradients with the given
/// statistics.
fn expected_ratio(kind: &GradCodecKind, stats: &GradStats) -> f64 {
    match kind {
        GradCodecKind::Identity => 1.0,
        GradCodecKind::Fp16 => 2.0,
        GradCodecKind::Fp8 => 4.0,
        // An error-bounded codec removes the bits below the bound; how much
        // that buys scales with how concentrated the values are. A
        // conservative stand-in (measured selection uses real reports).
        GradCodecKind::ErrorBounded { .. } => 4.0 + 8.0 * stats.near_zero_fraction,
        // k values at 8 bytes each replace n values at 4.
        GradCodecKind::TopK { fraction } => 1.0 / (2.0 * *fraction as f64).min(1.0),
        // i16 codes halve the f32 stream regardless of content.
        GradCodecKind::Lattice { .. } => 2.0,
        // Sparse pairs pay 8 bytes per surviving element, with the dense
        // fallback capping the downside just below ratio 1.
        GradCodecKind::SumSketch => {
            let density = (1.0 - stats.near_zero_fraction).max(1.0 / 128.0);
            (1.0 / (2.0 * density)).max(0.99)
        }
    }
}

/// The dense all-reduce codec Equation 2 ranks best for a gradient, and its
/// estimate — what a training report carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseAdvice {
    /// Label of the winning candidate ([`GradCodecKind::label`]).
    pub label: String,
    /// Its Equation-2 all-reduce estimate at the given bandwidth.
    pub estimated_speedup: f64,
    /// Whether the winner rides the homomorphic combine path.
    pub homomorphic: bool,
}

/// The dense-path analogue of the paper's Algorithm-2 table selection: rank
/// the candidate kinds for a gradient with `stats` by Equation 2's
/// all-reduce arm at `bandwidth` (bytes/s) over `world` ranks, each at its
/// price under [`CodecProfile::paper_reference`]. Homomorphic kinds are
/// ranked with their combine throughput, so they win exactly when the
/// eliminated owner-shard decode beats their ratio penalty. Returns the
/// winner and its advice; of equal estimates the later candidate wins.
/// Pure and deterministic, so every rank of an SPMD trainer gives the same
/// advice on the same post-all-reduce gradient.
///
/// Candidates: fp16 and fp8 casts plus the homomorphic lattice (at a
/// gradient-scaled error bound — ~0.1% of max |v| keeps quantization noise
/// well under SGD noise while the i16 range comfortably covers the
/// world-size sum) and the sum sketch always; top-k (keeping roughly the
/// non-near-zero fraction, floored at 5%) when the gradients are at least
/// half near-zero.
pub fn advise_dense(
    stats: &GradStats,
    bandwidth: f64,
    world: usize,
) -> (GradCodecKind, DenseAdvice) {
    let profile = CodecProfile::paper_reference();
    let lattice_eb = (stats.max_abs * 1e-3).max(1e-12);
    let mut candidates = vec![
        GradCodecKind::Fp16,
        GradCodecKind::Fp8,
        GradCodecKind::Lattice {
            error_bound: lattice_eb,
        },
        GradCodecKind::SumSketch,
    ];
    if stats.near_zero_fraction >= 0.5 {
        let fraction = ((1.0 - stats.near_zero_fraction) as f32).max(0.05);
        candidates.push(GradCodecKind::TopK { fraction });
    }
    let (kind, estimated_speedup) = candidates
        .into_iter()
        .map(|kind| {
            let s = dense_estimate(&kind, stats, &profile, bandwidth, world);
            (kind, s)
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("the candidate pool is never empty");
    let advice = DenseAdvice {
        label: kind.label(),
        estimated_speedup,
        homomorphic: kind.is_homomorphic(),
    };
    (kind, advice)
}

/// Equation 2's all-reduce estimate of `kind` on a gradient with `stats`,
/// at the kind's price under `profile`.
fn dense_estimate(
    kind: &GradCodecKind,
    stats: &GradStats,
    profile: &CodecProfile,
    bandwidth: f64,
    world: usize,
) -> f64 {
    let (compress_throughput, decompress_throughput, combine_throughput) = kind
        .price(profile)
        .expect("every dense candidate has a price");
    estimate_speedup(
        SpeedupInputs {
            ratio: expected_ratio(kind, stats),
            compress_throughput,
            decompress_throughput,
            bandwidth,
        },
        Dataflow::AllReduce {
            world,
            combine_throughput,
        },
    )
}

/// [`advise_dense`]'s winner, or [`GradCodecKind::Identity`] when no
/// candidate is estimated to beat the uncompressed exchange.
pub fn select_grad_codec(stats: &GradStats, bandwidth: f64, world: usize) -> GradCodecKind {
    match advise_dense(stats, bandwidth, world) {
        (kind, advice) if advice.estimated_speedup > 1.0 => kind,
        _ => GradCodecKind::Identity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_measure_the_obvious() {
        let stats = GradStats::from_slice(&[0.0, 0.0, 0.0, 4.0]);
        assert_eq!(stats.count, 4);
        assert_eq!(stats.max_abs, 4.0);
        assert!((stats.l2_norm - 4.0).abs() < 1e-12);
        assert!((stats.near_zero_fraction - 0.75).abs() < 1e-12);
        let empty = GradStats::from_slice(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.near_zero_fraction, 1.0);
    }

    #[test]
    fn per_layer_stats_tile_the_vector() {
        let flat: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let layers = per_layer_stats(&flat, &[4, 6]);
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].count, 4);
        assert_eq!(layers[0].max_abs, 3.0);
        assert_eq!(layers[1].max_abs, 9.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_layer_lengths_panic() {
        per_layer_stats(&[1.0, 2.0], &[3]);
    }

    #[test]
    fn selection_exploits_sparsity_and_density() {
        // Near-all-zero gradients: a sparsity codec must win — and with the
        // lossless sum sketch in the pool (ratio ~ 1/(2·density), plus the
        // homomorphic combine bonus) it outranks top-k's floored fraction.
        let mut sparse = vec![0.0f32; 1000];
        sparse[3] = 1.0;
        sparse[700] = -2.0;
        let stats = GradStats::from_slice(&sparse);
        let kind = select_grad_codec(&stats, 8e9, 8);
        assert!(
            matches!(kind, GradCodecKind::TopK { .. } | GradCodecKind::SumSketch),
            "sparse gradients should pick a sparsity codec, got {}",
            kind.label()
        );

        // Dense gradients: no sparsity to exploit, so a fixed-ratio cast or
        // the lattice.
        let dense: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin()).collect();
        let stats = GradStats::from_slice(&dense);
        let kind = select_grad_codec(&stats, 8e9, 8);
        assert!(
            matches!(
                kind,
                GradCodecKind::Fp16 | GradCodecKind::Fp8 | GradCodecKind::Lattice { .. }
            ),
            "dense gradients should pick a ratio-2-class codec, got {}",
            kind.label()
        );
    }

    #[test]
    fn selection_ranks_homomorphic_kinds_with_the_combine_term() {
        // The lattice is ranked with Equation 2's homomorphic arm: one full
        // decode pass disappears and the saturating-add combine is nearly
        // free, so it scores above the classic arm at the same price. The
        // casts advertise no combine and keep the classic arm.
        let dense: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin()).collect();
        let stats = GradStats::from_slice(&dense);
        let profile = CodecProfile::paper_reference();
        let lattice = GradCodecKind::Lattice { error_bound: 1e-3 };
        let (tc, td, tm) = lattice.price(&profile).unwrap();
        assert!(tm.is_some());
        let classic = estimate_speedup(
            SpeedupInputs {
                ratio: expected_ratio(&lattice, &stats),
                compress_throughput: tc,
                decompress_throughput: td,
                bandwidth: 8e9,
            },
            Dataflow::AllReduce {
                world: 8,
                combine_throughput: None,
            },
        );
        assert!(
            dense_estimate(&lattice, &stats, &profile, 8e9, 8) > classic,
            "combine-aware ranking must put the lattice above its classic arm"
        );
        assert!(GradCodecKind::Fp16.price(&profile).unwrap().2.is_none());
    }

    #[test]
    fn one_codec_one_price() {
        // The dense selector ranks each kind at the throughputs the codec
        // bank charges for it (serving's fetch, training's exchange): its
        // estimate is Equation 2 at the bank's figures, for every kind.
        use crate::CodecBank;
        use dlrm_compress::CompressorKind;
        let profile = CodecProfile::paper_reference();
        let stats = GradStats::from_slice(&[0.0, 0.0, 0.0, 4.0]);
        let kinds = [
            GradCodecKind::Fp16,
            GradCodecKind::Fp8,
            GradCodecKind::ErrorBounded {
                compressor: CompressorKind::SzLike,
                error_bound: 1e-3,
            },
            GradCodecKind::TopK { fraction: 0.25 },
            GradCodecKind::Lattice { error_bound: 1e-3 },
            GradCodecKind::SumSketch,
        ];
        for kind in kinds {
            let (tc, td) = CodecBank::new(1, kind.clone())
                .throughput(0, &profile)
                .expect("a lossy codec is charged");
            let combine_throughput = kind.price(&profile).unwrap().2;
            let charged = estimate_speedup(
                SpeedupInputs {
                    ratio: expected_ratio(&kind, &stats),
                    compress_throughput: tc,
                    decompress_throughput: td,
                    bandwidth: 8e9,
                },
                Dataflow::AllReduce {
                    world: 8,
                    combine_throughput,
                },
            );
            let ranked = dense_estimate(&kind, &stats, &profile, 8e9, 8);
            assert_eq!(ranked.to_bits(), charged.to_bits(), "{}", kind.label());
            assert_eq!(combine_throughput.is_some(), kind.is_homomorphic());
        }
        assert!(CodecBank::new(1, GradCodecKind::Identity)
            .throughput(0, &profile)
            .is_none());
    }

    #[test]
    fn dense_advice_weighs_codec_cycles_against_ratio() {
        // Near-all-zero gradients: the lossless sum sketch compresses 64×
        // but pays a scan and a merge per element; the fp8 cast compresses
        // 4× at memory speed. On a slow link the ratio wins the homomorphic
        // sketch; on a fast one the cast's fewer codec cycles win.
        let mut sparse = vec![0.0f32; 1000];
        sparse[3] = 1.0;
        sparse[700] = -2.0;
        let stats = GradStats::from_slice(&sparse);
        let (slow_kind, slow) = advise_dense(&stats, 8e9, 8);
        assert_eq!(slow_kind, GradCodecKind::SumSketch, "{slow:?}");
        assert!(slow.homomorphic);
        assert_eq!(slow.label, slow_kind.label());
        let (fast_kind, fast) = advise_dense(&stats, 200e9, 8);
        assert_eq!(fast_kind, GradCodecKind::Fp8, "{fast:?}");
        assert!(!fast.homomorphic);
        // Deterministic.
        assert_eq!(advise_dense(&stats, 8e9, 8), (slow_kind, slow));
    }

    #[test]
    fn selection_falls_back_to_identity_on_a_single_rank() {
        // world == 1: every estimate is 1.0, so nothing beats uncompressed.
        let stats = GradStats::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(select_grad_codec(&stats, 8e9, 1), GradCodecKind::Identity);
    }
}
