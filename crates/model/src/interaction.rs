//! Dot-product feature interaction.
//!
//! For every sample, DLRM stacks the bottom-MLP output and the lookup vector
//! of every embedding table into `F = num_tables + 1` vectors of length
//! `dim`, computes all pairwise dot products (`F·(F−1)/2` values, the strict
//! lower triangle), and concatenates them with the bottom-MLP output. The
//! result feeds the top MLP.
//!
//! Both passes are one kernel call per batch over the stacked tiles:
//! [`matrix::interact`] and [`matrix::interact_backward`]. Under the
//! error-bounded codecs about half the lookup vectors reaching this layer
//! are exact zero vectors (every value of a large table sits inside the
//! bound). The kernels write such a vector's pairs as `+0.0` without a dot
//! and leave its `±0` terms out of the gradient sums, behind guards that keep
//! every bit of the loops that computed all pairs: a finite tile forward; finite
//! pair gradients and a pass-through gradient with no `-0.0` backward.

use dlrm_tensor::{matrix, Matrix};

/// Number of pairwise interaction terms for `f` feature vectors.
pub fn num_pairs(f: usize) -> usize {
    f * f.saturating_sub(1) / 2
}

/// Output width of the interaction layer: `dim + pairs(num_tables + 1)`.
pub fn output_dim(dim: usize, num_tables: usize) -> usize {
    dim + num_pairs(num_tables + 1)
}

/// Cache of the stacked feature vectors, needed by [`backward`].
#[derive(Debug, Clone)]
pub struct InteractionCache {
    /// Row `i` is sample `i`'s `F x dim` tile, feature-major: the bottom-MLP
    /// output first, then embedding table `t` at feature `t + 1`.
    stacked: Matrix,
    /// `F`, at least 1.
    features: usize,
}

/// Forward pass: returns the `batch x output_dim` interaction output and the
/// cache for the backward pass.
///
/// `bottom` is `batch x dim`; each entry of `embeddings` is `batch x dim`.
pub fn forward(bottom: &Matrix, embeddings: &[Matrix]) -> (Matrix, InteractionCache) {
    let batch = bottom.rows();
    let dim = bottom.cols();
    for (t, e) in embeddings.iter().enumerate() {
        assert_eq!(e.rows(), batch, "table {t}: batch size mismatch");
        assert_eq!(e.cols(), dim, "table {t}: embedding dim mismatch");
    }
    let features: Vec<&Matrix> = std::iter::once(bottom).chain(embeddings).collect();
    let stacked = Matrix::hconcat(&features);

    let mut out = Matrix::zeros(batch, output_dim(dim, embeddings.len()));
    matrix::interact(&stacked, features.len(), &mut out);
    let features = features.len();
    (out, InteractionCache { stacked, features })
}

/// Backward pass: given the gradient w.r.t. the interaction output, produce
/// the gradient w.r.t. the bottom-MLP output and w.r.t. each embedding
/// lookup matrix (one per table, in table order).
pub fn backward(cache: &InteractionCache, grad_output: &Matrix) -> (Matrix, Vec<Matrix>) {
    let InteractionCache { stacked, features } = cache;
    let (batch, f) = (stacked.rows(), *features);
    let dim = stacked.cols() / f;
    assert_eq!(grad_output.rows(), batch);
    assert_eq!(grad_output.cols(), output_dim(dim, f - 1));

    let mut grads: Vec<Matrix> = (0..f).map(|_| Matrix::zeros(batch, dim)).collect();
    matrix::interact_backward(stacked, f, grad_output, &mut grads);
    let bottom_grad = grads.remove(0);
    (bottom_grad, grads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_tensor::SeededRng;
    use std::ops::Range;

    /// Where feature `a`'s pairs `(a, 0..a)` sit among a sample's pair terms.
    fn pair_range(a: usize) -> Range<usize> {
        num_pairs(a)..num_pairs(a + 1)
    }

    /// The per-sample forward loop the batch kernel replaced, kept as the
    /// reference: one `dots` of each feature against the earlier ones.
    fn per_sample_forward(bottom: &Matrix, embeddings: &[Matrix]) -> Matrix {
        let (batch, dim) = (bottom.rows(), bottom.cols());
        let features: Vec<&Matrix> = std::iter::once(bottom).chain(embeddings).collect();
        let stacked = Matrix::hconcat(&features);
        let mut out = Matrix::zeros(batch, output_dim(dim, embeddings.len()));
        for i in 0..batch {
            let tile = stacked.row(i);
            let (passthrough, pairs) = out.row_mut(i).split_at_mut(dim);
            passthrough.copy_from_slice(&tile[..dim]);
            for a in 1..features.len() {
                let (earlier, rest) = tile.split_at(a * dim);
                matrix::dots(&rest[..dim], earlier, &mut pairs[pair_range(a)]);
            }
        }
        out
    }

    /// The per-sample backward loop the batch kernel replaced, kept as the
    /// reference: feature `a`'s gradient is one `vecmat` over the earlier
    /// features, then each earlier one takes `g_ab · v_a` as an `axpy`.
    fn per_sample_backward(cache: &InteractionCache, grad_output: &Matrix) -> Vec<Matrix> {
        let InteractionCache { stacked, features } = cache;
        let (batch, f) = (stacked.rows(), *features);
        let dim = stacked.cols() / f;
        let mut grads: Vec<Matrix> = (0..f).map(|_| Matrix::zeros(batch, dim)).collect();
        let mut dv = vec![0.0f32; f * dim];
        let row_len = dim.max(1);
        for i in 0..batch {
            let tile = stacked.row(i);
            let (passthrough, pairs) = grad_output.row(i).split_at(dim);
            dv.fill(0.0);
            dv[..dim].copy_from_slice(passthrough);
            for a in 1..f {
                let (earlier, rest) = tile.split_at(a * dim);
                let va = &rest[..dim];
                let (d_earlier, d_rest) = dv.split_at_mut(a * dim);
                let g = &pairs[pair_range(a)];
                matrix::vecmat(g, earlier, &mut d_rest[..dim]);
                for (db, &g) in d_earlier.chunks_exact_mut(row_len).zip(g) {
                    if g == 0.0 {
                        continue;
                    }
                    for (y, x) in db.iter_mut().zip(va) {
                        *y += g * x;
                    }
                }
            }
            for (grad, d) in grads.iter_mut().zip(dv.chunks_exact(row_len)) {
                grad.row_mut(i).copy_from_slice(d);
            }
        }
        grads
    }

    /// Bits, with every NaN as one value.
    fn bits(m: &Matrix) -> Vec<u32> {
        let canonical = |v: &f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
        m.as_slice().iter().map(canonical).collect()
    }

    /// The batch kernels equal the per-sample loops bit for bit on codec-like
    /// lookups: zero-free, about half and about nine in ten zero vectors of
    /// both signs, a bottom output that is itself zero, and (on some
    /// samples) an infinity or NaN in the tile, in the pair gradients, or a
    /// `-0.0` in the pass-through gradient, so each guard's fallback runs.
    #[test]
    fn batch_kernels_equal_the_per_sample_loops_bit_for_bit() {
        let mut rng = SeededRng::new(41);
        for f in [1, 2, 27] {
            for dim in [1, 5, 8, 32] {
                for zero_share in [0, 50, 90] {
                    let batch = 9;
                    let mut vector = |sample: usize| -> Vec<f32> {
                        let roll = rng.index(100);
                        let mut v: Vec<f32> = (0..dim).map(|_| rng.uniform(-1.0, 1.0)).collect();
                        if roll < zero_share {
                            let zero = [0.0, -0.0][roll % 2];
                            v.fill(zero);
                        }
                        if sample == 3 && roll.is_multiple_of(7) {
                            v[dim / 2] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][roll % 3];
                        }
                        v
                    };
                    let mut feature = || {
                        let rows: Vec<f32> = (0..batch).flat_map(&mut vector).collect();
                        Matrix::from_vec(batch, dim, rows)
                    };
                    let bottom = feature();
                    let embeddings: Vec<Matrix> = (1..f).map(|_| feature()).collect();
                    let shape = format!("F {f}, dim {dim}, {zero_share} % zero vectors");

                    let (out, cache) = forward(&bottom, &embeddings);
                    let want = per_sample_forward(&bottom, &embeddings);
                    assert_eq!(bits(&out), bits(&want), "forward, {shape}");

                    // Sample 5 holds an infinite pair gradient, sample 6 a
                    // NaN, sample 7 a `-0.0` pass-through gradient; exact
                    // zeros of both signs elsewhere.
                    let grad_out = Matrix::from_fn(batch, out.cols(), |i, c| {
                        match (i, c.checked_sub(dim).map(|p| p % 11)) {
                            (5, Some(3)) => f32::INFINITY,
                            (6, Some(4)) => f32::NAN,
                            (7, None) if c == 0 => -0.0,
                            (_, Some(9)) => -0.0,
                            (_, Some(8)) => 0.0,
                            _ => rng.uniform(-1.0, 1.0),
                        }
                    });
                    let (bottom_grad, emb_grads) = backward(&cache, &grad_out);
                    let want = per_sample_backward(&cache, &grad_out);
                    let got = std::iter::once(&bottom_grad).chain(&emb_grads);
                    for (c, (got, want)) in got.zip(&want).enumerate() {
                        assert_eq!(bits(got), bits(want), "backward, {shape}, feature {c}");
                    }
                }
            }
        }
    }

    fn setup(batch: usize, dim: usize, tables: usize) -> (Matrix, Vec<Matrix>) {
        let bottom = Matrix::from_fn(batch, dim, |r, c| ((r * dim + c) as f32 * 0.31).sin());
        let embeddings = (0..tables)
            .map(|t| {
                Matrix::from_fn(batch, dim, |r, c| {
                    ((t * 100 + r * dim + c) as f32 * 0.17).cos() * 0.5
                })
            })
            .collect();
        (bottom, embeddings)
    }

    /// The pairwise loops the tiled [`forward`] replaced, kept as the
    /// reference: one serial dot per `(a, b < a)` over per-feature matrices.
    fn reference_forward(features: &[&Matrix]) -> Matrix {
        let (batch, dim) = (features[0].rows(), features[0].cols());
        let mut out = Matrix::zeros(batch, output_dim(dim, features.len() - 1));
        for i in 0..batch {
            let row = out.row_mut(i);
            row[..dim].copy_from_slice(features[0].row(i));
            let mut k = dim;
            for a in 0..features.len() {
                for b in 0..a {
                    let (va, vb) = (features[a].row(i), features[b].row(i));
                    row[k] = va.iter().zip(vb).map(|(x, y)| x * y).sum();
                    k += 1;
                }
            }
        }
        out
    }

    /// The element-indexed loops the tiled [`backward`] replaced; returns one
    /// gradient per feature (bottom first).
    fn reference_backward(features: &[&Matrix], grad_output: &Matrix) -> Vec<Matrix> {
        let (batch, dim) = (features[0].rows(), features[0].cols());
        let mut grads: Vec<Matrix> = features.iter().map(|_| Matrix::zeros(batch, dim)).collect();
        for i in 0..batch {
            let grow = grad_output.row(i);
            for (d, g) in grads[0].row_mut(i).iter_mut().zip(grow[..dim].iter()) {
                *d += g;
            }
            let mut k = dim;
            for a in 0..features.len() {
                for b in 0..a {
                    let g = grow[k];
                    k += 1;
                    if g == 0.0 {
                        continue;
                    }
                    for d in 0..dim {
                        let va = features[a].row(i)[d];
                        let vb = features[b].row(i)[d];
                        grads[a].row_mut(i)[d] += g * vb;
                        grads[b].row_mut(i)[d] += g * va;
                    }
                }
            }
        }
        grads
    }

    #[test]
    fn tiled_passes_match_the_pairwise_reference() {
        for f in [1, 2, 27] {
            for dim in [1, 5, 32] {
                for batch in [1, 3] {
                    let (bottom, embs) = setup(batch, dim, f - 1);
                    let features: Vec<&Matrix> = std::iter::once(&bottom).chain(&embs).collect();
                    let shape = format!("F {f}, dim {dim}, batch {batch}");

                    let (out, cache) = forward(&bottom, &embs);
                    let diff = out.max_abs_diff(&reference_forward(&features));
                    assert!(diff < 1e-5, "forward, {shape}: off by {diff}");

                    // A multi-sample batch's last output gradient is exactly
                    // zero, and every third entry elsewhere: the `g == 0.0` skip.
                    let grad_out = Matrix::from_fn(batch, out.cols(), |r, c| {
                        if (batch > 1 && r + 1 == batch) || c % 3 == 2 {
                            0.0
                        } else {
                            ((r * 31 + c) as f32 * 0.4).sin()
                        }
                    });
                    let (bottom_grad, emb_grads) = backward(&cache, &grad_out);
                    assert_eq!(emb_grads.len(), f - 1, "{shape}");
                    let want = reference_backward(&features, &grad_out);
                    let got = std::iter::once(&bottom_grad).chain(&emb_grads);
                    for (t, (got, want)) in got.zip(&want).enumerate() {
                        let diff = got.max_abs_diff(want);
                        assert!(diff < 1e-5, "backward, {shape}, feature {t}: off by {diff}");
                    }
                    if batch > 1 {
                        let last = emb_grads.iter().map(|g| g.row(batch - 1));
                        assert!(
                            last.flatten().all(|&v| v == 0.0),
                            "{shape}: zero output gradient, non-zero embedding gradient"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn output_shape_and_passthrough() {
        let (bottom, embs) = setup(3, 4, 2);
        let (out, _) = forward(&bottom, &embs);
        assert_eq!(out.rows(), 3);
        assert_eq!(out.cols(), output_dim(4, 2)); // 4 + C(3,2)=3 -> 7
        for i in 0..3 {
            assert_eq!(&out.row(i)[..4], bottom.row(i));
        }
    }

    #[test]
    fn dot_products_match_manual_computation() {
        let (bottom, embs) = setup(2, 3, 2);
        let (out, _) = forward(&bottom, &embs);
        // Pairs in order (a=1,b=0), (a=2,b=0), (a=2,b=1).
        for i in 0..2 {
            let v0 = bottom.row(i);
            let v1 = embs[0].row(i);
            let v2 = embs[1].row(i);
            let d = 3;
            let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>();
            assert!((out.row(i)[d] - dot(v1, v0)).abs() < 1e-6);
            assert!((out.row(i)[d + 1] - dot(v2, v0)).abs() < 1e-6);
            assert!((out.row(i)[d + 2] - dot(v2, v1)).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let (bottom, embs) = setup(2, 3, 2);
        let (_, cache) = forward(&bottom, &embs);
        let grad_out = Matrix::from_fn(2, output_dim(3, 2), |r, c| ((r + c) as f32 * 0.4).sin());
        let (bottom_grad, emb_grads) = backward(&cache, &grad_out);

        let loss = |bottom: &Matrix, embs: &[Matrix]| -> f32 {
            let (out, _) = forward(bottom, embs);
            out.as_slice()
                .iter()
                .zip(grad_out.as_slice().iter())
                .map(|(o, g)| o * g)
                .sum()
        };
        let eps = 1e-3f32;
        // Check a few entries of the bottom gradient.
        for &(r, c) in &[(0usize, 0usize), (1, 2)] {
            let mut p = bottom.clone();
            p.set(r, c, bottom.get(r, c) + eps);
            let mut m = bottom.clone();
            m.set(r, c, bottom.get(r, c) - eps);
            let numeric = (loss(&p, &embs) - loss(&m, &embs)) / (2.0 * eps);
            assert!(
                (numeric - bottom_grad.get(r, c)).abs() < 1e-2,
                "bottom ({r},{c}): {numeric} vs {}",
                bottom_grad.get(r, c)
            );
        }
        // Check a few entries of each embedding gradient.
        for t in 0..2 {
            for &(r, c) in &[(0usize, 1usize), (1, 0)] {
                let mut embs_p = embs.clone();
                embs_p[t].set(r, c, embs[t].get(r, c) + eps);
                let mut embs_m = embs.clone();
                embs_m[t].set(r, c, embs[t].get(r, c) - eps);
                let numeric = (loss(&bottom, &embs_p) - loss(&bottom, &embs_m)) / (2.0 * eps);
                assert!(
                    (numeric - emb_grads[t].get(r, c)).abs() < 1e-2,
                    "table {t} ({r},{c}): {numeric} vs {}",
                    emb_grads[t].get(r, c)
                );
            }
        }
    }

    #[test]
    fn zero_tables_degenerates_to_passthrough() {
        let bottom = Matrix::from_fn(2, 4, |r, c| (r + c) as f32);
        let (out, cache) = forward(&bottom, &[]);
        assert_eq!(out.cols(), 4);
        assert_eq!(out, bottom);
        let grad_out = Matrix::filled(2, 4, 1.0);
        let (bg, eg) = backward(&cache, &grad_out);
        assert_eq!(bg, grad_out);
        assert!(eg.is_empty());
    }

    #[test]
    fn pair_counting() {
        assert_eq!(num_pairs(0), 0);
        assert_eq!(num_pairs(1), 0);
        assert_eq!(num_pairs(2), 1);
        assert_eq!(num_pairs(27), 27 * 26 / 2);
        assert_eq!(output_dim(32, 26), 32 + 27 * 26 / 2);
    }

    #[test]
    #[should_panic]
    fn mismatched_embedding_dim_panics() {
        let bottom = Matrix::zeros(2, 4);
        let bad = vec![Matrix::zeros(2, 5)];
        let _ = forward(&bottom, &bad);
    }
}
