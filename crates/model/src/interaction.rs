//! Dot-product feature interaction.
//!
//! For every sample, DLRM stacks the bottom-MLP output and the lookup vector
//! of every embedding table into `F = num_tables + 1` vectors of length
//! `dim`, computes all pairwise dot products (`F·(F−1)/2` values, the strict
//! lower triangle), and concatenates them with the bottom-MLP output. The
//! result feeds the top MLP.

use dlrm_tensor::Matrix;

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
    // A zero-width tile has no feature rows to walk, not zero-sized ones.
    let row_len = dim.max(1);
    for i in 0..batch {
        let tile = stacked.row(i);
        let (passthrough, pairs) = out.row_mut(i).split_at_mut(dim);
        passthrough.copy_from_slice(&tile[..dim]);
        // Pair (a, b < a) in a-major order: every earlier feature against `va`.
        let mut pairs = pairs.iter_mut();
        for a in 1..features.len() {
            let (earlier, rest) = tile.split_at(a * dim);
            let va = &rest[..dim];
            for (vb, z) in earlier.chunks_exact(row_len).zip(&mut pairs) {
                *z = dlrm_tensor::matrix::dot(va, vb);
            }
        }
    }
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
    // One sample's gradient tile, laid out like its `stacked` row.
    let mut dv = vec![0.0f32; f * dim];
    let row_len = dim.max(1);
    for i in 0..batch {
        let tile = stacked.row(i);
        let (passthrough, pairs) = grad_output.row(i).split_at(dim);
        // Direct pass-through of the concatenated bottom output.
        dv.fill(0.0);
        dv[..dim].copy_from_slice(passthrough);
        // Pairwise dot products: d z_ab / d v_a = v_b and vice versa.
        let mut pairs = pairs.iter();
        for a in 1..f {
            let (earlier, rest) = tile.split_at(a * dim);
            let va = &rest[..dim];
            let (d_earlier, d_rest) = dv.split_at_mut(a * dim);
            let da = &mut d_rest[..dim];
            let rows = earlier.chunks_exact(row_len);
            let d_rows = d_earlier.chunks_exact_mut(row_len);
            for ((vb, db), &g) in rows.zip(d_rows).zip(&mut pairs) {
                if g == 0.0 {
                    continue;
                }
                axpy(da, g, vb);
                axpy(db, g, va);
            }
        }
        for (grad, d) in grads.iter_mut().zip(dv.chunks_exact(row_len)) {
            grad.row_mut(i).copy_from_slice(d);
        }
    }
    let bottom_grad = grads.remove(0);
    (bottom_grad, grads)
}

/// `y += alpha * x` over equal-length contiguous rows.
fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    for (y, x) in y.iter_mut().zip(x) {
        *y += alpha * x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
