//! Row-major dense `f32` matrix.
//!
//! [`Matrix`] is the only tensor type the DLRM reproduction needs: embedding
//! batches, MLP weights and activations are all 2-D. The implementation is
//! deliberately simple — contiguous storage, cache-blocked matmul, inner
//! loops written as fixed-width chunked passes the compiler vectorises — and
//! avoids `unsafe`. Threads live in `dlrm-exec`, one per rank, never here.

use serde::{Deserialize, Serialize};

/// Cache block edge (in elements) for the blocked matmul kernels.
const BLOCK: usize = 64;

/// Independent accumulators of a dot product (see [`dot`]).
const LANES: usize = 8;

/// A dense, row-major matrix of `f32`. The default is the empty `0 x 0`
/// matrix, which owns no storage.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create a matrix from an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Create a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix and return its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutably borrow row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `self @ other` (standard matrix product).
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            let out_row = &mut out.data[r * other.cols..(r + 1) * other.cols];
            matmul_row(self.row(r), &other.data, other.cols, out_row);
        }
        out
    }

    /// `self @ other.T` — useful for computing gradients without materialising
    /// the transpose. Every element is one [`dot`] of two rows.
    pub fn matmul_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_bt shape mismatch: {}x{} @ ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for r in 0..self.rows {
            let a_row = &self.data[r * self.cols..(r + 1) * self.cols];
            let out_row = &mut out.data[r * other.rows..(r + 1) * other.rows];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = dot(a_row, other.row(j));
            }
        }
        out
    }

    /// `self.T @ other` — the other gradient flavour (e.g. weight gradients
    /// `X^T @ dY`).
    pub fn matmul_at(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at shape mismatch: ({}x{})^T @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        // Accumulate rank-1 updates row by row: out += a_row^T * b_row.
        for r in 0..self.rows {
            let a_row = &self.data[r * self.cols..(r + 1) * self.cols];
            let b_row = &other.data[r * other.cols..(r + 1) * other.cols];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Add a row vector (bias) to every row.
    pub fn add_row_vector(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length must equal cols");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, b) in row.iter_mut().zip(bias.iter()) {
                *x += b;
            }
        }
    }

    /// Element-wise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Sum over rows producing a length-`cols` vector (used for bias grads).
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r).iter()) {
                *s += v;
            }
        }
        sums
    }

    /// Horizontally concatenate matrices that share a row count.
    pub fn hconcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hconcat of zero matrices");
        let rows = parts[0].rows;
        for p in parts {
            assert_eq!(p.rows, rows, "hconcat row mismatch");
        }
        let total_cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, total_cols);
        for r in 0..rows {
            let mut offset = 0;
            let out_row = &mut out.data[r * total_cols..(r + 1) * total_cols];
            for p in parts {
                out_row[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Take a contiguous block of rows `[start, start+len)` as a new matrix.
    pub fn row_block(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.rows, "row_block out of bounds");
        Matrix {
            rows: len,
            cols: self.cols,
            data: self.data[start * self.cols..(start + len) * self.cols].to_vec(),
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute element-wise difference against another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// `out_row = a_row @ B` where `B` is `a_row.len() x ocols`, blocked over k.
///
/// Out of line on purpose: inlined into `matmul`'s row loop, the 8-float inner
/// loop straddles a 64-byte line on x86-64 and measures 3–4 % slower.
#[inline(never)]
fn matmul_row(a_row: &[f32], b: &[f32], ocols: usize, out_row: &mut [f32]) {
    out_row.iter_mut().for_each(|x| *x = 0.0);
    let k_total = a_row.len();
    let mut k0 = 0;
    while k0 < k_total {
        let k1 = (k0 + BLOCK).min(k_total);
        for (k, &a) in a_row.iter().enumerate().take(k1).skip(k0) {
            if a == 0.0 {
                continue;
            }
            let b_row = &b[k * ocols..(k + 1) * ocols];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a * bv;
            }
        }
        k0 = k1;
    }
}

/// Dot product of two equal-length slices.
///
/// The reduction order is a function of the length alone: element `k` of the
/// first `len − len % 8` goes to accumulator `k % 8`, the eight accumulators
/// fold pairwise in a fixed tree, then the tail is added left to right. No
/// thread count, CPU feature or caller changes a bit of the result.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot of unequal lengths");
    let (a_chunks, b_chunks) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail = a_chunks.remainder().iter().zip(b_chunks.remainder());
    let mut acc = [0.0f32; LANES];
    for (x, y) in a_chunks.zip(b_chunks) {
        for l in 0..LANES {
            acc[l] += x[l] * y[l];
        }
    }
    let folded = ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
    tail.fold(folded, |sum, (x, y)| sum + x * y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Matrix::from_fn(7, 5, |r, c| (r * 5 + c) as f32 * 0.1 - 1.0);
        let b = Matrix::from_fn(5, 9, |r, c| ((r + 2) * (c + 1)) as f32 * 0.01);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn matmul_across_k_blocks_matches_naive() {
        let a = Matrix::from_fn(130, 70, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.05 - 0.3);
        let b = Matrix::from_fn(70, 90, |r, c| ((r * 17 + c * 3) % 11) as f32 * 0.02 - 0.1);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-3);
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let a = Matrix::from_fn(6, 8, |r, c| (r as f32 - c as f32) * 0.3);
        let b = Matrix::from_fn(4, 8, |r, c| (r as f32 + c as f32) * 0.2);
        let direct = a.matmul_bt(&b);
        let explicit = a.matmul(&b.transpose());
        assert!(direct.max_abs_diff(&explicit) < 1e-4);
    }

    #[test]
    fn matmul_at_equals_explicit_transpose() {
        let a = Matrix::from_fn(10, 4, |r, c| (r as f32 * 0.7 - c as f32 * 0.4).sin());
        let b = Matrix::from_fn(10, 6, |r, c| (r as f32 * 0.2 + c as f32 * 0.9).cos());
        let direct = a.matmul_at(&b);
        let explicit = a.transpose().matmul(&b);
        assert!(direct.max_abs_diff(&explicit) < 1e-4);
    }

    /// `matmul_row` and `matmul_at` skip a left-operand element that is
    /// exactly zero (post-ReLU activations are about half zeros): the right
    /// operand's row is never read, so not even a NaN or an infinity in it
    /// reaches the output.
    #[test]
    fn zero_left_elements_skip_the_right_row() {
        let poisoned = Matrix::from_vec(3, 2, vec![1.0, 2.0, f32::NAN, f32::INFINITY, 3.0, 4.0]);
        let a = Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, -1.0, -0.0, 0.5]);
        assert_eq!(a.matmul(&poisoned).as_slice(), &[7.0, 10.0, 0.5, 0.0]);
        // Same product through the transposed-left flavour.
        let at = a.transpose().matmul_at(&poisoned);
        assert_eq!(at.as_slice(), &[7.0, 10.0, 0.5, 0.0]);
    }

    #[test]
    fn dot_reduces_in_eight_lanes_then_the_tail() {
        // 19 = two full chunks + a tail of 3; half-integers keep it exact.
        let a: Vec<f32> = (0..19).map(|k| (k + 1) as f32).collect();
        let b = vec![0.5f32; 19];
        assert_eq!(dot(&a, &b), 95.0);
        assert_eq!(dot(&[], &[]), 0.0);
        // Lane 0 holds 1e8 − 1e8 = 0 before 1.0 joins at the fold; a serial
        // left-to-right sum would absorb the 1.0 into 1e8 and return 0.
        let mut wide = vec![0.0f32; 16];
        (wide[0], wide[1], wide[8]) = (1e8, 1.0, -1e8);
        assert_eq!(dot(&wide, &[1.0; 16]), 1.0);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 10 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_row_vector_adds_bias() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_vector(&[1.0, -2.0]);
        for r in 0..3 {
            assert_eq!(a.row(r), &[1.0, -2.0]);
        }
    }

    #[test]
    fn hconcat_preserves_rows() {
        let a = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
        let b = Matrix::from_fn(2, 3, |r, c| 10.0 + (r * 3 + c) as f32);
        let cat = Matrix::hconcat(&[&a, &b]);
        assert_eq!(cat.rows(), 2);
        assert_eq!(cat.cols(), 5);
        assert_eq!(cat.row(0), &[0.0, 1.0, 10.0, 11.0, 12.0]);
        assert_eq!(cat.row(1), &[2.0, 3.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn column_sums_sum_rows() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.column_sums(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn row_block_extracts_contiguous_rows() {
        let a = Matrix::from_fn(5, 2, |r, c| (r * 2 + c) as f32);
        let b = a.row_block(1, 3);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.row(0), &[2.0, 3.0]);
        assert_eq!(b.row(2), &[6.0, 7.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
        a.scale(0.25);
        assert_eq!(a.as_slice(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn norm_of_unit_vectors() {
        let a = Matrix::from_vec(1, 4, vec![3.0, 4.0, 0.0, 0.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }
}
