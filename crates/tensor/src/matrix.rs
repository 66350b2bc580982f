//! Row-major dense `f32` matrix.
//!
//! [`Matrix`] is the only tensor type the DLRM reproduction needs: embedding
//! batches, MLP weights and activations are all 2-D. Storage is contiguous
//! and row-major. The dense kernels — [`dot`], [`dots`], [`vecmat`], the
//! three matmul flavours built on them and the feature interaction's
//! [`interact`] / [`interact_backward`] — are register-blocked over a private
//! 8-lane vector, and each fixes the sequence of float operations behind
//! every output element as a function of the operand shapes alone. Each
//! kernel is written once and runs on the widest lane path the CPU has,
//! picked once per call: one AVX register where the CPU has AVX, two SSE2
//! registers otherwise ([`lane_path`] names it; `unsafe` is confined to the
//! lane module). The path changes which elements are in flight together,
//! never an element's bits. Threads live in `dlrm-exec`, one per rank, never
//! here.
//!
//! Exact zeros cost nothing and move no bit. `matmul`, `matmul_at` and
//! [`vecmat`] gather the non-zero elements of a left operand with enough
//! zeros (post-ReLU activations, the codec's zeros) into a list once,
//! without branches, and skip exactly what the per-element test skipped.
//! The interaction writes a pair that touches an all-zero vector as `+0.0`
//! (that dot's value) and leaves a zero vector's `±0` terms out of the
//! gradient sums; guards on infinities, NaNs and a `-0.0` pass-through
//! gradient fall back to computing every term where a skip could change a
//! bit. A right operand larger than L1 is walked in row blocks, every output
//! row per block, with the partial sums stored between blocks: the same
//! additions in the same order.

use crate::lanes::{self, Kernel, Lanes, F4};

/// Lanes of the kernels' vector: a dot product's accumulators (see [`dot`]).
const LANES: usize = 8;

/// A dense, row-major matrix of `f32`. The default is the empty `0 x 0`
/// matrix, which owns no storage.
#[derive(Debug, Clone, Default, PartialEq)]
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

    /// `self @ other` (standard matrix product): row `r` is
    /// [`vecmat`]`(self.row(r), other)`, bit for bit.
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
        lanes::dispatch(Products {
            a: &self.data,
            step: (self.cols, 1),
            b: &other.data,
            out: &mut out.data,
            shape: (self.rows, self.cols, other.cols),
        });
        out
    }

    /// `self @ other.T` — useful for computing gradients without materialising
    /// the transpose: row `r` is [`dots`]`(self.row(r), other)`, so every
    /// element is bit for bit one [`dot`] of two rows. On AVX two rows of
    /// `self` run together, sharing each load of `other`.
    pub fn matmul_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_bt shape mismatch: {}x{} @ ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        lanes::dispatch(Dots {
            a: &self.data,
            rows: &other.data,
            out: &mut out.data,
            shape: (self.rows, self.cols, other.rows),
        });
        out
    }

    /// `self.T @ other` — the other gradient flavour (e.g. weight gradients
    /// `X^T @ dY`): row `i` is [`vecmat`] of column `i` of `self` with
    /// `other`, so element `(i, j)` sums `self(r, i) · other(r, j)` over
    /// ascending `r`, skipping every `self(r, i)` that is exactly zero.
    pub fn matmul_at(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at shape mismatch: ({}x{})^T @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        lanes::dispatch(Products {
            a: &self.data,
            step: (1, self.cols),
            b: &other.data,
            out: &mut out.data,
            shape: (self.cols, self.rows, other.cols),
        });
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

/// The lane path [`dot`], [`dots`], [`vecmat`] and the matmul flavours run
/// on, on this CPU: `"avx"` where it has AVX, else `"sse2"` on x86_64 and
/// `"portable"` elsewhere. Every path gives the same bits; only the CPU picks.
pub fn lane_path() -> &'static str {
    lanes::path()
}

/// `out = x · B`, where `B` is the row-major `x.len() × out.len()` matrix
/// `b`; `out` is overwritten.
///
/// Element `j` starts at `+0.0` and adds `x[k] · B(k, j)` for ascending `k`,
/// skipping every `x[k]` that is exactly zero (post-ReLU inputs are about
/// half zeros), so no value in a skipped row of `B` — not even a NaN or an
/// infinity — reaches `out`. When at least one `x[k]` in eight is zero, the
/// non-zero ones are first gathered, without a branch, into a list of
/// `(k, x[k])`, and the strips run over that list instead of testing each
/// element. Each strip of `out` stays in registers across the whole
/// reduction: on AVX 64 columns in eight registers, then at most one
/// 32-column strip in four; on SSE2 32 columns in eight. The
/// `out.len() % 32` tail columns take the same steps one float at a time.
///
/// # Panics
/// Panics if `b.len() != x.len() * out.len()`.
pub fn vecmat(x: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(b.len(), x.len() * out.len(), "vecmat shape mismatch");
    out.fill(0.0);
    lanes::dispatch(Products {
        a: x,
        step: (0, 1),
        b,
        shape: (1, x.len(), out.len()),
        out,
    });
}

// `Products` and `Dots` carry their shapes and walk rows by index: deriving
// a shape or running a chunk iterator costs a run-time division per call.

/// The `m` rows of [`vecmat`] behind `matmul`, `matmul_at` and `vecmat`:
/// row `r` of the row-major `m × n` `out` is `vecmat` of the left operand
/// whose element `k` is `a[r · step.0 + k · step.1]` (a row, or a column for
/// `matmul_at`) with the row-major `k × n` matrix `b`, where
/// `shape = (m, k, n)`. `out` must hold `+0.0`. When at least one left
/// element in [`GATHER_SHARE`] is exactly zero, every row is [`gather`]ed
/// first; otherwise the rows run in place. A `b` larger than L1 is walked
/// in blocks of [`BLOCK_FLOATS`], every row at a time.
struct Products<'a> {
    a: &'a [f32],
    step: (usize, usize),
    b: &'a [f32],
    out: &'a mut [f32],
    shape: (usize, usize, usize),
}

impl Kernel for Products<'_> {
    type Output = ();

    #[inline(always)]
    fn body<L: Lanes>(self, lanes: L) {
        let Self {
            a,
            step,
            b,
            out,
            shape: (m, k, n),
        } = self;
        // One counting pass in memory order (it vectorises) picks the path.
        let zeros = a.iter().filter(|&&v| v == 0.0).count();
        let gathered = zeros * GATHER_SHARE >= a.len() && zeros > 0;
        let left = |r: usize| Left {
            a,
            start: r * step.0,
            step: step.1,
            len: k,
        };
        // Row `r`'s kept terms are `terms[r * k..][..kept[r]]`.
        let (mut terms, mut kept) = (Vec::new(), Vec::new());
        if gathered {
            terms.resize(m * k, (0, 0.0));
            kept = (0..m)
                .map(|r| gather(left(r), &mut terms[r * k..(r + 1) * k]))
                .collect();
        }
        // A block of `b`'s rows stays in L1 while every row of `out` adds
        // its terms from that block: `out` holds the partial sums between
        // blocks, so each element's additions keep their order. A `b` that
        // fits in L1 is one block.
        let block = match k * n <= 2 * BLOCK_FLOATS {
            true => k.max(1),
            false => (BLOCK_FLOATS / n).max(1),
        };
        let mut next = vec![0; if gathered { m } else { 0 }];
        for k0 in (0..k).step_by(block) {
            let k1 = (k0 + block).min(k);
            for r in 0..m {
                let out = &mut out[r * n..(r + 1) * n];
                if gathered {
                    let row = &terms[r * k..r * k + kept[r]];
                    let start = next[r];
                    next[r] += row[start..].partition_point(|&(j, _)| (j as usize) < k1);
                    vecmat_row(lanes, Terms::Kept(&row[start..next[r]]), b, out);
                } else {
                    let x = Left {
                        start: r * step.0 + k0 * step.1,
                        len: k1 - k0,
                        ..left(r)
                    };
                    vecmat_row(lanes, Terms::All(x), &b[k0 * n..k1 * n], out);
                }
            }
        }
    }
}

/// Floats of the right operand's row block [`Products`] keeps in L1 (16 KiB,
/// a third of the 48 KiB L1 of the machines this was tuned on): 2048 ran
/// slower, on the partial sums' extra loads and stores, and 8192 let the
/// block fall out of L1.
const BLOCK_FLOATS: usize = 4096;

/// [`Products`] gathers its rows when at least one element of its left
/// operand in `GATHER_SHARE` is exactly zero. Below that the per-element
/// test rarely fires and costs less than the list; on scattered zeros
/// (post-ReLU, about half) it mispredicts, and the list runs ≈ 1.8× faster.
const GATHER_SHARE: usize = 8;

/// A left operand of [`vecmat`]: element `k < len` is `a[start + k · step]`.
#[derive(Clone, Copy)]
struct Left<'a> {
    a: &'a [f32],
    start: usize,
    step: usize,
    len: usize,
}

impl Left<'_> {
    #[inline(always)]
    fn get(self, k: usize) -> f32 {
        self.a[self.start + k * self.step]
    }
}

/// One gathered element `(k, x[k])` of a left operand: the row of the right
/// operand it scales, and its value.
type Term = (u32, f32);

/// The terms [`vecmat_row`] sums, in ascending `k`.
#[derive(Clone, Copy)]
enum Terms<'a> {
    /// The elements of a left operand that are not exactly zero, skipped
    /// one branch at a time.
    All(Left<'a>),
    /// Gathered elements.
    Kept(&'a [Term]),
}

/// Write `(k, x[k])` for every element of `x` that is not exactly zero (a
/// NaN is not) to the front of `terms`, in ascending `k`, and return how
/// many: exactly the elements [`vecmat`]'s skip keeps. There is no branch:
/// every element is written, and the count moves past the kept ones.
///
/// # Panics
/// Panics if `terms` is shorter than `x`.
#[inline(always)]
fn gather(x: Left, terms: &mut [Term]) -> usize {
    let terms = &mut terms[..x.len];
    let mut kept = 0;
    for k in 0..x.len {
        let v = x.get(k);
        terms[kept] = (k as u32, v);
        kept += usize::from(v != 0.0);
    }
    kept
}

/// `out += x · B` on `lanes`: strips of `out` in registers, then the tail
/// columns one float at a time. Element `j` adds `x_k · B(k, j)` to its
/// starting value for each term of `x`, in ascending `k`.
#[inline(always)]
fn vecmat_row<L: Lanes>(lanes: L, x: Terms, b: &[f32], out: &mut [f32]) {
    let n = out.len();
    let mut j0 = 0;
    // Eight accumulator registers: 64 columns in `F8`s, else 32.
    if L::REGISTERS == 1 {
        while n - j0 >= 8 * LANES {
            strip::<L, 8>(lanes, x, b, (n, j0), out);
            j0 += 8 * LANES;
        }
    }
    while n - j0 >= 4 * LANES {
        strip::<L, 4>(lanes, x, b, (n, j0), out);
        j0 += 4 * LANES;
    }
    let tail = &mut out[j0..];
    if tail.is_empty() {
        return;
    }
    let mut add = |k: usize, a: f32| {
        for (o, &bv) in tail.iter_mut().zip(&b[k * n + j0..(k + 1) * n]) {
            *o += a * bv;
        }
    };
    match x {
        Terms::All(x) => (0..x.len)
            .filter(|&k| x.get(k) != 0.0)
            .for_each(|k| add(k, x.get(k))),
        Terms::Kept(x) => x.iter().for_each(|&(k, a)| add(k as usize, a)),
    }
}

/// Columns `j0..j0 + 8·W` of [`vecmat_row`] with an `n`-column `b`: `W`
/// accumulators loaded from `out`, held across the whole term list, then
/// stored back.
#[inline(always)]
fn strip<L: Lanes, const W: usize>(
    lanes: L,
    x: Terms,
    b: &[f32],
    (n, j0): (usize, usize),
    out: &mut [f32],
) {
    let out = &mut out[j0..j0 + W * LANES];
    let mut acc = [lanes.zero(); W];
    for (acc, out) in acc.iter_mut().zip(out.chunks_exact(LANES)) {
        *acc = lanes.load(out);
    }
    match x {
        Terms::All(x) => {
            for k in 0..x.len {
                let (a, start) = (x.get(k), k * n + j0);
                if a != 0.0 {
                    strip_term(lanes, &mut acc, a, &b[start..start + W * LANES]);
                }
            }
        }
        Terms::Kept(x) => {
            for &(k, a) in x {
                let start = k as usize * n + j0;
                strip_term(lanes, &mut acc, a, &b[start..start + W * LANES]);
            }
        }
    }
    for (acc, out) in acc.into_iter().zip(out.chunks_exact_mut(LANES)) {
        lanes.store(acc, out);
    }
}

/// `acc += a · row`, lane by lane, for a `row` of `8·W` floats.
#[inline(always)]
fn strip_term<L: Lanes, const W: usize>(lanes: L, acc: &mut [L::V; W], a: f32, row: &[f32]) {
    let a = lanes.splat(a);
    for (acc, row) in acc.iter_mut().zip(row.chunks_exact(LANES)) {
        *acc = *acc + a * lanes.load(row);
    }
}

/// Dot product of two equal-length slices.
///
/// The reduction order is a function of the length alone: element `k` of the
/// first `len − len % 8` goes to accumulator `k % 8`, the eight accumulators
/// fold in the fixed tree `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))`, then the
/// tail is added left to right. The accumulators are one 8-lane vector (one
/// AVX register, or two 4-lane halves `lo` and `hi`), so the fold is
/// `t = lo + hi`, then `(t0+t2)+(t1+t3)`. No thread count, CPU feature or
/// caller changes a bit of the result.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot of unequal lengths");
    let mut out = [0.0];
    dots(a, b, &mut out);
    out[0]
}

/// [`dot`] on `lanes`.
#[inline(always)]
fn dot_with<L: Lanes>(lanes: L, a: &[f32], b: &[f32]) -> f32 {
    let body = a.len() - a.len() % LANES;
    let mut acc = lanes.zero();
    let chunks = a[..body]
        .chunks_exact(LANES)
        .zip(b[..body].chunks_exact(LANES));
    for (x, y) in chunks {
        acc = acc + lanes.load(x) * lanes.load(y);
    }
    let [t0, t1, t2, t3] = lanes.fold_halves(acc).to_array();
    add_products((t0 + t2) + (t1 + t3), &a[body..], &b[body..])
}

/// `out[j] = dot(x, B(j))` for every row `j` of the row-major
/// `out.len() × x.len()` matrix `rows`, bit for bit.
///
/// Four rows are in flight at a time, each dot as [`dot`]'s 8-lane
/// accumulator (four registers on AVX, eight on SSE2), sharing the loads of
/// `x`; a 4×4 transpose then folds all four at once in `dot`'s tree. The
/// `out.len() % 4` last rows go through [`dot`]'s own loop.
///
/// # Panics
/// Panics if `rows.len() != x.len() * out.len()`.
pub fn dots(x: &[f32], rows: &[f32], out: &mut [f32]) {
    let len = x.len();
    assert_eq!(rows.len(), len * out.len(), "dots shape mismatch");
    lanes::dispatch(Dots {
        a: x,
        rows,
        shape: (1, len, out.len()),
        out,
    });
}

/// The `m` rows of [`dots`] behind `matmul_bt`, `dots` and `dot`: row `r`
/// of the row-major `m × n` `out` is `dots` of row `r` of the row-major
/// `m × len` `a` with the row-major `n × len` `rows`, where
/// `shape = (m, len, n)`.
struct Dots<'a> {
    a: &'a [f32],
    rows: &'a [f32],
    out: &'a mut [f32],
    shape: (usize, usize, usize),
}

impl Kernel for Dots<'_> {
    type Output = ();

    #[inline(always)]
    fn body<L: Lanes>(self, lanes: L) {
        let Self {
            a,
            rows,
            out,
            shape: (m, len, n),
        } = self;
        let x = |r: usize| &a[r * len..(r + 1) * len];
        let mut r = 0;
        // On AVX two rows of `a` share each load of `rows`: their eight
        // accumulators fit in eight registers.
        while L::REGISTERS == 1 && r + 2 <= m {
            let (o0, o1) = out[r * n..(r + 2) * n].split_at_mut(n);
            dots_rows(lanes, [x(r), x(r + 1)], rows, [o0, o1]);
            r += 2;
        }
        for r in r..m {
            dots_rows(lanes, [x(r)], rows, [&mut out[r * n..(r + 1) * n]]);
        }
    }
}

/// [`dots`] of `R` rows `xs`, all `len` long, against the same `rows` on
/// `lanes`: four rows of `rows` at a time through [`dot4`], the
/// `out.len() % 4` last ones through [`dot`]'s loop.
#[inline(always)]
fn dots_rows<L: Lanes, const R: usize>(
    lanes: L,
    xs: [&[f32]; R],
    rows: &[f32],
    mut outs: [&mut [f32]; R],
) {
    let (len, n) = (xs[0].len(), outs[0].len());
    let row = |j: usize| &rows[j * len..(j + 1) * len];
    let quads = n - n % 4;
    for j in (0..quads).step_by(4) {
        let sums = dot4(lanes, xs, [row(j), row(j + 1), row(j + 2), row(j + 3)]);
        for (out, sums) in outs.iter_mut().zip(sums) {
            out[j..j + 4].copy_from_slice(&sums);
        }
    }
    for j in quads..n {
        for (out, x) in outs.iter_mut().zip(xs) {
            out[j] = dot_with(lanes, x, row(j));
        }
    }
}

/// `[dot(x, b[0]), …, dot(x, b[3])]` for every `x` of `xs`, with the `4·R`
/// reductions interleaved: each load of a `b` row serves every `x`.
#[inline(always)]
fn dot4<L: Lanes, const R: usize>(lanes: L, xs: [&[f32]; R], b: [&[f32]; 4]) -> [[f32; 4]; R] {
    let len = xs[0].len();
    let body = len - len % LANES;
    let (xs, b) = (xs.map(|x| &x[..len]), b.map(|b| &b[..len]));
    let mut acc = [[lanes.zero(); 4]; R];
    for k in (0..body).step_by(LANES) {
        let mut xk = [lanes.zero(); R];
        for (xk, x) in xk.iter_mut().zip(xs) {
            *xk = lanes.load(&x[k..]);
        }
        for (j, b) in b.iter().enumerate() {
            let v = lanes.load(&b[k..]);
            for (acc, &x) in acc.iter_mut().zip(&xk) {
                acc[j] = acc[j] + x * v;
            }
        }
    }
    let mut sums = [[0.0; 4]; R];
    for ((sums, [s0, s1, s2, s3]), x) in sums.iter_mut().zip(acc).zip(xs) {
        // Lane `l` of `t[j]` is `dot`'s `t_l` for row `j`; after the
        // transpose, lane `j` of `s[l]` is, so one vector fold serves all
        // four rows.
        let [s0, s1, s2, s3] = F4::transpose([
            lanes.fold_halves(s0),
            lanes.fold_halves(s1),
            lanes.fold_halves(s2),
            lanes.fold_halves(s3),
        ]);
        *sums = ((s0 + s2) + (s1 + s3)).to_array();
        for (sum, b) in sums.iter_mut().zip(b) {
            *sum = add_products(*sum, &x[body..], &b[body..]);
        }
    }
    sums
}

/// `sum + a[0]·b[0] + a[1]·b[1] + …`, left to right: a dot product's tail.
fn add_products(sum: f32, a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).fold(sum, |sum, (x, y)| sum + x * y)
}

/// The feature interaction of a DLRM, forward, over a batch of tiles, in one
/// kernel call.
///
/// Row `i` of `tiles` is sample `i`'s tile: `features` vectors
/// `v_0 … v_{F−1}` of `dim = tiles.cols() / features` floats, one after the
/// other. Row `i` of `out` (`dim + F·(F−1)/2` wide) becomes `v_0` (the
/// pass-through), then `dot(v_a, v_b)` for `a = 1..F` and `b = 0..a`, each
/// bit for bit [`dot`].
///
/// When every element of a tile is finite, a vector whose elements are all
/// `±0` takes part in no dot: each of its pairs is written as `+0.0`, which
/// is that dot's value (every product is `±0`, the accumulators start at
/// `+0.0`, and `+0.0 + -0.0 = +0.0`). The other vectors are packed together
/// and their pairs run through [`dots`]'s four-row blocks. A tile holding an
/// infinity or a NaN computes every pair.
///
/// # Panics
/// Panics if `features` is zero or does not divide `tiles.cols()`, or if
/// `out` is not `tiles.rows() × (dim + F·(F−1)/2)`.
pub fn interact(tiles: &Matrix, features: usize, out: &mut Matrix) {
    let (batch, dim) = tile_shape(tiles, features);
    assert_eq!(
        (out.rows, out.cols),
        (batch, dim + pairs(features)),
        "interaction output shape mismatch"
    );
    lanes::dispatch(Interact {
        tiles: &tiles.data,
        out: &mut out.data,
        shape: (batch, features, dim),
    });
}

/// The feature interaction's backward pass, over a batch of tiles, in one
/// kernel call: `grads[c]` (`batch × dim`) becomes the gradient of feature
/// `c` for the tiles and the output gradient `grad_out` of [`interact`].
///
/// Row `i` of `grads[c]` starts at the pass-through gradient for `c = 0`
/// and at `+0.0` otherwise, then adds `g_cp · v_p` for every partner
/// `p ≠ c` in ascending `p`, where `g_cp` is the output gradient of pair
/// `(max(c, p), min(c, p))` and every `g_cp` that is exactly zero is
/// skipped. Each row is summed in registers, as [`vecmat`] sums its strips.
///
/// When a sample's pair gradients are all finite and its pass-through
/// gradient holds no `-0.0`, the terms of partners whose elements are all
/// `±0` are left out too: each is `±0`, and a sum that starts at `+0.0` or
/// at a pass-through with no `-0.0` is never `-0.0`, so adding it would
/// change no bit. Otherwise every partner is summed.
///
/// # Panics
/// Panics on the shapes [`interact`] panics on, if `grad_out` is not the
/// shape of its output, or if `grads` is not `features` matrices of
/// `batch × dim`.
pub fn interact_backward(tiles: &Matrix, features: usize, grad_out: &Matrix, grads: &mut [Matrix]) {
    let (batch, dim) = tile_shape(tiles, features);
    assert_eq!(
        (grad_out.rows, grad_out.cols),
        (batch, dim + pairs(features)),
        "interaction output gradient shape mismatch"
    );
    assert_eq!(grads.len(), features, "one gradient per feature");
    for grad in grads.iter() {
        assert_eq!(
            (grad.rows, grad.cols),
            (batch, dim),
            "feature gradient shape mismatch"
        );
    }
    lanes::dispatch(InteractBackward {
        tiles: &tiles.data,
        grad_out: &grad_out.data,
        grads,
        shape: (batch, features, dim),
    });
}

/// `(batch, dim)` of `tiles` holding `features` vectors per row.
fn tile_shape(tiles: &Matrix, features: usize) -> (usize, usize) {
    assert!(features > 0, "a tile needs at least one feature");
    assert_eq!(tiles.cols % features, 0, "tile width is not features x dim");
    (tiles.rows, tiles.cols / features)
}

/// Pairs `(a, b < a)` among `f` vectors.
fn pairs(f: usize) -> usize {
    f * f.saturating_sub(1) / 2
}

/// The largest magnitude in `v` as a bit pattern: `0` if every element is
/// `±0`, below [`INFINITE`] if every element is finite. A max reduction, so
/// it vectorises.
#[inline(always)]
fn magnitude(v: &[f32]) -> u32 {
    v.iter().fold(0, |max, x| max.max(x.to_bits() & !SIGN))
}

/// The sign bit of an `f32`.
const SIGN: u32 = 1 << 31;

/// The smallest magnitude, as bits, that is not finite.
const INFINITE: u32 = f32::INFINITY.to_bits();

/// Set `live` to the features, given their vectors' [`magnitude`]s, that
/// take part in the interaction: every one, or, if `skip_zero_vectors`,
/// those with an element that is not `±0`.
#[inline(always)]
fn live_features(magnitudes: &[u32], skip_zero_vectors: bool, live: &mut Vec<usize>) {
    live.clear();
    for (a, &magnitude) in magnitudes.iter().enumerate() {
        if !(skip_zero_vectors && magnitude == 0) {
            live.push(a);
        }
    }
}

/// [`interact`]'s body: `shape = (batch, features, dim)`.
struct Interact<'a> {
    tiles: &'a [f32],
    out: &'a mut [f32],
    shape: (usize, usize, usize),
}

impl Kernel for Interact<'_> {
    type Output = ();

    #[inline(always)]
    fn body<L: Lanes>(self, lanes: L) {
        let Self {
            tiles,
            out,
            shape: (batch, f, dim),
        } = self;
        let (tile_len, out_len) = (f * dim, dim + pairs(f));
        let mut live = Vec::with_capacity(f);
        let (mut packed, mut sums) = (vec![0.0; tile_len], vec![0.0; 2 * f]);
        let mut magnitudes = vec![0; f];
        for i in 0..batch {
            let tile = &tiles[i * tile_len..(i + 1) * tile_len];
            let (pass, out) = out[i * out_len..(i + 1) * out_len].split_at_mut(dim);
            pass.copy_from_slice(&tile[..dim]);
            for (a, magnitude) in magnitudes.iter_mut().enumerate() {
                *magnitude = self::magnitude(&tile[a * dim..(a + 1) * dim]);
            }
            let finite = magnitudes.iter().all(|&m| m < INFINITE);
            live_features(&magnitudes, finite, &mut live);
            let rows = if live.len() == f {
                tile
            } else {
                out.fill(0.0);
                for (to, &a) in packed.chunks_exact_mut(dim.max(1)).zip(&live) {
                    to.copy_from_slice(&tile[a * dim..(a + 1) * dim]);
                }
                &packed[..live.len() * dim]
            };
            let row = |a_: usize| &rows[a_ * dim..(a_ + 1) * dim];
            // Live vector `a'` against the live ones before it; on AVX two
            // at a time, sharing each load of the earlier ones, as `Dots`.
            let mut a_ = 1;
            while a_ < live.len() {
                let (s0, s1) = sums.split_at_mut(f);
                let earlier = &rows[..a_ * dim];
                let step = if L::REGISTERS == 1 && a_ + 1 < live.len() {
                    let (x0, x1) = (row(a_), row(a_ + 1));
                    dots_rows(lanes, [x0, x1], earlier, [&mut s0[..a_], &mut s1[..a_]]);
                    s1[a_] = dot_with(lanes, x1, x0);
                    2
                } else {
                    dots_rows(lanes, [row(a_)], earlier, [&mut s0[..a_]]);
                    1
                };
                // Each new live vector's dots go to its pairs' columns.
                for (j, sums) in [&s0[..], &s1[..]].into_iter().take(step).enumerate() {
                    let out = &mut out[pairs(live[a_ + j])..];
                    for (&b, &sum) in live[..a_ + j].iter().zip(sums) {
                        out[b] = sum;
                    }
                }
                a_ += step;
            }
        }
    }
}

/// [`interact_backward`]'s body: `shape = (batch, features, dim)`.
struct InteractBackward<'a> {
    tiles: &'a [f32],
    grad_out: &'a [f32],
    grads: &'a mut [Matrix],
    shape: (usize, usize, usize),
}

impl Kernel for InteractBackward<'_> {
    type Output = ();

    #[inline(always)]
    fn body<L: Lanes>(self, lanes: L) {
        let Self {
            tiles,
            grad_out,
            grads,
            shape: (batch, f, dim),
        } = self;
        let (tile_len, out_len) = (f * dim, dim + pairs(f));
        let mut live = Vec::with_capacity(f);
        // One sample's pair gradients as a symmetric `f × f` matrix with a
        // zero diagonal: row `c` holds `g_cp` for every `p`.
        let mut square = vec![0.0; f * f];
        let mut magnitudes = vec![0; f];
        let mut terms = vec![(0, 0.0); f];
        for i in 0..batch {
            let tile = &tiles[i * tile_len..(i + 1) * tile_len];
            let (pass, g) = grad_out[i * out_len..(i + 1) * out_len].split_at(dim);
            for (a, magnitude) in magnitudes.iter_mut().enumerate() {
                *magnitude = self::magnitude(&tile[a * dim..(a + 1) * dim]);
            }
            let no_negative_zero = pass.iter().all(|x| x.to_bits() != SIGN);
            live_features(
                &magnitudes,
                magnitude(g) < INFINITE && no_negative_zero,
                &mut live,
            );
            for a in 1..f {
                for (b, &g) in g[pairs(a)..pairs(a + 1)].iter().enumerate() {
                    (square[a * f + b], square[b * f + a]) = (g, g);
                }
            }
            for (c, grad) in grads.iter_mut().enumerate() {
                // The live partners' pair gradients, gathered as in `gather`.
                let g = &square[c * f..(c + 1) * f];
                let mut kept = 0;
                for &p in &live {
                    terms[kept] = (p as u32, g[p]);
                    kept += usize::from(g[p] != 0.0);
                }
                let row = &mut grad.data[i * dim..(i + 1) * dim];
                if c == 0 {
                    row.copy_from_slice(pass);
                } else {
                    row.fill(0.0);
                }
                vecmat_row(lanes, Terms::Kept(&terms[..kept]), tile, row);
            }
        }
    }
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

    /// `matmul` and `matmul_at` skip a left-operand element that is
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

    /// About `zero_share` % signed zeros (so `vecmat` skips them, and at
    /// half or more gathers its rows); when `special` is set, 1.5 %
    /// infinities of both signs and NaNs; the rest uniform in `[-1, 1)`.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    fn operand(
        (rows, cols): (usize, usize),
        zero_share: usize,
        special: bool,
        rng: &mut crate::SeededRng,
    ) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| match rng.index(200) {
            100 if special => f32::INFINITY,
            101 if special => f32::NEG_INFINITY,
            102 if special => f32::NAN,
            roll if rng.index(100) < zero_share => [0.0, -0.0][roll % 2],
            _ => rng.uniform(-1.0, 1.0),
        })
    }

    /// The three kernels' outputs on `lanes`, called directly: `a · b`,
    /// `at^T · b` and `a · bt^T`.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    fn kernel_outputs<L: Lanes>(
        lanes: L,
        a: &Matrix,
        at: &Matrix,
        b: &Matrix,
        bt: &Matrix,
    ) -> [Vec<u32>; 3] {
        let n = b.cols();
        let mut product = vec![0.0; a.rows() * n];
        lanes.run(Products {
            a: a.as_slice(),
            step: (a.cols(), 1),
            b: b.as_slice(),
            out: &mut product,
            shape: (a.rows(), a.cols(), n),
        });
        let mut product_at = vec![0.0; at.cols() * n];
        lanes.run(Products {
            a: at.as_slice(),
            step: (1, at.cols()),
            b: b.as_slice(),
            out: &mut product_at,
            shape: (at.cols(), at.rows(), n),
        });
        let mut dots = vec![0.0; a.rows() * bt.rows()];
        lanes.run(Dots {
            a: a.as_slice(),
            rows: bt.as_slice(),
            out: &mut dots,
            shape: (a.rows(), a.cols(), bt.rows()),
        });
        [
            canonical(&product),
            canonical(&product_at),
            canonical(&dots),
        ]
    }

    /// Bits with every NaN as one value: IEEE fixes whether a result is NaN,
    /// not which payload it carries.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    fn canonical(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
            .collect()
    }

    /// The interaction kernels' outputs on `lanes`, called directly: the
    /// forward output, then every feature's gradient.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    fn interaction_outputs<L: Lanes>(
        lanes: L,
        tiles: &Matrix,
        f: usize,
        grad_out: &Matrix,
    ) -> Vec<Vec<u32>> {
        let (batch, dim) = (tiles.rows(), tiles.cols() / f);
        let mut out = vec![0.0; grad_out.len()];
        lanes.run(Interact {
            tiles: tiles.as_slice(),
            out: &mut out,
            shape: (batch, f, dim),
        });
        let mut grads: Vec<Matrix> = (0..f).map(|_| Matrix::zeros(batch, dim)).collect();
        lanes.run(InteractBackward {
            tiles: tiles.as_slice(),
            grad_out: grad_out.as_slice(),
            grads: &mut grads,
            shape: (batch, f, dim),
        });
        std::iter::once(canonical(&out))
            .chain(grads.iter().map(|g| canonical(g.as_slice())))
            .collect()
    }

    /// The AVX body and the base (SSE2) body of every kernel, each called
    /// directly, agree bit for bit: inner lengths around the 8-lane edges,
    /// output widths around the 32- and 64-column strips and the 4-row
    /// quads, five left rows (two AVX `dots` row pairs and a single row),
    /// no zeros, about half or nine in ten (gathered rows), ±inf and NaN;
    /// and both interaction kernels at F ∈ {1, 2, 27}, dim ∈ {1, 5, 8, 32},
    /// with about half the vectors zero (either sign), a `-0.0` pass-through
    /// gradient and infinities or NaNs where a zero vector meets them.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    #[test]
    fn avx_and_sse2_bodies_agree_bit_for_bit() {
        let Some(avx) = lanes::Avx::detect() else {
            eprintln!("this CPU has no AVX: only the SSE2 body runs here");
            return;
        };
        const INNER: [usize; 9] = [0, 1, 7, 8, 9, 63, 64, 65, 383];
        const WIDTHS: [usize; 16] = [0, 1, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65, 95, 96, 97, 129];
        let m = 5;
        let mut rng = crate::SeededRng::new(31);
        for inner in INNER {
            for n in WIDTHS {
                for zero_share in [0, 50, 90] {
                    for special in [false, true] {
                        let mut operand = |shape| operand(shape, zero_share, special, &mut rng);
                        let (a, at) = (operand((m, inner)), operand((inner, m)));
                        let (b, bt) = (operand((inner, n)), operand((n, inner)));
                        let sse2 = kernel_outputs(lanes::Base, &a, &at, &b, &bt);
                        let avx = kernel_outputs(avx, &a, &at, &b, &bt);
                        for (kernel, (sse2, avx)) in ["matmul", "matmul_at", "dots"]
                            .iter()
                            .zip(sse2.iter().zip(&avx))
                        {
                            assert_eq!(
                                sse2, avx,
                                "{kernel}, {m} x {inner} x {n}, {zero_share} % zeros, special values {special}"
                            );
                        }
                    }
                }
            }
        }
        for f in [1, 2, 27] {
            for dim in [1, 5, 8, 32] {
                for special in [false, true] {
                    let batch = 7;
                    let mut tiles = operand((batch, f * dim), 0, special, &mut rng);
                    for i in 0..batch {
                        for v in tiles.row_mut(i).chunks_exact_mut(dim) {
                            if rng.index(2) == 0 {
                                v.fill([0.0, -0.0][rng.index(2)]);
                            }
                        }
                    }
                    let width = dim + f * (f - 1) / 2;
                    let mut grad_out = operand((batch, width), 30, special, &mut rng);
                    grad_out.row_mut(0)[0] = -0.0;
                    let sse2 = interaction_outputs(lanes::Base, &tiles, f, &grad_out);
                    let avx = interaction_outputs(avx, &tiles, f, &grad_out);
                    assert_eq!(
                        sse2, avx,
                        "interaction, F {f}, dim {dim}, special values {special}"
                    );
                }
            }
        }
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
