//! The dense kernels bit for bit against scalar loops written in their
//! documented order, against an f64 reference over ragged shapes, and their
//! bit-determinism: the reduction order is a function of the operand shapes
//! alone, so repeated and concurrent calls return identical bits.

use dlrm_tensor::matrix::dot;
use dlrm_tensor::{Matrix, SeededRng};
use proptest::prelude::*;
use std::sync::Barrier;

/// Inner (reduced) lengths around the 8-lane chunk edges, plus the top MLP's
/// 383-wide input.
const INNER: [usize; 9] = [0, 1, 7, 8, 9, 63, 64, 65, 383];

/// A matrix of uniform values in `[-1, 1)` with about one exact zero in
/// eight (post-ReLU inputs take the `a == 0.0` skip).
fn random(rows: usize, cols: usize, rng: &mut SeededRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.index(8) == 0 {
            0.0
        } else {
            rng.uniform(-1.0, 1.0)
        }
    })
}

/// `a · b` in f64, and `Σ|a_k·b_k|` — the magnitude rounding errors scale with.
fn reference(a: impl Iterator<Item = (f32, f32)>) -> (f64, f64) {
    a.fold((0.0, 0.0), |(sum, mag), (x, y)| {
        let p = x as f64 * y as f64;
        (sum + p, mag + p.abs())
    })
}

/// Every element `(i, j)` of `got` is within 1e-5 (relative to the summed
/// magnitudes) of the f64 sum over `k < inner` of `a(i, k) · b(k, j)`.
fn assert_product(
    got: &Matrix,
    inner: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
    context: &str,
) {
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            let (want, mag) = reference((0..inner).map(|k| (a(i, k), b(k, j))));
            let err = (got.get(i, j) as f64 - want).abs();
            assert!(
                err <= 1e-5 * mag + f64::from(f32::MIN_POSITIVE),
                "{context}: element ({i},{j}) is {} but the f64 reference is {want} (err {err:e})",
                got.get(i, j),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernels_match_f64_reference(
        seed in any::<u64>(),
        inner in (0usize..INNER.len()).prop_map(|i| INNER[i]),
        m in 1usize..5,
        n in 1usize..5,
    ) {
        let context = format!("seed {seed}, {m} x {inner} x {n}");
        let mut rng = SeededRng::new(seed);

        let a = random(m, inner, &mut rng);
        let b = random(inner, n, &mut rng);
        let out = a.matmul(&b);
        prop_assert_eq!((out.rows(), out.cols()), (m, n), "matmul shape, {}", context);
        assert_product(&out, inner, |i, k| a.get(i, k), |k, j| b.get(k, j), &format!("matmul, {context}"));

        let bt = random(n, inner, &mut rng);
        let out = a.matmul_bt(&bt);
        prop_assert_eq!((out.rows(), out.cols()), (m, n), "matmul_bt shape, {}", context);
        assert_product(&out, inner, |i, k| a.get(i, k), |k, j| bt.get(j, k), &format!("matmul_bt, {context}"));
        for i in 0..m {
            for j in 0..n {
                let d = dot(a.row(i), bt.row(j));
                prop_assert_eq!(out.get(i, j).to_bits(), d.to_bits(), "matmul_bt is dot, {}", context);
            }
        }

        let at = random(inner, m, &mut rng);
        let out = at.matmul_at(&b);
        prop_assert_eq!((out.rows(), out.cols()), (m, n), "matmul_at shape, {}", context);
        assert_product(&out, inner, |i, k| at.get(k, i), |k, j| b.get(k, j), &format!("matmul_at, {context}"));
    }
}

/// Every reduced and output length the contract is checked at: the 4- and
/// 8-lane edges, the 32-column strip edges, and the top MLP's 383-wide input.
const SIZES: [usize; 14] = [0, 1, 3, 4, 7, 8, 9, 31, 32, 33, 64, 127, 128, 383];

/// `(m, k, n)` problems: every triple of [`SIZES`] with at most one length
/// of 64 or more, plus the three products of the top MLP's first layer at
/// the benchmark's local batch of 128.
fn shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = Vec::new();
    for &m in &SIZES {
        for &k in &SIZES {
            for &n in &SIZES {
                if [m, k, n].iter().filter(|&&d| d >= 64).count() <= 1 {
                    shapes.push((m, k, n));
                }
            }
        }
    }
    shapes.extend([(128, 383, 128), (128, 128, 383), (383, 128, 128)]);
    shapes
}

/// About half exact zeros (both signs) and, when `special` is set, 1.5 %
/// infinities of both signs and NaNs; the rest uniform in `[-1, 1)`.
fn operand(rows: usize, cols: usize, special: bool, rng: &mut SeededRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| match rng.index(200) {
        0..=89 => 0.0,
        90..=99 => -0.0,
        100 if special => f32::INFINITY,
        101 if special => f32::NEG_INFINITY,
        102 if special => f32::NAN,
        _ => rng.uniform(-1.0, 1.0),
    })
}

/// `matmul`'s and `matmul_at`'s documented order: element `(i, j)` starts at
/// `+0.0` and adds `a(i, k) · b(k, j)` for ascending `k`, skipping every
/// `a(i, k)` that is exactly zero.
fn reference_product(
    (m, inner, n): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0.0f32;
            for k in 0..inner {
                let x = a(i, k);
                if x != 0.0 {
                    sum += x * b(k, j);
                }
            }
            out.push(sum);
        }
    }
    out
}

/// `dot`'s documented order: element `k` of the first `len − len % 8` into
/// accumulator `k % 8`, the fold `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))`,
/// then the tail left to right.
fn reference_dot(a: &[f32], b: &[f32]) -> f32 {
    let body = a.len() - a.len() % 8;
    let mut acc = [0.0f32; 8];
    for k in 0..body {
        acc[k % 8] += a[k] * b[k];
    }
    let mut sum = ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
    for k in body..a.len() {
        sum += a[k] * b[k];
    }
    sum
}

/// Bits, with every NaN as one value: IEEE fixes whether a result is NaN,
/// not which payload it carries.
fn bits(values: &[f32]) -> Vec<u32> {
    let canonical = |v: &f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
    values.iter().map(canonical).collect()
}

#[test]
fn kernels_follow_their_documented_order_bit_for_bit() {
    let mut rng = SeededRng::new(29);
    for (m, inner, n) in shapes() {
        // Infinities and NaNs only where the reference stays cheap: they
        // poison most sums, so large shapes add nothing but time.
        let specials: &[bool] = if m * inner * n <= 1 << 16 {
            &[false, true]
        } else {
            &[false]
        };
        for &special in specials {
            let context = format!("{m} x {inner} x {n}, special values {special}");
            let a = operand(m, inner, special, &mut rng);
            let b = operand(inner, n, special, &mut rng);
            let want = reference_product((m, inner, n), |i, k| a.get(i, k), |k, j| b.get(k, j));
            assert_eq!(
                bits(a.matmul(&b).as_slice()),
                bits(&want),
                "matmul, {context}"
            );

            let at = operand(inner, m, special, &mut rng);
            let want = reference_product((m, inner, n), |i, k| at.get(k, i), |k, j| b.get(k, j));
            assert_eq!(
                bits(at.matmul_at(&b).as_slice()),
                bits(&want),
                "matmul_at, {context}"
            );

            let bt = operand(n, inner, special, &mut rng);
            let want: Vec<f32> = (0..m * n)
                .map(|e| reference_dot(a.row(e / n), bt.row(e % n)))
                .collect();
            assert_eq!(
                bits(a.matmul_bt(&bt).as_slice()),
                bits(&want),
                "matmul_bt, {context}"
            );
            if m > 0 && n > 0 {
                let (x, y) = (a.row(0), bt.row(0));
                assert_eq!(
                    bits(&[dot(x, y)]),
                    bits(&[reference_dot(x, y)]),
                    "dot, {context}"
                );
            }
        }
    }
}

/// Bits of every kernel's output on one fixed ragged problem.
fn kernel_bits() -> Vec<u32> {
    let mut rng = SeededRng::new(13);
    let a = random(5, 383, &mut rng);
    let b = random(383, 9, &mut rng);
    let bt = random(7, 383, &mut rng);
    let tall = random(5, 65, &mut rng);
    let outputs = [a.matmul(&b), a.matmul_bt(&bt), a.matmul_at(&tall)];
    let dots = (0..5).map(|r| dot(a.row(r), bt.row(r)).to_bits());
    let elements = outputs.iter().flat_map(|m| m.as_slice());
    elements.map(|v| v.to_bits()).chain(dots).collect()
}

#[test]
fn kernels_are_bit_deterministic_across_calls_and_threads() {
    let first = kernel_bits();
    for _ in 0..3 {
        assert_eq!(kernel_bits(), first, "a repeated call changed bits");
    }
    // All four threads compute at once: the barrier releases them together.
    let barrier = Barrier::new(4);
    let per_thread: Vec<Vec<u32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    kernel_bits()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("kernel thread panicked"))
            .collect()
    });
    for (t, bits) in per_thread.iter().enumerate() {
        assert_eq!(bits, &first, "thread {t} computed different bits");
    }
}

/// A left operand with about `zero_share` % exact zeros of both signs, the
/// rest uniform in `[-1, 1)`; left row 1 is all `+0.0` and left row 2 all
/// `-0.0` where they exist. A left row is a row of `(rows, cols)`, or a
/// column when `columns` is set (the layout `matmul_at` reads).
fn sparse(
    (rows, cols): (usize, usize),
    zero_share: usize,
    columns: bool,
    rng: &mut SeededRng,
) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let left_row = if columns { c } else { r };
        let roll = rng.index(100);
        match left_row {
            1 => 0.0,
            2 => -0.0,
            _ if roll < zero_share => [0.0, -0.0][roll % 2],
            _ => rng.uniform(-1.0, 1.0),
        }
    })
}

/// Put `+inf`, NaN and `-inf` in row `k` of `b`, for a `k` where `zero`
/// says the left operand holds an exact zero: the skip must keep them out.
fn poison_a_skipped_row(b: &mut Matrix, mut zero: impl FnMut(usize) -> bool) {
    if let Some(k) = (0..b.rows()).find(|&k| zero(k)) {
        for (j, v) in b.row_mut(k).iter_mut().enumerate() {
            *v = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY][j % 3];
        }
    }
}

/// `matmul`, `matmul_at` and `vecmat` gather the non-zero elements of a
/// left row that has exact zeros and run their strips over that list. The
/// list keeps exactly what the `a == 0.0` skip keeps, in ascending `k`, so
/// every bit equals the documented order: zero-free operands, about half
/// and nine in ten zeros, all-zero rows of both signs, and a right-operand
/// row of infinities and NaN that only a zero meets.
#[test]
fn gathered_rows_follow_the_documented_order_bit_for_bit() {
    const EDGES: [usize; 6] = [1, 3, 8, 33, 64, 127];
    let mut shapes = vec![(128, 383, 128), (128, 128, 64), (383, 128, 128)];
    for m in EDGES {
        for k in INNER {
            for n in EDGES {
                if m * k * n <= 1 << 16 {
                    shapes.push((m, k, n));
                }
            }
        }
    }
    let mut rng = SeededRng::new(43);
    for (m, inner, n) in shapes {
        for zero_share in [0, 50, 90] {
            let context = format!("{m} x {inner} x {n}, {zero_share} % zeros");
            let a = sparse((m, inner), zero_share, false, &mut rng);
            let mut b = operand(inner, n, false, &mut rng);
            poison_a_skipped_row(&mut b, |k| m > 0 && a.get(0, k) == 0.0);
            let want = reference_product((m, inner, n), |i, k| a.get(i, k), |k, j| b.get(k, j));
            assert_eq!(
                bits(a.matmul(&b).as_slice()),
                bits(&want),
                "matmul, {context}"
            );
            let mut row = vec![f32::NAN; n];
            dlrm_tensor::matrix::vecmat(a.row(0), b.as_slice(), &mut row);
            assert_eq!(bits(&row), bits(&want[..n]), "vecmat, {context}");

            let at = sparse((inner, m), zero_share, true, &mut rng);
            let mut b = operand(inner, n, false, &mut rng);
            poison_a_skipped_row(&mut b, |k| m > 0 && at.get(k, 0) == 0.0);
            let want = reference_product((m, inner, n), |i, k| at.get(k, i), |k, j| b.get(k, j));
            assert_eq!(
                bits(at.matmul_at(&b).as_slice()),
                bits(&want),
                "matmul_at, {context}"
            );
        }
    }
}

/// Pair `(a, b < a)`'s column in a row of the interaction output.
fn pair_column(dim: usize, a: usize, b: usize) -> usize {
    dim + a * (a - 1) / 2 + b
}

/// `interact`'s documented order: feature 0, then `dot(v_a, v_b)` for every
/// pair, `a`-major — with no zero-vector shortcut.
fn reference_interact(tiles: &Matrix, f: usize) -> Vec<f32> {
    let dim = tiles.cols() / f;
    let width = dim + f * (f - 1) / 2;
    let mut out = Vec::with_capacity(tiles.rows() * width);
    for i in 0..tiles.rows() {
        let v = |a: usize| &tiles.row(i)[a * dim..(a + 1) * dim];
        out.extend_from_slice(v(0));
        for a in 1..f {
            for b in 0..a {
                out.push(reference_dot(v(a), v(b)));
            }
        }
    }
    out
}

/// `interact_backward`'s documented order: feature `c`'s element starts at
/// the pass-through gradient (`c = 0`) or `+0.0`, then adds `g_cp · v_p` for
/// every partner `p ≠ c` in ascending `p`, skipping exactly-zero `g_cp` —
/// with no zero-vector shortcut.
fn reference_interact_backward(tiles: &Matrix, f: usize, grad_out: &Matrix) -> Vec<Vec<f32>> {
    let dim = tiles.cols() / f;
    let mut grads = vec![Vec::new(); f];
    for i in 0..tiles.rows() {
        let v = |a: usize| &tiles.row(i)[a * dim..(a + 1) * dim];
        let g = grad_out.row(i);
        for (c, grad) in grads.iter_mut().enumerate() {
            for d in 0..dim {
                let mut sum = if c == 0 { g[d] } else { 0.0 };
                for p in (0..f).filter(|&p| p != c) {
                    let g_cp = g[pair_column(dim, c.max(p), c.min(p))];
                    if g_cp != 0.0 {
                        sum += g_cp * v(p)[d];
                    }
                }
                grad.push(sum);
            }
        }
    }
    grads
}

/// Interaction tiles, one sample per case: zero-free; about half and nine
/// in ten zero vectors (all `+0.0`, all `-0.0` or mixed signs); every
/// vector zero; feature 0 zero; half zero with an infinity or a NaN in
/// another vector. `grad_out` has about one exact zero in three, and on
/// further samples a `-0.0` pass-through element, an infinite or NaN pair
/// gradient on a zero vector's pair, so each guard's fallback runs.
fn interaction_case(f: usize, dim: usize, rng: &mut SeededRng) -> (Matrix, Matrix) {
    const SAMPLES: usize = 12;
    let mut tiles = Matrix::from_fn(SAMPLES, f * dim, |_, _| rng.uniform(-1.0, 1.0));
    for i in 0..SAMPLES {
        let zero_share = match i {
            0 => 0,
            1 | 4 | 5 | 7..=11 => 50,
            2 => 90,
            _ => 100,
        };
        for a in 0..f {
            let zero = rng.index(100) < zero_share || (i == 6 && a == 0);
            if !zero {
                continue;
            }
            let sign = rng.index(3);
            for (d, v) in tiles.row_mut(i)[a * dim..(a + 1) * dim]
                .iter_mut()
                .enumerate()
            {
                *v = match sign {
                    0 => 0.0,
                    1 => -0.0,
                    _ if d % 2 == 0 => 0.0,
                    _ => -0.0,
                };
            }
        }
        let special = [f32::INFINITY, f32::NAN][i % 2];
        if (i == 4 || i == 5) && f > 1 {
            tiles.row_mut(i)[(f - 1) * dim] = special;
        }
    }
    let width = dim + f * (f - 1) / 2;
    let mut grad_out = Matrix::from_fn(SAMPLES, width, |_, _| match rng.index(6) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.uniform(-1.0, 1.0),
    });
    // A pass-through element that is `-0.0`, on a sample with zero vectors.
    grad_out.row_mut(7)[0] = -0.0;
    for (i, special) in [(8, f32::INFINITY), (9, f32::NAN), (10, f32::NEG_INFINITY)] {
        // On the pair of the first zero vector, if the sample has one.
        let dims = |a: usize| &tiles.row(i)[a * dim..(a + 1) * dim];
        let zero = (0..f).find(|&a| dims(a).iter().all(|&v| v == 0.0));
        if let Some(z) = zero.filter(|_| f > 1) {
            let p = if z == 0 { 1 } else { 0 };
            grad_out.row_mut(i)[pair_column(dim, z.max(p), z.min(p))] = special;
        }
    }
    (tiles, grad_out)
}

/// Both interaction kernels equal their documented order bit for bit: a
/// pair that touches an all-zero vector is `+0.0` as its `dot` is, and a
/// zero vector's terms left out of a gradient sum change no bit, across
/// F ∈ {1, 2, 27}, dim ∈ {1, 5, 8, 32} and the cases of
/// [`interaction_case`].
#[test]
fn interaction_kernels_follow_their_documented_order_bit_for_bit() {
    let mut rng = SeededRng::new(47);
    for f in [1, 2, 27] {
        for dim in [1, 5, 8, 32] {
            let context = format!("F {f}, dim {dim}");
            let (tiles, grad_out) = interaction_case(f, dim, &mut rng);
            let mut out = Matrix::filled(tiles.rows(), grad_out.cols(), f32::NAN);
            dlrm_tensor::matrix::interact(&tiles, f, &mut out);
            let want = reference_interact(&tiles, f);
            let width = grad_out.cols();
            for (i, (got, want)) in out
                .as_slice()
                .chunks(width.max(1))
                .zip(want.chunks(width.max(1)))
                .enumerate()
            {
                assert_eq!(bits(got), bits(want), "interact, {context}, sample {i}");
            }

            let mut grads: Vec<Matrix> = (0..f)
                .map(|_| Matrix::filled(tiles.rows(), dim, f32::NAN))
                .collect();
            dlrm_tensor::matrix::interact_backward(&tiles, f, &grad_out, &mut grads);
            let want = reference_interact_backward(&tiles, f, &grad_out);
            for (c, (got, want)) in grads.iter().zip(&want).enumerate() {
                for (i, (got, want)) in got.as_slice().chunks(dim).zip(want.chunks(dim)).enumerate()
                {
                    assert_eq!(
                        bits(got),
                        bits(want),
                        "interact_backward, {context}, feature {c}, sample {i}"
                    );
                }
            }
        }
    }
}
