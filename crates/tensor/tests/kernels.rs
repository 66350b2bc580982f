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
