//! Point-wise error-bounded linear-scaling quantizer.
//!
//! This is the lossy half of the paper's compressor: every value `x` is
//! mapped to the integer bin `round(x / (2·eb))`; reconstruction returns the
//! bin centre `code · 2·eb`, so the absolute reconstruction error is at most
//! `eb`. Unlike SZ/cuSZ there is deliberately **no prediction step** — the
//! paper's observation ❶ ("false prediction") shows that Lorenzo-style
//! predictors *hurt* on embedding batches because neighbouring vectors are
//! unrelated, so codes are formed directly from the values.
//!
//! The rounding is `f64::round`'s (ties away from zero) bit for bit, but
//! computed by `round_half_away` from one addition of a magic constant and
//! a tie fix-up, which — unlike a libm call per value — vectorizes.

use crate::error::CompressError;
use crate::Result;

/// Largest magnitude of quantization code the stream formats support.
/// Codes are stored in 32-bit containers after zigzag mapping, so the
/// magnitude must fit in 31 bits.
pub const MAX_CODE_MAGNITUDE: i64 = (1 << 30) - 1;

/// Quantization output: integer codes plus the parameters needed to invert.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized {
    /// One signed bin index per input value.
    pub codes: Vec<i32>,
    /// The error bound the codes were produced with.
    pub error_bound: f32,
}

/// Validate an error bound: finite and strictly positive.
pub fn validate_error_bound(eb: f32) -> Result<()> {
    if !(eb.is_finite() && eb > 0.0) {
        return Err(CompressError::InvalidErrorBound(eb));
    }
    Ok(())
}

/// Check that `len` values form whole vectors of `dim` values.
pub fn check_dim(len: usize, dim: usize) -> Result<()> {
    if dim == 0 || !len.is_multiple_of(dim) {
        return Err(CompressError::DimensionMismatch { len, dim });
    }
    Ok(())
}

/// Quantize `data` with absolute error bound `eb`.
///
/// Fails if `eb` is invalid, any input is non-finite, or a value is so large
/// relative to `eb` that its code would overflow the 31-bit code range.
pub fn quantize(data: &[f32], eb: f32) -> Result<Quantized> {
    let mut codes = Vec::with_capacity(data.len());
    quantize_into(data, eb, &mut codes)?;
    Ok(Quantized {
        codes,
        error_bound: eb,
    })
}

/// Allocation-free [`quantize`]: clears `codes` and fills it with one signed
/// bin index per input value, reusing its capacity.
///
/// The hot loop runs in fixed-width chunks of 16: each chunk rounds into a
/// stack array with `round_half_away` (no libm call, no float→int cast)
/// under a branch-free validity accumulator and is appended in one pass — no
/// per-element early return to block vectorization. A chunk containing a
/// non-finite or overflowing value re-runs the scalar loop, so the error
/// reported is the first offender's and `codes` holds every code before it.
pub fn quantize_into(data: &[f32], eb: f32, codes: &mut Vec<i32>) -> Result<()> {
    validate_error_bound(eb)?;
    codes.clear();
    codes.reserve(data.len());
    let step = 2.0f64 * eb as f64;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let mut stage = [0i32; 16];
        let mut valid = true;
        for (slot, &x) in stage.iter_mut().zip(chunk) {
            let (code, in_range) = round_half_away(x as f64 / step);
            valid &= in_range;
            *slot = code;
        }
        if valid {
            codes.extend_from_slice(&stage);
        } else {
            return quantize_scalar(chunk, step, codes);
        }
    }
    quantize_scalar(chunks.remainder(), step, codes)
}

/// Scalar tail/fallback of [`quantize_into`]: per-element validation with
/// first-offender error semantics.
fn quantize_scalar(data: &[f32], step: f64, codes: &mut Vec<i32>) -> Result<()> {
    for &x in data {
        if !x.is_finite() {
            return Err(CompressError::NonFiniteInput);
        }
        let (code, in_range) = round_half_away(x as f64 / step);
        if !in_range {
            return Err(CompressError::CodeOverflow(x));
        }
        codes.push(code);
    }
    Ok(())
}

/// `1.5·2^52`: adding it to a `|q| < 2^51` lands in `[2^52, 2^53)`, where
/// consecutive doubles are 1 apart, so the sum is `MAGIC + rne(q)` (round to
/// nearest, ties to even — the addition's own rounding) and `rne(q)` sits in
/// the sum's low mantissa bits in two's complement.
const MAGIC: f64 = 6_755_399_441_055_744.0;

/// `q` rounds (half away from zero) to a magnitude within
/// [`MAX_CODE_MAGNITUDE`] exactly when `|q|` is below this; NaN and ±inf
/// are not.
const CODE_LIMIT: f64 = MAX_CODE_MAGNITUDE as f64 + 0.5;

/// `f64::round` of `q` — nearest integer, ties away from zero — as an `i32`,
/// and whether that code is within [`MAX_CODE_MAGNITUDE`] (`false` for NaN
/// and ±inf; the code is then meaningless).
///
/// Baseline x86-64 has no rounding instruction, so `f64::round` is a libm
/// call per value. This is its bit-exact replacement in adds, compares and
/// one `to_bits`, for `|q| < CODE_LIMIT`:
///
/// * `m = q + MAGIC` is `MAGIC + r` with `r = rne(q)`; `MAGIC`'s low 32
///   mantissa bits are zero, so `m.to_bits() as i32` is `r` (`|r| ≤ 2^30`).
/// * `m − MAGIC` is exact (both in one binade) and equals `r`; `diff = q − r`
///   is exact too (`|diff| ≤ 0.5`: for `r ≠ 0`, `q` and `r` are within a
///   factor 2 of each other — Sterbenz; for `r = 0` it is `q`).
/// * `rne` and round-half-away differ only on ties `q = k + 0.5`, where `rne`
///   picked the even neighbour: `diff == 0.5` with `q > 0` went down and must
///   go up, `diff == −0.5` with `q < 0` went up and must go down.
#[inline(always)]
pub(crate) fn round_half_away(q: f64) -> (i32, bool) {
    let m = q + MAGIC;
    let r = m.to_bits() as i32;
    let diff = q - (m - MAGIC);
    let up = (diff == 0.5) & (q > 0.0);
    let down = (diff == -0.5) & (q < 0.0);
    // Wrapping: out of range `r` is arbitrary bits.
    let code = r.wrapping_add(i32::from(up)).wrapping_sub(i32::from(down));
    (code, q.abs() < CODE_LIMIT)
}

/// Reconstruct values from quantization codes.
pub fn dequantize(codes: &[i32], eb: f32) -> Result<Vec<f32>> {
    let mut out = Vec::with_capacity(codes.len());
    dequantize_into(codes, eb, &mut out)?;
    Ok(out)
}

/// Allocation-free [`dequantize`]: *appends* the reconstructed values to
/// `out` (callers compose several tables into one buffer).
pub fn dequantize_into(codes: &[i32], eb: f32, out: &mut Vec<f32>) -> Result<()> {
    validate_error_bound(eb)?;
    let step = 2.0f64 * eb as f64;
    out.reserve(codes.len());
    out.extend(codes.iter().map(|&c| (c as f64 * step) as f32));
    Ok(())
}

/// Quantize and immediately reconstruct — the "what the receiver will see"
/// view used by the homogenization analysis and by accuracy experiments that
/// want to inject compression error without paying for entropy coding.
pub fn quantize_dequantize(data: &[f32], eb: f32) -> Result<Vec<f32>> {
    let q = quantize(data, eb)?;
    dequantize(&q.codes, eb)
}

/// Map signed codes to the unsigned symbols used by the entropy encoders
/// (ZigZag: 0, -1, 1, -2, … → 0, 1, 2, 3, …).
pub fn codes_to_symbols(codes: &[i32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(codes.len());
    codes_to_symbols_into(codes, &mut out);
    out
}

/// Allocation-free [`codes_to_symbols`]: clears and refills `out`.
pub fn codes_to_symbols_into(codes: &[i32], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(codes.len());
    out.extend(codes.iter().map(|&c| {
        let v = c as i64;
        ((v << 1) ^ (v >> 63)) as u32
    }));
}

/// Inverse of [`codes_to_symbols`].
pub fn symbols_to_codes(symbols: &[u32]) -> Vec<i32> {
    let mut out = Vec::with_capacity(symbols.len());
    symbols_to_codes_into(symbols, &mut out);
    out
}

/// Allocation-free [`symbols_to_codes`]: clears and refills `out`.
pub fn symbols_to_codes_into(symbols: &[u32], out: &mut Vec<i32>) {
    out.clear();
    out.reserve(symbols.len());
    out.extend(symbols.iter().map(|&s| symbol_to_code(s)));
}

/// The signed code behind one ZigZag symbol.
#[inline]
pub fn symbol_to_code(symbol: u32) -> i32 {
    crate::varint::unzigzag(u64::from(symbol)) as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    const BOUNDS: [f32; 4] = [0.005, 0.01, 0.02, 0.05];

    /// SplitMix64: the seeded bit-pattern source of the equivalence tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `x` and its three `f32` neighbours on either side.
    fn within_3_ulp(x: f32) -> impl Iterator<Item = f32> {
        (-3i32..=3).map(move |d| f32::from_bits(x.to_bits().wrapping_add_signed(d)))
    }

    /// `quantize_into` against the libm-rounding reference: same `Result`,
    /// same `codes` afterwards (whatever they held before).
    fn assert_quantizes_like_the_reference(data: &[f32], eb: f32, what: &str) {
        let (mut new, mut old) = (vec![7; 3], vec![-7; 5]);
        let new_result = quantize_into(data, eb, &mut new);
        let old_result = reference::quantize_into(data, eb, &mut old);
        let at = new.iter().zip(&old).position(|(a, b)| a != b);
        assert_eq!(
            (new_result, new.len(), at),
            (old_result, old.len(), None),
            "{what}, eb {eb}: value {:?} gave {:?}, the reference {:?}",
            at.map(|i| data[i]),
            at.map(|i| new[i]),
            at.map(|i| old[i]),
        );
    }

    #[test]
    fn rounding_is_libm_round_on_exact_ties_and_their_neighbours() {
        for k in -5000i32..=5000 {
            let tie = f64::from(k) + 0.5;
            for d in -3i64..=3 {
                let q = f64::from_bits(tie.to_bits().wrapping_add_signed(d));
                let libm = reference::round(q) as i32;
                assert_eq!(round_half_away(q), (libm, true), "q = {q:?}");
            }
        }
        for q in [0.0, -0.0, 0.49999999999999994, -0.49999999999999994, 1e-300] {
            assert_eq!(round_half_away(q), (0, true), "q = {q:?}");
        }
    }

    #[test]
    fn rounding_flags_exactly_the_codes_beyond_the_magnitude_limit() {
        let max = MAX_CODE_MAGNITUDE as f64;
        for edge in [max - 0.5, max, max + 0.5, max + 1.0] {
            for sign in [1.0, -1.0] {
                for d in -3i64..=3 {
                    let q = sign * f64::from_bits(edge.to_bits().wrapping_add_signed(d));
                    let (code, in_range) = round_half_away(q);
                    let libm = reference::round(q);
                    assert_eq!(in_range, libm.abs() <= max, "q = {q:?}");
                    if in_range {
                        assert_eq!(code, libm as i32, "q = {q:?}");
                    }
                }
            }
        }
        for q in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -4.6e18] {
            assert!(!round_half_away(q).1, "q = {q:?}");
        }
    }

    #[test]
    fn quantizer_matches_the_reference_around_every_bin_boundary() {
        for eb in BOUNDS {
            let step = 2.0f64 * eb as f64;
            let data: Vec<f32> = (-4097i32..=4096)
                .flat_map(|k| within_3_ulp(((f64::from(k) + 0.5) * step) as f32))
                .collect();
            assert_quantizes_like_the_reference(&data, eb, "bin boundaries");
        }
    }

    #[test]
    fn quantizer_matches_the_reference_on_random_bit_patterns() {
        let seed = 0x5EED_2024_0614u64;
        let mut state = seed;
        let patterns: Vec<f32> = (0..40_000)
            .map(|_| f32::from_bits(splitmix(&mut state) as u32))
            .chain([0.0, -0.0, f32::MIN_POSITIVE, -1e-45, f32::MAX, f32::MIN])
            .collect();
        for eb in BOUNDS {
            // One by one (NaN, ±inf and overflowing values included: the same
            // error) ...
            for &x in &patterns {
                assert_quantizes_like_the_reference(&[x], eb, &format!("seed {seed:#x}, {x:e}"));
            }
            // ... and everything that has a code as one batch, through the
            // 16-lane path.
            let representable: Vec<f32> = patterns
                .iter()
                .copied()
                .filter(|&x| quantize(&[x], eb).is_ok())
                .collect();
            assert!(representable.len() > patterns.len() / 3);
            assert_quantizes_like_the_reference(&representable, eb, &format!("seed {seed:#x}"));
        }
    }

    #[test]
    fn offenders_fail_like_the_reference_from_every_lane() {
        // Two full 16-lane chunks and a remainder of 5.
        let clean: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin() * 0.4).collect();
        let offenders = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30, -3e38];
        for eb in [0.01f32, 1e-6] {
            for at in 0..clean.len() {
                for bad in offenders {
                    let mut data = clean.clone();
                    data[at] = bad;
                    assert_quantizes_like_the_reference(&data, eb, &format!("{bad} at {at}"));
                    // A later offender of another kind must not be the one
                    // reported.
                    for later in [at + 1, at + 7, 36] {
                        if later != at && later < data.len() {
                            let mut two = data.clone();
                            two[later] = if bad.is_finite() { f32::NAN } else { 1e30 };
                            let what = format!("{bad} at {at}, then another at {later}");
                            assert_quantizes_like_the_reference(&two, eb, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn error_bound_is_respected() {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.013).sin() * 0.3).collect();
        for &eb in &[0.001f32, 0.01, 0.05] {
            let recon = quantize_dequantize(&data, eb).unwrap();
            for (a, b) in data.iter().zip(recon.iter()) {
                assert!(
                    (a - b).abs() <= eb * 1.0001,
                    "eb {eb}: |{a} - {b}| = {}",
                    (a - b).abs()
                );
            }
        }
    }

    #[test]
    fn zero_maps_to_zero() {
        let q = quantize(&[0.0, 0.0], 0.01).unwrap();
        assert_eq!(q.codes, vec![0, 0]);
    }

    #[test]
    fn similar_values_collapse_to_same_code() {
        // Vector homogenization at the point level: values within 2·eb of each
        // other (and in the same bin) share a code.
        let q = quantize(&[0.100, 0.1005, 0.101], 0.01).unwrap();
        assert_eq!(q.codes[0], q.codes[1]);
        assert_eq!(q.codes[1], q.codes[2]);
    }

    #[test]
    fn invalid_error_bounds_rejected() {
        for eb in [0.0f32, -0.01, f32::NAN, f32::INFINITY] {
            assert!(quantize(&[1.0], eb).is_err(), "eb {eb} accepted");
        }
    }

    #[test]
    fn non_finite_input_rejected() {
        assert_eq!(
            quantize(&[1.0, f32::NAN], 0.01),
            Err(CompressError::NonFiniteInput)
        );
        assert_eq!(
            quantize(&[f32::INFINITY], 0.01),
            Err(CompressError::NonFiniteInput)
        );
    }

    #[test]
    fn overflow_is_detected() {
        assert!(matches!(
            quantize(&[1.0e9], 1e-6),
            Err(CompressError::CodeOverflow(_))
        ));
    }

    #[test]
    fn symbol_mapping_roundtrips() {
        let codes = vec![0, -1, 1, -2, 2, 1_000_000, -1_000_000];
        let symbols = codes_to_symbols(&codes);
        assert_eq!(symbols[0], 0);
        assert_eq!(symbols[1], 1);
        assert_eq!(symbols[2], 2);
        assert_eq!(symbols_to_codes(&symbols), codes);
    }

    #[test]
    fn empty_input_is_fine() {
        let q = quantize(&[], 0.01).unwrap();
        assert!(q.codes.is_empty());
        assert!(dequantize(&q.codes, 0.01).unwrap().is_empty());
    }

    #[test]
    fn tighter_bound_means_more_distinct_codes() {
        let data: Vec<f32> = (0..500).map(|i| i as f32 * 1e-4).collect();
        let coarse = quantize(&data, 0.05).unwrap();
        let fine = quantize(&data, 0.0005).unwrap();
        let distinct = |codes: &[i32]| {
            let mut c = codes.to_vec();
            c.sort_unstable();
            c.dedup();
            c.len()
        };
        assert!(distinct(&fine.codes) > distinct(&coarse.codes));
    }
}
