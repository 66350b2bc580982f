//! Point-wise error-bounded linear-scaling quantizer.
//!
//! This is the lossy half of the paper's compressor: every value `x` is
//! mapped to the integer bin `round(x / (2·eb))`; reconstruction returns the
//! bin centre `code · 2·eb`, so the absolute reconstruction error is at most
//! `eb`. Unlike SZ/cuSZ there is deliberately **no prediction step** — the
//! paper's observation ❶ ("false prediction") shows that Lorenzo-style
//! predictors *hurt* on embedding batches because neighbouring vectors are
//! unrelated, so codes are formed directly from the values.

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
/// The hot loop runs in fixed-width chunks of 16: each chunk converts into a
/// stack array under a branch-free validity accumulator and is appended in
/// one pass — no per-element early return to block vectorization. A chunk
/// containing a non-finite or overflowing value re-runs the scalar loop, so
/// the error reported is the first offender's, exactly as before.
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
            let code = (x as f64 / step).round();
            valid &= x.is_finite() & (code.abs() <= MAX_CODE_MAGNITUDE as f64);
            *slot = code as i32;
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
/// the original first-offender error semantics.
fn quantize_scalar(data: &[f32], step: f64, codes: &mut Vec<i32>) -> Result<()> {
    for &x in data {
        if !x.is_finite() {
            return Err(CompressError::NonFiniteInput);
        }
        let code = (x as f64 / step).round();
        if code.abs() > MAX_CODE_MAGNITUDE as f64 {
            return Err(CompressError::CodeOverflow(x));
        }
        codes.push(code as i32);
    }
    Ok(())
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
