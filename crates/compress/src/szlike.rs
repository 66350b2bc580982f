//! cuSZ-like baseline: Lorenzo prediction + error-bounded quantization +
//! entropy coding.
//!
//! SZ/cuSZ predict each value from its already-reconstructed neighbours (the
//! 2-D Lorenzo predictor uses `left + up − up-left`), quantize the prediction
//! *residual* with the error bound, and entropy-code the residual codes. On
//! spatially smooth scientific fields the residuals concentrate around zero
//! and compress extremely well.
//!
//! Embedding batches are not smooth: neighbouring vectors are unrelated
//! lookups in random order, so the predictor mostly misses ("false
//! prediction", observation ❶ of the paper), residuals spread out, and —
//! crucially — two identical vectors preceded by different neighbours produce
//! *different* residual codes, destroying the repetition that the vector-LZ
//! encoder exploits. Reproducing this baseline is what lets the benches show
//! *why* prediction is the wrong tool for DLRM traffic.

use crate::error::CompressError;
use crate::quant;
use crate::scratch::CompressScratch;
use crate::varint;
use crate::{huffman, Result};

/// Compress a batch of embedding vectors (`n x dim`, row-major) with the
/// Lorenzo + quantization + Huffman pipeline under absolute error bound `eb`.
pub fn compress(data: &[f32], dim: usize, eb: f32) -> Result<Vec<u8>> {
    let mut scratch = CompressScratch::new();
    let mut out = Vec::new();
    compress_into(data, dim, eb, &mut scratch, &mut out)?;
    Ok(out)
}

/// Allocation-free [`compress`]: *appends* the stream to `out`.
pub fn compress_into(
    data: &[f32],
    dim: usize,
    eb: f32,
    scratch: &mut CompressScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    quant::check_dim(data.len(), dim)?;
    quant::validate_error_bound(eb)?;
    if data.iter().any(|v| !v.is_finite()) {
        return Err(CompressError::NonFiniteInput);
    }
    let rows = data.len() / dim;
    let step = 2.0f64 * eb as f64;

    // Reconstruction buffer mirrors what the decompressor will see, so the
    // predictor on both sides stays in lock-step.
    let recon = &mut scratch.f64s;
    recon.clear();
    recon.resize(data.len(), 0.0);
    let codes = &mut scratch.codes;
    codes.clear();
    codes.reserve(data.len());
    for r in 0..rows {
        for c in 0..dim {
            let idx = r * dim + c;
            let pred = lorenzo_pred(recon, dim, r, c);
            let residual = data[idx] as f64 - pred;
            let (code, in_range) = quant::round_half_away(residual / step);
            if !in_range {
                return Err(CompressError::CodeOverflow(data[idx]));
            }
            codes.push(code);
            recon[idx] = pred + code as f64 * step;
        }
    }

    quant::codes_to_symbols_into(codes, &mut scratch.symbols);
    // Worst case: every residual escapes (15 + 32 bits) plus the table.
    out.reserve(data.len() * 6 + 600);
    varint::write_u64(out, data.len() as u64);
    varint::write_u64(out, dim as u64);
    varint::write_f32_le(out, eb);
    huffman::encode_into(&scratch.symbols, &mut scratch.huffman, out);
    Ok(())
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(bytes: &[u8]) -> Result<Vec<f32>> {
    let mut scratch = CompressScratch::new();
    let mut out = Vec::new();
    decompress_into(bytes, &mut scratch, &mut out)?;
    Ok(out)
}

/// Allocation-free [`decompress`]: *appends* the values to `out`.
pub fn decompress_into(
    bytes: &[u8],
    scratch: &mut CompressScratch,
    out: &mut Vec<f32>,
) -> Result<()> {
    let mut pos = 0usize;
    let n = varint::read_u64(bytes, &mut pos)? as usize;
    let dim = varint::read_u64(bytes, &mut pos)? as usize;
    let eb = varint::read_f32_le(bytes, &mut pos)?;
    quant::validate_error_bound(eb)
        .map_err(|_| CompressError::Corrupt("bad error bound in header"))?;
    if n > 0 && (dim == 0 || !n.is_multiple_of(dim)) {
        return Err(CompressError::Corrupt("bad dimension in header"));
    }
    let codes = &mut scratch.codes;
    codes.clear();
    let decoded = huffman::decode_map_into(
        &bytes[pos..],
        &mut scratch.huffman,
        codes,
        quant::symbol_to_code,
    )?;
    if decoded != n {
        return Err(CompressError::Corrupt("wrong number of residual codes"));
    }
    let step = 2.0f64 * eb as f64;
    let rows = n.checked_div(dim).unwrap_or(0);
    let recon = &mut scratch.f64s;
    recon.clear();
    recon.resize(n, 0.0);
    for r in 0..rows {
        for c in 0..dim {
            let idx = r * dim + c;
            let pred = lorenzo_pred(recon, dim, r, c);
            recon[idx] = pred + codes[idx] as f64 * step;
        }
    }
    out.reserve(n);
    out.extend(recon.iter().map(|&v| v as f32));
    Ok(())
}

/// 2-D Lorenzo predictor over already-reconstructed values.
fn lorenzo_pred(recon: &[f64], dim: usize, r: usize, c: usize) -> f64 {
    let left = if c > 0 { recon[r * dim + c - 1] } else { 0.0 };
    let up = if r > 0 { recon[(r - 1) * dim + c] } else { 0.0 };
    let upleft = if r > 0 && c > 0 {
        recon[(r - 1) * dim + c - 1]
    } else {
        0.0
    };
    left + up - upleft
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid;

    #[test]
    fn roundtrip_respects_error_bound() {
        let data: Vec<f32> = (0..16 * 100)
            .map(|i| ((i % 61) as f32 - 30.0) * 0.004)
            .collect();
        for &eb in &[0.001f32, 0.01] {
            let enc = compress(&data, 16, eb).unwrap();
            let dec = decompress(&enc).unwrap();
            assert_eq!(dec.len(), data.len());
            for (a, b) in data.iter().zip(dec.iter()) {
                // Prediction from reconstructed values keeps the point-wise
                // bound; allow a small float slack.
                assert!((a - b).abs() <= eb * 1.01, "eb {eb}: {} vs {}", a, b);
            }
        }
    }

    #[test]
    fn smooth_data_compresses_very_well() {
        // The regime SZ was designed for: a smooth 2-D field.
        let dim = 64;
        let data: Vec<f32> = (0..dim * 64)
            .map(|i| {
                let r = (i / dim) as f32;
                let c = (i % dim) as f32;
                (r * 0.05).sin() + (c * 0.04).cos()
            })
            .collect();
        let enc = compress(&data, dim, 0.001).unwrap();
        let ratio = (data.len() * 4) as f64 / enc.len() as f64;
        assert!(ratio > 6.0, "smooth-field ratio only {ratio:.2}");
    }

    #[test]
    fn false_prediction_loses_to_hybrid_on_repeated_vectors() {
        // Identical vectors in random positions: the vector-LZ hybrid should
        // beat the Lorenzo pipeline clearly (the paper's core argument).
        let dim = 32;
        let patterns: Vec<Vec<f32>> = (0..6)
            .map(|p| {
                (0..dim)
                    .map(|j| ((p * dim + j) as f32).sin() * 0.2)
                    .collect()
            })
            .collect();
        let mut data = Vec::new();
        for i in 0..400usize {
            let p = (i * 2_654_435_761) % 6;
            data.extend_from_slice(&patterns[p]);
        }
        let sz = compress(&data, dim, 0.01).unwrap().len();
        let ours = hybrid::compress(&data, dim, 0.01, hybrid::HybridConfig::default())
            .unwrap()
            .len();
        assert!(
            ours * 2 < sz,
            "hybrid ({ours} B) should be far smaller than sz-like ({sz} B)"
        );
    }

    #[test]
    fn dimension_and_input_validation() {
        assert!(compress(&[1.0, 2.0, 3.0], 2, 0.01).is_err());
        assert!(compress(&[1.0, f32::NAN], 2, 0.01).is_err());
        assert!(compress(&[1.0, 2.0], 2, 0.0).is_err());
    }

    #[test]
    fn empty_roundtrip() {
        let enc = compress(&[], 8, 0.01).unwrap();
        assert!(decompress(&enc).unwrap().is_empty());
    }
}
