//! FZ-GPU-like baseline: quantization + bitshuffle + zero-run encoding.
//!
//! FZ-GPU trades compression ratio for throughput: after error-bounded
//! quantization it transposes the code words into bit planes (bitshuffle) so
//! that the mostly-zero high-order bits of small codes gather into long
//! all-zero byte runs, then removes those runs with a cheap sparse/RLE
//! encoder. There is no entropy coding and no matching, which is why the
//! paper measures it as the fastest compressor but with a clearly lower ratio
//! than the hybrid.
//!
//! Stream layout: `[n varint] [dim varint] [eb f32] [zero-run coded planes]`
//! where the plane buffer is the `32 × ceil(n/8)`-byte bit-plane transpose of
//! the ZigZag-mapped codes.

use crate::error::CompressError;
use crate::quant;
use crate::scratch::CompressScratch;
use crate::varint;
use crate::Result;

/// Compress a batch of embedding vectors with the bitshuffle pipeline.
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
    quant::quantize_into(data, eb, &mut scratch.codes)?;
    quant::codes_to_symbols_into(&scratch.codes, &mut scratch.symbols);
    bitshuffle_into(&scratch.symbols, &mut scratch.stage);

    // Worst case ≈ the full plane buffer as literals plus run headers.
    out.reserve(scratch.stage.len() + scratch.stage.len() / 2 + 64);
    varint::write_u64(out, data.len() as u64);
    varint::write_u64(out, dim as u64);
    varint::write_f32_le(out, eb);
    zero_run_encode(&scratch.stage, out);
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
    let _dim = varint::read_u64(bytes, &mut pos)? as usize;
    let eb = varint::read_f32_le(bytes, &mut pos)?;
    quant::validate_error_bound(eb)
        .map_err(|_| CompressError::Corrupt("bad error bound in header"))?;
    // A corrupt header cannot be allowed to drive the plane-buffer size: the
    // zero-run payload that follows can never legitimately describe more
    // values than it has bytes of stream to back them.
    if n / 8 > bytes.len().saturating_mul(64) {
        return Err(CompressError::Corrupt(
            "declared length far exceeds stream size",
        ));
    }
    let plane_bytes = 32 * n.div_ceil(8);
    zero_run_decode_into(&bytes[pos..], plane_bytes, &mut scratch.stage)?;
    bitunshuffle_into(&scratch.stage, n, &mut scratch.symbols);
    quant::symbols_to_codes_into(&scratch.symbols, &mut scratch.codes);
    quant::dequantize_into(&scratch.codes, eb, out)
}

/// Transpose `symbols` into 32 bit planes. Plane `b` holds bit `b` of every
/// symbol, packed 8 symbols per byte (LSB-first within the byte).
#[cfg(test)]
fn bitshuffle(symbols: &[u32]) -> Vec<u8> {
    let mut planes = Vec::new();
    bitshuffle_into(symbols, &mut planes);
    planes
}

/// Allocation-free [`bitshuffle`]: clears and refills `planes`.
///
/// The transpose runs in fixed-width groups of 8 symbols: each group is
/// staged into a stack array, the OR of its lanes bounds the highest live
/// bit plane (planes above it stay zero from the resize), and the per-plane
/// byte is built from all 8 lanes with the same shift/mask expression — a
/// branch-free inner loop the compiler can keep in registers and vectorize,
/// instead of the bit-at-a-time scatter it replaced.
fn bitshuffle_into(symbols: &[u32], planes: &mut Vec<u8>) {
    let stride = symbols.len().div_ceil(8);
    planes.clear();
    planes.resize(32 * stride, 0);
    let mut lanes = [0u32; 8];
    for (group, chunk) in symbols.chunks(8).enumerate() {
        lanes[..chunk.len()].copy_from_slice(chunk);
        lanes[chunk.len()..].fill(0);
        let live =
            lanes[0] | lanes[1] | lanes[2] | lanes[3] | lanes[4] | lanes[5] | lanes[6] | lanes[7];
        let top = (32 - live.leading_zeros()) as usize;
        for (b, plane_row) in planes.chunks_exact_mut(stride).enumerate().take(top) {
            let mut byte = 0u8;
            for (bit, &lane) in lanes.iter().enumerate() {
                byte |= (((lane >> b) & 1) as u8) << bit;
            }
            plane_row[group] = byte;
        }
    }
}

/// Inverse of [`bitshuffle`].
#[cfg(test)]
fn bitunshuffle(planes: &[u8], n: usize) -> Vec<u32> {
    let mut symbols = Vec::new();
    bitunshuffle_into(planes, n, &mut symbols);
    symbols
}

/// Allocation-free [`bitunshuffle`]: clears and refills `symbols`.
///
/// The mirror of [`bitshuffle_into`]'s grouping: 8 symbols are rebuilt at a
/// time in a stack array, each plane byte fanning its bits across the 8
/// lanes with a fixed-width shift/mask loop (zero plane bytes skip the
/// fan-out entirely — high planes are almost always zero for small codes).
fn bitunshuffle_into(planes: &[u8], n: usize, symbols: &mut Vec<u32>) {
    let stride = n.div_ceil(8);
    symbols.clear();
    symbols.resize(n, 0);
    let mut lanes = [0u32; 8];
    for (group, chunk) in symbols.chunks_mut(8).enumerate() {
        lanes.fill(0);
        for b in 0..32usize {
            let byte = planes[b * stride + group];
            if byte == 0 {
                continue;
            }
            for (bit, lane) in lanes.iter_mut().enumerate() {
                *lane |= (((byte >> bit) & 1) as u32) << b;
            }
        }
        chunk.copy_from_slice(&lanes[..chunk.len()]);
    }
}

/// Zero-run encoder: the buffer is emitted as alternating runs. Each run is
/// `[0 varint][zero_len varint]` or `[lit_len varint][lit_len bytes]`.
fn zero_run_encode(buf: &[u8], out: &mut Vec<u8>) {
    let mut pos = 0usize;
    while pos < buf.len() {
        if buf[pos] == 0 {
            let start = pos;
            // Zero runs dominate the plane buffer (high planes of small
            // codes), so the scan skips 8 bytes per step while it can —
            // one u64 compare instead of eight byte loads.
            while pos + 8 <= buf.len()
                && u64::from_le_bytes(buf[pos..pos + 8].try_into().expect("8-byte window")) == 0
            {
                pos += 8;
            }
            while pos < buf.len() && buf[pos] == 0 {
                pos += 1;
            }
            varint::write_u64(out, 0);
            varint::write_u64(out, (pos - start) as u64);
        } else {
            let start = pos;
            // A literal run ends at the next run of >= 4 zeros (short zero
            // gaps are cheaper to keep literal than to tokenise).
            let mut zeros = 0usize;
            while pos < buf.len() && zeros < 4 {
                if buf[pos] == 0 {
                    zeros += 1;
                } else {
                    zeros = 0;
                }
                pos += 1;
            }
            let end = if zeros >= 4 { pos - zeros } else { pos };
            varint::write_u64(out, (end - start) as u64);
            out.extend_from_slice(&buf[start..end]);
            pos = end;
        }
    }
}

/// Inverse of [`zero_run_encode`]; `expected_len` is the plane-buffer size.
#[cfg(test)]
fn zero_run_decode(bytes: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    zero_run_decode_into(bytes, expected_len, &mut out)?;
    Ok(out)
}

/// Allocation-free [`zero_run_decode`]: clears and refills `out`.
fn zero_run_decode_into(bytes: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    out.reserve(expected_len.min(1 << 24));
    let mut pos = 0usize;
    while out.len() < expected_len {
        let token = varint::read_u64(bytes, &mut pos)? as usize;
        if token == 0 {
            let zeros = varint::read_u64(bytes, &mut pos)? as usize;
            if zeros > expected_len - out.len() {
                return Err(CompressError::Corrupt("zero run exceeds plane buffer"));
            }
            out.resize(out.len() + zeros, 0);
        } else {
            let lits = bytes
                .get(pos..pos + token)
                .ok_or(CompressError::Corrupt("literal run past end"))?;
            out.extend_from_slice(lits);
            pos += token;
        }
    }
    if out.len() != expected_len {
        return Err(CompressError::Corrupt("plane buffer length mismatch"));
    }
    if pos != bytes.len() {
        return Err(CompressError::Corrupt("bytes after the last plane run"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_respects_error_bound() {
        let data: Vec<f32> = (0..32 * 128)
            .map(|i| ((i * 53 % 211) as f32 - 100.0) * 0.002)
            .collect();
        let eb = 0.01;
        let enc = compress(&data, 32, eb).unwrap();
        let dec = decompress(&enc).unwrap();
        assert_eq!(dec.len(), data.len());
        for (a, b) in data.iter().zip(dec.iter()) {
            assert!((a - b).abs() <= eb * 1.0001);
        }
    }

    #[test]
    fn bitshuffle_roundtrips_exactly() {
        let symbols: Vec<u32> = (0..1000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) >> 10)
            .collect();
        let planes = bitshuffle(&symbols);
        assert_eq!(bitunshuffle(&planes, symbols.len()), symbols);
        // Non-multiple-of-8 length.
        let short = &symbols[..13];
        let planes = bitshuffle(short);
        assert_eq!(bitunshuffle(&planes, 13), short);
    }

    #[test]
    fn small_codes_compress_well() {
        // Values within a couple of error bounds of zero → codes fit in 2-3
        // bits → 29+ planes are all zero → high ratio.
        let data: Vec<f32> = (0..8192).map(|i| ((i % 5) as f32 - 2.0) * 0.004).collect();
        let enc = compress(&data, 32, 0.01).unwrap();
        let ratio = (data.len() * 4) as f64 / enc.len() as f64;
        assert!(ratio > 6.0, "ratio {ratio:.2}");
    }

    #[test]
    fn zero_run_encoder_roundtrips_edge_cases() {
        for buf in [vec![], vec![0u8; 100], vec![1u8; 100], {
            let mut v = vec![0u8; 10];
            v.extend([1, 2, 3]);
            v.extend(vec![0u8; 50]);
            v.extend([9]);
            v
        }] {
            let mut enc = Vec::new();
            zero_run_encode(&buf, &mut enc);
            let dec = zero_run_decode(&enc, buf.len()).unwrap();
            assert_eq!(dec, buf);
        }
    }

    #[test]
    fn validation_errors() {
        assert!(compress(&[1.0, 2.0, 3.0], 2, 0.01).is_err());
        assert!(compress(&[f32::NAN], 1, 0.01).is_err());
        assert!(compress(&[1.0], 1, -0.5).is_err());
    }

    #[test]
    fn empty_roundtrip() {
        let enc = compress(&[], 16, 0.01).unwrap();
        assert!(decompress(&enc).unwrap().is_empty());
    }
}
