//! Deflate-like lossless baseline: LZSS followed by an order-0 Huffman pass.
//!
//! nvCOMP's Deflate achieves roughly the same compression ratio as its LZ4
//! with somewhat lower throughput (Section IV-C of the paper). This module
//! reproduces that algorithmic family by running the byte-oriented LZSS of
//! [`crate::lzss`] and entropy-coding the resulting token stream with the
//! canonical Huffman coder — the same LZ+entropy structure as DEFLATE without
//! the format details of RFC 1951.

use crate::huffman;
use crate::lzss::{self, LzssConfig};
use crate::scratch::CompressScratch;
use crate::varint;
use crate::Result;

/// Compress a byte slice: LZSS, then Huffman over the LZSS output bytes.
///
/// Layout: `[lzss_len varint][huffman(lzss stream)]`.
pub fn compress_bytes(input: &[u8], config: LzssConfig) -> Vec<u8> {
    let mut scratch = CompressScratch::new();
    let mut out = Vec::new();
    compress_bytes_into(input, config, &mut scratch, &mut out);
    out
}

/// Allocation-free [`compress_bytes`]: *appends* the stream to `out`.
pub fn compress_bytes_into(
    input: &[u8],
    config: LzssConfig,
    scratch: &mut CompressScratch,
    out: &mut Vec<u8>,
) {
    let mut lz = std::mem::take(&mut scratch.stage2);
    lz.clear();
    lzss::compress_bytes_into(input, config, scratch, &mut lz);
    scratch.symbols.clear();
    scratch.symbols.extend(lz.iter().map(|&b| b as u32));
    // Worst case ≈ 15-bit codes for every LZSS byte plus the length table.
    out.reserve(lz.len() * 2 + 600);
    varint::write_u64(out, lz.len() as u64);
    huffman::encode_into(&scratch.symbols, &mut scratch.huffman, out);
    scratch.stage2 = lz;
}

/// Decompress a stream produced by [`compress_bytes`].
pub fn decompress_bytes(bytes: &[u8]) -> Result<Vec<u8>> {
    let mut scratch = CompressScratch::new();
    let mut out = Vec::new();
    decompress_bytes_into(bytes, &mut scratch, &mut out)?;
    Ok(out)
}

/// Allocation-free [`decompress_bytes`]: clears and refills `out`.
pub fn decompress_bytes_into(
    bytes: &[u8],
    scratch: &mut CompressScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    let mut pos = 0usize;
    let lz_len = varint::read_u64(bytes, &mut pos)? as usize;
    let mut lz = std::mem::take(&mut scratch.stage2);
    lz.clear();
    let result =
        huffman::decode_map_into(&bytes[pos..], &mut scratch.huffman, &mut lz, |s| s as u8)
            .and_then(|decoded| {
                if decoded != lz_len {
                    return Err(crate::error::CompressError::Corrupt(
                        "inner LZSS stream has unexpected length",
                    ));
                }
                lzss::decompress_bytes_into(&lz, out)
            });
    scratch.stage2 = lz;
    result
}

/// Compress a slice of f32 values losslessly (bit-exact).
pub fn compress_f32(data: &[f32], config: LzssConfig) -> Vec<u8> {
    let mut scratch = CompressScratch::new();
    let mut out = Vec::new();
    compress_f32_into(data, config, &mut scratch, &mut out);
    out
}

/// Allocation-free [`compress_f32`]: *appends* the stream to `out`.
pub fn compress_f32_into(
    data: &[f32],
    config: LzssConfig,
    scratch: &mut CompressScratch,
    out: &mut Vec<u8>,
) {
    crate::scratch::with_f32_staged(data, scratch, |bytes, scratch| {
        compress_bytes_into(bytes, config, scratch, out)
    });
}

/// Inverse of [`compress_f32`].
pub fn decompress_f32(bytes: &[u8]) -> Result<Vec<f32>> {
    let mut scratch = CompressScratch::new();
    let mut out = Vec::new();
    decompress_f32_into(bytes, &mut scratch, &mut out)?;
    Ok(out)
}

/// Allocation-free [`decompress_f32`]: *appends* the values to `out`.
pub fn decompress_f32_into(
    bytes: &[u8],
    scratch: &mut CompressScratch,
    out: &mut Vec<f32>,
) -> Result<()> {
    crate::scratch::decompress_f32_staged(scratch, out, |scratch, raw| {
        decompress_bytes_into(bytes, scratch, raw)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_text_and_binary() {
        for data in [
            b"".to_vec(),
            b"deflate-like baseline".to_vec(),
            (0..4096u32)
                .flat_map(|i| i.to_le_bytes())
                .collect::<Vec<u8>>(),
            vec![7u8; 10_000],
        ] {
            let enc = compress_bytes(&data, LzssConfig::default());
            assert_eq!(decompress_bytes(&enc).unwrap(), data);
        }
    }

    #[test]
    fn f32_roundtrip_is_bit_exact() {
        let data: Vec<f32> = (0..1024).map(|i| (i as f32).sqrt() - 12.0).collect();
        let enc = compress_f32(&data, LzssConfig::default());
        let dec = decompress_f32(&enc).unwrap();
        for (a, b) in data.iter().zip(dec.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn improves_on_plain_lzss_for_skewed_bytes() {
        // Bytes drawn from a skewed distribution with little LZ-exploitable
        // repetition: the entropy stage should more than pay for its
        // code-table overhead.
        let data: Vec<u8> = (0..60_000usize)
            .map(|i| {
                let r = (i.wrapping_mul(2_654_435_761)) >> 16;
                // ~75% of bytes come from a 4-symbol head, the rest spread out.
                if r % 4 != 0 {
                    (r % 4) as u8
                } else {
                    (r % 251) as u8
                }
            })
            .collect();
        let lz_only = lzss::compress_bytes(&data, LzssConfig::default());
        let both = compress_bytes(&data, LzssConfig::default());
        assert!(
            both.len() < lz_only.len(),
            "deflate {} vs lzss {}",
            both.len(),
            lz_only.len()
        );
    }

    #[test]
    fn corrupt_stream_errors() {
        let enc = compress_bytes(b"some data that will be damaged", LzssConfig::default());
        let _ = decompress_bytes(&enc[..enc.len().saturating_sub(3)]);
        let garbage = vec![0x55u8; 16];
        let _ = decompress_bytes(&garbage);
    }
}
