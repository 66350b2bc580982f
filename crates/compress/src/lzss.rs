//! Byte-oriented LZSS — the "nvCOMP-LZ4-like" lossless baseline.
//!
//! This is a deliberately traditional LZ: it matches byte strings of
//! *variable* length inside a small (4 KiB by default) sliding window,
//! exactly the kind of matcher the paper argues is mismatched to embedding
//! traffic — a repeated 128/256-byte embedding vector is found only if the
//! window still contains it and is re-discovered byte by byte. It operates on
//! raw bytes and is lossless, so on 32-bit floating point lookups most of the
//! mantissa noise is incompressible, which is why the paper's measured
//! nvCOMP-LZ4 ratios hover barely above 1 for many tables.
//!
//! Stream layout: `[n_bytes varint]` then a sequence of operations:
//! `[0 varint][len varint][len literal bytes]` or
//! `[match_len varint >= MIN_MATCH][distance varint]`.

use crate::error::CompressError;
use crate::scratch::{CompressScratch, LZSS_CHAIN};
use crate::varint;
use crate::Result;

/// Minimum match length worth encoding (shorter matches cost more than
/// literals once token overhead is counted).
pub const MIN_MATCH: usize = 4;

/// Default sliding-window size in bytes, matching the small windows of
/// traditional LZ implementations the paper contrasts against.
pub const DEFAULT_WINDOW: usize = 4096;

/// Number of candidate positions remembered per 4-byte hash bucket.
const CHAIN: usize = LZSS_CHAIN;

/// LZSS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LzssConfig {
    /// Sliding window size in bytes.
    pub window: usize,
    /// Maximum match length (caps the inner comparison loop).
    pub max_match: usize,
}

impl Default for LzssConfig {
    fn default() -> Self {
        Self {
            window: DEFAULT_WINDOW,
            max_match: 1 << 16,
        }
    }
}

/// Compress a byte slice.
pub fn compress_bytes(input: &[u8], config: LzssConfig) -> Vec<u8> {
    let mut scratch = CompressScratch::new();
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    compress_bytes_into(input, config, &mut scratch, &mut out);
    out
}

/// Allocation-free [`compress_bytes`]: *appends* the stream to `out`,
/// reusing the scratch's hash-chain table and literal-run buffer.
pub fn compress_bytes_into(
    input: &[u8],
    config: LzssConfig,
    scratch: &mut CompressScratch,
    out: &mut Vec<u8>,
) {
    // Worst case ≈ all literals plus run headers; reserving it up front
    // keeps the output buffer from growing after its first use.
    out.reserve(input.len() + input.len() / 4 + 64);
    varint::write_u64(out, input.len() as u64);
    if input.is_empty() {
        return;
    }

    // Hash table over 4-byte prefixes → up to CHAIN recent positions.
    let buckets = (input.len().next_power_of_two()).clamp(1 << 8, 1 << 16);
    let table = &mut scratch.lzss_table;
    table.clear();
    table.resize(buckets, [usize::MAX; CHAIN]);

    let literals = &mut scratch.literals;
    literals.clear();
    let mut pos = 0usize;
    while pos < input.len() {
        let (best_len, best_dist) = if pos + MIN_MATCH <= input.len() {
            find_match(input, pos, table, buckets, config)
        } else {
            (0, 0)
        };
        if best_len >= MIN_MATCH {
            flush_literals(out, literals);
            varint::write_u64(out, best_len as u64);
            varint::write_u64(out, best_dist as u64);
            // Index every position covered by the match so later data can
            // refer back into it.
            let end = (pos + best_len).min(input.len());
            let mut p = pos;
            while p < end && p + MIN_MATCH <= input.len() {
                insert(table, buckets, input, p);
                p += 1;
            }
            pos = end;
        } else {
            if pos + MIN_MATCH <= input.len() {
                insert(table, buckets, input, pos);
            }
            literals.push(input[pos]);
            pos += 1;
        }
    }
    flush_literals(out, literals);
}

/// Decompress a stream produced by [`compress_bytes`].
pub fn decompress_bytes(bytes: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    decompress_bytes_into(bytes, &mut out)?;
    Ok(out)
}

/// Allocation-free [`decompress_bytes`]: clears and refills `out`.
pub fn decompress_bytes_into(bytes: &[u8], out: &mut Vec<u8>) -> Result<()> {
    let mut pos = 0usize;
    let n = varint::read_u64(bytes, &mut pos)? as usize;
    out.clear();
    out.reserve(n.min(1 << 24));
    while out.len() < n {
        let token = varint::read_u64(bytes, &mut pos)? as usize;
        if token == 0 {
            let len = varint::read_u64(bytes, &mut pos)? as usize;
            let lits = bytes
                .get(pos..pos + len)
                .ok_or(CompressError::Corrupt("literal run past end"))?;
            out.extend_from_slice(lits);
            pos += len;
        } else {
            let len = token;
            let dist = varint::read_u64(bytes, &mut pos)? as usize;
            if dist == 0 || dist > out.len() {
                return Err(CompressError::Corrupt("match distance out of range"));
            }
            if len > n - out.len() {
                return Err(CompressError::Corrupt(
                    "match length overruns declared size",
                ));
            }
            let start = out.len() - dist;
            // Overlapping copies are legal (dist < len) — copy byte-wise.
            for i in 0..len {
                let b = out[start + i];
                out.push(b);
            }
        }
    }
    if out.len() != n {
        return Err(CompressError::Corrupt("decoded length mismatch"));
    }
    if pos != bytes.len() {
        return Err(CompressError::Corrupt("bytes after the last token"));
    }
    Ok(())
}

fn flush_literals(out: &mut Vec<u8>, literals: &mut Vec<u8>) {
    if literals.is_empty() {
        return;
    }
    varint::write_u64(out, 0);
    varint::write_u64(out, literals.len() as u64);
    out.extend_from_slice(literals);
    literals.clear();
}

fn hash4(input: &[u8], pos: usize, buckets: usize) -> usize {
    let v = u32::from_le_bytes([input[pos], input[pos + 1], input[pos + 2], input[pos + 3]]);
    (v.wrapping_mul(2_654_435_761) as usize) & (buckets - 1)
}

fn insert(table: &mut [[usize; CHAIN]], buckets: usize, input: &[u8], pos: usize) {
    let h = hash4(input, pos, buckets);
    let bucket = &mut table[h];
    bucket.rotate_right(1);
    bucket[0] = pos;
}

fn find_match(
    input: &[u8],
    pos: usize,
    table: &[[usize; CHAIN]],
    buckets: usize,
    config: LzssConfig,
) -> (usize, usize) {
    let h = hash4(input, pos, buckets);
    let mut best_len = 0usize;
    let mut best_dist = 0usize;
    for &cand in &table[h] {
        if cand == usize::MAX || cand >= pos {
            continue;
        }
        let dist = pos - cand;
        if dist > config.window {
            continue;
        }
        let limit = (input.len() - pos).min(config.max_match);
        let mut len = 0usize;
        while len < limit && input[cand + len] == input[pos + len] {
            len += 1;
        }
        if len > best_len {
            best_len = len;
            best_dist = dist;
        }
    }
    (best_len, best_dist)
}

/// Convenience: compress a slice of f32 values losslessly (bit-exact).
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
    crate::scratch::decompress_f32_staged(scratch, out, |_scratch, raw| {
        decompress_bytes_into(bytes, raw)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let enc = compress_bytes(data, LzssConfig::default());
        let dec = decompress_bytes(&enc).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        roundtrip(&[]);
        roundtrip(&[1]);
        roundtrip(&[1, 2, 3]);
    }

    #[test]
    fn roundtrip_repetitive() {
        let data: Vec<u8> = b"abcabcabcabcabcabcabcabcabc".to_vec();
        roundtrip(&data);
        let enc = compress_bytes(&data, LzssConfig::default());
        assert!(enc.len() < data.len());
    }

    #[test]
    fn roundtrip_long_repeats_and_random_tail() {
        let mut data = vec![0u8; 5000];
        for (i, b) in data.iter_mut().enumerate() {
            *b = ((i * 7) % 11) as u8;
        }
        data.extend((0..997u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8));
        roundtrip(&data);
    }

    #[test]
    fn overlapping_match_roundtrips() {
        // "aaaaa..." forces dist=1, len>1 overlapping copies.
        let data = vec![b'a'; 300];
        roundtrip(&data);
        let enc = compress_bytes(&data, LzssConfig::default());
        assert!(enc.len() < 30);
    }

    #[test]
    fn window_limits_matches() {
        // A pattern repeated beyond the window must not be matched.
        let pattern: Vec<u8> = (0..64u8).collect();
        let mut data = pattern.clone();
        data.extend(std::iter::repeat_n(0xAB, 8192)); // push pattern out of a 4 KiB window
        data.extend_from_slice(&pattern);
        let small = compress_bytes(
            &data,
            LzssConfig {
                window: 4096,
                ..Default::default()
            },
        );
        let large = compress_bytes(
            &data,
            LzssConfig {
                window: 1 << 20,
                ..Default::default()
            },
        );
        assert!(large.len() <= small.len());
        assert_eq!(decompress_bytes(&small).unwrap(), data);
        assert_eq!(decompress_bytes(&large).unwrap(), data);
    }

    #[test]
    fn f32_roundtrip_is_bit_exact() {
        let data: Vec<f32> = (0..2000)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.1 + 1e-7)
            .collect();
        let enc = compress_f32(&data, LzssConfig::default());
        let dec = decompress_f32(&enc).unwrap();
        assert_eq!(dec.len(), data.len());
        for (a, b) in data.iter().zip(dec.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let enc = compress_bytes(b"hello world hello world", LzssConfig::default());
        // Truncation may or may not hit payload bytes; must not panic.
        let _ = decompress_bytes(&enc[..enc.len() - 2]);
        let mut bad = enc.clone();
        if bad.len() > 3 {
            bad[2] = 0xFF;
        }
        let _ = decompress_bytes(&bad);
        // Bogus distance.
        let mut stream = Vec::new();
        varint::write_u64(&mut stream, 10);
        varint::write_u64(&mut stream, 5); // match len 5
        varint::write_u64(&mut stream, 9); // distance 9 with empty history
        assert!(decompress_bytes(&stream).is_err());
    }

    #[test]
    fn random_float_bytes_do_not_compress_much() {
        // The motivation for lossy compression: lossless LZ on float batches
        // with noisy mantissas achieves ratios near 1.
        let data: Vec<f32> = (0..4096)
            .map(|i| ((i as u32).wrapping_mul(2_654_435_761) as f32 / u32::MAX as f32) - 0.5)
            .collect();
        let enc = compress_f32(&data, LzssConfig::default());
        let ratio = (data.len() * 4) as f64 / enc.len() as f64;
        assert!(ratio < 1.6, "unexpectedly high lossless ratio {ratio:.2}");
    }
}
