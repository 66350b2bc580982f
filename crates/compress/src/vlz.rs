//! Vector-based LZ encoder.
//!
//! The paper's key observation about embedding traffic is that repeated
//! lookups of hot categories produce *whole repeated embedding vectors*, and
//! after quantization even merely-similar vectors collapse into identical
//! ones ("vector homogenization"). A byte-oriented LZ (LZ4, LZSS) has to
//! rediscover these repeats byte by byte inside a small window; the paper's
//! vector-based LZ instead:
//!
//! * uses a **fixed pattern length** equal to one embedding vector — a match
//!   is all-or-nothing on a whole vector, so a single mismatching leading
//!   value skips the entire comparison; and
//! * uses an **extended window** measured in vectors (32–255 in Table VI)
//!   rather than the 4–8 KiB byte windows of traditional LZ.
//!
//! The encoder works on quantized codes, so it composes with the
//! error-bounded quantizer to form the lossy "Ours-Vector" compressor of the
//! paper; run on raw bit patterns it would be lossless, but that mode is not
//! needed here.
//!
//! Stream layout (all byte-aligned):
//! `[n_vectors varint] [dim varint] [window varint] [eb f32]` then, per
//! vector, one varint token: `0` = literal (followed by `dim` ZigZag varint
//! codes), `k > 0` = copy of the vector `k` positions back.

use crate::error::CompressError;
use crate::quant;
use crate::scratch::CompressScratch;
use crate::varint;
use crate::Result;
use std::collections::HashMap;

/// Default match window, in vectors. Table VI of the paper shows 255 giving
/// the best compression on both datasets; it is also the largest distance a
/// one-byte varint token can express, which keeps match tokens minimal.
pub const DEFAULT_WINDOW: usize = 255;

/// Configuration of the vector-based LZ encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlzConfig {
    /// Match window measured in vectors.
    pub window: usize,
}

impl Default for VlzConfig {
    fn default() -> Self {
        Self {
            window: DEFAULT_WINDOW,
        }
    }
}

impl VlzConfig {
    /// Construct a config with the given window (in vectors).
    pub fn with_window(window: usize) -> Self {
        assert!(window > 0, "window must be at least one vector");
        Self { window }
    }
}

/// Compress a batch of `f32` embedding vectors with error bound `eb`.
///
/// `data.len()` must be a multiple of `dim`.
pub fn compress(data: &[f32], dim: usize, eb: f32, config: VlzConfig) -> Result<Vec<u8>> {
    let mut scratch = CompressScratch::new();
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    compress_into(data, dim, eb, config, &mut scratch, &mut out)?;
    Ok(out)
}

/// Allocation-free [`compress`]: *appends* the stream to `out`, drawing
/// every intermediate (quantization codes, match table) from `scratch`.
pub fn compress_into(
    data: &[f32],
    dim: usize,
    eb: f32,
    config: VlzConfig,
    scratch: &mut CompressScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    quant::check_dim(data.len(), dim)?;
    quant::quantize_into(data, eb, &mut scratch.codes)?;
    encode_codes_into(dim, eb, config, scratch, out);
    Ok(())
}

/// The lossless half of [`compress_into`]: *appends* the stream of the
/// quantization codes already in `scratch.codes` (a whole number of
/// `dim`-vectors, quantized with `eb`) to `out`, leaving the codes in place.
pub(crate) fn encode_codes_into(
    dim: usize,
    eb: f32,
    config: VlzConfig,
    scratch: &mut CompressScratch,
    out: &mut Vec<u8>,
) {
    let n_values = scratch.codes.len();
    let n_vectors = n_values / dim;

    // Worst case: every vector is a literal of 5-byte varint codes plus a
    // token byte. Reserving it up front means the output buffer reaches its
    // high-water capacity on the first call and never grows again — the
    // property the zero-allocation steady state relies on.
    out.reserve(n_values * 5 + n_vectors + 32);
    varint::write_u64(out, n_vectors as u64);
    varint::write_u64(out, dim as u64);
    varint::write_u64(out, config.window as u64);
    varint::write_f32_le(out, eb);

    // Map from vector *content hash* to the most recent index at which that
    // content appeared; a hit is verified against the actual codes so a
    // 64-bit collision degrades to a literal instead of a wrong match. The
    // "extended window" is enforced by checking the distance at match time;
    // stale entries are simply overwritten as new vectors arrive.
    let recent = &mut scratch.vlz_map;
    recent.clear();
    // Worst case: every vector distinct. Reserving it up front pins the
    // map's capacity on the first call with this batch shape, so a later
    // batch with more distinct vectors cannot grow it mid-steady-state.
    recent.reserve(n_vectors);

    for v in 0..n_vectors {
        let codes = &scratch.codes[v * dim..(v + 1) * dim];
        let key = hash_codes(codes);
        let matched = match recent.get(&key) {
            Some(&prev)
                if v - prev <= config.window
                    && scratch.codes[prev * dim..(prev + 1) * dim] == *codes =>
            {
                Some(prev)
            }
            _ => None,
        };
        match matched {
            Some(prev) => {
                // Match: emit the backward distance (>= 1).
                varint::write_u64(out, (v - prev) as u64);
            }
            None => {
                // Literal: token 0 followed by the zigzag-coded values.
                // Quantized embedding codes concentrate near zero, so most
                // chunks of 8 zigzags fit a single varint byte each — those
                // are emitted as one fixed-width append (the bound is the OR
                // of the chunk, one branch) instead of eight tokenized
                // writes. The stream is byte-identical either way.
                varint::write_u64(out, 0);
                let mut chunks = codes.chunks_exact(8);
                for chunk in &mut chunks {
                    let mut z = [0u64; 8];
                    for (slot, &c) in z.iter_mut().zip(chunk) {
                        *slot = varint::zigzag(c as i64);
                    }
                    if z.iter().fold(0, |acc, &v| acc | v) < 0x80 {
                        let bytes = z.map(|v| v as u8);
                        out.extend_from_slice(&bytes);
                    } else {
                        for &v in &z {
                            varint::write_u64(out, v);
                        }
                    }
                }
                for &c in chunks.remainder() {
                    varint::write_i64(out, c as i64);
                }
            }
        }
        recent.insert(key, v);
    }
}

/// FNV-1a over a vector's quantization codes.
fn hash_codes(codes: &[i32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    for &c in codes {
        h ^= c as u32 as u64;
        h = h.wrapping_mul(0x100_0000_01b3); // FNV prime (2^40 + 0x1b3)
    }
    h
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(bytes: &[u8]) -> Result<Vec<f32>> {
    let mut scratch = CompressScratch::new();
    let mut out = Vec::new();
    decompress_into(bytes, &mut scratch, &mut out)?;
    Ok(out)
}

/// Allocation-free [`decompress`]: *appends* the reconstructed values to
/// `out`, reusing `scratch` for the code buffer.
pub fn decompress_into(
    bytes: &[u8],
    scratch: &mut CompressScratch,
    out: &mut Vec<f32>,
) -> Result<()> {
    let mut pos = 0usize;
    let n_vectors = varint::read_u64(bytes, &mut pos)? as usize;
    let dim = varint::read_u64(bytes, &mut pos)? as usize;
    let _window = varint::read_u64(bytes, &mut pos)? as usize;
    let eb = varint::read_f32_le(bytes, &mut pos)?;
    if n_vectors > 0 && dim == 0 {
        return Err(CompressError::Corrupt(
            "zero dimension with non-zero vectors",
        ));
    }
    quant::validate_error_bound(eb)
        .map_err(|_| CompressError::Corrupt("bad error bound in header"))?;

    let codes = &mut scratch.codes;
    codes.clear();
    codes.reserve((n_vectors.saturating_mul(dim)).min(1 << 22));
    for v in 0..n_vectors {
        let token = varint::read_u64(bytes, &mut pos)? as usize;
        if token == 0 {
            // Fast path: when every one of the next `dim` bytes is a
            // terminal varint byte, the literal is a run of single-byte
            // zigzags — decode it as one fixed-width pass (the all-terminal
            // scan vectorizes; each decoded value fits i32 by construction).
            match bytes.get(pos..pos + dim) {
                Some(run) if run.iter().all(|&b| b < 0x80) => {
                    codes.extend(run.iter().map(|&b| varint::unzigzag(u64::from(b)) as i32));
                    pos += dim;
                }
                _ => {
                    for _ in 0..dim {
                        let c = varint::read_i64(bytes, &mut pos)?;
                        codes.push(
                            i32::try_from(c)
                                .map_err(|_| CompressError::Corrupt("literal code overflow"))?,
                        );
                    }
                }
            }
        } else {
            if token > v {
                return Err(CompressError::Corrupt(
                    "match distance reaches before start",
                ));
            }
            let src = (v - token) * dim;
            codes.extend_from_within(src..src + dim);
        }
    }
    quant::dequantize_into(codes, eb, out)
}

/// Statistics about how well the vector matcher did on a batch — used by the
/// offline analysis (Figure 13's "matched patterns") and by tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchStats {
    /// Total vectors in the batch.
    pub vectors: usize,
    /// Vectors emitted as matches (references to an earlier vector).
    pub matched: usize,
    /// Vectors emitted as literals.
    pub literals: usize,
    /// Number of distinct quantized vectors observed.
    pub distinct_quantized: usize,
}

/// Analyse a batch without producing output bytes.
pub fn match_stats(data: &[f32], dim: usize, eb: f32, config: VlzConfig) -> Result<MatchStats> {
    quant::check_dim(data.len(), dim)?;
    let q = quant::quantize(data, eb)?;
    let n_vectors = data.len() / dim;
    let mut recent: HashMap<&[i32], usize> = HashMap::new();
    let mut distinct: std::collections::HashSet<&[i32]> = std::collections::HashSet::new();
    let mut matched = 0usize;
    for v in 0..n_vectors {
        let codes = &q.codes[v * dim..(v + 1) * dim];
        distinct.insert(codes);
        if let Some(&prev) = recent.get(codes) {
            if v - prev <= config.window {
                matched += 1;
            }
        }
        recent.insert(codes, v);
    }
    Ok(MatchStats {
        vectors: n_vectors,
        matched,
        literals: n_vectors - matched,
        distinct_quantized: distinct.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_batch(vectors: &[Vec<f32>]) -> (Vec<f32>, usize) {
        let dim = vectors[0].len();
        (vectors.iter().flatten().copied().collect(), dim)
    }

    #[test]
    fn roundtrip_respects_error_bound() {
        let data: Vec<f32> = (0..32 * 50)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.003)
            .collect();
        let eb = 0.01;
        let enc = compress(&data, 32, eb, VlzConfig::default()).unwrap();
        let dec = decompress(&enc).unwrap();
        assert_eq!(dec.len(), data.len());
        for (a, b) in data.iter().zip(dec.iter()) {
            assert!((a - b).abs() <= eb * 1.0001);
        }
    }

    #[test]
    fn repeated_vectors_compress_massively() {
        let v: Vec<f32> = (0..64).map(|i| (i as f32) * 0.01 - 0.3).collect();
        let mut data = Vec::new();
        for _ in 0..200 {
            data.extend_from_slice(&v);
        }
        let enc = compress(&data, 64, 0.01, VlzConfig::default()).unwrap();
        let ratio = (data.len() * 4) as f64 / enc.len() as f64;
        assert!(ratio > 50.0, "expected huge ratio, got {ratio:.1}");
        let dec = decompress(&enc).unwrap();
        for (a, b) in data.iter().zip(dec.iter()) {
            assert!((a - b).abs() <= 0.0101);
        }
    }

    #[test]
    fn homogenized_vectors_match_after_quantization() {
        // Two vectors that differ by less than the bin width must collapse to
        // one literal + one match.
        let a: Vec<f32> = vec![0.100, -0.200, 0.300, 0.0];
        let b: Vec<f32> = vec![0.1004, -0.2003, 0.2996, 0.0004];
        let (data, dim) = vec_batch(&[a, b]);
        let stats = match_stats(&data, dim, 0.01, VlzConfig::default()).unwrap();
        assert_eq!(stats.matched, 1);
        assert_eq!(stats.distinct_quantized, 1);
    }

    #[test]
    fn window_limits_match_distance() {
        // A repeated vector farther back than the window must not match.
        let hot: Vec<f32> = vec![0.5; 8];
        let mut vectors: Vec<Vec<f32>> = vec![hot.clone()];
        for i in 0..10 {
            vectors.push((0..8).map(|j| (i * 8 + j) as f32 * 0.01).collect());
        }
        vectors.push(hot.clone()); // distance 11 from the first occurrence
        let (data, dim) = vec_batch(&vectors);
        let narrow = match_stats(&data, dim, 0.001, VlzConfig::with_window(5)).unwrap();
        assert_eq!(narrow.matched, 0);
        let wide = match_stats(&data, dim, 0.001, VlzConfig::with_window(64)).unwrap();
        assert_eq!(wide.matched, 1);
    }

    #[test]
    fn wider_window_never_hurts_compression() {
        // Synthetic batch with repeats at varying distances.
        let mut data = Vec::new();
        let dim = 16;
        for i in 0..300 {
            let id = (i * 31) % 40; // 40 distinct vectors reused
            data.extend((0..dim).map(|j| ((id * dim + j) as f32) * 0.004));
        }
        let sizes: Vec<usize> = [32, 64, 128, 255]
            .iter()
            .map(|&w| {
                compress(&data, dim, 0.01, VlzConfig::with_window(w))
                    .unwrap()
                    .len()
            })
            .collect();
        for pair in sizes.windows(2) {
            // +2 bytes of slack: the header stores the window itself, and a
            // larger window value can cost one extra varint byte.
            assert!(
                pair[1] <= pair[0] + 2,
                "larger window produced larger output: {sizes:?}"
            );
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        assert!(matches!(
            compress(&[1.0, 2.0, 3.0], 2, 0.01, VlzConfig::default()),
            Err(CompressError::DimensionMismatch { .. })
        ));
        assert!(compress(&[1.0, 2.0], 0, 0.01, VlzConfig::default()).is_err());
    }

    #[test]
    fn empty_input_roundtrips() {
        let enc = compress(&[], 32, 0.01, VlzConfig::default()).unwrap();
        let dec = decompress(&enc).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn corrupt_match_distance_detected() {
        // First token claiming a match (distance 1) before any vector exists.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 1); // one vector
        varint::write_u64(&mut bytes, 4); // dim
        varint::write_u64(&mut bytes, 255); // window
        varint::write_f32_le(&mut bytes, 0.01);
        varint::write_u64(&mut bytes, 1); // bogus match
        assert!(decompress(&bytes).is_err());
    }

    #[test]
    fn truncated_stream_detected() {
        let data: Vec<f32> = (0..64).map(|i| i as f32 * 0.01).collect();
        let enc = compress(&data, 8, 0.01, VlzConfig::default()).unwrap();
        let truncated = &enc[..enc.len() - 3];
        assert!(decompress(truncated).is_err());
    }

    #[test]
    fn match_stats_accounting_adds_up() {
        let data: Vec<f32> = (0..8 * 20).map(|i| ((i / 8) % 4) as f32 * 0.1).collect();
        let s = match_stats(&data, 8, 0.01, VlzConfig::default()).unwrap();
        assert_eq!(s.vectors, 20);
        assert_eq!(s.matched + s.literals, s.vectors);
        assert_eq!(s.distinct_quantized, 4);
        assert_eq!(s.literals, 4);
    }
}
