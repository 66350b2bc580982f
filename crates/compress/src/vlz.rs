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
//! Matches are found through a flat, linearly probed table from a 64-bit
//! content hash to the most recent vector carrying it (`MatchTable`); every
//! hit is verified against the codes themselves, so neither the table nor
//! the hash function is visible in the stream.
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

    // Content hash → most recent vector with that hash. A hit is verified
    // against the actual codes, so a 64-bit collision degrades to a literal
    // instead of a wrong match; the "extended window" is enforced by
    // checking the distance at match time, and a stale entry is simply
    // overwritten when its content comes round again.
    let mut recent = MatchTable::reset(&mut scratch.vlz_table, n_vectors);

    for v in 0..n_vectors {
        let codes = &scratch.codes[v * dim..(v + 1) * dim];
        match recent.replace(hash_codes(codes), v) {
            Some(prev)
                if v - prev <= config.window
                    && scratch.codes[prev * dim..(prev + 1) * dim] == *codes =>
            {
                // Match: emit the backward distance (>= 1).
                varint::write_u64(out, (v - prev) as u64);
            }
            _ => {
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
    }
}

/// The encoder's match table: an open-addressed, linearly probed map from a
/// vector's content hash to the most recent vector index carrying that hash,
/// laid over a slice of `scratch.vlz_table`.
///
/// Contract: the slice is a power of two at least twice the batch's vector
/// count, so with one entry per distinct hash it is never more than half
/// full and every probe ends at the hash or at an empty slot; entries are
/// only ever added or overwritten (no tombstones). A slot is `(hash, index +
/// 1)`, `0` marking it empty, so resetting is a zero fill.
struct MatchTable<'a> {
    slots: &'a mut [(u64, u32)],
}

impl<'a> MatchTable<'a> {
    /// An empty table for a batch of `n_vectors`. The backing buffer only
    /// depends on the batch *shape*: it reaches its size on the first batch
    /// and a later one with more distinct vectors cannot grow it.
    fn reset(buffer: &'a mut Vec<(u64, u32)>, n_vectors: usize) -> Self {
        assert!(
            n_vectors < u32::MAX as usize,
            "vector-LZ indexes vectors with 32 bits"
        );
        buffer.clear();
        buffer.resize((2 * n_vectors).next_power_of_two(), (0, 0));
        Self { slots: buffer }
    }

    /// Record `index` as the most recent vector hashing to `hash` and return
    /// the one it replaces, if any.
    fn replace(&mut self, hash: u64, index: usize) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = &mut self.slots[at];
            if slot.1 == 0 || slot.0 == hash {
                let previous = (slot.1 as usize).checked_sub(1);
                *slot = (hash, index as u32 + 1);
                return previous;
            }
            at = (at + 1) & mask;
        }
    }
}

/// Content hash of one vector's quantization codes: four independent
/// multiply–rotate lanes, each fed one `u64` pair of codes per 8-code block
/// (so the multiplies of a block overlap instead of forming one serial
/// chain), folded and finished with an avalanche so the table can index by
/// the low bits. Never written to the stream.
fn hash_codes(codes: &[i32]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15; // 2^64 / golden ratio, odd
    let step = |lane: u64, word: u64| (lane ^ word).wrapping_mul(K).rotate_left(31);
    let pair = |lo: i32, hi: i32| u64::from(lo as u32) | u64::from(hi as u32) << 32;
    let mut lanes = [
        0x243F_6A88_85A3_08D3u64,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    let mut blocks = codes.chunks_exact(8);
    for block in &mut blocks {
        for (lane, words) in lanes.iter_mut().zip(block.chunks_exact(2)) {
            *lane = step(*lane, pair(words[0], words[1]));
        }
    }
    for (lane, words) in lanes.iter_mut().zip(blocks.remainder().chunks(2)) {
        *lane = step(*lane, pair(words[0], words.get(1).copied().unwrap_or(0)));
    }
    let mut h =
        lanes[0] ^ lanes[1].rotate_left(16) ^ lanes[2].rotate_left(32) ^ lanes[3].rotate_left(48);
    h = (h ^ h >> 32).wrapping_mul(K);
    h ^ h >> 29
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
    use crate::reference;
    use proptest::prelude::*;

    const DIMS: [usize; 5] = [1, 7, 8, 9, 32];
    const WINDOWS: [usize; 3] = [1, 2, 255];

    /// Vector `id` of a pool: distinct per id in every coordinate range the
    /// literal writer distinguishes (one-byte codes, or some wider ones).
    fn pool_vector(id: usize, dim: usize, wide: bool) -> impl Iterator<Item = f32> {
        (0..dim).map(move |j| {
            let small = ((id * 31 + j * 7) % 23) as f32 - 11.0;
            let far = if wide && (id + j).is_multiple_of(5) {
                90.0
            } else {
                0.0
            };
            (small + far + (id / 23) as f32 * 23.0 * f32::from(j == 0)) * 0.02
        })
    }

    fn assert_matches_reference(data: &[f32], dim: usize, window: usize, what: &str) -> Vec<u8> {
        let config = VlzConfig::with_window(window);
        let new = compress(data, dim, 0.01, config).unwrap();
        let old = reference::vlz_compress(data, dim, 0.01, config).unwrap();
        assert_eq!(
            new, old,
            "{what}, dim {dim}, window {window}: stream differs"
        );
        new
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The flat match table and the lane hash find exactly the matches
        /// the `HashMap` over FNV-1a found: duplicate-heavy batches, from
        /// one distinct vector to hundreds (long probe chains).
        #[test]
        fn streams_are_byte_identical_to_the_reference(
            dim in (0..DIMS.len()).prop_map(|i| DIMS[i]),
            window in (0..WINDOWS.len()).prop_map(|i| WINDOWS[i]),
            distinct in prop_oneof![1usize..6, 1usize..300],
            picks in prop::collection::vec(any::<u16>(), 0..400),
            wide in any::<bool>(),
        ) {
            let data: Vec<f32> = picks
                .iter()
                .flat_map(|&pick| pool_vector(pick as usize % distinct, dim, wide))
                .collect();
            assert_matches_reference(&data, dim, window, "proptest");
        }
    }

    #[test]
    fn matches_reach_exactly_as_far_as_the_window() {
        for dim in DIMS {
            for window in WINDOWS {
                // Vectors 0..gap of the pool (all distinct), then vector 0
                // again: a match at distance `gap` when the window reaches
                // that far, a literal when it does not.
                let distinct = |gap: usize| -> Vec<f32> {
                    (0..gap)
                        .flat_map(|id| pool_vector(id, dim, false))
                        .collect()
                };
                let tokens = |data: &[f32], what: &str| -> Vec<u8> {
                    let stream = assert_matches_reference(data, dim, window, what);
                    let header = varint::len_u64((data.len() / dim) as u64)
                        + varint::len_u64(dim as u64)
                        + varint::len_u64(window as u64)
                        + 4;
                    stream[header..].to_vec()
                };
                let first = tokens(&distinct(1), "one vector");
                for (gap, what) in [(window, "at the window"), (window + 1, "past it")] {
                    let mut data = distinct(gap);
                    let mut expected = tokens(&data, "distinct vectors");
                    data.extend_from_within(..dim);
                    if gap <= window {
                        varint::write_u64(&mut expected, gap as u64);
                    } else {
                        expected.extend_from_slice(&first);
                    }
                    assert_eq!(
                        tokens(&data, what),
                        expected,
                        "dim {dim} window {window}: {what}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_single_vector_batches_match_the_reference() {
        for dim in DIMS {
            for window in WINDOWS {
                assert_matches_reference(&[], dim, window, "no vector");
                let one: Vec<f32> = pool_vector(3, dim, true).collect();
                assert_matches_reference(&one, dim, window, "one vector");
            }
        }
    }

    #[test]
    fn match_table_probes_past_other_hashes_and_keeps_the_latest_index() {
        let mut buffer = vec![(9, 9); 3]; // stale content from another batch
        let mut table = MatchTable::reset(&mut buffer, 4);
        assert_eq!(table.slots.len(), 8);
        // Three hashes that all start probing at slot 5, the last wrapping.
        let (a, b, c) = (0x15u64, 0x25, 0xF5);
        assert_eq!(table.replace(a, 0), None);
        assert_eq!(table.replace(b, 1), None);
        assert_eq!(table.replace(a, 2), Some(0));
        assert_eq!(table.replace(c, 3), None);
        assert_eq!(table.replace(b, 4), Some(1));
        assert_eq!(table.replace(c, 5), Some(3));
        assert_eq!(table.replace(a, 6), Some(2));
        assert_eq!(table.slots[5..], [(a, 7), (b, 5), (c, 6)]);
        assert!(MatchTable::reset(&mut buffer, 4)
            .slots
            .iter()
            .all(|&s| s == (0, 0)));
    }

    #[test]
    fn one_changed_code_changes_the_hash() {
        for dim in DIMS {
            let base: Vec<i32> = (0..dim as i32).map(|j| j % 5 - 2).collect();
            let mut seen = vec![hash_codes(&base)];
            for at in 0..dim {
                for delta in [1, -1, 1 << 20] {
                    let mut other = base.clone();
                    other[at] += delta;
                    seen.push(hash_codes(&other));
                }
            }
            let total = seen.len();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), total, "dim {dim}");
        }
    }

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
