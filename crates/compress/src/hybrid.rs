//! The paper's hybrid error-bounded compressor.
//!
//! One quantization pass feeds one of two lossless back-ends:
//!
//! * [`crate::vlz`] — vector-based LZ, best for tables whose batches are
//!   dominated by repeated (or homogenized) vectors;
//! * the optimised entropy encoder ([`crate::huffman`]) — best for
//!   tables whose quantized values concentrate into a low-entropy
//!   distribution.
//!
//! The back-end can be forced per table (that is what the offline analysis of
//! the adaptive crate does, mirroring the paper's compressor-selection step)
//! or chosen automatically: the smaller of the two streams wins, ties going
//! to vector-LZ. A one-byte tag records the choice so decompression is
//! self-describing.
//!
//! The automatic choice costs one quantization, one vector-LZ pass and at
//! most one histogram: a Huffman stream's size follows exactly from the
//! symbol counts and code lengths, so the entropy candidate is only written
//! when it wins — and not even planned when the vector-LZ stream is already
//! no longer than the least an entropy stream of that many values can take
//! (header, length table, one bit per value).

use crate::error::CompressError;
use crate::quant;
use crate::scratch::CompressScratch;
use crate::varint;
use crate::vlz::{self, VlzConfig};
use crate::{huffman, Result};

/// Which lossless back-end the hybrid compressor should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selection {
    /// Keep the smaller of the two back-ends' streams (vector-LZ on a tie).
    /// This is the "no offline analysis available" fallback.
    #[default]
    Auto,
    /// Always use the vector-based LZ back-end ("Ours-Vector" in Table V).
    Vlz,
    /// Always use the entropy back-end ("Ours-Huffman" in Table V).
    Huffman,
}

/// Hybrid compressor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HybridConfig {
    /// Vector-LZ window (in vectors).
    pub vlz: VlzConfig,
    /// Back-end selection policy.
    pub selection: Selection,
}

/// Stream tags identifying the back-end that produced the payload.
pub(crate) const TAG_VLZ: u8 = 1;
pub(crate) const TAG_HUFFMAN: u8 = 2;

/// Compress a batch of embedding vectors with the hybrid compressor.
pub fn compress(data: &[f32], dim: usize, eb: f32, config: HybridConfig) -> Result<Vec<u8>> {
    let mut scratch = CompressScratch::new();
    let mut out = Vec::new();
    compress_into(data, dim, eb, config, &mut scratch, &mut out)?;
    Ok(out)
}

/// Allocation-free [`compress`]: *appends* the tagged stream to `out`.
pub fn compress_into(
    data: &[f32],
    dim: usize,
    eb: f32,
    config: HybridConfig,
    scratch: &mut CompressScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    quant::check_dim(data.len(), dim)?;
    quant::quantize_into(data, eb, &mut scratch.codes)?;
    match config.selection {
        Selection::Vlz => {
            out.push(TAG_VLZ);
            vlz::encode_codes_into(dim, eb, config.vlz, scratch, out);
        }
        Selection::Huffman => {
            out.push(TAG_HUFFMAN);
            entropy_plan(dim, scratch);
            entropy_emit_planned(dim, eb, scratch, out);
        }
        Selection::Auto => {
            // Room for the larger worst case (the entropy stream's) whichever
            // back-end wins, so the buffer's first use sizes it for good.
            out.reserve(1 + entropy_worst_case_len(data.len()));
            let start = out.len();
            out.push(TAG_VLZ);
            vlz::encode_codes_into(dim, eb, config.vlz, scratch, out);
            let vlz_len = out.len() - start - 1;
            if vlz_len <= entropy_floor(data.len(), dim) {
                // No entropy stream can be strictly smaller: skip its plan,
                // but size the buffers it would have used, so that a later
                // chunk that does need them grows nothing.
                scratch.symbols.clear();
                scratch.symbols.reserve(data.len());
                scratch.huffman.reserve_worst_case();
            } else if entropy_plan(dim, scratch) < vlz_len {
                out.truncate(start);
                out.push(TAG_HUFFMAN);
                entropy_emit_planned(dim, eb, scratch, out);
            }
        }
    }
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
    let (&tag, payload) = bytes
        .split_first()
        .ok_or(CompressError::Corrupt("empty hybrid stream"))?;
    match tag {
        TAG_VLZ => vlz::decompress_into(payload, scratch, out),
        TAG_HUFFMAN => entropy_decompress_into(payload, scratch, out),
        _ => Err(CompressError::UnsupportedFormat(
            "unknown hybrid back-end tag",
        )),
    }
}

/// Which back-end a compressed hybrid stream used (for reporting).
pub fn backend_of(bytes: &[u8]) -> Result<Selection> {
    match bytes.first() {
        Some(&TAG_VLZ) => Ok(Selection::Vlz),
        Some(&TAG_HUFFMAN) => Ok(Selection::Huffman),
        Some(_) => Err(CompressError::UnsupportedFormat(
            "unknown hybrid back-end tag",
        )),
        None => Err(CompressError::Corrupt("empty hybrid stream")),
    }
}

/// The standalone entropy-backed lossy compressor ("Ours-Huffman"):
/// quantize, ZigZag-map the codes and Huffman-encode them.
///
/// Layout: `[n varint] [dim varint] [eb f32] [huffman stream]`.
pub fn entropy_compress(data: &[f32], dim: usize, eb: f32) -> Result<Vec<u8>> {
    let mut scratch = CompressScratch::new();
    let mut out = Vec::new();
    entropy_compress_into(data, dim, eb, &mut scratch, &mut out)?;
    Ok(out)
}

/// Allocation-free [`entropy_compress`]: *appends* the stream to `out`.
pub fn entropy_compress_into(
    data: &[f32],
    dim: usize,
    eb: f32,
    scratch: &mut CompressScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    quant::check_dim(data.len(), dim)?;
    quant::quantize_into(data, eb, &mut scratch.codes)?;
    entropy_plan(dim, scratch);
    entropy_emit_planned(dim, eb, scratch, out);
    Ok(())
}

/// Map `scratch.codes` to entropy symbols and build their codebook; returns
/// the exact length of the stream [`entropy_emit_planned`] would append.
fn entropy_plan(dim: usize, scratch: &mut CompressScratch) -> usize {
    quant::codes_to_symbols_into(&scratch.codes, &mut scratch.symbols);
    entropy_header_len(scratch.symbols.len(), dim)
        + huffman::plan(&scratch.symbols, &mut scratch.huffman)
}

/// Bytes of an entropy stream's `[n varint] [dim varint] [eb f32]` header.
fn entropy_header_len(n: usize, dim: usize) -> usize {
    varint::len_u64(n as u64) + varint::len_u64(dim as u64) + std::mem::size_of::<f32>()
}

/// Lower bound on the entropy stream of `n` values, whatever they are: the
/// header and a Huffman stream that spends its minimum of one bit a symbol.
fn entropy_floor(n: usize, dim: usize) -> usize {
    entropy_header_len(n, dim) + huffman::min_stream_len(n)
}

/// Upper bound on an entropy stream of `n` values: every symbol escapes
/// (15-bit code + 32-bit literal) plus the 513-byte length table and header.
fn entropy_worst_case_len(n: usize) -> usize {
    n * 6 + 600
}

/// Append the entropy stream [`entropy_plan`] prepared in `scratch`.
fn entropy_emit_planned(dim: usize, eb: f32, scratch: &mut CompressScratch, out: &mut Vec<u8>) {
    let n = scratch.symbols.len();
    // Reserved up front so the output buffer never grows after its first
    // use (zero-allocation steady state).
    out.reserve(entropy_worst_case_len(n));
    varint::write_u64(out, n as u64);
    varint::write_u64(out, dim as u64);
    varint::write_f32_le(out, eb);
    huffman::emit_planned(&scratch.symbols, &mut scratch.huffman, out);
}

/// Decompress a stream produced by [`entropy_compress`].
pub fn entropy_decompress(bytes: &[u8]) -> Result<Vec<f32>> {
    let mut scratch = CompressScratch::new();
    let mut out = Vec::new();
    entropy_decompress_into(bytes, &mut scratch, &mut out)?;
    Ok(out)
}

/// Allocation-free [`entropy_decompress`]: *appends* the values to `out`.
pub fn entropy_decompress_into(
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
    let step = 2.0f64 * eb as f64;
    let start = out.len();
    let decoded = huffman::decode_map_into(&bytes[pos..], &mut scratch.huffman, out, |symbol| {
        (quant::symbol_to_code(symbol) as f64 * step) as f32
    })?;
    if decoded != n {
        out.truncate(start);
        return Err(CompressError::Corrupt(
            "entropy stream decoded wrong length",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn repeated_batch(dim: usize, n: usize, distinct: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(dim * n);
        for i in 0..n {
            let id = i % distinct;
            data.extend((0..dim).map(|j| ((id * dim + j) as f32).sin() * 0.2));
        }
        data
    }

    fn spread_batch(dim: usize, n: usize) -> Vec<f32> {
        (0..dim * n)
            .map(|i| (((i * 2_654_435_761usize) % 10_007) as f32 / 10_007.0 - 0.5) * 0.4)
            .collect()
    }

    #[test]
    fn roundtrip_all_selections() {
        let data = repeated_batch(32, 100, 9);
        for sel in [Selection::Auto, Selection::Vlz, Selection::Huffman] {
            let cfg = HybridConfig {
                selection: sel,
                ..Default::default()
            };
            let enc = compress(&data, 32, 0.01, cfg).unwrap();
            let dec = decompress(&enc).unwrap();
            assert_eq!(dec.len(), data.len());
            for (a, b) in data.iter().zip(dec.iter()) {
                assert!((a - b).abs() <= 0.0101, "selection {sel:?}");
            }
        }
    }

    #[test]
    fn auto_picks_vlz_for_repeated_vectors() {
        let data = repeated_batch(64, 256, 4);
        let enc = compress(&data, 64, 0.01, HybridConfig::default()).unwrap();
        assert_eq!(backend_of(&enc).unwrap(), Selection::Vlz);
    }

    #[test]
    fn auto_picks_huffman_for_concentrated_scalar_values() {
        // Every vector distinct (a unique leading value prevents LZ matches)
        // but the remaining values concentrate near zero → entropy coding wins.
        let dim = 64usize;
        let data: Vec<f32> = (0..dim * 200)
            .map(|i| {
                if i % dim == 0 {
                    (i / dim) as f32 * 0.05
                } else {
                    0.0005 * ((i % 3) as f32)
                }
            })
            .collect();
        let enc = compress(&data, 64, 0.01, HybridConfig::default()).unwrap();
        assert_eq!(backend_of(&enc).unwrap(), Selection::Huffman);
    }

    #[test]
    fn auto_is_at_least_as_good_as_either_backend() {
        for data in [repeated_batch(32, 128, 6), spread_batch(32, 128)] {
            let auto = compress(&data, 32, 0.02, HybridConfig::default())
                .unwrap()
                .len();
            let vlz_only = compress(
                &data,
                32,
                0.02,
                HybridConfig {
                    selection: Selection::Vlz,
                    ..Default::default()
                },
            )
            .unwrap()
            .len();
            let huff_only = compress(
                &data,
                32,
                0.02,
                HybridConfig {
                    selection: Selection::Huffman,
                    ..Default::default()
                },
            )
            .unwrap()
            .len();
            assert!(auto <= vlz_only.min(huff_only));
        }
    }

    #[test]
    fn entropy_roundtrip_respects_error_bound() {
        let data = spread_batch(16, 300);
        let enc = entropy_compress(&data, 16, 0.005).unwrap();
        let dec = entropy_decompress(&enc).unwrap();
        for (a, b) in data.iter().zip(dec.iter()) {
            assert!((a - b).abs() <= 0.00501);
        }
    }

    /// One lookup batch per table of the Kaggle-like preset, `rows` vectors
    /// of 32 values each — the payloads training (128 rows per destination)
    /// and serving (25-row groups) hand the codec.
    fn traffic(rows: usize, seed: u64) -> Vec<Vec<f32>> {
        let dataset = dlrm_data::presets::criteo_kaggle_like();
        assert_eq!(dataset.embedding_dim, 32);
        let mut generator = dlrm_data::EmbeddingTrafficGenerator::new(dataset.clone(), seed);
        (0..dataset.num_tables())
            .map(|t| generator.lookup_batch(t, rows).into_vec())
            .collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// `compress_into`/`decompress_into` against the replaced
    /// compress-both implementation, on one payload.
    fn assert_matches_reference(
        data: &[f32],
        dim: usize,
        eb: f32,
        selection: Selection,
        what: &str,
    ) {
        let config = HybridConfig {
            selection,
            ..Default::default()
        };
        let new = compress(data, dim, eb, config).unwrap();
        let old = reference::hybrid_compress(data, dim, eb, selection).unwrap();
        assert_eq!(
            new, old,
            "{what} {selection:?} eb {eb}: stream differs: {new:02x?}"
        );
        let (new_values, old_values) = (
            decompress(&new).unwrap(),
            reference::hybrid_decompress(&new).unwrap(),
        );
        assert_eq!(
            bits(&new_values),
            bits(&old_values),
            "{what} {selection:?} eb {eb}: decode differs over {new:02x?}"
        );
    }

    #[test]
    fn traffic_streams_are_byte_identical_to_the_reference() {
        let mut winners = [0usize; 2];
        for seed in [7u64, 20_240_614] {
            for rows in [128usize, 25] {
                for (table, data) in traffic(rows, seed).iter().enumerate() {
                    for eb in [0.02f32, 0.05, 0.005] {
                        let what = format!("seed {seed} table {table} rows {rows}");
                        for selection in [Selection::Auto, Selection::Vlz, Selection::Huffman] {
                            assert_matches_reference(data, 32, eb, selection, &what);
                        }
                        let auto = compress(data, 32, eb, HybridConfig::default()).unwrap();
                        winners[usize::from(auto[0] == TAG_HUFFMAN)] += 1;
                    }
                }
            }
        }
        assert!(
            winners.iter().all(|&w| w > 0),
            "the payloads must exercise both outcomes of Auto: {winners:?}"
        );
    }

    #[test]
    fn degenerate_batches_are_byte_identical_to_the_reference() {
        for selection in [Selection::Auto, Selection::Vlz, Selection::Huffman] {
            assert_matches_reference(&[], 32, 0.01, selection, "empty");
            assert_matches_reference(&[0.3], 1, 0.01, selection, "one value");
            assert_matches_reference(&[0.0; 96], 32, 0.01, selection, "all zero");
            // Values far beyond the hot symbols: every code escapes.
            let wide: Vec<f32> = (0..64).map(|i| 50.0 + i as f32 * 3.7).collect();
            assert_matches_reference(&wide, 8, 1e-3, selection, "all escapes");
        }
    }

    /// Batches of distinct vectors whose two candidate streams are equally
    /// long: the tie must go to vector-LZ, as it did when both were written.
    #[test]
    fn a_tie_stays_vector_lz_as_in_the_reference() {
        let dim = 8usize;
        // `distinct` literal vectors (a leading value of its own each), then
        // `repeats` copies of the first: a literal grows the vector-LZ stream
        // faster than the Huffman one, a repeat the other way round, so some
        // mixes land on equal lengths.
        let candidate = |distinct: usize, repeats: usize| -> Vec<f32> {
            let mut data: Vec<f32> = (0..distinct * dim)
                .map(|i| match i % dim {
                    0 => (i / dim) as f32 * 0.02,
                    _ => (((i * 2_654_435_761) >> 9) % 23) as f32 * 0.02 - 0.2,
                })
                .collect();
            for _ in 0..repeats {
                data.extend_from_within(..dim);
            }
            data
        };
        let len_of = |data: &[f32], selection| {
            reference::hybrid_compress(data, dim, 0.01, selection)
                .unwrap()
                .len()
        };
        for (distinct, repeats) in [(125, 1), (127, 4), (130, 8), (133, 12)] {
            let data = candidate(distinct, repeats);
            let what = format!("{distinct} literals + {repeats} repeats");
            assert_eq!(
                len_of(&data, Selection::Vlz),
                len_of(&data, Selection::Huffman),
                "{what} is not a tie"
            );
            assert_matches_reference(&data, dim, 0.01, Selection::Auto, &what);
            let auto = compress(&data, dim, 0.01, HybridConfig::default()).unwrap();
            assert_eq!(auto[0], TAG_VLZ, "{what}");
        }
    }

    /// Chunks whose vector-LZ stream lands one byte under, on, and one and
    /// two bytes over the least an entropy stream of the chunk can take —
    /// and whose entropy stream *is* that least (two symbols, one bit
    /// each). Up to the floor the plan is skipped and vector-LZ keeps the
    /// chunk, as it did on a tie; from one byte over, Huffman takes it.
    #[test]
    fn auto_matches_the_reference_on_either_side_of_the_skip_floor() {
        let dim = 8usize;
        let eb = 0.01f32;
        // 64 literal vectors over the codes {0, 1}, 100 copies of the last
        // one (a one-byte token each), then `far` copies of early vectors
        // from 128 or more back (two-byte tokens): one more byte per copy
        // on the vector-LZ side, one more byte (8 one-bit symbols) on the
        // other.
        let chunk = |far: usize| -> Vec<f32> {
            let ids = (0..64).chain([63; 100]).chain(0..far);
            ids.flat_map(|id| (0..dim).map(move |j| (id >> j & 1) as f32 * 2.0 * eb))
                .collect()
        };
        for (far, winner) in [
            (0, TAG_VLZ),
            (1, TAG_VLZ),
            (2, TAG_HUFFMAN),
            (3, TAG_HUFFMAN),
        ] {
            let data = chunk(far);
            let what = format!("{far} far copies");
            let len_of = |selection| {
                reference::hybrid_compress(&data, dim, eb, selection)
                    .unwrap()
                    .len()
            };
            let floor = 1 + entropy_floor(data.len(), dim);
            assert_eq!(len_of(Selection::Huffman), floor, "{what}: entropy stream");
            assert_eq!(
                len_of(Selection::Vlz) + 1,
                floor + far,
                "{what}: vector-LZ stream"
            );
            assert_matches_reference(&data, dim, eb, Selection::Auto, &what);
            let auto = compress(&data, dim, eb, HybridConfig::default()).unwrap();
            assert_eq!(auto[0], winner, "{what}");
        }
    }

    #[test]
    fn failed_compress_leaves_the_output_alone() {
        let mut scratch = CompressScratch::new();
        let mut out = vec![9u8];
        for selection in [Selection::Auto, Selection::Vlz, Selection::Huffman] {
            let config = HybridConfig {
                selection,
                ..Default::default()
            };
            assert!(
                compress_into(&[1.0, f32::NAN], 2, 0.01, config, &mut scratch, &mut out).is_err()
            );
            assert!(compress_into(&[1.0; 3], 2, 0.01, config, &mut scratch, &mut out).is_err());
            assert_eq!(out, [9]);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            decompress(&[9, 1, 2, 3]),
            Err(CompressError::UnsupportedFormat(_))
        ));
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn achieves_meaningful_compression_on_dlrm_like_traffic() {
        // A Zipf-ish mixture: 70% of vectors drawn from 8 hot patterns, the
        // rest unique. The hybrid should land well above 4x.
        let dim = 32;
        let mut data = Vec::new();
        for i in 0..500usize {
            if i % 10 < 7 {
                let id = i % 8;
                data.extend((0..dim).map(|j| ((id * dim + j) as f32).cos() * 0.1));
            } else {
                data.extend(
                    (0..dim).map(|j| (((i * dim + j) * 2_654_435_761) % 997) as f32 * 2e-4),
                );
            }
        }
        let enc = compress(&data, dim, 0.01, HybridConfig::default()).unwrap();
        let ratio = (data.len() * 4) as f64 / enc.len() as f64;
        assert!(ratio > 4.0, "hybrid ratio too low: {ratio:.2}");
    }
}
