//! The [`Compressor`] trait and the registry of every compressor the
//! evaluation compares (Table V / Figure 11 of the paper).

use crate::hybrid::{self, HybridConfig, Selection};
use crate::lowprec::{self, Precision};
use crate::lzss::LzssConfig;
use crate::scratch::CompressScratch;
use crate::vlz::VlzConfig;
use crate::Result;
use crate::{deflate, fzlike, lzss, szlike};

/// Identifier of a compressor implementation.
///
/// The names follow the columns of Table V in the paper:
/// `OursHybrid` = "Huffman+GPULZ hybrid", `OursVector` = "Ours-Vector GPULZ",
/// `OursHuffman` = "Ours-Huffman", `SzLike` ≈ cuSZ, `FzLike` ≈ FZ-GPU,
/// `Lz4Like` ≈ nvCOMP-LZ4, `DeflateLike` ≈ nvCOMP Deflate, and the two
/// low-precision baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompressorKind {
    /// The paper's hybrid compressor (vector-LZ or Huffman, whichever wins).
    OursHybrid,
    /// Vector-based LZ back-end only.
    OursVector,
    /// Optimised entropy (Huffman) back-end only.
    OursHuffman,
    /// Lorenzo prediction + quantization + Huffman (cuSZ-like).
    SzLike,
    /// Quantization + bitshuffle + zero-run encoding (FZ-GPU-like).
    FzLike,
    /// Byte-oriented LZSS (nvCOMP-LZ4-like), lossless.
    Lz4Like,
    /// LZSS + Huffman (nvCOMP-Deflate-like), lossless.
    DeflateLike,
    /// Cast to IEEE binary16 (fixed 2x).
    Fp16,
    /// Cast to FP8 E4M3 (fixed 4x).
    Fp8,
}

impl CompressorKind {
    /// Every kind, in the order the evaluation tables print them.
    pub fn all() -> &'static [CompressorKind] {
        &[
            CompressorKind::SzLike,
            CompressorKind::FzLike,
            CompressorKind::OursVector,
            CompressorKind::OursHuffman,
            CompressorKind::Lz4Like,
            CompressorKind::DeflateLike,
            CompressorKind::OursHybrid,
            CompressorKind::Fp16,
            CompressorKind::Fp8,
        ]
    }

    /// Short display name used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            CompressorKind::OursHybrid => "ours-hybrid",
            CompressorKind::OursVector => "ours-vector",
            CompressorKind::OursHuffman => "ours-huffman",
            CompressorKind::SzLike => "sz-like",
            CompressorKind::FzLike => "fz-like",
            CompressorKind::Lz4Like => "lz4-like",
            CompressorKind::DeflateLike => "deflate-like",
            CompressorKind::Fp16 => "fp16",
            CompressorKind::Fp8 => "fp8",
        }
    }

    /// Parse a label produced by [`CompressorKind::label`].
    pub fn from_label(label: &str) -> Option<CompressorKind> {
        CompressorKind::all()
            .iter()
            .copied()
            .find(|k| k.label() == label)
    }

    /// Build the corresponding compressor with default parameters.
    pub fn build(&self) -> Box<dyn Compressor> {
        build_compressor(*self)
    }
}

/// A compressor that turns a batch of embedding vectors into a
/// self-describing byte stream and back.
pub trait Compressor: Send + Sync {
    /// Which registry entry this is.
    fn kind(&self) -> CompressorKind;

    /// Short display name.
    fn name(&self) -> &'static str {
        self.kind().label()
    }

    /// True if the compressor honours a point-wise absolute error bound.
    /// Lossless compressors and fixed-precision casts return `false` (they
    /// ignore the `eb` argument).
    fn is_error_bounded(&self) -> bool;

    /// True if decompression reproduces the input bit-exactly.
    fn is_lossless(&self) -> bool {
        false
    }

    /// Compress `data`, a row-major batch of vectors of length `dim`, under
    /// absolute error bound `eb` (ignored by non-error-bounded compressors).
    fn compress(&self, data: &[f32], dim: usize, eb: f32) -> Result<Vec<u8>> {
        let mut scratch = CompressScratch::new();
        let mut out = Vec::new();
        self.compress_into(data, dim, eb, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`Compressor::compress`]: *appends* the stream to the
    /// caller-owned `out`, drawing every intermediate buffer from `scratch`.
    ///
    /// The output bytes are identical to what [`Compressor::compress`]
    /// returns (the allocating method is a thin wrapper over this one), so a
    /// stream produced by either can be decompressed by either.
    fn compress_into(
        &self,
        data: &[f32],
        dim: usize,
        eb: f32,
        scratch: &mut CompressScratch,
        out: &mut Vec<u8>,
    ) -> Result<()>;

    /// Decompress a stream produced by this compressor's `compress`.
    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f32>> {
        let mut scratch = CompressScratch::new();
        let mut out = Vec::new();
        self.decompress_into(bytes, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`Compressor::decompress`]: *appends* the values to
    /// the caller-owned `out`, reusing `scratch` for intermediates.
    fn decompress_into(
        &self,
        bytes: &[u8],
        scratch: &mut CompressScratch,
        out: &mut Vec<f32>,
    ) -> Result<()>;
}

/// Build a compressor by kind with default parameters.
pub fn build_compressor(kind: CompressorKind) -> Box<dyn Compressor> {
    match kind {
        CompressorKind::OursHybrid => Box::new(HybridCompressor::default()),
        CompressorKind::OursVector => Box::new(HybridCompressor {
            config: HybridConfig {
                selection: Selection::Vlz,
                ..Default::default()
            },
            kind: CompressorKind::OursVector,
        }),
        CompressorKind::OursHuffman => Box::new(HybridCompressor {
            config: HybridConfig {
                selection: Selection::Huffman,
                ..Default::default()
            },
            kind: CompressorKind::OursHuffman,
        }),
        CompressorKind::SzLike => Box::new(SzLikeCompressor),
        CompressorKind::FzLike => Box::new(FzLikeCompressor),
        CompressorKind::Lz4Like => Box::new(LzssCompressor::default()),
        CompressorKind::DeflateLike => Box::new(DeflateCompressor::default()),
        CompressorKind::Fp16 => Box::new(LowPrecCompressor {
            precision: Precision::Fp16,
        }),
        CompressorKind::Fp8 => Box::new(LowPrecCompressor {
            precision: Precision::Fp8E4M3,
        }),
    }
}

/// Build every compressor in the registry.
pub fn all_compressors() -> Vec<Box<dyn Compressor>> {
    CompressorKind::all().iter().map(|k| k.build()).collect()
}

/// The paper's hybrid compressor (also used for the single-back-end
/// "ours-vector"/"ours-huffman" rows).
pub struct HybridCompressor {
    /// Back-end selection and vector-LZ window.
    pub config: HybridConfig,
    kind: CompressorKind,
}

impl Default for HybridCompressor {
    fn default() -> Self {
        Self {
            config: HybridConfig::default(),
            kind: CompressorKind::OursHybrid,
        }
    }
}

impl HybridCompressor {
    /// Hybrid compressor with a specific vector-LZ window (used by the
    /// Table VI window sweep).
    pub fn with_window(window: usize) -> Self {
        Self {
            config: HybridConfig {
                vlz: VlzConfig::with_window(window),
                selection: Selection::Auto,
            },
            kind: CompressorKind::OursHybrid,
        }
    }
}

impl Compressor for HybridCompressor {
    fn kind(&self) -> CompressorKind {
        self.kind
    }
    fn is_error_bounded(&self) -> bool {
        true
    }
    fn compress_into(
        &self,
        data: &[f32],
        dim: usize,
        eb: f32,
        scratch: &mut CompressScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        hybrid::compress_into(data, dim, eb, self.config, scratch, out)
    }
    fn decompress_into(
        &self,
        bytes: &[u8],
        scratch: &mut CompressScratch,
        out: &mut Vec<f32>,
    ) -> Result<()> {
        hybrid::decompress_into(bytes, scratch, out)
    }
}

/// cuSZ-like baseline.
pub struct SzLikeCompressor;

impl Compressor for SzLikeCompressor {
    fn kind(&self) -> CompressorKind {
        CompressorKind::SzLike
    }
    fn is_error_bounded(&self) -> bool {
        true
    }
    fn compress_into(
        &self,
        data: &[f32],
        dim: usize,
        eb: f32,
        scratch: &mut CompressScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        szlike::compress_into(data, dim, eb, scratch, out)
    }
    fn decompress_into(
        &self,
        bytes: &[u8],
        scratch: &mut CompressScratch,
        out: &mut Vec<f32>,
    ) -> Result<()> {
        szlike::decompress_into(bytes, scratch, out)
    }
}

/// FZ-GPU-like baseline.
pub struct FzLikeCompressor;

impl Compressor for FzLikeCompressor {
    fn kind(&self) -> CompressorKind {
        CompressorKind::FzLike
    }
    fn is_error_bounded(&self) -> bool {
        true
    }
    fn compress_into(
        &self,
        data: &[f32],
        dim: usize,
        eb: f32,
        scratch: &mut CompressScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        fzlike::compress_into(data, dim, eb, scratch, out)
    }
    fn decompress_into(
        &self,
        bytes: &[u8],
        scratch: &mut CompressScratch,
        out: &mut Vec<f32>,
    ) -> Result<()> {
        fzlike::decompress_into(bytes, scratch, out)
    }
}

/// nvCOMP-LZ4-like lossless baseline.
#[derive(Default)]
pub struct LzssCompressor {
    /// LZSS window and match-length limits.
    pub config: LzssConfig,
}

impl Compressor for LzssCompressor {
    fn kind(&self) -> CompressorKind {
        CompressorKind::Lz4Like
    }
    fn is_error_bounded(&self) -> bool {
        false
    }
    fn is_lossless(&self) -> bool {
        true
    }
    fn compress_into(
        &self,
        data: &[f32],
        _dim: usize,
        _eb: f32,
        scratch: &mut CompressScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        lzss::compress_f32_into(data, self.config, scratch, out);
        Ok(())
    }
    fn decompress_into(
        &self,
        bytes: &[u8],
        scratch: &mut CompressScratch,
        out: &mut Vec<f32>,
    ) -> Result<()> {
        lzss::decompress_f32_into(bytes, scratch, out)
    }
}

/// nvCOMP-Deflate-like lossless baseline.
#[derive(Default)]
pub struct DeflateCompressor {
    /// LZSS stage configuration.
    pub config: LzssConfig,
}

impl Compressor for DeflateCompressor {
    fn kind(&self) -> CompressorKind {
        CompressorKind::DeflateLike
    }
    fn is_error_bounded(&self) -> bool {
        false
    }
    fn is_lossless(&self) -> bool {
        true
    }
    fn compress_into(
        &self,
        data: &[f32],
        _dim: usize,
        _eb: f32,
        scratch: &mut CompressScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        deflate::compress_f32_into(data, self.config, scratch, out);
        Ok(())
    }
    fn decompress_into(
        &self,
        bytes: &[u8],
        scratch: &mut CompressScratch,
        out: &mut Vec<f32>,
    ) -> Result<()> {
        deflate::decompress_f32_into(bytes, scratch, out)
    }
}

/// FP16 / FP8 casting baselines.
pub struct LowPrecCompressor {
    /// Target precision.
    pub precision: Precision,
}

impl Compressor for LowPrecCompressor {
    fn kind(&self) -> CompressorKind {
        match self.precision {
            Precision::Fp16 => CompressorKind::Fp16,
            Precision::Fp8E4M3 => CompressorKind::Fp8,
        }
    }
    fn is_error_bounded(&self) -> bool {
        false
    }
    fn compress_into(
        &self,
        data: &[f32],
        _dim: usize,
        _eb: f32,
        _scratch: &mut CompressScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        lowprec::compress_into(data, self.precision, out);
        Ok(())
    }
    fn decompress_into(
        &self,
        bytes: &[u8],
        _scratch: &mut CompressScratch,
        out: &mut Vec<f32>,
    ) -> Result<()> {
        lowprec::decompress_into(bytes, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> (Vec<f32>, usize) {
        let dim = 16;
        let mut data = Vec::new();
        for i in 0..200usize {
            let id = if i % 3 == 0 { i % 5 } else { i };
            data.extend((0..dim).map(|j| ((id * dim + j) as f32).sin() * 0.2));
        }
        (data, dim)
    }

    #[test]
    fn every_registered_compressor_roundtrips() {
        let (data, dim) = batch();
        let eb = 0.01f32;
        for comp in all_compressors() {
            let enc = comp
                .compress(&data, dim, eb)
                .unwrap_or_else(|_| panic!("{}", comp.name()));
            let dec = comp
                .decompress(&enc)
                .unwrap_or_else(|_| panic!("{}", comp.name()));
            assert_eq!(dec.len(), data.len(), "{}", comp.name());
            if comp.is_lossless() {
                for (a, b) in data.iter().zip(dec.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{}", comp.name());
                }
            } else if comp.is_error_bounded() {
                for (a, b) in data.iter().zip(dec.iter()) {
                    assert!(
                        (a - b).abs() <= eb * 1.01,
                        "{}: {} vs {}",
                        comp.name(),
                        a,
                        b
                    );
                }
            } else {
                // Low precision: relative error within format tolerance.
                for (a, b) in data.iter().zip(dec.iter()) {
                    let tol = a.abs().max(0.05) * 0.08;
                    assert!((a - b).abs() <= tol, "{}: {} vs {}", comp.name(), a, b);
                }
            }
        }
    }

    #[test]
    fn labels_roundtrip() {
        for &k in CompressorKind::all() {
            assert_eq!(CompressorKind::from_label(k.label()), Some(k));
            assert_eq!(k.build().kind(), k);
        }
        assert_eq!(CompressorKind::from_label("nope"), None);
    }

    #[test]
    fn error_bounded_flags_are_consistent() {
        for comp in all_compressors() {
            match comp.kind() {
                CompressorKind::OursHybrid
                | CompressorKind::OursVector
                | CompressorKind::OursHuffman
                | CompressorKind::SzLike
                | CompressorKind::FzLike => assert!(comp.is_error_bounded()),
                _ => assert!(!comp.is_error_bounded()),
            }
        }
    }

    #[test]
    fn hybrid_beats_lossless_on_embedding_like_data() {
        let (data, dim) = batch();
        let ours = build_compressor(CompressorKind::OursHybrid)
            .compress(&data, dim, 0.01)
            .unwrap()
            .len();
        let lz4 = build_compressor(CompressorKind::Lz4Like)
            .compress(&data, dim, 0.01)
            .unwrap()
            .len();
        assert!(ours * 2 < lz4, "ours {ours} vs lz4-like {lz4}");
    }
}
