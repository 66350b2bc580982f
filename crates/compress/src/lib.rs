//! # dlrm-compress
//!
//! Error-bounded lossy compression suite for DLRM embedding traffic — the
//! core contribution of the reproduced paper.
//!
//! The paper's compressor is a two-stage pipeline:
//!
//! 1. A **point-wise error-bounded quantizer** ([`quant`]) maps every f32 to
//!    an integer bin of width `2·eb`, guaranteeing `|x − x'| ≤ eb` after
//!    reconstruction.
//! 2. A **hybrid lossless encoder** compresses the integer codes with one of
//!    two specialised encoders, chosen per embedding table:
//!    * [`vlz`] — a *vector-based LZ* encoder whose match unit is a whole
//!      embedding vector (fixed pattern length, extended window), built for
//!      tables with heavily repeated lookups;
//!    * [`huffman`] — an optimised canonical Huffman encoder over the
//!      quantization codes, built for tables whose values concentrate into a
//!      low-entropy (Gaussian-looking) distribution.
//!
//! The crate also re-implements the algorithmic cores of the baselines the
//! paper compares against ([`lzss`] ≈ nvCOMP-LZ4, [`deflate`] ≈ nvCOMP
//! Deflate, [`szlike`] ≈ cuSZ's Lorenzo+quantization pipeline, [`fzlike`] ≈
//! FZ-GPU's bitshuffle pipeline, [`lowprec`] = FP16/FP8 casting), the
//! multi-chunk **buffer optimization** ([`buffer`]) that compresses all
//! per-destination chunks of an all-to-all into one contiguous send buffer,
//! and measurement utilities ([`stats`]).
//!
//! Every compressor implements the [`Compressor`] trait and produces a
//! self-describing byte stream: `decompress` needs only the bytes.

//! ## Allocation-free hot path
//!
//! Every compressor additionally implements
//! [`Compressor::compress_into`] / [`Compressor::decompress_into`], which
//! write into caller-owned buffers and draw every intermediate (quantization
//! codes, entropy symbols, Huffman tables, staging bytes) from a reusable
//! [`scratch::CompressScratch`]. The classic allocating `compress` /
//! `decompress` methods are thin wrappers over these, so both paths produce
//! byte-identical streams. A steady-state caller — the trainer compressing
//! one chunk per destination rank every iteration — performs zero heap
//! allocations once the scratch has seen its first stream: the Huffman
//! codebook builder's queues and tables live in the scratch too
//! ([`huffman::HuffmanScratch`]) and are sized for the worst case on first
//! use (`tests/zero_alloc.rs` counts real allocator calls, which the
//! capacity-based ledger counters upstream cannot see).
//! [`buffer::compress_chunks_into`] extends this to the multi-chunk
//! all-to-all send buffer: every destination's chunk is compressed directly
//! into one contiguous reusable buffer.

pub mod bitio;
pub mod buffer;
pub mod deflate;
pub mod error;
pub mod fzlike;
pub mod huffman;
pub mod hybrid;
pub mod lowprec;
pub mod lzss;
pub mod quant;
#[cfg(test)]
mod reference;
pub mod registry;
pub mod scratch;
pub mod stats;
pub mod szlike;
pub mod varint;
pub mod vlz;

pub use buffer::{ChunkDecoder, ChunkEncoder};
pub use error::CompressError;
pub use registry::{Compressor, CompressorKind};
pub use scratch::CompressScratch;
pub use stats::{measure_roundtrip, verify_error_bound, CompressionReport};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CompressError>;
