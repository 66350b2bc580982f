//! Reusable scratch state for allocation-free compression.
//!
//! Every codec's `*_into` entry point threads a [`CompressScratch`] through
//! its internal stages so that the steady-state hot path (compress one table
//! payload per destination rank, every iteration) performs no heap
//! allocation once the scratch buffers have grown to their working size.
//!
//! The scratch owns one buffer per *kind* of intermediate — quantization
//! codes, entropy symbols, Huffman codebook state, byte staging — rather
//! than per codec, so a single scratch serves all eight codecs.
//! [`CompressScratch::capacity_bytes`] reports the total capacity currently
//! held, which the trainer's ledger uses to detect (and assert the absence
//! of) steady-state growth.

use crate::error::CompressError;
use crate::huffman::HuffmanScratch;
use crate::Result;

/// Number of candidate positions per LZSS hash bucket (mirrors
/// [`crate::lzss`]'s chain depth).
pub const LZSS_CHAIN: usize = 8;

/// Reusable buffers shared by every codec's `*_into` path.
#[derive(Debug, Default)]
pub struct CompressScratch {
    /// Quantization codes (one per input value).
    pub codes: Vec<i32>,
    /// ZigZag-mapped entropy symbols.
    pub symbols: Vec<u32>,
    /// Huffman histogram, codebook, decode table and tree-builder queues.
    pub huffman: HuffmanScratch,
    /// Primary byte staging buffer (LZSS inner stream, bit-plane buffer,
    /// f32-to-byte staging, …).
    pub stage: Vec<u8>,
    /// Secondary byte staging buffer (deflate's inner LZSS stream).
    pub stage2: Vec<u8>,
    /// f64 staging (szlike's lock-step reconstruction buffer).
    pub f64s: Vec<f64>,
    /// Vector-LZ match table: open-addressed `(content hash, 1 + most
    /// recent vector index with that hash)` slots, `0` for an empty one.
    pub(crate) vlz_table: Vec<(u64, u32)>,
    /// LZSS hash-chain table.
    pub lzss_table: Vec<[usize; LZSS_CHAIN]>,
    /// LZSS pending-literal run.
    pub literals: Vec<u8>,
}

impl CompressScratch {
    /// Create an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes of heap capacity currently held by the scratch.
    ///
    /// Stable across calls once the scratch has warmed up — the trainer's
    /// allocation ledger samples this before and after each pipeline stage to
    /// prove the steady state allocates nothing.
    pub fn capacity_bytes(&self) -> u64 {
        (self.codes.capacity() * std::mem::size_of::<i32>()
            + self.symbols.capacity() * std::mem::size_of::<u32>()
            + self.huffman.capacity_bytes()
            + self.stage.capacity()
            + self.stage2.capacity()
            + self.f64s.capacity() * std::mem::size_of::<f64>()
            + self.vlz_table.capacity() * std::mem::size_of::<(u64, u32)>()
            + self.lzss_table.capacity() * std::mem::size_of::<[usize; LZSS_CHAIN]>()
            + self.literals.capacity()) as u64
    }
}

/// Stage `data`'s little-endian byte view in the scratch's primary buffer
/// (taken out so `inner` may borrow the scratch mutably) and run `inner` on
/// it — the shared compress-side f32↔bytes adapter of the byte-oriented
/// lossless codecs ([`crate::lzss`], [`crate::deflate`]).
pub(crate) fn with_f32_staged<R>(
    data: &[f32],
    scratch: &mut CompressScratch,
    inner: impl FnOnce(&[u8], &mut CompressScratch) -> R,
) -> R {
    let mut bytes = std::mem::take(&mut scratch.stage);
    bytes.clear();
    bytes.reserve(data.len() * 4);
    for v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    let result = inner(&bytes, scratch);
    scratch.stage = bytes;
    result
}

/// Run `inner` to decompress a byte stream into the scratch's primary buffer
/// (taken out so `inner` may borrow the scratch mutably), then *append* the
/// bytes to `out` as little-endian f32 values — the shared decompress-side
/// adapter of the byte-oriented lossless codecs. The staging buffer is
/// restored to the scratch even on error.
pub(crate) fn decompress_f32_staged(
    scratch: &mut CompressScratch,
    out: &mut Vec<f32>,
    inner: impl FnOnce(&mut CompressScratch, &mut Vec<u8>) -> Result<()>,
) -> Result<()> {
    let mut raw = std::mem::take(&mut scratch.stage);
    let result = inner(scratch, &mut raw);
    let outcome = result.and_then(|()| {
        if !raw.len().is_multiple_of(4) {
            return Err(CompressError::Corrupt("payload not a whole number of f32"));
        }
        out.reserve(raw.len() / 4);
        out.extend(
            raw.chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4"))),
        );
        Ok(())
    });
    scratch.stage = raw;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every rank thread of the executor owns one scratch; they migrate
    /// with their rank closure between threads, so the scratch must stay
    /// `Send` (and `Sync` for shared read-only views). Compile-time audit.
    #[test]
    fn scratch_is_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<CompressScratch>();
        assert_sync::<CompressScratch>();
    }

    #[test]
    fn capacity_is_zero_when_fresh_and_grows_with_use() {
        let mut s = CompressScratch::new();
        assert_eq!(s.capacity_bytes(), 0);
        s.codes.reserve(128);
        s.stage.reserve(1024);
        assert!(s.capacity_bytes() >= 128 * 4 + 1024);
    }
}
