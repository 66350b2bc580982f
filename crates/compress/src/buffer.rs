//! Multi-chunk buffer optimization (Section III-E / Figure 15 of the paper).
//!
//! In an all-to-all, each rank must compress one chunk per destination rank.
//! The naive implementation compresses the chunks one at a time, each into
//! its own allocation, and then copies them into the contiguous send buffer —
//! paying one extra copy per chunk and, on a GPU, one kernel launch per
//! chunk. The paper's buffer optimization compresses all chunks in a single
//! fused kernel that writes directly into the send buffer at offsets obtained
//! with an atomic counter, and decompresses chunks in parallel.
//!
//! The CPU analogue implemented here:
//!
//! * [`compress_chunks_fused`] — compress every chunk straight into its span
//!   of the shared send buffer, one chunk after another through one shared
//!   scratch, writing each compressed chunk exactly once (the spans are
//!   contiguous and in chunk order, the offsets the paper's atomic counter
//!   would hand out).
//! * [`compress_chunks_naive`] — per-chunk compression into its own
//!   allocation followed by a gathering copy, the baseline of Figure 15.
//! * [`decompress_chunks_parallel`] / [`decompress_chunks_serial`] — the
//!   fused (one shared scratch) and per-chunk decompression paths.
//!
//! Both paths produce the same logical result (tests assert byte-identical
//! decompressed output), so the only difference benchmarks see is time.

use crate::registry::Compressor;
use crate::scratch::CompressScratch;
use crate::Result;

/// A contiguous send buffer holding every destination's compressed chunk plus
/// the offset table that the variable-size all-to-all sends as metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedBuffer {
    /// Concatenated compressed chunks.
    pub bytes: Vec<u8>,
    /// Per-chunk `(offset, len)` into `bytes`, in destination order.
    pub spans: Vec<(usize, usize)>,
}

impl FusedBuffer {
    /// Borrow the compressed bytes of chunk `i`.
    pub fn chunk(&self, i: usize) -> &[u8] {
        let (off, len) = self.spans[i];
        &self.bytes[off..off + len]
    }

    /// Number of chunks in the buffer.
    pub fn num_chunks(&self) -> usize {
        self.spans.len()
    }

    /// Total compressed payload size.
    pub fn payload_bytes(&self) -> usize {
        self.spans.iter().map(|&(_, len)| len).sum()
    }
}

/// Fused path: compress every chunk directly into its span of one fresh
/// send buffer — [`compress_chunks_into`] with a fresh scratch.
pub fn compress_chunks_fused(
    compressor: &dyn Compressor,
    chunks: &[&[f32]],
    dim: usize,
    eb: f32,
) -> Result<FusedBuffer> {
    let mut out = FusedBuffer {
        bytes: Vec::new(),
        spans: Vec::new(),
    };
    compress_chunks_into(
        compressor,
        chunks,
        dim,
        eb,
        &mut CompressScratch::new(),
        &mut out,
    )?;
    Ok(out)
}

/// Incremental, allocation-free encoder of a per-destination chunk stream —
/// the streaming counterpart of the batch [`compress_chunks_into`] (which is
/// built on it), in the same shape the trainer's overlapped pipeline streams
/// (the trainer itself frames blocks with table ids via its own writer).
///
/// Where [`compress_chunks_into`] compresses a whole batch of chunks at
/// once, a `ChunkEncoder` compresses them **one at a time**, so a caller
/// can hand chunk *k* to the network (typically as a pooled send lease) and
/// immediately start compressing chunk *k+1* while *k* is in flight. The
/// encoder is reusable: [`ChunkEncoder::begin`] resets it for the next
/// collective while keeping its span-table storage, so a steady-state loop
/// allocates nothing.
///
/// Each [`ChunkEncoder::push_chunk`] call may target a different output
/// buffer (one lease per destination) or the same one (a fused send
/// buffer); spans are always relative to the buffer passed to that call.
#[derive(Debug, Default)]
pub struct ChunkEncoder {
    spans: Vec<(usize, usize)>,
}

impl ChunkEncoder {
    /// A fresh encoder (span storage grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an encoder around recycled span storage (cleared first).
    pub fn with_spans(mut spans: Vec<(usize, usize)>) -> Self {
        spans.clear();
        Self { spans }
    }

    /// Start a new chunk stream, clearing the span table but keeping its
    /// capacity.
    pub fn begin(&mut self) {
        self.spans.clear();
    }

    /// Compress one chunk, *appending* its stream to `out` (a `Vec<u8>` or
    /// anything deref-ing to one, e.g. a pooled send lease), and record the
    /// resulting `(offset, len)` span. Returns the span.
    pub fn push_chunk(
        &mut self,
        compressor: &dyn Compressor,
        chunk: &[f32],
        dim: usize,
        eb: f32,
        scratch: &mut CompressScratch,
        out: &mut Vec<u8>,
    ) -> Result<(usize, usize)> {
        let start = out.len();
        compressor.compress_into(chunk, dim, eb, scratch, out)?;
        let span = (start, out.len() - start);
        self.spans.push(span);
        Ok(span)
    }

    /// Spans of every chunk pushed since the last [`ChunkEncoder::begin`].
    pub fn spans(&self) -> &[(usize, usize)] {
        &self.spans
    }

    /// Number of chunks pushed since the last [`ChunkEncoder::begin`].
    pub fn num_chunks(&self) -> usize {
        self.spans.len()
    }

    /// Total compressed bytes pushed since the last [`ChunkEncoder::begin`].
    pub fn payload_bytes(&self) -> usize {
        self.spans.iter().map(|&(_, len)| len).sum()
    }

    /// Take the span storage back (for callers that recycle it).
    pub fn into_spans(self) -> Vec<(usize, usize)> {
        self.spans
    }
}

/// Incremental decoder mirroring [`ChunkEncoder`]: decompresses one received
/// chunk at a time into a caller-owned flat value buffer, recording f32
/// spans — so a streaming receive side can decode chunk *k* while chunk
/// *k+1* is still in flight (the batch [`decompress_chunks_into`] is built
/// on it). Reusable via [`ChunkDecoder::begin`]; allocates nothing in the
/// steady state.
#[derive(Debug, Default)]
pub struct ChunkDecoder {
    spans: Vec<(usize, usize)>,
}

impl ChunkDecoder {
    /// A fresh decoder (span storage grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a decoder around recycled span storage (cleared first).
    pub fn with_spans(mut spans: Vec<(usize, usize)>) -> Self {
        spans.clear();
        Self { spans }
    }

    /// Start a new chunk stream, clearing the span table but keeping its
    /// capacity.
    pub fn begin(&mut self) {
        self.spans.clear();
    }

    /// Decompress one chunk's bytes, *appending* the values to `values`, and
    /// record the resulting `(offset, len)` span in f32 elements. Returns
    /// the span.
    pub fn pop_chunk(
        &mut self,
        compressor: &dyn Compressor,
        bytes: &[u8],
        scratch: &mut CompressScratch,
        values: &mut Vec<f32>,
    ) -> Result<(usize, usize)> {
        let start = values.len();
        compressor.decompress_into(bytes, scratch, values)?;
        let span = (start, values.len() - start);
        self.spans.push(span);
        Ok(span)
    }

    /// Spans of every chunk decoded since the last [`ChunkDecoder::begin`].
    pub fn spans(&self) -> &[(usize, usize)] {
        &self.spans
    }

    /// Number of chunks decoded since the last [`ChunkDecoder::begin`].
    pub fn num_chunks(&self) -> usize {
        self.spans.len()
    }

    /// Take the span storage back (for callers that recycle it).
    pub fn into_spans(self) -> Vec<(usize, usize)> {
        self.spans
    }
}

/// Zero-allocation path: compress every chunk *directly* into the shared
/// send buffer through a streaming [`ChunkEncoder`], reusing the caller's
/// scratch and the `FusedBuffer`'s own storage across calls.
///
/// Produces exactly the same chunks as [`compress_chunks_naive`], but
/// performs no per-chunk allocation and no gather copy at all — each chunk's
/// bytes are written once, in place. [`compress_chunks_fused`] is this call
/// with fresh storage; the trainer's steady-state pipeline reuses its own.
pub fn compress_chunks_into(
    compressor: &dyn Compressor,
    chunks: &[&[f32]],
    dim: usize,
    eb: f32,
    scratch: &mut CompressScratch,
    out: &mut FusedBuffer,
) -> Result<()> {
    let mut encoder = ChunkEncoder::with_spans(std::mem::take(&mut out.spans));
    out.bytes.clear();
    let result: Result<()> = chunks.iter().try_for_each(|chunk| {
        encoder
            .push_chunk(compressor, chunk, dim, eb, scratch, &mut out.bytes)
            .map(|_| ())
    });
    out.spans = encoder.into_spans();
    result
}

/// Decompress every chunk of a fused buffer into one caller-owned flat
/// buffer through a streaming [`ChunkDecoder`], returning per-chunk
/// `(offset, len)` spans into it (all in f32 elements). The zero-allocation
/// receive-side counterpart of [`compress_chunks_into`].
pub fn decompress_chunks_into(
    compressor: &dyn Compressor,
    buffer: &FusedBuffer,
    scratch: &mut CompressScratch,
    values: &mut Vec<f32>,
    spans: &mut Vec<(usize, usize)>,
) -> Result<()> {
    let mut decoder = ChunkDecoder::with_spans(std::mem::take(spans));
    values.clear();
    let result: Result<()> = (0..buffer.num_chunks()).try_for_each(|i| {
        decoder
            .pop_chunk(compressor, buffer.chunk(i), scratch, values)
            .map(|_| ())
    });
    *spans = decoder.into_spans();
    result
}

/// Naive path: compress chunks one at a time, then gather them into the send
/// buffer with a second sequential copy.
pub fn compress_chunks_naive(
    compressor: &dyn Compressor,
    chunks: &[&[f32]],
    dim: usize,
    eb: f32,
) -> Result<FusedBuffer> {
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        payloads.push(compressor.compress(chunk, dim, eb)?);
    }
    let mut bytes = Vec::with_capacity(payloads.iter().map(Vec::len).sum());
    let mut spans = Vec::with_capacity(payloads.len());
    for payload in &payloads {
        spans.push((bytes.len(), payload.len()));
        bytes.extend_from_slice(payload);
    }
    Ok(FusedBuffer { bytes, spans })
}

/// Fused receive path: decompress every chunk of a fused buffer through one
/// shared scratch, instead of building a fresh one per chunk as
/// [`decompress_chunks_serial`] does.
pub fn decompress_chunks_parallel(
    compressor: &dyn Compressor,
    buffer: &FusedBuffer,
) -> Result<Vec<Vec<f32>>> {
    let mut scratch = CompressScratch::new();
    (0..buffer.num_chunks())
        .map(|i| {
            let mut values = Vec::new();
            compressor.decompress_into(buffer.chunk(i), &mut scratch, &mut values)?;
            Ok(values)
        })
        .collect()
}

/// Decompress every chunk serially (the baseline of Figure 15's bottom half).
pub fn decompress_chunks_serial(
    compressor: &dyn Compressor,
    buffer: &FusedBuffer,
) -> Result<Vec<Vec<f32>>> {
    (0..buffer.num_chunks())
        .map(|i| compressor.decompress(buffer.chunk(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{build_compressor, CompressorKind};

    fn chunked_data(num_chunks: usize, vectors_per_chunk: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..num_chunks)
            .map(|c| {
                (0..vectors_per_chunk * dim)
                    .map(|i| (((c * 31 + i) % 97) as f32 - 48.0) * 0.004)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn fused_and_naive_produce_identical_chunks() {
        let comp = build_compressor(CompressorKind::OursHybrid);
        let data = chunked_data(8, 32, 16);
        let refs: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
        let fused = compress_chunks_fused(comp.as_ref(), &refs, 16, 0.01).unwrap();
        let naive = compress_chunks_naive(comp.as_ref(), &refs, 16, 0.01).unwrap();
        assert_eq!(fused.num_chunks(), naive.num_chunks());
        for i in 0..fused.num_chunks() {
            assert_eq!(fused.chunk(i), naive.chunk(i), "chunk {i}");
        }
        assert_eq!(fused.payload_bytes(), naive.payload_bytes());
    }

    #[test]
    fn parallel_and_serial_decompression_agree() {
        let comp = build_compressor(CompressorKind::OursHybrid);
        let data = chunked_data(6, 40, 8);
        let refs: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
        let fused = compress_chunks_fused(comp.as_ref(), &refs, 8, 0.02).unwrap();
        let par = decompress_chunks_parallel(comp.as_ref(), &fused).unwrap();
        let ser = decompress_chunks_serial(comp.as_ref(), &fused).unwrap();
        assert_eq!(par, ser);
        for (orig, dec) in data.iter().zip(par.iter()) {
            assert_eq!(orig.len(), dec.len());
            for (a, b) in orig.iter().zip(dec.iter()) {
                assert!((a - b).abs() <= 0.0201);
            }
        }
    }

    #[test]
    fn spans_are_disjoint_and_cover_buffer() {
        let comp = build_compressor(CompressorKind::FzLike);
        let data = chunked_data(16, 16, 8);
        let refs: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
        let fused = compress_chunks_fused(comp.as_ref(), &refs, 8, 0.01).unwrap();
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for &(off, len) in &fused.spans {
            assert_eq!(off, prev_end, "spans must be contiguous and ordered");
            prev_end = off + len;
            covered += len;
        }
        assert_eq!(covered, fused.bytes.len());
    }

    #[test]
    fn streaming_encoder_matches_batch_compression() {
        let comp = build_compressor(CompressorKind::OursHybrid);
        let data = chunked_data(5, 24, 8);
        let refs: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
        let batch = compress_chunks_fused(comp.as_ref(), &refs, 8, 0.01).unwrap();

        // Stream each chunk into its own output buffer, as the overlapped
        // pipeline does with one pooled lease per destination.
        let mut scratch = CompressScratch::new();
        let mut encoder = ChunkEncoder::new();
        encoder.begin();
        let mut per_dest: Vec<Vec<u8>> = Vec::new();
        for chunk in &refs {
            let mut lease = Vec::new();
            let (off, len) = encoder
                .push_chunk(comp.as_ref(), chunk, 8, 0.01, &mut scratch, &mut lease)
                .unwrap();
            assert_eq!(off, 0);
            assert_eq!(len, lease.len());
            per_dest.push(lease);
        }
        assert_eq!(encoder.num_chunks(), batch.num_chunks());
        assert_eq!(encoder.payload_bytes(), batch.payload_bytes());
        for (i, lease) in per_dest.iter().enumerate() {
            assert_eq!(lease.as_slice(), batch.chunk(i), "chunk {i}");
        }
    }

    #[test]
    fn streaming_decoder_roundtrips_chunk_by_chunk() {
        let comp = build_compressor(CompressorKind::FzLike);
        let data = chunked_data(4, 20, 8);
        let refs: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
        let fused = compress_chunks_fused(comp.as_ref(), &refs, 8, 0.02).unwrap();

        let mut scratch = CompressScratch::new();
        let mut decoder = ChunkDecoder::new();
        decoder.begin();
        let mut values = Vec::new();
        for (i, original) in data.iter().enumerate() {
            let (off, len) = decoder
                .pop_chunk(comp.as_ref(), fused.chunk(i), &mut scratch, &mut values)
                .unwrap();
            assert_eq!(len, original.len());
            for (a, b) in original.iter().zip(values[off..off + len].iter()) {
                assert!((a - b).abs() <= 0.0201);
            }
        }
        assert_eq!(decoder.num_chunks(), fused.num_chunks());
    }

    #[test]
    fn encoder_and_decoder_reuse_storage_across_streams() {
        let comp = build_compressor(CompressorKind::OursHuffman);
        let data = chunked_data(6, 16, 8);
        let refs: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
        let mut scratch = CompressScratch::new();
        let mut encoder = ChunkEncoder::new();
        let mut out = Vec::new();
        let mut first_spans: Vec<(usize, usize)> = Vec::new();
        for round in 0..3 {
            encoder.begin();
            out.clear();
            for chunk in &refs {
                encoder
                    .push_chunk(comp.as_ref(), chunk, 8, 0.01, &mut scratch, &mut out)
                    .unwrap();
            }
            if round == 0 {
                first_spans = encoder.spans().to_vec();
            } else {
                // Reused encoder state must not leak between streams.
                assert_eq!(encoder.spans(), first_spans.as_slice());
            }
        }
        // Recycling spans through with_spans keeps the storage.
        let spans = encoder.into_spans();
        let cap = spans.capacity();
        let recycled = ChunkEncoder::with_spans(spans);
        assert_eq!(recycled.num_chunks(), 0);
        assert_eq!(recycled.spans.capacity(), cap);
    }

    #[test]
    fn single_chunk_and_empty_chunk_edge_cases() {
        let comp = build_compressor(CompressorKind::OursHybrid);
        let one = [vec![0.25f32; 64]];
        let refs: Vec<&[f32]> = one.iter().map(Vec::as_slice).collect();
        let fused = compress_chunks_fused(comp.as_ref(), &refs, 8, 0.01).unwrap();
        assert_eq!(fused.num_chunks(), 1);

        let empty: Vec<&[f32]> = vec![&[], &[]];
        let fused = compress_chunks_fused(comp.as_ref(), &empty, 8, 0.01).unwrap();
        assert_eq!(fused.num_chunks(), 2);
        let out = decompress_chunks_parallel(comp.as_ref(), &fused).unwrap();
        assert!(out.iter().all(Vec::is_empty));
    }
}
