//! # dlrm-grad
//!
//! Error-feedback compressed gradients for the **dense path** of DLRM
//! training — the MLP-gradient all-reduce the paper leaves uncompressed
//! (its compression targets the embedding all-to-all).
//!
//! ## The error-feedback loop
//!
//! Lossy gradient compression alone biases SGD: the part of the gradient a
//! codec throws away every iteration is simply lost. Error feedback (as in
//! AdaComp and BytePS-style compressed `push/pull`) repairs this with a
//! per-rank **residual accumulator** holding exactly what compression lost
//! so far:
//!
//! 1. **compensate** — before compression, the residual is added back into
//!    the fresh gradient: `g̃ = g + r`;
//! 2. **compress** — `g̃` is what the all-reduce hops actually carry,
//!    encoded by a [`GradCodec`] (fp16/fp8 casts, an error-bounded codec
//!    from `dlrm-compress`, or the magnitude [top-k
//!    sparsifier](codec::GradCodecKind::TopK));
//! 3. **rebuild** — the residual is rebuilt from the quantization error of
//!    exactly the bytes that went on the wire: `r ← g̃ − decode(encode(g̃))`.
//!
//! Nothing is ever silently dropped — an element's error keeps accumulating
//! in `r` until it grows large enough for the codec to transmit it, which is
//! why top-k sparsification (which sends only a few percent of elements per
//! iteration) still converges. The residual lives entirely on its own rank
//! and never crosses the wire.
//!
//! ## Pieces
//!
//! * [`ErrorFeedback`] — the residual accumulator (zero-alloc steady state:
//!   one buffer, sized once, reused every iteration);
//! * [`GradCodec`] / [`GradCodecKind`] — codec adapters over `dlrm-compress`
//!   plus the top-k sparsifier, all with reusable scratch;
//! * [`CodecBank`] — one codec per embedding table, the bank training's
//!   exchange and serving's fetch encode, decode, size leases and charge
//!   codec time through; [`ControllerReplica`] — the runtime controller
//!   both engines replicate over it, window boundary included;
//! * [`GradCompressor`] — bundles codec + error feedback + scratch and
//!   implements [`dlrm_comm::ReduceCodec`], so it plugs straight into
//!   [`all_reduce_compressed`](dlrm_comm::cluster::RankCtx::all_reduce_compressed):
//!   the residual is rebuilt *inside* `encode_into`, from the same bytes the
//!   collective sends.

pub mod bank;
pub mod codec;
pub mod ef;
pub mod homomorphic;

pub use bank::{CodecBank, ControllerReplica};
pub use codec::{GradCodec, GradCodecKind, GradScratch};
pub use dlrm_comm::ReduceError;
pub use ef::ErrorFeedback;

use dlrm_comm::ReduceCodec;

/// Codec + error feedback + scratch, ready to drive a compressed all-reduce.
///
/// Implements [`dlrm_comm::ReduceCodec`]: during the reduce-scatter phase it
/// encodes this rank's contribution to each peer-owned shard, and during the
/// all-gather phase the reduced own shard — in both cases immediately
/// decoding its own output to rebuild the error-feedback residual from the
/// exact bytes that went on the wire. (Each element of the vector is encoded
/// at most once per all-reduce on a given rank, so the residual regions
/// never conflict.)
pub struct GradCompressor {
    codec: GradCodec,
    ef: Option<ErrorFeedback>,
    scratch: GradScratch,
    /// Decode-back staging for the residual rebuild.
    roundtrip: Vec<f32>,
    /// When false, a homomorphic codec still encodes/decodes but hides its
    /// combine capability, forcing the collective onto the classic decode →
    /// reduce → re-encode path — the comparison arm of the homomorphic
    /// experiments.
    allow_combine: bool,
}

impl GradCompressor {
    /// Build a compressor for `kind`, with or without error feedback.
    /// Homomorphic kinds advertise their combine capability; use
    /// [`GradCompressor::set_allow_combine`] to suppress it.
    pub fn new(kind: &GradCodecKind, error_feedback: bool) -> Self {
        Self {
            codec: kind.build(),
            ef: error_feedback.then(ErrorFeedback::new),
            scratch: GradScratch::new(),
            roundtrip: Vec::new(),
            allow_combine: true,
        }
    }

    /// Enable or suppress the homomorphic combine capability (no effect on
    /// non-homomorphic kinds, which never advertise it).
    pub fn set_allow_combine(&mut self, allow: bool) {
        self.allow_combine = allow;
    }

    /// The codec this compressor runs.
    pub fn codec(&self) -> &GradCodec {
        &self.codec
    }

    /// Add the accumulated residual into a fresh gradient vector (the
    /// *compensate* step — call once per iteration, before the all-reduce).
    /// A no-op without error feedback.
    pub fn compensate(&mut self, grads: &mut [f32]) {
        if let Some(ef) = &mut self.ef {
            ef.compensate(grads);
        }
    }

    /// L2 norm of the residual (0 without error feedback).
    pub fn residual_norm(&self) -> f64 {
        self.ef.as_ref().map_or(0.0, ErrorFeedback::l2_norm)
    }

    /// The error-feedback residual, if one is maintained and sized — the
    /// residual section of a checkpoint. `None` without error feedback or
    /// before the first compensate.
    pub fn residual(&self) -> Option<&[f32]> {
        self.ef
            .as_ref()
            .map(ErrorFeedback::residual)
            .filter(|r| !r.is_empty())
    }

    /// Restore a checkpointed residual (no-op without error feedback) — see
    /// [`ErrorFeedback::load`].
    pub fn load_residual(&mut self, data: &[f32]) {
        if let Some(ef) = &mut self.ef {
            ef.load(data);
        }
    }

    /// Total heap capacity held (codec scratch + residual + staging) —
    /// stable once warmed up; the trainer's allocation ledger samples it to
    /// prove the dense path's zero-allocation steady state.
    pub fn capacity_bytes(&self) -> u64 {
        self.codec.capacity_bytes()
            + self.scratch.capacity_bytes()
            + self.ef.as_ref().map_or(0, ErrorFeedback::capacity_bytes)
            + (self.roundtrip.capacity() * 4) as u64
    }
}

impl ReduceCodec for GradCompressor {
    fn encode_into(&mut self, offset: usize, data: &[f32], out: &mut Vec<u8>) {
        let start = out.len();
        self.codec.encode_into(data, &mut self.scratch, out);
        if let Some(ef) = &mut self.ef {
            if self.codec.is_lossless() {
                ef.record_exact(offset, data.len());
            } else {
                self.roundtrip.clear();
                self.codec
                    .decode_into(&out[start..], &mut self.scratch, &mut self.roundtrip)
                    .expect("own freshly encoded stream decodes");
                ef.record(offset, data, &self.roundtrip);
            }
        }
    }

    fn decode_into(
        &mut self,
        _offset: usize,
        bytes: &[u8],
        out: &mut Vec<f32>,
    ) -> Result<(), ReduceError> {
        self.codec.decode_into(bytes, &mut self.scratch, out)
    }

    fn max_encoded_bytes(&self, len: usize) -> usize {
        self.codec.max_encoded_bytes(len)
    }

    fn is_homomorphic(&self) -> bool {
        self.allow_combine && self.codec.is_homomorphic()
    }

    fn combine(
        &mut self,
        _offset: usize,
        acc: &mut Vec<u8>,
        other: &[u8],
    ) -> Result<(), ReduceError> {
        if !self.is_homomorphic() {
            return Err(ReduceError::NotHomomorphic);
        }
        self.codec.combine_into(acc, other, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressor_roundtrips_and_tracks_residual() {
        let data: Vec<f32> = (0..128).map(|i| (i as f32 * 0.11).sin() * 0.3).collect();
        let mut comp = GradCompressor::new(&GradCodecKind::Fp16, true);
        let mut grads = data.clone();
        comp.compensate(&mut grads); // residual empty: no change
        assert_eq!(grads, data);
        let mut bytes = Vec::new();
        comp.encode_into(0, &grads, &mut bytes);
        let mut back = Vec::new();
        comp.decode_into(0, &bytes, &mut back).unwrap();
        assert_eq!(back.len(), data.len());
        // Residual now holds exactly the fp16 rounding error.
        assert!(comp.residual_norm() > 0.0);
        let mut compensated = vec![0.0f32; data.len()];
        comp.compensate(&mut compensated);
        for ((c, d), b) in compensated.iter().zip(&data).zip(&back) {
            assert!((c - (d - b)).abs() < 1e-7);
        }
    }

    #[test]
    fn lossless_codec_keeps_residual_zero() {
        let data: Vec<f32> = (0..64).map(|i| i as f32 * 0.01 - 0.3).collect();
        let mut comp = GradCompressor::new(&GradCodecKind::Identity, true);
        let mut grads = data.clone();
        comp.compensate(&mut grads);
        let mut bytes = Vec::new();
        comp.encode_into(0, &grads, &mut bytes);
        assert_eq!(comp.residual_norm(), 0.0);
        let mut back = Vec::new();
        comp.decode_into(0, &bytes, &mut back).unwrap();
        for (a, b) in data.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn capacity_stabilises_after_first_use() {
        let data: Vec<f32> = (0..256).map(|i| (i as f32).cos() * 0.2).collect();
        let mut comp = GradCompressor::new(&GradCodecKind::TopK { fraction: 0.25 }, true);
        let mut bytes = Vec::new();
        comp.compensate(&mut [0.0; 256]);
        comp.encode_into(0, &data, &mut bytes);
        let warm = comp.capacity_bytes();
        assert!(warm > 0);
        for _ in 0..5 {
            bytes.clear();
            comp.encode_into(0, &data, &mut bytes);
            assert_eq!(comp.capacity_bytes(), warm, "steady-state capacity grew");
        }
    }
}
