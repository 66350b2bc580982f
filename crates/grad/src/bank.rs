//! One codec per embedding table: the bank every embedding stream runs
//! through — training's forward and backward exchange, serving's fetch and
//! the modeled codec charge of both.
//!
//! A bank stream rides inside a frame group whose own `rows × dim` is its
//! value count, so it is the codec body alone
//! ([`GradCodec::encode_body_into`]): no `[n u32]` count travels twice.
//! Streams outside a frame — dense all-reduce shards, checkpoint sections —
//! keep [`GradCodec`]'s standalone form, the same body after the count.

use crate::codec::{GradCodec, GradCodecKind, GradScratch};
use dlrm_adaptive::CodecProfile;
use dlrm_comm::ReduceError;
use dlrm_compress::CompressorKind;

/// One [`GradCodec`] per embedding table, switchable per table (the
/// runtime controller retunes tables independently).
pub struct CodecBank {
    codecs: Vec<GradCodec>,
}

impl CodecBank {
    /// Every one of `tables` tables starts on `kind`.
    pub fn new(tables: usize, kind: GradCodecKind) -> Self {
        Self::per_table(vec![kind; tables])
    }

    /// Table `t` runs `kinds[t]`.
    pub fn per_table(kinds: impl IntoIterator<Item = GradCodecKind>) -> Self {
        Self {
            codecs: kinds.into_iter().map(|k| k.build()).collect(),
        }
    }

    /// The codec kind table `t` runs.
    pub fn kind(&self, t: usize) -> &GradCodecKind {
        self.codecs[t].kind()
    }

    /// The built codec of table `t`.
    pub fn codec(&self, t: usize) -> &GradCodec {
        &self.codecs[t]
    }

    /// True when every table sends raw `f32` ([`GradCodecKind::Identity`]).
    pub fn is_identity(&self) -> bool {
        (self.codecs.iter()).all(|c| *c.kind() == GradCodecKind::Identity)
    }

    /// Switch table `t` to an error-bounded codec over `compressor`,
    /// keeping the table's error bound.
    pub fn set_compressor(&mut self, t: usize, compressor: CompressorKind) {
        let error_bound = self.kind(t).error_bound();
        self.codecs[t] = GradCodecKind::ErrorBounded {
            compressor,
            error_bound,
        }
        .build();
    }

    /// Append the in-frame stream of table `t`'s `data`, rows `dim` wide,
    /// at `error_bound` (see [`GradCodec::encode_body_into`]).
    pub fn encode(
        &self,
        t: usize,
        data: &[f32],
        dim: usize,
        error_bound: f32,
        scratch: &mut GradScratch,
        out: &mut Vec<u8>,
    ) {
        self.codecs[t].encode_body_into(data, dim, error_bound, scratch, out);
    }

    /// Append the `n` values the frame promises for table `t` from its
    /// in-frame stream; `Err` on any mismatch (see
    /// [`GradCodec::decode_body_into`]).
    pub fn decode(
        &self,
        t: usize,
        stream: &[u8],
        n: usize,
        scratch: &mut GradScratch,
        out: &mut Vec<f32>,
    ) -> Result<(), ReduceError> {
        self.codecs[t].decode_body_into(stream, n, scratch, out)
    }

    /// Worst-case in-frame bytes of `len` values of table `t`: what a
    /// lease is sized to so a stream never grows it mid-fill.
    pub fn max_stream_bytes(&self, t: usize, len: usize) -> usize {
        self.codecs[t].max_body_bytes(len)
    }

    /// Modeled `(encode, decode)` throughput in bytes/s of table `t`'s
    /// codec under `profile` ([`GradCodecKind::price`]); `None` for the
    /// identity codec.
    pub fn throughput(&self, t: usize, profile: &CodecProfile) -> Option<(f64, f64)> {
        let (encode, decode, _) = self.kind(t).price(profile)?;
        Some((encode, decode))
    }
}
