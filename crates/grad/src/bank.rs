//! One codec per embedding table: the bank every embedding stream runs
//! through — training's forward and backward exchange, serving's fetch and
//! the modeled codec charge of both.
//!
//! A bank stream rides inside a frame group whose own `rows × dim` is its
//! value count, so it is the codec body alone
//! ([`GradCodec::encode_body_into`]): no `[n u32]` count travels twice.
//! Streams outside a frame — dense all-reduce shards, checkpoint sections —
//! keep [`GradCodec`]'s standalone form, the same body after the count.
//!
//! [`ControllerReplica`] is the runtime controller every rank of either
//! engine replicates over its bank: one window-boundary protocol for both
//! lookup paths.

use crate::codec::{GradCodec, GradCodecKind, GradScratch};
use dlrm_adaptive::{
    probe_candidates, CodecProfile, ControllerConfig, Reselection, RuntimeController,
    WindowObservation, WindowShare,
};
use dlrm_comm::cluster::{ExchangeBytes, RankCtx};
use dlrm_comm::{PooledBuf, ReduceError};
use dlrm_compress::{CompressScratch, Compressor, CompressorKind};

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

    /// Number of tables.
    pub fn tables(&self) -> usize {
        self.codecs.len()
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

/// One rank's replica of the runtime controller over its [`CodecBank`].
/// Every rank of a training or serving cluster fills its open window's
/// `share` with what it saw and closes each window with
/// [`ControllerReplica::close_window`], so every replica applies the same
/// codec switches to its own bank.
pub struct ControllerReplica {
    ctl: RuntimeController,
    /// Prebuilt candidate codecs, in controller-candidate order.
    candidates: Vec<Box<dyn Compressor>>,
    /// This rank's share of the open window.
    pub share: WindowShare,
    /// The encoded share and the all-gather's leases, reused every window.
    blob: Vec<u8>,
    send: Vec<PooledBuf>,
    recv: Vec<PooledBuf>,
}

impl ControllerReplica {
    /// A replica under `config` for a rank of a `world`-rank cluster; each
    /// table starts on the compressor of its codec in `codecs`.
    ///
    /// # Panics
    /// Panics if a table's codec is not error-bounded, or on an invalid
    /// `config`.
    pub fn new(config: ControllerConfig, codecs: &CodecBank, world: usize) -> Self {
        let tables = codecs.tables();
        let initial = (0..tables)
            .map(|t| match codecs.kind(t) {
                GradCodecKind::ErrorBounded { compressor, .. } => *compressor,
                kind => panic!("runtime adaptation needs error-bounded codecs, not {kind:?}"),
            })
            .collect();
        let candidates: Vec<_> = config.candidates.iter().map(|k| k.build()).collect();
        Self {
            blob: Vec::with_capacity(WindowShare::encoded_len(tables, candidates.len())),
            candidates,
            ctl: RuntimeController::new(config, initial),
            share: WindowShare::default(),
            send: Vec::with_capacity(world),
            recv: Vec::with_capacity(world),
        }
    }

    /// The controller, with its configuration and reselection log.
    pub fn controller(&self) -> &RuntimeController {
        &self.ctl
    }

    /// The candidate codecs, in controller-candidate order.
    pub fn candidates(&self) -> &[Box<dyn Compressor>] {
        &self.candidates
    }

    /// True when a window closes before `iteration` (a reselection point).
    pub fn closes_at(&self, iteration: usize) -> bool {
        iteration > 0 && iteration.is_multiple_of(self.ctl.config().window)
    }

    /// Each candidate's compression ratio on `sample`, `dim` wide, at `eb`
    /// ([`probe_candidates`]).
    pub fn probe(
        &self,
        sample: &[f32],
        dim: usize,
        eb: f32,
        scratch: &mut CompressScratch,
        out: &mut Vec<u8>,
    ) -> Vec<f64> {
        probe_candidates(&self.candidates, sample, dim, eb, scratch, out)
    }

    /// Close the window ending before `iteration`: all-gather every rank's
    /// share, fold them ([`WindowShare::fold`]), decide
    /// ([`RuntimeController::observe_degraded`]), apply the switches to
    /// `codecs` and open an empty share. Returns the reselection, the folded
    /// observation and this rank's all-gather bytes.
    ///
    /// # Panics
    /// Panics naming this rank, the sender and the byte offset if a
    /// gathered share does not decode.
    pub fn close_window(
        &mut self,
        ctx: &RankCtx,
        iteration: usize,
        fallback_bandwidth: f64,
        mean_loss: impl FnOnce(f64, u64) -> f64,
        degraded: bool,
        codecs: &mut CodecBank,
    ) -> (Reselection, WindowObservation, ExchangeBytes) {
        self.blob.clear();
        self.share.encode_into(&mut self.blob);
        let bytes = ctx.all_gather_pooled(&self.blob, &mut self.send, &mut self.recv);
        let (rank, candidates) = (ctx.rank(), self.candidates.len());
        let shares = self.recv.iter().enumerate().map(|(src, chunk)| {
            WindowShare::decode(chunk, candidates).unwrap_or_else(|e| {
                panic!("rank {rank}: malformed window share from rank {src}: {e}")
            })
        });
        let observation = WindowShare::fold(shares, iteration, fallback_bandwidth, mean_loss);
        self.recv.clear(); // release the leases back to their origin pools
        let reselection = self.ctl.observe_degraded(&observation, degraded);
        for s in &reselection.switches {
            codecs.set_compressor(s.table_id, s.to);
        }
        self.share = WindowShare::default();
        (reselection, observation, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_adaptive::TableObservation;
    use dlrm_comm::{NetworkConfig, SimCluster};

    #[test]
    #[should_panic(
        expected = "rank 0: malformed window share from rank 1: need 40 bytes at offset 56, have 32"
    )]
    fn a_truncated_share_panics_naming_both_ranks_and_the_offset() {
        SimCluster::new(2, NetworkConfig::infinite()).run(|ctx| {
            let candidates = vec![CompressorKind::Fp16, CompressorKind::OursHybrid];
            let config = ControllerConfig::new(1, 0.1).with_candidates(candidates);
            let kind = GradCodecKind::ErrorBounded {
                compressor: CompressorKind::Fp16,
                error_bound: 0.05,
            };
            let mut codecs = CodecBank::new(2, kind);
            let mut replica = ControllerReplica::new(config, &codecs, ctx.world());
            if ctx.rank() == 0 {
                replica.close_window(&ctx, 1, 1e9, |_, _| 0.0, false, &mut codecs);
                return;
            }
            // Rank 1's one table entry (3 + 2 words) loses its last word.
            replica.share.tables.push(TableObservation {
                table_id: 1,
                original_bytes: 64,
                compressed_bytes: 32,
                candidate_ratios: vec![2.0, 4.0],
            });
            let mut share = Vec::new();
            replica.share.encode_into(&mut share);
            share.truncate(share.len() - 8);
            ctx.all_gather_pooled(&share, &mut Vec::new(), &mut Vec::new());
        });
    }
}
