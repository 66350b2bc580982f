//! Combined backward embedding-gradient push.
//!
//! The per-sample backward path (the pipeline's backward exchange) ships
//! every rank's per-sample gradient rows to the owning rank, which applies
//! them row by row — wire volume grows with `batch × world`. This module
//! implements the PR 9 ROADMAP follow-up: each rank first folds its shard's
//! rows into a **dense per-table accumulator** (`cardinality × dim`,
//! batch-order scatter-add), encodes the accumulator with a homomorphic
//! [`GradCodec`], and the wire *adds the encoded
//! accumulators* on the way home:
//!
//! * **flat** — every rank sends its encoded accumulators straight to the
//!   owner, which folds the `world` streams in ascending rank order with
//!   [`combine_into`](dlrm_grad::GradCodec::combine_into);
//! * **hierarchical** — members send to their node leader, the leader
//!   combines its node's streams (ascending member rank), and owners fold
//!   one pre-combined stream per node (ascending leader rank).
//!
//! Either way the owner decodes exactly **one** stream per owned table and
//! applies the dense gradient directly. For the lattice codec the combine
//! is saturating integer addition — associative and commutative absent
//! saturation — so the flat and hierarchical schedules produce
//! bit-identical weights (pinned by `tests/grad_push_matrix.rs`).
//!
//! Wire framing (one chunk per destination): `[blocks u32]`, then per block
//! `[bytes u32][codec stream]`. Blocks appear in a deterministic order both
//! sides can reproduce — ascending owner rank, then the owner's tables in
//! [`TablePartition::tables_of`] order — so streams carry no table ids.

use crate::config::GradPushSetting;
use crate::partition::TablePartition;
use crate::pipeline::{phases, PipelineScratch};
use dlrm_comm::cluster::{RankCtx, METADATA_RECORD_BYTES};
use dlrm_comm::topology::{TieredCostModel, Topology};
use dlrm_comm::{CostModel, TimingLedger};
use dlrm_grad::{GradCodec, GradScratch};
use dlrm_model::dlrm::DenseGrads;
use dlrm_model::Dlrm;
use std::time::Instant;

/// Reusable per-rank state of the combined push (codec, scratch, dense
/// accumulators, fold buffers), created once per segment and threaded
/// through every iteration so the steady-state loop reuses its storage.
pub struct GradPushState {
    codec: GradCodec,
    scratch: GradScratch,
    /// Per-table dense accumulators this rank contributes (`card × dim`).
    dense: Vec<Vec<f32>>,
    /// Encode staging for one accumulator stream.
    enc: Vec<u8>,
    /// Per-table fold accumulators (leader role: every table; owner role:
    /// only the owned entries are touched).
    acc: Vec<Vec<u8>>,
    /// Decode staging for one folded stream.
    decoded: Vec<f32>,
    /// Compressed-domain combines this rank performed (leader + owner
    /// roles).
    pub combines: u64,
}

impl GradPushState {
    /// Build the push state for a validated setting (`None` for
    /// [`GradPushSetting::PerSample`]).
    pub fn from_setting(setting: &GradPushSetting) -> Option<Self> {
        match setting {
            GradPushSetting::PerSample => None,
            GradPushSetting::Combined { codec } => {
                assert!(
                    codec.is_homomorphic(),
                    "validate() admits only homomorphic push codecs"
                );
                Some(Self {
                    codec: codec.build(),
                    scratch: GradScratch::new(),
                    dense: Vec::new(),
                    enc: Vec::new(),
                    acc: Vec::new(),
                    decoded: Vec::new(),
                    combines: 0,
                })
            }
        }
    }

    /// Run one iteration's backward push: accumulate → encode → combine on
    /// the way home → decode once → dense apply. Replaces the backward
    /// exchange *and* the owner-side gradient apply; charges the usual
    /// `BWD_COMPRESS` / `BWD_A2A` / `BWD_DECOMPRESS` / `EMB_UPDATE` phases.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        ctx: &RankCtx,
        partition: &TablePartition,
        model: &mut Dlrm,
        grads: &DenseGrads,
        sparse: &[Vec<u32>],
        cards: &[usize],
        dim: usize,
        learning_rate: f32,
        cost: &CostModel,
        hier: Option<&(Topology, TieredCostModel)>,
        pipeline: &mut PipelineScratch,
        tags: &[u32],
        ledger: &mut TimingLedger,
        compute_scale: f64,
    ) {
        let world = ctx.world();
        let rank = ctx.rank();
        let num_tables = cards.len();

        // ── Accumulate + encode (BWD_COMPRESS).
        let t0 = Instant::now();
        if self.dense.len() != num_tables {
            self.dense = (0..num_tables).map(|_| Vec::new()).collect();
            self.acc = (0..num_tables).map(|_| Vec::new()).collect();
        }
        for t in 0..num_tables {
            let d = &mut self.dense[t];
            d.clear();
            d.resize(cards[t] * dim, 0.0);
            let grad = &grads.embedding_grads[t];
            for (row, &idx) in sparse[t].iter().enumerate() {
                let base = idx as usize * dim;
                let src = grad.row(row);
                for (slot, &g) in d[base..base + dim].iter_mut().zip(src) {
                    *slot += g;
                }
            }
        }
        pipeline.send.clear();
        match hier {
            None => {
                // One chunk per owner carrying this rank's accumulators of
                // the owner's tables.
                for owner in 0..world {
                    let tables = partition.tables_of(owner);
                    let worst = 4 + tables
                        .iter()
                        .map(|&t| 4 + self.codec.max_encoded_bytes(cards[t] * dim))
                        .sum::<usize>();
                    let mut buf = ctx.take_buf(worst);
                    buf.extend_from_slice(&(tables.len() as u32).to_le_bytes());
                    for &t in tables {
                        self.enc.clear();
                        self.codec
                            .encode_into(&self.dense[t], &mut self.scratch, &mut self.enc);
                        buf.extend_from_slice(&(self.enc.len() as u32).to_le_bytes());
                        buf.extend_from_slice(&self.enc);
                    }
                    pipeline.send.push(buf);
                }
            }
            Some((topo, _)) => {
                // Every accumulator goes to this rank's node leader, blocks
                // ordered by (owner, owner's tables).
                let leader = topo.leader_of(rank);
                for dst in 0..world {
                    if dst != leader {
                        let mut buf = ctx.take_buf(4);
                        buf.extend_from_slice(&0u32.to_le_bytes());
                        pipeline.send.push(buf);
                        continue;
                    }
                    let worst = 4
                        + (0..num_tables)
                            .map(|t| 4 + self.codec.max_encoded_bytes(cards[t] * dim))
                            .sum::<usize>();
                    let mut buf = ctx.take_buf(worst);
                    buf.extend_from_slice(&(num_tables as u32).to_le_bytes());
                    for owner in 0..world {
                        for &t in partition.tables_of(owner) {
                            self.enc.clear();
                            self.codec.encode_into(
                                &self.dense[t],
                                &mut self.scratch,
                                &mut self.enc,
                            );
                            buf.extend_from_slice(&(self.enc.len() as u32).to_le_bytes());
                            buf.extend_from_slice(&self.enc);
                        }
                    }
                    pipeline.send.push(buf);
                }
            }
        }
        ledger.add_time(
            phases::BWD_COMPRESS,
            t0.elapsed().as_secs_f64() * compute_scale,
        );

        // ── Exchange + compressed-domain fold (BWD_A2A).
        match hier {
            None => {
                let stats = ctx.all_to_all_var_pooled(
                    &mut pipeline.send,
                    &mut pipeline.recv,
                    tags,
                    &mut pipeline.meta,
                );
                let meta_bytes = world.saturating_sub(1) * METADATA_RECORD_BYTES;
                ledger.add_time(
                    phases::BWD_A2A,
                    cost.metadata_time(world.saturating_sub(1), METADATA_RECORD_BYTES)
                        + cost.alltoall_time(
                            stats.sent.saturating_sub(meta_bytes),
                            stats.received.saturating_sub(meta_bytes),
                        ),
                );
                ledger.add_bytes(phases::BWD_A2A, (stats.sent + stats.received) as u64);
                // Fold the streams of my owned tables in ascending source
                // rank order.
                let recv = std::mem::take(&mut pipeline.recv);
                for (src, chunk) in recv.iter().enumerate() {
                    self.fold_chunk(chunk, partition.tables_of(rank), src == 0);
                }
                let mut recv = recv;
                recv.clear();
                pipeline.recv = recv;
            }
            Some((topo, tiered)) => {
                // Phase 1 (intra tier): members → node leaders.
                let stats = ctx.all_to_all_var_pooled(
                    &mut pipeline.send,
                    &mut pipeline.recv,
                    tags,
                    &mut pipeline.meta,
                );
                let intra = tiered.intra_model();
                let meta_bytes = world.saturating_sub(1) * METADATA_RECORD_BYTES;
                let mut a2a_time = intra
                    .metadata_time(world.saturating_sub(1), METADATA_RECORD_BYTES)
                    + intra.alltoall_time(
                        stats.sent.saturating_sub(meta_bytes),
                        stats.received.saturating_sub(meta_bytes),
                    );
                let mut a2a_bytes = (stats.sent + stats.received) as u64;
                // Leaders fold their node's streams — every table, ascending
                // member rank.
                let recv = std::mem::take(&mut pipeline.recv);
                if topo.is_leader(rank) {
                    let mut first = true;
                    for (src, chunk) in recv.iter().enumerate() {
                        if topo.leader_of(src) != rank {
                            continue;
                        }
                        self.fold_all_tables(chunk, partition, world, first);
                        first = false;
                    }
                }
                let mut recv = recv;
                recv.clear();
                pipeline.recv = recv;

                // Phase 2: leaders → owners, one pre-combined stream per
                // (node, owned table).
                pipeline.send.clear();
                for owner in 0..world {
                    let tables = partition.tables_of(owner);
                    if !topo.is_leader(rank) || tables.is_empty() {
                        let mut buf = ctx.take_buf(4);
                        buf.extend_from_slice(&0u32.to_le_bytes());
                        pipeline.send.push(buf);
                        continue;
                    }
                    let worst = 4 + tables.iter().map(|&t| 4 + self.acc[t].len()).sum::<usize>();
                    let mut buf = ctx.take_buf(worst);
                    buf.extend_from_slice(&(tables.len() as u32).to_le_bytes());
                    for &t in tables {
                        buf.extend_from_slice(&(self.acc[t].len() as u32).to_le_bytes());
                        buf.extend_from_slice(&self.acc[t]);
                    }
                    pipeline.send.push(buf);
                }
                // Send-side inter-tier charge (pair model: leaders fan out
                // to every owner, possibly crossing nodes).
                for (dst, chunk) in pipeline.send.iter().enumerate() {
                    if dst != rank && chunk.len() > 4 {
                        a2a_time += tiered.pair_time(rank, dst, chunk.len());
                        a2a_bytes += chunk.len() as u64;
                    }
                }
                let stats2 = ctx.all_to_all_var_pooled(
                    &mut pipeline.send,
                    &mut pipeline.recv,
                    tags,
                    &mut pipeline.meta,
                );
                a2a_bytes += stats2.received as u64;
                ledger.add_time(phases::BWD_A2A, a2a_time);
                ledger.add_bytes(phases::BWD_A2A, a2a_bytes);
                // Owners fold the node aggregates in ascending leader rank.
                let recv = std::mem::take(&mut pipeline.recv);
                let mut first = true;
                for (src, chunk) in recv.iter().enumerate() {
                    if !topo.is_leader(src) {
                        continue;
                    }
                    self.fold_chunk(chunk, partition.tables_of(rank), first);
                    first = false;
                }
                let mut recv = recv;
                recv.clear();
                pipeline.recv = recv;
            }
        }

        // ── Decode once per owned table (BWD_DECOMPRESS) and apply the
        // dense gradient (EMB_UPDATE).
        let t0 = Instant::now();
        let owned = partition.tables_of(rank);
        for &t in owned {
            self.decoded.clear();
            self.codec
                .decode_into(&self.acc[t], &mut self.scratch, &mut self.decoded)
                .expect("combined push stream decodes");
            debug_assert_eq!(self.decoded.len(), cards[t] * dim);
            std::mem::swap(&mut self.dense[t], &mut self.decoded);
        }
        ledger.add_time(
            phases::BWD_DECOMPRESS,
            t0.elapsed().as_secs_f64() * compute_scale,
        );
        let t0 = Instant::now();
        for &t in owned {
            let weights = model.embedding_mut(t).weights_mut().as_mut_slice();
            for (w, &g) in weights.iter_mut().zip(&self.dense[t]) {
                *w -= learning_rate * g;
            }
        }
        ledger.add_time(
            phases::EMB_UPDATE,
            t0.elapsed().as_secs_f64() * compute_scale,
        );
    }

    /// Fold one chunk whose blocks are exactly `tables` (in order) into the
    /// per-table accumulators: `init` copies, later calls combine.
    fn fold_chunk(&mut self, chunk: &[u8], tables: &[usize], init: bool) {
        let mut cursor = chunk;
        let blocks = read_u32(&mut cursor) as usize;
        assert_eq!(blocks, tables.len(), "combined-push chunk shape mismatch");
        for &t in tables {
            let stream = read_block(&mut cursor);
            if init {
                self.acc[t].clear();
                self.acc[t].extend_from_slice(stream);
            } else {
                self.codec
                    .combine_into(&mut self.acc[t], stream, &mut self.scratch)
                    .expect("combined push streams add");
                self.combines += 1;
            }
        }
        assert!(cursor.is_empty(), "trailing bytes in combined-push chunk");
    }

    /// Fold a phase-1 chunk carrying every table, blocks ordered by
    /// (ascending owner, owner's tables).
    fn fold_all_tables(
        &mut self,
        chunk: &[u8],
        partition: &TablePartition,
        world: usize,
        init: bool,
    ) {
        let mut cursor = chunk;
        let blocks = read_u32(&mut cursor) as usize;
        let mut seen = 0usize;
        for owner in 0..world {
            for &t in partition.tables_of(owner) {
                let stream = read_block(&mut cursor);
                if init {
                    self.acc[t].clear();
                    self.acc[t].extend_from_slice(stream);
                } else {
                    self.codec
                        .combine_into(&mut self.acc[t], stream, &mut self.scratch)
                        .expect("combined push streams add");
                    self.combines += 1;
                }
                seen += 1;
            }
        }
        assert_eq!(blocks, seen, "combined-push leader chunk shape mismatch");
        assert!(cursor.is_empty(), "trailing bytes in leader chunk");
    }
}

fn read_u32(cursor: &mut &[u8]) -> u32 {
    let v = u32::from_le_bytes(cursor[..4].try_into().expect("u32 header"));
    *cursor = &cursor[4..];
    v
}

fn read_block<'a>(cursor: &mut &'a [u8]) -> &'a [u8] {
    let len = read_u32(cursor) as usize;
    let (head, tail) = cursor.split_at(len);
    *cursor = tail;
    head
}
