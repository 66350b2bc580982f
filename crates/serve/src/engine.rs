//! The SPMD serving engine.
//!
//! One executor rank per serving process. Ranks `0..frontends` each own a
//! shard of the embedding tables ([`TablePartition::greedy`] over
//! cardinalities) plus a full MLP replica; ranks beyond the partition (when
//! `world > frontends`) own nothing and serve no traffic, so every modeled
//! number is a pure function of the partition — the cross-world determinism
//! regression pins exactly that.
//!
//! Serving stays on the cardinality rule although training places tables by
//! expected all-to-all traffic ([`TablePartition::by_traffic`]). Which rows
//! are local decides which rows skip the lossy fetch, so a placement is part
//! of serving's answer fidelity, not only of its wire time: placed by
//! expected traffic at its own shape (4 frontends, 256-request windows),
//! `serve_zipf`'s mean |Δlogit| against raw fetch went 0.012212 → 0.012528
//! while its wire bytes stayed put. The two workloads keep their own
//! placement policies.
//!
//! ## One batch window
//!
//! 1. Every frontend takes the window's request batch from the cluster's one
//!    [`BatchFeed`] (the first to ask draws it, the rest share it) and walks
//!    its own slice (`request_id % frontends == rank`): rows on the local
//!    shard are gathered directly from the trained weights, remote rows
//!    probe the hot-row cache, and misses fall into the per-owner
//!    [`BatchCoalescer`]. The draw is the window's serial stage: one
//!    frontend draws the whole batch under the feed's mutex while the others
//!    wait for it, so its cost lands on every window's wall time.
//! 2. The coalesced key lists ride one variable all-to-all (request
//!    direction), owners gather + encode each table's rows into a single
//!    codec stream of `dim`-wide rows, and the payloads ride a second
//!    all-to-all back, both in the varint frames of [`crate::fetch`]. A
//!    chunk that does not parse, or a payload group that does not answer
//!    its request, is one panic naming the rank, the sender and the byte
//!    offset.
//! 3. Frontends decode, offer the rows to the cache (its admission gate
//!    keeps a row only if it is hit more often than the row it would
//!    evict), assemble per-request embedding
//!    matrices (local weights, cache hits and fresh decodes are all the same
//!    pure function of the codec, so caching never changes a response bit),
//!    and run the dense MLP for the CTR logits.
//!
//! ## Modeled time
//!
//! Per-window processing time is assembled at merge from per-rank analytic
//! charges — host gathers at [`ServeConfig::host_gather_bandwidth`], codec
//! work at the [`CodecProfile`](dlrm_adaptive::CodecProfile) throughputs,
//! wire bytes through the flat α–β model or the tiered topology model, MLP
//! flops at [`ServeConfig::mlp_flops`] — never from wall clocks, which is why
//! sequential and threaded execution produce bit-identical reports. The
//! window times then drive the queueing [`timeline`](crate::latency::timeline())
//! that yields per-request latencies and the p50/p99 tail.
//!
//! ## Adaptation
//!
//! With [`ServeAdaptive`](crate::config::ServeAdaptive) enabled, every rank
//! runs a replica of the trainer's [`RuntimeController`] and applies the same
//! per-table codec switches — off the request latency path. At each
//! controller window boundary a rank encodes its [`WindowShare`] (live fetch
//! traffic and candidate ratios probed on fetched rows), the shares ride the
//! pooled all-gather, and every rank decodes and folds them into the
//! identical observation; a malformed share is one panic naming both ranks
//! and the byte offset. A switch
//! flushes the hot-row cache so stale-codec rows never resurface. Without
//! adaptation no window state is kept at all.

use std::sync::Arc;

use dlrm_adaptive::{
    probe_candidates, ControllerConfig, Reselection, RuntimeController, TableObservation,
    WindowShare, PROBE_ROWS,
};
use dlrm_ckpt::Checkpoint;
use dlrm_comm::cluster::RankCtx;
use dlrm_comm::frame::{
    payload_chunk_capacity, payload_groups, write_payload_group, write_varint, ChunkOrigin,
    FrameError, VARINT_MAX,
};
use dlrm_comm::phase as phases;
use dlrm_comm::pool::PooledBuf;
use dlrm_comm::topology::TieredCostModel;
use dlrm_comm::{CostModel, Link, TimingLedger, WirePolicy};
use dlrm_compress::{CompressScratch, Compressor, CompressorKind};
use dlrm_data::{BatchFeed, DatasetConfig};
use dlrm_exec::Executor;
use dlrm_grad::{GradCodecKind, GradScratch};
use dlrm_model::{Dlrm, DlrmConfig};
use dlrm_tensor::Matrix;
use dlrm_trainer::TablePartition;

use crate::cache::HotRowCache;
use crate::coalesce::BatchCoalescer;
use crate::config::ServeConfig;
use crate::fetch::{answered, request_groups, write_request_chunk, FetchCodecs};
use crate::latency::{percentile, timeline};
use crate::report::ServingReport;
use crate::snapshot::restore_owned;

/// Serve `cfg.requests` requests against freshly-initialized model weights
/// (`cfg.model_seed` stands in for the trained state).
///
/// # Panics
/// Panics if the configuration fails [`ServeConfig::validate`].
pub fn run_serving(dataset: &DatasetConfig, cfg: &ServeConfig) -> ServingReport {
    run_inner(dataset, cfg, None, None)
}

/// Serve against trained weights restored from `checkpoint` (see
/// [`snapshot_model`](crate::snapshot::snapshot_model)). Each rank decodes
/// only its owned table shards plus the MLP replica.
///
/// # Panics
/// Panics if the configuration fails [`ServeConfig::validate`] or the
/// checkpoint is missing an owned table.
pub fn run_serving_from_checkpoint(
    dataset: &DatasetConfig,
    cfg: &ServeConfig,
    checkpoint: &Checkpoint,
    provenance: Option<String>,
) -> ServingReport {
    run_inner(dataset, cfg, Some(checkpoint.clone()), provenance)
}

struct Setup {
    dataset: DatasetConfig,
    cfg: ServeConfig,
    partition: TablePartition,
    checkpoint: Option<Checkpoint>,
    /// The request stream, one unsharded batch per window, shared by every
    /// frontend so the per-window arrivals agree without any coordination
    /// traffic.
    feed: BatchFeed,
}

/// Everything one rank hands back to the merge step. All charges are
/// analytic (bytes over modeled throughput) — never wall-clock — so the
/// merged report is independent of executor mode.
struct RankOutcome {
    /// `(request id, logit)` for the requests this frontend answered.
    responses: Vec<(u32, f32)>,
    /// Per-window host-gather seconds (local lookups + response assembly).
    local_s: Vec<f64>,
    /// Per-window owner-side encode seconds.
    encode_s: Vec<f64>,
    /// Per-window frontend-side decode seconds.
    decode_s: Vec<f64>,
    /// Per-window MLP forward seconds.
    mlp_s: Vec<f64>,
    /// Request-direction bytes sent, `windows × world` row-major.
    req_sent: Vec<u64>,
    /// Payload-direction bytes sent, `windows × world` row-major.
    pay_sent: Vec<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
    rejections: u64,
    flushes: u64,
    local_rows: u64,
    fetched_rows: u64,
    fetch_raw_bytes: u64,
    fetch_wire_bytes: u64,
    request_wire_bytes: u64,
    reselections: Vec<Reselection>,
    final_codecs: Vec<String>,
    steady_alloc: u64,
    ledger: TimingLedger,
}

fn pair_cost(
    cost: &CostModel,
    tiered: Option<&TieredCostModel>,
    src: usize,
    dst: usize,
    bytes: u64,
) -> f64 {
    if bytes == 0 || src == dst {
        return 0.0;
    }
    match tiered {
        Some(t) => t.pair_time(src, dst, bytes as usize),
        None => cost.message_time(Link::AllToAll, bytes as usize),
    }
}

fn run_inner(
    dataset: &DatasetConfig,
    cfg: &ServeConfig,
    checkpoint: Option<Checkpoint>,
    provenance: Option<String>,
) -> ServingReport {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid serving config: {e}"));
    let from_checkpoint = checkpoint.is_some();
    let setup = Arc::new(Setup {
        dataset: dataset.clone(),
        cfg: cfg.clone(),
        partition: TablePartition::greedy(
            &dataset
                .tables
                .iter()
                .map(|t| t.cardinality)
                .collect::<Vec<_>>(),
            cfg.frontend_count(),
        ),
        checkpoint,
        feed: BatchFeed::new(dataset.clone(), cfg.seed, 1),
    });
    let wire = if cfg.realtime_wire {
        WirePolicy::Modeled
    } else {
        WirePolicy::Instant
    };
    let run = {
        let setup = Arc::clone(&setup);
        Executor::new(cfg.world, cfg.network)
            .with_mode(cfg.executor.exec_mode())
            .with_wire(wire)
            .run(move |ctx| rank_serve(&ctx, &setup))
    };
    merge(
        &setup,
        run.results,
        run.wall_seconds,
        from_checkpoint,
        provenance,
    )
}

/// Per-rank scratch that lives across windows; its capacities are part of
/// the steady-state allocation ledger.
struct Scratch {
    /// Window-local batch indices this frontend answers.
    my_ids: Vec<usize>,
    /// Flattened dense features of the answered requests.
    my_dense: Vec<f32>,
    /// `(packed (table, row), store slot)` of every remote row available
    /// this window (cache hits + fresh decodes), sorted+deduped before
    /// assembly.
    store_keys: Vec<(u64, u32)>,
    /// Flat remote-row values, `dim` floats per store slot.
    store_vals: Vec<f32>,
    /// Per-table embedding assembly buffers.
    emb_bufs: Vec<Vec<f32>>,
    /// Owner-side row-id gather list.
    idx_buf: Vec<u32>,
    /// Owner-side gathered row values.
    owner_rows: Vec<f32>,
    /// Frontend-side decoded stream.
    dec_buf: Vec<f32>,
}

impl Scratch {
    fn capacity_bytes(&self) -> u64 {
        (self.my_ids.capacity() * 8
            + self.my_dense.capacity() * 4
            + self.store_keys.capacity() * 12
            + self.store_vals.capacity() * 4
            + self.emb_bufs.iter().map(Vec::capacity).sum::<usize>() * 4
            + self.idx_buf.capacity() * 4
            + self.owner_rows.capacity() * 4
            + self.dec_buf.capacity() * 4) as u64
    }
}

/// One rank's controller replica and its window inputs; `None` without
/// [`ServeConfig::adaptive`], so a plain run accumulates nothing.
struct Adaptation {
    ctl: RuntimeController,
    /// Prebuilt candidate codecs, in controller-candidate order.
    candidates: Vec<Box<dyn Compressor>>,
    /// The fetch error bound the candidates are probed at.
    eb: f32,
    /// This rank's share of the current window; its tables are filled at
    /// the boundary.
    share: WindowShare,
    /// Per-table `(original, compressed)` fetch bytes this window.
    traffic: Vec<(u64, u64)>,
    /// Per-table probe sample of live payload rows (owner side).
    probe: Vec<Vec<f32>>,
    scratch: CompressScratch,
    /// Reused probe output and share encoding.
    out: Vec<u8>,
    blob: Vec<u8>,
}

impl Adaptation {
    fn new(cfg: &ServeConfig, tables: usize, dim: usize) -> Option<Self> {
        let a = cfg.adaptive.as_ref()?;
        let ctl_cfg = ControllerConfig::new(a.window, a.hysteresis)
            .with_candidates(a.candidates.clone())
            .with_profile(cfg.profile.clone());
        let (initial, eb) = match cfg.fetch.resolved_kind() {
            GradCodecKind::ErrorBounded {
                compressor,
                error_bound,
            } => (compressor, error_bound),
            // Unreachable behind validate(); a harmless default keeps this total.
            _ => (CompressorKind::OursHybrid, 0.0),
        };
        Some(Self {
            ctl: RuntimeController::new(ctl_cfg, vec![initial; tables]),
            candidates: a.candidates.iter().map(|k| k.build()).collect(),
            eb,
            share: WindowShare::default(),
            traffic: vec![(0, 0); tables],
            probe: (0..tables)
                .map(|_| Vec::with_capacity(PROBE_ROWS * dim))
                .collect(),
            scratch: CompressScratch::new(),
            out: Vec::new(),
            blob: Vec::new(),
        })
    }

    /// Owner side: table `t`'s gathered `rows` went out as `encoded` bytes.
    fn note_payload(&mut self, t: usize, rows: &[f32], encoded: usize, dim: usize) {
        let raw = (rows.len() * 4) as u64;
        self.traffic[t].0 += raw;
        self.traffic[t].1 += encoded as u64;
        self.share.codec_bytes += raw as f64;
        // Candidate probing wants a fresh sample of live payload.
        let probe = &mut self.probe[t];
        let take = (PROBE_ROWS * dim)
            .saturating_sub(probe.len())
            .min(rows.len());
        probe.extend_from_slice(&rows[..take]);
    }

    /// Close the controller window ending before batch window `iteration`:
    /// probe the candidates on each owned table's sample (its leading weight
    /// rows when nothing was fetched), all-gather the shares, fold the
    /// identical observation on every rank, and apply the replica's switches
    /// to the codec bank.
    #[allow(clippy::too_many_arguments)]
    fn boundary(
        &mut self,
        ctx: &RankCtx,
        cfg: &ServeConfig,
        owned: &[usize],
        model: &Dlrm,
        codecs: &mut FetchCodecs,
        iteration: usize,
        send: &mut Vec<PooledBuf>,
        recv: &mut Vec<PooledBuf>,
    ) -> Reselection {
        let (eb, candidates) = (self.eb, &self.candidates);
        let (scratch, out) = (&mut self.scratch, &mut self.out);
        for &t in owned {
            let table = model.embedding(t);
            let (dim, rows) = (table.dim(), PROBE_ROWS.min(table.cardinality()));
            let sample = match self.probe[t].as_slice() {
                [] => &table.weights().as_slice()[..rows * dim],
                live => live,
            };
            let candidate_ratios = probe_candidates(candidates, sample, dim, eb, scratch, out);
            self.share.tables.push(TableObservation {
                table_id: t,
                original_bytes: self.traffic[t].0,
                compressed_bytes: self.traffic[t].1,
                candidate_ratios,
            });
        }
        self.blob.clear();
        self.share.encode_into(&mut self.blob);
        ctx.all_gather_pooled(&self.blob, send, recv);
        let (rank, candidates) = (ctx.rank(), self.candidates.len());
        let shares = recv.iter().enumerate().map(|(src, chunk)| {
            WindowShare::decode(chunk, candidates).unwrap_or_else(|e| {
                panic!("rank {rank}: malformed window share from rank {src}: {e}")
            })
        });
        // Serving has no loss to plateau on.
        let fallback = cfg.network.alltoall_bandwidth;
        let mut obs = WindowShare::fold(shares, iteration, fallback, |_, _| 0.0);
        recv.clear();
        obs.intra_bandwidth = cfg.topology.as_ref().map(|t| t.intra().alltoall_bandwidth);
        let resel = self.ctl.observe(&obs);
        for s in &resel.switches {
            codecs.set_compressor(s.table_id, s.to);
        }
        self.share = WindowShare::default();
        self.traffic.fill((0, 0));
        self.probe.iter_mut().for_each(Vec::clear);
        resel
    }
}

#[allow(clippy::too_many_lines)]
fn rank_serve(ctx: &RankCtx, setup: &Setup) -> RankOutcome {
    let cfg = &setup.cfg;
    let dataset = &setup.dataset;
    let partition = &setup.partition;
    let rank = ctx.rank();
    let world = ctx.world();
    let frontends = cfg.frontend_count();
    let is_frontend = rank < frontends;
    let tables = dataset.tables.len();
    let dim = dataset.embedding_dim;
    let windows = cfg.num_windows();

    let cost = cfg.network.cost_model();
    let tiered = cfg.topology.map(TieredCostModel::new);

    // Model shard: owned tables + MLP replica (frontends only).
    let owned: Vec<usize> = if is_frontend {
        partition.tables_of(rank).to_vec()
    } else {
        Vec::new()
    };
    let mut model = Dlrm::new_partial(
        DlrmConfig::from_dataset(dataset),
        cfg.model_seed,
        Some(&owned),
    );
    if let Some(ckpt) = &setup.checkpoint {
        restore_owned(&mut model, ckpt, &owned);
    }
    let mlp_params = model.mlp_param_count();

    let mut cache = HotRowCache::new(if is_frontend { cfg.cache_rows } else { 0 }, dim);
    let mut coalescer = BatchCoalescer::new(world);
    coalescer.reserve((cfg.window / frontends.max(1) + 1) * tables);
    let mut codecs = FetchCodecs::new(tables, cfg.fetch.resolved_kind());
    // Controller replica (identical on every rank; decisions replayed from
    // an identical all-gathered observation).
    let mut adaptation = Adaptation::new(cfg, tables, dim);

    let mut gscratch = GradScratch::new();
    let max_group_rows = cfg.window;
    let mut scratch = Scratch {
        my_ids: Vec::with_capacity(cfg.window / frontends.max(1) + 1),
        my_dense: Vec::with_capacity((cfg.window / frontends.max(1) + 1) * dataset.num_dense),
        store_keys: Vec::with_capacity(cfg.window * tables),
        store_vals: Vec::with_capacity(cfg.window * tables * dim),
        emb_bufs: (0..tables)
            .map(|_| Vec::with_capacity((cfg.window / frontends.max(1) + 1) * dim))
            .collect(),
        idx_buf: Vec::with_capacity(max_group_rows),
        owner_rows: Vec::with_capacity(max_group_rows * dim),
        dec_buf: Vec::with_capacity(max_group_rows * dim),
    };
    let mut responses: Vec<(u32, f32)> = Vec::with_capacity(cfg.requests / frontends.max(1) + 1);

    let mut local_s = vec![0.0f64; windows];
    let mut encode_s = vec![0.0f64; windows];
    let mut decode_s = vec![0.0f64; windows];
    let mut mlp_s = vec![0.0f64; windows];
    let mut req_sent = vec![0u64; windows * world];
    let mut pay_sent = vec![0u64; windows * world];
    let (mut local_rows, mut fetched_rows) = (0u64, 0u64);
    let (mut fetch_raw_bytes, mut fetch_wire_bytes, mut request_wire_bytes) = (0u64, 0u64, 0u64);
    let mut ledger = TimingLedger::new();

    let mut send: Vec<PooledBuf> = Vec::with_capacity(world);
    let mut recv: Vec<PooledBuf> = Vec::with_capacity(world);
    let mut pay_recv: Vec<PooledBuf> = Vec::with_capacity(world);

    let mut pool_mark = None;
    let mut cap_mark = 0u64;

    // Worst-case lease capacities, independent of window content, keep the
    // pool's high-water mark flat after warm-up: every frame varint at its
    // widest. The payload's follows the codec bank, which the controller may
    // switch.
    let my_req_max = cfg.window / frontends + 1;
    let req_cap = VARINT_MAX * (1 + tables * (2 + my_req_max));
    let pay_cap = |codecs: &FetchCodecs| {
        payload_chunk_capacity(
            (owned.iter()).map(|&t| codecs.max_stream_bytes(t, my_req_max * dim)),
        )
    };
    // Pre-warm the buffer pool to its in-flight high-water mark: each window
    // keeps up to two windows' worth of send buffers in flight (peers return
    // leases one exchange late), so park that many worst-case-sized buffers
    // up front. Without this the pool keeps allocating for a few windows
    // past any fixed warm-up as traffic ramps.
    let warm_big: Vec<_> = (0..4 * world)
        .map(|_| ctx.take_buf(req_cap.max(pay_cap(&codecs))))
        .collect();
    drop(warm_big);

    for w in 0..windows {
        let wstart = w * cfg.window;
        let wlen = cfg.window.min(cfg.requests - wstart);

        // --- 1. Frontend walk: classify every (request, table) pair. ---
        scratch.my_ids.clear();
        scratch.my_dense.clear();
        scratch.store_keys.clear();
        scratch.store_vals.clear();
        coalescer.clear();
        let mut local_bytes = 0u64;
        let shared = is_frontend.then(|| setup.feed.step(w, wlen));
        let batch = shared.as_deref().map(|parts| &parts[0]);
        if let Some(batch) = batch {
            for i in 0..wlen {
                if (wstart + i) % frontends != rank {
                    continue;
                }
                scratch.my_ids.push(i);
                scratch.my_dense.extend_from_slice(batch.dense.row(i));
                for t in 0..tables {
                    let row = batch.sparse[t][i];
                    let owner = partition.owner_of(t);
                    if owner == rank {
                        local_rows += 1;
                        local_bytes += (dim * 4) as u64;
                        continue;
                    }
                    if let Some(vals) = cache.get(t as u32, row) {
                        let slot = (scratch.store_vals.len() / dim) as u32;
                        scratch
                            .store_keys
                            .push((((t as u64) << 32) | row as u64, slot));
                        scratch.store_vals.extend_from_slice(vals);
                        local_bytes += (dim * 4) as u64;
                    } else {
                        coalescer.note(owner, t as u32, row);
                    }
                }
            }
        }
        coalescer.finish();

        // --- 2. Request-direction all-to-all (coalesced key lists). ---
        let pay_cap = pay_cap(&codecs);
        let mut my_wire_seconds = 0.0f64;
        for dst in 0..world {
            let rows = coalescer.rows(dst);
            let mut buf = ctx.take_buf(req_cap);
            if !rows.is_empty() {
                write_request_chunk(&mut buf, rows);
            }
            let bytes = buf.len() as u64;
            req_sent[w * world + dst] = bytes;
            request_wire_bytes += bytes;
            my_wire_seconds += pair_cost(&cost, tiered.as_ref(), rank, dst, bytes);
            send.push(buf);
        }
        ctx.all_to_all_pooled(&mut send, &mut recv);

        // --- 3. Owner side: gather, encode, frame payloads. ---
        let mut enc_seconds = 0.0f64;
        for src in 0..world {
            let mut buf = ctx.take_buf(pay_cap);
            if !recv[src].is_empty() {
                let from = ChunkOrigin {
                    rank,
                    what: "fetch request",
                    src,
                };
                let groups = from.check(request_groups(&recv[src]));
                write_varint(&mut buf, groups.remaining());
                for group in groups {
                    let group = from.check(group);
                    let t = group.table as usize;
                    if t >= tables || partition.owner_of(t) != rank {
                        from.fail(FrameError::at(group.offset, "request for an unowned table"));
                    }
                    scratch.idx_buf.clear();
                    scratch.idx_buf.extend(group.rows.iter());
                    let table = model.embedding(t);
                    let last = scratch.idx_buf.last().map_or(0, |&r| r as usize);
                    if last >= table.cardinality() {
                        from.fail(FrameError::at(
                            group.offset,
                            "request row past the table's end",
                        ));
                    }
                    table.lookup_into(&scratch.idx_buf, &mut scratch.owner_rows);
                    let raw = (scratch.owner_rows.len() * 4) as u64;
                    fetch_raw_bytes += raw;
                    let eb = codecs.kind(t).error_bound();
                    let encoded = write_payload_group(&mut buf, t, scratch.idx_buf.len(), |out| {
                        let rows = &scratch.owner_rows;
                        codecs.encode(t, rows, dim, eb, &mut gscratch, out)
                    });
                    if let Some((enc_tput, _)) = codecs.throughput(t, &cfg.profile) {
                        enc_seconds += raw as f64 / enc_tput;
                    }
                    if let Some(a) = adaptation.as_mut() {
                        a.note_payload(t, &scratch.owner_rows, encoded, dim);
                    }
                }
            }
            let bytes = buf.len() as u64;
            pay_sent[w * world + src] = bytes;
            fetch_wire_bytes += bytes;
            my_wire_seconds += pair_cost(&cost, tiered.as_ref(), rank, src, bytes);
            send.push(buf);
        }
        recv.clear();

        // --- 4. Payload-direction all-to-all. ---
        ctx.all_to_all_pooled(&mut send, &mut pay_recv);
        ledger.add_time(phases::FWD_A2A, my_wire_seconds);

        // --- 5. Frontend decode: fill the window store + cache. ---
        let mut dec_seconds = 0.0f64;
        for (src, payload) in pay_recv.iter().enumerate() {
            let keys = coalescer.rows(src);
            if keys.is_empty() && payload.is_empty() {
                continue;
            }
            let from = ChunkOrigin {
                rank,
                what: "fetch payload",
                src,
            };
            let mut cursor = 0usize;
            for group in from.check(payload_groups(payload)) {
                let group = from.check(group);
                let answered = from.check(answered(&group, keys, cursor));
                let (t, n) = (group.table as usize, answered.len());
                let out = &mut scratch.dec_buf;
                out.clear();
                if codecs
                    .decode(t, group.stream, n * dim, &mut gscratch, out)
                    .is_err()
                {
                    from.fail(FrameError::at(
                        group.offset,
                        "stream does not decode to rows × dim",
                    ));
                }
                for (&(kt, row), vals) in answered.iter().zip(scratch.dec_buf.chunks_exact(dim)) {
                    let slot = (scratch.store_vals.len() / dim) as u32;
                    scratch
                        .store_keys
                        .push((((kt as u64) << 32) | row as u64, slot));
                    scratch.store_vals.extend_from_slice(vals);
                    cache.insert(kt, row, vals);
                }
                cursor += n;
                fetched_rows += n as u64;
                if let Some((_, dec_tput)) = codecs.throughput(t, &cfg.profile) {
                    dec_seconds += (n * dim * 4) as f64 / dec_tput;
                }
            }
            if cursor != keys.len() {
                from.fail(FrameError::at(
                    payload.len(),
                    "payload answers fewer rows than requested",
                ));
            }
        }
        pay_recv.clear();
        scratch.store_keys.sort_unstable();
        scratch.store_keys.dedup_by_key(|&mut (k, _)| k);

        // --- 6. Response assembly + MLP forward. ---
        let nreq = scratch.my_ids.len();
        if let Some(batch) = batch {
            if nreq > 0 {
                let mut embs: Vec<Matrix> = Vec::with_capacity(tables);
                for t in 0..tables {
                    let mut buf = std::mem::take(&mut scratch.emb_bufs[t]);
                    buf.clear();
                    let owner = partition.owner_of(t);
                    for &i in &scratch.my_ids {
                        let row = batch.sparse[t][i];
                        if owner == rank {
                            buf.extend_from_slice(model.embedding(t).weights().row(row as usize));
                        } else {
                            let key = ((t as u64) << 32) | row as u64;
                            let at = scratch
                                .store_keys
                                .binary_search_by_key(&key, |&(k, _)| k)
                                .expect("remote row present in window store");
                            let slot = scratch.store_keys[at].1 as usize;
                            buf.extend_from_slice(
                                &scratch.store_vals[slot * dim..(slot + 1) * dim],
                            );
                        }
                    }
                    local_bytes += (buf.len() * 4) as u64;
                    embs.push(Matrix::from_vec(nreq, dim, buf));
                }
                let dense = Matrix::from_vec(
                    nreq,
                    dataset.num_dense,
                    std::mem::take(&mut scratch.my_dense),
                );
                let fwd = model.forward_dense(&dense, &embs);
                for (j, &i) in scratch.my_ids.iter().enumerate() {
                    responses.push(((wstart + i) as u32, fwd.logits[j]));
                }
                mlp_s[w] = nreq as f64 * 2.0 * mlp_params as f64 / cfg.mlp_flops;
                scratch.my_dense = dense.into_vec();
                for (t, m) in embs.into_iter().enumerate() {
                    scratch.emb_bufs[t] = m.into_vec();
                }
            }
        }
        local_s[w] = local_bytes as f64 / cfg.host_gather_bandwidth;
        encode_s[w] = enc_seconds;
        decode_s[w] = dec_seconds;
        ledger.add_time(phases::LOOKUP, local_s[w]);
        ledger.add_time(phases::FWD_COMPRESS, enc_seconds);
        ledger.add_time(phases::FWD_DECOMPRESS, dec_seconds);
        ledger.add_time(phases::MLP_FWD, mlp_s[w]);

        // --- 7. Controller window: this window's wire and encode totals,
        // then the boundary (off the request latency path). ---
        if let Some(a) = adaptation.as_mut() {
            let sent = w * world..(w + 1) * world;
            let bytes: u64 = req_sent[sent.clone()].iter().chain(&pay_sent[sent]).sum();
            a.share.wire_bytes += bytes as f64;
            a.share.wire_seconds += my_wire_seconds;
            a.share.codec_seconds += enc_seconds;
            if (w + 1) % a.ctl.config().window == 0 {
                let resel = a.boundary(
                    ctx,
                    cfg,
                    &owned,
                    &model,
                    &mut codecs,
                    w + 1,
                    &mut send,
                    &mut recv,
                );
                if !resel.switches.is_empty() {
                    cache.clear();
                }
            }
        }

        if w + 1 == cfg.warmup_windows {
            pool_mark = Some(ctx.pool().stats());
            cap_mark = scratch.capacity_bytes()
                + (coalescer.capacity_entries() * 8) as u64
                + (responses.capacity() * 8) as u64;
        }
    }

    let steady_alloc = match pool_mark {
        Some(mark) => {
            let cap_now = scratch.capacity_bytes()
                + (coalescer.capacity_entries() * 8) as u64
                + (responses.capacity() * 8) as u64;
            ctx.pool().stats().since(&mark).allocated_bytes + (cap_now - cap_mark)
        }
        None => 0,
    };

    RankOutcome {
        responses,
        local_s,
        encode_s,
        decode_s,
        mlp_s,
        req_sent,
        pay_sent,
        hits: cache.hits(),
        misses: cache.misses(),
        evictions: cache.evictions(),
        rejections: cache.rejections(),
        flushes: cache.flushes(),
        local_rows,
        fetched_rows,
        fetch_raw_bytes,
        fetch_wire_bytes,
        request_wire_bytes,
        reselections: adaptation.map_or_else(Vec::new, |a| a.ctl.log().to_vec()),
        final_codecs: (0..tables).map(|t| codecs.kind(t).label()).collect(),
        steady_alloc,
        ledger,
    }
}

fn merge(
    setup: &Setup,
    outcomes: Vec<RankOutcome>,
    wall_seconds: f64,
    from_checkpoint: bool,
    provenance: Option<String>,
) -> ServingReport {
    let cfg = &setup.cfg;
    let world = cfg.world;
    let windows = cfg.num_windows();
    let cost = cfg.network.cost_model();
    let tiered = cfg.topology.map(TieredCostModel::new);

    // The controller replicas must have replayed identical decisions.
    for o in &outcomes[1..] {
        assert_eq!(
            o.reselections, outcomes[0].reselections,
            "controller replicas diverged across ranks"
        );
        assert_eq!(
            o.final_codecs, outcomes[0].final_codecs,
            "codec banks diverged across ranks"
        );
    }

    // Per-window processing time: the slowest rank of each serial stage plus
    // the slowest rank's wire time of each all-to-all.
    let mut proc = Vec::with_capacity(windows);
    for w in 0..windows {
        let stage_max =
            |f: &dyn Fn(&RankOutcome) -> f64| outcomes.iter().map(f).fold(0.0f64, f64::max);
        let wire_max = |sent: &dyn Fn(&RankOutcome) -> Vec<u64>| {
            outcomes
                .iter()
                .enumerate()
                .map(|(src, o)| {
                    let row = sent(o);
                    (0..world)
                        .map(|dst| pair_cost(&cost, tiered.as_ref(), src, dst, row[dst]))
                        .sum::<f64>()
                })
                .fold(0.0f64, f64::max)
        };
        let local = stage_max(&|o: &RankOutcome| o.local_s[w]);
        let enc = stage_max(&|o: &RankOutcome| o.encode_s[w]);
        let tail = stage_max(&|o: &RankOutcome| o.decode_s[w] + o.mlp_s[w]);
        let reqw = wire_max(&|o: &RankOutcome| o.req_sent[w * world..(w + 1) * world].to_vec());
        let payw = wire_max(&|o: &RankOutcome| o.pay_sent[w * world..(w + 1) * world].to_vec());
        proc.push(local + reqw + enc + payw + tail);
    }

    let tl = timeline(cfg.requests, cfg.window, cfg.arrival_qps, &proc);
    let mut sorted = tl.latencies.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50_ms = percentile(&sorted, 0.50) * 1e3;
    let p99_ms = percentile(&sorted, 0.99) * 1e3;
    let mean_ms = sorted.iter().sum::<f64>() / sorted.len() as f64 * 1e3;
    let max_ms = sorted.last().copied().unwrap_or(0.0) * 1e3;

    // Responses: every request answered exactly once, request order.
    let mut tagged: Vec<(u32, f32)> = outcomes.iter().flat_map(|o| o.responses.clone()).collect();
    tagged.sort_unstable_by_key(|&(gid, _)| gid);
    assert_eq!(tagged.len(), cfg.requests, "response count mismatch");
    for (expect, &(gid, _)) in tagged.iter().enumerate() {
        assert_eq!(gid as usize, expect, "request {expect} unanswered");
    }
    let responses: Vec<f32> = tagged.into_iter().map(|(_, v)| v).collect();

    let sum = |f: &dyn Fn(&RankOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    let cache_hits = sum(&|o: &RankOutcome| o.hits);
    let cache_misses = sum(&|o: &RankOutcome| o.misses);
    let cache_evictions = sum(&|o: &RankOutcome| o.evictions);
    let cache_rejections = sum(&|o: &RankOutcome| o.rejections);
    let cache_flushes = sum(&|o: &RankOutcome| o.flushes);
    let local_rows = sum(&|o: &RankOutcome| o.local_rows);
    let fetched_rows = sum(&|o: &RankOutcome| o.fetched_rows);
    let fetch_raw_bytes = sum(&|o: &RankOutcome| o.fetch_raw_bytes);
    let fetch_wire_bytes = sum(&|o: &RankOutcome| o.fetch_wire_bytes);
    let request_wire_bytes = sum(&|o: &RankOutcome| o.request_wire_bytes);
    let steady = sum(&|o: &RankOutcome| o.steady_alloc);

    let mut ledger = TimingLedger::new();
    for o in &outcomes {
        ledger.merge_sum(&o.ledger);
    }

    let reselections = outcomes[0].reselections.clone();
    let codec_switches = reselections.iter().map(|r| r.switches.len()).sum();

    ServingReport {
        dataset: setup.dataset.name.clone(),
        world,
        frontends: cfg.frontend_count(),
        requests: cfg.requests,
        window: cfg.window,
        windows,
        cache_rows: cfg.cache_rows,
        fetch: cfg.fetch.label(),
        executor: cfg.executor.label().to_string(),
        arrival_qps: cfg.arrival_qps,
        modeled_seconds: tl.makespan,
        modeled_qps: cfg.requests as f64 / tl.makespan,
        wall_seconds,
        wall_qps: cfg.requests as f64 / wall_seconds.max(1e-12),
        p50_ms,
        p99_ms,
        mean_ms,
        max_ms,
        cache_hits,
        cache_misses,
        cache_evictions,
        cache_rejections,
        cache_flushes,
        hit_rate: if cache_hits + cache_misses > 0 {
            cache_hits as f64 / (cache_hits + cache_misses) as f64
        } else {
            0.0
        },
        local_rows,
        fetched_rows,
        fetch_raw_bytes,
        fetch_wire_bytes,
        request_wire_bytes,
        fetch_ratio: if fetch_wire_bytes > 0 {
            fetch_raw_bytes as f64 / fetch_wire_bytes as f64
        } else {
            1.0
        },
        reselections,
        codec_switches,
        final_codecs: outcomes[0].final_codecs.clone(),
        steady_state_allocated_bytes: steady,
        phase_seconds: ledger.phases(),
        responses,
        from_checkpoint,
        provenance,
    }
}
