//! The SPMD serving engine.
//!
//! One executor rank per serving process. Ranks `0..frontends` each own a
//! shard of the embedding tables ([`TablePartition::greedy`] over
//! cardinalities) plus a full MLP replica; ranks beyond the partition (when
//! `world > frontends`) own nothing and serve no traffic, so every modeled
//! number is a pure function of the partition — the cross-world determinism
//! regression pins exactly that.
//!
//! ## One batch window
//!
//! 1. Every frontend takes the window's request batch from the cluster's one
//!    [`BatchFeed`] (the first to ask draws it, the rest share it) and walks
//!    its own slice (`request_id % frontends == rank`): rows on the local
//!    shard are gathered directly from the trained weights, remote rows
//!    probe the hot-row LRU, and misses fall into the per-owner
//!    [`BatchCoalescer`].
//! 2. The coalesced key lists ride one variable all-to-all (request
//!    direction), owners gather + encode each table's rows into a single
//!    codec stream, and the payloads ride a second all-to-all back.
//! 3. Frontends decode, fill the cache, assemble per-request embedding
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
//! runs a replica of the PR 5 [`RuntimeController`] fed by an identical,
//! all-gathered [`WindowObservation`] built from live fetch traffic, and
//! applies the same per-table codec switches — off the request latency path.
//! A switch flushes the hot-row cache so stale-codec rows never resurface.

use std::sync::Arc;

use dlrm_adaptive::{
    ControllerConfig, PlateauEbControl, Reselection, RuntimeController, TableObservation,
    WindowObservation,
};
use dlrm_ckpt::Checkpoint;
use dlrm_comm::cluster::RankCtx;
use dlrm_comm::phase as phases;
use dlrm_comm::pool::PooledBuf;
use dlrm_comm::topology::TieredCostModel;
use dlrm_comm::{CostModel, TimingLedger, WirePolicy};
use dlrm_compress::{CompressScratch, Compressor, CompressorKind};
use dlrm_data::{BatchFeed, DatasetConfig};
use dlrm_exec::Executor;
use dlrm_grad::{GradCodecKind, GradScratch};
use dlrm_model::{Dlrm, DlrmConfig};
use dlrm_tensor::Matrix;
use dlrm_trainer::TablePartition;

use crate::cache::HotRowCache;
use crate::coalesce::BatchCoalescer;
use crate::config::{FetchSetting, ServeConfig};
use crate::fetch::{
    codec_throughput, payload_groups, request_groups, write_payload_group, write_request_group,
    FetchCodecs,
};
use crate::latency::{percentile, timeline};
use crate::report::ServingReport;
use crate::snapshot::restore_owned;

/// Rows of live payload sampled per owned table per observation window for
/// candidate-codec probing.
const PROBE_ROWS: usize = 32;

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
        None => cost.p2p_time(bytes as usize),
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
    /// Owner-side encoded stream.
    enc_buf: Vec<u8>,
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
            + self.enc_buf.capacity()
            + self.dec_buf.capacity() * 4) as u64
    }
}

/// Per-observation-window accumulators feeding the runtime controller.
struct CtlAccum {
    /// Per-table `(original, compressed)` fetch bytes this window.
    orig: Vec<u64>,
    comp: Vec<u64>,
    /// Per-table probe sample of live payload rows (owner side).
    probe: Vec<Vec<f32>>,
    wire_bytes: u64,
    wire_seconds: f64,
    enc_raw: u64,
    enc_seconds: f64,
    hits: u64,
    probes: u64,
}

impl CtlAccum {
    fn new(tables: usize, dim: usize) -> Self {
        Self {
            orig: vec![0; tables],
            comp: vec![0; tables],
            probe: (0..tables)
                .map(|_| Vec::with_capacity(PROBE_ROWS * dim))
                .collect(),
            wire_bytes: 0,
            wire_seconds: 0.0,
            enc_raw: 0,
            enc_seconds: 0.0,
            hits: 0,
            probes: 0,
        }
    }

    fn reset(&mut self) {
        self.orig.iter_mut().for_each(|v| *v = 0);
        self.comp.iter_mut().for_each(|v| *v = 0);
        self.probe.iter_mut().for_each(Vec::clear);
        self.wire_bytes = 0;
        self.wire_seconds = 0.0;
        self.enc_raw = 0;
        self.enc_seconds = 0.0;
        self.hits = 0;
        self.probes = 0;
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
    let base_eb = match cfg.fetch.resolved_kind() {
        GradCodecKind::ErrorBounded { error_bound, .. }
        | GradCodecKind::Lattice { error_bound } => error_bound,
        _ => 0.0,
    };

    // Controller replica (identical on every rank; decisions replayed from
    // an identical all-gathered observation).
    let mut controller = cfg.adaptive.as_ref().map(|a| {
        let mut ctl_cfg = ControllerConfig::new(a.window, a.hysteresis)
            .with_candidates(a.candidates.clone())
            .with_profile(cfg.profile.clone());
        if a.eb_control {
            ctl_cfg = ctl_cfg.with_eb_control(PlateauEbControl::default());
        }
        let initial = match cfg.fetch.resolved_kind() {
            GradCodecKind::ErrorBounded { compressor, .. } => compressor,
            // Unreachable behind validate(); a harmless default keeps this total.
            _ => CompressorKind::OursHybrid,
        };
        RuntimeController::new(ctl_cfg, vec![initial; tables])
    });
    let candidates: Vec<Box<dyn Compressor>> = cfg
        .adaptive
        .as_ref()
        .map(|a| a.candidates.iter().map(|k| k.build()).collect())
        .unwrap_or_default();
    let mut probe_scratch = CompressScratch::new();
    let mut probe_out: Vec<u8> = Vec::new();
    let mut accum = CtlAccum::new(tables, dim);
    let mut reselections: Vec<Reselection> = Vec::new();

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
        enc_buf: Vec::with_capacity(codecs.max_encoded_bytes(0, max_group_rows * dim)),
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
    let mut records: Vec<(usize, u32)> = Vec::with_capacity(world);
    let tags = vec![0u32; world];

    let mut pool_mark = None;
    let mut cap_mark = 0u64;

    // Pre-warm the buffer pool to its in-flight high-water mark: each window
    // keeps up to two windows' worth of send buffers in flight (peers return
    // leases one exchange late), so park that many worst-case-sized buffers
    // up front. Without this the pool keeps allocating for a few windows
    // past any fixed warm-up as traffic ramps.
    {
        let my_req_max = cfg.window / frontends + 1;
        let req_cap = 4 + tables * (8 + my_req_max * 4);
        let pay_cap = 4 + owned
            .iter()
            .map(|&t| 12 + codecs.max_encoded_bytes(t, my_req_max * dim))
            .sum::<usize>();
        let warm_big: Vec<_> = (0..4 * world)
            .map(|_| ctx.take_buf(req_cap.max(pay_cap)))
            .collect();
        let warm_meta: Vec<_> = (0..4 * world)
            .map(|_| ctx.take_buf(dlrm_comm::cluster::METADATA_RECORD_BYTES))
            .collect();
        drop(warm_meta);
        drop(warm_big);
    }

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
                    accum.probes += 1;
                    if let Some(vals) = cache.get(t as u32, row) {
                        accum.hits += 1;
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
        // Fixed worst-case buffer capacities (independent of window content)
        // keep the pool's high-water mark flat after warm-up.
        let my_req_max = cfg.window / frontends + 1;
        let req_cap = 4 + tables * (8 + my_req_max * 4);
        let pay_cap = 4 + owned
            .iter()
            .map(|&t| 12 + codecs.max_encoded_bytes(t, my_req_max * dim))
            .sum::<usize>();
        let mut my_wire_seconds = 0.0f64;
        for dst in 0..world {
            let rows = coalescer.rows(dst);
            let mut buf = ctx.take_buf(req_cap);
            if !rows.is_empty() {
                buf.extend_from_slice(&[0u8; 4]);
                let mut groups = 0u32;
                let mut at = 0;
                while at < rows.len() {
                    let t = rows[at].0;
                    let mut end = at + 1;
                    while end < rows.len() && rows[end].0 == t {
                        end += 1;
                    }
                    scratch.idx_buf.clear();
                    scratch
                        .idx_buf
                        .extend(rows[at..end].iter().map(|&(_, r)| r));
                    write_request_group(&mut buf, t, &scratch.idx_buf);
                    groups += 1;
                    at = end;
                }
                buf[0..4].copy_from_slice(&groups.to_le_bytes());
            }
            let bytes = buf.len() as u64;
            req_sent[w * world + dst] = bytes;
            request_wire_bytes += bytes;
            my_wire_seconds += pair_cost(&cost, tiered.as_ref(), rank, dst, bytes);
            accum.wire_bytes += bytes;
            send.push(buf);
        }
        ctx.all_to_all_var_pooled(&mut send, &mut recv, &tags, &mut records);
        send.clear();

        // --- 3. Owner side: gather, encode, frame payloads. ---
        let mut enc_seconds = 0.0f64;
        for src in 0..world {
            let mut buf = ctx.take_buf(pay_cap);
            if records[src].0 > 0 {
                buf.extend_from_slice(&[0u8; 4]);
                let mut groups = 0u32;
                for (t_u32, req_rows) in request_groups(&recv[src]) {
                    let t = t_u32 as usize;
                    scratch.idx_buf.clear();
                    scratch.idx_buf.extend(req_rows.iter());
                    model
                        .embedding(t)
                        .lookup_into(&scratch.idx_buf, &mut scratch.owner_rows);
                    let raw = (scratch.owner_rows.len() * 4) as u64;
                    fetch_raw_bytes += raw;
                    scratch.enc_buf.clear();
                    codecs.codec(t).encode_into(
                        &scratch.owner_rows,
                        &mut gscratch,
                        &mut scratch.enc_buf,
                    );
                    write_payload_group(
                        &mut buf,
                        t_u32,
                        scratch.idx_buf.len() as u32,
                        &scratch.enc_buf,
                    );
                    groups += 1;
                    accum.orig[t] += raw;
                    accum.comp[t] += scratch.enc_buf.len() as u64;
                    accum.enc_raw += raw;
                    let (enc_tput, _) = codec_throughput(codecs.kind(t), &cfg.profile);
                    if enc_tput.is_finite() {
                        enc_seconds += raw as f64 / enc_tput;
                    }
                    // Candidate probing wants a fresh sample of live payload.
                    let probe = &mut accum.probe[t];
                    if probe.len() < PROBE_ROWS * dim {
                        let take = (PROBE_ROWS * dim - probe.len()).min(scratch.owner_rows.len());
                        probe.extend_from_slice(&scratch.owner_rows[..take]);
                    }
                }
                buf[0..4].copy_from_slice(&groups.to_le_bytes());
            }
            let bytes = buf.len() as u64;
            pay_sent[w * world + src] = bytes;
            fetch_wire_bytes += bytes;
            my_wire_seconds += pair_cost(&cost, tiered.as_ref(), rank, src, bytes);
            accum.wire_bytes += bytes;
            send.push(buf);
        }
        recv.clear();
        accum.enc_seconds += enc_seconds;

        // --- 4. Payload-direction all-to-all. ---
        ctx.all_to_all_var_pooled(&mut send, &mut pay_recv, &tags, &mut records);
        send.clear();
        accum.wire_seconds += my_wire_seconds;
        ledger.add_time(phases::FWD_A2A, my_wire_seconds);

        // --- 5. Frontend decode: fill the window store + cache. ---
        let mut dec_seconds = 0.0f64;
        for src in 0..world {
            if records[src].0 == 0 {
                continue;
            }
            let keys = coalescer.rows(src);
            let mut cursor = 0usize;
            for (t_u32, n, stream) in payload_groups(&pay_recv[src]) {
                let t = t_u32 as usize;
                let n = n as usize;
                scratch.dec_buf.clear();
                codecs
                    .codec(t)
                    .decode_into(stream, &mut gscratch, &mut scratch.dec_buf)
                    .expect("fetch payload decodes");
                debug_assert_eq!(scratch.dec_buf.len(), n * dim);
                for k in 0..n {
                    let (kt, row) = keys[cursor + k];
                    debug_assert_eq!(kt, t_u32);
                    let vals = &scratch.dec_buf[k * dim..(k + 1) * dim];
                    let slot = (scratch.store_vals.len() / dim) as u32;
                    scratch
                        .store_keys
                        .push((((kt as u64) << 32) | row as u64, slot));
                    scratch.store_vals.extend_from_slice(vals);
                    cache.insert(kt, row, vals);
                }
                cursor += n;
                fetched_rows += n as u64;
                let (_, dec_tput) = codec_throughput(codecs.kind(t), &cfg.profile);
                if dec_tput.is_finite() {
                    dec_seconds += (n * dim * 4) as f64 / dec_tput;
                }
            }
            debug_assert_eq!(cursor, keys.len());
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

        // --- 7. Controller boundary (off the request latency path). ---
        if let (Some(ctl), Some(adaptive)) = (controller.as_mut(), cfg.adaptive.as_ref()) {
            if (w + 1) % adaptive.window == 0 {
                let resel = observe_boundary(
                    ctx,
                    cfg,
                    &owned,
                    ctl,
                    &mut accum,
                    &candidates,
                    &mut probe_scratch,
                    &mut probe_out,
                    base_eb,
                    w + 1,
                    &mut codecs,
                    &model,
                    dim,
                );
                if !resel.switches.is_empty() {
                    cache.clear();
                }
                reselections.push(resel);
                accum.reset();
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
        local_rows,
        fetched_rows,
        fetch_raw_bytes,
        fetch_wire_bytes,
        request_wire_bytes,
        reselections,
        final_codecs: (0..tables).map(|t| codecs.kind(t).label()).collect(),
        steady_alloc,
        ledger,
    }
}

/// One controller observation boundary: all-gather per-rank traffic
/// statistics, assemble the identical [`WindowObservation`] on every rank,
/// feed the controller replica, and apply its switches to the codec bank.
#[allow(clippy::too_many_arguments)]
fn observe_boundary(
    ctx: &RankCtx,
    cfg: &ServeConfig,
    owned: &[usize],
    ctl: &mut RuntimeController,
    accum: &mut CtlAccum,
    candidates: &[Box<dyn Compressor>],
    probe_scratch: &mut CompressScratch,
    probe_out: &mut Vec<u8>,
    base_eb: f32,
    iteration: usize,
    codecs: &mut FetchCodecs,
    model: &Dlrm,
    dim: usize,
) -> Reselection {
    // Per-rank blob: owned-table stats + this rank's wire/encode/cache
    // contributions. Fixed little-endian framing, rank order via all-gather.
    let eb = base_eb * ctl.eb_scale();
    let mut blob: Vec<u8> = Vec::with_capacity(64 + owned.len() * (20 + candidates.len() * 8));
    blob.extend_from_slice(&(owned.len() as u32).to_le_bytes());
    for &t in owned {
        blob.extend_from_slice(&(t as u32).to_le_bytes());
        blob.extend_from_slice(&accum.orig[t].to_le_bytes());
        blob.extend_from_slice(&accum.comp[t].to_le_bytes());
        // Candidate ratios on a fresh probe of live payload (falling back to
        // the table's own leading rows when nothing was fetched).
        let probe: &[f32] = if accum.probe[t].is_empty() {
            let card = model.embedding(t).cardinality();
            let take = PROBE_ROWS.min(card) * dim;
            &model.embedding(t).weights().as_slice()[..take]
        } else {
            &accum.probe[t]
        };
        for cand in candidates {
            probe_out.clear();
            cand.compress_into(probe, dim, eb, probe_scratch, probe_out)
                .expect("candidate probe compresses");
            let ratio = (probe.len() * 4) as f64 / probe_out.len().max(1) as f64;
            blob.extend_from_slice(&ratio.to_le_bytes());
        }
    }
    blob.extend_from_slice(&accum.wire_bytes.to_le_bytes());
    blob.extend_from_slice(&accum.wire_seconds.to_le_bytes());
    blob.extend_from_slice(&accum.enc_raw.to_le_bytes());
    blob.extend_from_slice(&accum.enc_seconds.to_le_bytes());
    blob.extend_from_slice(&accum.hits.to_le_bytes());
    blob.extend_from_slice(&accum.probes.to_le_bytes());

    let (chunks, _) = ctx.all_gather_bytes(blob);

    let mut tables: Vec<TableObservation> = Vec::new();
    let (mut wire_bytes, mut wire_seconds) = (0u64, 0.0f64);
    let (mut enc_raw, mut enc_seconds) = (0u64, 0.0f64);
    let (mut hits, mut probes) = (0u64, 0u64);
    for chunk in &chunks {
        let mut at = 0usize;
        let read_u32 = |b: &[u8], at: &mut usize| {
            let v = u32::from_le_bytes(b[*at..*at + 4].try_into().expect("u32"));
            *at += 4;
            v
        };
        let read_u64 = |b: &[u8], at: &mut usize| {
            let v = u64::from_le_bytes(b[*at..*at + 8].try_into().expect("u64"));
            *at += 8;
            v
        };
        let read_f64 = |b: &[u8], at: &mut usize| f64::from_bits(read_u64(b, at));
        let n = read_u32(chunk, &mut at) as usize;
        for _ in 0..n {
            let table_id = read_u32(chunk, &mut at) as usize;
            let original_bytes = read_u64(chunk, &mut at);
            let compressed_bytes = read_u64(chunk, &mut at);
            let candidate_ratios = (0..candidates.len())
                .map(|_| read_f64(chunk, &mut at))
                .collect();
            tables.push(TableObservation {
                table_id,
                original_bytes,
                compressed_bytes,
                candidate_ratios,
            });
        }
        wire_bytes += read_u64(chunk, &mut at);
        wire_seconds += read_f64(chunk, &mut at);
        enc_raw += read_u64(chunk, &mut at);
        enc_seconds += read_f64(chunk, &mut at);
        hits += read_u64(chunk, &mut at);
        probes += read_u64(chunk, &mut at);
    }
    tables.sort_by_key(|t| t.table_id);

    let effective_bandwidth = if wire_seconds > 0.0 {
        wire_bytes as f64 / wire_seconds
    } else {
        cfg.network.alltoall_bandwidth
    };
    let eb_control = cfg.adaptive.as_ref().is_some_and(|a| a.eb_control);
    let mean_loss = if eb_control && probes > 0 {
        1.0 - hits as f64 / probes as f64
    } else {
        0.0
    };
    let obs = WindowObservation {
        iteration,
        effective_bandwidth,
        intra_bandwidth: cfg.topology.as_ref().map(|t| t.intra().alltoall_bandwidth),
        mean_loss,
        measured_compress_throughput: if enc_seconds > 0.0 {
            enc_raw as f64 / enc_seconds
        } else {
            0.0
        },
        tables,
    };
    let resel = ctl.observe(&obs);
    let new_eb = base_eb * ctl.eb_scale();
    for s in &resel.switches {
        codecs.set_compressor(s.table_id, s.to, new_eb);
    }
    resel
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

/// True when `fetch` resolves to a lossy codec (test/reporting helper).
pub fn is_lossy(fetch: &FetchSetting) -> bool {
    !matches!(fetch.resolved_kind(), GradCodecKind::Identity)
}
