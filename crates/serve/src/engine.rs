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
//! `ServeRank::new` builds what the windows reuse, `ServeRank::window`
//! runs one window as six steps and `ServeRank::finish` closes the run.
//!
//! 1. **walk**: every frontend takes the window's request batch from the
//!    cluster's one [`BatchFeed`] (the first to ask draws it, the rest share
//!    it) and walks its own slice (`request_id % frontends == rank`): rows on
//!    the local shard are gathered directly from the trained weights, remote
//!    rows probe the hot-row cache, and misses fall into the per-owner
//!    [`BatchCoalescer`]. The draw is the window's serial stage: one
//!    frontend draws the whole batch under the feed's mutex while the others
//!    wait for it, so its cost lands on every window's wall time.
//! 2. **request**: the coalesced key lists ride one variable all-to-all.
//! 3. **answer**: owners gather + encode each table's rows into a single
//!    codec stream of `dim`-wide rows, and the payloads ride a second
//!    all-to-all back, both in the varint frames of [`crate::fetch`]. A
//!    chunk that does not parse, or a payload group that does not answer
//!    its request, is one panic naming the rank, the sender and the byte
//!    offset.
//! 4. **receive**: frontends decode and offer the rows to the cache (its
//!    admission gate keeps a row only if it is hit more often than the row
//!    it would evict).
//! 5. **respond**: frontends assemble per-request embedding matrices (local
//!    weights, cache hits and fresh decodes are all the same pure function
//!    of the codec, so caching never changes a response bit) and run the
//!    dense MLP for the CTR logits.
//! 6. **boundary**: with adaptation on, a controller window may close.
//!
//! ## Modeled time
//!
//! Per-window processing time is assembled at merge from per-rank analytic
//! charges — host gathers at [`ServeConfig::host_gather_bandwidth`], codec
//! work at the [`CodecProfile`](dlrm_adaptive::CodecProfile) throughputs,
//! wire bytes through the flat α–β model or the tiered topology model, MLP
//! flops at [`ServeConfig::mlp_flops`] — never from wall clocks, which is why
//! sequential and threaded execution produce bit-identical reports. Each
//! rank ships one `WindowCharges` per window; the window times then drive
//! the queueing [`timeline`](crate::latency::timeline()) that yields
//! per-request latencies and the p50/p99 tail.
//!
//! ## Adaptation
//!
//! With [`ServeAdaptive`](crate::config::ServeAdaptive) enabled, every rank
//! runs the trainer's [`ControllerReplica`] over its fetch codec bank, off
//! the request latency path. Owners sample live payload rows and count each
//! table's fetch traffic; at each controller window boundary a rank probes
//! the candidate codecs on its samples, fills its
//! [`WindowShare`](dlrm_adaptive::WindowShare) and closes the replica's
//! window, which all-gathers the shares and applies the identical switches
//! on every rank. A switch flushes the hot-row cache so stale-codec rows
//! never resurface. Without adaptation no window state is kept at all.

use std::sync::Arc;

use dlrm_adaptive::{ControllerConfig, Reselection, TableObservation, PROBE_ROWS};
use dlrm_ckpt::Checkpoint;
use dlrm_comm::cluster::RankCtx;
use dlrm_comm::frame::{
    payload_chunk_capacity, payload_groups, write_payload_group, write_varint, ChunkOrigin,
    FrameError, VARINT_MAX,
};
use dlrm_comm::phase as phases;
use dlrm_comm::pool::{PoolStats, PooledBuf};
use dlrm_comm::topology::TieredCostModel;
use dlrm_comm::{CostModel, Link, TimingLedger, WirePolicy};
use dlrm_data::{BatchFeed, DatasetConfig, MiniBatch};
use dlrm_exec::Executor;
use dlrm_grad::{ControllerReplica, GradScratch};
use dlrm_model::{Dlrm, DlrmConfig};
use dlrm_tensor::Matrix;
use dlrm_trainer::pipeline::restore_model;
use dlrm_trainer::TablePartition;

use crate::cache::HotRowCache;
use crate::coalesce::BatchCoalescer;
use crate::config::ServeConfig;
use crate::fetch::{answered, request_groups, write_request_chunk, FetchCodecs};
use crate::latency::{percentile, timeline};
use crate::report::ServingReport;

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

/// One rank's modeled seconds for one batch window: host gathers (local
/// lookups, cache hits and response assembly), each direction's wire
/// summed over destinations in rank order, owner-side encode,
/// frontend-side decode and the MLP forward.
#[derive(Clone, Copy, Default)]
struct WindowCharges {
    local: f64,
    request_wire: f64,
    encode: f64,
    payload_wire: f64,
    decode: f64,
    mlp: f64,
}

/// Everything one rank hands back to the merge step. All charges are
/// analytic (bytes over modeled throughput) — never wall-clock — so the
/// merged report is independent of executor mode.
#[derive(Default)]
struct RankOutcome {
    /// `(request id, logit)` for the requests this frontend answered.
    responses: Vec<(u32, f32)>,
    /// One entry per batch window.
    windows: Vec<WindowCharges>,
    /// The hot-row cache, for its hit, miss, eviction, rejection and flush
    /// counters.
    cache: Option<HotRowCache>,
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
    /// Add a remote row (a cache hit or a fresh decode) to the window store.
    fn store(&mut self, table: u32, row: u32, vals: &[f32]) {
        let slot = (self.store_vals.len() / vals.len()) as u32;
        (self.store_keys).push((((table as u64) << 32) | row as u64, slot));
        self.store_vals.extend_from_slice(vals);
    }
}

/// One rank's controller replica and what serving feeds it: each owned
/// table's fetch traffic and a sample of its live payload rows over the
/// open window. `None` without [`ServeConfig::adaptive`], so a plain run
/// accumulates nothing.
struct Controller {
    replica: ControllerReplica,
    /// Per-table `(original, compressed)` fetch bytes this window.
    traffic: Vec<(u64, u64)>,
    /// Per-table probe sample of live payload rows (owner side).
    sample: Vec<Vec<f32>>,
    /// Reused probe output.
    out: Vec<u8>,
}

impl Controller {
    fn new(cfg: &ServeConfig, codecs: &FetchCodecs, dim: usize) -> Option<Self> {
        let a = cfg.adaptive.as_ref()?;
        let ctl_cfg = ControllerConfig::new(a.window, a.hysteresis)
            .with_candidates(a.candidates.clone())
            .with_profile(cfg.profile.clone());
        let tables = codecs.tables();
        Some(Self {
            replica: ControllerReplica::new(ctl_cfg, codecs, cfg.world),
            traffic: vec![(0, 0); tables],
            sample: (0..tables)
                .map(|_| Vec::with_capacity(PROBE_ROWS * dim))
                .collect(),
            out: Vec::new(),
        })
    }

    /// Owner side: table `t`'s gathered `rows` went out as `encoded` bytes.
    fn note_payload(&mut self, t: usize, rows: &[f32], encoded: usize, dim: usize) {
        let raw = (rows.len() * 4) as u64;
        self.traffic[t].0 += raw;
        self.traffic[t].1 += encoded as u64;
        self.replica.share.codec_bytes += raw as f64;
        // Candidate probing wants a fresh sample of live payload.
        let sample = &mut self.sample[t];
        let take = (PROBE_ROWS * dim)
            .saturating_sub(sample.len())
            .min(rows.len());
        sample.extend_from_slice(&rows[..take]);
    }
}

/// One rank's serving state: built once by [`ServeRank::new`], advanced one
/// batch window at a time by [`ServeRank::window`] and closed by
/// [`ServeRank::finish`]. Counters and charges accumulate straight into the
/// outcome.
struct ServeRank<'a> {
    ctx: &'a RankCtx,
    setup: &'a Setup,
    owned: Vec<usize>,
    /// Owned tables plus the MLP replica.
    model: Dlrm,
    cost: CostModel,
    tiered: Option<TieredCostModel>,
    cache: HotRowCache,
    coalescer: BatchCoalescer,
    codecs: FetchCodecs,
    controller: Option<Controller>,
    gscratch: GradScratch,
    scratch: Scratch,
    send: Vec<PooledBuf>,
    recv: Vec<PooledBuf>,
    /// The most requests one frontend answers per window, and the request
    /// lease sized for them with every frame varint at its widest.
    my_req_max: usize,
    req_cap: usize,
    /// Pool and scratch marks at the end of warm-up.
    pool_mark: Option<PoolStats>,
    cap_mark: u64,
    out: RankOutcome,
}

fn rank_serve(ctx: &RankCtx, setup: &Setup) -> RankOutcome {
    let mut rank = ServeRank::new(ctx, setup);
    for w in 0..setup.cfg.num_windows() {
        rank.window(w);
    }
    rank.finish()
}

impl<'a> ServeRank<'a> {
    fn new(ctx: &'a RankCtx, setup: &'a Setup) -> Self {
        let (cfg, dataset) = (&setup.cfg, &setup.dataset);
        let (rank, world, frontends) = (ctx.rank(), ctx.world(), cfg.frontend_count());
        // Ranks past the partition own nothing and answer no request.
        let frontend = rank < frontends;
        let (tables, dim) = (dataset.tables.len(), dataset.embedding_dim);
        let owned = if frontend {
            setup.partition.tables_of(rank).to_vec()
        } else {
            Vec::new()
        };
        let mut model = Dlrm::new_partial(
            DlrmConfig::from_dataset(dataset),
            cfg.model_seed,
            Some(&owned),
        );
        if let Some(ckpt) = &setup.checkpoint {
            restore_model(&mut model, ckpt, &owned);
        }
        let my_req_max = cfg.window / frontends + 1;
        let mut coalescer = BatchCoalescer::new(world);
        coalescer.reserve(my_req_max * tables);
        let codecs = FetchCodecs::new(tables, cfg.fetch.resolved_kind());
        let rank = Self {
            ctx,
            setup,
            model,
            cost: cfg.network.cost_model(),
            tiered: cfg.topology.map(TieredCostModel::new),
            cache: HotRowCache::new(if frontend { cfg.cache_rows } else { 0 }, dim),
            coalescer,
            controller: Controller::new(cfg, &codecs, dim),
            codecs,
            gscratch: GradScratch::new(),
            scratch: Scratch {
                my_ids: Vec::with_capacity(my_req_max),
                my_dense: Vec::with_capacity(my_req_max * dataset.num_dense),
                store_keys: Vec::with_capacity(cfg.window * tables),
                store_vals: Vec::with_capacity(cfg.window * tables * dim),
                emb_bufs: (0..tables)
                    .map(|_| Vec::with_capacity(my_req_max * dim))
                    .collect(),
                idx_buf: Vec::with_capacity(cfg.window),
                owner_rows: Vec::with_capacity(cfg.window * dim),
                dec_buf: Vec::with_capacity(cfg.window * dim),
            },
            send: Vec::with_capacity(world),
            recv: Vec::with_capacity(world),
            my_req_max,
            req_cap: VARINT_MAX * (1 + tables * (2 + my_req_max)),
            pool_mark: None,
            cap_mark: 0,
            out: RankOutcome {
                responses: Vec::with_capacity(cfg.requests / frontends + 1),
                windows: Vec::with_capacity(cfg.num_windows()),
                ..RankOutcome::default()
            },
            owned,
        };
        // Pre-warm the buffer pool to its in-flight high-water mark: each
        // window keeps up to two windows' worth of send buffers in flight
        // (peers return leases one exchange late), so park that many
        // worst-case-sized buffers up front. Without this the pool keeps
        // allocating for a few windows past any fixed warm-up as traffic
        // ramps.
        let cap = rank.req_cap.max(rank.payload_cap());
        let warm: Vec<_> = (0..4 * world).map(|_| ctx.take_buf(cap)).collect();
        drop(warm);
        rank
    }

    /// Worst-case payload lease, independent of window content: every owned
    /// table's widest stream for a full window of requests. It follows the
    /// codec bank, which the controller may switch.
    fn payload_cap(&self) -> usize {
        let len = self.my_req_max * self.setup.dataset.embedding_dim;
        payload_chunk_capacity((self.owned.iter()).map(|&t| self.codecs.max_stream_bytes(t, len)))
    }

    /// Modeled seconds of `bytes` sent from this rank to `dst`: the flat
    /// α–β model or the tiered one.
    fn wire_seconds(&self, dst: usize, bytes: u64) -> f64 {
        let src = self.ctx.rank();
        match &self.tiered {
            _ if bytes == 0 || src == dst => 0.0,
            Some(t) => t.pair_time(src, dst, bytes as usize),
            None => self.cost.message_time(Link::AllToAll, bytes as usize),
        }
    }

    /// Scratch, coalescer and response capacity, for the steady-state
    /// allocation ledger.
    fn capacity_bytes(&self) -> u64 {
        let s = &self.scratch;
        (s.my_ids.capacity() * 8
            + s.my_dense.capacity() * 4
            + s.store_keys.capacity() * 12
            + s.store_vals.capacity() * 4
            + s.emb_bufs.iter().map(Vec::capacity).sum::<usize>() * 4
            + s.idx_buf.capacity() * 4
            + s.owner_rows.capacity() * 4
            + s.dec_buf.capacity() * 4
            + self.coalescer.capacity_entries() * 8
            + self.out.responses.capacity() * 8) as u64
    }

    /// Run batch window `w`.
    fn window(&mut self, w: usize) {
        let setup = self.setup;
        let cfg = &setup.cfg;
        let start = w * cfg.window;
        let len = cfg.window.min(cfg.requests - start);
        let frontend = self.ctx.rank() < cfg.frontend_count();
        let shared = frontend.then(|| setup.feed.step(w, len));
        let batch = shared.as_deref().map(|parts| &parts[0]);
        let mut charges = WindowCharges::default();
        let mut gathered = self.walk(batch, start, len);
        let request_bytes = self.request(&mut charges);
        self.answer(&mut charges, request_bytes);
        charges.decode = self.receive();
        gathered += self.respond(batch, start);
        charges.local = gathered as f64 / cfg.host_gather_bandwidth;
        let (nreq, params) = (self.scratch.my_ids.len(), self.model.mlp_param_count());
        charges.mlp = nreq as f64 * 2.0 * params as f64 / cfg.mlp_flops;
        let ledger = &mut self.out.ledger;
        ledger.add_time(phases::LOOKUP, charges.local);
        ledger.add_time(phases::FWD_COMPRESS, charges.encode);
        ledger.add_time(phases::FWD_DECOMPRESS, charges.decode);
        ledger.add_time(phases::MLP_FWD, charges.mlp);
        self.out.windows.push(charges);
        self.boundary(w);
        if w + 1 == cfg.warmup_windows {
            self.pool_mark = Some(self.ctx.pool().stats());
            self.cap_mark = self.capacity_bytes();
        }
    }

    /// Walk this frontend's slice of the batch: local rows count as host
    /// gathers, cache hits go to the window store, misses to the
    /// coalescer. Returns the host bytes gathered.
    fn walk(&mut self, batch: Option<&MiniBatch>, start: usize, len: usize) -> u64 {
        let (setup, rank) = (self.setup, self.ctx.rank());
        let (dim, frontends) = (setup.dataset.embedding_dim, setup.cfg.frontend_count());
        let scratch = &mut self.scratch;
        scratch.my_ids.clear();
        scratch.my_dense.clear();
        scratch.store_keys.clear();
        scratch.store_vals.clear();
        self.coalescer.clear();
        let mut gathered = 0u64;
        if let Some(batch) = batch {
            for i in (0..len).filter(|i| (start + i) % frontends == rank) {
                scratch.my_ids.push(i);
                scratch.my_dense.extend_from_slice(batch.dense.row(i));
                for (t, column) in batch.sparse.iter().enumerate() {
                    let (row, owner) = (column[i], setup.partition.owner_of(t));
                    if owner == rank {
                        self.out.local_rows += 1;
                        gathered += (dim * 4) as u64;
                    } else if let Some(vals) = self.cache.get(t as u32, row) {
                        scratch.store(t as u32, row, vals);
                        gathered += (dim * 4) as u64;
                    } else {
                        self.coalescer.note(owner, t as u32, row);
                    }
                }
            }
        }
        self.coalescer.finish();
        gathered
    }

    /// Send the coalesced key lists, one request chunk per owner. Returns
    /// the bytes sent.
    fn request(&mut self, charges: &mut WindowCharges) -> u64 {
        let ctx = self.ctx;
        let mut bytes = 0u64;
        for dst in 0..ctx.world() {
            let rows = self.coalescer.rows(dst);
            let mut buf = ctx.take_buf(self.req_cap);
            if !rows.is_empty() {
                write_request_chunk(&mut buf, rows);
            }
            let sent = buf.len() as u64;
            bytes += sent;
            charges.request_wire += self.wire_seconds(dst, sent);
            self.send.push(buf);
        }
        self.out.request_wire_bytes += bytes;
        ctx.all_to_all_pooled(&mut self.send, &mut self.recv);
        bytes
    }

    /// Owner side: gather, encode and frame each request's rows, then send
    /// the payloads back. The wire of both directions is charged as one
    /// running sum, and goes to the controller's share with this window's
    /// `request_bytes` and encode seconds.
    fn answer(&mut self, charges: &mut WindowCharges, request_bytes: u64) {
        let (ctx, setup, rank) = (self.ctx, self.setup, self.ctx.rank());
        let (cfg, dim) = (&setup.cfg, setup.dataset.embedding_dim);
        let pay_cap = self.payload_cap();
        let mut wire = charges.request_wire;
        let mut bytes = request_bytes;
        for (src, request) in self.recv.iter().enumerate() {
            let mut buf = ctx.take_buf(pay_cap);
            if !request.is_empty() {
                let from = ChunkOrigin {
                    rank,
                    what: "fetch request",
                    src,
                };
                let groups = from.check(request_groups(request));
                write_varint(&mut buf, groups.remaining());
                for group in groups {
                    let group = from.check(group);
                    let t = group.table as usize;
                    if t >= self.codecs.tables() || setup.partition.owner_of(t) != rank {
                        from.fail(FrameError::at(group.offset, "request for an unowned table"));
                    }
                    let (idx, rows) = (&mut self.scratch.idx_buf, &mut self.scratch.owner_rows);
                    idx.clear();
                    idx.extend(group.rows.iter());
                    let table = self.model.embedding(t);
                    let last = idx.last().map_or(0, |&r| r as usize);
                    if last >= table.cardinality() {
                        from.fail(FrameError::at(
                            group.offset,
                            "request row past the table's end",
                        ));
                    }
                    table.lookup_into(idx, rows);
                    let raw = (rows.len() * 4) as u64;
                    self.out.fetch_raw_bytes += raw;
                    let (codecs, gscratch) = (&self.codecs, &mut self.gscratch);
                    let eb = codecs.kind(t).error_bound();
                    let encoded = write_payload_group(&mut buf, t, idx.len(), |out| {
                        codecs.encode(t, rows, dim, eb, gscratch, out)
                    });
                    if let Some((enc_tput, _)) = codecs.throughput(t, &cfg.profile) {
                        charges.encode += raw as f64 / enc_tput;
                    }
                    if let Some(c) = self.controller.as_mut() {
                        c.note_payload(t, rows, encoded, dim);
                    }
                }
            }
            let sent = buf.len() as u64;
            bytes += sent;
            self.out.fetch_wire_bytes += sent;
            let seconds = self.wire_seconds(src, sent);
            charges.payload_wire += seconds;
            wire += seconds;
            self.send.push(buf);
        }
        self.recv.clear();
        ctx.all_to_all_pooled(&mut self.send, &mut self.recv);
        self.out.ledger.add_time(phases::FWD_A2A, wire);
        if let Some(c) = self.controller.as_mut() {
            let share = &mut c.replica.share;
            share.wire_bytes += bytes as f64;
            share.wire_seconds += wire;
            share.codec_seconds += charges.encode;
        }
    }

    /// Frontend side: decode every payload into the window store and offer
    /// the rows to the cache. Returns the decode seconds.
    fn receive(&mut self) -> f64 {
        let (rank, dim) = (self.ctx.rank(), self.setup.dataset.embedding_dim);
        let profile = &self.setup.cfg.profile;
        let mut seconds = 0.0f64;
        for (src, payload) in self.recv.iter().enumerate() {
            let keys = self.coalescer.rows(src);
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
                // Taken so the rows can go to the store in the same scratch.
                let mut rows = std::mem::take(&mut self.scratch.dec_buf);
                rows.clear();
                let gscratch = &mut self.gscratch;
                if (self
                    .codecs
                    .decode(t, group.stream, n * dim, gscratch, &mut rows))
                .is_err()
                {
                    let e = FrameError::at(group.offset, "stream does not decode to rows × dim");
                    from.fail(e);
                }
                for (&(kt, row), vals) in answered.iter().zip(rows.chunks_exact(dim)) {
                    self.scratch.store(kt, row, vals);
                    self.cache.insert(kt, row, vals);
                }
                self.scratch.dec_buf = rows;
                cursor += n;
                self.out.fetched_rows += n as u64;
                if let Some((_, dec_tput)) = self.codecs.throughput(t, profile) {
                    seconds += (n * dim * 4) as f64 / dec_tput;
                }
            }
            if cursor != keys.len() {
                from.fail(FrameError::at(
                    payload.len(),
                    "payload answers fewer rows than requested",
                ));
            }
        }
        self.recv.clear();
        self.scratch.store_keys.sort_unstable();
        self.scratch.store_keys.dedup_by_key(|&mut (k, _)| k);
        seconds
    }

    /// Assemble this frontend's requests from local weights and the window
    /// store, run the MLP and record the responses. Returns the host bytes
    /// gathered.
    fn respond(&mut self, batch: Option<&MiniBatch>, start: usize) -> u64 {
        let (setup, rank, scratch) = (self.setup, self.ctx.rank(), &mut self.scratch);
        let (dim, nreq) = (setup.dataset.embedding_dim, scratch.my_ids.len());
        let Some(batch) = batch.filter(|_| nreq > 0) else {
            return 0;
        };
        let mut gathered = 0u64;
        let mut embs: Vec<Matrix> = Vec::with_capacity(batch.sparse.len());
        for (t, column) in batch.sparse.iter().enumerate() {
            let mut buf = std::mem::take(&mut scratch.emb_bufs[t]);
            buf.clear();
            let local = setup.partition.owner_of(t) == rank;
            for &i in &scratch.my_ids {
                let row = column[i];
                if local {
                    buf.extend_from_slice(self.model.embedding(t).weights().row(row as usize));
                } else {
                    let key = ((t as u64) << 32) | row as u64;
                    let at = (scratch.store_keys)
                        .binary_search_by_key(&key, |&(k, _)| k)
                        .expect("remote row present in window store");
                    let slot = scratch.store_keys[at].1 as usize;
                    buf.extend_from_slice(&scratch.store_vals[slot * dim..(slot + 1) * dim]);
                }
            }
            gathered += (buf.len() * 4) as u64;
            embs.push(Matrix::from_vec(nreq, dim, buf));
        }
        let num_dense = setup.dataset.num_dense;
        let dense = Matrix::from_vec(nreq, num_dense, std::mem::take(&mut scratch.my_dense));
        let fwd = self.model.forward_dense(&dense, &embs);
        for (j, &i) in scratch.my_ids.iter().enumerate() {
            self.out.responses.push(((start + i) as u32, fwd.logits[j]));
        }
        scratch.my_dense = dense.into_vec();
        for (t, m) in embs.into_iter().enumerate() {
            scratch.emb_bufs[t] = m.into_vec();
        }
        gathered
    }

    /// Close the controller window ending with batch window `w`, if one
    /// does (off the request latency path): probe the candidates on each
    /// owned table's sample (its leading weight rows when nothing was
    /// fetched), close the replica's window, and flush the cache when a
    /// codec switched.
    fn boundary(&mut self, w: usize) {
        let Some(c) = self.controller.as_mut() else {
            return;
        };
        if !c.replica.closes_at(w + 1) {
            return;
        }
        for &t in &self.owned {
            let table = self.model.embedding(t);
            let (dim, rows) = (table.dim(), PROBE_ROWS.min(table.cardinality()));
            let sample = match c.sample[t].as_slice() {
                [] => &table.weights().as_slice()[..rows * dim],
                live => live,
            };
            let eb = self.codecs.kind(t).error_bound();
            let candidate_ratios =
                c.replica
                    .probe(sample, dim, eb, &mut self.gscratch.compress, &mut c.out);
            c.replica.share.tables.push(TableObservation {
                table_id: t,
                original_bytes: c.traffic[t].0,
                compressed_bytes: c.traffic[t].1,
                candidate_ratios,
            });
        }
        // Serving has no loss to plateau on.
        let (ctx, fallback) = (self.ctx, self.setup.cfg.network.alltoall_bandwidth);
        let (reselection, ..) =
            (c.replica).close_window(ctx, w + 1, fallback, |_, _| 0.0, false, &mut self.codecs);
        c.traffic.fill((0, 0));
        c.sample.iter_mut().for_each(Vec::clear);
        if !reselection.switches.is_empty() {
            self.cache.clear();
        }
    }

    /// Close the run: this rank's outcome.
    fn finish(self) -> RankOutcome {
        let steady_alloc = self.pool_mark.map_or(0, |mark| {
            let pool = self.ctx.pool().stats().since(&mark).allocated_bytes;
            pool + (self.capacity_bytes() - self.cap_mark)
        });
        let tables = self.codecs.tables();
        RankOutcome {
            cache: Some(self.cache),
            reselections: (self.controller)
                .map_or_else(Vec::new, |c| c.replica.controller().log().to_vec()),
            final_codecs: (0..tables).map(|t| self.codecs.kind(t).label()).collect(),
            steady_alloc,
            ..self.out
        }
    }
}

fn merge(
    setup: &Setup,
    outcomes: Vec<RankOutcome>,
    wall_seconds: f64,
    from_checkpoint: bool,
    provenance: Option<String>,
) -> ServingReport {
    let (cfg, windows) = (&setup.cfg, setup.cfg.num_windows());

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

    // Per-window processing time: the slowest rank of each serial stage,
    // each all-to-all's wire included.
    let proc: Vec<f64> = (0..windows)
        .map(|w| {
            let max = |f: fn(&WindowCharges) -> f64| {
                (outcomes.iter()).fold(0.0f64, |m, o| m.max(f(&o.windows[w])))
            };
            max(|c| c.local)
                + max(|c| c.request_wire)
                + max(|c| c.encode)
                + max(|c| c.payload_wire)
                + max(|c| c.decode + c.mlp)
        })
        .collect();

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
    let cache = |f: fn(&HotRowCache) -> u64| sum(&|o| o.cache.as_ref().map_or(0, f));
    let (cache_hits, cache_misses) = (cache(HotRowCache::hits), cache(HotRowCache::misses));
    let fetch_raw_bytes = sum(&|o| o.fetch_raw_bytes);
    let fetch_wire_bytes = sum(&|o| o.fetch_wire_bytes);

    let mut ledger = TimingLedger::new();
    for o in &outcomes {
        ledger.merge_sum(&o.ledger);
    }

    let reselections = outcomes[0].reselections.clone();
    let codec_switches = reselections.iter().map(|r| r.switches.len()).sum();

    ServingReport {
        dataset: setup.dataset.name.clone(),
        world: cfg.world,
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
        cache_evictions: cache(HotRowCache::evictions),
        cache_rejections: cache(HotRowCache::rejections),
        cache_flushes: cache(HotRowCache::flushes),
        hit_rate: if cache_hits + cache_misses > 0 {
            cache_hits as f64 / (cache_hits + cache_misses) as f64
        } else {
            0.0
        },
        local_rows: sum(&|o| o.local_rows),
        fetched_rows: sum(&|o| o.fetched_rows),
        fetch_raw_bytes,
        fetch_wire_bytes,
        request_wire_bytes: sum(&|o| o.request_wire_bytes),
        fetch_ratio: if fetch_wire_bytes > 0 {
            fetch_raw_bytes as f64 / fetch_wire_bytes as f64
        } else {
            1.0
        },
        reselections,
        codec_switches,
        final_codecs: outcomes[0].final_codecs.clone(),
        steady_state_allocated_bytes: sum(&|o| o.steady_alloc),
        phase_seconds: ledger.phases(),
        responses,
        from_checkpoint,
        provenance,
    }
}
