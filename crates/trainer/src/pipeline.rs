//! The per-rank hybrid-parallel training pipeline.
//!
//! Every rank executes [`run_rank`] inside the simulated cluster. The code is
//! SPMD: each rank takes its shard of the global batch from the cluster's
//! shared [`BatchFeed`] (a simulation convenience — in the real system the
//! indices arrive via the input pipeline), and then performs exactly the
//! stages of the paper's Figure 3 pipeline, with compression spliced around
//! both all-to-alls. One iteration is one `RankState::step`.

use crate::config::{
    AdaptiveSetting, DenseCompression, OverlapSetting, TopologySetting, TrainerConfig,
};
use crate::partition::TablePartition;
use dlrm_adaptive::controller::{
    ControllerConfig, Reselection, TableObservation, WindowShare, PROBE_ROWS,
};
use dlrm_adaptive::CodecProfile;
use dlrm_ckpt::{Checkpoint, CheckpointSpec, EncodedSection, RankCheckpoint};
use dlrm_comm::cluster::{relay_lease_capacity, ChunkedAllToAll, RankCtx};
use dlrm_comm::frame::{
    payload_chunk_capacity, payload_groups, write_payload_group, write_varint, ChunkOrigin,
    FrameError,
};
use dlrm_comm::pool::{PoolStats, PooledBuf};
use dlrm_comm::reduce::{
    allreduce_tier_bytes, shard_range, RawF32Codec, ReduceCodec, ReduceScratch,
};
use dlrm_comm::topology::{HierExchangeBytes, TieredCostModel, Topology};
use dlrm_comm::{CostModel, OverlapTimeline, TimingLedger};
use dlrm_compress::Compressor;
use dlrm_data::{BatchFeed, DatasetConfig, DistinctRows, MiniBatch};
use dlrm_grad::{CodecBank, ControllerReplica, GradCodec, GradCompressor, GradScratch};
use dlrm_model::dlrm::{BottomForward, DenseCache, EmbeddingBackward};
use dlrm_model::{Dlrm, DlrmConfig, EvalMetrics};
use dlrm_obs::{ClockDomain, MetricsRow, MetricsSeries, RankTrack, RecordKind, SpanRecorder};
use dlrm_tensor::Matrix;
use std::sync::Arc;
use std::time::Instant;

/// Iterations before the steady-state allocation counter starts: the first
/// couple of iterations grow the pool, the compress scratch and the float
/// recycler to their working sizes.
pub const WARMUP_ITERATIONS: usize = 2;

/// Ledger phase names, shared with the bench harness so breakdowns stay
/// consistent across figures. The canonical constants live in
/// [`dlrm_comm::phase`] (next to the stringly-keyed ledger they key); this
/// alias keeps the trainer-side `pipeline::phases::*` spelling working.
pub use dlrm_comm::phase as phases;

/// Wall-clock stopwatch for the training loop: every elapsed instant is
/// attributed to exactly one pipeline phase, so the per-phase wall seconds
/// always sum to the loop's total wall time. Work the cost model does not
/// charge (batch synthesis, lease bookkeeping, warm-up parking) lands in the
/// bucket whose mark closes next — the wall ledger partitions real time, it
/// does not re-model it.
struct WallClock {
    ledger: TimingLedger,
    last: Instant,
}

impl WallClock {
    fn new() -> Self {
        Self {
            ledger: TimingLedger::new(),
            last: Instant::now(),
        }
    }

    /// Charge everything since the previous mark to `phase`.
    fn mark(&mut self, phase: &'static str) {
        let now = Instant::now();
        self.ledger
            .add_time(phase, now.duration_since(self.last).as_secs_f64());
        self.last = now;
    }

    /// Close an overlapped exchange region where codec work interleaves with
    /// waiting on the wire: `codec_s` measured codec seconds go to
    /// `codec_phase`, the remainder of the region to `rest_phase`.
    fn mark_split(&mut self, codec_phase: &'static str, codec_s: f64, rest_phase: &'static str) {
        let now = Instant::now();
        let total = now.duration_since(self.last).as_secs_f64();
        let codec = codec_s.clamp(0.0, total);
        self.ledger.add_time(codec_phase, codec);
        self.ledger.add_time(rest_phase, total - codec);
        self.last = now;
    }

    fn into_ledger(self) -> TimingLedger {
        self.ledger
    }
}

/// Per-rank observability state ([`crate::config::ObsSetting::On`] only):
/// the span ring, the per-iteration metrics series, and the ledger baselines
/// each end-of-iteration row is computed against. Everything is preallocated
/// at construction — ring capacity, row capacity and the ratio scratch — so
/// the hot loop's recording path never allocates and the zero-allocation
/// steady state survives with tracing enabled. `Off` never constructs one,
/// keeping the default path bit-identical.
struct ObsState {
    rec: SpanRecorder,
    metrics: MetricsSeries,
    /// Scratch for one row's per-table ratios (capacity `num_tables`).
    ratio_buf: Vec<f64>,
    /// Ledger totals at iteration start, for per-iteration deltas.
    modeled_mark: f64,
    wall_mark: f64,
    comm_seconds_mark: f64,
    wire_bytes_mark: u64,
    tier_bytes_mark: (u64, u64),
    /// Per-table `(original, compressed)` forward bytes at iteration start.
    fwd_mark: Vec<(u64, u64)>,
    /// Max fabric channel depth sampled at this iteration's exchange
    /// boundaries.
    depth_max: u64,
    /// Straggler factor of the previous iteration (≤ 1.0 = healthy link).
    prev_straggler: f64,
    /// Error-bound scale last seen at a reselection boundary.
    prev_eb_scale: f32,
}

impl ObsState {
    fn new(rank: usize, clock: ClockDomain, iterations: usize, num_tables: usize) -> Self {
        ObsState {
            rec: SpanRecorder::new(rank, clock, SpanRecorder::capacity_for(iterations)),
            metrics: MetricsSeries::with_capacity(iterations, num_tables),
            ratio_buf: Vec::with_capacity(num_tables),
            modeled_mark: 0.0,
            wall_mark: 0.0,
            comm_seconds_mark: 0.0,
            wire_bytes_mark: 0,
            tier_bytes_mark: (0, 0),
            fwd_mark: vec![(0, 0); num_tables],
            depth_max: 0,
            prev_straggler: 1.0,
            prev_eb_scale: 1.0,
        }
    }

    /// Modeled seconds charged to the wire phases so far.
    fn comm_seconds(ledger: &TimingLedger) -> f64 {
        ledger.seconds(phases::FWD_A2A)
            + ledger.seconds(phases::BWD_A2A)
            + ledger.seconds(phases::ALLREDUCE)
    }

    /// Bytes moved through the wire phases so far.
    fn wire_bytes(ledger: &TimingLedger) -> u64 {
        ledger.bytes(phases::FWD_A2A)
            + ledger.bytes(phases::BWD_A2A)
            + ledger.bytes(phases::ALLREDUCE)
    }

    /// Close an overlapped exchange region: codec time to `codec_phase`, the
    /// rest to `rest_phase`. Under the wall clock the measured codec seconds
    /// split the region; under the modeled clock the ledger's own charge
    /// does, so the trace stays independent of measured time.
    fn mark_split(
        &mut self,
        codec_phase: &'static str,
        (measured_s, modeled_s): (f64, f64),
        rest_phase: &'static str,
        ledger: &TimingLedger,
    ) {
        let codec_s = match self.rec.clock() {
            ClockDomain::Wall => measured_s,
            ClockDomain::Modeled => modeled_s,
        };
        self.rec
            .mark_split(codec_phase, codec_s, rest_phase, ledger.total_seconds());
    }

    /// Sample the fabric's pending message depth at an exchange boundary.
    fn sample_depth(&mut self, ctx: &RankCtx) {
        self.depth_max = self.depth_max.max(ctx.fabric().pending_depth() as u64);
    }

    /// Record straggler window edges by comparing against the previous
    /// iteration's factor.
    fn note_straggler(&mut self, factor: f64, ledger: &TimingLedger) {
        if factor > 1.0 && self.prev_straggler <= 1.0 {
            self.rec.instant(
                RecordKind::StragglerStart,
                ledger.total_seconds(),
                0,
                factor,
            );
        } else if factor <= 1.0 && self.prev_straggler > 1.0 {
            self.rec.instant(
                RecordKind::StragglerEnd,
                ledger.total_seconds(),
                0,
                self.prev_straggler,
            );
        }
        self.prev_straggler = factor;
    }

    /// Record the boundary's controller decisions: one instant per codec
    /// switch, plus an instant when the error-bound scale moved.
    fn note_reselection(&mut self, sel: &Reselection, ledger: &TimingLedger) {
        let now = ledger.total_seconds();
        for rev in &sel.switches {
            self.rec
                .instant(RecordKind::CodecReselection, now, rev.table_id as u64, 0.0);
        }
        if sel.eb_scale != self.prev_eb_scale {
            self.rec
                .instant(RecordKind::EbScaleChange, now, 0, f64::from(sel.eb_scale));
            self.prev_eb_scale = sel.eb_scale;
        }
    }

    /// Record a checkpoint write (`arg` = encoded bytes, `value` = modeled
    /// store-write seconds).
    fn note_checkpoint(&mut self, encoded_bytes: u64, write_s: f64, ledger: &TimingLedger) {
        self.rec.instant(
            RecordKind::CheckpointWrite,
            ledger.total_seconds(),
            encoded_bytes,
            write_s,
        );
    }
}

/// One contiguous run of global iterations executed on a fixed world — the
/// unit the fault-tolerant driver schedules. A fault-free run is a single
/// full segment; every scheduled [`WorldEvent`](dlrm_comm::WorldEvent) cuts
/// a new segment whose world, partition and restore point the driver picks.
#[derive(Clone)]
pub struct SegmentSpec {
    /// First global iteration this segment executes.
    pub start: usize,
    /// One past the last global iteration this segment executes.
    pub end: usize,
    /// Checkpoint to restore model/shards/residuals from before iterating.
    pub restore: Option<Arc<Checkpoint>>,
    /// Checkpoint cadence and codec in effect during this segment.
    pub checkpoint: Option<CheckpointSpec>,
    /// Force a checkpoint of the final state at `end` (a planned resize
    /// hands the grown/shrunk world its restore point this way).
    pub checkpoint_at_end: bool,
}

impl SegmentSpec {
    /// The whole run as one segment — the fault-free path.
    pub fn full(iterations: usize) -> Self {
        Self {
            start: 0,
            end: iterations,
            restore: None,
            checkpoint: None,
            checkpoint_at_end: false,
        }
    }
}

/// Everything a rank needs to run; shared read-only across rank threads.
pub struct RankSetup {
    /// Dataset preset being trained on.
    pub dataset: DatasetConfig,
    /// Trainer configuration.
    pub trainer: TrainerConfig,
    /// Table-to-rank assignment.
    pub partition: TablePartition,
    /// The slice of global iterations this execution covers.
    pub segment: SegmentSpec,
    /// The cluster's one input stream, cut into `trainer.world` shards and
    /// already positioned at `segment.start`: step `k` is global iteration
    /// `k`'s batch no matter how many segments precede it.
    pub feed: BatchFeed,
}

/// Per-rank result of a training run.
pub struct RankOutcome {
    /// This rank's id.
    pub rank: usize,
    /// Metrics of this rank's batch shard, one entry per iteration
    /// (pre-update, i.e. evaluated with the parameters the iteration started
    /// with).
    pub per_iteration: Vec<EvalMetrics>,
    /// Accumulated time per pipeline phase (virtual network seconds plus
    /// measured compute seconds), including per-phase buffer
    /// allocated/reused byte counters.
    pub ledger: TimingLedger,
    /// Wall-clock seconds per pipeline phase of this rank's training loop —
    /// the measured counterpart of [`RankOutcome::ledger`]'s modeled times.
    /// The buckets partition the loop's real elapsed time, so their sum is
    /// the loop's wall time on this rank.
    pub wall: TimingLedger,
    /// Per-table `(original bytes, compressed bytes)` of the forward
    /// all-to-all payloads this rank produced as a table owner. Original
    /// bytes are what the codec encoded: the distinct rows of every block.
    pub fwd_traffic: Vec<(u64, u64)>,
    /// Per-table bytes of the re-expanded `rows × dim` lookups this rank
    /// received for its own shard.
    pub fwd_delivered: Vec<u64>,
    /// Per-table `(original bytes, compressed bytes)` of the backward
    /// all-to-all payloads this rank produced for its own shard: one summed
    /// gradient row per distinct index of every block.
    pub bwd_traffic: Vec<(u64, u64)>,
    /// `(forward, backward)` all-to-all bytes this rank sent to other ranks,
    /// summed over the segment: every chunk it framed for a peer, headers
    /// included (its own chunk never crosses the wire).
    pub a2a_sent: (u64, u64),
    /// Final counters of this rank's buffer pool.
    pub pool_stats: PoolStats,
    /// Bytes of fresh buffer capacity the compress/send path allocated
    /// *after* [`WARMUP_ITERATIONS`] — zero when the pool, the compress
    /// scratch and the float recycler are fully reused in the steady state.
    pub steady_state_allocated_bytes: u64,
    /// `(raw bytes, wire bytes)` this rank's dense-gradient all-reduce would
    /// have moved uncompressed vs actually moved, summed over iterations
    /// (equal when dense compression is off).
    pub dense_traffic: (u64, u64),
    /// Virtual seconds the compressed dense all-reduce saved vs charging
    /// the raw ring formula, summed over iterations (0 when off).
    pub dense_saved_seconds: f64,
    /// Final L2 norm of the error-feedback residual (0 without EF).
    pub dense_residual_norm: f64,
    /// Compressed-domain combines this rank's owner shards performed across
    /// the segment (zero on the classic decode → reduce → re-encode path).
    pub homo_combines: u64,
    /// Virtual seconds charged to [`phases::COMBINE`] for those combines
    /// (zero without a device-throughput override).
    pub homo_combine_seconds: f64,
    /// Virtual codec seconds the homomorphic path saved vs the classic
    /// counterpart of the same schedule — the eliminated owner-shard decodes
    /// and re-encodes, minus the combine charge (zero without a
    /// device-throughput override; can go negative if combining were slower
    /// than the decodes it replaces).
    pub homo_saved_seconds: f64,
    /// `(intra, inter)` tier bytes this rank moved (both directions, all
    /// network phases) under a hierarchical topology; zeros when flat.
    pub tier_bytes: (u64, u64),
    /// `(intra, inter)` virtual tier seconds charged to this rank's network
    /// phases under a hierarchical topology (un-overlapped charge — hidden
    /// time is accounted separately in the ledger); zeros when flat.
    pub tier_seconds: (f64, f64),
    /// The runtime controller's reselection log (empty under
    /// [`AdaptiveSetting::Static`]; identical on every rank — asserted by
    /// the report merger).
    pub reselections: Vec<Reselection>,
    /// Measured forward-payload compression ratio over every table per
    /// completed controller window (empty under `Static`; identical on every
    /// rank, read off the folded observation).
    pub window_ratios: Vec<f64>,
    /// The last checkpoint part this rank produced in its segment (`None`
    /// without a [`CheckpointSpec`]); the driver assembles the per-rank
    /// parts into the global restore point for the next segment.
    pub last_checkpoint: Option<RankCheckpoint>,
    /// Checkpoints this rank took during the segment.
    pub checkpoints_taken: usize,
    /// Raw bytes across all sections of all checkpoints taken.
    pub checkpoint_original_bytes: u64,
    /// Encoded bytes across all sections of all checkpoints taken.
    pub checkpoint_encoded_bytes: u64,
    /// Modeled store-write seconds across all checkpoints taken.
    pub checkpoint_write_seconds: f64,
    /// This rank's span-trace track (`None` with
    /// [`crate::config::ObsSetting::Off`]).
    pub obs_track: Option<RankTrack>,
    /// This rank's per-iteration metrics series (`None` with
    /// [`crate::config::ObsSetting::Off`]).
    pub obs_metrics: Option<MetricsSeries>,
}

/// Per-rank reusable state threaded through every pipeline stage so the
/// steady-state loop allocates nothing: compression scratch, the per-chunk
/// records of both all-to-alls, and a recycler for the float storage of
/// lookup/gradient matrices.
struct PipelineScratch {
    /// Codec scratch shared by every compress/decompress call on this rank.
    codec: GradScratch,
    /// Flattened MLP gradient buffer for the all-reduce.
    flat_grads: Vec<f32>,
    /// Staging buffers of the compressed dense all-reduce.
    dense_reduce: ReduceScratch,
    /// Recycled float storage for lookup/gradient matrices.
    float_pool: Vec<Vec<f32>>,
    /// Bytes of float storage freshly allocated by `take_floats`.
    float_allocated: u64,
    /// Bytes of float storage served from the recycler.
    float_reused: u64,
    /// Per-chunk codec seconds of the current exchange (visiting order),
    /// feeding the [`OverlapTimeline`].
    chunk_codec_s: Vec<f64>,
    /// Per-chunk bytes this rank sent (visiting order).
    chunk_sent: Vec<usize>,
    /// Per-chunk bytes this rank received (visiting order).
    chunk_recv: Vec<usize>,
}

impl PipelineScratch {
    /// Create an empty scratch for a rank of a `world`-sized cluster.
    fn new(world: usize) -> Self {
        Self {
            codec: GradScratch::new(),
            flat_grads: Vec::new(),
            dense_reduce: ReduceScratch::new(),
            float_pool: Vec::new(),
            float_allocated: 0,
            float_reused: 0,
            chunk_codec_s: Vec::with_capacity(world),
            chunk_sent: Vec::with_capacity(world),
            chunk_recv: Vec::with_capacity(world),
        }
    }

    /// Take a cleared float buffer with at least `len_hint` capacity from
    /// the recycler (allocating only when empty, with the event counted).
    fn take_floats(&mut self, len_hint: usize) -> Vec<f32> {
        match self.float_pool.pop() {
            Some(mut v) => {
                v.clear();
                if v.capacity() >= len_hint {
                    self.float_reused += (len_hint * 4) as u64;
                } else {
                    // Growing a cleared Vec allocates a whole new block of
                    // the full requested size (and frees the old one) —
                    // count the full size, not the delta.
                    self.float_allocated += (len_hint * 4) as u64;
                    v.reserve(len_hint);
                }
                v
            }
            None => {
                self.float_allocated += (len_hint * 4) as u64;
                Vec::with_capacity(len_hint)
            }
        }
    }

    /// Return a float buffer's storage to the recycler.
    fn put_floats(&mut self, v: Vec<f32>) {
        if v.capacity() > 0 {
            self.float_pool.push(v);
        }
    }

    /// Cumulative `(allocated, reused)` float-recycler bytes.
    fn float_counters(&self) -> (u64, u64) {
        (self.float_allocated, self.float_reused)
    }
}

/// Seconds one chunk's codec work is charged on the virtual codec timeline:
/// zero for raw payloads (the byte conversion stands in for NCCL sending the
/// original buffer), the per-codec analytic sum when a [`CodecProfile`] is
/// configured (accumulated per block by the caller), `bytes / throughput`
/// under the flat device-throughput override, the measured seconds
/// otherwise.
fn chunk_codec_seconds(
    is_raw: bool,
    measured: f64,
    bytes: u64,
    throughput: Option<f64>,
    analytic: Option<f64>,
) -> f64 {
    if is_raw {
        return 0.0;
    }
    match (analytic, throughput) {
        (Some(a), _) => a,
        (None, Some(t)) => bytes as f64 / t,
        _ => measured,
    }
}

/// Charge a whole compression/decompression phase at once — the phase-level
/// mirror of [`chunk_codec_seconds`], so the timeline and the ledger always
/// agree. Raw callers pass `measured = 0`. Returns the seconds charged.
fn charge_codec(
    ledger: &mut TimingLedger,
    phase: &str,
    measured: f64,
    bytes: u64,
    throughput: Option<f64>,
    analytic: Option<f64>,
) -> f64 {
    let seconds = chunk_codec_seconds(false, measured, bytes, throughput, analytic);
    ledger.add_time(phase, seconds);
    ledger.add_bytes(phase, bytes);
    seconds
}

/// Settle one freshly compressed chunk lease before it is begin-sent.
///
/// If the chunk outgrew the capacity leased at take time, the mid-fill `Vec`
/// growth was a real heap reallocation the pool counters cannot see; it is
/// counted **exactly once**, here, as the returned grown bytes. The chunk is
/// then *retried* into a right-sized lease — the simulated analogue of
/// re-posting a send whose registered buffer was too small — and the
/// abandoned storage recycles through the pool, where it usually serves the
/// retry itself as a *reuse*: the pool's own counters never record the same
/// realloc a second time (the audit behind the warm-up double-count
/// regression test).
fn settle_chunk(ctx: &RankCtx, buf: PooledBuf, cap_at_take: usize) -> (PooledBuf, u64) {
    let grown = buf.capacity().saturating_sub(cap_at_take) as u64;
    if grown == 0 {
        return (buf, 0);
    }
    // Retry: move the already-compressed bytes into a fresh right-sized
    // lease. The pool's take counters record the re-lease as whatever it
    // truly was (a reuse of parked storage, or a genuine allocation); the
    // mid-fill realloc is reported once via `grown` — never both for the
    // same bytes. The grown storage parks on drop and serves later takes.
    let mut fresh = ctx.take_buf(buf.len());
    fresh.extend_from_slice(&buf);
    (fresh, grown)
}

/// Charge one all-to-all of either route, whose α–β time is `total`
/// seconds, `alpha` of them latency. Sequential, the exchange pays `total`.
/// Overlapped, the bandwidth seconds `total − alpha` are split across the
/// chunks in proportion to `weights` and each share queues behind its
/// chunk's `codec_s` on an [`OverlapTimeline`]: the exchange pays `alpha`
/// plus the wire time left exposed, and the hidden rest lands in `phase`'s
/// `overlap_saved` counter. Either way `seconds + overlap_saved` is `total`
/// — overlap changes what hides behind the wire, never its length.
fn charge_a2a(
    ledger: &mut TimingLedger,
    phase: &str,
    (alpha, total): (f64, f64),
    overlapped: bool,
    codec_s: &[f64],
    weights: impl Iterator<Item = usize> + Clone,
) {
    if !overlapped {
        ledger.add_time(phase, total);
        return;
    }
    let beta = (total - alpha).max(0.0);
    let weight_total: f64 = weights.clone().map(|w| w as f64).sum();
    let mut timeline = OverlapTimeline::new();
    for (&codec, w) in codec_s.iter().zip(weights) {
        let wire = if weight_total > 0.0 {
            beta * w as f64 / weight_total
        } else {
            0.0
        };
        timeline.push(codec, wire);
    }
    ledger.add_time(phase, alpha + timeline.exposed_wire());
    ledger.add_overlap_saved(phase, timeline.saved());
}

/// Running marks for the per-phase allocation accounting.
struct AllocMarks {
    pool: PoolStats,
    compress_capacity: u64,
    float: (u64, u64),
}

/// One rank's accounting: the modeled ledger, the wall-clock ledger, the
/// span trace, the allocation counters and the traffic counters, advanced
/// together. Stages charge modeled seconds and bytes to `ledger` directly;
/// [`Accounting::close`] and [`Accounting::close_split`] are the only
/// writers of phase boundaries, so the three timing systems cannot disagree
/// about which phases ran.
struct Accounting<'a> {
    ctx: &'a RankCtx,
    ledger: TimingLedger,
    wall: WallClock,
    obs: Option<ObsState>,
    marks: AllocMarks,
    /// Past warm-up: fresh allocations count against the steady state.
    counting: bool,
    steady_allocated: u64,
    /// `(intra, inter)` tier bytes and un-overlapped virtual seconds of the
    /// network phases under a hierarchical topology; zeros when flat.
    tier_bytes: (u64, u64),
    tier_seconds: (f64, f64),
    /// Per-table `(original, compressed)` payload bytes each [`Dir`]'s
    /// exchange produced on this rank.
    traffic: [Vec<(u64, u64)>; 2],
    /// Bytes each [`Dir`]'s exchange sent to other ranks: every chunk
    /// framed for a peer.
    a2a_sent: [u64; 2],
}

impl<'a> Accounting<'a> {
    /// Start accounting; the wall clock starts here, so setup cost before
    /// the loop is not training time.
    fn new(
        ctx: &'a RankCtx,
        scratch: &PipelineScratch,
        obs: Option<ObsState>,
        num_tables: usize,
    ) -> Self {
        Self {
            ctx,
            ledger: TimingLedger::new(),
            wall: WallClock::new(),
            obs,
            marks: AllocMarks {
                pool: ctx.pool().stats(),
                compress_capacity: scratch.codec.capacity_bytes(),
                float: scratch.float_counters(),
            },
            counting: false,
            steady_allocated: 0,
            tier_bytes: (0, 0),
            tier_seconds: (0.0, 0.0),
            traffic: [vec![(0, 0); num_tables], vec![(0, 0); num_tables]],
            a2a_sent: [0, 0],
        }
    }

    /// Open iteration `iter`'s span and snapshot the baselines of its
    /// metrics row (observability on only).
    fn begin_iteration(&mut self, iter: usize) {
        let Some(o) = self.obs.as_mut() else { return };
        o.modeled_mark = self.ledger.total_seconds();
        o.wall_mark = self.wall.ledger.total_seconds();
        o.comm_seconds_mark = ObsState::comm_seconds(&self.ledger);
        o.wire_bytes_mark = ObsState::wire_bytes(&self.ledger);
        o.tier_bytes_mark = self.tier_bytes;
        o.fwd_mark.copy_from_slice(&self.traffic[Dir::Fwd as usize]);
        o.depth_max = 0;
        o.rec.begin_iteration(iter as u64, o.modeled_mark);
    }

    /// Close iteration `iter`'s span and push its metrics row
    /// (observability on only).
    fn end_iteration(&mut self, iter: usize, ef_residual_norm: f64) {
        let Some(o) = self.obs.as_mut() else { return };
        let now = self.ledger.total_seconds();
        let comm = ObsState::comm_seconds(&self.ledger) - o.comm_seconds_mark;
        let wire = ObsState::wire_bytes(&self.ledger) - o.wire_bytes_mark;
        let mut fwd_orig = 0u64;
        let mut fwd_enc = 0u64;
        o.ratio_buf.clear();
        for (t, &(orig, enc)) in self.traffic[Dir::Fwd as usize].iter().enumerate() {
            let (o0, e0) = o.fwd_mark[t];
            let (d_orig, d_enc) = (orig - o0, enc - e0);
            fwd_orig += d_orig;
            fwd_enc += d_enc;
            o.ratio_buf.push(if d_enc == 0 {
                0.0
            } else {
                d_orig as f64 / d_enc as f64
            });
        }
        let row = MetricsRow {
            iteration: iter as u64,
            modeled_seconds: now - o.modeled_mark,
            wall_seconds: self.wall.ledger.total_seconds() - o.wall_mark,
            comm_seconds: comm,
            wire_bytes: wire,
            intra_bytes: self.tier_bytes.0 - o.tier_bytes_mark.0,
            inter_bytes: self.tier_bytes.1 - o.tier_bytes_mark.1,
            fwd_original_bytes: fwd_orig,
            fwd_encoded_bytes: fwd_enc,
            compression_ratio: if fwd_enc == 0 {
                0.0
            } else {
                fwd_orig as f64 / fwd_enc as f64
            },
            ef_residual_norm,
            effective_bandwidth: if comm > 0.0 { wire as f64 / comm } else { 0.0 },
            channel_depth: o.depth_max,
        };
        o.metrics.push_row(row, &o.ratio_buf);
        o.rec.end_iteration(now);
    }

    fn add_tiers(&mut self, intra_bytes: u64, inter_bytes: u64, (intra_s, inter_s): (f64, f64)) {
        self.tier_bytes.0 += intra_bytes;
        self.tier_bytes.1 += inter_bytes;
        self.tier_seconds.0 += intra_s;
        self.tier_seconds.1 += inter_s;
    }

    /// Fold the allocation activity since the last close into `phase`'s
    /// ledger counters (pool misses, compress-scratch growth, float-recycler
    /// misses, plus `extra_allocated` measured directly by the caller, e.g.
    /// send-lease growth) and into the steady-state counter.
    fn note_alloc(&mut self, phase: &str, scratch: &PipelineScratch, extra_allocated: u64) {
        let marks = &mut self.marks;
        let now = self.ctx.pool().stats();
        let pool_delta = now.since(&marks.pool);
        marks.pool = now;
        let capacity_now = scratch.codec.capacity_bytes();
        let scratch_growth = capacity_now.saturating_sub(marks.compress_capacity);
        marks.compress_capacity = capacity_now;
        let (fa, fr) = scratch.float_counters();
        let float_allocated = fa - marks.float.0;
        let float_reused = fr - marks.float.1;
        marks.float = (fa, fr);
        let allocated =
            pool_delta.allocated_bytes + scratch_growth + float_allocated + extra_allocated;
        // The flag is read once per process; this diagnostic sits inside the
        // very instrumentation that demonstrates the allocation-free loop.
        static ALLOC_DEBUG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        let debug = *ALLOC_DEBUG.get_or_init(|| std::env::var("DLRM_ALLOC_DEBUG").is_ok());
        if debug && allocated > 0 {
            eprintln!(
                "[alloc] rank {} phase {phase}: pool {} scratch {} float {} extra {}",
                self.ctx.rank(),
                pool_delta.allocated_bytes,
                scratch_growth,
                float_allocated,
                extra_allocated
            );
        }
        self.ledger.add_allocated_bytes(phase, allocated);
        self.ledger
            .add_reused_bytes(phase, pool_delta.reused_bytes + float_reused);
        if self.counting {
            self.steady_allocated += allocated;
        }
    }

    /// Close `phase`: everything since the previous close — allocation
    /// activity (plus `extra_alloc`), wall time, and the trace span whose
    /// modeled length is what the stage just charged — is attributed to it.
    /// Wire phases also sample the fabric's channel depth.
    fn close(&mut self, phase: &'static str, scratch: &PipelineScratch, extra_alloc: u64) {
        self.note_alloc(phase, scratch, extra_alloc);
        if let Some(o) = self.obs.as_mut() {
            if matches!(phase, phases::FWD_A2A | phases::BWD_A2A | phases::ALLREDUCE) {
                o.sample_depth(self.ctx);
            }
            o.rec.mark(phase, self.ledger.total_seconds());
        }
        self.wall.mark(phase);
    }

    /// Close `phase`'s share of an exchange window (work run while the
    /// exchange is in flight, see [`Comm::exchange`]): its allocation activity
    /// and wall time go to `phase`, as [`Accounting::close`] would attribute
    /// them, but no trace span is cut. Every window phase is also closed
    /// once per iteration outside the window, so the trace keeps one span
    /// per phase per iteration and the window's work shows inside the
    /// exchange span that contained it.
    fn close_window(&mut self, phase: &'static str, scratch: &PipelineScratch) {
        self.note_alloc(phase, scratch, 0);
        self.wall.mark(phase);
    }

    /// Close a streamed exchange region, where decompression interleaves
    /// with waiting on the wire, as two phases: the `(measured, modeled)`
    /// codec seconds go to `codec_phase` on the wall and modeled clocks, the
    /// rest of the region to `rest_phase`.
    fn close_split(
        &mut self,
        codec_phase: &'static str,
        codec_s: (f64, f64),
        rest_phase: &'static str,
        scratch: &PipelineScratch,
    ) {
        self.note_alloc(codec_phase, scratch, 0);
        if let Some(o) = self.obs.as_mut() {
            o.sample_depth(self.ctx);
            o.mark_split(codec_phase, codec_s, rest_phase, &self.ledger);
        }
        self.wall.mark_split(codec_phase, codec_s.0, rest_phase);
    }
}

/// Checkpoint state of one segment: the codec and its scratch, and the
/// totals [`RankOutcome`] reports
/// ([`RankState::checkpoint`] writes, [`RankState::restore`] reads).
#[derive(Default)]
struct CheckpointWriter {
    codec: Option<GradCodec>,
    scratch: GradScratch,
    taken: usize,
    original_bytes: u64,
    encoded_bytes: u64,
    write_seconds: f64,
    last: Option<RankCheckpoint>,
}

/// Encode `model`'s MLP replica (into rank 0's `part` only: every rank holds
/// the same one) and its `tables`, each at its row width, into `part`.
pub fn encode_model(
    model: &Dlrm,
    tables: &[usize],
    codec: &GradCodec,
    scratch: &mut GradScratch,
    part: &mut RankCheckpoint,
) {
    let mut encode = |data: &[f32], width| EncodedSection::encode(codec, data, width, scratch);
    if part.rank == 0 {
        let mut flat = Vec::new();
        model.flatten_mlp_params_into(&mut flat);
        part.mlp = Some(encode(&flat, flat.len()));
    }
    for &t in tables {
        let w = model.embedding(t).weights();
        part.push_table(t, w.rows(), w.cols(), encode(w.as_slice(), w.cols()));
    }
}

/// Restore the MLP replica and the `owned` tables of `model` from `ckpt`,
/// whatever partition wrote it (sections are keyed by table id).
///
/// # Panics
/// Panics, naming the section, on a missing table, a shape mismatch or a
/// section that does not decode.
pub fn restore_model(model: &mut Dlrm, ckpt: &Checkpoint, owned: &[usize]) {
    let (codec, mut scratch, mut flat) = (ckpt.codec.build(), GradScratch::new(), Vec::new());
    let mut decode = |section: &EncodedSection, what: std::fmt::Arguments, out: &mut Vec<f32>| {
        (section.decode_into(&codec, &mut scratch, out))
            .unwrap_or_else(|e| panic!("checkpoint {what} section: {e}"))
    };
    decode(&ckpt.mlp, format_args!("MLP"), &mut flat);
    model.load_flat_mlp_params(&flat);
    for &t in owned {
        let section = ckpt
            .table(t)
            .unwrap_or_else(|| panic!("checkpoint is missing table {t}"));
        decode(&section.section, format_args!("table {t}"), &mut flat);
        let w = model.embedding_mut(t).weights_mut();
        assert_eq!(
            (section.rows, section.cols),
            (w.rows(), w.cols()),
            "table {t}: checkpoint shape mismatch"
        );
        w.as_mut_slice().copy_from_slice(&flat);
    }
}

/// Per-rank state of the closed-loop runtime controller
/// ([`AdaptiveSetting::Runtime`]); `None` under the bit-exact
/// [`AdaptiveSetting::Static`] path.
///
/// The window boundary itself is the [`ControllerReplica`] serving runs
/// too; this wrapper owns the trainer's side: the window accumulators,
/// probing the candidate codecs on live payloads and charging it, the
/// boundary's controller-phase charge and the window ratios.
struct ControllerState {
    replica: ControllerReplica,
    /// `fwd_traffic` snapshot at the current window's start.
    traffic_mark: Vec<(u64, u64)>,
    /// Codec-phase marks at the window start (ledger seconds/bytes of the
    /// two compress phases), for measured-throughput calibration.
    codec_seconds_mark: f64,
    codec_bytes_mark: u64,
    /// Candidate compression ratios per owned table (local index), probed on
    /// the iteration preceding a window boundary.
    probe_ratios: Vec<Vec<f64>>,
    /// Measured compression ratio over every table per completed window.
    window_ratios: Vec<f64>,
}

impl ControllerState {
    /// The controller state `trainer` asks for; `None` under
    /// [`AdaptiveSetting::Static`].
    fn new(trainer: &TrainerConfig, codecs: &CodecBank) -> Option<Self> {
        let AdaptiveSetting::Runtime {
            window,
            hysteresis,
            eb_control,
        } = trainer.adaptive
        else {
            return None;
        };
        let mut cfg = ControllerConfig::new(window, hysteresis)
            .with_overlap(matches!(trainer.overlap, OverlapSetting::DoubleBuffered));
        if let Some(p) = &trainer.codec_profile {
            cfg = cfg.with_profile(p.clone());
        }
        if let Some(ebc) = eb_control {
            cfg = cfg.with_eb_control(ebc);
        }
        Some(Self {
            replica: ControllerReplica::new(cfg, codecs, trainer.world),
            traffic_mark: vec![(0, 0); codecs.tables()],
            codec_seconds_mark: 0.0,
            codec_bytes_mark: 0,
            probe_ratios: Vec::new(),
            window_ratios: Vec::new(),
        })
    }

    /// True when iteration `iter` should probe the candidate codecs on
    /// live payloads: the next one closes a window.
    fn wants_probe(&self, iter: usize, iterations: usize) -> bool {
        let next = iter + 1;
        next < iterations && self.replica.closes_at(next)
    }

    /// Probe every candidate codec on a [`PROBE_ROWS`] sample of each owned
    /// table's live payload (this rank's own shard of the lookups) and
    /// record the ratios. The compressed byte counts are deterministic; the
    /// probe's time is charged to the controller phase (per-codec analytic
    /// under a profile, measured otherwise).
    fn probe(&mut self, comm: &mut Comm<'_>, owned: &[usize], lookups: &[Matrix]) {
        let (ctx, codecs, dim, profile) = (comm.acct.ctx, &comm.codecs, comm.dim, comm.profile);
        self.probe_ratios.clear();
        let t0 = Instant::now();
        let mut probed_bytes = 0u64;
        let mut profile_seconds = 0.0f64;
        for (local_idx, &t) in owned.iter().enumerate() {
            let matrix = &lookups[local_idx * ctx.world() + ctx.rank()];
            let sample = &matrix.as_slice()[..matrix.len().min(PROBE_ROWS * dim)];
            let mut buf = ctx.take_buf(codecs.max_stream_bytes(t, PROBE_ROWS * dim));
            let scratch = &mut comm.scratch.codec.compress;
            let eb = comm.bounds[t];
            let ratios = self.replica.probe(sample, dim, eb, scratch, &mut buf);
            self.probe_ratios.push(ratios);
            for codec in self.replica.candidates() {
                probed_bytes += (sample.len() * 4) as u64;
                if let Some(p) = profile {
                    profile_seconds += (sample.len() * 4) as f64 / p.throughput(codec.kind()).0;
                }
            }
        }
        charge_codec(
            &mut comm.acct.ledger,
            phases::CONTROLLER,
            t0.elapsed().as_secs_f64(),
            probed_bytes,
            comm.device_throughput.map(|(c, _)| c),
            profile.map(|_| profile_seconds),
        );
        comm.close(phases::CONTROLLER, 0);
    }

    /// Close the window ending at `iter`: fill in this rank's share from
    /// the ledger's compress phases, the forward traffic and the probe, and
    /// close the replica's window, which applies the reselection to the
    /// codec bank (the error-bound scale is read off the controller). The
    /// share exchange is charged to the controller phase; the reselection
    /// goes to the trace.
    fn window_boundary(
        &mut self,
        comm: &mut Comm<'_>,
        iter: usize,
        owned: &[usize],
        degraded: bool,
    ) {
        let (ctx, cost, acct) = (comm.acct.ctx, &comm.link.cost, &mut comm.acct);
        let (ledger, fwd_traffic) = (&mut acct.ledger, &acct.traffic[Dir::Fwd as usize]);
        // Codec throughput over the window, from the ledger's compress
        // phases (deterministic whenever codec time is charged
        // analytically).
        let codec_seconds =
            ledger.seconds(phases::FWD_COMPRESS) + ledger.seconds(phases::BWD_COMPRESS);
        let codec_bytes = ledger.bytes(phases::FWD_COMPRESS) + ledger.bytes(phases::BWD_COMPRESS);
        let candidates = self.replica.candidates().len();
        let share = &mut self.replica.share;
        share.codec_seconds = codec_seconds - self.codec_seconds_mark;
        share.codec_bytes = (codec_bytes - self.codec_bytes_mark) as f64;
        let mut probes = self.probe_ratios.drain(..);
        for &t in owned {
            let mut table = TableObservation {
                table_id: t,
                original_bytes: fwd_traffic[t].0 - self.traffic_mark[t].0,
                compressed_bytes: fwd_traffic[t].1 - self.traffic_mark[t].1,
                candidate_ratios: Vec::new(),
            };
            // A missing probe (no probe iteration ran yet) reports the
            // measured ratio for every candidate: selection then holds.
            table.candidate_ratios = probes
                .next()
                .unwrap_or_else(|| vec![table.measured_ratio(); candidates]);
            share.tables.push(table);
        }

        // ── Decide and apply. A fault-degraded network drops the
        // hysteresis guard so the controller reacts within one window.
        let mean = |sum: f64, n: u64| if n > 0 { sum / n as f64 } else { 0.0 };
        let fallback = cost.config().alltoall_bandwidth;
        let (reselection, observation, stats) =
            (self.replica).close_window(ctx, iter, fallback, mean, degraded, &mut comm.codecs);
        // Charged as extra *bytes*, not an extra collective: the share is
        // a few hundred bytes and rides the α already paid by the
        // iteration's forward all-to-all, so only the bandwidth term is
        // charged here.
        ledger.add_time(
            phases::CONTROLLER,
            cost.bandwidth_time(stats.sent.max(stats.received)),
        );
        ledger.add_bytes(phases::CONTROLLER, (stats.sent + stats.received) as u64);
        let (orig, comp) = (observation.tables.iter()).fold((0, 0), |(o, c), t| {
            (o + t.original_bytes, c + t.compressed_bytes)
        });
        let ratio = if comp > 0 {
            orig as f64 / comp as f64
        } else {
            1.0
        };
        self.window_ratios.push(ratio);

        // ── Roll the window state.
        self.traffic_mark.copy_from_slice(fwd_traffic);
        (self.codec_seconds_mark, self.codec_bytes_mark) = (codec_seconds, codec_bytes);
        if let Some(o) = acct.obs.as_mut() {
            o.note_reselection(&reselection, &acct.ledger);
        }
        comm.close(phases::CONTROLLER, 0);
    }
}

/// The link one iteration's network charges use — derived each iteration
/// from the configured network, the bandwidth trace and any straggler
/// window, never configured on its own. It also picks the exchanges'
/// route: flat, or relayed through node leaders under a hierarchical
/// topology. Both run one [`ChunkedAllToAll`] over the same chunks; the
/// route picks the visiting order and the α–β terms (tabulated in
/// `docs/ARCHITECTURE.md`), and the overlap setting changes only the charge.
#[derive(Clone, Copy)]
struct Link {
    cost: CostModel,
    /// The hierarchical topology and its tiered charge; `None` when flat.
    tiers: Option<(Topology, TieredCostModel)>,
}

impl Link {
    /// Open one exchange on this link's route.
    fn begin<'c>(&self, ctx: &'c RankCtx) -> ChunkedAllToAll<'c> {
        match &self.tiers {
            None => ctx.begin_chunked(),
            Some((topo, _)) => ctx.begin_relayed(topo),
        }
    }

    /// Exchange step `step`'s `(destination, source)`. Flat, chunk k goes to
    /// `rank + k` the moment its compression finishes and the chunk from
    /// `rank − k` is retired k-th, so the codec timeline runs ahead of the
    /// wire; relayed, rank order, since the relay delivers every chunk at
    /// once.
    fn peers(&self, rank: usize, world: usize, step: usize) -> (usize, usize) {
        match self.tiers {
            None => ((rank + step) % world, (rank + world - step) % world),
            Some(_) => (step, step),
        }
    }

    /// Charge a finished exchange's `bytes` to `a2a` through [`charge_a2a`]
    /// on this route's terms. Flat: one α plus the bottleneck direction over
    /// the all-to-all bandwidth, each chunk weighted by its larger
    /// direction. Relayed: the tiered α–β of every phase, also added to the
    /// tier counters, each chunk weighted by the bytes it sent. Returns the
    /// bottleneck-direction bytes the fabric carried and their seconds at
    /// the fabric's bandwidth, which a controller window accumulates.
    fn charge(
        &self,
        acct: &mut Accounting<'_>,
        a2a: &str,
        bytes: &HierExchangeBytes,
        overlapped: bool,
        scratch: &PipelineScratch,
    ) -> (usize, f64) {
        acct.ledger.add_bytes(a2a, bytes.total());
        let fabric = bytes.exchange.sent.max(bytes.exchange.received);
        let (terms, fabric_s) = match &self.tiers {
            None => {
                let (sent, received) = (bytes.exchange.sent, bytes.exchange.received);
                let cost = &self.cost;
                let terms = (cost.config().latency, cost.alltoall_time(sent, received));
                (terms, cost.bandwidth_time(fabric))
            }
            Some((_, tiered)) => {
                let (intra_t, inter_t) = tiered.hier_tier_times(bytes);
                acct.add_tiers(bytes.intra_total(), bytes.inter_total(), (intra_t, inter_t));
                let terms = (tiered.hier_alpha_seconds(), intra_t + inter_t);
                (terms, fabric as f64 / tiered.node_fabric_bandwidth())
            }
        };
        let relayed = self.tiers.is_some();
        let chunks = scratch.chunk_sent.iter().zip(&scratch.chunk_recv);
        charge_a2a(
            &mut acct.ledger,
            a2a,
            terms,
            overlapped,
            &scratch.chunk_codec_s,
            chunks.map(|(&sent, &received)| if relayed { sent } else { sent.max(received) }),
        );
        (fabric, fabric_s)
    }
}

/// The iteration's two embedding exchanges: owners send the distinct rows
/// of each shard's lookups out (forward), and shards send each distinct
/// row's summed gradient home (backward). Both move one row per distinct
/// index of a (table, shard) column.
#[derive(Clone, Copy)]
enum Dir {
    Fwd,
    Bwd,
}

impl Dir {
    /// Ledger phases charged: compress, all-to-all, decompress.
    fn phases(self) -> [&'static str; 3] {
        use phases::*;
        [
            [FWD_COMPRESS, FWD_A2A, FWD_DECOMPRESS],
            [BWD_COMPRESS, BWD_A2A, BWD_DECOMPRESS],
        ][self as usize]
    }
}

/// What one exchange sends and where what arrives goes.
struct Direction<B, X, S> {
    dir: Dir,
    /// `(table, distinct rows, shard rows)` blocks of the chunk bound for a
    /// destination, in ascending table order. Send leases are sized for the
    /// shard's full row count, so a lease request stays the same every
    /// iteration however few rows the payload carries.
    blocks: B,
    /// The index each arriving `(table, source)` block is checked against
    /// (the block carries one row per distinct index of it), or `None` for a
    /// table the receiver does not expect from that source.
    index: X,
    /// Receives each delivered `(table, source, distinct rows × dim matrix)`.
    sink: S,
}

/// An owner's distinct-row index of every shard's column of each table it
/// owns, rebuilt in every lookup phase. The forward exchange sends each
/// index's distinct rows; the backward exchange checks the shard's summed
/// gradient block against the same index, and the update applies it through
/// the index's distinct rows.
#[derive(Default)]
struct ShardIndices {
    /// Position of each table among the owned ones (`None` if not owned).
    local: Vec<Option<usize>>,
    world: usize,
    /// One index per `(owned table, shard)`, at `local * world + shard`.
    indices: Vec<DistinctRows>,
}

impl ShardIndices {
    fn new(owned: &[usize], num_tables: usize, world: usize) -> Self {
        let mut local = vec![None; num_tables];
        for (i, &t) in owned.iter().enumerate() {
            local[t] = Some(i);
        }
        Self {
            local,
            world,
            indices: vec![DistinctRows::new(); owned.len() * world],
        }
    }

    /// Index every shard's column of every owned table.
    fn build(&mut self, owned: &[usize], shards: &[MiniBatch]) {
        for (i, index) in self.indices.iter_mut().enumerate() {
            index.build(&shards[i % self.world].sparse[owned[i / self.world]]);
        }
    }

    /// The index of `shard`'s column of `table`, if this rank owns it.
    fn get(&self, table: usize, shard: usize) -> Option<&DistinctRows> {
        let local = (*self.local.get(table)?)?;
        self.indices.get(local * self.world + shard)
    }

    fn capacity_bytes(&self) -> u64 {
        self.indices.iter().map(DistinctRows::capacity_bytes).sum()
    }
}

/// One rank's side of both embedding exchanges, kept across iterations:
/// the codec bank with this iteration's bounds and link, the send-lease
/// hints, the scratch and the accounting. The model, the dense state and
/// the rows live outside it, so the work an exchange window runs can
/// borrow them while the exchange borrows this.
struct Comm<'a> {
    codecs: CodecBank,
    /// Each table's error bound this iteration: its scheduled base bound
    /// times the controller's scale.
    bounds: Vec<f32>,
    dim: usize,
    profile: Option<&'a CodecProfile>,
    /// `(compress, decompress)` flat device-throughput override.
    device_throughput: Option<(f64, f64)>,
    /// Double-buffered charge: codec seconds hide wire seconds.
    overlapped: bool,
    link: Link,
    /// Send-lease capacity per destination learned from earlier iterations,
    /// one set per [`Dir`], so leases rarely have to grow.
    hints: [Vec<usize>; 2],
    scratch: PipelineScratch,
    acct: Accounting<'a>,
}

impl Comm<'_> {
    /// Close `phase` (see [`Accounting::close`]).
    fn close(&mut self, phase: &'static str, extra_alloc: u64) {
        self.acct.close(phase, &self.scratch, extra_alloc);
    }

    /// The paper's loop, once: compress per-destination chunks straight into
    /// pooled send leases, move them through the link's [`ChunkedAllToAll`],
    /// and decompress what arrives into recycled float storage sized for the
    /// source's full shard. Every route writes byte-identical chunks and
    /// delivers bit-identical matrices — only the charged time differs.
    /// The controller's window `share`, if any, accumulates the wire seen.
    ///
    /// `window` is rank work the exchange does not feed. It runs once the
    /// last chunk is compressed: on the flat route its chunks are then on
    /// the wire, so the work hides under the wait for the peers' chunks; the
    /// relayed route runs it before the first receive blocks on the relay.
    /// It charges and closes its own phases.
    fn exchange<'m, B, I, X, S>(
        &mut self,
        mut dir: Direction<B, X, S>,
        share: Option<&mut WindowShare>,
        window: impl FnOnce(&mut PipelineScratch, &mut Accounting<'_>),
    ) where
        B: Fn(usize) -> I,
        I: Iterator<Item = (usize, &'m Matrix, usize)>,
        X: Fn(usize, usize) -> Option<&'m DistinctRows>,
        S: FnMut(u32, u32, Matrix),
    {
        let (codecs, bounds, link, d) = (&self.codecs, &self.bounds, &self.link, dir.dir as usize);
        let (dim, profile, device_throughput) = (self.dim, self.profile, self.device_throughput);
        let (hints, scratch, acct) = (&mut self.hints[d], &mut self.scratch, &mut self.acct);
        let (ctx, raw) = (acct.ctx, codecs.is_identity());
        let (rank, world) = (ctx.rank(), ctx.world());
        let [compress, a2a, decompress] = dir.dir.phases();
        let mut stream = link.begin(ctx);

        // ── Compress, destination-major, so per-chunk codec seconds can feed
        // the overlap timeline.
        scratch.chunk_codec_s.clear();
        scratch.chunk_sent.clear();
        scratch.chunk_recv.clear();
        let mut original_bytes = 0u64;
        let mut lease_growth = 0u64;
        for step in 0..world {
            let (dst, _) = link.peers(rank, world, step);
            let t0 = Instant::now();
            let worst = payload_chunk_capacity(
                (dir.blocks)(dst).map(|(t, _, rows)| codecs.max_stream_bytes(t, rows * dim)),
            );
            let mut buf = ctx.take_buf(hints[dst].max(worst));
            let cap_at_take = buf.capacity();
            write_varint(&mut buf, (dir.blocks)(dst).count());
            let mut chunk_original = 0u64;
            let mut chunk_profile_s = 0.0f64;
            for (t, matrix, _) in (dir.blocks)(dst) {
                let payload_len = write_payload_group(&mut buf, t, matrix.rows(), |out| {
                    let data = matrix.as_slice();
                    codecs.encode(t, data, dim, bounds[t], &mut scratch.codec, out)
                });
                let raw_bytes = (matrix.len() * 4) as u64;
                chunk_original += raw_bytes;
                if let Some((encode_tput, _)) = profile.and_then(|p| codecs.throughput(t, p)) {
                    chunk_profile_s += raw_bytes as f64 / encode_tput;
                }
                let traffic = &mut acct.traffic[d][t];
                traffic.0 += raw_bytes;
                traffic.1 += payload_len as u64;
            }
            let (buf, grown) = settle_chunk(ctx, buf, cap_at_take);
            lease_growth += grown;
            hints[dst] = hints[dst].max(buf.len());
            scratch.chunk_codec_s.push(chunk_codec_seconds(
                raw,
                t0.elapsed().as_secs_f64(),
                chunk_original,
                device_throughput.map(|(c, _)| c),
                profile.map(|_| chunk_profile_s),
            ));
            scratch
                .chunk_sent
                .push(if dst == rank { 0 } else { buf.len() });
            original_bytes += chunk_original;
            stream.send(dst, buf);
        }
        acct.ledger
            .add_time(compress, scratch.chunk_codec_s.iter().sum::<f64>());
        acct.ledger.add_bytes(compress, original_bytes);
        acct.close(compress, scratch, lease_growth);
        window(scratch, acct);

        // ── Retire each chunk and decompress it in place; its lease drops
        // back to the sender's pool at once. The wire time is charged once
        // the last chunk has retired.
        let mut decompressed_bytes = 0u64;
        let mut profile_s = 0.0f64;
        let mut measured_s = 0.0f64;
        for step in 0..world {
            let (_, src) = link.peers(rank, world, step);
            let chunk = stream.recv(src);
            scratch
                .chunk_recv
                .push(if src == rank { 0 } else { chunk.len() });
            let t0 = Instant::now();
            let origin = ChunkOrigin {
                rank,
                what: a2a,
                src,
            };
            let mut last_table = None;
            for group in origin.check(payload_groups(&chunk)) {
                let group = origin.check(group);
                let fail = |what| origin.fail(FrameError::at(group.offset, what));
                let table = group.table as usize;
                if last_table.is_some_and(|last| table <= last) {
                    fail("tables out of ascending order");
                }
                last_table = Some(table);
                let index = (dir.index)(table, src)
                    .unwrap_or_else(|| fail("a table the receiver does not expect"));
                let rows = index.unique().len();
                if group.rows as usize != rows {
                    fail("group rows differ from the receiver's index");
                }
                let mut values = scratch.take_floats(index.slots().len() * dim);
                let decoded = codecs.decode(
                    table,
                    group.stream,
                    rows * dim,
                    &mut scratch.codec,
                    &mut values,
                );
                if decoded.is_err() {
                    fail("stream does not decode to rows × dim");
                }
                let raw_bytes = (values.len() * 4) as u64;
                decompressed_bytes += raw_bytes;
                if let Some((_, decode_tput)) = profile.and_then(|p| codecs.throughput(table, p)) {
                    profile_s += raw_bytes as f64 / decode_tput;
                }
                (dir.sink)(group.table, src as u32, Matrix::from_vec(rows, dim, values));
            }
            measured_s += t0.elapsed().as_secs_f64();
        }
        let modeled_s = charge_codec(
            &mut acct.ledger,
            decompress,
            if raw { 0.0 } else { measured_s },
            decompressed_bytes,
            device_throughput.map(|(_, d)| d),
            profile.map(|_| profile_s),
        );
        acct.a2a_sent[d] += scratch.chunk_sent.iter().sum::<usize>() as u64;
        let bytes = stream.finish();
        let (fabric, fabric_s) = link.charge(acct, a2a, &bytes, self.overlapped, scratch);
        if let Some(share) = share {
            share.wire_bytes += fabric as f64;
            share.wire_seconds += fabric_s;
        }
        acct.close_split(decompress, (measured_s, modeled_s), a2a, scratch);
    }

    /// Grow the codec scratch to the largest demand an exchange can make of
    /// it: encode and decode every table's full-shard `blocks[t]` at its
    /// bound under its own codec and under each runtime-controller
    /// candidate.
    ///
    /// Blocks of both directions carry however many distinct rows a batch
    /// has, so the warm-up batches need not have shown a codec the largest
    /// block it will see; a later batch with more distinct rows would then
    /// grow the scratch in the steady state.
    fn warm_codec_scratch(&mut self, candidates: &[Box<dyn Compressor>], blocks: &[Matrix]) {
        let scratch = &mut self.scratch.codec;
        let (mut bytes, mut values) = (Vec::new(), Vec::new());
        for (t, block) in blocks.iter().enumerate() {
            let (data, dim, eb) = (block.as_slice(), block.cols(), self.bounds[t]);
            bytes.clear();
            values.clear();
            self.codecs.encode(t, data, dim, eb, scratch, &mut bytes);
            self.codecs
                .decode(t, &bytes, data.len(), scratch, &mut values)
                .expect("a stream this codec just wrote decodes");
            for codec in candidates {
                bytes.clear();
                values.clear();
                codec
                    .compress_into(data, dim, eb, &mut scratch.compress, &mut bytes)
                    .expect("lossy compression of finite training data cannot fail");
                codec
                    .decompress_into(&bytes, &mut scratch.compress, &mut values)
                    .expect("a stream this codec just wrote decodes");
            }
        }
    }
}

/// The dense all-reduce's per-rank state: its codec (with the
/// error-feedback residual; `None` when dense compression is off) and the
/// totals [`RankOutcome`] reports.
#[derive(Default)]
struct Dense {
    codec: Option<GradCompressor>,
    /// The codec's compressed-domain combine price, fixed for the run.
    combine_throughput: Option<f64>,
    traffic: (u64, u64),
    saved_seconds: f64,
    homo_combines: u64,
    homo_combine_seconds: f64,
    homo_saved_seconds: f64,
    /// Capacity of the codec and the reduce staging at the last close, so
    /// their warm-up growth is charged to the ALLREDUCE phase and
    /// steady-state growth would break the zero-allocation test.
    capacity_mark: u64,
}

/// The rows one iteration moves, in storage recycled across iterations.
#[derive(Default)]
struct Rows {
    /// The distinct rows of this rank's own shard per table: what arriving
    /// forward blocks re-expand through and outgoing gradients are summed
    /// through.
    own: Vec<DistinctRows>,
    /// As an owner, the distinct rows of every shard's column of each owned
    /// table.
    shards: ShardIndices,
    /// Capacity of both indices at the last lookup, so their warm-up growth
    /// is charged to the LOOKUP phase.
    capacity_mark: u64,
    /// An owner's lookups, at `[local_idx * world + dst]`.
    lookups: Vec<Matrix>,
    /// This shard's lookups per table, as they arrive.
    slots: Vec<Option<Matrix>>,
    /// This shard's lookups in table order.
    mine: Vec<Matrix>,
    /// This shard's summed gradient rows per table.
    grad_sums: Vec<Matrix>,
    /// Delivered `(table, source, summed rows)` gradient blocks.
    grad_entries: Vec<(u32, u32, Matrix)>,
    /// Per-table bytes of the re-expanded `rows × dim` lookups this shard
    /// received.
    delivered: Vec<u64>,
}

/// One rank's training state for a segment: built once by
/// [`RankState::new`], advanced one iteration at a time by
/// [`RankState::step`] and closed by [`RankState::finish`]. The exchanges
/// borrow `comm` while their windows run on `model` and `dense`.
struct RankState<'a> {
    ctx: &'a RankCtx,
    setup: &'a RankSetup,
    owned: Vec<usize>,
    /// The configured hierarchical topology and its tiered charge, before
    /// any trace or straggler window; `None` when flat.
    hier: Option<(Topology, TieredCostModel)>,
    model: Dlrm,
    comm: Comm<'a>,
    dense: Dense,
    rows: Rows,
    /// Closed-loop runtime controller (`None` under the bit-exact `Static`
    /// path).
    controller: Option<ControllerState>,
    checkpoints: CheckpointWriter,
    per_iteration: Vec<EvalMetrics>,
}

impl<'a> RankState<'a> {
    /// Build everything the iterations reuse; the wall clock starts here.
    fn new(ctx: &'a RankCtx, setup: &'a RankSetup) -> Self {
        let (rank, world) = (ctx.rank(), ctx.world());
        assert_eq!(world, setup.trainer.world, "cluster/config world mismatch");
        let (trainer, dataset, seg) = (&setup.trainer, &setup.dataset, &setup.segment);
        assert!(
            seg.start <= seg.end && seg.end <= trainer.iterations,
            "segment [{}, {}) out of range for {} iterations",
            seg.start,
            seg.end,
            trainer.iterations
        );
        let num_tables = dataset.num_tables();
        let owned = setup.partition.tables_of(rank).to_vec();
        let codecs = trainer.compression.codec_bank(num_tables);
        let controller = ControllerState::new(trainer, &codecs);
        // Hierarchical topology: both all-to-alls are relayed through node
        // leaders and every network phase is charged by the tiered model.
        // `None` (flat) takes exactly the topology-less code paths.
        let hier = match &trainer.topology {
            TopologySetting::Flat => None,
            TopologySetting::Hierarchical(topo) => Some((*topo, topo.cost_model())),
        };
        let codec = match &trainer.dense_compression {
            DenseCompression::Off => None,
            DenseCompression::Compressed {
                codec,
                error_feedback,
            } => {
                // The classic comparison arm: combine suppressed even for kinds
                // that could, so owner shards always decode → reduce → re-encode.
                let mut state = GradCompressor::new(codec, *error_feedback);
                state.set_allow_combine(false);
                Some(state)
            }
            DenseCompression::Homomorphic {
                codec,
                error_feedback,
            } => Some(GradCompressor::new(codec, *error_feedback)),
        };
        let combine_throughput = codec.as_ref().and_then(|state| {
            let profile =
                (trainer.codec_profile.clone()).unwrap_or_else(CodecProfile::paper_reference);
            state.codec().kind().price(&profile)?.2
        });
        let scratch = PipelineScratch::new(world);
        // Observability (`ObsSetting::On` only): the span ring and metrics
        // series are sized to the segment up front, so recording in the loop
        // never allocates. The clock domain follows the executor — modeled
        // (deterministic) timestamps under the sequential gate, wall timestamps
        // under free-running threads.
        let obs = trainer.obs.is_enabled().then(|| {
            let clock = trainer.executor.clock_domain();
            ObsState::new(rank, clock, seg.end - seg.start, num_tables)
        });
        let model = Dlrm::new_partial(
            DlrmConfig::from_dataset(dataset),
            trainer.seed,
            Some(&owned),
        );
        let acct = Accounting::new(ctx, &scratch, obs, num_tables);
        Self {
            ctx,
            setup,
            hier,
            model,
            comm: Comm {
                codecs,
                bounds: vec![0.0; num_tables],
                dim: dataset.embedding_dim,
                profile: trainer.codec_profile.as_ref(),
                device_throughput: trainer.device_throughput,
                overlapped: matches!(trainer.overlap, OverlapSetting::DoubleBuffered),
                link: Link {
                    cost: ctx.cost_model(),
                    tiers: hier,
                },
                hints: [vec![64; world], vec![64; world]],
                scratch,
                acct,
            },
            dense: Dense {
                codec,
                combine_throughput,
                ..Default::default()
            },
            rows: Rows {
                own: vec![DistinctRows::new(); num_tables],
                shards: ShardIndices::new(&owned, num_tables, world),
                delivered: vec![0; num_tables],
                ..Default::default()
            },
            controller,
            checkpoints: CheckpointWriter {
                codec: seg.checkpoint.as_ref().map(|s| s.codec.build()),
                ..Default::default()
            },
            per_iteration: Vec::with_capacity(seg.end - seg.start),
            owned,
        }
    }

    /// Restore the checkpoint this segment resumes from (recovery after a
    /// rank loss, or re-sharding onto a resized world): [`restore_model`]
    /// and this rank's residual. The read is setup, not training: the
    /// clocks restart.
    fn restore(&mut self, ckpt: &Checkpoint) {
        let rank = self.ctx.rank();
        restore_model(&mut self.model, ckpt, &self.owned);
        if let (Some(section), Some(state)) = (ckpt.residual_for(rank), self.dense.codec.as_mut()) {
            let (codec, residual) = (ckpt.codec.build(), &mut Vec::new());
            (section.decode_into(&codec, &mut self.checkpoints.scratch, residual))
                .unwrap_or_else(|e| panic!("rank {rank}: checkpoint residual section: {e}"));
            state.load_residual(residual);
        }
        // The restore read is charged at the store bandwidth; every rank
        // reads the full checkpoint's bytes (MLP + all shards stream past).
        let spec = self.setup.segment.checkpoint.as_ref();
        let bandwidth = spec.map_or(CheckpointSpec::DEFAULT_WRITE_BANDWIDTH, |s| {
            s.write_bandwidth
        });
        let ledger = &mut self.comm.acct.ledger;
        ledger.add_time(phases::CHECKPOINT, ckpt.read_seconds(bandwidth));
        ledger.add_bytes(phases::CHECKPOINT, ckpt.encoded_bytes);
        self.comm.acct.wall = WallClock::new();
        if let Some(o) = self.comm.acct.obs.as_mut() {
            let iterations = self.setup.segment.end - self.setup.segment.start;
            *o = ObsState::new(rank, o.rec.clock(), iterations, o.fwd_mark.len());
        }
    }

    /// Snapshot this rank's share of a global checkpoint of the state
    /// `iteration` starts with: [`encode_model`] over the shards this rank
    /// owns, and the dense error-feedback residual, each encoded through
    /// the checkpoint codec, with the store write charged at its modeled
    /// bandwidth.
    fn checkpoint(&mut self, iteration: usize) {
        let spec = (self.setup.segment.checkpoint.as_ref())
            .expect("validated: checkpoints are taken under a spec");
        let ck = &mut self.checkpoints;
        let codec = ck.codec.as_ref().expect("codec built with the spec");
        let t0 = Instant::now();
        let mut part = RankCheckpoint::new(iteration, self.ctx.rank());
        encode_model(&self.model, &self.owned, codec, &mut ck.scratch, &mut part);
        if let Some(residual) = self.dense.codec.as_ref().and_then(GradCompressor::residual) {
            let section = EncodedSection::encode(codec, residual, residual.len(), &mut ck.scratch);
            part.residual = Some(section);
        }
        part.encode_seconds = t0.elapsed().as_secs_f64();

        let write_s = part.write_seconds(spec.write_bandwidth);
        let ck = &mut self.checkpoints;
        ck.taken += 1;
        ck.original_bytes += part.original_bytes();
        ck.encoded_bytes += part.encoded_bytes();
        ck.write_seconds += write_s;
        let scale = self.setup.trainer.compute_time_scale;
        let ledger = &mut self.comm.acct.ledger;
        ledger.add_time(phases::CHECKPOINT, part.encode_seconds * scale + write_s);
        ledger.add_bytes(phases::CHECKPOINT, part.encoded_bytes());
        if let Some(o) = self.comm.acct.obs.as_mut() {
            o.note_checkpoint(part.encoded_bytes(), write_s, &self.comm.acct.ledger);
        }
        ck.last = Some(part);
        self.comm.close(phases::CHECKPOINT, 0);
    }

    /// Charge `started`'s elapsed compute time to `phase`, scaled.
    fn charge_compute(&mut self, phase: &'static str, started: Instant) {
        let scale = self.setup.trainer.compute_time_scale;
        (self.comm.acct.ledger).add_time(phase, started.elapsed().as_secs_f64() * scale);
    }

    /// One iteration: the paper's Figure 3 pipeline with compression around
    /// both all-to-alls, then the MLP all-reduce and the optimizer.
    fn step(&mut self, iter: usize) {
        let setup = self.setup;
        // Warm-up is per segment: a fresh executor (and so fresh pools)
        // backs every segment, so the allocation amnesty restarts with it.
        let local = iter - setup.segment.start;
        self.comm.acct.counting = local >= WARMUP_ITERATIONS;
        self.comm.acct.begin_iteration(iter);
        // ── checkpoint (cadence): snapshot the state this iteration
        // *starts* with.
        let cadence = setup.segment.checkpoint.as_ref().map(|s| s.every);
        if cadence.is_some_and(|every| iter.is_multiple_of(every)) {
            self.checkpoint(iter);
        }
        self.set_link(iter);
        self.reselect(iter);
        // ── input batch: the global batch, one shard per rank. Whichever
        // rank asks first draws it; the modeled clock charges nothing (the
        // paper's data loader is off the critical path), the wall clock
        // does.
        let shards = setup.feed.step(iter, setup.trainer.global_batch);
        let my_shard = &shards[self.ctx.rank()];
        self.comm.close(phases::INPUT, 0);

        self.lookup(&shards);
        let bottom = self.forward_exchange(&shards);

        // ── mlp forward (the rest), metrics, mlp backward (data-parallel).
        let t0 = Instant::now();
        let cache = self.model.forward_top(bottom, &self.rows.mine);
        self.charge_compute(phases::MLP_FWD, t0);
        let metrics = EvalMetrics::from_logits(&cache.logits, &my_shard.labels);
        self.per_iteration.push(metrics);
        if let Some(share) = self.controller.as_mut().map(|c| &mut c.replica.share) {
            share.loss_sum += metrics.loss;
            share.loss_n += 1;
        }
        self.comm.close(phases::MLP_FWD, 0);

        // The gradient of each distinct row of this shard's columns: its
        // samples' gradient rows, summed in sample order. Only the
        // embedding half of the backward pass runs here.
        let t0 = Instant::now();
        let back = self.model.backward_embeddings(&cache, &my_shard.labels);
        for (index, grad) in self.rows.own.iter().zip(&back.embedding_grads) {
            let mut sums = self.comm.scratch.take_floats(grad.len());
            index.sum_rows_into(grad.as_slice(), self.comm.dim, &mut sums);
            let sums = Matrix::from_vec(index.unique().len(), self.comm.dim, sums);
            self.rows.grad_sums.push(sums);
        }
        self.charge_compute(phases::MLP_BWD, t0);
        self.comm.close(phases::MLP_BWD, 0);

        self.backward_exchange(iter, &shards, &cache, back);
        self.update_embeddings();
        self.all_reduce();
        self.optimizer();

        // ── runtime controller (probe): the candidate codecs try this
        // iteration's payloads at the end of warm-up and before each
        // reselection point.
        if local + 1 == WARMUP_ITERATIONS {
            self.end_warm_up();
        } else if (self.controller.as_ref())
            .is_some_and(|c| c.wants_probe(iter, setup.trainer.iterations))
        {
            self.probe();
        }
        // Reclaim the float storage of this iteration's matrices for reuse.
        for m in self.rows.lookups.drain(..).chain(self.rows.mine.drain(..)) {
            self.comm.scratch.put_floats(m.into_vec());
        }
        let ef_norm = (self.dense.codec.as_ref()).map_or(0.0, GradCompressor::residual_norm);
        self.comm.acct.end_iteration(iter, ef_norm);
    }

    /// The link (and therefore every network charge) in effect this
    /// iteration: the static network without a trace — bit for bit the
    /// pre-trace path — or whatever the trace says right now. An active
    /// straggler window further divides the bandwidths by its multiplier
    /// (the slowest rank's link bounds every bulk-synchronous collective);
    /// factor 1.0 skips the rebuild entirely, keeping the no-fault path
    /// bit-identical.
    fn set_link(&mut self, iter: usize) {
        let trainer = &self.setup.trainer;
        let trace = trainer.bandwidth_trace.as_ref();
        let straggler = (trainer.fault.as_ref()).map_or(1.0, |f| f.plan.straggler_factor(iter));
        let acct = &mut self.comm.acct;
        if let Some(o) = acct.obs.as_mut() {
            o.note_straggler(straggler, &acct.ledger);
        }
        let mut cost = match trace {
            None => self.ctx.cost_model(),
            Some(t) => t.cost_model_at(iter),
        };
        if straggler > 1.0 {
            cost = cost.config().degraded(straggler).cost_model();
        }
        let tiers = match (&self.hier, trace) {
            (None, _) => None,
            (Some(pair), None) if straggler <= 1.0 => Some(*pair),
            (Some((topo, _)), t) => {
                let mut topo_iter = match t {
                    None => *topo,
                    Some(tr) => tr.topology_at(topo, iter),
                };
                if straggler > 1.0 {
                    // A straggler drags the node fabric: the inter tier is
                    // where a slow rank's link sits in the two-level model.
                    topo_iter = topo_iter.with_inter(topo_iter.inter().degraded(straggler));
                }
                Some((topo_iter, topo_iter.cost_model()))
            }
        };
        self.comm.link = Link { cost, tiers };
    }

    /// ── runtime controller (reselection point): close the previous window,
    /// exchange observations, and apply the controller's revisions before
    /// any of this iteration's compression runs (so every rank flips codecs
    /// on the same iteration). Then set each table's error bound.
    fn reselect(&mut self, iter: usize) {
        let plan = self.setup.trainer.fault.as_ref().map(|f| &f.plan);
        if let Some(state) = self
            .controller
            .as_mut()
            .filter(|s| s.replica.closes_at(iter))
        {
            let degraded = plan.is_some_and(|p| p.degraded_at(iter));
            state.window_boundary(&mut self.comm, iter, &self.owned, degraded);
        }
        if let Some(schedule) = self.setup.trainer.compression.schedule() {
            let scale =
                (self.controller.as_ref()).map_or(1.0, |c| c.replica.controller().eb_scale());
            let Comm { codecs, bounds, .. } = &mut self.comm;
            for (t, eb) in bounds.iter_mut().enumerate() {
                *eb = schedule.error_bound_at(codecs.kind(t).error_bound(), iter) * scale;
            }
        }
    }

    /// ── embedding lookup: every rank indexes its own shard's columns, and
    /// owners every shard's column of their tables; owners look up the
    /// distinct rows for every destination shard, into float storage
    /// recycled from the previous iteration and sized for the full shard.
    fn lookup(&mut self, shards: &[MiniBatch]) {
        let t0 = Instant::now();
        let (rows, scratch, dim) = (&mut self.rows, &mut self.comm.scratch, self.comm.dim);
        for (index, column) in rows.own.iter_mut().zip(&shards[self.ctx.rank()].sparse) {
            index.build(column);
        }
        rows.shards.build(&self.owned, shards);
        for &t in &self.owned {
            for (s, shard) in shards.iter().enumerate() {
                let storage = scratch.take_floats(shard.batch_size() * dim);
                let unique = rows.shards.get(t, s).expect("an owned table").unique();
                (rows.lookups).push(self.model.lookup_with_storage(t, unique, storage));
            }
        }
        self.charge_compute(phases::LOOKUP, t0);
        let rows = &mut self.rows;
        let capacity = (rows.own.iter().map(DistinctRows::capacity_bytes)).sum::<u64>()
            + rows.shards.capacity_bytes();
        let extra_alloc = capacity.saturating_sub(rows.capacity_mark);
        rows.capacity_mark = capacity;
        self.comm.close(phases::LOOKUP, extra_alloc);
    }

    /// ── fwd compression → fwd all-to-all → fwd decompression: every owner
    /// sends each shard the distinct rows of its tables' lookups, and every
    /// shard re-expands them from its own indices. The bottom MLP needs no
    /// lookup: it runs while the rows are on the wire.
    fn forward_exchange(&mut self, shards: &[MiniBatch]) -> BottomForward {
        let (world, dim) = (self.ctx.world(), self.comm.dim);
        let (partition, compute_scale) =
            (&self.setup.partition, self.setup.trainer.compute_time_scale);
        let (owned, own, lookups, model) =
            (&self.owned, &self.rows.own, &self.rows.lookups, &self.model);
        let (slots, delivered) = (&mut self.rows.slots, &mut self.rows.delivered);
        slots.clear();
        slots.resize_with(own.len(), || None);
        let my_shard = &shards[self.ctx.rank()];
        let mut bottom = None;
        self.comm.exchange(
            Direction {
                dir: Dir::Fwd,
                blocks: |dst: usize| {
                    let rows = shards[dst].batch_size();
                    (owned.iter().enumerate())
                        .map(move |(local_idx, &t)| (t, &lookups[local_idx * world + dst], rows))
                },
                index: |table, src| own.get(table).filter(|_| partition.owner_of(table) == src),
                sink: |table, _src, rows: Matrix| {
                    let index = &own[table as usize];
                    let mut values = rows.into_vec();
                    index.expand_in_place(&mut values, dim);
                    delivered[table as usize] += (values.len() * 4) as u64;
                    let lookup = Matrix::from_vec(index.slots().len(), dim, values);
                    slots[table as usize] = Some(lookup);
                },
            },
            self.controller.as_mut().map(|c| &mut c.replica.share),
            |scratch, acct| {
                let t0 = Instant::now();
                bottom = Some(model.forward_bottom(&my_shard.dense));
                acct.ledger
                    .add_time(phases::MLP_FWD, t0.elapsed().as_secs_f64() * compute_scale);
                acct.close_window(phases::MLP_FWD, scratch);
            },
        );
        self.rows.mine.extend(
            (self.rows.slots.drain(..).enumerate())
                .map(|(t, m)| m.unwrap_or_else(|| panic!("no lookup received for table {t}"))),
        );
        bottom.expect("the forward window ran the bottom MLP")
    }

    /// ── bwd compression → bwd all-to-all → bwd decompression: every shard
    /// sends each table's summed gradient rows home to its owner — the
    /// forward exchange, mirrored. Its window runs what no embedding
    /// gradient depends on: the MLP weight gradients, the all-reduce input
    /// (error feedback re-injects what compression lost so far), and the
    /// next global batch. Every rank has passed this step's forward
    /// exchange, so no rank still holds the step before it, whose slot the
    /// next step recycles.
    fn backward_exchange(
        &mut self,
        iter: usize,
        shards: &[MiniBatch],
        cache: &DenseCache,
        back: EmbeddingBackward,
    ) {
        let setup = self.setup;
        let (model, dense) = (&self.model, &mut self.dense.codec);
        let compute_scale = setup.trainer.compute_time_scale;
        let window = |scratch: &mut PipelineScratch, acct: &mut Accounting<'_>| {
            let t0 = Instant::now();
            let weights = model.backward_weights(cache, back);
            acct.ledger
                .add_time(phases::MLP_BWD, t0.elapsed().as_secs_f64() * compute_scale);
            model.flatten_mlp_grads_into(&weights, &mut scratch.flat_grads);
            if let Some(state) = dense.as_mut() {
                state.compensate(&mut scratch.flat_grads);
            }
            acct.close_window(phases::MLP_BWD, scratch);
            if iter + 1 < setup.segment.end {
                setup.feed.prefetch(iter + 1, setup.trainer.global_batch);
            }
            acct.close_window(phases::INPUT, scratch);
        };
        let (sums, shard_index) = (&self.rows.grad_sums, &self.rows.shards);
        let (grad_entries, shard_rows) = (
            &mut self.rows.grad_entries,
            shards[self.ctx.rank()].batch_size(),
        );
        self.comm.exchange(
            Direction {
                dir: Dir::Bwd,
                // `tables_of` is sorted ascending.
                blocks: |owner| {
                    (setup.partition.tables_of(owner).iter())
                        .map(move |&t| (t, &sums[t], shard_rows))
                },
                index: |table, src| shard_index.get(table, src),
                sink: |table, src, grad| grad_entries.push((table, src, grad)),
            },
            self.controller.as_mut().map(|c| &mut c.replica.share),
            window,
        );
        for m in self.rows.grad_sums.drain(..) {
            self.comm.scratch.put_floats(m.into_vec());
        }
    }

    /// ── embedding update: one row per distinct index of each shard's
    /// column, per table in source-rank order for determinism (tables are
    /// independent, so cross-table order is irrelevant).
    fn update_embeddings(&mut self) {
        let t0 = Instant::now();
        let rows = &mut self.rows;
        rows.grad_entries.sort_unstable_by_key(|&(t, s, _)| (t, s));
        for (table, src, grad) in rows.grad_entries.drain(..) {
            self.model.apply_embedding_grad(
                table as usize,
                (rows.shards.get(table as usize, src as usize))
                    .expect("an owned table")
                    .unique(),
                &grad,
                self.setup.trainer.learning_rate,
            );
            self.comm.scratch.put_floats(grad.into_vec());
        }
        self.charge_compute(phases::EMB_UPDATE, t0);
        self.comm.close(phases::EMB_UPDATE, 0);
    }

    /// ── mlp all-reduce: sum the MLP gradients (flattened and compensated
    /// in the backward window).
    fn all_reduce(&mut self) {
        let (ctx, world, rank) = (self.ctx, self.ctx.world(), self.ctx.rank());
        let (link, scratch, acct) = (&self.comm.link, &mut self.comm.scratch, &mut self.comm.acct);
        let (cost, dense) = (&link.cost, &mut self.dense);
        // Raw (uncompressed-schedule) charge on this cluster shape — the
        // baseline `dense_saved_seconds` compares against: the flat ring
        // formula, or the tiered charge of the same schedule's analytic
        // per-tier volume under a hierarchical topology.
        let raw_time = match &link.tiers {
            None => cost.allreduce_time(scratch.flat_grads.len() * 4, world),
            Some((topo, tiered)) => {
                let (ri, re) = allreduce_tier_bytes(scratch.flat_grads.len(), topo, rank);
                let (ti, te) = tiered.allreduce_tier_times(ri, re);
                ti + te
            }
        };
        // The collective rebuilds the error-feedback residual from the bytes
        // it actually sends. `Off` reduces through the lossless codec: bit
        // for bit the plain rank-order sum.
        let mut lossless = RawF32Codec;
        let codec: &mut dyn ReduceCodec = match dense.codec.as_mut() {
            Some(state) => state,
            None => &mut lossless,
        };
        // A combine-capable codec on a hierarchy takes the leader-combined
        // schedule (one aggregate per node pair over the inter tier); every
        // other pairing the direct one, its bytes bucketed by tier (a flat
        // cluster is a single tier).
        let (topo, relayed) = match &link.tiers {
            Some((topo, _)) => (*topo, codec.is_homomorphic()),
            None => (Topology::flat(world, cost.config()), false),
        };
        let all_reduce = if relayed {
            RankCtx::all_reduce_homomorphic_hier
        } else {
            RankCtx::all_reduce_compressed_tiered
        };
        let tiered = all_reduce(
            ctx,
            &mut scratch.flat_grads,
            codec,
            &mut scratch.dense_reduce,
            &topo,
        );
        let stats = tiered.stats;
        // Wire charge: the tiered charge under a hierarchy; flat, the ring
        // formula for `Off` and the measured wire bytes for a codec.
        let mut ar_time = match &link.tiers {
            Some((_, tiered_cost)) => {
                let (ti, te) = tiered_cost.allreduce_tier_times(tiered.intra, tiered.inter);
                acct.add_tiers(
                    (tiered.intra.sent + tiered.intra.received) as u64,
                    (tiered.inter.sent + tiered.inter.received) as u64,
                    (ti, te),
                );
                ti + te
            }
            None if dense.codec.is_none() => raw_time,
            None => cost.allreduce_wire_time(stats.wire.sent, stats.wire.received, world),
        };
        // Codec time: charged under a device-throughput override (the same
        // convention the a2a codecs use for the breakdown experiments);
        // without one the codec is treated as hidden behind the reduction
        // arithmetic. The charge follows the work the collective actually
        // performed — the stats carry the raw f32 bytes pushed through
        // encode and decode, so the classic schedule charges
        // V/Tc + ((P−1)·own + V)/Td, while the homomorphic schedule's
        // eliminated owner-shard decodes vanish from the bill and a
        // compressed-domain combine term (encoded bytes folded, at the
        // codec's combine price) appears in its place under
        // [`phases::COMBINE`].
        let mut combine_seconds = 0.0f64;
        if let (Some(_), Some((tc, td))) = (dense.codec.as_ref(), self.comm.device_throughput) {
            ar_time += stats.encoded_bytes as f64 / tc + stats.decoded_bytes as f64 / td;
            if stats.combines > 0 {
                let tm = dense.combine_throughput.unwrap_or(td);
                combine_seconds = stats.combined_bytes as f64 / tm;
                // What the classic counterpart of this schedule would have
                // charged: every element encoded once (V), plus P−1
                // own-shard contribution decodes, the own-shard round-trip
                // and the gathered shards ((P−1)·own + V).
                let volume = (scratch.flat_grads.len() * 4) as f64;
                let own_shard =
                    (shard_range(scratch.flat_grads.len(), world, rank).len() * 4) as f64;
                let classic_decoded = (world as f64 - 1.0) * own_shard + volume;
                dense.homo_saved_seconds += (volume - stats.encoded_bytes as f64) / tc
                    + (classic_decoded - stats.decoded_bytes as f64) / td
                    - combine_seconds;
                dense.homo_combine_seconds += combine_seconds;
                acct.ledger.add_time(phases::COMBINE, combine_seconds);
                acct.ledger
                    .add_bytes(phases::COMBINE, stats.combined_bytes as u64);
            }
        }
        dense.homo_combines += stats.combines as u64;
        dense.saved_seconds += (raw_time - ar_time - combine_seconds).max(0.0);
        dense.traffic.0 += (stats.raw.sent + stats.raw.received) as u64;
        dense.traffic.1 += (stats.wire.sent + stats.wire.received) as u64;
        acct.ledger.add_time(phases::ALLREDUCE, ar_time);
        acct.ledger.add_bytes(
            phases::ALLREDUCE,
            (stats.wire.sent + stats.wire.received) as u64,
        );
        let capacity = dense
            .codec
            .as_ref()
            .map_or(0, GradCompressor::capacity_bytes)
            + scratch.dense_reduce.capacity_bytes();
        let extra_alloc = capacity.saturating_sub(dense.capacity_mark);
        dense.capacity_mark = capacity;
        self.comm.close(phases::ALLREDUCE, extra_alloc);
    }

    /// ── optimizer: average the summed MLP gradients and update the replica.
    fn optimizer(&mut self) {
        let t0 = Instant::now();
        let flat = &mut self.comm.scratch.flat_grads;
        let scale = 1.0 / self.ctx.world() as f32;
        for g in flat.iter_mut() {
            *g *= scale;
        }
        (self.model).apply_flat_mlp_grads(flat, self.setup.trainer.learning_rate);
        self.charge_compute(phases::OPTIMIZER, t0);
        self.comm.close(phases::OPTIMIZER, 0);
    }

    /// Probe the controller's candidate codecs on this iteration's payloads.
    fn probe(&mut self) {
        if let Some(state) = self.controller.as_mut() {
            state.probe(&mut self.comm, &self.owned, &self.rows.lookups);
        }
    }

    /// End of warm-up: probe once, so the probe lease class reaches working
    /// size before the steady-state counters arm; grow the codec scratch to
    /// a full-shard block; and park one extra working set of leases in the
    /// pool. Peers may still hold this iteration's leases when the next
    /// iteration's takes happen (the pipeline only synchronises at the
    /// collectives), and the in-flight amount is bounded by one iteration's
    /// working set — so a second set makes the steady state
    /// deterministically allocation-free regardless of thread timing.
    fn end_warm_up(&mut self) {
        self.probe();
        let candidates = self
            .controller
            .as_ref()
            .map_or(&[][..], |s| s.replica.candidates());
        self.comm.warm_codec_scratch(candidates, &self.rows.mine);

        // Spares come in three size classes matching the three kinds of
        // lease an iteration takes (payload chunks; the exchange's empty
        // frames, which carry no table block and ask for the 64-byte
        // hint floor whenever a rank owns no table; the all-reduce flat
        // buffer). The pool's best-fit policy keeps each class on its
        // own buffers, and the extra sets parked here exceed the
        // worst-case in-flight amount (bounded by one iteration's
        // takes), so no racing take can ever land on an undersized
        // buffer and grow it.
        // Spares must cover the worst-case *request* of the compress
        // stages (their takes ask for the codec worst case, not the
        // learned filled size), and the all-reduce's shard leases: raw
        // f32 shards when dense compression is off, else the dense
        // codec's worst case for the largest shard. Shard and payload
        // sizes can sit close together (unlike the old full-vector
        // all-reduce), so best-fit could let one class steal the
        // other's spares and leave a later take to grow a too-small
        // buffer — the large spares are therefore parked at one unified
        // capacity serving both classes.
        let (ctx, world, setup) = (self.ctx, self.ctx.world(), self.setup);
        let comm = &mut self.comm;
        let max_shard_batch = setup.trainer.global_batch.div_ceil(world);
        let max_tables = (0..world)
            .map(|owner| setup.partition.tables_of(owner).len())
            .max()
            .unwrap_or(0);
        let widest_block = (0..comm.bounds.len())
            .map(|t| comm.codecs.max_stream_bytes(t, max_shard_batch * comm.dim))
            .max()
            .unwrap_or(0);
        let payload_cap = (comm.hints.iter().flatten().copied().max().unwrap_or(64)).max(
            payload_chunk_capacity(std::iter::repeat_n(widest_block, max_tables)),
        );
        let largest_shard = shard_range(comm.scratch.flat_grads.len(), world, 0).len();
        let dense_cap =
            (self.dense.codec.as_ref()).map_or(0, |s| s.max_encoded_bytes(largest_shard));
        let big_cap = payload_cap.max((largest_shard * 4).max(64).max(dense_cap));
        let mut spares: Vec<PooledBuf> = Vec::with_capacity(9 * world);
        // 3·world for the two a2a compress stages plus in-flight chunks,
        // 4·world for the two shard-lease waves per all-reduce
        // (reduce-scatter, then all-gather) with peers holding a wave.
        spares.extend((0..7 * world).map(|_| ctx.take_buf(big_cap)));
        spares.extend((0..2 * world).map(|_| ctx.take_buf(64)));
        drop(spares);
        if let Some((topo, _)) = &self.hier {
            // The relay takes bundle leases bigger than any single chunk.
            // Park a working set sized to the largest bundle any phase can
            // request, so fluctuating compressed sizes never catch the
            // pool short.
            let bundle_cap = relay_lease_capacity(topo, payload_cap);
            let spares: Vec<PooledBuf> = (0..6 * world).map(|_| ctx.take_buf(bundle_cap)).collect();
            drop(spares);
        }
        if let Some(state) = &self.controller {
            // The window-boundary observation exchange takes one
            // share-sized lease per peer; park two sets so a boundary
            // racing peers' in-flight returns never allocates.
            let cap = WindowShare::encoded_len(self.owned.len(), state.replica.candidates().len())
                .max(64);
            let spares: Vec<PooledBuf> = (0..2 * world).map(|_| ctx.take_buf(cap)).collect();
            drop(spares);
        }
        // Parking and warming the codec scratch are warm-up work;
        // exclude them from the steady counters.
        comm.acct.marks.pool = ctx.pool().stats();
        comm.acct.marks.compress_capacity = comm.scratch.codec.capacity_bytes();
    }

    /// Close the run: this rank's outcome.
    fn finish(self) -> RankOutcome {
        let acct = self.comm.acct;
        let [fwd_traffic, bwd_traffic] = acct.traffic;
        let (obs_track, obs_metrics) = match acct.obs {
            None => (None, None),
            Some(o) => (Some(RankTrack::from(o.rec)), Some(o.metrics)),
        };
        let (dense, ck) = (self.dense, self.checkpoints);
        RankOutcome {
            rank: self.ctx.rank(),
            per_iteration: self.per_iteration,
            ledger: acct.ledger,
            wall: acct.wall.into_ledger(),
            fwd_traffic,
            fwd_delivered: self.rows.delivered,
            bwd_traffic,
            a2a_sent: (acct.a2a_sent[0], acct.a2a_sent[1]),
            pool_stats: self.ctx.pool().stats(),
            steady_state_allocated_bytes: acct.steady_allocated,
            dense_traffic: dense.traffic,
            dense_saved_seconds: dense.saved_seconds,
            dense_residual_norm: dense
                .codec
                .as_ref()
                .map_or(0.0, GradCompressor::residual_norm),
            homo_combines: dense.homo_combines,
            homo_combine_seconds: dense.homo_combine_seconds,
            homo_saved_seconds: dense.homo_saved_seconds,
            tier_bytes: acct.tier_bytes,
            tier_seconds: acct.tier_seconds,
            reselections: (self.controller.as_ref())
                .map_or_else(Vec::new, |s| s.replica.controller().log().to_vec()),
            window_ratios: self.controller.map_or_else(Vec::new, |s| s.window_ratios),
            last_checkpoint: ck.last,
            checkpoints_taken: ck.taken,
            checkpoint_original_bytes: ck.original_bytes,
            checkpoint_encoded_bytes: ck.encoded_bytes,
            checkpoint_write_seconds: ck.write_seconds,
            obs_track,
            obs_metrics,
        }
    }
}

/// Run the full training loop on one rank. Must be called from within a
/// [`SimCluster`](dlrm_comm::SimCluster) whose world matches
/// `setup.trainer.world`.
pub fn run_rank(ctx: &RankCtx, setup: &RankSetup) -> RankOutcome {
    let seg = &setup.segment;
    let mut state = RankState::new(ctx, setup);
    if let Some(ckpt) = seg.restore.as_deref() {
        state.restore(ckpt);
    }
    for iter in seg.start..seg.end {
        state.step(iter);
    }
    // ── checkpoint (segment exit): a planned resize checkpoints the final
    // state so the regrown world has an exact restore point at the boundary.
    if seg.checkpoint_at_end {
        state.checkpoint(seg.end);
    }
    state.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompressionSetting;
    use dlrm_comm::frame::read_varint;
    use dlrm_compress::CompressorKind;
    use dlrm_grad::GradCodecKind;
    use proptest::prelude::*;

    /// One payload chunk of raw-fp32 blocks, one value per row, written
    /// the way the exchange stage writes its chunks.
    fn raw_chunk(blocks: &[(u32, Vec<f32>)]) -> Vec<u8> {
        let mut chunk = Vec::new();
        write_varint(&mut chunk, blocks.len());
        let codecs = CodecBank::new(300, GradCodecKind::Identity);
        let mut scratch = GradScratch::new();
        for (table, data) in blocks {
            let t = *table as usize;
            write_payload_group(&mut chunk, t, data.len(), |out| {
                codecs.encode(t, data, 1, 0.0, &mut scratch, out)
            });
        }
        chunk
    }

    /// `(offset, table, rows, stream)` of every group of a chunk.
    type Walked = Vec<(usize, u32, u32, Vec<u8>)>;

    /// Walk `bytes`, turning a panic inside the walker into a test failure
    /// that names the input (the vendored proptest does not shrink).
    fn walk(bytes: &[u8], seed: u64) -> Result<Walked, FrameError> {
        std::panic::catch_unwind(|| {
            payload_groups(bytes)?
                .map(|g| g.map(|g| (g.offset, g.table, g.rows, g.stream.to_vec())))
                .collect()
        })
        .unwrap_or_else(|_| panic!("payload_groups panicked: seed {seed:#x}, bytes {bytes:?}"))
    }

    #[test]
    fn block_encoding_roundtrips() {
        let blocks = vec![
            (0u32, vec![1.0f32, 2.0, 3.0]),
            (7u32, vec![-0.5]),
            (25u32, (0..255).map(|i| i as f32).collect()),
        ];
        let walked: Vec<(u32, u32, Vec<u8>)> = (walk(&raw_chunk(&blocks), 0).unwrap())
            .into_iter()
            .map(|(_, t, rows, stream)| (t, rows, stream))
            .collect();
        let expected: Vec<(u32, u32, Vec<u8>)> = blocks
            .iter()
            .map(|(t, d)| {
                (
                    *t,
                    d.len() as u32,
                    d.iter().flat_map(|v| v.to_le_bytes()).collect(),
                )
            })
            .collect();
        assert_eq!(walked, expected);
        assert_eq!(walk(&raw_chunk(&[]), 0), Ok(vec![]));
        // Trailing bytes after the announced groups are an error too.
        let chunk = raw_chunk(&blocks[..1]);
        let mut long = chunk.clone();
        long.push(0);
        assert_eq!(
            walk(&long, 0),
            Err(FrameError::at(
                chunk.len(),
                "trailing bytes after the last group"
            ))
        );
    }

    proptest! {
        /// The walker is total on the chunks the exchange writes: every
        /// proper prefix is an error, and a flipped bit in the group count
        /// or in any group's table, rows or length varint is an error or a
        /// different walk — never a panic.
        #[test]
        fn payload_walker_is_total_on_training_chunks(
            blocks in prop::collection::vec(
                (0u32..300, prop::collection::vec(-1.0f32..1.0, 1..40)),
                0..5,
            ),
            seed in any::<u64>(),
        ) {
            let chunk = raw_chunk(&blocks);
            let clean = walk(&chunk, seed).expect("a written chunk walks");
            assert_eq!(clean.len(), blocks.len());
            for cut in 0..chunk.len() {
                let err = walk(&chunk[..cut], seed)
                    .expect_err("a truncated chunk must not walk cleanly");
                assert!(
                    err.offset <= cut,
                    "cut {cut}: {err} (seed {seed:#x}, bytes {chunk:?})"
                );
            }
            // Every varint field: the count, then each group's three.
            let mut fields = vec![0usize];
            for &(offset, ..) in &clean {
                let mut at = offset;
                for _ in 0..3 {
                    fields.push(at);
                    read_varint(&chunk, &mut at).expect("a written varint reads");
                }
            }
            for (i, &field) in fields.iter().enumerate() {
                let pick = seed.rotate_right(5 * i as u32) as usize;
                let mut end = field;
                read_varint(&chunk, &mut end).expect("a written varint reads");
                let mut bad = chunk.clone();
                bad[field + pick % (end - field)] ^= 1 << (pick / 8 % 8);
                assert!(
                    walk(&bad, seed) != Ok(clean.clone()),
                    "corrupt field at {field} went unnoticed (seed {seed:#x}, bytes {bad:?})"
                );
            }
        }
    }

    /// Rows per shard, embedding width and table cardinality of the
    /// two-rank forward exchanges below: every column repeats rows.
    const SHARD: usize = 24;
    const DIM: usize = 8;
    const CARD: usize = 11;

    /// Table `t`'s weights and its column of shard `s`, `columns[t][s]`.
    fn two_rank_traffic() -> (Vec<Matrix>, Vec<Vec<Vec<u32>>>) {
        let weights = (0..2)
            .map(|t| {
                Matrix::from_fn(CARD, DIM, |r, c| {
                    ((t * 131 + r * 17 + c * 5) as f32 * 0.37).sin() * 0.8
                })
            })
            .collect();
        let column =
            |t: usize, s: usize| (0..SHARD).map(move |i| ((i / 2 * 3 + 5 * t + s) % CARD) as u32);
        let columns = (0..2)
            .map(|t| (0..2).map(|s| column(t, s).collect()).collect())
            .collect();
        (weights, columns)
    }

    /// Table `t`'s per-sample gradient rows of shard `s`, `grads[t][s]`.
    fn two_rank_grads() -> Vec<Vec<Matrix>> {
        (0..2)
            .map(|t| {
                (0..2)
                    .map(|s| {
                        Matrix::from_fn(SHARD, DIM, |r, c| {
                            ((t * 71 + s * 29 + r * 13 + c * 3) as f32 * 0.53).cos() * 0.3
                        })
                    })
                    .collect()
            })
            .collect()
    }

    fn gather(weights: &Matrix, ids: &[u32]) -> Matrix {
        let values = ids.iter().flat_map(|&i| weights.row(i as usize)).copied();
        Matrix::from_vec(ids.len(), weights.cols(), values.collect())
    }

    fn indexed(column: &[u32]) -> DistinctRows {
        let mut index = DistinctRows::new();
        index.build(column);
        index
    }

    /// `grad`'s rows summed per distinct index of `column`.
    fn summed(column: &[u32], grad: &Matrix) -> Matrix {
        let index = indexed(column);
        let mut sums = Vec::new();
        index.sum_rows_into(grad.as_slice(), DIM, &mut sums);
        Matrix::from_vec(index.unique().len(), DIM, sums)
    }

    /// What `data` decodes to through `setting`'s codec for `table`.
    fn roundtrip(setting: &CompressionSetting, table: usize, data: &Matrix) -> Vec<f32> {
        let codecs = setting.codec_bank(2);
        let eb = codecs.kind(table).error_bound();
        let (mut scratch, mut bytes, mut out) = (GradScratch::new(), Vec::new(), Vec::new());
        codecs.encode(table, data.as_slice(), DIM, eb, &mut scratch, &mut bytes);
        codecs
            .decode(table, &bytes, data.len(), &mut scratch, &mut out)
            .expect("a stream this codec just wrote decodes");
        out
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// One exchange through the stage on this rank of a flat two-rank
    /// cluster: `blocks[dst]` is the `(table, distinct rows)` block sent to
    /// `dst`, and `index(table, src)` what an arriving block is checked
    /// against. Returns every delivered `(table, source, matrix)`.
    fn two_rank_exchange<'m>(
        ctx: &RankCtx,
        setting: &CompressionSetting,
        blocks: &'m [(usize, Matrix)],
        index: impl Fn(usize, usize) -> Option<&'m DistinctRows>,
    ) -> Vec<(u32, u32, Matrix)> {
        let codecs = setting.codec_bank(2);
        let scratch = PipelineScratch::new(2);
        let mut comm = Comm {
            bounds: (0..2).map(|t| codecs.kind(t).error_bound()).collect(),
            codecs,
            dim: DIM,
            profile: None,
            device_throughput: None,
            overlapped: false,
            link: Link {
                cost: ctx.cost_model(),
                tiers: None,
            },
            hints: [vec![64; 2], vec![64; 2]],
            acct: Accounting::new(ctx, &scratch, None, 2),
            scratch,
        };
        let mut delivered = Vec::new();
        comm.exchange(
            Direction {
                dir: Dir::Fwd,
                blocks: |dst: usize| {
                    let (table, block) = &blocks[dst];
                    std::iter::once((*table, block, SHARD))
                },
                index,
                sink: |t, src, m| delivered.push((t, src, m)),
            },
            None,
            |_, _| {},
        );
        delivered
    }

    /// One forward exchange, rank `t` owning table `t`: each owner looks up
    /// the distinct rows of every shard's column and sends them, and each
    /// shard re-expands them from its own index. Returns, per rank, the
    /// matrix it was delivered for each table.
    fn forward_exchange(setting: &CompressionSetting) -> Vec<Vec<Matrix>> {
        use dlrm_comm::{NetworkConfig, SimCluster};
        let setting = setting.clone();
        SimCluster::new(2, NetworkConfig::infinite()).run(move |ctx| {
            let rank = ctx.rank();
            let (weights, columns) = two_rank_traffic();
            let own: Vec<DistinctRows> = (0..2).map(|t| indexed(&columns[t][rank])).collect();
            let lookups: Vec<(usize, Matrix)> = (0..2)
                .map(|s| {
                    let unique = indexed(&columns[rank][s]).unique().to_vec();
                    (rank, gather(&weights[rank], &unique))
                })
                .collect();
            let mut delivered: Vec<Option<Matrix>> = vec![None, None];
            for (t, _, rows) in two_rank_exchange(&ctx, &setting, &lookups, |t, _| own.get(t)) {
                let mut values = rows.into_vec();
                own[t as usize].expand_in_place(&mut values, DIM);
                delivered[t as usize] = Some(Matrix::from_vec(SHARD, DIM, values));
            }
            delivered
                .into_iter()
                .map(|m| m.expect("a block per table"))
                .collect()
        })
    }

    /// One backward exchange, rank `t` owning table `t`: each shard sums its
    /// gradient rows per distinct index of its own column and sends them
    /// home. Returns, per owner, the `(table, source, summed rows)` it was
    /// delivered.
    fn backward_exchange(setting: &CompressionSetting) -> Vec<Vec<(u32, u32, Matrix)>> {
        use dlrm_comm::{NetworkConfig, SimCluster};
        let setting = setting.clone();
        SimCluster::new(2, NetworkConfig::infinite()).run(move |ctx| {
            let rank = ctx.rank();
            let (_, columns) = two_rank_traffic();
            let grads = two_rank_grads();
            let sums: Vec<(usize, Matrix)> = (0..2)
                .map(|t| (t, summed(&columns[t][rank], &grads[t][rank])))
                .collect();
            let peers: Vec<DistinctRows> = (0..2).map(|s| indexed(&columns[rank][s])).collect();
            two_rank_exchange(&ctx, &setting, &sums, |_, src| peers.get(src))
        })
    }

    #[test]
    fn forward_exchange_is_the_full_row_exchange_under_pointwise_codecs() {
        let (weights, columns) = two_rank_traffic();
        for setting in [
            CompressionSetting::None,
            CompressionSetting::Fp16,
            CompressionSetting::Fp8,
            CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
            CompressionSetting::fixed(0.02, CompressorKind::OursVector),
            CompressionSetting::fixed(0.02, CompressorKind::FzLike),
        ] {
            for (rank, delivered) in forward_exchange(&setting).iter().enumerate() {
                for (t, got) in delivered.iter().enumerate() {
                    // What one row per sample through the same codec decodes to.
                    let want = roundtrip(&setting, t, &gather(&weights[t], &columns[t][rank]));
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(&want),
                        "{}: rank {rank} table {t}",
                        setting.label()
                    );
                }
            }
        }
    }

    #[test]
    fn backward_exchange_sums_each_distinct_row() {
        let (_, columns) = two_rank_traffic();
        let grads = two_rank_grads();
        for setting in [
            CompressionSetting::None,
            CompressionSetting::Fp16,
            CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        ] {
            for (owner, delivered) in backward_exchange(&setting).iter().enumerate() {
                assert_eq!(
                    delivered.len(),
                    2,
                    "{}: a block per source",
                    setting.label()
                );
                for (table, src, got) in delivered {
                    let (t, s) = (*table as usize, *src as usize);
                    assert_eq!(t, owner);
                    let sum = summed(&columns[t][s], &grads[t][s]);
                    assert!(sum.rows() < SHARD, "the column repeats rows");
                    assert_eq!((got.rows(), got.cols()), (sum.rows(), DIM));
                    let want = match setting {
                        CompressionSetting::None => sum.as_slice().to_vec(),
                        _ => roundtrip(&setting, t, &sum),
                    };
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(&want),
                        "{}: table {t} from rank {s}",
                        setting.label()
                    );
                }
            }
        }
    }

    #[test]
    fn backward_exchange_keeps_sz_like_within_the_bound() {
        let eb = 0.02f32;
        let (_, columns) = two_rank_traffic();
        let grads = two_rank_grads();
        let setting = CompressionSetting::fixed(eb, CompressorKind::SzLike);
        for delivered in backward_exchange(&setting) {
            for (table, src, got) in delivered {
                let (t, s) = (table as usize, src as usize);
                let sum = summed(&columns[t][s], &grads[t][s]);
                assert_eq!((got.rows(), got.cols()), (sum.rows(), DIM));
                for (i, (a, b)) in got.as_slice().iter().zip(sum.as_slice()).enumerate() {
                    assert!(
                        (a - b).abs() <= eb * 1.0001,
                        "table {t} from rank {s} value {i}: {a} vs summed {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn applying_summed_rows_is_the_per_sample_update() {
        use dlrm_model::EmbeddingTable;
        use dlrm_tensor::SeededRng;
        let lr = 0.05;
        let (_, columns) = two_rank_traffic();
        let grads = two_rank_grads();
        for (owner, delivered) in backward_exchange(&CompressionSetting::None)
            .into_iter()
            .enumerate()
        {
            let initial = EmbeddingTable::new(owner, CARD, DIM, &mut SeededRng::new(3));
            let (mut per_sample, mut per_row) = (initial.clone(), initial.clone());
            for (_, src, sum) in delivered {
                let column = &columns[owner][src as usize];
                per_sample.apply_sparse_grad(column, &grads[owner][src as usize], lr);
                per_row.apply_sparse_grad(indexed(column).unique(), &sum, lr);
            }
            let weights = |table: &EmbeddingTable| table.weights().as_slice().to_vec();
            let (w0, a, b) = (weights(&initial), weights(&per_sample), weights(&per_row));
            for (i, ((x, y), w)) in a.iter().zip(&b).zip(&w0).enumerate() {
                // Relative to the largest value the updates passed through.
                let scale = x.abs().max(y.abs()).max(w.abs());
                assert!(
                    (x - y).abs() <= 1e-6 * scale,
                    "owner {owner} weight {i}: per-sample {x} vs summed {y}"
                );
            }
        }
    }

    #[test]
    fn forward_exchange_keeps_sz_like_within_the_bound_once_re_expanded() {
        // SZ-like's Lorenzo predictor couples neighbouring values, so the
        // distinct-row block decodes to other bits than the full one would;
        // the bound must still hold value by value.
        let eb = 0.02f32;
        let (weights, columns) = two_rank_traffic();
        let setting = CompressionSetting::fixed(eb, CompressorKind::SzLike);
        for (rank, delivered) in forward_exchange(&setting).iter().enumerate() {
            for (t, got) in delivered.iter().enumerate() {
                let full = gather(&weights[t], &columns[t][rank]);
                assert_eq!((got.rows(), got.cols()), (SHARD, DIM));
                for (i, (a, b)) in got.as_slice().iter().zip(full.as_slice()).enumerate() {
                    assert!(
                        (a - b).abs() <= eb * 1.0001,
                        "rank {rank} table {t} value {i}: {a} vs owner's {b}"
                    );
                }
            }
        }
    }

    /// Each rank of a flat two-rank cluster sends a 3-row block of table
    /// `rank` to both ranks, and checks what arrives from `src` against
    /// `index(table, src)`.
    fn checked_exchange(
        index: impl Fn(&[DistinctRows], usize, usize) -> Option<&DistinctRows> + Send + Sync + 'static,
    ) {
        use dlrm_comm::{NetworkConfig, SimCluster};
        SimCluster::new(2, NetworkConfig::infinite()).run(move |ctx| {
            let block = Matrix::from_fn(3, DIM, |r, c| (r * DIM + c) as f32);
            let blocks = [(ctx.rank(), block.clone()), (ctx.rank(), block)];
            // Three distinct rows, and two.
            let indices = [indexed(&[0, 1, 2, 1]), indexed(&[4, 4, 5])];
            two_rank_exchange(&ctx, &CompressionSetting::None, &blocks, |t, src| {
                index(&indices, t, src)
            });
        });
    }

    #[test]
    #[should_panic(
        expected = "rank 0: malformed fwd all-to-all from rank 1: group rows differ from the receiver's index at offset 1"
    )]
    fn a_block_whose_rows_disagree_with_the_index_panics() {
        checked_exchange(|indices, _, src| indices.get(src));
    }

    #[test]
    #[should_panic(
        expected = "rank 0: malformed fwd all-to-all from rank 1: stream does not decode to rows × dim at offset 1"
    )]
    fn a_raw_block_with_trailing_bytes_panics() {
        use dlrm_comm::{NetworkConfig, SimCluster};
        SimCluster::new(2, NetworkConfig::infinite()).run(|ctx| {
            let index = indexed(&[0, 1, 2]);
            if ctx.rank() == 0 {
                let block = Matrix::from_fn(3, DIM, |r, c| (r * DIM + c) as f32);
                let blocks = [(0, block.clone()), (0, block)];
                two_rank_exchange(&ctx, &CompressionSetting::None, &blocks, |_, _| {
                    Some(&index)
                });
                return;
            }
            // Rank 1's raw block of table 1 runs two bytes past its 3 × DIM
            // values.
            let mut send: Vec<PooledBuf> = (0..2)
                .map(|_| {
                    let mut chunk = ctx.take_buf(0);
                    write_varint(&mut chunk, 1);
                    write_payload_group(&mut chunk, 1, 3, |out| {
                        out.resize(out.len() + 3 * DIM * 4 + 2, 0)
                    });
                    chunk
                })
                .collect();
            ctx.all_to_all_pooled(&mut send, &mut Vec::new());
        });
    }

    #[test]
    #[should_panic(
        expected = "rank 0: malformed fwd all-to-all from rank 1: a table the receiver does not expect at offset 1"
    )]
    fn a_block_of_an_unexpected_table_panics() {
        checked_exchange(|indices, table, _| (table == 0).then_some(&indices[0]));
    }

    #[test]
    fn compression_settings_roundtrip_through_the_codec_bank() {
        let data = Matrix::from_fn(8, DIM, |r, c| ((r * DIM + c) as f32 * 0.1).sin() * 0.3);
        let lossy = CompressionSetting::fixed(0.01, CompressorKind::OursHybrid);
        for (setting, kind, tolerance) in [
            (CompressionSetting::None, GradCodecKind::Identity, 0.0),
            (CompressionSetting::Fp16, GradCodecKind::Fp16, 1e-3),
            (CompressionSetting::Fp8, GradCodecKind::Fp8, 0.02),
            (
                lossy,
                GradCodecKind::ErrorBounded {
                    compressor: CompressorKind::OursHybrid,
                    error_bound: 0.01,
                },
                0.0101,
            ),
        ] {
            let codecs = setting.codec_bank(2);
            assert_eq!(codecs.kind(1), &kind);
            assert_eq!(codecs.is_identity(), kind == GradCodecKind::Identity);
            for (a, b) in data.as_slice().iter().zip(&roundtrip(&setting, 1, &data)) {
                assert!(
                    (a - b).abs() <= tolerance,
                    "{}: {a} vs {b}",
                    setting.label()
                );
            }
        }
    }

    #[test]
    fn charge_codec_uses_override_when_present() {
        let mut ledger = TimingLedger::new();
        charge_codec(&mut ledger, "x", 0.5, 1_000_000, None, None);
        assert!((ledger.seconds("x") - 0.5).abs() < 1e-12);
        let mut ledger = TimingLedger::new();
        charge_codec(&mut ledger, "x", 0.5, 1_000_000, Some(1e9), None);
        assert!((ledger.seconds("x") - 1e-3).abs() < 1e-12);
        // A per-codec analytic sum takes precedence over both.
        let mut ledger = TimingLedger::new();
        charge_codec(&mut ledger, "x", 0.5, 1_000_000, Some(1e9), Some(2e-3));
        assert!((ledger.seconds("x") - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn settle_chunk_counts_a_retried_chunks_growth_exactly_once() {
        use dlrm_comm::{NetworkConfig, SimCluster};
        SimCluster::new(1, NetworkConfig::infinite()).run(|ctx| {
            // Chunk that stays within its lease: no retry, nothing counted.
            let mut buf = ctx.take_buf(256);
            let cap = buf.capacity();
            buf.extend_from_slice(&[1u8; 64]);
            let before = ctx.pool().stats();
            let (same, grown) = settle_chunk(&ctx, buf, cap);
            assert_eq!(grown, 0);
            assert_eq!(ctx.pool().stats().since(&before).allocations, 0);
            drop(same);

            // Chunk that outgrows its lease mid-fill: the realloc is
            // reported once (as grown bytes), the retry lease is a separate,
            // pool-visible take — never a second count of the same realloc.
            let mut buf = ctx.take_buf(0);
            let cap_at_take = buf.capacity();
            buf.extend(std::iter::repeat_n(7u8, cap_at_take + 100));
            let len = buf.len();
            let old_capacity = buf.capacity();
            let before = ctx.pool().stats();
            let (retried, grown) = settle_chunk(&ctx, buf, cap_at_take);
            // The mid-fill growth is exactly the capacity delta of the
            // abandoned lease.
            assert_eq!(grown, (old_capacity - cap_at_take) as u64);
            // The retried chunk carries the same bytes.
            assert_eq!(retried.len(), len);
            assert!(retried.iter().all(|&b| b == 7));
            // The pool recorded the retry take once (here as an allocation —
            // the grown lease was still held when the retry was taken; on
            // its next take the parked grown storage is reused instead).
            let delta = ctx.pool().stats().since(&before);
            assert_eq!(delta.allocations + delta.reuses, 1);
            drop(retried);
            // Steady state after the retry: re-leasing the same sizes is
            // allocation-free, so the warm-up growth was a one-time cost.
            let before = ctx.pool().stats();
            let again = ctx.take_buf(len);
            let cap = again.capacity();
            let (again, grown) = settle_chunk(&ctx, again, cap);
            assert_eq!(grown, 0);
            let delta = ctx.pool().stats().since(&before);
            assert_eq!(delta.allocations, 0, "retry double-counted: {delta:?}");
            drop(again);
        });
    }

    #[test]
    fn chunk_codec_seconds_mirrors_charge_codec() {
        // Raw payloads are never charged.
        assert_eq!(
            chunk_codec_seconds(true, 0.5, 1_000_000, Some(1e9), None),
            0.0
        );
        // Measured seconds without an override.
        assert_eq!(chunk_codec_seconds(false, 0.5, 1_000_000, None, None), 0.5);
        // Analytic bytes/throughput with one.
        let s = chunk_codec_seconds(false, 0.5, 1_000_000, Some(1e9), None);
        assert!((s - 1e-3).abs() < 1e-12);
        // The per-codec profile sum wins over the flat override.
        let s = chunk_codec_seconds(false, 0.5, 1_000_000, Some(1e9), Some(4e-3));
        assert!((s - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn overlapped_a2a_charge_exposes_only_unhidden_wire() {
        // 3 peers + self: α = 0.1 ms, β = 3 ms split evenly over the peer
        // chunks, 1 ms of codec per chunk.
        let codec = [1e-3, 1e-3, 1e-3, 1e-3];
        let weights = [0usize, 1000, 1000, 1000];
        let charge = |overlapped| {
            let mut ledger = TimingLedger::new();
            let weights = weights.iter().copied();
            charge_a2a(
                &mut ledger,
                "a2a",
                (1e-4, 1e-4 + 3e-3),
                overlapped,
                &codec,
                weights,
            );
            (ledger.seconds("a2a"), ledger.overlap_saved("a2a"))
        };
        assert_eq!(charge(false), (1e-4 + 3e-3, 0.0));
        // Codec finishes at 1, 2, 3, 4 ms; the wire is busy 2–3, 3–4 and
        // 4–5 ms, so 1 ms of wire is exposed and 2 ms hide behind the codec.
        let (seconds, hidden) = charge(true);
        assert!((seconds - (1e-4 + 1e-3)).abs() < 1e-15, "{seconds}");
        assert!((hidden - 2e-3).abs() < 1e-15, "{hidden}");
        assert!((seconds + hidden - charge(false).0).abs() < 1e-15);
    }
}
