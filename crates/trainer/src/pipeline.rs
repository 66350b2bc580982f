//! The per-rank hybrid-parallel training pipeline.
//!
//! Every rank executes [`run_rank`] inside the simulated cluster. The code is
//! SPMD: all ranks generate the same global batch (a simulation convenience —
//! in the real system the indices arrive via the input pipeline), shard it by
//! rank, and then perform exactly the stages of the paper's Figure 3
//! pipeline, with compression spliced around both all-to-alls.

use crate::config::{
    AdaptiveSetting, CompressionSetting, DenseCompression, OverlapSetting, TopologySetting,
    TrainerConfig,
};
use crate::grad_push::GradPushState;
use crate::partition::TablePartition;
use dlrm_adaptive::controller::{
    ControllerConfig, Reselection, RuntimeController, TableObservation, WindowObservation,
};
use dlrm_adaptive::{advise_dense_allreduce, CodecProfile, DenseAdvice, EbSchedule};
use dlrm_ckpt::{Checkpoint, CheckpointSpec, CkptCodec, RankCheckpoint};
use dlrm_comm::cluster::{
    RankCtx, CHUNK_HEADER_BYTES, HIER_ENTRY_HEADER_BYTES, METADATA_RECORD_BYTES,
};
use dlrm_comm::pool::{PoolStats, PooledBuf};
use dlrm_comm::reduce::{
    allreduce_tier_bytes, shard_range, RawF32Codec, ReduceCodec, ReduceScratch,
};
use dlrm_comm::topology::{HierExchangeBytes, TieredCostModel, Topology};
use dlrm_comm::{CostModel, OverlapTimeline, TimingLedger};
use dlrm_compress::lowprec::{self, Precision};
use dlrm_compress::{CompressScratch, Compressor, CompressorKind};
use dlrm_data::{BatchFeed, DatasetConfig};
use dlrm_grad::GradCompressor;
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

/// The compression setting resolved to something the inner loop can use
/// without matching on the config every time.
pub enum ResolvedCompression {
    /// Raw FP32 payloads.
    Raw,
    /// FP16/FP8 casting.
    LowPrec(Precision),
    /// Error-bounded lossy compression: per-table `(compressor, base error
    /// bound)` plus the shared iteration-wise schedule.
    Lossy {
        /// Compressor and base error bound per table.
        per_table: Vec<(Box<dyn Compressor>, f32)>,
        /// Iteration-wise decay schedule.
        schedule: EbSchedule,
        /// Runtime multiplier on every table's scheduled bound, revised by
        /// the closed-loop controller's loss-plateau signal. Stays exactly
        /// `1.0` under [`AdaptiveSetting::Static`], where multiplying by it
        /// is a bit-exact no-op.
        eb_scale: f32,
    },
}

impl ResolvedCompression {
    /// Resolve a [`CompressionSetting`] for a model with `num_tables` tables.
    pub fn from_setting(setting: &CompressionSetting, num_tables: usize) -> Self {
        match setting {
            CompressionSetting::None => ResolvedCompression::Raw,
            CompressionSetting::Fp16 => ResolvedCompression::LowPrec(Precision::Fp16),
            CompressionSetting::Fp8 => ResolvedCompression::LowPrec(Precision::Fp8E4M3),
            CompressionSetting::FixedLossy {
                error_bound,
                compressor,
                schedule,
            } => ResolvedCompression::Lossy {
                per_table: (0..num_tables)
                    .map(|_| (compressor.build(), *error_bound))
                    .collect(),
                schedule: *schedule,
                eb_scale: 1.0,
            },
            CompressionSetting::Adaptive(plan) => {
                assert_eq!(
                    plan.tables.len(),
                    num_tables,
                    "compression plan does not match the model's table count"
                );
                ResolvedCompression::Lossy {
                    per_table: plan
                        .tables
                        .iter()
                        .map(|t| (t.compressor.build(), t.base_error_bound))
                        .collect(),
                    schedule: plan.schedule,
                    eb_scale: 1.0,
                }
            }
        }
    }

    /// Allocation-free compression of one table's payload (a `rows x dim`
    /// matrix, row-major): *appends* the stream to `out`, drawing
    /// intermediates from `scratch`.
    fn compress_into(
        &self,
        table: usize,
        iter: usize,
        data: &[f32],
        dim: usize,
        scratch: &mut CompressScratch,
        out: &mut Vec<u8>,
    ) {
        match self {
            ResolvedCompression::Raw => {
                out.reserve(data.len() * 4);
                for v in data {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            ResolvedCompression::LowPrec(p) => lowprec::compress_into(data, *p, out),
            ResolvedCompression::Lossy {
                per_table,
                schedule,
                eb_scale,
            } => {
                let (comp, base_eb) = &per_table[table];
                let eb = schedule.error_bound_at(*base_eb, iter) * eb_scale;
                comp.compress_into(data, dim, eb, scratch, out)
                    .expect("lossy compression of finite training data cannot fail");
            }
        }
    }

    /// Allocation-free decompression of one table's payload: *appends* the
    /// values to `out`.
    fn decompress_into(
        &self,
        table: usize,
        bytes: &[u8],
        scratch: &mut CompressScratch,
        out: &mut Vec<f32>,
    ) {
        match self {
            ResolvedCompression::Raw => {
                out.reserve(bytes.len() / 4);
                out.extend(
                    bytes
                        .chunks_exact(4)
                        .map(|b| f32::from_le_bytes(b.try_into().expect("4-byte chunk"))),
                );
            }
            ResolvedCompression::LowPrec(_) => {
                lowprec::decompress_into(bytes, out).expect("low-precision payload is well-formed")
            }
            ResolvedCompression::Lossy { per_table, .. } => per_table[table]
                .0
                .decompress_into(bytes, scratch, out)
                .expect("lossy payload is well-formed"),
        }
    }

    /// True for the uncompressed (raw FP32) mode. The byte conversion the
    /// simulator does in that mode stands in for NCCL sending the original
    /// buffer directly, so its measured cost is not charged to the pipeline.
    fn is_raw(&self) -> bool {
        matches!(self, ResolvedCompression::Raw)
    }

    /// Registry kind of the codec `table` runs under this setting (`None`
    /// for raw fp32) — what the per-codec analytic throughput profile and
    /// the runtime controller key on.
    pub fn kind_of(&self, table: usize) -> Option<CompressorKind> {
        match self {
            ResolvedCompression::Raw => None,
            ResolvedCompression::LowPrec(Precision::Fp16) => Some(CompressorKind::Fp16),
            ResolvedCompression::LowPrec(Precision::Fp8E4M3) => Some(CompressorKind::Fp8),
            ResolvedCompression::Lossy { per_table, .. } => Some(per_table[table].0.kind()),
        }
    }

    /// The effective error bound of `table` at `iter` (scheduled bound times
    /// the runtime scale); 0 for non-lossy settings.
    fn effective_eb(&self, table: usize, iter: usize) -> f32 {
        match self {
            ResolvedCompression::Lossy {
                per_table,
                schedule,
                eb_scale,
            } => schedule.error_bound_at(per_table[table].1, iter) * eb_scale,
            _ => 0.0,
        }
    }

    /// Swap `table`'s codec — how the runtime controller applies a
    /// reselection. Only meaningful for the lossy setting (the controller is
    /// only ever constructed over one).
    fn set_compressor(&mut self, table: usize, comp: Box<dyn Compressor>) {
        if let ResolvedCompression::Lossy { per_table, .. } = self {
            per_table[table].0 = comp;
        }
    }

    /// Set the runtime error-bound scale (no-op for non-lossy settings).
    fn set_eb_scale(&mut self, scale: f32) {
        if let ResolvedCompression::Lossy { eb_scale, .. } = self {
            *eb_scale = scale;
        }
    }

    /// Numeric tag describing the compressor of `table` (carried in the
    /// variable all-to-all metadata, as the paper's pipeline does).
    fn tag(&self, table: usize) -> u32 {
        match self {
            ResolvedCompression::Raw => 0,
            ResolvedCompression::LowPrec(Precision::Fp16) => 1,
            ResolvedCompression::LowPrec(Precision::Fp8E4M3) => 2,
            ResolvedCompression::Lossy { per_table, .. } => 10 + per_table[table].0.kind() as u32,
        }
    }
}

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

    /// Open this iteration's span and snapshot the deltas' baselines.
    fn begin_iteration(
        &mut self,
        iter: usize,
        ledger: &TimingLedger,
        wall: &WallClock,
        fwd_traffic: &[(u64, u64)],
        tier_bytes: (u64, u64),
    ) {
        self.modeled_mark = ledger.total_seconds();
        self.wall_mark = wall.ledger.total_seconds();
        self.comm_seconds_mark = Self::comm_seconds(ledger);
        self.wire_bytes_mark = Self::wire_bytes(ledger);
        self.tier_bytes_mark = tier_bytes;
        self.fwd_mark.copy_from_slice(fwd_traffic);
        self.depth_max = 0;
        self.rec.begin_iteration(iter as u64, self.modeled_mark);
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

    /// Close this iteration's span and push its metrics row.
    fn end_iteration(
        &mut self,
        iter: usize,
        ledger: &TimingLedger,
        wall: &WallClock,
        fwd_traffic: &[(u64, u64)],
        tier_bytes: (u64, u64),
        ef_residual_norm: f64,
    ) {
        let now = ledger.total_seconds();
        let comm = Self::comm_seconds(ledger) - self.comm_seconds_mark;
        let wire = Self::wire_bytes(ledger) - self.wire_bytes_mark;
        let mut fwd_orig = 0u64;
        let mut fwd_enc = 0u64;
        self.ratio_buf.clear();
        for (t, &(orig, enc)) in fwd_traffic.iter().enumerate() {
            let (o0, e0) = self.fwd_mark[t];
            let (d_orig, d_enc) = (orig - o0, enc - e0);
            fwd_orig += d_orig;
            fwd_enc += d_enc;
            self.ratio_buf.push(if d_enc == 0 {
                0.0
            } else {
                d_orig as f64 / d_enc as f64
            });
        }
        let row = MetricsRow {
            iteration: iter as u64,
            modeled_seconds: now - self.modeled_mark,
            wall_seconds: wall.ledger.total_seconds() - self.wall_mark,
            comm_seconds: comm,
            wire_bytes: wire,
            intra_bytes: tier_bytes.0 - self.tier_bytes_mark.0,
            inter_bytes: tier_bytes.1 - self.tier_bytes_mark.1,
            fwd_original_bytes: fwd_orig,
            fwd_encoded_bytes: fwd_enc,
            compression_ratio: if fwd_enc == 0 {
                0.0
            } else {
                fwd_orig as f64 / fwd_enc as f64
            },
            ef_residual_norm,
            effective_bandwidth: if comm > 0.0 { wire as f64 / comm } else { 0.0 },
            channel_depth: self.depth_max,
        };
        self.metrics.push_row(row, &self.ratio_buf);
        self.rec.end_iteration(now);
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
    /// True when the leading iterations replay work lost to a rank failure.
    pub recovery: bool,
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
            recovery: false,
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
    /// all-to-all payloads this rank produced as a table owner.
    pub fwd_traffic: Vec<(u64, u64)>,
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
    /// Compressed-domain combines of the backward embedding-gradient push
    /// (leader + owner roles; zero on the per-sample default path).
    pub grad_push_combines: u64,
    /// Combine-aware Equation-2 advice over the dense candidate pool,
    /// evaluated on the last post-all-reduce gradient (`None` when the
    /// segment ran no iterations; identical on every rank — asserted by the
    /// report merger).
    pub dense_advice: Option<DenseAdvice>,
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
    /// `(original, compressed)` forward-payload bytes of this rank's owned
    /// tables per completed controller window (empty under `Static`).
    pub window_traffic: Vec<(u64, u64)>,
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
/// steady-state loop allocates nothing: compression scratch, the pooled
/// send/recv containers of both all-to-alls, and a recycler for the float
/// storage of lookup/gradient matrices.
pub struct PipelineScratch {
    /// Codec scratch shared by every compress/decompress call on this rank.
    pub compress: CompressScratch,
    /// Send-side lease container (drained by the collectives).
    pub send: Vec<PooledBuf>,
    /// Receive-side lease container.
    pub recv: Vec<PooledBuf>,
    /// Metadata records of the variable all-to-all.
    pub meta: Vec<(usize, u32)>,
    /// Flattened MLP gradient buffer for the all-reduce.
    pub flat_grads: Vec<f32>,
    /// Staging buffers of the compressed dense all-reduce.
    pub dense_reduce: ReduceScratch,
    /// Recycled float storage for lookup/gradient matrices.
    float_pool: Vec<Vec<f32>>,
    /// Bytes of float storage freshly allocated by `take_floats`.
    float_allocated: u64,
    /// Bytes of float storage served from the recycler.
    float_reused: u64,
    /// Per-chunk codec seconds of the current exchange (visiting order),
    /// feeding the [`OverlapTimeline`].
    chunk_codec_s: Vec<f64>,
    /// Per-chunk bytes this rank sent (visiting order, headers included).
    chunk_sent: Vec<usize>,
    /// Per-chunk bytes this rank received (visiting order, headers included).
    chunk_recv: Vec<usize>,
}

impl PipelineScratch {
    /// Create an empty scratch for a rank of a `world`-sized cluster.
    pub fn new(world: usize) -> Self {
        Self {
            compress: CompressScratch::new(),
            send: Vec::with_capacity(world),
            recv: Vec::with_capacity(world),
            meta: Vec::with_capacity(world),
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
    pub fn take_floats(&mut self, len_hint: usize) -> Vec<f32> {
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
    pub fn put_floats(&mut self, v: Vec<f32>) {
        if v.capacity() > 0 {
            self.float_pool.push(v);
        }
    }

    /// Cumulative `(allocated, reused)` float-recycler bytes.
    fn float_counters(&self) -> (u64, u64) {
        (self.float_allocated, self.float_reused)
    }
}

/// A chunk whose bytes disagree with the block framing it announces.
///
/// `needed > available`: the chunk ends before the field or payload that
/// starts at `offset`. `needed == 0`: `available` bytes trail the last
/// announced block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockError {
    /// Table id of the block being read, once its header was intact.
    pub table: Option<u32>,
    /// Byte offset in the chunk where the read started.
    pub offset: usize,
    /// Bytes the framing requires at `offset`.
    pub needed: usize,
    /// Bytes the chunk actually holds from `offset` on.
    pub available: usize,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "block of table {:?}: need {} bytes at offset {}, chunk has {}",
            self.table, self.needed, self.offset, self.available
        )
    }
}

impl std::error::Error for BlockError {}

/// Zero-copy walk over one all-to-all chunk — wire format
/// `[count u32][table u32][len u32][payload]…`, as the exchange stage writes
/// it — yielding `(table, payload)` with payloads borrowed from `bytes`.
/// Total: an empty, truncated or length-corrupted chunk yields one
/// [`BlockError`] and then ends; it never panics.
pub fn block_slices(bytes: &[u8]) -> impl Iterator<Item = Result<(u32, &[u8]), BlockError>> {
    BlockWalker {
        bytes,
        pos: 0,
        remaining: None,
        done: false,
    }
}

struct BlockWalker<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Blocks still to read; `None` until the count has been read.
    remaining: Option<u32>,
    /// Set after the last block or the first error.
    done: bool,
}

impl<'a> BlockWalker<'a> {
    /// Checked read of `needed` bytes at the cursor.
    fn take(&mut self, needed: usize, table: Option<u32>) -> Result<&'a [u8], BlockError> {
        let available = self.bytes.len() - self.pos;
        if needed > available {
            return Err(BlockError {
                table,
                offset: self.pos,
                needed,
                available,
            });
        }
        let field = &self.bytes[self.pos..self.pos + needed];
        self.pos += needed;
        Ok(field)
    }

    fn take_u32(&mut self, table: Option<u32>) -> Result<u32, BlockError> {
        let field = self.take(4, table)?.try_into().expect("4-byte field");
        Ok(u32::from_le_bytes(field))
    }

    fn next_block(&mut self) -> Result<Option<(u32, &'a [u8])>, BlockError> {
        let remaining = match self.remaining {
            Some(n) => n,
            None => self.take_u32(None)?,
        };
        if remaining == 0 {
            return match self.bytes.len() - self.pos {
                0 => Ok(None),
                trailing => Err(BlockError {
                    table: None,
                    offset: self.pos,
                    needed: 0,
                    available: trailing,
                }),
            };
        }
        self.remaining = Some(remaining - 1);
        let table = self.take_u32(None)?;
        let len = self.take_u32(Some(table))? as usize;
        Ok(Some((table, self.take(len, Some(table))?)))
    }
}

impl<'a> Iterator for BlockWalker<'a> {
    type Item = Result<(u32, &'a [u8]), BlockError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = self.next_block().transpose();
        self.done = !matches!(item, Some(Ok(_)));
        item
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
        (None, Some(t)) if t > 0.0 => bytes as f64 / t,
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

/// Per-block analytic codec seconds under a per-codec throughput profile:
/// `bytes` over the profile throughput of the codec `table` runs (the
/// compress side, or the decompress side with `decompress`). Zero without a
/// profile or for raw payloads — callers sum this per block and pass the
/// total as the `analytic` argument of [`charge_codec`] /
/// [`chunk_codec_seconds`].
fn block_profile_seconds(
    profile: Option<&CodecProfile>,
    resolved: &ResolvedCompression,
    table: usize,
    bytes: u64,
    decompress: bool,
) -> f64 {
    match (profile, resolved.kind_of(table)) {
        (Some(p), Some(kind)) => {
            let (tc, td) = p.throughput(kind);
            bytes as f64 / if decompress { td } else { tc }
        }
        _ => 0.0,
    }
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

/// Charge one overlapped chunked all-to-all: codec seconds per chunk feed
/// the codec timeline, wire seconds per chunk are the collective's
/// bottleneck-bandwidth time split across chunks in proportion to their
/// bottleneck bytes (so chunking never changes total wire time — only what
/// hides behind it), and one α latency is charged for the collective. The
/// exposed (non-hidden) wire time goes to `phase`'s seconds, the hidden time
/// to its `overlap_saved` counter. Returns the timeline for inspection.
fn charge_overlapped_a2a(
    ledger: &mut TimingLedger,
    phase: &str,
    cost: &CostModel,
    codec_s: &[f64],
    sent: &[usize],
    recv: &[usize],
) -> OverlapTimeline {
    debug_assert_eq!(codec_s.len(), sent.len());
    debug_assert_eq!(codec_s.len(), recv.len());
    let sent_total: usize = sent.iter().sum();
    let recv_total: usize = recv.iter().sum();
    let bottleneck_seconds = cost.bandwidth_time(sent_total.max(recv_total));
    let weight_total: f64 = sent.iter().zip(recv).map(|(&s, &r)| s.max(r) as f64).sum();
    let mut timeline = OverlapTimeline::new();
    for ((&codec, &s), &r) in codec_s.iter().zip(sent).zip(recv) {
        let wire = if weight_total > 0.0 {
            bottleneck_seconds * (s.max(r) as f64) / weight_total
        } else {
            0.0
        };
        timeline.push(codec, wire);
    }
    ledger.add_time(phase, cost.config().latency + timeline.exposed_wire());
    ledger.add_bytes(phase, (sent_total + recv_total) as u64);
    ledger.add_overlap_saved(phase, timeline.saved());
    timeline
}

/// Charge one hierarchical all-to-all. Sequential mode charges the full
/// tiered time (gather + exchange + scatter, each phase one α of its tier
/// plus its bottleneck bytes over the tier bandwidth). Double-buffered mode
/// mirrors [`charge_overlapped_a2a`]: the α's are charged once, the β
/// seconds are split across chunks in proportion to `weights` (this rank's
/// per-destination chunk bytes) and fed through the [`OverlapTimeline`]
/// against the per-chunk codec seconds — only the exposed wire is charged,
/// the hidden seconds land in the `overlap_saved` counter. Either way the
/// collective's total wire time is the tiered model's; overlap only changes
/// what hides behind it. Returns the un-overlapped `(intra, inter)` tier
/// seconds for the report's per-tier breakdown.
fn charge_hier_a2a(
    ledger: &mut TimingLedger,
    phase: &str,
    tiered: &TieredCostModel,
    bytes: &HierExchangeBytes,
    overlapped: bool,
    codec_s: &[f64],
    weights: &[usize],
) -> (f64, f64) {
    let (intra_t, inter_t) = tiered.hier_tier_times(bytes);
    ledger.add_bytes(phase, bytes.total());
    if overlapped {
        debug_assert_eq!(codec_s.len(), weights.len());
        let alpha = tiered.hier_alpha_seconds();
        let beta = (intra_t + inter_t - alpha).max(0.0);
        let weight_total: f64 = weights.iter().map(|&w| w as f64).sum();
        let mut timeline = OverlapTimeline::new();
        for (&codec, &w) in codec_s.iter().zip(weights) {
            let wire = if weight_total > 0.0 {
                beta * w as f64 / weight_total
            } else {
                0.0
            };
            timeline.push(codec, wire);
        }
        ledger.add_time(phase, alpha + timeline.exposed_wire());
        ledger.add_overlap_saved(phase, timeline.saved());
    } else {
        ledger.add_time(phase, intra_t + inter_t);
    }
    (intra_t, inter_t)
}

/// Append one `[table u32][len u32][payload]` block to a send lease,
/// compressing the payload in place and back-patching the length — the
/// single definition of the chunk wire format ([`block_slices`] is its
/// reader). Returns the compressed payload length.
fn write_block(
    resolved: &ResolvedCompression,
    table: usize,
    iter: usize,
    data: &[f32],
    dim: usize,
    scratch: &mut CompressScratch,
    buf: &mut Vec<u8>,
) -> usize {
    buf.extend_from_slice(&(table as u32).to_le_bytes());
    let len_pos = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    let start = buf.len();
    resolved.compress_into(table, iter, data, dim, scratch, buf);
    let payload_len = buf.len() - start;
    buf[len_pos..len_pos + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    payload_len
}

/// Worst-case compressed bytes of one block of `values` floats under any
/// codec (≤ 3× the raw bytes plus stream headers). Send leases are sized to
/// it so a chunk never grows its lease mid-fill — compressed sizes that
/// fluctuate with the data would otherwise defeat the zero-allocation steady
/// state.
fn block_worst_bytes(values: usize) -> usize {
    values * 12 + 708
}

/// Running marks for the per-phase allocation accounting.
struct AllocMarks {
    pool: PoolStats,
    compress_capacity: u64,
    float: (u64, u64),
}

/// One rank's accounting: the modeled ledger, the wall-clock ledger, the
/// span trace and the allocation counters, advanced together. Stages charge
/// modeled seconds and bytes to `ledger` directly; [`Accounting::close`] and
/// [`Accounting::close_split`] are the only writers of phase boundaries, so
/// the three timing systems cannot disagree about which phases ran.
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
}

impl<'a> Accounting<'a> {
    /// Start accounting; the wall clock starts here, so setup cost before
    /// the loop is not training time.
    fn new(
        ctx: &'a RankCtx,
        scratch: &PipelineScratch,
        ledger: TimingLedger,
        obs: Option<ObsState>,
    ) -> Self {
        Self {
            ctx,
            ledger,
            wall: WallClock::new(),
            obs,
            marks: AllocMarks {
                pool: ctx.pool().stats(),
                compress_capacity: scratch.compress.capacity_bytes(),
                float: scratch.float_counters(),
            },
            counting: false,
            steady_allocated: 0,
            tier_bytes: (0, 0),
            tier_seconds: (0.0, 0.0),
        }
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
        let capacity_now = scratch.compress.capacity_bytes();
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

/// Checkpoint state of one segment: the codec, a flatten buffer, and the
/// totals [`RankOutcome`] reports.
#[derive(Default)]
struct CheckpointWriter {
    codec: Option<CkptCodec>,
    flat: Vec<f32>,
    taken: usize,
    original_bytes: u64,
    encoded_bytes: u64,
    write_seconds: f64,
    last: Option<RankCheckpoint>,
}

impl CheckpointWriter {
    /// Snapshot this rank's share of a global checkpoint of the state
    /// `iteration` starts with: the MLP replica (rank 0 only — every rank
    /// holds identical dense parameters, so one copy suffices), the
    /// embedding shards this rank owns, and the dense error-feedback
    /// residual, each encoded through the checkpoint codec, with the store
    /// write charged at its modeled bandwidth.
    #[allow(clippy::too_many_arguments)]
    fn write(
        &mut self,
        iteration: usize,
        spec: &CheckpointSpec,
        model: &Dlrm,
        owned: &[usize],
        dense: Option<&GradCompressor>,
        compute_scale: f64,
        acct: &mut Accounting<'_>,
        scratch: &PipelineScratch,
    ) {
        let codec = self.codec.as_mut().expect("codec built with the spec");
        let rank = acct.ctx.rank();
        let t0 = Instant::now();
        let mut part = RankCheckpoint::new(iteration, rank);
        if rank == 0 {
            self.flat.clear();
            model.flatten_mlp_params_into(&mut self.flat);
            part.mlp = Some(codec.encode(&self.flat));
        }
        for &t in owned {
            let w = model.embedding(t).weights();
            part.push_table(t, w.rows(), w.cols(), codec.encode(w.as_slice()));
        }
        if let Some(residual) = dense.and_then(GradCompressor::residual) {
            part.residual = Some(codec.encode(residual));
        }
        part.encode_seconds = t0.elapsed().as_secs_f64();

        let write_s = part.write_seconds(spec.write_bandwidth);
        self.taken += 1;
        self.original_bytes += part.original_bytes();
        self.encoded_bytes += part.encoded_bytes();
        self.write_seconds += write_s;
        acct.ledger.add_time(
            phases::CHECKPOINT,
            part.encode_seconds * compute_scale + write_s,
        );
        acct.ledger
            .add_bytes(phases::CHECKPOINT, part.encoded_bytes());
        if let Some(o) = acct.obs.as_mut() {
            o.note_checkpoint(part.encoded_bytes(), write_s, &acct.ledger);
        }
        self.last = Some(part);
        acct.close(phases::CHECKPOINT, scratch, 0);
    }
}

/// Per-rank state of the closed-loop runtime controller
/// ([`AdaptiveSetting::Runtime`]); `None` under the bit-exact
/// [`AdaptiveSetting::Static`] path.
///
/// The controller itself ([`RuntimeController`]) is pure decision logic;
/// this wrapper owns the trainer-side plumbing: window accumulators
/// (per-table traffic, virtual wire bytes/seconds per tier, the loss sum),
/// candidate-codec probing on live payloads, and the window-boundary
/// **observation all-gather** that makes every rank decide on identical
/// inputs — which is what keeps a mid-run codec switch consistent between
/// the rank that compresses a table and the ranks that decompress it.
struct ControllerState {
    ctl: RuntimeController,
    /// Prebuilt candidate codecs, in controller-candidate order.
    candidates: Vec<(CompressorKind, Box<dyn Compressor>)>,
    /// Iterations per observation window.
    window: usize,
    /// `fwd_traffic` snapshot at the current window's start.
    traffic_mark: Vec<(u64, u64)>,
    /// Sum and count of per-iteration losses in the current window.
    loss_sum: f64,
    loss_n: u32,
    /// Bottleneck-tier wire accounting of the window: bytes and the β
    /// seconds the cost model charged for them (their quotient is the
    /// effective bandwidth the controller reselects against).
    wire_bytes: f64,
    wire_seconds: f64,
    /// Intra-node tier accounting (hierarchical topologies only).
    intra_bytes: f64,
    intra_seconds: f64,
    /// Codec-phase marks at the window start (ledger seconds/bytes of the
    /// two compress phases), for measured-throughput calibration.
    codec_seconds_mark: f64,
    codec_bytes_mark: u64,
    /// Candidate compression ratios per owned table (local index), probed on
    /// the iteration preceding a window boundary.
    probe_ratios: Vec<Vec<f64>>,
    /// Reusable serialization buffer for the observation exchange.
    blob: Vec<u8>,
    /// `(original, compressed)` bytes of this rank's owned tables per
    /// completed window.
    window_traffic: Vec<(u64, u64)>,
}

impl ControllerState {
    fn new(
        window: usize,
        hysteresis: f64,
        eb_control: Option<dlrm_adaptive::PlateauEbControl>,
        overlapped: bool,
        profile: Option<&CodecProfile>,
        resolved: &ResolvedCompression,
        num_tables: usize,
    ) -> Self {
        let initial: Vec<CompressorKind> = (0..num_tables)
            .map(|t| {
                resolved
                    .kind_of(t)
                    .expect("validated: runtime adaptation requires a lossy setting")
            })
            .collect();
        let mut cfg = ControllerConfig::new(window, hysteresis).with_overlap(overlapped);
        if let Some(p) = profile {
            cfg = cfg.with_profile(p.clone());
        }
        if let Some(ebc) = eb_control {
            cfg = cfg.with_eb_control(ebc);
        }
        let candidates = cfg.candidates.iter().map(|&k| (k, k.build())).collect();
        Self {
            ctl: RuntimeController::new(cfg, initial),
            candidates,
            window,
            traffic_mark: vec![(0, 0); num_tables],
            loss_sum: 0.0,
            loss_n: 0,
            wire_bytes: 0.0,
            wire_seconds: 0.0,
            intra_bytes: 0.0,
            intra_seconds: 0.0,
            codec_seconds_mark: 0.0,
            codec_bytes_mark: 0,
            probe_ratios: Vec::new(),
            blob: Vec::new(),
            window_traffic: Vec::new(),
        }
    }

    /// Worst-case observation-blob bytes this rank can produce — the lease
    /// capacity the control exchange requests (spares of this class are
    /// parked at warm-up so the steady state stays allocation-free).
    fn blob_capacity(&self, owned_tables: usize) -> usize {
        // 9 u64-sized header fields, then per table: id + orig + comp
        // (3 x u64) plus one f64 ratio per candidate.
        72 + owned_tables * (24 + 8 * self.candidates.len())
    }

    /// True when `iter` starts a new window (a reselection point).
    fn is_boundary(&self, iter: usize) -> bool {
        iter > 0 && iter.is_multiple_of(self.window)
    }

    /// True when the iteration *before* `boundary_iter` should probe the
    /// candidate codecs on live payloads.
    fn wants_probe(&self, iter: usize, iterations: usize) -> bool {
        let next = iter + 1;
        next < iterations && self.is_boundary(next)
    }

    /// Record one bottleneck-tier wire charge.
    fn add_wire(&mut self, bytes: usize, seconds: f64) {
        self.wire_bytes += bytes as f64;
        self.wire_seconds += seconds;
    }

    /// Record one intra-tier wire charge (hierarchical topologies).
    fn add_intra(&mut self, bytes: usize, seconds: f64) {
        self.intra_bytes += bytes as f64;
        self.intra_seconds += seconds;
    }

    /// Compress every candidate codec over each owned table's live payload
    /// (this rank's own shard of the lookups) and record the achieved
    /// ratios — the runtime analogue of Algorithm 2's offline sampling. The
    /// compressed byte counts are deterministic; the probe's time is charged
    /// to the controller phase (per-codec analytic under a profile, measured
    /// otherwise).
    fn probe(
        &mut self,
        exchange: &Exchange<'_>,
        owned: &[usize],
        lookup_matrices: &[Matrix],
        scratch: &mut CompressScratch,
        ledger: &mut TimingLedger,
    ) {
        let Exchange {
            ctx,
            resolved,
            iter,
            dim,
            profile,
            ..
        } = *exchange;
        self.probe_ratios.clear();
        let t0 = Instant::now();
        let mut probed_bytes = 0u64;
        let mut profile_seconds = 0.0f64;
        // Probing every candidate over the full payload would make the
        // controller's overhead scale with the batch; a bounded row sample
        // estimates the ratios at constant cost (like the offline analysis,
        // which also samples).
        const PROBE_ROWS: usize = 32;
        for (local_idx, &t) in owned.iter().enumerate() {
            let matrix = &lookup_matrices[local_idx * ctx.world() + ctx.rank()];
            let sample = &matrix.as_slice()[..matrix.len().min(PROBE_ROWS * dim)];
            let eb = resolved.effective_eb(t, iter);
            let mut buf = ctx.take_buf(block_worst_bytes(sample.len()));
            let mut ratios = Vec::with_capacity(self.candidates.len());
            for (kind, comp) in &self.candidates {
                buf.clear();
                comp.compress_into(sample, dim, eb, scratch, &mut buf)
                    .expect("probe compression of finite training data cannot fail");
                ratios.push((sample.len() * 4) as f64 / buf.len().max(1) as f64);
                probed_bytes += (sample.len() * 4) as u64;
                if let Some(p) = profile {
                    profile_seconds += (sample.len() * 4) as f64 / p.throughput(*kind).0;
                }
            }
            drop(buf);
            self.probe_ratios.push(ratios);
        }
        charge_codec(
            ledger,
            phases::CONTROLLER,
            t0.elapsed().as_secs_f64(),
            probed_bytes,
            exchange.device_throughput.map(|(c, _)| c),
            profile.map(|_| profile_seconds),
        );
    }

    /// Close the window ending at `iter`: all-gather every rank's raw
    /// measurements, assemble the identical global [`WindowObservation`] on
    /// every rank, run the controller, and apply its revisions (codec swaps
    /// and the error-bound scale) to this rank's compression state. The
    /// control exchange rides pool leases and is charged to the controller
    /// phase.
    #[allow(clippy::too_many_arguments)]
    fn window_boundary(
        &mut self,
        ctx: &RankCtx,
        cost: &CostModel,
        iter: usize,
        owned: &[usize],
        fwd_traffic: &[(u64, u64)],
        resolved: &mut ResolvedCompression,
        tags: &mut [u32],
        ledger: &mut TimingLedger,
        send: &mut Vec<PooledBuf>,
        recv: &mut Vec<PooledBuf>,
        hierarchical: bool,
        degraded: bool,
    ) {
        let world = ctx.world();
        // Codec throughput over the window, from the ledger's compress
        // phases (deterministic whenever codec time is charged
        // analytically).
        let codec_seconds = ledger.seconds(phases::FWD_COMPRESS)
            + ledger.seconds(phases::BWD_COMPRESS)
            - self.codec_seconds_mark;
        let codec_bytes = ledger.bytes(phases::FWD_COMPRESS) + ledger.bytes(phases::BWD_COMPRESS)
            - self.codec_bytes_mark;

        // ── Serialize this rank's share of the observation.
        self.blob.clear();
        let blob = &mut self.blob;
        blob.extend_from_slice(&self.loss_sum.to_le_bytes());
        blob.extend_from_slice(&(self.loss_n as u64).to_le_bytes());
        blob.extend_from_slice(&self.wire_bytes.to_le_bytes());
        blob.extend_from_slice(&self.wire_seconds.to_le_bytes());
        blob.extend_from_slice(&self.intra_bytes.to_le_bytes());
        blob.extend_from_slice(&self.intra_seconds.to_le_bytes());
        blob.extend_from_slice(&(codec_bytes as f64).to_le_bytes());
        blob.extend_from_slice(&codec_seconds.to_le_bytes());
        blob.extend_from_slice(&(owned.len() as u64).to_le_bytes());
        let mut window_orig = 0u64;
        let mut window_comp = 0u64;
        for (local_idx, &t) in owned.iter().enumerate() {
            let (orig, comp) = (
                fwd_traffic[t].0 - self.traffic_mark[t].0,
                fwd_traffic[t].1 - self.traffic_mark[t].1,
            );
            window_orig += orig;
            window_comp += comp;
            blob.extend_from_slice(&(t as u64).to_le_bytes());
            blob.extend_from_slice(&orig.to_le_bytes());
            blob.extend_from_slice(&comp.to_le_bytes());
            // A missing probe (no probe iteration ran yet) reports the
            // measured ratio for every candidate: selection then holds.
            let fallback = if comp == 0 {
                1.0
            } else {
                orig as f64 / comp as f64
            };
            for c in 0..self.candidates.len() {
                let ratio = self
                    .probe_ratios
                    .get(local_idx)
                    .and_then(|r| r.get(c))
                    .copied()
                    .unwrap_or(fallback);
                blob.extend_from_slice(&ratio.to_le_bytes());
            }
        }

        // ── Exchange: every rank sends its blob to every rank over pool
        // leases (an all-gather on the metadata plane).
        let cap = self.blob_capacity(owned.len()).max(self.blob.len());
        send.clear();
        for _ in 0..world {
            let mut b = ctx.take_buf(cap);
            b.extend_from_slice(&self.blob);
            send.push(b);
        }
        let stats = ctx.all_to_all_pooled(send, recv);
        // Charged as extra *bytes*, not an extra collective: the blob is
        // metadata-sized and rides the α already paid by the iteration's
        // forward all-to-all (exactly how the variable collective's size
        // records travel), so only the bandwidth term is charged here.
        ledger.add_time(
            phases::CONTROLLER,
            cost.bandwidth_time(stats.sent.max(stats.received)),
        );
        ledger.add_bytes(phases::CONTROLLER, (stats.sent + stats.received) as u64);

        // ── Assemble the global observation (identical on every rank: the
        // same blobs arrive in the same rank order everywhere).
        let mut loss_sum = 0.0f64;
        let mut loss_n = 0u64;
        let mut wire = (0.0f64, 0.0f64);
        let mut intra = (0.0f64, 0.0f64);
        let mut codec = (0.0f64, 0.0f64);
        let mut tables: Vec<TableObservation> = Vec::new();
        for chunk in recv.iter() {
            let mut pos = 0usize;
            let f = |p: &mut usize| {
                let v = f64::from_le_bytes(chunk[*p..*p + 8].try_into().expect("f64 field"));
                *p += 8;
                v
            };
            loss_sum += f(&mut pos);
            loss_n += u64::from_le_bytes(chunk[pos..pos + 8].try_into().expect("loss count"));
            pos += 8;
            wire.0 += f(&mut pos);
            wire.1 += f(&mut pos);
            intra.0 += f(&mut pos);
            intra.1 += f(&mut pos);
            codec.0 += f(&mut pos);
            codec.1 += f(&mut pos);
            let count = u64::from_le_bytes(chunk[pos..pos + 8].try_into().expect("count")) as usize;
            pos += 8;
            for _ in 0..count {
                let table_id =
                    u64::from_le_bytes(chunk[pos..pos + 8].try_into().expect("table id")) as usize;
                pos += 8;
                let original =
                    u64::from_le_bytes(chunk[pos..pos + 8].try_into().expect("orig bytes"));
                pos += 8;
                let compressed =
                    u64::from_le_bytes(chunk[pos..pos + 8].try_into().expect("comp bytes"));
                pos += 8;
                let mut candidate_ratios = Vec::with_capacity(self.candidates.len());
                for _ in 0..self.candidates.len() {
                    candidate_ratios.push(f(&mut pos));
                }
                tables.push(TableObservation {
                    table_id,
                    original_bytes: original,
                    compressed_bytes: compressed,
                    candidate_ratios,
                });
            }
        }
        recv.clear(); // release the leases back to their origin pools
        tables.sort_by_key(|t| t.table_id);

        let effective_bandwidth = if wire.1 > 0.0 {
            wire.0 / wire.1
        } else {
            cost.config().alltoall_bandwidth
        };
        let intra_bandwidth = (hierarchical && intra.1 > 0.0).then(|| intra.0 / intra.1);
        let obs = WindowObservation {
            iteration: iter,
            effective_bandwidth,
            intra_bandwidth,
            mean_loss: if loss_n > 0 {
                loss_sum / loss_n as f64
            } else {
                0.0
            },
            measured_compress_throughput: if codec.1 > 0.0 {
                codec.0 / codec.1
            } else {
                0.0
            },
            tables,
        };

        // ── Decide and apply. A fault-degraded network drops the
        // hysteresis guard so the controller reacts within one window.
        let reselection = self.ctl.observe_degraded(&obs, degraded);
        for rev in &reselection.switches {
            resolved.set_compressor(rev.table_id, rev.to.build());
        }
        resolved.set_eb_scale(self.ctl.eb_scale());
        let tag = owned.first().map_or(0, |&t| resolved.tag(t));
        tags.fill(tag);

        // ── Roll the window state.
        self.window_traffic.push((window_orig, window_comp));
        self.traffic_mark.copy_from_slice(fwd_traffic);
        self.loss_sum = 0.0;
        self.loss_n = 0;
        self.wire_bytes = 0.0;
        self.wire_seconds = 0.0;
        self.intra_bytes = 0.0;
        self.intra_seconds = 0.0;
        self.codec_seconds_mark =
            ledger.seconds(phases::FWD_COMPRESS) + ledger.seconds(phases::BWD_COMPRESS);
        self.codec_bytes_mark =
            ledger.bytes(phases::FWD_COMPRESS) + ledger.bytes(phases::BWD_COMPRESS);
        self.probe_ratios.clear();
    }
}

/// How one iteration's exchanges travel — derived each iteration from the
/// topology and overlap settings, never configured on its own. The route
/// picks the lease kind, the visiting order, the collective and its charge
/// (tabulated in `docs/ARCHITECTURE.md`).
#[derive(Clone, Copy)]
enum Route<'a> {
    /// Flat topology, sequential schedule: the two-phase variable-size
    /// all-to-all over plain leases, visited in rank order.
    Var,
    /// Flat topology, double-buffered: chunk k goes to destination
    /// `rank + k` the moment its compression finishes and arrives from
    /// source `rank − k`, so the codec timeline runs ahead of the wire.
    Streamed,
    /// Hierarchical topology: the two-level collective. `overlapped` changes
    /// only how the tiered wire time is charged against the per-chunk codec
    /// seconds.
    Hier {
        topo: &'a Topology,
        tiered: &'a TieredCostModel,
        overlapped: bool,
    },
}

/// What differs between the forward exchange (owners send lookups out) and
/// the backward one (shards send embedding gradients home).
struct Direction<'a, B, R, S> {
    /// Ledger phases charged: compress, all-to-all, decompress.
    phases: [&'static str; 3],
    /// `(table, payload)` blocks of the chunk bound for a destination, in
    /// ascending table order.
    blocks: B,
    /// Send-lease capacity per destination learned from earlier iterations,
    /// so leases rarely have to grow.
    hints: &'a mut [usize],
    /// Per-table `(original, compressed)` payload bytes to accumulate into,
    /// when this direction reports them.
    traffic: Option<&'a mut [(u64, u64)]>,
    /// Rows of every block that arrives from a source.
    rows_from: R,
    /// Receives each decompressed `(table, source, rows × dim matrix)`.
    sink: S,
}

/// What one iteration's two exchanges share.
#[derive(Clone, Copy)]
struct Exchange<'a> {
    ctx: &'a RankCtx,
    resolved: &'a ResolvedCompression,
    iter: usize,
    dim: usize,
    profile: Option<&'a CodecProfile>,
    /// `(compress, decompress)` flat device-throughput override.
    device_throughput: Option<(f64, f64)>,
    tags: &'a [u32],
    cost: &'a CostModel,
    route: Route<'a>,
}

impl Exchange<'_> {
    /// The paper's loop, once: compress per-destination chunks straight into
    /// pooled send leases, move them through the route's all-to-all,
    /// decompress what arrives into recycled float storage. Every route
    /// writes byte-identical chunks and delivers bit-identical matrices —
    /// only the charged time differs.
    fn run<'m, B, I, R, S>(
        &self,
        mut dir: Direction<'_, B, R, S>,
        scratch: &mut PipelineScratch,
        acct: &mut Accounting<'_>,
        mut controller: Option<&mut ControllerState>,
    ) where
        B: Fn(usize) -> I,
        I: Iterator<Item = (usize, &'m Matrix)>,
        R: Fn(usize) -> usize,
        S: FnMut(u32, u32, Matrix),
    {
        let Exchange {
            ctx,
            resolved,
            dim,
            profile,
            cost,
            ..
        } = *self;
        let (rank, world) = (ctx.rank(), ctx.world());
        let [compress, a2a, decompress] = dir.phases;
        let streamed = matches!(self.route, Route::Streamed);
        let mut stream = streamed.then(|| ctx.begin_chunked());
        let header = if streamed { CHUNK_HEADER_BYTES } else { 0 };

        // ── Compress, destination-major, so per-chunk codec seconds can feed
        // the overlap timeline.
        scratch.chunk_codec_s.clear();
        scratch.chunk_sent.clear();
        scratch.chunk_recv.clear();
        scratch.send.clear();
        let mut original_bytes = 0u64;
        let mut lease_growth = 0u64;
        for step in 0..world {
            let dst = if streamed {
                (rank + step) % world
            } else {
                step
            };
            let t0 = Instant::now();
            let (count, worst) = (dir.blocks)(dst).fold((0u32, header + 4), |(n, w), (_, m)| {
                (n + 1, w + block_worst_bytes(m.len()))
            });
            let capacity = dir.hints[dst].max(worst);
            let mut buf = if streamed {
                ctx.take_chunk_buf(capacity)
            } else {
                ctx.take_buf(capacity)
            };
            let cap_at_take = buf.capacity();
            buf.extend_from_slice(&count.to_le_bytes());
            let mut chunk_original = 0u64;
            let mut chunk_profile_s = 0.0f64;
            for (t, matrix) in (dir.blocks)(dst) {
                let payload_len = write_block(
                    resolved,
                    t,
                    self.iter,
                    matrix.as_slice(),
                    dim,
                    &mut scratch.compress,
                    &mut buf,
                );
                let raw_bytes = (matrix.len() * 4) as u64;
                chunk_original += raw_bytes;
                chunk_profile_s += block_profile_seconds(profile, resolved, t, raw_bytes, false);
                if let Some(traffic) = dir.traffic.as_deref_mut() {
                    traffic[t].0 += raw_bytes;
                    traffic[t].1 += payload_len as u64;
                }
            }
            let (buf, grown) = settle_chunk(ctx, buf, cap_at_take);
            lease_growth += grown;
            dir.hints[dst] = dir.hints[dst].max(buf.len());
            scratch.chunk_codec_s.push(chunk_codec_seconds(
                resolved.is_raw(),
                t0.elapsed().as_secs_f64(),
                chunk_original,
                self.device_throughput.map(|(c, _)| c),
                profile.map(|_| chunk_profile_s),
            ));
            scratch
                .chunk_sent
                .push(if dst == rank { 0 } else { buf.len() });
            original_bytes += chunk_original;
            match stream.as_mut() {
                Some(s) => s.send(dst, buf, self.tags[dst]),
                None => scratch.send.push(buf),
            }
        }
        acct.ledger
            .add_time(compress, scratch.chunk_codec_s.iter().sum::<f64>());
        acct.ledger.add_bytes(compress, original_bytes);
        acct.close(compress, scratch, lease_growth);

        // ── All-to-all. Streamed chunks are already in flight; their wire
        // time is charged once the last one has retired.
        match self.route {
            Route::Streamed => {}
            Route::Var => {
                let stats = ctx.all_to_all_var_pooled(
                    &mut scratch.send,
                    &mut scratch.recv,
                    self.tags,
                    &mut scratch.meta,
                );
                // `stats` includes the metadata phase's records, whose
                // bandwidth cost `metadata_time` already charges — the
                // payload term must not count those bytes a second time.
                let meta_bytes = world.saturating_sub(1) * METADATA_RECORD_BYTES;
                let sent = stats.sent.saturating_sub(meta_bytes);
                let received = stats.received.saturating_sub(meta_bytes);
                acct.ledger.add_time(
                    a2a,
                    cost.metadata_time(world.saturating_sub(1), METADATA_RECORD_BYTES)
                        + cost.alltoall_time(sent, received),
                );
                acct.ledger
                    .add_bytes(a2a, (stats.sent + stats.received) as u64);
                if let Some(state) = controller.as_mut() {
                    let bottleneck = sent.max(received);
                    state.add_wire(bottleneck, cost.bandwidth_time(bottleneck));
                }
                acct.close(a2a, scratch, 0);
            }
            Route::Hier {
                topo,
                tiered,
                overlapped,
            } => {
                let bytes = ctx.all_to_all_hier_pooled(topo, &mut scratch.send, &mut scratch.recv);
                let tier_seconds = charge_hier_a2a(
                    &mut acct.ledger,
                    a2a,
                    tiered,
                    &bytes,
                    overlapped,
                    &scratch.chunk_codec_s,
                    &scratch.chunk_sent,
                );
                acct.add_tiers(bytes.intra_total(), bytes.inter_total(), tier_seconds);
                if let Some(state) = controller.as_mut() {
                    let ex = bytes.exchange;
                    let inter_b = ex.sent.max(ex.received);
                    state.add_wire(inter_b, inter_b as f64 / tiered.node_fabric_bandwidth());
                    let intra_b = bytes.gather.sent.max(bytes.gather.received)
                        + bytes.scatter.sent.max(bytes.scatter.received);
                    state.add_intra(intra_b, intra_b as f64 / topo.intra().alltoall_bandwidth);
                }
                acct.close(a2a, scratch, 0);
            }
        }

        // ── Decompress each chunk in place as it is retired; its lease drops
        // back to the sender's pool at once.
        let mut recv = std::mem::take(&mut scratch.recv);
        let mut delivered = recv.drain(..);
        let mut decompressed_bytes = 0u64;
        let mut profile_s = 0.0f64;
        let mut measured_s = 0.0f64;
        for step in 0..world {
            let (src, chunk) = match stream.as_mut() {
                Some(s) => {
                    let src = (rank + world - step) % world;
                    (src, s.recv(src).0)
                }
                None => (step, delivered.next().expect("one chunk per source rank")),
            };
            scratch
                .chunk_recv
                .push(if src == rank { 0 } else { chunk.len() });
            let t0 = Instant::now();
            let rows = (dir.rows_from)(src);
            for block in block_slices(&chunk[header..]) {
                let (table, payload) = block.unwrap_or_else(|e| {
                    panic!("rank {rank}: malformed {decompress} chunk from rank {src}: {e}")
                });
                let mut values = scratch.take_floats(rows * dim);
                resolved.decompress_into(
                    table as usize,
                    payload,
                    &mut scratch.compress,
                    &mut values,
                );
                let raw_bytes = (values.len() * 4) as u64;
                decompressed_bytes += raw_bytes;
                profile_s +=
                    block_profile_seconds(profile, resolved, table as usize, raw_bytes, true);
                assert_eq!(
                    values.len(),
                    rows * dim,
                    "rank {rank}: table {table} from rank {src}: bad payload size"
                );
                (dir.sink)(table, src as u32, Matrix::from_vec(rows, dim, values));
            }
            measured_s += t0.elapsed().as_secs_f64();
        }
        drop(delivered);
        scratch.recv = recv;
        let modeled_s = charge_codec(
            &mut acct.ledger,
            decompress,
            if resolved.is_raw() { 0.0 } else { measured_s },
            decompressed_bytes,
            self.device_throughput.map(|(_, d)| d),
            profile.map(|_| profile_s),
        );
        let Some(mut stream) = stream else {
            return acct.close(decompress, scratch, 0);
        };
        let stats = stream.finish();
        debug_assert_eq!(stats.sent, scratch.chunk_sent.iter().sum::<usize>());
        debug_assert_eq!(stats.received, scratch.chunk_recv.iter().sum::<usize>());
        charge_overlapped_a2a(
            &mut acct.ledger,
            a2a,
            cost,
            &scratch.chunk_codec_s,
            &scratch.chunk_sent,
            &scratch.chunk_recv,
        );
        if let Some(state) = controller.as_mut() {
            let bottleneck = stats.sent.max(stats.received);
            state.add_wire(bottleneck, cost.bandwidth_time(bottleneck));
        }
        acct.close_split(decompress, (measured_s, modeled_s), a2a, scratch);
    }
}

/// Run the full training loop on one rank. Must be called from within a
/// [`SimCluster`](dlrm_comm::SimCluster) whose world matches
/// `setup.trainer.world`.
pub fn run_rank(ctx: &RankCtx, setup: &RankSetup) -> RankOutcome {
    let rank = ctx.rank();
    let world = ctx.world();
    assert_eq!(world, setup.trainer.world, "cluster/config world mismatch");
    let trainer = &setup.trainer;
    let dataset = &setup.dataset;
    let partition = &setup.partition;
    let num_tables = dataset.num_tables();
    let dim = dataset.embedding_dim;
    let base_cost = ctx.cost_model();
    // Drifting network and per-codec analytic throughputs: both optional,
    // both `None` on the bit-exact default path.
    let trace = trainer.bandwidth_trace.as_ref();
    let profile = trainer.codec_profile.as_ref();
    // Fault plan and the segment of global iterations this execution covers
    // (the full run unless the driver scheduled world events).
    let seg = &setup.segment;
    assert!(
        seg.start <= seg.end && seg.end <= trainer.iterations,
        "segment [{}, {}) out of range for {} iterations",
        seg.start,
        seg.end,
        trainer.iterations
    );
    let plan = trainer.fault.as_ref().map(|f| &f.plan);

    let mut resolved = ResolvedCompression::from_setting(&trainer.compression, num_tables);
    let overlapped = matches!(trainer.overlap, OverlapSetting::DoubleBuffered);
    // Closed-loop runtime controller (None under the bit-exact Static path).
    let mut controller: Option<ControllerState> = match &trainer.adaptive {
        AdaptiveSetting::Static => None,
        AdaptiveSetting::Runtime {
            window,
            hysteresis,
            eb_control,
        } => Some(ControllerState::new(
            *window,
            *hysteresis,
            *eb_control,
            overlapped,
            profile,
            &resolved,
            num_tables,
        )),
    };
    // Hierarchical topology: the two-level collective replaces both
    // all-to-alls and every network phase is charged by the tiered model.
    // `None` (flat) takes exactly the topology-less code paths.
    let hier: Option<(Topology, TieredCostModel)> = match &trainer.topology {
        TopologySetting::Flat => None,
        TopologySetting::Hierarchical(topo) => Some((*topo, topo.cost_model())),
    };
    // Dense-gradient (all-reduce) compression state: codec + error-feedback
    // residual + scratch, all per-rank and reused every iteration.
    let mut dense: Option<GradCompressor> = match &trainer.dense_compression {
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
    let mut dense_traffic = (0u64, 0u64);
    let mut dense_saved_seconds = 0.0f64;
    let mut homo_combines = 0u64;
    let mut homo_combine_seconds = 0.0f64;
    let mut homo_saved_seconds = 0.0f64;
    // Capacity mark of the dense state (codec scratch + residual +
    // reduce staging), so its warm-up growth is charged to the ALLREDUCE
    // phase and steady-state growth would break the zero-allocation test.
    let mut dense_capacity_mark = 0u64;
    let owned = partition.tables_of(rank).to_vec();

    let model_config = DlrmConfig::from_dataset(dataset);
    let mut model = Dlrm::new_partial(model_config, trainer.seed, Some(&owned));

    let mut ledger = TimingLedger::new();
    let mut per_iteration = Vec::with_capacity(seg.end - seg.start);
    let mut fwd_traffic = vec![(0u64, 0u64); num_tables];
    let compute_scale = trainer.compute_time_scale;
    // The tag follows the compressor choice: constant under Static,
    // recomputed at reselection points under the runtime controller.
    let mut tags: Vec<u32> = (0..world)
        .map(|_| owned.first().map_or(0, |&t| resolved.tag(t)))
        .collect();
    // Combined backward push (None on the bit-exact per-sample default).
    let mut grad_push = GradPushState::from_setting(&trainer.grad_push);
    let push_cards: Vec<usize> = dataset.tables.iter().map(|t| t.cardinality).collect();

    // Reusable per-rank state: everything the steady-state loop touches.
    let mut scratch = PipelineScratch::new(world);
    let mut lookup_matrices: Vec<Matrix> = Vec::new(); // [local_idx * world + dst]
    let mut lookup_slots: Vec<Option<Matrix>> = Vec::new();
    let mut my_lookups: Vec<Matrix> = Vec::new();
    let mut grad_entries: Vec<(u32, u32, Matrix)> = Vec::new();
    // Send-lease capacity hints per destination, one set per direction.
    let mut fwd_hints = vec![64usize; world];
    let mut bwd_hints = vec![64usize; world];

    // ── Segment entry: restore from the checkpoint this segment resumes
    // from (recovery after a rank loss, or re-sharding onto a resized
    // world). Sections are keyed by table id, so the restore works for any
    // partition of the surviving world.
    let mut checkpoints = CheckpointWriter {
        codec: seg.checkpoint.as_ref().map(|s| CkptCodec::new(&s.codec)),
        ..Default::default()
    };
    if let Some(ckpt) = seg.restore.as_deref() {
        let ckpt_flat = &mut checkpoints.flat;
        let mut codec = CkptCodec::new(&ckpt.codec);
        codec.decode_into(&ckpt.mlp, ckpt_flat);
        model.load_flat_mlp_params(ckpt_flat);
        for &t in &owned {
            let section = ckpt
                .table(t)
                .unwrap_or_else(|| panic!("checkpoint is missing table {t}"));
            codec.decode_into(&section.section, ckpt_flat);
            let w = model.embedding_mut(t).weights_mut();
            assert_eq!(
                (section.rows, section.cols),
                (w.rows(), w.cols()),
                "table {t}: checkpoint shape mismatch"
            );
            w.as_mut_slice().copy_from_slice(ckpt_flat);
        }
        if let Some(section) = ckpt.residual_for(rank) {
            if let Some(state) = dense.as_mut() {
                codec.decode_into(section, ckpt_flat);
                state.load_residual(ckpt_flat);
            }
        }
        // The restore read is charged at the store bandwidth; every rank
        // reads the full checkpoint's bytes (MLP + all shards stream past).
        let read_bandwidth = seg
            .checkpoint
            .as_ref()
            .map_or(CheckpointSpec::DEFAULT_WRITE_BANDWIDTH, |s| {
                s.write_bandwidth
            });
        ledger.add_time(phases::CHECKPOINT, ckpt.read_seconds(read_bandwidth));
        ledger.add_bytes(phases::CHECKPOINT, ckpt.encoded_bytes);
    }

    // Observability (`ObsSetting::On` only): the span ring and metrics
    // series are sized to the segment up front, so recording in the loop
    // never allocates. The clock domain follows the executor — modeled
    // (deterministic) timestamps under the sequential gate, wall timestamps
    // under free-running threads.
    let obs = trainer.obs.is_enabled().then(|| {
        ObsState::new(
            rank,
            trainer.executor.clock_domain(),
            seg.end - seg.start,
            num_tables,
        )
    });
    let mut acct = Accounting::new(ctx, &scratch, ledger, obs);

    for iter in seg.start..seg.end {
        // Warm-up is per segment: a fresh executor (and so fresh pools)
        // backs every segment, so the allocation amnesty restarts with it.
        let local = iter - seg.start;
        acct.counting = local >= WARMUP_ITERATIONS;
        if let Some(o) = acct.obs.as_mut() {
            o.begin_iteration(
                iter,
                &acct.ledger,
                &acct.wall,
                &fwd_traffic,
                acct.tier_bytes,
            );
        }
        // ── checkpoint (cadence): snapshot the state this iteration
        // *starts* with.
        if let Some(spec) = seg.checkpoint.as_ref() {
            if iter.is_multiple_of(spec.every) {
                checkpoints.write(
                    iter,
                    spec,
                    &model,
                    &owned,
                    dense.as_ref(),
                    compute_scale,
                    &mut acct,
                    &scratch,
                );
            }
        }
        // The link (and therefore every network charge) in effect this
        // iteration: the static network without a trace — bit for bit the
        // pre-trace path — or whatever the trace says right now. An active
        // straggler window further divides the bandwidths by its multiplier
        // (the slowest rank's link bounds every bulk-synchronous
        // collective); factor 1.0 skips the rebuild entirely, keeping the
        // no-fault path bit-identical.
        let straggler = plan.map_or(1.0, |p| p.straggler_factor(iter));
        if let Some(o) = acct.obs.as_mut() {
            o.note_straggler(straggler, &acct.ledger);
        }
        let cost = {
            let c = match trace {
                None => base_cost,
                Some(t) => t.cost_model_at(iter),
            };
            if straggler > 1.0 {
                c.config().degraded(straggler).cost_model()
            } else {
                c
            }
        };
        let hier_iter: Option<(Topology, TieredCostModel)> = match (&hier, trace) {
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
        // ── runtime controller (reselection point): close the previous window, exchange
        // observations, and apply the controller's revisions before any of
        // this iteration's compression runs (so every rank flips codecs on
        // the same iteration).
        if let Some(state) = controller.as_mut() {
            if state.is_boundary(iter) {
                state.window_boundary(
                    ctx,
                    &cost,
                    iter,
                    &owned,
                    &fwd_traffic,
                    &mut resolved,
                    &mut tags,
                    &mut acct.ledger,
                    &mut scratch.send,
                    &mut scratch.recv,
                    hier_iter.is_some(),
                    plan.is_some_and(|p| p.degraded_at(iter)),
                );
                if let Some(o) = acct.obs.as_mut() {
                    if let Some(sel) = state.ctl.log().last() {
                        if sel.iteration == iter {
                            o.note_reselection(sel, &acct.ledger);
                        }
                    }
                }
                acct.close(phases::CONTROLLER, &scratch, 0);
            }
        }
        // ── input batch: the global batch, one shard per rank. Whichever
        // rank asks first draws it; the modeled clock charges nothing (the
        // paper's data loader is off the critical path), the wall clock
        // does.
        let shards = setup.feed.step(iter, trainer.global_batch);
        let my_shard = &shards[rank];
        acct.close(phases::INPUT, &scratch, 0);

        // ── embedding lookup: owners look up their tables for every
        // destination shard, into float storage recycled from the previous
        // iteration.
        let t0 = Instant::now();
        for &t in &owned {
            for shard in shards.iter() {
                let storage = scratch.take_floats(shard.batch_size() * dim);
                lookup_matrices.push(model.lookup_with_storage(t, &shard.sparse[t], storage));
            }
        }
        acct.ledger
            .add_time(phases::LOOKUP, t0.elapsed().as_secs_f64() * compute_scale);
        acct.close(phases::LOOKUP, &scratch, 0);

        // The exchange both directions run: under a hierarchical topology
        // the two-level collective; flat with overlap on, one double-buffered
        // chunked pipeline (compress chunk k+1 while chunk k is on the
        // virtual wire); otherwise the sequential compress → exchange →
        // decompress schedule.
        let exchange = Exchange {
            ctx,
            resolved: &resolved,
            iter,
            dim,
            profile,
            device_throughput: trainer.device_throughput,
            tags: &tags,
            cost: &cost,
            route: match &hier_iter {
                Some((topo, tiered)) => Route::Hier {
                    topo,
                    tiered,
                    overlapped,
                },
                None if overlapped => Route::Streamed,
                None => Route::Var,
            },
        };

        // ── fwd compression → fwd all-to-all → fwd decompression: every
        // owner sends each shard the lookups of its tables.
        lookup_slots.clear();
        lookup_slots.resize_with(num_tables, || None);
        let (owned_tables, lookups) = (&owned, &lookup_matrices);
        exchange.run(
            Direction {
                phases: [
                    phases::FWD_COMPRESS,
                    phases::FWD_A2A,
                    phases::FWD_DECOMPRESS,
                ],
                blocks: |dst| {
                    owned_tables
                        .iter()
                        .enumerate()
                        .map(move |(local_idx, &t)| (t, &lookups[local_idx * world + dst]))
                },
                hints: &mut fwd_hints,
                traffic: Some(&mut fwd_traffic),
                rows_from: |_src| my_shard.batch_size(),
                sink: |table, _src, lookup| lookup_slots[table as usize] = Some(lookup),
            },
            &mut scratch,
            &mut acct,
            controller.as_mut(),
        );
        my_lookups.clear();
        my_lookups.extend(
            lookup_slots
                .drain(..)
                .enumerate()
                .map(|(t, m)| m.unwrap_or_else(|| panic!("no lookup received for table {t}"))),
        );

        // ── mlp forward, metrics, mlp backward (data-parallel).
        let t0 = Instant::now();
        let cache = model.forward_dense(&my_shard.dense, &my_lookups);
        acct.ledger
            .add_time(phases::MLP_FWD, t0.elapsed().as_secs_f64() * compute_scale);
        per_iteration.push(EvalMetrics::from_logits(&cache.logits, &my_shard.labels));
        if let Some(state) = controller.as_mut() {
            state.loss_sum += per_iteration.last().expect("just pushed").loss;
            state.loss_n += 1;
        }
        acct.close(phases::MLP_FWD, &scratch, 0);

        let t0 = Instant::now();
        let grads = model.backward_dense(&cache, &my_shard.labels);
        acct.ledger
            .add_time(phases::MLP_BWD, t0.elapsed().as_secs_f64() * compute_scale);
        acct.close(phases::MLP_BWD, &scratch, 0);

        // ── bwd compression → bwd all-to-all → bwd decompression: every
        // shard sends each table's gradient home to its owner — the same
        // exchange, mirrored. The combined push replaces the whole block
        // (including the owner-side apply): dense per-table accumulators
        // added in the compressed domain — at node leaders when hierarchical
        // — so owners decode one stream per table.
        if let Some(push) = grad_push.as_mut() {
            push.run(
                ctx,
                partition,
                &mut model,
                &grads,
                &my_shard.sparse,
                &push_cards,
                dim,
                trainer.learning_rate,
                &cost,
                hier_iter.as_ref(),
                &mut scratch,
                &tags,
                &mut acct.ledger,
                compute_scale,
            );
        } else {
            let table_grads = &grads.embedding_grads;
            exchange.run(
                Direction {
                    phases: [
                        phases::BWD_COMPRESS,
                        phases::BWD_A2A,
                        phases::BWD_DECOMPRESS,
                    ],
                    // `tables_of` is sorted ascending.
                    blocks: |owner| {
                        partition
                            .tables_of(owner)
                            .iter()
                            .map(move |&t| (t, &table_grads[t]))
                    },
                    hints: &mut bwd_hints,
                    traffic: None,
                    rows_from: |src: usize| shards[src].batch_size(),
                    sink: |table, src, grad| grad_entries.push((table, src, grad)),
                },
                &mut scratch,
                &mut acct,
                controller.as_mut(),
            );
        }

        // ── embedding update (the combined push already applied its dense
        // gradients and left no entries).
        let t0 = Instant::now();
        // Apply per table in source-rank order for determinism (tables are
        // independent, so cross-table order is irrelevant).
        grad_entries.sort_unstable_by_key(|&(t, s, _)| (t, s));
        for (table, src, grad) in grad_entries.drain(..) {
            model.apply_embedding_grad(
                table as usize,
                &shards[src as usize].sparse[table as usize],
                &grad,
                trainer.learning_rate,
            );
            scratch.put_floats(grad.into_vec());
        }
        acct.ledger.add_time(
            phases::EMB_UPDATE,
            t0.elapsed().as_secs_f64() * compute_scale,
        );
        acct.close(phases::EMB_UPDATE, &scratch, 0);

        // ── mlp all-reduce: sum MLP gradients and update the replicas.
        model.flatten_mlp_grads_into(&grads, &mut scratch.flat_grads);
        // Raw (uncompressed-schedule) charge on this cluster shape — the
        // baseline `dense_saved_seconds` compares against: the flat ring
        // formula, or the tiered charge of the same schedule's analytic
        // per-tier volume under a hierarchical topology.
        let raw_time = match &hier_iter {
            None => cost.allreduce_time(scratch.flat_grads.len() * 4, world),
            Some((topo, tiered)) => {
                let (ri, re) = allreduce_tier_bytes(scratch.flat_grads.len(), topo, rank);
                let (ti, te) = tiered.allreduce_tier_times(ri, re);
                ti + te
            }
        };
        // Error feedback re-injects what compression lost so far, and the
        // collective rebuilds the residual from the bytes it actually sends.
        // `Off` reduces through the lossless codec: bit for bit the plain
        // rank-order sum.
        let mut lossless = RawF32Codec;
        let codec: &mut dyn ReduceCodec = match dense.as_mut() {
            Some(state) => {
                state.compensate(&mut scratch.flat_grads);
                state
            }
            None => &mut lossless,
        };
        // A combine-capable codec on a hierarchy takes the leader-combined
        // schedule (one aggregate per node pair over the inter tier); every
        // other pairing the direct one, its bytes bucketed by tier (a flat
        // cluster is a single tier).
        let (topo, relayed) = match &hier_iter {
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
        let mut ar_time = match &hier_iter {
            Some((_, tiered_cost)) => {
                let (ti, te) = tiered_cost.allreduce_tier_times(tiered.intra, tiered.inter);
                acct.add_tiers(
                    (tiered.intra.sent + tiered.intra.received) as u64,
                    (tiered.inter.sent + tiered.inter.received) as u64,
                    (ti, te),
                );
                ti + te
            }
            None if dense.is_none() => raw_time,
            None => cost.allreduce_wire_time(stats.wire.sent, stats.wire.received, world),
        };
        // Codec time: charged under a device-throughput override (the same
        // convention the a2a codecs use for the breakdown experiments);
        // without one the codec is treated as hidden behind the reduction
        // arithmetic. The charge follows the work the collective actually
        // performed — the stats carry the raw f32 bytes pushed through
        // encode and decode, so the classic schedule charges
        // V/Tc + ((P−1)·own + V)/Td exactly as `estimate_allreduce_speedup`
        // models it, while the homomorphic schedule's eliminated owner-shard
        // decodes vanish from the bill and a compressed-domain combine term
        // (encoded bytes folded, at the codec's nominal combine throughput)
        // appears in its place under [`phases::COMBINE`].
        let mut combine_seconds = 0.0f64;
        if let (Some(state), Some((tc, td))) = (dense.as_ref(), trainer.device_throughput) {
            ar_time += stats.encoded_bytes as f64 / tc + stats.decoded_bytes as f64 / td;
            if stats.combines > 0 {
                let tm = dlrm_grad::stats::nominal_combine_throughput(state.codec().kind())
                    .unwrap_or(td);
                combine_seconds = stats.combined_bytes as f64 / tm;
                // What the classic counterpart of this schedule would have
                // charged: every element encoded once (V), plus P−1
                // own-shard contribution decodes, the own-shard round-trip
                // and the gathered shards ((P−1)·own + V).
                let volume = (scratch.flat_grads.len() * 4) as f64;
                let own_shard =
                    (shard_range(scratch.flat_grads.len(), world, rank).len() * 4) as f64;
                let classic_decoded = (world as f64 - 1.0) * own_shard + volume;
                homo_saved_seconds += (volume - stats.encoded_bytes as f64) / tc
                    + (classic_decoded - stats.decoded_bytes as f64) / td
                    - combine_seconds;
                homo_combine_seconds += combine_seconds;
                acct.ledger.add_time(phases::COMBINE, combine_seconds);
                acct.ledger
                    .add_bytes(phases::COMBINE, stats.combined_bytes as u64);
            }
        }
        homo_combines += stats.combines as u64;
        dense_saved_seconds += (raw_time - ar_time - combine_seconds).max(0.0);
        dense_traffic.0 += (stats.raw.sent + stats.raw.received) as u64;
        dense_traffic.1 += (stats.wire.sent + stats.wire.received) as u64;
        acct.ledger.add_time(phases::ALLREDUCE, ar_time);
        acct.ledger.add_bytes(
            phases::ALLREDUCE,
            (stats.wire.sent + stats.wire.received) as u64,
        );
        let capacity = dense.as_ref().map_or(0, GradCompressor::capacity_bytes)
            + scratch.dense_reduce.capacity_bytes();
        let dense_extra_alloc = capacity.saturating_sub(dense_capacity_mark);
        dense_capacity_mark = capacity;
        acct.close(phases::ALLREDUCE, &scratch, dense_extra_alloc);

        // ── optimizer.
        let t0 = Instant::now();
        let scale = 1.0 / world as f32;
        for g in scratch.flat_grads.iter_mut() {
            *g *= scale;
        }
        model.apply_flat_mlp_grads(&scratch.flat_grads, trainer.learning_rate);
        acct.ledger.add_time(
            phases::OPTIMIZER,
            t0.elapsed().as_secs_f64() * compute_scale,
        );
        acct.close(phases::OPTIMIZER, &scratch, 0);

        // ── runtime controller (probe): try the candidate codecs on live payloads when the next
        // iteration is a reselection point — and once at the end of warm-up,
        // so every candidate's scratch demand and the probe lease class
        // reach working size before the steady-state counters arm.
        if let Some(state) = controller.as_mut() {
            if state.wants_probe(iter, trainer.iterations) || local + 1 == WARMUP_ITERATIONS {
                state.probe(
                    &exchange,
                    &owned,
                    &lookup_matrices,
                    &mut scratch.compress,
                    &mut acct.ledger,
                );
                acct.close(phases::CONTROLLER, &scratch, 0);
            }
        }

        // Reclaim the float storage of this iteration's matrices for reuse.
        for m in lookup_matrices.drain(..) {
            scratch.put_floats(m.into_vec());
        }
        for m in my_lookups.drain(..) {
            scratch.put_floats(m.into_vec());
        }

        // End of warm-up: park one extra working set of leases in the pool.
        // Peers may still hold this iteration's leases when the next
        // iteration's takes happen (the pipeline only synchronises at the
        // collectives), and the in-flight amount is bounded by one
        // iteration's working set — so a second set makes the steady state
        // deterministically allocation-free regardless of thread timing.
        if local + 1 == WARMUP_ITERATIONS {
            // Spares come in three size classes matching the three kinds of
            // lease an iteration takes (payload chunks, 16-byte metadata
            // records, the all-reduce flat buffer). The pool's best-fit
            // policy keeps each class on its own buffers, and the extra sets
            // parked here exceed the worst-case in-flight amount (bounded by
            // one iteration's takes), so no racing take can ever land on an
            // undersized buffer and grow it.
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
            let max_shard_batch = trainer.global_batch.div_ceil(world);
            let max_tables = (0..world)
                .map(|owner| partition.tables_of(owner).len())
                .max()
                .unwrap_or(0);
            let payload_cap = fwd_hints
                .iter()
                .chain(bwd_hints.iter())
                .copied()
                .max()
                .unwrap_or(64)
                .max(
                    CHUNK_HEADER_BYTES + 4 + max_tables * block_worst_bytes(max_shard_batch * dim),
                );
            let largest_shard = shard_range(scratch.flat_grads.len(), world, 0).len();
            let dense_cap = dense
                .as_ref()
                .map_or(0, |s| s.max_encoded_bytes(largest_shard));
            let big_cap = payload_cap.max((largest_shard * 4).max(64).max(dense_cap));
            let mut spares: Vec<PooledBuf> = Vec::with_capacity(9 * world);
            // 3·world for the two a2a compress stages plus in-flight chunks,
            // 4·world for the two shard-lease waves per all-reduce
            // (reduce-scatter, then all-gather) with peers holding a wave.
            spares.extend((0..7 * world).map(|_| ctx.take_buf(big_cap)));
            spares.extend((0..2 * world).map(|_| ctx.take_buf(64)));
            drop(spares);
            if let Some((topo, _)) = &hier {
                // The hierarchical collective takes bundle leases bigger
                // than any single chunk (a node-pair exchange bundle carries
                // ranks_per_node² framed chunks, a scatter bundle carries
                // world − ranks_per_node). Park a working set sized to the
                // largest bundle any phase can request, so fluctuating
                // compressed sizes never catch the pool short.
                let rpn = topo.ranks_per_node();
                let entry = HIER_ENTRY_HEADER_BYTES + payload_cap;
                let bundle_cap = (4 + rpn * rpn * entry)
                    .max(4 + world.saturating_sub(rpn) * entry)
                    .max(4 + rpn * entry);
                let spares: Vec<PooledBuf> =
                    (0..6 * world).map(|_| ctx.take_buf(bundle_cap)).collect();
                drop(spares);
            }
            if let Some(state) = &controller {
                // The window-boundary observation exchange takes one
                // blob-sized lease per peer; park two sets so a boundary
                // racing peers' in-flight returns never allocates.
                let cap = state.blob_capacity(owned.len()).max(64);
                let spares: Vec<PooledBuf> = (0..2 * world).map(|_| ctx.take_buf(cap)).collect();
                drop(spares);
            }
            // Parking is warm-up work; exclude it from the steady counters.
            acct.marks.pool = ctx.pool().stats();
        }

        if let Some(o) = acct.obs.as_mut() {
            o.end_iteration(
                iter,
                &acct.ledger,
                &acct.wall,
                &fwd_traffic,
                acct.tier_bytes,
                dense.as_ref().map_or(0.0, GradCompressor::residual_norm),
            );
        }
    }

    // ── checkpoint (segment exit): a planned resize checkpoints the final
    // state so the regrown world has an exact restore point at the boundary.
    if seg.checkpoint_at_end {
        let spec = seg
            .checkpoint
            .as_ref()
            .expect("validated: a forced end checkpoint requires a spec");
        checkpoints.write(
            seg.end,
            spec,
            &model,
            &owned,
            dense.as_ref(),
            compute_scale,
            &mut acct,
            &scratch,
        );
    }

    let Accounting {
        ledger,
        wall,
        obs,
        steady_allocated,
        tier_bytes,
        tier_seconds,
        ..
    } = acct;
    let (obs_track, obs_metrics) = match obs {
        None => (None, None),
        Some(o) => (Some(RankTrack::from(o.rec)), Some(o.metrics)),
    };
    // Combine-aware Equation-2 advice on the last post-all-reduce gradient:
    // every rank holds the identical vector (the all-gather distributed the
    // same reduced shards), so the advice is deterministic across ranks.
    let dense_advice = if scratch.flat_grads.is_empty() {
        None
    } else {
        let gstats = dlrm_grad::GradStats::from_slice(&scratch.flat_grads);
        advise_dense_allreduce(
            &dlrm_grad::dense_candidates(&gstats),
            base_cost.config().allreduce_bandwidth,
            world,
        )
    };

    RankOutcome {
        rank,
        per_iteration,
        ledger,
        wall: wall.into_ledger(),
        fwd_traffic,
        pool_stats: ctx.pool().stats(),
        steady_state_allocated_bytes: steady_allocated,
        dense_traffic,
        dense_saved_seconds,
        dense_residual_norm: dense.as_ref().map_or(0.0, GradCompressor::residual_norm),
        homo_combines,
        homo_combine_seconds,
        homo_saved_seconds,
        grad_push_combines: grad_push.map_or(0, |p| p.combines),
        dense_advice,
        tier_bytes,
        tier_seconds,
        reselections: controller
            .as_ref()
            .map_or_else(Vec::new, |s| s.ctl.log().to_vec()),
        window_traffic: controller.map_or_else(Vec::new, |s| s.window_traffic),
        last_checkpoint: checkpoints.last,
        checkpoints_taken: checkpoints.taken,
        checkpoint_original_bytes: checkpoints.original_bytes,
        checkpoint_encoded_bytes: checkpoints.encoded_bytes,
        checkpoint_write_seconds: checkpoints.write_seconds,
        obs_track,
        obs_metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_compress::CompressorKind;
    use proptest::prelude::*;

    /// Build one chunk of raw-fp32 blocks the way the exchange stage does.
    fn raw_chunk(blocks: &[(u32, Vec<f32>)]) -> Vec<u8> {
        let mut chunk = (blocks.len() as u32).to_le_bytes().to_vec();
        let mut scratch = CompressScratch::new();
        for (table, data) in blocks {
            let raw = ResolvedCompression::Raw;
            write_block(&raw, *table as usize, 0, data, 1, &mut scratch, &mut chunk);
        }
        chunk
    }

    /// Walk `bytes`, turning a panic inside the walker into a test failure
    /// that names the input (the vendored proptest does not shrink).
    fn walk(bytes: &[u8], seed: u64) -> Result<Vec<(u32, Vec<u8>)>, BlockError> {
        std::panic::catch_unwind(|| {
            block_slices(bytes)
                .map(|b| b.map(|(t, p)| (t, p.to_vec())))
                .collect()
        })
        .unwrap_or_else(|_| panic!("block_slices panicked: seed {seed:#x}, bytes {bytes:?}"))
    }

    #[test]
    fn block_encoding_roundtrips() {
        let blocks = vec![
            (0u32, vec![1.0f32, 2.0, 3.0]),
            (7u32, vec![]),
            (25u32, (0..255).map(|i| i as f32).collect()),
        ];
        let expected: Vec<(u32, Vec<u8>)> = blocks
            .iter()
            .map(|(t, d)| (*t, d.iter().flat_map(|v| v.to_le_bytes()).collect()))
            .collect();
        assert_eq!(walk(&raw_chunk(&blocks), 0), Ok(expected));
        assert_eq!(walk(&raw_chunk(&[]), 0), Ok(vec![]));
        // Trailing bytes after the announced blocks are an error too.
        let mut long = raw_chunk(&blocks[..1]);
        long.push(0);
        let err = walk(&long, 0).unwrap_err();
        assert_eq!((err.needed, err.available), (0, 1));
    }

    proptest! {
        /// The walker is total: every proper prefix of a well-formed chunk
        /// and every corruption of its count/length fields is an error or a
        /// (different) successful walk — never a panic.
        #[test]
        fn block_walker_is_total(
            blocks in prop::collection::vec(
                (0u32..64, prop::collection::vec(-1.0f32..1.0, 0..12)),
                0..5,
            ),
            seed in any::<u64>(),
        ) {
            let chunk = raw_chunk(&blocks);
            assert_eq!(walk(&chunk, seed).map(|b| b.len()), Ok(blocks.len()));
            for cut in 0..chunk.len() {
                let err = walk(&chunk[..cut], seed)
                    .expect_err("a truncated chunk must not walk cleanly");
                assert!(
                    err.needed > err.available && err.offset + err.available == cut,
                    "cut {cut}: {err} (seed {seed:#x}, bytes {chunk:?})"
                );
            }
            // Flip one seed-chosen bit in the count field and in every
            // block's length field.
            let mut fields = vec![0usize];
            let mut pos = 4;
            for (_, data) in &blocks {
                fields.push(pos + 4);
                pos += 8 + data.len() * 4;
            }
            for (i, field) in fields.into_iter().enumerate() {
                let pick = seed.rotate_right(5 * i as u32) as usize;
                let mut bad = chunk.clone();
                bad[field + pick % 4] ^= 1 << (pick / 4 % 8);
                assert!(
                    walk(&bad, seed) != walk(&chunk, seed),
                    "corrupt field at {field} went unnoticed (seed {seed:#x}, bytes {bad:?})"
                );
            }
        }
    }

    #[test]
    fn resolved_compression_roundtrips_each_mode() {
        let data: Vec<f32> = (0..64).map(|i| (i as f32 * 0.1).sin() * 0.3).collect();
        let roundtrip = |c: &ResolvedCompression, table: usize, iter: usize| {
            let mut scratch = CompressScratch::new();
            let (mut bytes, mut out) = (Vec::new(), Vec::new());
            c.compress_into(table, iter, &data, 8, &mut scratch, &mut bytes);
            c.decompress_into(table, &bytes, &mut scratch, &mut out);
            out
        };
        assert_eq!(roundtrip(&ResolvedCompression::Raw, 0, 0), data);

        let out = roundtrip(&ResolvedCompression::LowPrec(Precision::Fp16), 0, 0);
        for (a, b) in data.iter().zip(out.iter()) {
            assert!((a - b).abs() < 1e-3);
        }

        let lossy = ResolvedCompression::from_setting(
            &CompressionSetting::fixed(0.01, CompressorKind::OursHybrid),
            3,
        );
        for (a, b) in data.iter().zip(roundtrip(&lossy, 2, 5).iter()) {
            assert!((a - b).abs() <= 0.0101);
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
            let mut buf = ctx.take_chunk_buf(256);
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
            let mut buf = ctx.take_chunk_buf(CHUNK_HEADER_BYTES);
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
            assert!(retried[CHUNK_HEADER_BYTES..].iter().all(|&b| b == 7));
            // The pool recorded the retry take once (here as an allocation —
            // the grown lease was still held when the retry was taken; on
            // its next take the parked grown storage is reused instead).
            let delta = ctx.pool().stats().since(&before);
            assert_eq!(delta.allocations + delta.reuses, 1);
            drop(retried);
            // Steady state after the retry: re-leasing the same sizes is
            // allocation-free, so the warm-up growth was a one-time cost.
            let before = ctx.pool().stats();
            let again = ctx.take_chunk_buf(len);
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
        use dlrm_comm::NetworkConfig;
        let cost = NetworkConfig {
            alltoall_bandwidth: 1e6,
            allreduce_bandwidth: 1e6,
            latency: 1e-4,
        }
        .cost_model();
        let mut ledger = TimingLedger::new();
        // 3 peers + self; codec 1ms per chunk, 1000 bytes per peer chunk
        // (1ms wire each at 1 MB/s).
        let codec = [1e-3, 1e-3, 1e-3, 1e-3];
        let sent = [0usize, 1000, 1000, 1000];
        let recv = [0usize, 1000, 1000, 1000];
        let timeline = charge_overlapped_a2a(&mut ledger, "a2a", &cost, &codec, &sent, &recv);
        // Wire total equals the bulk bottleneck time: 3000 bytes / 1 MB/s.
        assert!((timeline.wire_seconds() - 3e-3).abs() < 1e-12);
        // Pipeline: codec 4ms total; chunk 0 has no wire; makespan 2ms codec
        // + 3 wire hops... exactly the timeline's elapsed.
        let exposed = timeline.exposed_wire();
        assert!((ledger.seconds("a2a") - (1e-4 + exposed)).abs() < 1e-15);
        assert!(ledger.overlap_saved("a2a") > 0.0);
        assert!(
            (ledger.overlap_saved("a2a") - timeline.saved()).abs() < 1e-15,
            "hidden time must land in the overlap_saved counter"
        );
        assert_eq!(ledger.bytes("a2a"), 6000);
    }

    #[test]
    fn tags_distinguish_modes() {
        let raw = ResolvedCompression::Raw;
        let fp16 = ResolvedCompression::LowPrec(Precision::Fp16);
        let lossy = ResolvedCompression::from_setting(
            &CompressionSetting::fixed(0.01, CompressorKind::OursVector),
            1,
        );
        assert_ne!(raw.tag(0), fp16.tag(0));
        assert_ne!(fp16.tag(0), lossy.tag(0));
    }
}
