//! Trainer configuration.

use dlrm_adaptive::controller::PlateauEbControl;
use dlrm_adaptive::{CodecProfile, CompressionPlan, DecaySchedule, EbSchedule, TrainingPhases};
use dlrm_ckpt::CheckpointSpec;
use dlrm_comm::{BandwidthTrace, FaultPlan, NetworkConfig, Topology, WorldEvent};
use dlrm_compress::CompressorKind;
use dlrm_grad::{CodecBank, GradCodecKind};

/// How (and whether) all-to-all payloads are compressed.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressionSetting {
    /// Baseline: raw FP32 payloads, no compression stages.
    None,
    /// Cast payloads to IEEE binary16 (the low-precision baseline).
    Fp16,
    /// Cast payloads to FP8 E4M3 (the aggressive low-precision baseline).
    Fp8,
    /// Error-bounded lossy compression with one fixed global error bound and
    /// one compressor for every table (the "fixed global EB" configuration of
    /// Figures 8/9).
    FixedLossy {
        /// Absolute error bound applied to every table.
        error_bound: f32,
        /// Compressor used for every table.
        compressor: CompressorKind,
        /// Iteration-wise decay of the error bound.
        schedule: EbSchedule,
    },
    /// The full dual-level adaptive configuration produced by the offline
    /// analysis: per-table error bounds and compressors plus the shared decay
    /// schedule.
    Adaptive(CompressionPlan),
}

impl CompressionSetting {
    /// A fixed-EB lossy setting with no iteration-wise decay — the most
    /// common configuration in the accuracy experiments (global EB 0.02).
    pub fn fixed(error_bound: f32, compressor: CompressorKind) -> Self {
        CompressionSetting::FixedLossy {
            error_bound,
            compressor,
            schedule: EbSchedule {
                schedule: DecaySchedule::None,
                start_factor: 1.0,
                steps: 1,
                phases: TrainingPhases {
                    initial_iters: 0,
                    stable_iters: usize::MAX / 2,
                },
            },
        }
    }

    /// Short label used in reports.
    pub fn label(&self) -> String {
        match self {
            CompressionSetting::None => "fp32-baseline".to_string(),
            CompressionSetting::Fp16 => "fp16".to_string(),
            CompressionSetting::Fp8 => "fp8".to_string(),
            CompressionSetting::FixedLossy {
                error_bound,
                compressor,
                ..
            } => {
                format!("lossy-{}-eb{}", compressor.label(), error_bound)
            }
            CompressionSetting::Adaptive(_) => "lossy-adaptive".to_string(),
        }
    }

    /// True if this setting inserts compression/decompression stages.
    pub fn is_compressed(&self) -> bool {
        !matches!(self, CompressionSetting::None)
    }

    /// The embedding exchange's codec per table of a `num_tables`-table
    /// model: `None` the identity codec, the casts theirs, and the lossy
    /// settings the error-bounded codec at each table's base bound.
    ///
    /// # Panics
    /// Panics if an adaptive plan does not have `num_tables` tables.
    pub fn codec_bank(&self, num_tables: usize) -> CodecBank {
        let bounded = |compressor, error_bound| GradCodecKind::ErrorBounded {
            compressor,
            error_bound,
        };
        match self {
            CompressionSetting::None => CodecBank::new(num_tables, GradCodecKind::Identity),
            CompressionSetting::Fp16 => CodecBank::new(num_tables, GradCodecKind::Fp16),
            CompressionSetting::Fp8 => CodecBank::new(num_tables, GradCodecKind::Fp8),
            CompressionSetting::FixedLossy {
                error_bound,
                compressor,
                ..
            } => CodecBank::new(num_tables, bounded(*compressor, *error_bound)),
            CompressionSetting::Adaptive(plan) => {
                assert_eq!(
                    plan.tables.len(),
                    num_tables,
                    "compression plan does not match the model's table count"
                );
                CodecBank::per_table(
                    (plan.tables.iter()).map(|t| bounded(t.compressor, t.base_error_bound)),
                )
            }
        }
    }

    /// The iteration-wise decay of the lossy settings' error bounds; `None`
    /// for the settings without one.
    pub fn schedule(&self) -> Option<EbSchedule> {
        match self {
            CompressionSetting::FixedLossy { schedule, .. } => Some(*schedule),
            CompressionSetting::Adaptive(plan) => Some(plan.schedule),
            _ => None,
        }
    }
}

/// How (and whether) the dense MLP-gradient all-reduce (the pipeline's
/// `mlp all-reduce` phase) is compressed.
///
/// `Off` runs the classic uncompressed sum-all-reduce and is **bit-for-bit
/// identical** to the pre-compression trainer. `Compressed` routes the
/// gradients through [`dlrm_comm`]'s reduce-scatter + all-gather compressed
/// collective with a [`GradCodecKind`] encoding every hop; with
/// `error_feedback` the per-rank residual accumulator re-injects whatever
/// the codec lost (required for top-k, recommended for every lossy codec).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum DenseCompression {
    /// Uncompressed fp32 all-reduce — today's path, bit for bit.
    #[default]
    Off,
    /// Compressed all-reduce hops.
    Compressed {
        /// Codec applied to every shard on the wire.
        codec: GradCodecKind,
        /// Maintain an error-feedback residual accumulator.
        error_feedback: bool,
    },
    /// Compressed all-reduce hops through a **homomorphic** codec, with the
    /// compressed-domain combine enabled: owner shards fold encoded
    /// contributions (`ReduceCodec::combine`) instead of decode → reduce →
    /// re-encode, charging combine cycles to the `homomorphic combine`
    /// phase. The codec must advertise the capability
    /// ([`GradCodecKind::is_homomorphic`]); the same codec under
    /// `Compressed` runs the classic owner-shard path — the comparison arm.
    Homomorphic {
        /// Homomorphic codec applied to every shard on the wire.
        codec: GradCodecKind,
        /// Maintain an error-feedback residual accumulator.
        error_feedback: bool,
    },
}

impl DenseCompression {
    /// FP16-cast hops without error feedback (the naive low-precision arm).
    pub fn fp16() -> Self {
        DenseCompression::Compressed {
            codec: GradCodecKind::Fp16,
            error_feedback: false,
        }
    }

    /// FP16-cast hops with error feedback — the recommended cheap setting.
    pub fn fp16_ef() -> Self {
        DenseCompression::Compressed {
            codec: GradCodecKind::Fp16,
            error_feedback: true,
        }
    }

    /// Magnitude top-k sparsification with error feedback (EF is what makes
    /// sparsification converge).
    pub fn top_k_ef(fraction: f32) -> Self {
        DenseCompression::Compressed {
            codec: GradCodecKind::TopK { fraction },
            error_feedback: true,
        }
    }

    /// The lossless identity codec through the compressed collective —
    /// diagnostics arm proving the schedule itself is exact.
    pub fn identity() -> Self {
        DenseCompression::Compressed {
            codec: GradCodecKind::Identity,
            error_feedback: false,
        }
    }

    /// The THC-style lattice quantizer with the compressed-domain combine
    /// enabled (no error feedback; the bound is absolute and point-wise).
    pub fn lattice(error_bound: f32) -> Self {
        DenseCompression::Homomorphic {
            codec: GradCodecKind::Lattice { error_bound },
            error_feedback: false,
        }
    }

    /// The lattice quantizer, combine enabled, with error feedback.
    pub fn lattice_ef(error_bound: f32) -> Self {
        DenseCompression::Homomorphic {
            codec: GradCodecKind::Lattice { error_bound },
            error_feedback: true,
        }
    }

    /// The lattice quantizer through the **classic** owner-shard path
    /// (decode → reduce → re-encode) — the equal-error-bound comparison arm
    /// of the homomorphic experiments.
    pub fn lattice_classic(error_bound: f32) -> Self {
        DenseCompression::Compressed {
            codec: GradCodecKind::Lattice { error_bound },
            error_feedback: false,
        }
    }

    /// The lossless index–sum sketch with the compressed-domain combine
    /// enabled — exact recovery on the dense path, no error feedback
    /// needed.
    pub fn sum_sketch() -> Self {
        DenseCompression::Homomorphic {
            codec: GradCodecKind::SumSketch,
            error_feedback: false,
        }
    }

    /// True if the all-reduce runs the compressed collective.
    pub fn is_compressed(&self) -> bool {
        !matches!(self, DenseCompression::Off)
    }

    /// True if the all-reduce folds encoded shards in the compressed domain.
    pub fn is_homomorphic(&self) -> bool {
        matches!(self, DenseCompression::Homomorphic { .. })
    }

    /// The configured codec kind, if any.
    pub fn codec(&self) -> Option<&GradCodecKind> {
        match self {
            DenseCompression::Off => None,
            DenseCompression::Compressed { codec, .. }
            | DenseCompression::Homomorphic { codec, .. } => Some(codec),
        }
    }

    /// Short label used in reports.
    pub fn label(&self) -> String {
        match self {
            DenseCompression::Off => "dense-fp32".to_string(),
            DenseCompression::Compressed {
                codec,
                error_feedback,
            } => {
                let ef = if *error_feedback { "+ef" } else { "" };
                format!("dense-{}{}", codec.label(), ef)
            }
            DenseCompression::Homomorphic {
                codec,
                error_feedback,
            } => {
                let ef = if *error_feedback { "+ef" } else { "" };
                format!("dense-homo-{}{}", codec.label(), ef)
            }
        }
    }
}

/// Whether the two all-to-all stages are charged as the double-buffered
/// compress/communicate pipeline (the paper's Figure 3 streaming design) or
/// as the plain sequential schedule.
///
/// Both settings run the same exchange — the same bytes are compressed,
/// moved and decompressed in the same order — so only the charge differs:
/// with `DoubleBuffered`, the codec for chunk *k+1* runs while chunk *k* is
/// on the wire, and the hidden wire time is recorded in the ledger's
/// `overlap_saved` counters instead of the iteration's critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlapSetting {
    /// Sequential charge: every exchange pays its full α + β after the codec.
    #[default]
    Off,
    /// Double-buffered charge: per-destination chunks are begin-sent as soon
    /// as they are compressed, so the codec overlaps the (virtual) wire.
    DoubleBuffered,
}

impl OverlapSetting {
    /// True when the overlapped pipeline is selected.
    pub fn is_enabled(&self) -> bool {
        matches!(self, OverlapSetting::DoubleBuffered)
    }

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            OverlapSetting::Off => "sequential",
            OverlapSetting::DoubleBuffered => "overlapped",
        }
    }
}

/// Which `dlrm-exec` scheduling mode runs the rank pipelines.
///
/// The executor never changes numerics — per-pair FIFO channels, fixed
/// rotation schedules and rank-order reductions make the result a function
/// of the data alone (asserted across the executor test matrix). What
/// changes is *wall-clock* behaviour: `Threaded` free-runs one OS thread
/// per rank, so codec work genuinely overlaps in-flight payloads;
/// `Sequential` serializes the ranks under a turn-taking gate, the honest
/// single-core baseline.
///
/// One caveat: under [`AdaptiveSetting::Runtime`] with **no**
/// [`TrainerConfig::codec_profile`] and no
/// [`TrainerConfig::device_throughput`], the controller feeds *measured*
/// codec throughput into its Equation-2 reselections, and measured time is
/// executor- (and machine-) dependent. Configure a codec profile when
/// reselections must be reproducible across executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorSetting {
    /// Ranks take turns under a serial gate (single-core baseline).
    Sequential,
    /// One free-running OS thread per rank (the default, and the behaviour
    /// the trainer always had).
    #[default]
    Threaded,
}

impl ExecutorSetting {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutorSetting::Sequential => "sequential",
            ExecutorSetting::Threaded => "threaded",
        }
    }

    /// The `dlrm-exec` scheduling mode this setting selects.
    pub fn exec_mode(&self) -> dlrm_exec::ExecMode {
        match self {
            ExecutorSetting::Sequential => dlrm_exec::ExecMode::Sequential,
            ExecutorSetting::Threaded => dlrm_exec::ExecMode::Threaded,
        }
    }

    /// The clock domain a trace recorded under this executor lives in:
    /// deterministic modeled time under the serialized gate, wall time under
    /// free-running threads (see [`dlrm_exec::ExecMode::deterministic_clock`]).
    pub fn clock_domain(&self) -> dlrm_obs::ClockDomain {
        if self.exec_mode().deterministic_clock() {
            dlrm_obs::ClockDomain::Modeled
        } else {
            dlrm_obs::ClockDomain::Wall
        }
    }
}

/// Whether the run records structured traces and per-iteration metrics
/// (`dlrm-obs`).
///
/// `Off` takes exactly the code path the pre-observability trainer took —
/// bit for bit, with no recorder allocated (asserted by the trace test
/// matrix). `On` attaches a preallocated per-rank span ring and metrics
/// series; records are `Copy` and ring capacity is sized up front, so the
/// zero-allocation steady state survives with tracing enabled. Timestamps
/// follow the executor: modeled (deterministic) under
/// [`ExecutorSetting::Sequential`], wall-clock under
/// [`ExecutorSetting::Threaded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsSetting {
    /// No recording — the default, and byte-identical to the trainer
    /// without the observability layer.
    #[default]
    Off,
    /// Record per-phase spans, instant events and the per-iteration
    /// metrics series; the report carries a Chrome trace and time series.
    On,
}

impl ObsSetting {
    /// True when recording is enabled.
    pub fn is_enabled(&self) -> bool {
        matches!(self, ObsSetting::On)
    }

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            ObsSetting::Off => "off",
            ObsSetting::On => "on",
        }
    }
}

/// How the cluster's interconnect is shaped: one flat tier (every rank pair
/// identical — today's model and the default) or a node-aware hierarchy.
///
/// `Flat` takes exactly the code path the topology-less trainer took —
/// bit-for-bit, in numerics *and* in charged virtual time (asserted by the
/// topology test matrix). `Hierarchical` relays both all-to-all stages
/// through node leaders ([`dlrm_comm::RankCtx::begin_relayed`]: intra-node
/// gather onto the node leader, aggregated leader exchange across the
/// fabric, intra-node scatter) and charges every phase — the all-to-alls
/// *and* the dense all-reduce — with the [`Topology`]'s tiered cost model.
/// Payloads and reduced gradients are bit-identical to the flat run; only
/// modeled time and per-tier wire volume change. When a topology is set,
/// [`TrainerConfig::network`] is ignored in favour of the per-tier links.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TopologySetting {
    /// Single-tier cluster over [`TrainerConfig::network`] — today's path.
    #[default]
    Flat,
    /// Node-aware two-tier cluster.
    Hierarchical(Topology),
}

impl TopologySetting {
    /// The topology, when hierarchical.
    pub fn topology(&self) -> Option<&Topology> {
        match self {
            TopologySetting::Flat => None,
            TopologySetting::Hierarchical(topo) => Some(topo),
        }
    }

    /// True when the hierarchical collective is selected.
    pub fn is_hierarchical(&self) -> bool {
        matches!(self, TopologySetting::Hierarchical(_))
    }

    /// Short label used in reports (`"flat"` or `"<nodes>x<ranks>"`).
    pub fn label(&self) -> String {
        match self {
            TopologySetting::Flat => "flat".to_string(),
            TopologySetting::Hierarchical(topo) => {
                format!("{}x{}", topo.nodes(), topo.ranks_per_node())
            }
        }
    }
}

/// Whether compressor/error-bound selection is frozen before iteration 0
/// (the offline analysis) or revised *during* training by the closed-loop
/// runtime controller.
///
/// `Static` is the default and stays **bit-for-bit** the pre-controller
/// pipeline (asserted by the adaptive test matrix). `Runtime` re-runs
/// Equation-2 selection once per `window` iterations from live
/// measurements — per-table compression ratios, candidate-codec ratios
/// probed on live payloads, the effective wire bandwidth observed on the
/// ledger, the loss curve — with `hysteresis` guarding against selection
/// thrash (see [`dlrm_adaptive::RuntimeController`]). Reselection decisions
/// are deterministic and identical on every rank: the raw per-table
/// measurements are all-gathered at each window boundary, so the rank that
/// compresses a table and the ranks that decompress it always agree on the
/// codec.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum AdaptiveSetting {
    /// Offline selection only — today's path, bit for bit.
    #[default]
    Static,
    /// Closed-loop runtime reselection.
    Runtime {
        /// Iterations per observation window (one reselection point per
        /// window boundary).
        window: usize,
        /// Relative Equation-2 advantage a challenger codec needs over the
        /// incumbent before a table switches (e.g. `0.1` = 10%).
        hysteresis: f64,
        /// Optional loss-plateau-driven error-bound control; `None` leaves
        /// error bounds to the decay schedule alone.
        eb_control: Option<PlateauEbControl>,
    },
}

impl AdaptiveSetting {
    /// Runtime reselection with the given window and hysteresis, without
    /// error-bound control — the common configuration.
    pub fn runtime(window: usize, hysteresis: f64) -> Self {
        AdaptiveSetting::Runtime {
            window,
            hysteresis,
            eb_control: None,
        }
    }

    /// True when the runtime controller is enabled.
    pub fn is_runtime(&self) -> bool {
        matches!(self, AdaptiveSetting::Runtime { .. })
    }

    /// Short label used in reports.
    pub fn label(&self) -> String {
        match self {
            AdaptiveSetting::Static => "static".to_string(),
            AdaptiveSetting::Runtime {
                window, hysteresis, ..
            } => format!("runtime-w{window}-h{hysteresis}"),
        }
    }
}

/// Deterministic fault/elasticity scenario for a run: a
/// [`FaultPlan`] scheduling stragglers and world events, plus the
/// checkpoint policy that makes the world events recoverable.
///
/// Stragglers need no checkpoint — they only degrade the modeled network
/// while active. Rank-loss and resize events *do* require a
/// [`CheckpointSpec`]: the driver replays from the last checkpoint at or
/// before the event, re-sharding the embedding tables onto the new world
/// (see `trainer::partition`), so validation rejects a plan with world
/// events but no checkpoint policy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSetting {
    /// The scheduled stragglers and world events.
    pub plan: FaultPlan,
    /// Checkpoint cadence/codec; required when the plan has world events.
    pub checkpoint: Option<CheckpointSpec>,
}

impl FaultSetting {
    /// A fault setting over `plan` with no checkpointing.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            checkpoint: None,
        }
    }

    /// Builder: checkpoint with the given policy.
    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Short label used in reports, e.g. `s1e2+ckpt@4/fp16` (1 straggler
    /// window, 2 world events) or `none`.
    pub fn label(&self) -> String {
        if self.plan.is_none() && self.checkpoint.is_none() {
            return "none".to_string();
        }
        let mut label = format!(
            "s{}e{}",
            self.plan.stragglers().len(),
            self.plan.events().len()
        );
        if let Some(spec) = &self.checkpoint {
            label.push('+');
            label.push_str(&spec.label());
        }
        label
    }
}

/// Full configuration of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerConfig {
    /// Number of simulated ranks (GPUs).
    pub world: usize,
    /// Global mini-batch size (split across ranks).
    pub global_batch: usize,
    /// Number of training iterations.
    pub iterations: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Compression applied to the all-to-all payloads.
    pub compression: CompressionSetting,
    /// Whether the all-to-all stages overlap compression with the wire
    /// (defaults to [`OverlapSetting::Off`], the sequential charge).
    pub overlap: OverlapSetting,
    /// Compression of the dense MLP-gradient all-reduce (defaults to
    /// [`DenseCompression::Off`], the bit-exact uncompressed path).
    pub dense_compression: DenseCompression,
    /// Simulated interconnect.
    pub network: NetworkConfig,
    /// Cluster shape: flat (default) or a node-aware two-tier hierarchy
    /// (see [`TopologySetting`]).
    pub topology: TopologySetting,
    /// Whether compressor selection is frozen at iteration 0 or revised
    /// mid-run by the closed-loop controller (defaults to
    /// [`AdaptiveSetting::Static`], the bit-exact offline-only path).
    pub adaptive: AdaptiveSetting,
    /// Optional piecewise-constant drift of the modeled interconnect.
    /// `None` (the default) charges [`TrainerConfig::network`] — or the
    /// topology's tiers — for the whole run, bit for bit; `Some(trace)`
    /// makes every network charge use the link in effect at the current
    /// iteration (under a hierarchical topology the trace replaces the
    /// **inter-node** tier).
    pub bandwidth_trace: Option<BandwidthTrace>,
    /// Optional fault/elasticity scenario. `None` — and a setting whose
    /// plan is [`FaultPlan::none`] — run today's healthy path **bit for
    /// bit**; a non-trivial plan degrades the modeled network while a
    /// straggler window is active and splits the run into segments around
    /// each world event, with checkpoint/re-shard/replay recovery between
    /// them.
    pub fault: Option<FaultSetting>,
    /// Optional per-codec analytic throughput model: when set, compression
    /// and decompression time of the all-to-all payloads is charged as
    /// `bytes / throughput(kind)` per codec instead of a single flat
    /// [`TrainerConfig::device_throughput`] pair — which is what lets two
    /// codecs with different speed/ratio trade-offs be compared in modeled
    /// time (and what the runtime controller's selection assumes). Takes
    /// precedence over `device_throughput` for the embedding payloads.
    pub codec_profile: Option<CodecProfile>,
    /// Which `dlrm-exec` scheduling mode runs the rank pipelines (defaults
    /// to [`ExecutorSetting::Threaded`], the free-running thread-per-rank
    /// executor). Numerics are identical either way.
    pub executor: ExecutorSetting,
    /// When `true`, message delivery is paced by the α–β model with real
    /// sleeps (`dlrm-comm`'s `WirePolicy::Modeled`), making the wall-clock
    /// phase timings in the report meaningful against the modeled ledger.
    /// Defaults to `false`: instant delivery, wall timings then measure
    /// compute and synchronisation only.
    pub realtime_wire: bool,
    /// Whether the run records structured spans and per-iteration metrics
    /// (defaults to [`ObsSetting::Off`], the bit-identical no-recorder
    /// path).
    pub obs: ObsSetting,
    /// Seed for data generation and model initialisation.
    pub seed: u64,
    /// If set, compression and decompression time is *charged analytically*
    /// as `bytes / throughput` (bytes/s) instead of using the measured CPU
    /// time — used to model the paper's GPU compressor throughputs when
    /// reproducing the Figure 12 breakdown. `(compress, decompress)`.
    pub device_throughput: Option<(f64, f64)>,
    /// Scale factor applied to the *measured* dense-compute phases (lookup,
    /// MLP forward/backward, embedding/optimizer updates) before they are
    /// recorded in the ledger. The accuracy experiments leave this at 1.0;
    /// the time-breakdown experiments (Figures 1 and 12) set it well below
    /// 1.0 to model an A100-class accelerator running the compute while the
    /// α–β model provides the network time — the comm/compute *ratio*, not
    /// this machine's CPU speed, is what those figures are about.
    pub compute_time_scale: f64,
}

impl TrainerConfig {
    /// A small default suitable for tests: 4 ranks, batch 128.
    ///
    /// The learning rate is deliberately on the aggressive side (0.2): test
    /// runs are short, and the assertions about "training learns" need the
    /// loss to move measurably within ~100 iterations.
    pub fn small_test(compression: CompressionSetting) -> Self {
        Self {
            world: 4,
            global_batch: 128,
            iterations: 8,
            learning_rate: 0.2,
            compression,
            overlap: OverlapSetting::Off,
            dense_compression: DenseCompression::Off,
            network: NetworkConfig::default(),
            topology: TopologySetting::Flat,
            adaptive: AdaptiveSetting::Static,
            bandwidth_trace: None,
            fault: None,
            codec_profile: None,
            executor: ExecutorSetting::Threaded,
            realtime_wire: false,
            obs: ObsSetting::Off,
            seed: 20_240_614,
            device_throughput: None,
            compute_time_scale: 1.0,
        }
    }

    /// The same configuration with the given cluster topology
    /// (builder-style convenience for the topology test matrix).
    pub fn with_topology(mut self, topology: TopologySetting) -> Self {
        self.topology = topology;
        self
    }

    /// The same configuration with the given overlap mode (builder-style
    /// convenience for the on/off test matrix and experiments).
    pub fn with_overlap(mut self, overlap: OverlapSetting) -> Self {
        self.overlap = overlap;
        self
    }

    /// The same configuration with the given dense-gradient compression
    /// (builder-style convenience for the dense test matrix and experiments).
    pub fn with_dense_compression(mut self, dense: DenseCompression) -> Self {
        self.dense_compression = dense;
        self
    }

    /// The same configuration with the given adaptive setting
    /// (builder-style convenience for the adaptive test matrix).
    pub fn with_adaptive(mut self, adaptive: AdaptiveSetting) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// The same configuration over the given bandwidth trace.
    pub fn with_bandwidth_trace(mut self, trace: BandwidthTrace) -> Self {
        self.bandwidth_trace = Some(trace);
        self
    }

    /// The same configuration under the given fault/elasticity scenario.
    pub fn with_fault(mut self, fault: FaultSetting) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The same configuration with per-codec analytic throughputs.
    pub fn with_codec_profile(mut self, profile: CodecProfile) -> Self {
        self.codec_profile = Some(profile);
        self
    }

    /// The same configuration under the given execution mode
    /// (builder-style convenience for the executor test matrix).
    pub fn with_executor(mut self, executor: ExecutorSetting) -> Self {
        self.executor = executor;
        self
    }

    /// The same configuration with α–β-paced (real-sleep) message delivery
    /// switched on or off.
    pub fn with_realtime_wire(mut self, realtime_wire: bool) -> Self {
        self.realtime_wire = realtime_wire;
        self
    }

    /// The same configuration with the given observability setting
    /// (builder-style convenience for the trace test matrix).
    pub fn with_obs(mut self, obs: ObsSetting) -> Self {
        self.obs = obs;
        self
    }

    /// Per-rank batch shard size for rank `r` (earlier ranks absorb the
    /// remainder).
    pub fn shard_size(&self, rank: usize) -> usize {
        let base = self.global_batch / self.world;
        let rem = self.global_batch % self.world;
        base + usize::from(rank < rem)
    }

    /// Basic validation.
    pub fn validate(&self) -> Result<(), String> {
        if self.world == 0 {
            return Err("world must be positive".into());
        }
        if self.global_batch < self.world {
            return Err("global batch must be at least one sample per rank".into());
        }
        if self.iterations == 0 {
            return Err("need at least one iteration".into());
        }
        let positive = |x: f64| x > 0.0 && x.is_finite();
        if !positive(self.learning_rate.into()) {
            return Err("learning rate must be positive".into());
        }
        if !positive(self.compute_time_scale) {
            return Err("compute_time_scale must be positive".into());
        }
        if let TopologySetting::Hierarchical(topo) = &self.topology {
            topo.validate()?;
            if topo.world() != self.world {
                return Err(format!(
                    "topology world {} does not match trainer world {}",
                    topo.world(),
                    self.world
                ));
            }
        }
        if let AdaptiveSetting::Runtime {
            window,
            hysteresis,
            eb_control,
        } = &self.adaptive
        {
            // Delegate window/hysteresis/eb-control validation to the
            // controller's own rules, so a config that passes here can
            // never panic `RuntimeController::new` inside a rank thread.
            let mut controller_cfg = dlrm_adaptive::ControllerConfig::new(*window, *hysteresis);
            if let Some(ebc) = eb_control {
                controller_cfg = controller_cfg.with_eb_control(*ebc);
            }
            controller_cfg.validate()?;
            if !matches!(
                self.compression,
                CompressionSetting::FixedLossy { .. } | CompressionSetting::Adaptive(_)
            ) {
                return Err(
                    "runtime adaptive selection needs an error-bounded compression setting \
                     (FixedLossy or Adaptive) to control"
                        .into(),
                );
            }
        }
        // The error-bounded codecs refuse a bound that is not positive and
        // finite: reject it here, not as a panic inside a rank's encode.
        let embedding_bounds_ok = match &self.compression {
            CompressionSetting::FixedLossy { error_bound, .. } => positive((*error_bound).into()),
            CompressionSetting::Adaptive(plan) => plan.tables.iter().all(|t| {
                positive(t.base_error_bound.into()) || !t.compressor.build().is_error_bounded()
            }),
            _ => true,
        };
        if !embedding_bounds_ok {
            return Err("embedding error bounds must be positive and finite".into());
        }
        if (self.device_throughput).is_some_and(|(c, d)| !(positive(c) && positive(d))) {
            return Err("device_throughput rates must be positive and finite".into());
        }
        if let Some(trace) = &self.bandwidth_trace {
            trace.validate()?;
        }
        // A paced fabric has one egress queue per link class of the flat
        // `network`: it cannot pace tiers or follow a trace's steps.
        if self.realtime_wire && self.topology.is_hierarchical() {
            return Err(
                "realtime_wire paces the flat network only; a hierarchical topology's tiers \
                 would all ride it"
                    .into(),
            );
        }
        if self.realtime_wire && self.bandwidth_trace.is_some() {
            return Err(
                "realtime_wire paces the fixed network; the fabric never sees a bandwidth \
                 trace's steps"
                    .into(),
            );
        }
        if let Some(fault) = &self.fault {
            fault.plan.validate()?;
            if let Some(spec) = &fault.checkpoint {
                spec.validate()?;
            }
            for w in fault.plan.stragglers() {
                if w.rank >= self.world {
                    return Err(format!(
                        "straggler rank {} out of range for world {}",
                        w.rank, self.world
                    ));
                }
            }
            if !fault.plan.events().is_empty() {
                if fault.checkpoint.is_none() {
                    return Err(
                        "world events (rank loss / resize) need a checkpoint spec to recover from"
                            .into(),
                    );
                }
                if self.topology.is_hierarchical() {
                    return Err(
                        "world events need a flat topology (a node grid cannot tile a changed \
                         world mid-run); stragglers are fine either way"
                            .into(),
                    );
                }
                let mut world = self.world;
                for event in fault.plan.events() {
                    if event.iter() >= self.iterations {
                        return Err(format!(
                            "world event at iteration {} is outside the run ({} iterations)",
                            event.iter(),
                            self.iterations
                        ));
                    }
                    if let WorldEvent::RankLoss { rank, .. } = event {
                        if *rank >= world {
                            return Err(format!(
                                "rank-loss event names rank {rank} but the world is {world}"
                            ));
                        }
                    }
                    world = event.world_after(world);
                    if world == 0 {
                        return Err("a world event leaves zero ranks".into());
                    }
                    if world > self.global_batch {
                        return Err(format!(
                            "world event grows the world to {world}, beyond one sample per rank \
                             of the global batch ({})",
                            self.global_batch
                        ));
                    }
                }
            }
        }
        if let Some(codec) = self.dense_compression.codec() {
            match codec {
                GradCodecKind::TopK { fraction } if !(*fraction > 0.0 && *fraction <= 1.0) => {
                    return Err("top-k fraction must be in (0, 1]".into());
                }
                GradCodecKind::ErrorBounded { error_bound, .. }
                | GradCodecKind::Lattice { error_bound }
                    if !positive((*error_bound).into()) =>
                {
                    return Err("dense error bound must be positive".into());
                }
                _ => {}
            }
            if self.dense_compression.is_homomorphic() && !codec.is_homomorphic() {
                return Err(format!(
                    "dense codec {} does not support the homomorphic combine",
                    codec.label()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_sizes_cover_global_batch() {
        let mut cfg = TrainerConfig::small_test(CompressionSetting::None);
        cfg.world = 3;
        cfg.global_batch = 10;
        let total: usize = (0..3).map(|r| cfg.shard_size(r)).sum();
        assert_eq!(total, 10);
        assert_eq!(cfg.shard_size(0), 4);
        assert_eq!(cfg.shard_size(2), 3);
    }

    #[test]
    fn validation() {
        let good = TrainerConfig::small_test(CompressionSetting::None);
        assert!(good.validate().is_ok());
        let mut bad = good.clone();
        bad.world = 0;
        assert!(bad.validate().is_err());
        let mut bad2 = good.clone();
        bad2.global_batch = 2;
        bad2.world = 4;
        assert!(bad2.validate().is_err());
        let mut bad3 = good;
        bad3.learning_rate = -1.0;
        assert!(bad3.validate().is_err());
    }

    #[test]
    fn embedding_error_bound_must_be_positive_and_finite() {
        let validate = |c| TrainerConfig::small_test(c).validate();
        for eb in [0.0, -0.02, f32::NAN, f32::INFINITY] {
            assert!(validate(CompressionSetting::fixed(eb, CompressorKind::OursHybrid)).is_err());
        }
        let mut plan = crate::plan::paper_default_plan(&dlrm_data::presets::tiny(), 4, 4, 4e9, 7)
            .expect("offline analysis succeeds on synthetic traffic");
        plan.tables[1].base_error_bound = 0.0;
        plan.tables[1].compressor = CompressorKind::SzLike;
        assert!(validate(CompressionSetting::Adaptive(plan.clone())).is_err());
        // A lossless table ignores its bound.
        plan.tables[1].compressor = CompressorKind::Lz4Like;
        assert!(validate(CompressionSetting::Adaptive(plan)).is_ok());
    }

    #[test]
    fn device_throughput_must_be_positive_and_finite() {
        let mut cfg = TrainerConfig::small_test(CompressionSetting::None)
            .with_dense_compression(DenseCompression::fp16());
        let nan = f64::NAN;
        for (rates, ok) in [
            ((5e10, 5e10), true),
            ((0.0, -1.0), false),
            ((5e10, nan), false),
        ] {
            cfg.device_throughput = Some(rates);
            assert_eq!(cfg.validate().is_ok(), ok, "{rates:?}");
        }
    }

    #[test]
    fn overlap_setting_defaults_off_and_labels() {
        assert_eq!(OverlapSetting::default(), OverlapSetting::Off);
        assert!(!OverlapSetting::Off.is_enabled());
        assert!(OverlapSetting::DoubleBuffered.is_enabled());
        assert_ne!(
            OverlapSetting::Off.label(),
            OverlapSetting::DoubleBuffered.label()
        );
        let cfg = TrainerConfig::small_test(CompressionSetting::None)
            .with_overlap(OverlapSetting::DoubleBuffered);
        assert!(cfg.overlap.is_enabled());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn obs_defaults_off_validates_and_labels() {
        assert_eq!(ObsSetting::default(), ObsSetting::Off);
        assert!(!ObsSetting::Off.is_enabled());
        assert!(ObsSetting::On.is_enabled());
        assert_ne!(ObsSetting::Off.label(), ObsSetting::On.label());
        let cfg = TrainerConfig::small_test(CompressionSetting::None).with_obs(ObsSetting::On);
        assert!(cfg.obs.is_enabled());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn dense_compression_defaults_off_validates_and_labels() {
        assert_eq!(DenseCompression::default(), DenseCompression::Off);
        assert!(!DenseCompression::Off.is_compressed());
        let labels: Vec<String> = [
            DenseCompression::Off,
            DenseCompression::fp16(),
            DenseCompression::fp16_ef(),
            DenseCompression::top_k_ef(0.1),
            DenseCompression::identity(),
            DenseCompression::lattice(1e-3),
            DenseCompression::lattice_ef(1e-3),
            DenseCompression::lattice_classic(1e-3),
            DenseCompression::sum_sketch(),
        ]
        .iter()
        .map(DenseCompression::label)
        .collect();
        let unique: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());

        assert!(DenseCompression::lattice(1e-3).is_homomorphic());
        assert!(DenseCompression::sum_sketch().is_homomorphic());
        assert!(!DenseCompression::lattice_classic(1e-3).is_homomorphic());
        assert!(!DenseCompression::Off.is_homomorphic());

        let good = TrainerConfig::small_test(CompressionSetting::None)
            .with_dense_compression(DenseCompression::top_k_ef(0.25));
        assert!(good.validate().is_ok());
        let bad = TrainerConfig::small_test(CompressionSetting::None)
            .with_dense_compression(DenseCompression::top_k_ef(0.0));
        assert!(bad.validate().is_err());
        let bad_eb = TrainerConfig::small_test(CompressionSetting::None).with_dense_compression(
            DenseCompression::Compressed {
                codec: dlrm_grad::GradCodecKind::ErrorBounded {
                    compressor: CompressorKind::SzLike,
                    error_bound: -1.0,
                },
                error_feedback: true,
            },
        );
        assert!(bad_eb.validate().is_err());
        // A negative lattice bound and a non-homomorphic codec under the
        // Homomorphic setting are both rejected.
        let bad_lattice = TrainerConfig::small_test(CompressionSetting::None)
            .with_dense_compression(DenseCompression::lattice(-1.0));
        assert!(bad_lattice.validate().is_err());
        let not_homo = TrainerConfig::small_test(CompressionSetting::None).with_dense_compression(
            DenseCompression::Homomorphic {
                codec: dlrm_grad::GradCodecKind::Fp16,
                error_feedback: false,
            },
        );
        assert!(not_homo.validate().is_err());
        let good_homo = TrainerConfig::small_test(CompressionSetting::None)
            .with_dense_compression(DenseCompression::sum_sketch());
        assert!(good_homo.validate().is_ok());
    }

    #[test]
    fn topology_setting_defaults_flat_validates_and_labels() {
        assert_eq!(TopologySetting::default(), TopologySetting::Flat);
        assert!(!TopologySetting::Flat.is_hierarchical());
        assert!(TopologySetting::Flat.topology().is_none());
        assert_eq!(TopologySetting::Flat.label(), "flat");

        let topo = Topology::new(
            2,
            2,
            NetworkConfig::nvlink_intra_node(),
            NetworkConfig::paper_figure11(),
        );
        let hier = TopologySetting::Hierarchical(topo);
        assert!(hier.is_hierarchical());
        assert_eq!(hier.label(), "2x2");
        let good = TrainerConfig::small_test(CompressionSetting::None).with_topology(hier);
        assert!(good.validate().is_ok());

        // World mismatch is rejected.
        let mismatched = TrainerConfig::small_test(CompressionSetting::None).with_topology(
            TopologySetting::Hierarchical(Topology::new(
                2,
                4,
                NetworkConfig::default(),
                NetworkConfig::default(),
            )),
        );
        assert!(mismatched.validate().is_err());
    }

    #[test]
    fn adaptive_setting_defaults_static_validates_and_labels() {
        assert_eq!(AdaptiveSetting::default(), AdaptiveSetting::Static);
        assert!(!AdaptiveSetting::Static.is_runtime());
        assert!(AdaptiveSetting::runtime(8, 0.1).is_runtime());
        assert_ne!(
            AdaptiveSetting::Static.label(),
            AdaptiveSetting::runtime(8, 0.1).label()
        );

        // Runtime selection needs an error-bounded setting to control.
        let good =
            TrainerConfig::small_test(CompressionSetting::fixed(0.02, CompressorKind::OursHybrid))
                .with_adaptive(AdaptiveSetting::runtime(4, 0.1));
        assert!(good.validate().is_ok());
        let raw = TrainerConfig::small_test(CompressionSetting::None)
            .with_adaptive(AdaptiveSetting::runtime(4, 0.1));
        assert!(raw.validate().is_err());
        let zero_window =
            TrainerConfig::small_test(CompressionSetting::fixed(0.02, CompressorKind::OursHybrid))
                .with_adaptive(AdaptiveSetting::runtime(0, 0.1));
        assert!(zero_window.validate().is_err());
        let bad_hysteresis =
            TrainerConfig::small_test(CompressionSetting::fixed(0.02, CompressorKind::OursHybrid))
                .with_adaptive(AdaptiveSetting::runtime(4, -0.5));
        assert!(bad_hysteresis.validate().is_err());
        // Every controller rule is enforced at config time — including the
        // plateau threshold, which only the delegated validation checks.
        let bad_plateau =
            TrainerConfig::small_test(CompressionSetting::fixed(0.02, CompressorKind::OursHybrid))
                .with_adaptive(AdaptiveSetting::Runtime {
                    window: 4,
                    hysteresis: 0.1,
                    eb_control: Some(dlrm_adaptive::PlateauEbControl {
                        plateau_threshold: f64::NAN,
                        tighten_factor: 0.5,
                        min_scale: 0.25,
                    }),
                });
        assert!(bad_plateau.validate().is_err());
    }

    #[test]
    fn bandwidth_trace_validates_through_the_config() {
        use dlrm_comm::BandwidthTrace;
        let cfg = TrainerConfig::small_test(CompressionSetting::None).with_bandwidth_trace(
            BandwidthTrace::step(
                NetworkConfig::default(),
                NetworkConfig::alltoall_bound(5e8),
                4,
            ),
        );
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn realtime_wire_rejects_a_hierarchical_topology() {
        let hier = TrainerConfig::small_test(CompressionSetting::None).with_topology(
            TopologySetting::Hierarchical(Topology::new(
                2,
                2,
                NetworkConfig::nvlink_intra_node(),
                NetworkConfig::paper_figure11(),
            )),
        );
        assert!(hier.validate().is_ok());
        let err = hier.with_realtime_wire(true).validate().unwrap_err();
        assert!(err.contains("hierarchical topology"), "{err}");
    }

    #[test]
    fn realtime_wire_rejects_a_bandwidth_trace() {
        use dlrm_comm::BandwidthTrace;
        let traced = TrainerConfig::small_test(CompressionSetting::None).with_bandwidth_trace(
            BandwidthTrace::step(
                NetworkConfig::default(),
                NetworkConfig::alltoall_bound(5e8),
                4,
            ),
        );
        assert!(traced.validate().is_ok());
        let err = traced.with_realtime_wire(true).validate().unwrap_err();
        assert!(err.contains("bandwidth trace"), "{err}");
    }

    #[test]
    fn fault_setting_validates_and_labels() {
        use dlrm_ckpt::CheckpointSpec;
        use dlrm_grad::GradCodecKind;

        assert_eq!(FaultSetting::default().label(), "none");
        let base = TrainerConfig::small_test(CompressionSetting::None);

        // A healthy plan validates without a checkpoint.
        let healthy = base
            .clone()
            .with_fault(FaultSetting::new(FaultPlan::none()));
        assert!(healthy.validate().is_ok());

        // Stragglers alone validate; out-of-range rank is rejected.
        let strag = base.clone().with_fault(FaultSetting::new(
            FaultPlan::none().with_straggler(1, 2, 6, 8.0),
        ));
        assert!(strag.validate().is_ok());
        let bad_rank = base.clone().with_fault(FaultSetting::new(
            FaultPlan::none().with_straggler(9, 2, 6, 8.0),
        ));
        assert!(bad_rank.validate().is_err());

        // World events need a checkpoint spec…
        let loss_plan = FaultPlan::none().with_rank_loss(4, 1);
        let no_ckpt = base
            .clone()
            .with_fault(FaultSetting::new(loss_plan.clone()));
        assert!(no_ckpt.validate().is_err());
        // …and validate with one.
        let spec = CheckpointSpec::new(2, GradCodecKind::Fp16);
        let with_ckpt = base
            .clone()
            .with_fault(FaultSetting::new(loss_plan.clone()).with_checkpoint(spec.clone()));
        assert!(with_ckpt.validate().is_ok());
        assert_eq!(
            with_ckpt.fault.as_ref().unwrap().label(),
            "s0e1+ckpt@2/fp16"
        );

        // A world event outside the run, a lost rank out of range, and a
        // hierarchical topology are all rejected.
        let late = base.clone().with_fault(
            FaultSetting::new(FaultPlan::none().with_rank_loss(999, 1))
                .with_checkpoint(spec.clone()),
        );
        assert!(late.validate().is_err());
        let ghost = base.clone().with_fault(
            FaultSetting::new(FaultPlan::none().with_rank_loss(4, 7)).with_checkpoint(spec.clone()),
        );
        assert!(ghost.validate().is_err());
        let hier = base
            .clone()
            .with_topology(TopologySetting::Hierarchical(Topology::new(
                2,
                2,
                NetworkConfig::nvlink_intra_node(),
                NetworkConfig::paper_figure11(),
            )))
            .with_fault(FaultSetting::new(loss_plan).with_checkpoint(spec.clone()));
        assert!(hier.validate().is_err());

        // Growing beyond one sample per rank is rejected.
        let mut huge = base.clone();
        huge.global_batch = 6;
        huge.world = 4;
        let huge = huge.with_fault(
            FaultSetting::new(FaultPlan::none().with_resize(4, 7)).with_checkpoint(spec),
        );
        assert!(huge.validate().is_err());
    }

    #[test]
    fn labels_are_distinct() {
        use dlrm_compress::CompressorKind;
        let labels: Vec<String> = [
            CompressionSetting::None,
            CompressionSetting::Fp16,
            CompressionSetting::Fp8,
            CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        ]
        .iter()
        .map(|s| s.label())
        .collect();
        let unique: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
        assert!(!CompressionSetting::None.is_compressed());
        assert!(CompressionSetting::Fp8.is_compressed());
    }
}
