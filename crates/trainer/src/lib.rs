//! # dlrm-trainer
//!
//! Hybrid-parallel DLRM training over the simulated cluster, with the paper's
//! compressed all-to-all spliced into the pipeline.
//!
//! Every simulated rank holds a full replica of the MLPs (data parallelism)
//! and a partition of the embedding tables (model parallelism). Each
//! iteration runs the same four communication-heavy stages as the paper's
//! Figure 3 pipeline:
//!
//! 1. owners look up the distinct rows of their tables for every rank's
//!    batch shard ([`dlrm_data::DistinctRows`]) and **compress** the
//!    per-destination chunks;
//! 2. the **all-to-all** moves the compressed rows, each chunk one
//!    [`dlrm_comm::frame`] payload delivered at its exact length;
//! 3. receivers **decompress**, re-expand each block to one row per sample
//!    from their own indices, and run the data-parallel forward/backward;
//! 4. each rank sums its embedding gradient rows per distinct index
//!    ([`dlrm_data::DistinctRows::sum_rows_into`]), compresses them and sends
//!    them back to the owning ranks (the symmetric backward all-to-all), which
//!    apply one update row per distinct index; MLP gradients are all-reduced.
//!
//! Communication time is charged by the α–β cost model; compute and
//! compression time is measured; both are recorded per phase in a
//! [`dlrm_comm::TimingLedger`], which is what the Figure 1 / Figure 12
//! breakdowns are built from.
//!
//! ## The overlapped (double-buffered) pipeline
//!
//! Both all-to-all stages run as the paper's *streamed* pipeline: each
//! per-destination chunk is compressed into its own pooled lease and
//! **begin-sent immediately** over the non-blocking chunked collective
//! ([`dlrm_comm::cluster::ChunkedAllToAll`]), so the codec for chunk *k+1*
//! runs while chunk *k* is on the virtual wire.
//! [`config::OverlapSetting`] decides only how that is charged. `Off` charges
//! each exchange its full α + β. With `DoubleBuffered`, an exact two-stage
//! pipeline schedule ([`dlrm_comm::OverlapTimeline`]) determines how much
//! codec time the wire hid; per-chunk wire times are the bulk collective's
//! bottleneck-bandwidth time split across chunks, so chunking never changes
//! total wire time — only what hides behind it.
//!
//! The ledger charges the overlapped run as follows:
//!
//! * `fwd/bwd compression` — the full codec time (measured, or analytic
//!   under a device-throughput override), exactly as the sequential charge;
//! * `fwd/bwd all-to-all` — one α latency plus only the **exposed** wire
//!   time (the part not hidden behind the codec);
//! * the hidden seconds land in the ledger's `overlap_saved` counters
//!   (surfaced as [`run::TrainingReport::overlap_saved_seconds`]), so a
//!   phase's un-overlapped cost is always `seconds + overlap_saved` — the
//!   `Off` charge of the same run.
//!
//! Overlap never changes numerics — the same bytes are compressed, moved
//! and decompressed, and the zero-allocation steady state of the pooled
//! buffers survives (chunk leases recycle through the same per-rank pools).
//!
//! ## The compressed dense path (`mlp all-reduce`)
//!
//! The MLP-gradient all-reduce has its own compression knob,
//! [`config::DenseCompression`], independent of the embedding all-to-all's
//! [`config::CompressionSetting`]:
//!
//! * `Off` (default) — the classic uncompressed sum-all-reduce,
//!   **bit-for-bit** today's numerics;
//! * `Compressed { codec, error_feedback }` — gradients ride
//!   [`dlrm_comm`]'s reduce-scatter + all-gather compressed collective with
//!   a `dlrm-grad` codec (fp16/fp8 casts, an error-bounded compressor, or
//!   magnitude top-k) encoding every hop. With `error_feedback`, a per-rank
//!   residual accumulator (threaded through the reused per-rank state, so
//!   the zero-allocation steady state holds) re-injects whatever the codec
//!   lost, which keeps convergence within tolerance of uncompressed.
//!
//! The report surfaces the dense wire ratio
//! ([`run::TrainingReport::dense_ratio`]), the virtual seconds saved vs the
//! raw ring-formula charge
//! ([`run::TrainingReport::dense_saved_seconds`]) and the final residual
//! norm ([`run::TrainingReport::dense_residual_norm`]).
//!
//! ## Node-aware hierarchical topology
//!
//! [`config::TopologySetting`] shapes the cluster: `Flat` (default) is the
//! single-tier model and takes exactly the topology-less code paths;
//! `Hierarchical` describes `nodes × ranks_per_node` with a fast intra-node
//! and a slow inter-node link ([`dlrm_comm::Topology`]). Under a hierarchy,
//! both all-to-all stages run the relayed form of the flat route's
//! [`dlrm_comm::ChunkedAllToAll`] (intra-node gather onto the node leader,
//! one aggregated bundle per node pair across the fabric, intra-node
//! scatter), the dense all-reduce keeps its rank-order schedule with
//! per-tier byte accounting, and every network phase is charged by the
//! tiered cost model — per-rank tier bandwidths, the leader exchange over
//! the node's NIC pool. Delivered payloads and reduced
//! gradients are **bit-identical** to the flat run (asserted by the topology
//! test matrix); only modeled time and per-tier wire volume change, surfaced
//! as [`run::TrainingReport::intra_tier_bytes`] /
//! [`run::TrainingReport::inter_tier_bytes`] and the matching
//! `*_tier_seconds`. Overlap composes: the per-chunk codec seconds feed the
//! same [`dlrm_comm::OverlapTimeline`] with the tiered β split across
//! chunks.

//! ## Closed-loop runtime adaptivity
//!
//! [`config::AdaptiveSetting`] decides whether compressor/error-bound
//! selection stays frozen at iteration 0 (`Static`, the bit-exact default)
//! or is revised mid-run (`Runtime { window, hysteresis, eb_control }`).
//! Under the runtime setting the pipeline accumulates per-window
//! observations — per-table measured ratios, candidate-codec ratios probed
//! on live payloads, the effective wire bandwidth derived from the virtual
//! charges, the mean loss — all-gathers every rank's
//! [`dlrm_adaptive::WindowShare`] at each window boundary (the format
//! serving shares), and runs the identical deterministic
//! [`dlrm_adaptive::RuntimeController`] on every rank, so codec switches
//! stay coherent between compressing and decompressing ranks. Revisions and
//! per-window ratios surface as [`run::TrainingReport::reselections`] and
//! [`run::TrainingReport::window_ratios`]. The conditions to adapt against
//! are configurable: [`config::TrainerConfig::bandwidth_trace`] drifts the
//! modeled fabric ([`dlrm_comm::BandwidthTrace`]),
//! [`config::TrainerConfig::codec_profile`] charges codec time per codec
//! kind, and `dlrm-data`'s `TrafficDrift` shifts the query skew mid-run.
//! See `docs/ADAPTIVITY.md` for the end-to-end walkthrough.

pub mod config;
pub mod partition;
// One iteration is a chain of phase methods; clippy.toml caps their length.
#[warn(clippy::too_many_lines)]
pub mod pipeline;
pub mod plan;
pub mod run;

pub use config::{
    AdaptiveSetting, CompressionSetting, DenseCompression, ExecutorSetting, FaultSetting,
    ObsSetting, OverlapSetting, TopologySetting, TrainerConfig,
};
pub use partition::{SenderRows, TablePartition};
pub use run::{run_training, TableCompressionStats, TrainingReport};
