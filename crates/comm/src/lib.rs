//! # dlrm-comm
//!
//! Simulated multi-rank cluster substituting for the paper's 32-GPU NCCL
//! setup.
//!
//! Each simulated rank runs on its own OS thread and exchanges real byte
//! buffers with its peers through per-pair channels ([`cluster`]); the
//! collectives a hybrid-parallel DLRM needs — all-to-all (fixed and variable
//! size), all-gather, all-reduce, barrier — are built on top of those
//! channels (via [`cluster::RankCtx`]). Because the data
//! movement is real, compressed payloads genuinely have to be decompressed on
//! the receiving rank, and a bug in the exchange shows up as a wrong training
//! result rather than a wrong number in a spreadsheet.
//!
//! What is *simulated* is time: an **α–β cost model** ([`cost`]) charges every
//! transfer `latency + bytes / bandwidth` seconds of virtual wall-clock, with
//! the all-to-all bandwidth configurable (4 GB/s in the paper's speedup
//! analysis). Each rank accumulates virtual seconds in a [`ledger::TimingLedger`],
//! which the trainer aggregates into the per-phase breakdowns of Figures 1
//! and 12.

//!
//! ## Pooled buffers
//!
//! Every message a collective moves rides a [`pool::PooledBuf`] leased from
//! the sending rank's [`pool::BufferPool`] (one per rank); dropping a
//! received lease recycles its storage back to the sender's pool for its
//! next iteration, so the steady-state exchange allocates nothing. The
//! `*_pooled` collectives on [`cluster::RankCtx`] expose this with
//! caller-owned containers; the `Vec<u8>` entry points remain as wrappers.

//! ## Chunked, overlappable collectives
//!
//! Besides the bulk collectives, [`cluster::RankCtx::begin_chunked`] opens a
//! non-blocking **chunked all-to-all** ([`cluster::ChunkedAllToAll`]):
//! begin-send posts one header-prefixed chunk per destination without
//! blocking, poll-complete (`try_recv`) or blocking `recv` retire them — the
//! transport under the trainer's double-buffered compress/communicate
//! pipeline. [`overlap::OverlapTimeline`] computes the exact virtual
//! schedule of that pipeline (codec stage and wire stage on separate serial
//! timelines), and [`ledger::TimingLedger`]'s `overlap_saved` counters
//! record how much codec time the overlap hid.

//! ## Compressed all-reduce
//!
//! Every all-reduce entry point runs one sharded reduce-scatter +
//! all-gather schedule ([`reduce::shard_range`] split, rank-order folding on
//! each shard's owner), so a rank's traffic matches the `2·(P−1)/P` volume
//! the cost model's ring formula charges. Every hop carries bytes produced
//! by a [`reduce::ReduceCodec`], which is how the trainer's error-feedback
//! dense-gradient compression (`dlrm-grad`) shrinks the MLP all-reduce; with
//! the lossless [`reduce::RawF32Codec`]
//! [`cluster::RankCtx::all_reduce_compressed`] is bit-identical to
//! [`cluster::RankCtx::all_reduce_sum`].
//!
//! The schedule is a **route × fold**. The fold decodes and adds each
//! contribution then re-encodes once, or — for a codec advertising
//! [`reduce::ReduceCodec::is_homomorphic`] — sums **in the compressed
//! domain** with [`reduce::ReduceCodec::combine`], eliminating `world − 1`
//! decodes and the re-encode per shard. The direct route sends every
//! contribution peer → owner; the relayed route
//! ([`cluster::RankCtx::all_reduce_homomorphic_hier`]) has node leaders
//! combine their members' contributions into one aggregate per destination
//! shard before the fabric hop, cutting inter-tier reduce-scatter volume by
//! `ranks_per_node×`.

//! ## Node-aware hierarchical topology
//!
//! A [`topology::Topology`] describes the cluster as `nodes ×
//! ranks_per_node` with a fast intra-node and a slow inter-node
//! [`cost::NetworkConfig`] tier; its [`topology::TieredCostModel`] charges
//! every `(src, dst)` pair by the link it actually crosses (the flat model
//! remains the `nodes == 1` special case).
//! [`cluster::RankCtx::all_to_all_hier_pooled`] runs the matching two-level
//! collective — intra-node gather of inter-node-bound payloads onto each
//! node's leader, one aggregated bundle per node pair across the fabric,
//! intra-node scatter — delivering payloads **bit-identical** to the flat
//! all-to-all (property-tested) while reporting per-tier
//! [`topology::HierExchangeBytes`]. Given a topology, the all-reduce
//! ([`cluster::RankCtx::all_reduce_compressed_tiered`]) also buckets its
//! wire bytes by tier for the same charging.

//! ## The fabric and real-time execution policies
//!
//! Underneath the collectives sits the [`fabric::Fabric`] trait — the four
//! primitives (`send`, `recv`, `try_recv`, `barrier`) every collective is
//! built from — with [`fabric::ChannelFabric`] as the crossbeam-channel
//! backend. A mesh can run **free-running** (one OS thread per rank, real
//! concurrency) or **serialized** under a [`fabric::SerialGate`] (at most
//! one rank progresses at a time — the single-core wall-clock baseline),
//! and its wire can deliver **instantly** or **paced** by the α–β model
//! with real sleeps ([`fabric::WirePolicy::Modeled`]), which is what lets
//! `dlrm-exec` cross-validate modeled seconds against wall-clock seconds.
//! [`fabric::run_on_mesh`] is the one thread-spawn loop behind both
//! [`cluster::SimCluster::run`] and `dlrm-exec`'s executor.

//! ## Drifting networks
//!
//! A [`trace::BandwidthTrace`] makes the modeled fabric a function of the
//! iteration counter: piecewise-constant `(start_iter, NetworkConfig)`
//! segments cover drift, congestion spikes and tier degradation, with
//! [`trace::BandwidthTrace::cost_model_at`] /
//! [`trace::BandwidthTrace::tiered_cost_model_at`] producing the
//! [`cost::CostModel`] / [`topology::TieredCostModel`] in effect at any
//! iteration. The trainer threads a trace through every network charge, and
//! the runtime adaptive controller (`dlrm-adaptive`) re-runs compressor
//! selection against the bandwidth it actually observes.

//! ## Fault and elasticity scenarios
//!
//! A [`fault::FaultPlan`] is the third scenario axis: **clusters that
//! break**. It deterministically schedules per-rank straggler windows
//! (throughput multipliers charged by degrading the collective's
//! [`cost::NetworkConfig`] via [`cost::NetworkConfig::degraded`] — a
//! bulk-synchronous collective moves at its slowest member's pace), rank
//! loss at an iteration, and mid-run world resizes. Like a trace, a plan is
//! pure data shared by every rank, so an SPMD trainer derives identical
//! fault decisions everywhere; the trainer's checkpoint/re-shard machinery
//! (`dlrm-ckpt`, `dlrm-trainer`) turns the world events into recovery.

pub mod cluster;
pub mod cost;
pub mod fabric;
pub mod fault;
pub mod ledger;
pub mod overlap;
pub mod phase;
pub mod pool;
pub mod reduce;
pub mod topology;
pub mod trace;

pub use cluster::{
    ChunkedAllToAll, ExchangeBytes, RankCtx, SimCluster, CHUNK_HEADER_BYTES,
    HIER_ENTRY_HEADER_BYTES,
};
pub use cost::{CostModel, NetworkConfig};
pub use fabric::{ChannelFabric, Fabric, GatePolicy, SerialGate, WirePolicy};
pub use fault::{FaultPlan, StragglerWindow, WorldEvent};
pub use ledger::TimingLedger;
pub use overlap::OverlapTimeline;
pub use pool::{BufferPool, PoolStats, PooledBuf};
pub use reduce::{
    allreduce_tier_bytes, shard_range, RawF32Codec, ReduceCodec, ReduceError, ReduceScratch,
    ReduceStats, TieredReduceStats,
};
pub use topology::{HierExchangeBytes, Tier, TieredCostModel, Topology};
pub use trace::{BandwidthTrace, TraceSegment};
