//! α–β network cost model.
//!
//! The paper's communication speedups are a function of bytes on the wire and
//! link bandwidth, not of any GPU-specific behaviour, so a latency+bandwidth
//! model is sufficient to reproduce them. Every collective charges
//! `latency + bytes / bandwidth` virtual seconds, where `bytes` is the
//! bottleneck rank's traffic for that collective.

/// Static description of the simulated interconnect (one link tier; a
/// two-tier cluster pairs two of these in a
/// [`Topology`](crate::topology::Topology)).
///
/// ```
/// use dlrm_comm::NetworkConfig;
///
/// // The flat default: the paper's 4 GB/s all-to-all assumption.
/// let net = NetworkConfig::default();
/// assert_eq!(net.alltoall_bandwidth, 4e9);
///
/// // The Figure-11 speedup-analysis network, as the breakdown experiments
/// // configure it.
/// let fig11 = NetworkConfig::paper_figure11();
/// let t = fig11.cost_model().alltoall_time(4_000_000_000, 4_000_000_000);
/// assert!((t - (5e-6 + 1.0)).abs() < 1e-9); // 4 GB over 4 GB/s ≈ 1 s
///
/// // Single-bottleneck test networks, without re-declaring the triple.
/// assert!(NetworkConfig::alltoall_bound(5e7).alltoall_bandwidth < 1e8);
/// assert!(NetworkConfig::allreduce_bound(5e7).allreduce_bandwidth < 1e8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Effective per-rank all-to-all bandwidth in bytes per second.
    /// The paper's speedup analysis (Figure 11) uses 4 GB/s.
    pub alltoall_bandwidth: f64,
    /// Effective per-rank all-reduce bandwidth in bytes per second.
    pub allreduce_bandwidth: f64,
    /// Per-collective latency (α term) in seconds.
    pub latency: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            alltoall_bandwidth: 4e9,
            allreduce_bandwidth: 8e9,
            latency: 20e-6,
        }
    }
}

impl NetworkConfig {
    /// A network so fast communication time is negligible — used by tests
    /// that only care about data movement correctness.
    pub fn infinite() -> Self {
        Self {
            alltoall_bandwidth: 1e18,
            allreduce_bandwidth: 1e18,
            latency: 0.0,
        }
    }

    /// The network of the paper's Figure-11 speedup analysis: 4 GB/s
    /// all-to-all, 8 GB/s all-reduce, 5 µs latency — the triple the
    /// breakdown experiments (Figures 1 and 12) configure.
    pub fn paper_figure11() -> Self {
        Self {
            alltoall_bandwidth: 4e9,
            allreduce_bandwidth: 8e9,
            latency: 5e-6,
        }
    }

    /// An NVLink-class intra-node link (150 GB/s per rank, 1 µs) — the fast
    /// tier of a hierarchical [`Topology`](crate::topology::Topology).
    pub fn nvlink_intra_node() -> Self {
        Self {
            alltoall_bandwidth: 150e9,
            allreduce_bandwidth: 150e9,
            latency: 1e-6,
        }
    }

    /// A network whose all-to-all link is the bottleneck: the given
    /// all-to-all bandwidth under a fast (8 GB/s) all-reduce link — the
    /// shape the overlap experiments use to make codec time hideable. Both
    /// the ledger and a paced fabric honour the split: each link class has
    /// its own egress queue at its own bandwidth, so the dense all-reduce
    /// moves at 8 GB/s on the wall too.
    pub fn alltoall_bound(alltoall_bandwidth: f64) -> Self {
        Self {
            alltoall_bandwidth,
            allreduce_bandwidth: 8e9,
            latency: 5e-6,
        }
    }

    /// A network whose all-reduce link is the bottleneck: the given
    /// all-reduce bandwidth under a fast (8 GB/s) all-to-all link — the
    /// shape the dense-path experiments use so the MLP-gradient exchange
    /// dominates the wire.
    pub fn allreduce_bound(allreduce_bandwidth: f64) -> Self {
        Self {
            alltoall_bandwidth: 8e9,
            allreduce_bandwidth,
            latency: 5e-6,
        }
    }

    /// Cost model bound to this configuration.
    pub fn cost_model(&self) -> CostModel {
        CostModel { config: *self }
    }
}

/// The link class a message rides: which of a [`NetworkConfig`]'s two
/// bandwidths prices it. A paced fabric gives each class its own egress
/// queue, as the ledger charges each collective on its own link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// The embedding exchanges and the controller's all-gather.
    AllToAll,
    /// The dense (MLP-gradient) all-reduce.
    AllReduce,
}

/// Computes virtual communication time from byte counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    config: NetworkConfig,
}

impl CostModel {
    /// Create a cost model for a network configuration.
    pub fn new(config: NetworkConfig) -> Self {
        Self { config }
    }

    /// The configuration behind this model.
    pub fn config(&self) -> NetworkConfig {
        self.config
    }

    /// Time for one rank's share of an all-to-all in which it sends
    /// `sent_bytes` and receives `recv_bytes` in total (across all peers).
    /// The bottleneck direction dominates.
    pub fn alltoall_time(&self, sent_bytes: usize, recv_bytes: usize) -> f64 {
        self.config.latency + sent_bytes.max(recv_bytes) as f64 / self.config.alltoall_bandwidth
    }

    /// Time for the metadata phase of a two-phase variable-size all-to-all:
    /// `peers` fixed-size records of `record_bytes` each, in each direction.
    /// No collective in this workspace runs that phase — every flat chunk
    /// carries its own header — but `benchmark/`'s replay of the two-phase
    /// formula charges it.
    pub fn metadata_time(&self, peers: usize, record_bytes: usize) -> f64 {
        self.config.latency + (peers * record_bytes) as f64 / self.config.alltoall_bandwidth
    }

    /// Time for an all-reduce over `bytes` of payload per rank: the
    /// bandwidth term of a ring (`2·(P−1)/P · bytes / bandwidth`) plus a
    /// tree-depth latency term (`2·⌈log₂P⌉·α`), matching what modern NCCL
    /// achieves for medium-size reductions.
    pub fn allreduce_time(&self, bytes: usize, world: usize) -> f64 {
        if world <= 1 {
            return 0.0;
        }
        let p = world as f64;
        let depth = (world as f64).log2().ceil();
        2.0 * depth * self.config.latency
            + 2.0 * (p - 1.0) / p * bytes as f64 / self.config.allreduce_bandwidth
    }

    /// Time of a reduce-scatter + all-gather all-reduce that actually moved
    /// `sent_bytes` / `recv_bytes` on this rank (e.g. compressed shard
    /// payloads): the same `2·⌈log₂P⌉·α` latency term as
    /// [`CostModel::allreduce_time`], with the bandwidth term driven by the
    /// bottleneck direction's *measured* bytes instead of the raw vector
    /// size. With raw fp32 payloads a rank moves `2·(P−1)/P` of the vector
    /// in each direction, so this reproduces the ring formula exactly;
    /// compressed hops shrink the bandwidth term by the achieved ratio.
    pub fn allreduce_wire_time(&self, sent_bytes: usize, recv_bytes: usize, world: usize) -> f64 {
        if world <= 1 {
            return 0.0;
        }
        let depth = (world as f64).log2().ceil();
        2.0 * depth * self.config.latency
            + sent_bytes.max(recv_bytes) as f64 / self.config.allreduce_bandwidth
    }

    /// Time to move one `bytes`-long message over `link`: one α plus the
    /// bytes over that link's bandwidth.
    pub fn message_time(&self, link: Link, bytes: usize) -> f64 {
        let bandwidth = match link {
            Link::AllToAll => self.config.alltoall_bandwidth,
            Link::AllReduce => self.config.allreduce_bandwidth,
        };
        self.config.latency + bytes as f64 / bandwidth
    }

    /// The bandwidth (β) term alone of moving `bytes` over the all-to-all
    /// link — no per-message latency.
    ///
    /// This is the building block of the *chunked* all-to-all: its chunks
    /// ride back-to-back on an already-open link (as NCCL pipelines the
    /// messages of one collective), so the α term is charged once per
    /// collective, not once per chunk. Summed over chunks whose bottleneck
    /// bytes add up to the collective's bottleneck total, the chunk times
    /// reproduce [`CostModel::alltoall_time`]'s bandwidth term exactly —
    /// chunking changes what *hides behind* the wire, never the wire time
    /// itself.
    pub fn bandwidth_time(&self, bytes: usize) -> f64 {
        bytes as f64 / self.config.alltoall_bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alltoall_time_scales_with_bottleneck_direction() {
        let m = NetworkConfig {
            alltoall_bandwidth: 1e9,
            allreduce_bandwidth: 1e9,
            latency: 1e-5,
        }
        .cost_model();
        let t_small = m.alltoall_time(1_000_000, 500_000);
        let t_large = m.alltoall_time(1_000_000, 4_000_000);
        assert!(t_large > t_small);
        assert!((t_small - (1e-5 + 1e-3)).abs() < 1e-9);
        assert!((t_large - (1e-5 + 4e-3)).abs() < 1e-9);
    }

    #[test]
    fn compression_reduces_modelled_time_proportionally() {
        // A 10x smaller payload should take ~10x less time once latency is
        // negligible — the arithmetic behind the paper's speedup claims.
        let m = NetworkConfig::default().cost_model();
        let raw = m.alltoall_time(100 << 20, 100 << 20);
        let compressed = m.alltoall_time(10 << 20, 10 << 20);
        let speedup = raw / compressed;
        assert!((9.0..=10.5).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn allreduce_time_follows_ring_formula() {
        let cfg = NetworkConfig {
            alltoall_bandwidth: 1e9,
            allreduce_bandwidth: 2e9,
            latency: 0.0,
        };
        let m = cfg.cost_model();
        let t = m.allreduce_time(1_000_000, 4);
        assert!((t - 2.0 * 0.75 * 1_000_000.0 / 2e9).abs() < 1e-12);
        // With non-zero latency the alpha term scales with the tree depth.
        let with_latency = NetworkConfig {
            latency: 1e-5,
            ..cfg
        }
        .cost_model();
        assert!((with_latency.allreduce_time(0, 8) - 2.0 * 3.0 * 1e-5).abs() < 1e-12);
        assert_eq!(m.allreduce_time(123, 1), 0.0);
    }

    #[test]
    fn metadata_phase_is_cheap_relative_to_payload() {
        let m = NetworkConfig::default().cost_model();
        let meta = m.metadata_time(31, 16);
        let payload = m.alltoall_time(8 << 20, 8 << 20);
        assert!(meta * 10.0 < payload);
    }

    #[test]
    fn chunked_bandwidth_terms_sum_to_the_bulk_collective() {
        let m = NetworkConfig::default().cost_model();
        let chunks = [100_000usize, 250_000, 1, 649_999];
        let total: usize = chunks.iter().sum();
        let summed: f64 = chunks.iter().map(|&c| m.bandwidth_time(c)).sum();
        let bulk = m.alltoall_time(total, total) - m.config().latency;
        assert!(
            (summed - bulk).abs() < 1e-12,
            "chunked {summed} vs bulk {bulk}"
        );
    }

    #[test]
    fn message_time_prices_each_link_at_its_own_bandwidth() {
        let m = NetworkConfig {
            alltoall_bandwidth: 1e6,
            allreduce_bandwidth: 4e6,
            latency: 1e-3,
        }
        .cost_model();
        assert_eq!(m.message_time(Link::AllToAll, 2_000_000), 1e-3 + 2.0);
        assert_eq!(m.message_time(Link::AllReduce, 2_000_000), 1e-3 + 0.5);
        // One α per message, whatever its size or link.
        assert_eq!(m.message_time(Link::AllToAll, 0), 1e-3);
        assert_eq!(m.message_time(Link::AllReduce, 0), 1e-3);
    }

    #[test]
    fn infinite_network_costs_almost_nothing() {
        let m = NetworkConfig::infinite().cost_model();
        assert!(m.alltoall_time(1 << 30, 1 << 30) < 1e-6);
    }
}
