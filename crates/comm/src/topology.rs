//! Node-aware hierarchical topology: `nodes × ranks_per_node` with a
//! per-tier α–β link description.
//!
//! The paper trains on multi-GPU nodes whose intra-node links (NVLink-class,
//! hundreds of GB/s) are an order of magnitude faster than the inter-node
//! fabric its compression targets (~4 GB/s per rank in the Figure 11
//! analysis). The flat [`NetworkConfig`] charges every rank pair identically;
//! a [`Topology`] instead describes the cluster as `nodes` machines of
//! `ranks_per_node` ranks each, with an intra-node and an inter-node
//! [`NetworkConfig`] tier, and a [`TieredCostModel`] that charges each
//! `(src, dst)` pair by the link the message actually crosses.
//!
//! Ranks are numbered node-major: rank `r` lives on node `r / ranks_per_node`
//! with local index `r % ranks_per_node`, and local rank 0 is the node's
//! *leader* — the rank that drives the aggregated inter-node exchange of the
//! relayed all-to-all
//! ([`RankCtx::begin_relayed`](crate::cluster::RankCtx::begin_relayed)).
//!
//! ## Bandwidth conventions
//!
//! Both tiers' bandwidths are **per rank**, matching the flat model (each GPU
//! owns an NVLink port and a NIC share, as on DGX-class nodes). A
//! leader-driven inter-node exchange moves its node's whole fabric traffic
//! through one rank; like NCCL's aggregated network transfers it saturates
//! the node's full NIC pool, so the tiered model charges it
//! `bytes / (ranks_per_node · inter.alltoall_bandwidth)` — see
//! [`TieredCostModel::node_fabric_bandwidth`]. This keeps the leader schedule
//! and the flat per-pair schedule at the same fabric time for the same bytes,
//! which is what makes the hierarchical collective a pure win: intra-node
//! traffic moves off the slow tier entirely.

use crate::cluster::ExchangeBytes;
use crate::cost::{CostModel, Link, NetworkConfig};

/// Which link a message crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Both ranks live on the same node (NVLink-class link).
    Intra,
    /// The ranks live on different nodes (network fabric).
    Inter,
}

/// A `nodes × ranks_per_node` cluster with per-tier link parameters.
///
/// The flat single-tier cluster remains the `nodes == 1` special case
/// ([`Topology::flat`]): every pair is intra-node and only the intra tier is
/// ever charged.
///
/// ```
/// use dlrm_comm::{NetworkConfig, Topology};
///
/// // The paper's Figure-11 fabric under four 8-GPU NVLink nodes.
/// let topo = Topology::new(
///     4,
///     8,
///     NetworkConfig::nvlink_intra_node(),
///     NetworkConfig::paper_figure11(),
/// );
/// assert_eq!(topo.world(), 32);
/// assert!(topo.same_node(0, 7) && !topo.same_node(7, 8));
/// assert_eq!(topo.leader_of(13), 8); // node 1's leader is rank 8
///
/// // The flat special case: one node, one tier.
/// let flat = Topology::flat(8, NetworkConfig::default());
/// assert_eq!(flat.nodes(), 1);
/// assert!(flat.same_node(0, 7));
/// assert_eq!(flat.inter_fraction(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    nodes: usize,
    ranks_per_node: usize,
    intra: NetworkConfig,
    inter: NetworkConfig,
}

impl Topology {
    /// A cluster of `nodes` machines with `ranks_per_node` ranks each, with
    /// the given per-tier links.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(
        nodes: usize,
        ranks_per_node: usize,
        intra: NetworkConfig,
        inter: NetworkConfig,
    ) -> Self {
        assert!(nodes > 0, "topology needs at least one node");
        assert!(
            ranks_per_node > 0,
            "topology needs at least one rank per node"
        );
        Self {
            nodes,
            ranks_per_node,
            intra,
            inter,
        }
    }

    /// The single-tier degenerate case: every rank on one node, the given
    /// network as the (only ever charged) intra tier.
    pub fn flat(world: usize, network: NetworkConfig) -> Self {
        Self::new(1, world, network, network)
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Ranks per node.
    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// Total ranks: `nodes × ranks_per_node`.
    pub fn world(&self) -> usize {
        self.nodes * self.ranks_per_node
    }

    /// The intra-node link.
    pub fn intra(&self) -> NetworkConfig {
        self.intra
    }

    /// The inter-node link (per-rank NIC share).
    pub fn inter(&self) -> NetworkConfig {
        self.inter
    }

    /// The same shape with the inter-node tier replaced — how a
    /// [`BandwidthTrace`](crate::trace::BandwidthTrace) degrades the fabric
    /// mid-run while the intra-node links hold steady.
    pub fn with_inter(mut self, inter: NetworkConfig) -> Self {
        self.inter = inter;
        self
    }

    /// Node that `rank` lives on.
    pub fn node_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.world());
        rank / self.ranks_per_node
    }

    /// Index of `rank` within its node.
    pub fn local_rank(&self, rank: usize) -> usize {
        rank % self.ranks_per_node
    }

    /// The leader (local rank 0) of `rank`'s node.
    pub fn leader_of(&self, rank: usize) -> usize {
        self.node_of(rank) * self.ranks_per_node
    }

    /// The leader rank of `node`.
    pub fn leader_of_node(&self, node: usize) -> usize {
        debug_assert!(node < self.nodes);
        node * self.ranks_per_node
    }

    /// True when `rank` is its node's leader.
    pub fn is_leader(&self, rank: usize) -> bool {
        self.local_rank(rank) == 0
    }

    /// True when both ranks live on the same node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// The tier a message from `src` to `dst` crosses.
    pub fn tier_of(&self, src: usize, dst: usize) -> Tier {
        if self.same_node(src, dst) {
            Tier::Intra
        } else {
            Tier::Inter
        }
    }

    /// The link a message from `src` to `dst` crosses.
    pub fn link_of(&self, src: usize, dst: usize) -> NetworkConfig {
        match self.tier_of(src, dst) {
            Tier::Intra => self.intra,
            Tier::Inter => self.inter,
        }
    }

    /// True when only one tier exists (`nodes == 1`) — the flat special case.
    pub fn is_single_tier(&self) -> bool {
        self.nodes == 1
    }

    /// Fraction of a uniform all-to-all's traffic that crosses the fabric:
    /// `(world − ranks_per_node) / (world − 1)`, 0 for a single rank.
    pub fn inter_fraction(&self) -> f64 {
        let world = self.world();
        if world <= 1 {
            return 0.0;
        }
        (world - self.ranks_per_node) as f64 / (world - 1) as f64
    }

    /// Structural validation: positive dimensions and positive link
    /// parameters ([`Topology::new`] checks only the dimensions).
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 || self.ranks_per_node == 0 {
            return Err("topology dimensions must be positive".into());
        }
        for (name, link) in [("intra", &self.intra), ("inter", &self.inter)] {
            if !(link.alltoall_bandwidth > 0.0
                && link.allreduce_bandwidth > 0.0
                && link.latency >= 0.0)
            {
                return Err(format!("{name} tier link parameters must be positive"));
            }
        }
        Ok(())
    }

    /// Tiered cost model bound to this topology.
    pub fn cost_model(&self) -> TieredCostModel {
        TieredCostModel { topo: *self }
    }
}

/// Per-phase byte accounting of the hierarchical all-to-all, for tier-aware
/// cost charging. The gather and scatter phases ride the intra tier, the
/// leader exchange rides the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierExchangeBytes {
    /// Phase A (intra tier): direct same-node chunks plus the member → leader
    /// bundles of inter-node-bound payloads.
    pub gather: ExchangeBytes,
    /// Phase B (inter tier): the aggregated leader ↔ leader node-pair
    /// bundles.
    pub exchange: ExchangeBytes,
    /// Phase C (intra tier): the leader → member delivery bundles.
    pub scatter: ExchangeBytes,
}

impl HierExchangeBytes {
    /// Total intra-tier bytes (gather + scatter), both directions.
    pub fn intra_total(&self) -> u64 {
        (self.gather.sent + self.gather.received + self.scatter.sent + self.scatter.received) as u64
    }

    /// Total inter-tier bytes, both directions.
    pub fn inter_total(&self) -> u64 {
        (self.exchange.sent + self.exchange.received) as u64
    }

    /// Grand total bytes this rank moved, both directions.
    pub fn total(&self) -> u64 {
        self.intra_total() + self.inter_total()
    }
}

/// Charges virtual time per tier: each `(src, dst)` pair pays for the link it
/// actually crosses.
///
/// ```
/// use dlrm_comm::{NetworkConfig, Topology};
///
/// // Two 4-rank NVLink nodes over a slow fabric: the same bytes cost far
/// // more when they cross the fabric.
/// let topo = Topology::new(2, 4, NetworkConfig::nvlink_intra_node(), NetworkConfig::paper_figure11());
/// let model = topo.cost_model();
/// let intra = model.pair_time(0, 1, 1 << 20); // same node
/// let inter = model.pair_time(0, 4, 1 << 20); // across the fabric
/// assert!(inter > 10.0 * intra);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TieredCostModel {
    topo: Topology,
}

impl TieredCostModel {
    /// Create a tiered model for a topology.
    pub fn new(topo: Topology) -> Self {
        Self { topo }
    }

    /// The topology behind this model.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Point-to-point time of `bytes` from `src` to `dst` over whichever
    /// link the pair crosses.
    pub fn pair_time(&self, src: usize, dst: usize, bytes: usize) -> f64 {
        CostModel::new(self.topo.link_of(src, dst)).message_time(Link::AllToAll, bytes)
    }

    /// The fabric bandwidth available to a leader-driven exchange: the node's
    /// full NIC pool, `ranks_per_node × inter.alltoall_bandwidth` (see the
    /// module docs for the convention).
    pub fn node_fabric_bandwidth(&self) -> f64 {
        self.topo.ranks_per_node as f64 * self.topo.inter.alltoall_bandwidth
    }

    /// `(intra seconds, inter seconds)` of one hierarchical all-to-all with
    /// the given per-phase byte counts: each existing phase charges one α of
    /// its tier plus its bottleneck-direction bytes over the tier bandwidth
    /// (the leader exchange over the node NIC pool). Phases that cannot occur
    /// on this topology (no members, or a single node) charge nothing.
    pub fn hier_tier_times(&self, bytes: &HierExchangeBytes) -> (f64, f64) {
        let t = &self.topo;
        let mut intra = 0.0;
        if t.ranks_per_node > 1 {
            intra += t.intra.latency
                + bytes.gather.sent.max(bytes.gather.received) as f64 / t.intra.alltoall_bandwidth;
            if t.nodes > 1 {
                intra += t.intra.latency
                    + bytes.scatter.sent.max(bytes.scatter.received) as f64
                        / t.intra.alltoall_bandwidth;
            }
        }
        let mut inter = 0.0;
        if t.nodes > 1 {
            inter += t.inter.latency
                + bytes.exchange.sent.max(bytes.exchange.received) as f64
                    / self.node_fabric_bandwidth();
        }
        (intra, inter)
    }

    /// Total time of one hierarchical all-to-all (sum of the tier times —
    /// the phases are serial: gather, exchange, scatter).
    pub fn hier_alltoall_time(&self, bytes: &HierExchangeBytes) -> f64 {
        let (intra, inter) = self.hier_tier_times(bytes);
        intra + inter
    }

    /// The α (latency) seconds [`TieredCostModel::hier_alltoall_time`]
    /// charges regardless of byte counts — what the overlapped pipeline
    /// charges once per collective while the β term is split across chunks.
    pub fn hier_alpha_seconds(&self) -> f64 {
        let t = &self.topo;
        let mut alpha = 0.0;
        if t.ranks_per_node > 1 {
            alpha += t.intra.latency;
            if t.nodes > 1 {
                alpha += t.intra.latency;
            }
        }
        if t.nodes > 1 {
            alpha += t.inter.latency;
        }
        alpha
    }

    /// `(intra seconds, inter seconds)` of a reduce-scatter + all-gather
    /// all-reduce that moved the given per-tier bytes on this rank: each
    /// tier charges its tree-depth latency term (`2·⌈log₂ d⌉·α` with `d` the
    /// tier's group size) plus the bottleneck-direction bytes over the
    /// tier's all-reduce bandwidth — the tiered generalisation of
    /// [`CostModel::allreduce_wire_time`], which it reproduces exactly when
    /// `nodes == 1`.
    pub fn allreduce_tier_times(&self, intra: ExchangeBytes, inter: ExchangeBytes) -> (f64, f64) {
        let t = &self.topo;
        let mut ti = 0.0;
        if t.ranks_per_node > 1 {
            let depth = (t.ranks_per_node as f64).log2().ceil();
            ti = 2.0 * depth * t.intra.latency
                + intra.sent.max(intra.received) as f64 / t.intra.allreduce_bandwidth;
        }
        let mut te = 0.0;
        if t.nodes > 1 {
            let depth = (t.nodes as f64).log2().ceil();
            te = 2.0 * depth * t.inter.latency
                + inter.sent.max(inter.received) as f64 / t.inter.allreduce_bandwidth;
        }
        (ti, te)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_by_four() -> Topology {
        Topology::new(
            2,
            4,
            NetworkConfig::nvlink_intra_node(),
            NetworkConfig::paper_figure11(),
        )
    }

    #[test]
    fn rank_geometry_is_node_major() {
        let topo = two_by_four();
        assert_eq!(topo.world(), 8);
        assert_eq!(topo.node_of(3), 0);
        assert_eq!(topo.node_of(4), 1);
        assert_eq!(topo.local_rank(5), 1);
        assert_eq!(topo.leader_of(6), 4);
        assert!(topo.is_leader(4) && !topo.is_leader(5));
        assert_eq!(topo.tier_of(1, 3), Tier::Intra);
        assert_eq!(topo.tier_of(3, 4), Tier::Inter);
        assert_eq!(
            topo.link_of(3, 4).alltoall_bandwidth,
            NetworkConfig::paper_figure11().alltoall_bandwidth
        );
    }

    #[test]
    fn flat_topology_is_single_tier() {
        let flat = Topology::flat(6, NetworkConfig::default());
        assert!(flat.is_single_tier());
        assert_eq!(flat.world(), 6);
        assert_eq!(flat.inter_fraction(), 0.0);
        for a in 0..6 {
            for b in 0..6 {
                assert_eq!(flat.tier_of(a, b), Tier::Intra);
            }
        }
        assert!(flat.validate().is_ok());
    }

    #[test]
    fn inter_fraction_shrinks_as_nodes_fatten() {
        // Fixed world 8: more ranks per node → less fabric traffic.
        let net = NetworkConfig::default();
        let fractions: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&rpn| Topology::new(8 / rpn, rpn, net, net).inter_fraction())
            .collect();
        assert!(
            fractions.windows(2).all(|w| w[0] > w[1]),
            "not strictly decreasing: {fractions:?}"
        );
        assert!((fractions[0] - 1.0).abs() < 1e-12); // rpn == 1: all fabric
        assert_eq!(fractions[3], 0.0); // single node: none
    }

    #[test]
    fn validation_rejects_bad_links() {
        let mut topo = two_by_four();
        assert!(topo.validate().is_ok());
        topo.inter.alltoall_bandwidth = 0.0;
        assert!(topo.validate().is_err());
    }

    #[test]
    fn hier_times_charge_only_existing_phases() {
        let bytes = HierExchangeBytes {
            gather: ExchangeBytes {
                sent: 1000,
                received: 3000,
            },
            exchange: ExchangeBytes {
                sent: 8000,
                received: 8000,
            },
            scatter: ExchangeBytes {
                sent: 3000,
                received: 1000,
            },
        };
        let topo = two_by_four();
        let model = topo.cost_model();
        let (intra, inter) = model.hier_tier_times(&bytes);
        let bw_i = topo.intra().alltoall_bandwidth;
        let expect_intra = 2.0 * topo.intra().latency + (3000.0 + 3000.0) / bw_i;
        assert!((intra - expect_intra).abs() < 1e-15);
        // The leader exchange rides the node's NIC pool: 4 × per-rank fabric.
        let expect_inter = topo.inter().latency + 8000.0 / (4.0 * topo.inter().alltoall_bandwidth);
        assert!((inter - expect_inter).abs() < 1e-15);
        assert!((model.hier_alltoall_time(&bytes) - (intra + inter)).abs() < 1e-15);
        assert!(
            (model.hier_alpha_seconds() - (2.0 * topo.intra().latency + topo.inter().latency))
                .abs()
                < 1e-18
        );

        // Single node: only the gather phase (direct intra sends) charges.
        let flat = Topology::flat(8, NetworkConfig::default()).cost_model();
        let (fi, fe) = flat.hier_tier_times(&bytes);
        assert_eq!(fe, 0.0);
        assert!(fi > 0.0);
        // One rank per node: no intra phase at all.
        let thin = Topology::new(8, 1, NetworkConfig::default(), NetworkConfig::default());
        let (ti, te) = thin.cost_model().hier_tier_times(&bytes);
        assert_eq!(ti, 0.0);
        assert!(te > 0.0);
    }

    #[test]
    fn tiered_allreduce_matches_flat_formula_on_one_node() {
        let net = NetworkConfig::default();
        let flat = Topology::flat(8, net).cost_model();
        let moved = ExchangeBytes {
            sent: 7 << 10,
            received: 7 << 10,
        };
        let (ti, te) = flat.allreduce_tier_times(moved, ExchangeBytes::default());
        assert_eq!(te, 0.0);
        let reference = net
            .cost_model()
            .allreduce_wire_time(moved.sent, moved.received, 8);
        assert!((ti - reference).abs() < 1e-15, "{ti} vs {reference}");
    }

    #[test]
    fn bigger_intra_share_is_cheaper_at_fixed_bytes() {
        // The headline shape: at a fixed total, moving bytes from the inter
        // to the intra column makes the tiered all-reduce cheaper.
        let topo = two_by_four().cost_model();
        let mk = |inter: usize| {
            let intra = 16_000 - inter;
            topo.allreduce_tier_times(
                ExchangeBytes {
                    sent: intra,
                    received: intra,
                },
                ExchangeBytes {
                    sent: inter,
                    received: inter,
                },
            )
        };
        let (i1, e1) = mk(12_000);
        let (i2, e2) = mk(4_000);
        assert!(i2 + e2 < i1 + e1);
    }
}
