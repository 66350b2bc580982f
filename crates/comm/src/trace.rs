//! Piecewise-constant bandwidth traces: the modeled fabric can change
//! mid-run.
//!
//! Every [`NetworkConfig`] so far described a link that holds for a whole
//! training run; real fabrics do not hold still. Links drift as co-tenant
//! jobs arrive, congestion spikes for a few thousand iterations and clears,
//! a flapping NIC degrades one tier of the cluster. A [`BandwidthTrace`] is
//! the simulated analogue: a sorted list of `(start_iter, NetworkConfig)`
//! segments, each holding until the next begins, so the cost model the
//! trainer charges with — and the wire conditions the runtime adaptive
//! controller observes — can change while training runs.
//!
//! The trace is *piecewise-constant by design*: the α–β model has no notion
//! of sub-iteration time, so the finest granularity at which the fabric can
//! meaningfully change is one iteration. Smooth drift is approximated by
//! [`BandwidthTrace::linear_drift`]'s staircase of segments.
//!
//! ```
//! use dlrm_comm::{BandwidthTrace, NetworkConfig};
//!
//! // A fabric that starts at the paper's 4 GB/s, degrades to 1 GB/s over
//! // iterations 100..200 in four steps, and stays degraded.
//! let trace = BandwidthTrace::linear_drift(
//!     NetworkConfig::paper_figure11(),
//!     NetworkConfig::alltoall_bound(1e9),
//!     100,
//!     200,
//!     4,
//! );
//! assert_eq!(trace.network_at(0).alltoall_bandwidth, 4e9);
//! assert_eq!(trace.network_at(10_000).alltoall_bandwidth, 1e9);
//! // Mid-drift the bandwidth sits between the endpoints.
//! let mid = trace.network_at(150).alltoall_bandwidth;
//! assert!(mid < 4e9 && mid > 1e9);
//! // The matching cost model charges more virtual time as the link sags.
//! let early = trace.cost_model_at(0).alltoall_time(1 << 20, 1 << 20);
//! let late = trace.cost_model_at(500).alltoall_time(1 << 20, 1 << 20);
//! assert!(late > early);
//! ```

use crate::cost::{CostModel, NetworkConfig};
use crate::topology::{TieredCostModel, Topology};

/// One segment of a [`BandwidthTrace`]: from `start_iter` (inclusive) until
/// the next segment begins, the modeled link looks like `network`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSegment {
    /// First iteration this segment applies to.
    pub start_iter: usize,
    /// Link parameters during the segment.
    pub network: NetworkConfig,
}

/// A piecewise-constant description of how the modeled interconnect changes
/// over the iterations of a run. See the [module docs](self) for the
/// motivation and a drift example.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthTrace {
    /// Segments sorted by `start_iter`; the first starts at iteration 0.
    segments: Vec<TraceSegment>,
}

impl BandwidthTrace {
    /// A trace from explicit segments.
    ///
    /// # Panics
    /// Panics if `segments` is empty, does not start at iteration 0, or is
    /// not strictly sorted by `start_iter`.
    pub fn new(segments: Vec<TraceSegment>) -> Self {
        let trace = Self { segments };
        if let Err(e) = trace.validate() {
            panic!("invalid bandwidth trace: {e}");
        }
        trace
    }

    /// A trace that never changes — exactly the static `network`.
    pub fn constant(network: NetworkConfig) -> Self {
        Self::new(vec![TraceSegment {
            start_iter: 0,
            network,
        }])
    }

    /// `before` until `at_iter`, `after` from then on — the abrupt-drift
    /// scenario (a tenant job lands on the fabric and stays).
    pub fn step(before: NetworkConfig, after: NetworkConfig, at_iter: usize) -> Self {
        assert!(at_iter > 0, "a step at iteration 0 is just `constant`");
        Self::new(vec![
            TraceSegment {
                start_iter: 0,
                network: before,
            },
            TraceSegment {
                start_iter: at_iter,
                network: after,
            },
        ])
    }

    /// Gradual drift from `from` to `to` between iterations `start` and
    /// `end`, approximated by `steps` equal piecewise-constant plateaus
    /// (bandwidths and latency interpolated linearly); `to` holds after
    /// `end`.
    ///
    /// # Panics
    /// Panics unless `start < end` and `steps > 0`.
    pub fn linear_drift(
        from: NetworkConfig,
        to: NetworkConfig,
        start: usize,
        end: usize,
        steps: usize,
    ) -> Self {
        assert!(start < end, "drift needs a non-empty iteration range");
        assert!(steps > 0, "drift needs at least one step");
        let mut segments = vec![TraceSegment {
            start_iter: 0,
            network: from,
        }];
        let lerp = |a: f64, b: f64, w: f64| a + (b - a) * w;
        for s in 0..steps {
            // Plateau s covers [start + s·span/steps, …) at the bandwidth of
            // the *end* of that plateau, so the final plateau lands on `to`.
            let w = (s + 1) as f64 / steps as f64;
            let network = NetworkConfig {
                alltoall_bandwidth: lerp(from.alltoall_bandwidth, to.alltoall_bandwidth, w),
                allreduce_bandwidth: lerp(from.allreduce_bandwidth, to.allreduce_bandwidth, w),
                latency: lerp(from.latency, to.latency, w),
            };
            let start_iter = start + s * (end - start) / steps;
            // More steps than iterations (or a drift starting at 0) lands
            // several plateaus on the same iteration: the later (further
            // along the ramp) plateau wins, instead of violating the
            // strictly-sorted invariant.
            match segments.last_mut() {
                Some(last) if last.start_iter == start_iter => last.network = network,
                _ => segments.push(TraceSegment {
                    start_iter,
                    network,
                }),
            }
        }
        Self::new(segments)
    }

    /// The link parameters in effect at `iter`.
    pub fn network_at(&self, iter: usize) -> NetworkConfig {
        // Last segment whose start is ≤ iter; validation guarantees the
        // first starts at 0, so the partition point is never 0.
        let idx = self.segments.partition_point(|s| s.start_iter <= iter) - 1;
        self.segments[idx].network
    }

    /// Flat α–β cost model for the link in effect at `iter`.
    pub fn cost_model_at(&self, iter: usize) -> CostModel {
        self.network_at(iter).cost_model()
    }

    /// `base` with its **inter-node tier** replaced by the link in effect at
    /// `iter` — how a trace degrades a hierarchical cluster: the fabric
    /// drifts, the NVLink tier does not.
    pub fn topology_at(&self, base: &Topology, iter: usize) -> Topology {
        base.with_inter(self.network_at(iter))
    }

    /// Tiered cost model of [`BandwidthTrace::topology_at`].
    pub fn tiered_cost_model_at(&self, base: &Topology, iter: usize) -> TieredCostModel {
        self.topology_at(base, iter).cost_model()
    }

    /// The underlying segments, sorted by start iteration.
    pub fn segments(&self) -> &[TraceSegment] {
        &self.segments
    }

    /// Structural validation; [`BandwidthTrace::new`] panics on any error
    /// it returns.
    pub fn validate(&self) -> Result<(), String> {
        if self.segments.is_empty() {
            return Err("trace needs at least one segment".into());
        }
        if self.segments[0].start_iter != 0 {
            return Err("first trace segment must start at iteration 0".into());
        }
        for w in self.segments.windows(2) {
            if w[1].start_iter <= w[0].start_iter {
                return Err("trace segments must be strictly sorted by start_iter".into());
            }
        }
        for s in &self.segments {
            if !(s.network.alltoall_bandwidth > 0.0
                && s.network.allreduce_bandwidth > 0.0
                && s.network.latency >= 0.0)
            {
                return Err("trace segment link parameters must be positive".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when every segment carries the same link.
    fn is_constant(trace: &BandwidthTrace) -> bool {
        (trace.segments.windows(2)).all(|w| w[0].network == w[1].network)
    }

    #[test]
    fn constant_trace_is_the_static_network() {
        let net = NetworkConfig::default();
        let trace = BandwidthTrace::constant(net);
        assert!(is_constant(&trace));
        for iter in [0, 1, 17, 100_000] {
            assert_eq!(trace.network_at(iter), net);
        }
    }

    #[test]
    fn step_switches_exactly_at_the_boundary() {
        let fast = NetworkConfig::alltoall_bound(4e9);
        let slow = NetworkConfig::alltoall_bound(5e8);
        let trace = BandwidthTrace::step(fast, slow, 10);
        assert!(!is_constant(&trace));
        assert_eq!(trace.network_at(9), fast);
        assert_eq!(trace.network_at(10), slow);
        assert_eq!(trace.network_at(999), slow);
    }

    #[test]
    fn linear_drift_interpolates_monotonically() {
        let from = NetworkConfig::alltoall_bound(8e9);
        let to = NetworkConfig::alltoall_bound(1e9);
        let trace = BandwidthTrace::linear_drift(from, to, 10, 50, 5);
        let mut prev = f64::INFINITY;
        for iter in 0..60 {
            let bw = trace.network_at(iter).alltoall_bandwidth;
            assert!(bw <= prev + 1e-9, "bandwidth rose at {iter}");
            prev = bw;
        }
        assert_eq!(trace.network_at(9), from);
        assert_eq!(trace.network_at(50).alltoall_bandwidth, 1e9);
    }

    #[test]
    fn linear_drift_tolerates_degenerate_step_layouts() {
        let from = NetworkConfig::alltoall_bound(8e9);
        let to = NetworkConfig::alltoall_bound(1e9);
        // Drift starting at iteration 0: the first plateau replaces the
        // base segment instead of colliding with it.
        let immediate = BandwidthTrace::linear_drift(from, to, 0, 100, 4);
        assert!(immediate.network_at(0).alltoall_bandwidth < 8e9);
        assert_eq!(immediate.network_at(100).alltoall_bandwidth, 1e9);
        // More steps than iterations: colliding plateaus collapse onto the
        // furthest-along one, and the endpoint still lands on `to`.
        let dense = BandwidthTrace::linear_drift(from, to, 10, 12, 5);
        assert_eq!(dense.network_at(9), from);
        assert_eq!(dense.network_at(12).alltoall_bandwidth, 1e9);
        let mut prev = f64::INFINITY;
        for iter in 0..14 {
            let bw = dense.network_at(iter).alltoall_bandwidth;
            assert!(bw <= prev + 1e-9);
            prev = bw;
        }
    }

    #[test]
    fn congestion_spike_recovers() {
        let base = NetworkConfig::alltoall_bound(4e9);
        let spiked = NetworkConfig::alltoall_bound(2e8);
        // `base` everywhere except iterations [20, 25), which see `spiked`.
        let segment = |start_iter, network| TraceSegment {
            start_iter,
            network,
        };
        let trace = BandwidthTrace::new(vec![
            segment(0, base),
            segment(20, spiked),
            segment(25, base),
        ]);
        assert_eq!(trace.network_at(19), base);
        assert_eq!(trace.network_at(20), spiked);
        assert_eq!(trace.network_at(24), spiked);
        assert_eq!(trace.network_at(25), base);
    }

    #[test]
    fn topology_at_replaces_only_the_inter_tier() {
        let topo = Topology::new(
            2,
            2,
            NetworkConfig::nvlink_intra_node(),
            NetworkConfig::paper_figure11(),
        );
        let degraded_link = NetworkConfig::alltoall_bound(1e8);
        let trace = BandwidthTrace::step(NetworkConfig::paper_figure11(), degraded_link, 5);
        let before = trace.topology_at(&topo, 0);
        let after = trace.topology_at(&topo, 5);
        assert_eq!(before.inter(), NetworkConfig::paper_figure11());
        assert_eq!(after.inter(), degraded_link);
        assert_eq!(after.intra(), topo.intra());
        assert_eq!(after.nodes(), 2);
        // The tiered model charges the degraded fabric accordingly.
        let t_before = trace
            .tiered_cost_model_at(&topo, 0)
            .pair_time(0, 2, 1 << 20);
        let t_after = trace
            .tiered_cost_model_at(&topo, 5)
            .pair_time(0, 2, 1 << 20);
        assert!(t_after > t_before);
    }

    #[test]
    fn validation_rejects_malformed_traces() {
        let net = NetworkConfig::default();
        let unsorted = BandwidthTrace {
            segments: vec![
                TraceSegment {
                    start_iter: 0,
                    network: net,
                },
                TraceSegment {
                    start_iter: 0,
                    network: net,
                },
            ],
        };
        assert!(unsorted.validate().is_err());
        let late_start = BandwidthTrace {
            segments: vec![TraceSegment {
                start_iter: 3,
                network: net,
            }],
        };
        assert!(late_start.validate().is_err());
        let empty = BandwidthTrace { segments: vec![] };
        assert!(empty.validate().is_err());
        let bad_link = BandwidthTrace {
            segments: vec![TraceSegment {
                start_iter: 0,
                network: NetworkConfig {
                    alltoall_bandwidth: 0.0,
                    allreduce_bandwidth: 1e9,
                    latency: 0.0,
                },
            }],
        };
        assert!(bad_link.validate().is_err());
    }
}
