//! Deterministic fault and elasticity plans: stragglers, rank loss, and
//! mid-run world resize.
//!
//! A [`FaultPlan`] is the third scenario axis next to
//! [`BandwidthTrace`](crate::trace::BandwidthTrace) (networks that drift)
//! and `TrafficDrift` (workloads that drift): **clusters that break**. It
//! schedules three event classes against the iteration counter:
//!
//! * **Stragglers** ([`StragglerWindow`]) — a rank whose effective link
//!   throughput drops by a multiplier over an iteration window. A
//!   bulk-synchronous collective moves at its slowest member's pace, so the
//!   plan exposes [`FaultPlan::straggler_factor`] — the worst multiplier
//!   active at an iteration — which the trainer charges by degrading the
//!   collective's [`NetworkConfig`] (see [`NetworkConfig::degraded`]).
//! * **Rank loss** ([`WorldEvent::RankLoss`]) — a rank dies at iteration
//!   `iter`; training must re-shard its embedding tables onto the survivors
//!   and replay from the last checkpoint.
//! * **Resize** ([`WorldEvent::Resize`]) — the world grows or shrinks at
//!   iteration `iter` (elastic scale-out/in); training re-shards and
//!   continues from a checkpoint taken at the boundary.
//!
//! Like a trace, a plan is pure data: deterministic and a pure function of
//! the iteration counter, so every rank of an SPMD trainer derives identical
//! decisions from the shared configuration.
//!
//! ```
//! use dlrm_comm::FaultPlan;
//!
//! // Rank 1 runs at 1/8 link throughput over iterations [4, 10), and the
//! // world shrinks by one rank at iteration 12.
//! let plan = FaultPlan::none()
//!     .with_straggler(1, 4, 10, 8.0)
//!     .with_rank_loss(12, 1);
//! assert_eq!(plan.straggler_factor(2), 1.0);
//! assert_eq!(plan.straggler_factor(6), 8.0);
//! assert!(plan.degraded_at(6) && !plan.degraded_at(10));
//! assert_eq!(plan.events().len(), 1);
//! assert_eq!(plan.world_after(4, 20), 3);
//! ```

use crate::cost::NetworkConfig;

impl NetworkConfig {
    /// This network with every bandwidth divided by `factor` (latency
    /// unchanged) — the link a straggling rank effectively runs on. A
    /// factor of 1.0 returns the configuration bit-for-bit unchanged.
    ///
    /// # Panics
    /// Panics unless `factor >= 1.0` and finite.
    pub fn degraded(&self, factor: f64) -> Self {
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "straggler factor must be a finite slowdown (>= 1.0), got {factor}"
        );
        Self {
            alltoall_bandwidth: self.alltoall_bandwidth / factor,
            allreduce_bandwidth: self.allreduce_bandwidth / factor,
            latency: self.latency,
        }
    }
}

/// One rank running slow over a half-open iteration window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerWindow {
    /// The straggling rank (an index into the world at the window's start).
    pub rank: usize,
    /// First iteration the slowdown is active.
    pub start_iter: usize,
    /// First iteration after the slowdown ends (exclusive).
    pub end_iter: usize,
    /// Throughput slowdown factor (`>= 1.0`; 8.0 = the rank's link runs at
    /// 1/8 speed).
    pub multiplier: f64,
}

impl StragglerWindow {
    /// True when the window covers `iter`.
    pub fn active_at(&self, iter: usize) -> bool {
        (self.start_iter..self.end_iter).contains(&iter)
    }
}

/// A scheduled change of the world size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldEvent {
    /// Rank `rank` dies at the start of iteration `iter`: the world shrinks
    /// by one and the lost rank's tables re-shard onto the survivors.
    RankLoss {
        /// Iteration at which the rank is gone.
        iter: usize,
        /// The dying rank (an index into the world just before `iter`).
        rank: usize,
    },
    /// The world resizes to `new_world` ranks at the start of iteration
    /// `iter` (grow or shrink), re-sharding the embedding tables.
    Resize {
        /// Iteration at which the new world takes over.
        iter: usize,
        /// World size from `iter` on.
        new_world: usize,
    },
}

impl WorldEvent {
    /// The iteration the event fires at.
    pub fn iter(&self) -> usize {
        match *self {
            WorldEvent::RankLoss { iter, .. } | WorldEvent::Resize { iter, .. } => iter,
        }
    }

    /// World size after the event, given the world just before it.
    pub fn world_after(&self, world_before: usize) -> usize {
        match *self {
            WorldEvent::RankLoss { .. } => world_before - 1,
            WorldEvent::Resize { new_world, .. } => new_world,
        }
    }
}

/// A deterministic schedule of stragglers and world events. See the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    stragglers: Vec<StragglerWindow>,
    events: Vec<WorldEvent>,
}

impl FaultPlan {
    /// The healthy plan: no stragglers, no world events. Training under it
    /// is bit-for-bit identical to training without a plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder: add a straggler window (`rank` runs at `1/multiplier` link
    /// throughput over `[start_iter, end_iter)`).
    ///
    /// # Panics
    /// Panics if the combined plan fails [`FaultPlan::validate`].
    pub fn with_straggler(
        mut self,
        rank: usize,
        start_iter: usize,
        end_iter: usize,
        multiplier: f64,
    ) -> Self {
        self.stragglers.push(StragglerWindow {
            rank,
            start_iter,
            end_iter,
            multiplier,
        });
        if let Err(e) = self.validate() {
            panic!("invalid fault plan: {e}");
        }
        self
    }

    /// Builder: schedule the loss of `rank` at iteration `iter`.
    ///
    /// # Panics
    /// Panics if the combined plan fails [`FaultPlan::validate`].
    pub fn with_rank_loss(mut self, iter: usize, rank: usize) -> Self {
        self.events.push(WorldEvent::RankLoss { iter, rank });
        self.events.sort_by_key(WorldEvent::iter);
        if let Err(e) = self.validate() {
            panic!("invalid fault plan: {e}");
        }
        self
    }

    /// Builder: schedule a resize to `new_world` ranks at iteration `iter`.
    ///
    /// # Panics
    /// Panics if the combined plan fails [`FaultPlan::validate`].
    pub fn with_resize(mut self, iter: usize, new_world: usize) -> Self {
        self.events.push(WorldEvent::Resize { iter, new_world });
        self.events.sort_by_key(WorldEvent::iter);
        if let Err(e) = self.validate() {
            panic!("invalid fault plan: {e}");
        }
        self
    }

    /// True when the plan schedules nothing at all.
    pub fn is_none(&self) -> bool {
        self.stragglers.is_empty() && self.events.is_empty()
    }

    /// The straggler windows.
    pub fn stragglers(&self) -> &[StragglerWindow] {
        &self.stragglers
    }

    /// The world events, sorted by iteration.
    pub fn events(&self) -> &[WorldEvent] {
        &self.events
    }

    /// The worst (largest) straggler multiplier active at `iter`, or 1.0
    /// when every rank is healthy. A bulk-synchronous collective moves at
    /// its slowest member's pace, so this single factor is what the whole
    /// collective is charged with — identically on every rank, which keeps
    /// SPMD cost accounting symmetric.
    pub fn straggler_factor(&self, iter: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|w| w.active_at(iter))
            .map(|w| w.multiplier)
            .fold(1.0, f64::max)
    }

    /// True while any straggler window is active — the signal the runtime
    /// controller uses to drop its hysteresis and shift to heavier
    /// compression immediately.
    pub fn degraded_at(&self, iter: usize) -> bool {
        self.straggler_factor(iter) > 1.0
    }

    /// World size in effect at `iter`, starting from `initial_world` (every
    /// event at an iteration `<= iter` has been applied).
    pub fn world_after(&self, initial_world: usize, iter: usize) -> usize {
        self.events
            .iter()
            .take_while(|e| e.iter() <= iter)
            .fold(initial_world, |w, e| e.world_after(w))
    }

    /// Final world size after every event.
    pub fn final_world(&self, initial_world: usize) -> usize {
        self.events
            .iter()
            .fold(initial_world, |w, e| e.world_after(w))
    }

    /// Structural validation; every builder panics on any error it
    /// returns.
    pub fn validate(&self) -> Result<(), String> {
        for w in &self.stragglers {
            if !(w.multiplier >= 1.0 && w.multiplier.is_finite()) {
                return Err(format!(
                    "straggler multiplier must be a finite slowdown (>= 1.0), got {}",
                    w.multiplier
                ));
            }
            if w.start_iter >= w.end_iter {
                return Err(format!(
                    "straggler window [{}, {}) is empty",
                    w.start_iter, w.end_iter
                ));
            }
        }
        let mut prev: Option<usize> = None;
        for e in &self.events {
            if e.iter() == 0 {
                return Err("world events cannot fire at iteration 0".into());
            }
            if let Some(p) = prev {
                if e.iter() <= p {
                    return Err(format!(
                        "world events must be strictly increasing in iteration (got {} after {p})",
                        e.iter()
                    ));
                }
            }
            if let WorldEvent::Resize { new_world: 0, .. } = e {
                return Err("resize target world must be at least 1".into());
            }
            prev = Some(e.iter());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The slowdown factor of one specific rank at `iter` (1.0 when that
    /// rank is healthy).
    fn rank_factor(plan: &FaultPlan, rank: usize, iter: usize) -> f64 {
        (plan.stragglers.iter())
            .filter(|w| w.rank == rank && w.active_at(iter))
            .map(|w| w.multiplier)
            .fold(1.0, f64::max)
    }

    #[test]
    fn none_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        assert_eq!(plan.straggler_factor(0), 1.0);
        assert_eq!(rank_factor(&plan, 3, 100), 1.0);
        assert!(!plan.degraded_at(5));
        assert_eq!(plan.world_after(4, 1000), 4);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn straggler_factor_takes_the_worst_active_window() {
        let plan = FaultPlan::none()
            .with_straggler(0, 2, 8, 4.0)
            .with_straggler(1, 5, 10, 16.0);
        assert_eq!(plan.straggler_factor(1), 1.0);
        assert_eq!(plan.straggler_factor(2), 4.0);
        assert_eq!(plan.straggler_factor(6), 16.0); // both active, worst wins
        assert_eq!(plan.straggler_factor(9), 16.0);
        assert_eq!(plan.straggler_factor(10), 1.0); // end is exclusive
        assert_eq!(rank_factor(&plan, 0, 6), 4.0);
        assert_eq!(rank_factor(&plan, 1, 6), 16.0);
        assert_eq!(rank_factor(&plan, 2, 6), 1.0);
    }

    #[test]
    fn world_follows_the_event_sequence() {
        let plan = FaultPlan::none()
            .with_rank_loss(5, 2)
            .with_resize(10, 6)
            .with_rank_loss(15, 0);
        assert_eq!(plan.world_after(4, 0), 4);
        assert_eq!(plan.world_after(4, 5), 3);
        assert_eq!(plan.world_after(4, 9), 3);
        assert_eq!(plan.world_after(4, 10), 6);
        assert_eq!(plan.world_after(4, 20), 5);
        assert_eq!(plan.final_world(4), 5);
        assert_eq!(plan.events().len(), 3);
    }

    #[test]
    fn degraded_network_scales_bandwidths_only() {
        let net = NetworkConfig::default();
        let slow = net.degraded(8.0);
        assert_eq!(slow.alltoall_bandwidth, net.alltoall_bandwidth / 8.0);
        assert_eq!(slow.allreduce_bandwidth, net.allreduce_bandwidth / 8.0);
        assert_eq!(slow.latency, net.latency);
        // Factor 1.0 is bit-for-bit the identity (x / 1.0 == x for every
        // finite x) — the FaultPlan::none() bit-identity guarantee.
        assert_eq!(net.degraded(1.0), net);
    }

    #[test]
    fn degraded_time_matches_the_multiplier_exactly() {
        // The straggler accounting contract: a factor-m straggler scales the
        // bandwidth term of every charge by exactly m.
        let net = NetworkConfig {
            alltoall_bandwidth: 1e9,
            allreduce_bandwidth: 2e9,
            latency: 0.0,
        };
        let base = net.cost_model();
        let slow = net.degraded(5.0).cost_model();
        assert_eq!(
            slow.alltoall_time(1_000_000, 500_000),
            5.0 * base.alltoall_time(1_000_000, 500_000)
        );
        assert_eq!(
            slow.allreduce_time(1_000_000, 4),
            5.0 * base.allreduce_time(1_000_000, 4)
        );
        assert_eq!(
            slow.bandwidth_time(123_456),
            5.0 * base.bandwidth_time(123_456)
        );
    }

    #[test]
    fn validation_rejects_nonsense() {
        let empty_window = FaultPlan {
            stragglers: vec![StragglerWindow {
                rank: 0,
                start_iter: 5,
                end_iter: 5,
                multiplier: 2.0,
            }],
            events: vec![],
        };
        assert!(empty_window.validate().is_err());
        let speedup = FaultPlan {
            stragglers: vec![StragglerWindow {
                rank: 0,
                start_iter: 0,
                end_iter: 5,
                multiplier: 0.5,
            }],
            events: vec![],
        };
        assert!(speedup.validate().is_err());
        let at_zero = FaultPlan {
            stragglers: vec![],
            events: vec![WorldEvent::RankLoss { iter: 0, rank: 0 }],
        };
        assert!(at_zero.validate().is_err());
        let colliding = FaultPlan {
            stragglers: vec![],
            events: vec![
                WorldEvent::RankLoss { iter: 5, rank: 0 },
                WorldEvent::Resize {
                    iter: 5,
                    new_world: 3,
                },
            ],
        };
        assert!(colliding.validate().is_err());
        let to_zero = FaultPlan {
            stragglers: vec![],
            events: vec![WorldEvent::Resize {
                iter: 5,
                new_world: 0,
            }],
        };
        assert!(to_zero.validate().is_err());
    }

    #[test]
    fn builders_keep_events_sorted() {
        let plan = FaultPlan::none()
            .with_resize(20, 6)
            .with_rank_loss(12, 1)
            .with_straggler(1, 4, 10, 8.0);
        let iters: Vec<usize> = plan.events().iter().map(WorldEvent::iter).collect();
        assert_eq!(iters, vec![12, 20]);
        assert!(plan.validate().is_ok());
    }
}
