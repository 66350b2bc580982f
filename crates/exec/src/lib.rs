//! # dlrm-exec
//!
//! The real-time execution backend: a thread-per-rank executor that runs an
//! SPMD closure (such as `trainer::pipeline::run_rank`) over `dlrm-comm`'s
//! [`ChannelFabric`](dlrm_comm::ChannelFabric) and measures how long it
//! *actually* takes, wall-clock, alongside whatever virtual time the
//! closure's own ledger models.
//!
//! Two execution modes, same numerics:
//!
//! * [`ExecMode::Threaded`] — every rank free-runs on its own OS thread.
//!   Codec work on one rank genuinely overlaps another rank's in-flight
//!   payload (and, on a multi-core host, other ranks' compute).
//! * [`ExecMode::Sequential`] — the same threads take turns under a
//!   [`SerialGate`](dlrm_comm::SerialGate): at most one rank makes progress
//!   at any instant. This is the honest single-core baseline a threaded
//!   speedup must be measured against.
//!
//! Because every `(src, dst)` pair has its own FIFO channel, collectives use
//! fixed rotation schedules, and reductions accumulate in rank order, the
//! two modes produce **bit-identical** results — the executor changes when
//! work happens, never what it computes. The trainer's executor test matrix
//! asserts this across compression × overlap × topology × adaptive
//! settings.
//!
//! Wall-clock numbers only mean something when the wire costs wall-clock
//! time, so the executor can pace message delivery by the α–β model
//! ([`WirePolicy::Modeled`](dlrm_comm::WirePolicy)): each message becomes
//! deliverable `latency + bytes/bandwidth` after its sender's egress queue
//! frees up, enforced with real sleeps. Each link class
//! ([`Link`](dlrm_comm::Link)) has its own egress queue and its own
//! bandwidth: the all-to-alls ride `alltoall_bandwidth`, the dense
//! all-reduce `allreduce_bandwidth`, as the ledger charges them. Under
//! `Threaded`, a sleeping
//! receiver yields its core to other ranks — wire time hides behind codec
//! time exactly as the paper's overlap pipeline intends. Under
//! `Sequential`, the pacing sleep holds the serial token — nothing hides,
//! which is what makes the baseline honest.

use dlrm_comm::fabric::{run_on_mesh, GatePolicy, WirePolicy};
use dlrm_comm::{NetworkConfig, RankCtx};
use std::time::Instant;

/// How rank closures are scheduled. See the crate docs for the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Ranks take turns under a serial gate — the single-core baseline.
    Sequential,
    /// Ranks free-run, one OS thread each — the real-time executor.
    #[default]
    Threaded,
}

impl ExecMode {
    /// Stable lowercase label for reports and experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::Sequential => "sequential",
            ExecMode::Threaded => "threaded",
        }
    }

    /// The gate policy this mode maps to on the fabric.
    pub fn gate_policy(&self) -> GatePolicy {
        match self {
            ExecMode::Sequential => GatePolicy::Serialized,
            ExecMode::Threaded => GatePolicy::FreeRunning,
        }
    }

    /// Whether a trace recorded under this mode should use the deterministic
    /// modeled clock. The serialized gate makes a rank's virtual-time ledger
    /// a pure function of the data, so modeled timestamps reproduce run to
    /// run; free-running threads are only meaningful against a real clock.
    pub fn deterministic_clock(&self) -> bool {
        matches!(self, ExecMode::Sequential)
    }
}

/// A configured thread-per-rank executor: world size, network, scheduling
/// mode, and wire policy.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    world: usize,
    network: NetworkConfig,
    mode: ExecMode,
    wire: WirePolicy,
}

/// What an [`Executor::run`] produced: the per-rank results (rank order)
/// and the spawn-to-join wall-clock seconds of the whole execution.
#[derive(Debug)]
pub struct ExecRun<T> {
    /// Per-rank closure results, in rank order.
    pub results: Vec<T>,
    /// Wall-clock seconds from first spawn to last join.
    pub wall_seconds: f64,
}

impl Executor {
    /// Executor with the default policies: [`ExecMode::Threaded`] over an
    /// instant wire.
    ///
    /// # Panics
    /// Panics if `world == 0`.
    pub fn new(world: usize, network: NetworkConfig) -> Self {
        assert!(world > 0, "executor needs at least one rank");
        Self {
            world,
            network,
            mode: ExecMode::default(),
            wire: WirePolicy::default(),
        }
    }

    /// Select the scheduling mode.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Select the wire policy. [`WirePolicy::Modeled`] makes wire time real
    /// (paced sleeps), which is required for meaningful wall-vs-modeled
    /// comparisons.
    pub fn with_wire(mut self, wire: WirePolicy) -> Self {
        self.wire = wire;
        self
    }

    /// Number of ranks this executor spawns.
    pub fn world(&self) -> usize {
        self.world
    }

    /// The scheduling mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The wire policy.
    pub fn wire(&self) -> WirePolicy {
        self.wire
    }

    /// Run `f` on every rank under this executor's policies and measure the
    /// spawn-to-join wall time.
    ///
    /// # Panics
    /// Panics if any rank's closure panics (the panic is propagated).
    pub fn run<T, F>(&self, f: F) -> ExecRun<T>
    where
        T: Send + 'static,
        F: Fn(RankCtx) -> T + Send + Sync + 'static,
    {
        let t0 = Instant::now();
        let results = run_on_mesh(
            self.world,
            self.network,
            self.mode.gate_policy(),
            self.wire,
            f,
        );
        ExecRun {
            results,
            wall_seconds: t0.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature overlap pipeline: every rank alternates "codec work"
    /// (a real spin) with an all-to-all whose payloads cost real wire time.
    fn spin_and_exchange(ctx: RankCtx, rounds: usize, payload: usize, spin_us: u64) -> u64 {
        let mut acc = 0u64;
        for round in 0..rounds {
            // Real codec-like compute; its duration must not leak into the
            // result (the executor promises identical numerics, not timing).
            let t0 = Instant::now();
            let mut burn = 0u64;
            while t0.elapsed().as_micros() < spin_us as u128 {
                burn = burn.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(burn);
            let mut send: Vec<_> = (0..ctx.world())
                .map(|d| {
                    ctx.pool()
                        .adopt(vec![(ctx.rank() + d + round) as u8; payload])
                })
                .collect();
            let mut recv = Vec::new();
            ctx.all_to_all_pooled(&mut send, &mut recv);
            for (src, chunk) in recv.iter().enumerate() {
                acc = acc
                    .wrapping_mul(31)
                    .wrapping_add(chunk[0] as u64 + (src * chunk.len()) as u64);
            }
        }
        acc
    }

    #[test]
    fn modes_produce_identical_results() {
        let run = |mode| {
            Executor::new(4, NetworkConfig::infinite())
                .with_mode(mode)
                .run(|ctx| spin_and_exchange(ctx, 3, 64, 50))
        };
        let threaded = run(ExecMode::Threaded);
        let sequential = run(ExecMode::Sequential);
        assert_eq!(threaded.results, sequential.results);
        assert!(threaded.wall_seconds > 0.0 && threaded.wall_seconds.is_finite());
        assert!(sequential.wall_seconds > 0.0 && sequential.wall_seconds.is_finite());
    }

    #[test]
    fn threaded_hides_modeled_wire_time_that_sequential_exposes() {
        // 40 KB per payload at 1 MB/s ≈ 40 ms on the wire per message; the
        // serial gate exposes those delays while the free-running threads
        // sleep them off concurrently — a structural gap, not scheduler
        // luck, so this holds even on a single-core host.
        let network = NetworkConfig {
            alltoall_bandwidth: 1e6,
            allreduce_bandwidth: 1e6,
            latency: 0.0,
        };
        let run = |mode| {
            Executor::new(4, network)
                .with_mode(mode)
                .with_wire(WirePolicy::Modeled)
                .run(|ctx| spin_and_exchange(ctx, 2, 10_000, 200))
        };
        let threaded = run(ExecMode::Threaded);
        let sequential = run(ExecMode::Sequential);
        assert_eq!(threaded.results, sequential.results);
        assert!(
            threaded.wall_seconds < sequential.wall_seconds,
            "threaded {}s did not beat sequential {}s",
            threaded.wall_seconds,
            sequential.wall_seconds
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ExecMode::Sequential.label(), "sequential");
        assert_eq!(ExecMode::Threaded.label(), "threaded");
        assert_eq!(ExecMode::default(), ExecMode::Threaded);
    }
}
