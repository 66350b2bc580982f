//! Trainer-wide fault-and-elasticity matrix: every scheduled fault shape
//! (straggler, rank loss with checkpointed recovery, live resize) trains end
//! to end under both executors with compression on and off, the empty fault
//! plan is bit-identical to running without one, straggler degradation
//! charges the wire exactly as a statically degraded `NetworkConfig` would,
//! the zero-allocation steady state survives segmented runs, the runtime
//! controller reselects while a straggler is active, and a run recovered
//! from a compressed checkpoint lands next to the no-fault run.

use dlrm_adaptive::CodecProfile;
use dlrm_ckpt::CheckpointSpec;
use dlrm_comm::phase as phases;
use dlrm_comm::{FaultPlan, NetworkConfig, Topology};
use dlrm_compress::CompressorKind;
use dlrm_data::presets;
use dlrm_grad::GradCodecKind;
use dlrm_trainer::{
    run_training, AdaptiveSetting, CompressionSetting, ExecutorSetting, FaultSetting,
    TopologySetting, TrainerConfig, TrainingReport,
};

const ITERS: usize = 24;
const WORLD: usize = 4;

/// Base configuration of the matrix: small, deterministic, modeled wire.
fn base_config(compression: CompressionSetting, executor: ExecutorSetting) -> TrainerConfig {
    let mut cfg = TrainerConfig::small_test(compression);
    cfg.world = WORLD;
    // Divisible by every world the scenarios visit (3 after the loss, 5
    // after the resize): uneven shards would break the zero-allocation
    // steady state — the pool warm-up only covers the payload sizes it saw.
    cfg.global_batch = 120;
    cfg.iterations = ITERS;
    cfg.learning_rate = 0.05;
    cfg.executor = executor;
    cfg.network = NetworkConfig::alltoall_bound(1e9);
    cfg.compute_time_scale = 1.0 / 5000.0;
    cfg
}

/// Compressed-checkpoint policy the world-event scenarios restore from.
fn ckpt_spec() -> CheckpointSpec {
    CheckpointSpec::new(
        4,
        GradCodecKind::ErrorBounded {
            compressor: CompressorKind::OursHybrid,
            error_bound: 1e-3,
        },
    )
}

/// The three fault shapes of the matrix.
fn scenarios() -> Vec<(&'static str, FaultSetting)> {
    vec![
        (
            "straggler",
            FaultSetting::new(FaultPlan::none().with_straggler(1, ITERS / 3, 2 * ITERS / 3, 8.0)),
        ),
        (
            "rank-loss",
            FaultSetting::new(FaultPlan::none().with_rank_loss(ITERS / 2, WORLD - 1))
                .with_checkpoint(ckpt_spec()),
        ),
        (
            "resize",
            FaultSetting::new(FaultPlan::none().with_resize(ITERS / 2, WORLD + 1))
                .with_checkpoint(ckpt_spec()),
        ),
    ]
}

/// Bit-exact view of a report's numeric outcome.
fn metric_bits(report: &TrainingReport) -> Vec<(u64, u64, u64, usize)> {
    report
        .accuracy_curve
        .iter()
        .map(|m| {
            (
                m.loss.to_bits(),
                m.accuracy.to_bits(),
                m.auc.to_bits(),
                m.samples,
            )
        })
        .collect()
}

#[test]
fn every_fault_shape_trains_under_both_executors_and_compression_modes() {
    let dataset = presets::tiny();
    for executor in [ExecutorSetting::Sequential, ExecutorSetting::Threaded] {
        for compression in [
            CompressionSetting::None,
            CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        ] {
            for (name, fault) in scenarios() {
                let mut cfg = base_config(compression.clone(), executor);
                cfg.fault = Some(fault);
                let report = run_training(&dataset, &cfg);
                let tag = format!("{name} / {} / {}", report.label, report.executor);
                assert_eq!(report.accuracy_curve.len(), ITERS, "{tag}");
                // It learns.
                assert!(
                    report.final_metrics.loss < report.initial_metrics.loss,
                    "{tag}: loss did not decrease: {} -> {}",
                    report.initial_metrics.loss,
                    report.final_metrics.loss
                );
                // Every reported number is finite.
                assert!(report.final_metrics.loss.is_finite(), "{tag}");
                assert!(report.total_seconds.is_finite(), "{tag}");
                assert!(report.overall_ratio.is_finite(), "{tag}");
                assert!(report.checkpoint_ratio.is_finite(), "{tag}");
                assert!(report.recovery_seconds.is_finite(), "{tag}");
                assert!(report.checkpoint_write_seconds >= 0.0, "{tag}");
                for m in &report.accuracy_curve {
                    assert!(m.loss.is_finite() && m.auc.is_finite(), "{tag}");
                }
                // The steady state allocates nothing outside recovery
                // boundaries: each segment's warm-up is excluded, and the
                // checkpoint/restore scratch lives outside the pooled
                // buffers the counters audit.
                assert_eq!(
                    report.steady_state_allocated_bytes, 0,
                    "{tag}: steady state allocated {} bytes",
                    report.steady_state_allocated_bytes
                );
                match name {
                    "straggler" => {
                        assert_eq!(report.final_world, WORLD, "{tag}");
                        assert_eq!(report.checkpoints_taken, 0, "{tag}");
                    }
                    "rank-loss" => {
                        assert_eq!(report.final_world, WORLD - 1, "{tag}");
                        assert!(report.checkpoints_taken > 0, "{tag}");
                        assert!(report.checkpoint_ratio > 1.0, "{tag}");
                        assert!(report.recovery_iterations > 0, "{tag}");
                        assert!(report.recovery_seconds > 0.0, "{tag}");
                    }
                    "resize" => {
                        assert_eq!(report.final_world, WORLD + 1, "{tag}");
                        assert!(report.checkpoints_taken > 0, "{tag}");
                        assert_eq!(report.recovery_iterations, 0, "{tag}");
                    }
                    _ => unreachable!(),
                }
            }
        }
    }
}

#[test]
fn empty_fault_plan_is_bit_identical_to_no_fault_config() {
    let dataset = presets::tiny();
    for executor in [ExecutorSetting::Sequential, ExecutorSetting::Threaded] {
        let plain = base_config(
            CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
            executor,
        );
        let mut none_plan = plain.clone();
        none_plan.fault = Some(FaultSetting::new(FaultPlan::none()));
        let a = run_training(&dataset, &plain);
        let b = run_training(&dataset, &none_plan);
        assert_eq!(
            metric_bits(&a),
            metric_bits(&b),
            "{executor:?}: FaultPlan::none() changed the numerics"
        );
        assert_eq!(a.per_table, b.per_table);
        assert_eq!(a.overall_ratio.to_bits(), b.overall_ratio.to_bits());
        // The modeled wire charges are identical too — the healthy plan
        // must not even rebuild the cost model.
        for phase in [phases::FWD_A2A, phases::BWD_A2A, phases::ALLREDUCE] {
            assert_eq!(
                a.breakdown.seconds(phase).to_bits(),
                b.breakdown.seconds(phase).to_bits(),
                "{executor:?}: modeled {phase} time diverged"
            );
            assert_eq!(a.breakdown.bytes(phase), b.breakdown.bytes(phase));
        }
        assert_eq!(b.breakdown.seconds(phases::CHECKPOINT), 0.0);
        assert_eq!(b.checkpoints_taken, 0);
        assert_eq!(b.fault, "none");
    }
}

#[test]
fn full_run_straggler_charges_exactly_like_a_degraded_network() {
    // A straggler multiplier m active over the whole run must hit the
    // modeled wire bit-for-bit like statically dividing the bandwidths by m:
    // the per-iteration degraded rebuild goes through the same
    // `NetworkConfig::degraded` the static path would.
    let dataset = presets::tiny();
    let m = 8.0;
    // A bandwidth-bound link, so the multiplier shows up in the charged
    // seconds rather than drowning in the latency term.
    let link = NetworkConfig::alltoall_bound(5e7);
    let mut faulted = base_config(
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        ExecutorSetting::Threaded,
    );
    faulted.network = link;
    faulted.fault = Some(FaultSetting::new(
        FaultPlan::none().with_straggler(1, 0, ITERS, m),
    ));
    let mut degraded = base_config(
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        ExecutorSetting::Threaded,
    );
    degraded.network = link.degraded(m);
    let a = run_training(&dataset, &faulted);
    let b = run_training(&dataset, &degraded);
    assert_eq!(metric_bits(&a), metric_bits(&b), "numerics diverged");
    for phase in [phases::FWD_A2A, phases::BWD_A2A, phases::ALLREDUCE] {
        assert_eq!(
            a.breakdown.seconds(phase).to_bits(),
            b.breakdown.seconds(phase).to_bits(),
            "modeled {phase} time diverged"
        );
        assert_eq!(a.breakdown.bytes(phase), b.breakdown.bytes(phase));
    }
    // And the multiplier genuinely slows the modeled wire vs healthy.
    let mut healthy = base_config(
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        ExecutorSetting::Threaded,
    );
    healthy.network = link;
    let h = run_training(&dataset, &healthy);
    let slow = a.breakdown.seconds(phases::FWD_A2A) + a.breakdown.seconds(phases::BWD_A2A);
    let fast = h.breakdown.seconds(phases::FWD_A2A) + h.breakdown.seconds(phases::BWD_A2A);
    assert!(
        slow > fast * 2.0,
        "straggler barely slowed the wire: {slow} vs healthy {fast}"
    );
}

#[test]
fn straggler_degrades_only_the_inter_tier_of_a_hierarchical_topology() {
    // Node-aware path: the straggler multiplies the *inter-node* wire time
    // exactly as the tiered cost model predicts, leaving the intra tier
    // untouched — identical to statically degrading the inter link.
    let dataset = presets::tiny();
    let m = 6.0;
    let intra = NetworkConfig::nvlink_intra_node();
    let inter = NetworkConfig::alltoall_bound(5e8);
    let shape = |inter: NetworkConfig| Topology::new(2, 2, intra, inter);
    let mut faulted = base_config(
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        ExecutorSetting::Threaded,
    );
    faulted.world = 4;
    faulted.global_batch = 64;
    faulted.topology = TopologySetting::Hierarchical(shape(inter));
    faulted.fault = Some(FaultSetting::new(
        FaultPlan::none().with_straggler(0, 0, ITERS, m),
    ));
    let mut degraded = faulted.clone();
    degraded.fault = None;
    degraded.topology = TopologySetting::Hierarchical(shape(inter.degraded(m)));
    let a = run_training(&dataset, &faulted);
    let b = run_training(&dataset, &degraded);
    assert_eq!(metric_bits(&a), metric_bits(&b), "numerics diverged");
    assert_eq!(
        a.inter_tier_seconds.to_bits(),
        b.inter_tier_seconds.to_bits(),
        "inter-tier time diverged from the statically degraded link"
    );
    assert_eq!(
        a.intra_tier_seconds.to_bits(),
        b.intra_tier_seconds.to_bits(),
        "intra tier was touched by an inter-tier straggler"
    );
    assert_eq!(a.intra_tier_bytes, b.intra_tier_bytes);
    assert_eq!(a.inter_tier_bytes, b.inter_tier_bytes);
}

/// A fixed-EB lossy run on `codec` over a healthy 2 GB/s fabric with
/// analytic per-codec throughputs (a very fast cheap cast against a slow
/// heavy codec) and compute scaled far down, so the deterministic wire +
/// codec schedule drives the controller.
fn profiled_config(codec: CompressorKind, adaptive: AdaptiveSetting) -> TrainerConfig {
    let mut cfg = TrainerConfig::small_test(CompressionSetting::fixed(0.05, codec))
        .with_adaptive(adaptive)
        .with_codec_profile(
            CodecProfile::paper_reference()
                .with(CompressorKind::Fp16, 200e9, 200e9)
                .with(CompressorKind::OursHybrid, 2e9, 10e9)
                .with(CompressorKind::FzLike, 1e9, 1e9),
        );
    cfg.world = WORLD;
    cfg.iterations = ITERS;
    cfg.learning_rate = 0.05;
    cfg.network = NetworkConfig::alltoall_bound(2e9);
    cfg.compute_time_scale = 1.0 / 50_000.0;
    cfg
}

#[test]
fn controller_reselects_while_the_straggler_is_active() {
    // The healthy fabric wants the cheap cast; rank 1's links run 10x
    // slower over the middle third, where Equation 2 flips to the heavy
    // codec.
    let dataset = presets::tiny();
    let cfg = profiled_config(CompressorKind::Fp16, AdaptiveSetting::runtime(3, 0.1)).with_fault(
        FaultSetting::new(FaultPlan::none().with_straggler(1, ITERS / 3, 2 * ITERS / 3, 10.0)),
    );
    let report = run_training(&dataset, &cfg);
    assert!(
        report
            .reselections
            .iter()
            .any(|r| r.degraded && !r.switches.is_empty()),
        "no degraded-window codec switch: {:?}",
        report.reselections
    );
}

#[test]
fn rank_loss_recovery_lands_within_tolerance_of_the_no_fault_run() {
    // The restore is lossy (error-bounded sections) and the replay runs on
    // a re-sharded world, so the trajectories are close but not equal.
    const LOSS_TOLERANCE: f64 = 0.1;
    let dataset = presets::tiny();
    let baseline = run_training(
        &dataset,
        &profiled_config(CompressorKind::OursHybrid, AdaptiveSetting::Static),
    );
    let loss = run_training(
        &dataset,
        &profiled_config(CompressorKind::OursHybrid, AdaptiveSetting::Static).with_fault(
            FaultSetting::new(FaultPlan::none().with_rank_loss(ITERS / 2, WORLD - 1))
                .with_checkpoint(ckpt_spec()),
        ),
    );
    assert!(loss.recovery_iterations > 0, "nothing was replayed");
    let drift = (loss.final_metrics.loss - baseline.final_metrics.loss).abs();
    assert!(
        drift <= LOSS_TOLERANCE * baseline.final_metrics.loss.abs(),
        "recovered run drifted from the no-fault run: {} vs {}",
        loss.final_metrics.loss,
        baseline.final_metrics.loss
    );
}
