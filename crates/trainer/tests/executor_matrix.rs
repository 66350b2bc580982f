//! Executor determinism matrix: the thread-per-rank executor must be a pure
//! rescheduling of the sequential baseline. For every combination of
//! compression × overlap × topology × adaptive control (including the
//! runtime closed-loop controller under a drifting bandwidth trace), the
//! same seed must produce **bit-identical** numerics under
//! `ExecutorSetting::Sequential` and `ExecutorSetting::Threaded` — loss,
//! accuracy and AUC bits, per-table compression stats, reselection
//! decisions, window ratios, dense-path stats and tier byte counts. Only
//! wall-clock fields may differ between executors.

use dlrm_adaptive::CodecProfile;
use dlrm_comm::{phase as phases, BandwidthTrace, NetworkConfig, Topology};
use dlrm_compress::CompressorKind;
use dlrm_data::presets;
use dlrm_trainer::{
    plan, run_training, AdaptiveSetting, CompressionSetting, ExecutorSetting, OverlapSetting,
    TopologySetting, TrainerConfig, TrainingReport,
};

fn tiny_config(compression: CompressionSetting, iterations: usize) -> TrainerConfig {
    let mut cfg = TrainerConfig::small_test(compression);
    cfg.iterations = iterations;
    cfg
}

fn hier(nodes: usize, rpn: usize) -> TopologySetting {
    TopologySetting::Hierarchical(Topology::new(
        nodes,
        rpn,
        NetworkConfig::nvlink_intra_node(),
        NetworkConfig::paper_figure11(),
    ))
}

/// Everything in a report that must not depend on how ranks were scheduled.
/// Floats are compared by bit pattern; modeled and wall timing fields are
/// deliberately excluded (wall time is real time and differs per run).
fn numeric_fingerprint(report: &TrainingReport) -> impl PartialEq + std::fmt::Debug {
    (
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
            .collect::<Vec<_>>(),
        report.per_table.clone(),
        report.overall_ratio.to_bits(),
        report.reselections.clone(),
        report
            .window_ratios
            .iter()
            .map(|r| r.to_bits())
            .collect::<Vec<_>>(),
        (
            report.dense_ratio.to_bits(),
            report.dense_residual_norm.to_bits(),
        ),
        (report.intra_tier_bytes, report.inter_tier_bytes),
    )
}

/// The input feed never spilled, and every step after the first was drawn
/// inside a backward exchange window: the ranks stayed in step, and the
/// prefetch always found the slot of the step before last free.
fn assert_feed_prefetched(tag: &str, report: &TrainingReport) {
    assert_eq!(
        (report.feed_spills, report.prefetched_steps),
        (0, report.iterations as u64 - 1),
        "{tag} / {}: (feed spills, prefetched steps)",
        report.executor
    );
}

/// Run the same configuration under both executors and assert bit-identity.
fn assert_executor_invariant(dataset_tag: &str, cfg: TrainerConfig) {
    let dataset = presets::tiny();
    let seq = run_training(
        &dataset,
        &cfg.clone().with_executor(ExecutorSetting::Sequential),
    );
    let thr = run_training(&dataset, &cfg.with_executor(ExecutorSetting::Threaded));
    assert_eq!(seq.executor, "sequential", "{dataset_tag}");
    assert_eq!(thr.executor, "threaded", "{dataset_tag}");
    for report in [&seq, &thr] {
        assert_feed_prefetched(dataset_tag, report);
    }
    assert_eq!(
        numeric_fingerprint(&seq),
        numeric_fingerprint(&thr),
        "{dataset_tag}: executors disagree on numerics"
    );
}

#[test]
fn executors_agree_across_compression_and_overlap() {
    let iterations = 12;
    let dataset = presets::tiny();
    let adaptive_plan = plan::paper_default_plan(&dataset, 6, 6, 4e9, 7)
        .expect("offline analysis succeeds on synthetic traffic");
    let settings = vec![
        CompressionSetting::None,
        CompressionSetting::Fp16,
        CompressionSetting::Fp8,
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        CompressionSetting::Adaptive(adaptive_plan),
    ];
    for setting in settings {
        for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
            let cfg = tiny_config(setting.clone(), iterations).with_overlap(overlap);
            let tag = format!("{} / {}", setting.label(), overlap.label());
            assert_executor_invariant(&tag, cfg);
        }
    }
}

#[test]
fn executors_agree_on_hierarchical_topology() {
    for (nodes, rpn) in [(2, 2), (4, 1)] {
        let cfg = tiny_config(
            CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
            10,
        )
        .with_topology(hier(nodes, rpn))
        .with_overlap(OverlapSetting::DoubleBuffered);
        assert_executor_invariant(&format!("hier {nodes}x{rpn}"), cfg);
    }
}

#[test]
fn executors_agree_with_runtime_controller_under_drift() {
    // The runtime controller reselects plans from measured window state; a
    // pinned codec profile keeps those measurements scheduling-independent,
    // so the decision sequence itself must be bit-identical too.
    let iterations = 16;
    let cfg = tiny_config(
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        iterations,
    )
    .with_adaptive(AdaptiveSetting::runtime(4, 0.1))
    .with_bandwidth_trace(BandwidthTrace::step(
        NetworkConfig::alltoall_bound(60e9),
        NetworkConfig::alltoall_bound(5e8),
        iterations / 2,
    ))
    .with_codec_profile(CodecProfile::paper_reference());
    assert_executor_invariant("runtime controller + drift", cfg);
}

#[test]
fn executors_agree_under_realtime_wire() {
    // Wire pacing moves wall time, never numerics: even with real sleeps in
    // the exchange path the two executors must agree bit for bit, and both
    // must report a positive wall measurement.
    let dataset = presets::tiny();
    let mut cfg = tiny_config(
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        6,
    )
    .with_overlap(OverlapSetting::DoubleBuffered)
    .with_realtime_wire(true);
    cfg.network = NetworkConfig::alltoall_bound(5e6);
    let seq = run_training(
        &dataset,
        &cfg.clone().with_executor(ExecutorSetting::Sequential),
    );
    let thr = run_training(&dataset, &cfg.with_executor(ExecutorSetting::Threaded));
    assert_eq!(numeric_fingerprint(&seq), numeric_fingerprint(&thr));
    for r in [&seq, &thr] {
        assert_feed_prefetched("paced", r);
        assert!(
            r.wall_seconds > 0.0 && r.wall_seconds.is_finite(),
            "{}",
            r.executor
        );
        assert!(r.modeled_vs_wall_ratio > 0.0, "{}", r.executor);
        // The wall phase buckets must account for some real time.
        let bucket_sum: f64 = r.wall_phase_seconds.phases().iter().map(|(_, s)| s).sum();
        assert!(bucket_sum > 0.0, "{}: empty wall buckets", r.executor);
    }
}

#[test]
fn paced_allreduce_rides_its_own_link() {
    // At 100 KB/s the dense all-reduce's ≈ 12 KB per rank per iteration
    // would take ≈ 120 ms paced at the all-to-all bandwidth; on its own
    // 8 GB/s link its wire time is well under a millisecond, and what the
    // wall bucket keeps is waiting for the slowest rank. The mirror network
    // puts the slow bandwidth under the all-reduce, where its wall must show.
    let dataset = presets::tiny();
    let iterations = 4;
    let slow = 1e5;
    for (network, allreduce_is_slow) in [
        (NetworkConfig::alltoall_bound(slow), false),
        (NetworkConfig::allreduce_bound(slow), true),
    ] {
        let mut cfg = tiny_config(CompressionSetting::None, iterations)
            .with_executor(ExecutorSetting::Threaded)
            .with_realtime_wire(true);
        cfg.network = network;
        let paced = run_training(&dataset, &cfg);
        let instant = run_training(&dataset, &cfg.with_realtime_wire(false));
        assert_eq!(numeric_fingerprint(&paced), numeric_fingerprint(&instant));
        for r in [&paced, &instant] {
            assert_feed_prefetched("paced all-reduce", r);
        }
        // The ledger's ALLREDUCE bytes are one rank's sent + received.
        let sent_per_iter =
            paced.breakdown.bytes(phases::ALLREDUCE) as f64 / (2.0 * iterations as f64);
        let wall_per_iter = paced.wall_phase_seconds.seconds(phases::ALLREDUCE) / iterations as f64;
        if allreduce_is_slow {
            let floor = 0.5 * sent_per_iter / network.allreduce_bandwidth;
            assert!(
                wall_per_iter >= floor,
                "all-reduce on a slow link took {wall_per_iter}s/iter, under {floor}s"
            );
        } else {
            let at_a2a_pace = sent_per_iter / network.alltoall_bandwidth;
            assert!(at_a2a_pace >= 0.05, "sized too small: {at_a2a_pace}s");
            assert!(
                wall_per_iter < 0.25 * at_a2a_pace,
                "all-reduce took {wall_per_iter}s/iter: paced at the a2a link ({at_a2a_pace}s)"
            );
        }
    }
}

#[test]
fn threaded_is_the_default_and_reports_zero_wall_ratio_without_pacing() {
    // Instant wire: wall time is measured but the modeled/wall ratio is
    // only meaningful under pacing — it must still be finite and the
    // executor label must reflect the default.
    let dataset = presets::tiny();
    let cfg = tiny_config(CompressionSetting::None, 4);
    let report = run_training(&dataset, &cfg);
    assert_eq!(report.executor, "threaded");
    assert!(report.wall_seconds > 0.0);
    assert!(report.modeled_vs_wall_ratio.is_finite());
}
