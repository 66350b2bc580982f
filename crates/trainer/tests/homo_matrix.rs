//! Trainer-wide test matrix of the homomorphic dense-gradient all-reduce:
//! every combine-capable setting trains end to end across overlap ×
//! topology × executor with finite reports and combines actually recorded,
//! the lossless sum sketch is **bit-identical** to running with dense
//! compression off (the compressed-domain chain reproduces the rank-order
//! raw sum exactly), capability-off configs never combine, the threaded
//! executor is a pure rescheduling of the sequential baseline under
//! homomorphic compression, the zero-allocation steady state survives the
//! combine path, and at an equal error bound the homomorphic schedule
//! charges strictly less than the classic one.

use dlrm_comm::{NetworkConfig, Topology};
use dlrm_data::presets;
use dlrm_trainer::{
    run_training, CompressionSetting, DenseCompression, ExecutorSetting, OverlapSetting,
    TopologySetting, TrainerConfig, TrainingReport,
};

fn tiny_config(dense: DenseCompression, iterations: usize) -> TrainerConfig {
    let mut cfg = TrainerConfig::small_test(CompressionSetting::None);
    cfg.iterations = iterations;
    cfg.with_dense_compression(dense)
}

fn hier(nodes: usize, rpn: usize) -> TopologySetting {
    TopologySetting::Hierarchical(Topology::new(
        nodes,
        rpn,
        NetworkConfig::nvlink_intra_node(),
        NetworkConfig::paper_figure11(),
    ))
}

/// Bit-exact view of a report's numeric outcome (everything that must not
/// depend on timing, route or thread scheduling).
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

fn homomorphic_settings() -> Vec<DenseCompression> {
    vec![
        DenseCompression::lattice(1e-4),
        DenseCompression::lattice_ef(1e-4),
        DenseCompression::sum_sketch(),
    ]
}

#[test]
fn homomorphic_settings_train_across_overlap_topology_and_executor() {
    let dataset = presets::tiny();
    let iterations = 40;
    let shapes: Vec<(OverlapSetting, TopologySetting, ExecutorSetting)> = vec![
        (
            OverlapSetting::Off,
            TopologySetting::Flat,
            ExecutorSetting::Sequential,
        ),
        (
            OverlapSetting::DoubleBuffered,
            TopologySetting::Flat,
            ExecutorSetting::Sequential,
        ),
        (OverlapSetting::Off, hier(2, 2), ExecutorSetting::Sequential),
        (
            OverlapSetting::Off,
            TopologySetting::Flat,
            ExecutorSetting::Threaded,
        ),
        (
            OverlapSetting::DoubleBuffered,
            hier(2, 2),
            ExecutorSetting::Threaded,
        ),
    ];
    for dense in homomorphic_settings() {
        for (overlap, topo, exec) in &shapes {
            let cfg = tiny_config(dense.clone(), iterations)
                .with_overlap(*overlap)
                .with_topology(*topo)
                .with_executor(*exec);
            let report = run_training(&dataset, &cfg);
            let tag = format!(
                "{} / {} / {} / {}",
                dense.label(),
                overlap.label(),
                topo.label(),
                report.executor
            );
            assert_eq!(report.accuracy_curve.len(), iterations, "{tag}");
            assert!(
                report.final_metrics.loss < report.initial_metrics.loss,
                "{tag}: loss did not decrease: {} -> {}",
                report.initial_metrics.loss,
                report.final_metrics.loss
            );
            assert!(report.final_metrics.loss.is_finite(), "{tag}");
            assert!(report.final_metrics.auc.is_finite(), "{tag}");
            assert!(report.total_seconds.is_finite(), "{tag}");
            assert!(report.dense_ratio.is_finite(), "{tag}");
            assert!(report.homo_combine_seconds.is_finite(), "{tag}");
            assert!(report.homo_saved_seconds.is_finite(), "{tag}");
            // The combine path genuinely ran: owner shards folded encoded
            // contributions instead of decoding them.
            assert!(report.homo_combines > 0, "{tag}: no combines recorded");
            // Combining must not cost the steady state its zero-allocation
            // invariant.
            assert_eq!(
                report.steady_state_allocated_bytes, 0,
                "{tag}: steady state allocated"
            );
            if !matches!(topo, TopologySetting::Flat) {
                assert!(report.inter_tier_bytes > 0, "{tag}: no inter-tier bytes");
            }
        }
    }
}

#[test]
fn lossless_sum_sketch_is_bit_identical_to_dense_compression_off() {
    // The sketch's compressed-domain chain reproduces the rank-order raw
    // sum bit for bit, so training with it must be indistinguishable from
    // the uncompressed dense path in every numeric outcome — while actually
    // combining at owner shards.
    let dataset = presets::tiny();
    for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
        let off = run_training(
            &dataset,
            &tiny_config(DenseCompression::Off, 24).with_overlap(overlap),
        );
        let sketch = run_training(
            &dataset,
            &tiny_config(DenseCompression::sum_sketch(), 24).with_overlap(overlap),
        );
        assert_eq!(
            metric_bits(&off),
            metric_bits(&sketch),
            "{}: sketch diverged from the raw sum",
            overlap.label()
        );
        assert_eq!(off.homo_combines, 0, "{}", overlap.label());
        assert!(sketch.homo_combines > 0, "{}", overlap.label());
    }
}

#[test]
fn capability_off_configs_never_combine() {
    // `Off`, any `Compressed` arm — including the classic comparison arm of
    // the combine-capable lattice — must leave the combine counters at zero:
    // today's paths are untouched unless a config opts into `Homomorphic`.
    let dataset = presets::tiny();
    for dense in [
        DenseCompression::Off,
        DenseCompression::fp16(),
        DenseCompression::lattice_classic(1e-4),
    ] {
        let report = run_training(&dataset, &tiny_config(dense.clone(), 24));
        assert_eq!(report.homo_combines, 0, "{}", dense.label());
        assert_eq!(report.homo_combine_seconds, 0.0, "{}", dense.label());
        assert_eq!(report.homo_saved_seconds, 0.0, "{}", dense.label());
    }
    // The same codec with the capability on does combine — the only
    // difference between the two lattice arms is the owner-shard dataflow.
    let homo = run_training(&dataset, &tiny_config(DenseCompression::lattice(1e-4), 24));
    assert!(homo.homo_combines > 0);
}

#[test]
fn threaded_executor_is_bit_identical_under_homomorphic_compression() {
    let dataset = presets::tiny();
    for dense in homomorphic_settings() {
        let seq = run_training(&dataset, &tiny_config(dense.clone(), 24));
        let thr = run_training(
            &dataset,
            &tiny_config(dense.clone(), 24).with_executor(ExecutorSetting::Threaded),
        );
        assert_eq!(
            metric_bits(&seq),
            metric_bits(&thr),
            "{}: threading changed the numerics",
            dense.label()
        );
        assert_eq!(seq.homo_combines, thr.homo_combines, "{}", dense.label());
    }
}

#[test]
fn homomorphic_strictly_beats_classic_at_equal_error_bound() {
    // At the same bound, folding encoded shards drops P-1 owner-shard
    // decodes and the re-encode from the bill and adds only the cheaper
    // combine. Analytic device throughputs put that codec work on the bill,
    // and a slow all-reduce link with compute scaled far down makes the
    // dense exchange dominate.
    let dataset = presets::tiny();
    let run = |dense| {
        let mut cfg = tiny_config(dense, 12);
        cfg.network = NetworkConfig::allreduce_bound(5e7);
        cfg.device_throughput = Some((0.5e9, 2e9));
        cfg.compute_time_scale = 1.0 / 5000.0;
        run_training(&dataset, &cfg)
    };
    let modeled = |r: &TrainingReport| {
        r.breakdown.seconds(dlrm_comm::phase::ALLREDUCE)
            + r.breakdown.seconds(dlrm_comm::phase::COMBINE)
    };
    let classic = run(DenseCompression::lattice_classic(1e-4));
    let homo = run(DenseCompression::lattice(1e-4));
    assert_eq!(classic.homo_combines, 0);
    assert!(homo.homo_combines > 0);
    assert!(
        modeled(&homo) < modeled(&classic),
        "homomorphic {} >= classic {}",
        modeled(&homo),
        modeled(&classic)
    );
    assert!(homo.homo_saved_seconds > 0.0);
    // Same codec, same bound: the wire ratio does not move.
    assert!((homo.dense_ratio - classic.dense_ratio).abs() < 1e-9);
}
