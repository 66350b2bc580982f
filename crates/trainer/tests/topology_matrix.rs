//! Trainer-wide test matrix of the node-aware hierarchical topology:
//! hierarchical runs are bit-identical to flat runs in everything numeric
//! (the topology changes the route and the modeled time, never the data),
//! `TopologySetting::Flat` reproduces the topology-less trainer's reports
//! bit for bit, tier accounting is recorded exactly when a hierarchy is
//! configured, the zero-allocation steady state survives the hierarchical
//! route, at a fixed world the modeled time falls strictly as more ranks
//! share a node, and fabric traffic vanishes when a single node holds them
//! all.

use dlrm_comm::phase as phases;
use dlrm_comm::{NetworkConfig, Topology};
use dlrm_compress::CompressorKind;
use dlrm_data::presets;
use dlrm_trainer::{
    run_training, CompressionSetting, DenseCompression, OverlapSetting, TopologySetting,
    TrainerConfig, TrainingReport,
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

/// Bit-exact view of a report's numeric outcome (everything that must not
/// depend on the route the bytes took).
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
fn hierarchical_topology_never_changes_numerics() {
    // The tentpole headline: for every compression mode and every cluster
    // shape — the degenerate nodes == 1 and ranks_per_node == 1 included —
    // the hierarchical route delivers bit-identical training to flat.
    let dataset = presets::tiny();
    let iterations = 24;
    for setting in [
        CompressionSetting::None,
        CompressionSetting::Fp16,
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
    ] {
        let flat = run_training(&dataset, &tiny_config(setting.clone(), iterations));
        for topo in [hier(2, 2), hier(1, 4), hier(4, 1)] {
            let label = format!("{} / {}", flat.label, topo.label());
            let report = run_training(
                &dataset,
                &tiny_config(setting.clone(), iterations).with_topology(topo),
            );
            assert_eq!(
                metric_bits(&flat),
                metric_bits(&report),
                "{label}: topology changed the numerics"
            );
            assert_eq!(
                flat.overall_ratio.to_bits(),
                report.overall_ratio.to_bits(),
                "{label}"
            );
            assert_eq!(flat.per_table, report.per_table, "{label}");
            // Both routes write byte-identical chunks, so each rank sends
            // the same bytes per iteration.
            assert_eq!(
                flat.a2a_sent_per_iter, report.a2a_sent_per_iter,
                "{label}: the routes wrote different chunks"
            );
        }
    }
}

#[test]
fn hierarchical_topology_composes_with_overlap_and_dense_compression() {
    let dataset = presets::tiny();
    let base = tiny_config(
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        24,
    )
    .with_dense_compression(DenseCompression::fp16_ef());
    let flat = run_training(&dataset, &base.clone());
    for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
        let report = run_training(
            &dataset,
            &base.clone().with_topology(hier(2, 2)).with_overlap(overlap),
        );
        assert_eq!(
            metric_bits(&flat),
            metric_bits(&report),
            "{}: hier + {} changed the numerics",
            report.label,
            overlap.label()
        );
        // Dense compression still reports a sane wire ratio and a bounded
        // residual through the tiered collective.
        assert!(
            (report.dense_ratio - 2.0).abs() < 0.1,
            "{}",
            report.dense_ratio
        );
        assert!(report.dense_residual_norm.is_finite());
        assert!(report.final_metrics.loss < report.initial_metrics.loss);
        if overlap.is_enabled() {
            assert!(report.overlap_saved_seconds >= 0.0);
        } else {
            assert_eq!(report.overlap_saved_seconds, 0.0);
        }
    }
}

#[test]
fn topology_setting_flat_reproduces_todays_reports_bit_for_bit() {
    // Satellite acceptance: an explicit `TopologySetting::Flat` takes
    // exactly the topology-less code path — numerics AND the deterministic
    // virtual-time charges (the measured codec/compute phases are the only
    // run-to-run variation, so the comparison pins the virtual phases).
    let dataset = presets::tiny();
    let mut untouched = tiny_config(CompressionSetting::Fp16, 16);
    untouched.topology = TopologySetting::default();
    let explicit = untouched.clone().with_topology(TopologySetting::Flat);
    let a = run_training(&dataset, &untouched);
    let b = run_training(&dataset, &explicit);
    assert_eq!(metric_bits(&a), metric_bits(&b));
    for phase in [phases::FWD_A2A, phases::BWD_A2A, phases::ALLREDUCE] {
        assert_eq!(
            a.breakdown.seconds(phase).to_bits(),
            b.breakdown.seconds(phase).to_bits(),
            "virtual charge of {phase:?} drifted"
        );
        assert_eq!(a.breakdown.bytes(phase), b.breakdown.bytes(phase));
    }
    assert_eq!(a.topology, "flat");
    // Flat runs record no tier accounting at all.
    for r in [&a, &b] {
        assert_eq!(r.intra_tier_bytes, 0);
        assert_eq!(r.inter_tier_bytes, 0);
        assert_eq!(r.intra_tier_seconds, 0.0);
        assert_eq!(r.inter_tier_seconds, 0.0);
    }
}

#[test]
fn hierarchical_runs_record_tier_accounting() {
    let dataset = presets::tiny();
    let report = run_training(
        &dataset,
        &tiny_config(CompressionSetting::Fp16, 8).with_topology(hier(2, 2)),
    );
    assert_eq!(report.topology, "2x2");
    // A 2×2 shape has traffic on both tiers, in bytes and in seconds.
    assert!(report.intra_tier_bytes > 0);
    assert!(report.inter_tier_bytes > 0);
    assert!(report.intra_tier_seconds > 0.0);
    assert!(report.inter_tier_seconds > 0.0);
    // Per rank, the sequential network-phase charges ARE the tier times, so
    // the merged totals sit in the same ballpark — but the two merges
    // maximise over ranks differently (per phase vs per tier), so no strict
    // inequality holds between them in general. Sanity-check magnitude only.
    let network = report.breakdown.seconds(phases::FWD_A2A)
        + report.breakdown.seconds(phases::BWD_A2A)
        + report.breakdown.seconds(phases::ALLREDUCE);
    let tiers = report.intra_tier_seconds + report.inter_tier_seconds;
    assert!(
        network > 0.0 && tiers > 0.0 && network <= tiers * report.world as f64,
        "tier accounting ({tiers}) wildly inconsistent with phase charges ({network})"
    );

    // Single-node hierarchy: everything is intra, nothing crosses a fabric.
    let single = run_training(
        &dataset,
        &tiny_config(CompressionSetting::Fp16, 8).with_topology(hier(1, 4)),
    );
    assert!(single.intra_tier_bytes > 0);
    assert_eq!(single.inter_tier_bytes, 0);
    assert_eq!(single.inter_tier_seconds, 0.0);
}

#[test]
fn zero_allocation_steady_state_survives_the_hierarchical_route() {
    let dataset = presets::tiny();
    for setting in [
        CompressionSetting::None,
        CompressionSetting::Fp16,
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
    ] {
        let label = setting.label();
        let mut cfg = tiny_config(setting, 12).with_topology(hier(2, 2));
        cfg.global_batch = 64;
        let report = run_training(&dataset, &cfg);
        assert_eq!(
            report.steady_state_allocated_bytes, 0,
            "{label}: hierarchical steady state allocated {} bytes",
            report.steady_state_allocated_bytes
        );
        assert!(
            report.buffer_reused_bytes > 0,
            "{label}: reuse counters never moved"
        );
    }
}

/// World 8 with `rpn` ranks per node over a slow, high-latency fabric with
/// NVLink-class nodes, paper GPU codec throughputs and compute scaled far
/// down.
fn sweep_run(rpn: usize) -> TrainingReport {
    let inter = NetworkConfig {
        alltoall_bandwidth: 5e7,
        allreduce_bandwidth: 5e7,
        latency: 20e-6,
    };
    let mut cfg = tiny_config(
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        3,
    )
    .with_topology(TopologySetting::Hierarchical(Topology::new(
        8 / rpn,
        rpn,
        NetworkConfig::nvlink_intra_node(),
        inter,
    )));
    cfg.world = 8;
    cfg.global_batch = 256;
    cfg.learning_rate = 0.05;
    cfg.network = inter;
    cfg.device_throughput = Some((40.5e9, 205.4e9));
    cfg.compute_time_scale = 1.0 / 5000.0;
    run_training(&presets::tiny(), &cfg)
}

#[test]
fn modeled_time_falls_strictly_as_ranks_per_node_grow() {
    // Packing more ranks per node keeps more traffic on the fast tier, so
    // the total and the network phases both fall at every step.
    let mut totals = Vec::new();
    let mut network = Vec::new();
    for rpn in [1, 2, 4, 8] {
        let report = sweep_run(rpn);
        totals.push(report.total_seconds);
        network.push(
            report.breakdown.seconds(phases::FWD_A2A)
                + report.breakdown.seconds(phases::BWD_A2A)
                + report.breakdown.seconds(phases::ALLREDUCE),
        );
    }
    assert!(
        totals.windows(2).all(|w| w[1] < w[0]),
        "total seconds not strictly decreasing: {totals:?}"
    );
    assert!(
        network.windows(2).all(|w| w[1] < w[0]),
        "network seconds not strictly decreasing: {network:?}"
    );
}

#[test]
fn fabric_traffic_vanishes_at_a_single_node() {
    // One rank per node: everything crosses the fabric. One node: nothing
    // does.
    let spread = sweep_run(1);
    let packed = sweep_run(8);
    assert!(spread.inter_tier_bytes > 0);
    assert_eq!(spread.intra_tier_bytes, 0);
    assert_eq!(packed.inter_tier_bytes, 0);
    assert!(packed.intra_tier_bytes > 0);
}
