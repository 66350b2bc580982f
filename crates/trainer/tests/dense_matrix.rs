//! Trainer-wide test matrix of the compressed dense-gradient all-reduce:
//! every `DenseCompression` setting × overlap on/off trains end to end with
//! finite reports, `Off` is bit-for-bit the pre-compression path (pinned via
//! the lossless identity codec, which the comm-level tests pin to the
//! full-replication reference), fp16 with error feedback converges within
//! tolerance of uncompressed while its residual stays bounded, and the
//! zero-allocation steady state survives with dense compression enabled.

use dlrm_compress::CompressorKind;
use dlrm_data::presets;
use dlrm_grad::GradCodecKind;
use dlrm_trainer::{
    run_training, CompressionSetting, DenseCompression, OverlapSetting, TrainerConfig,
    TrainingReport,
};

/// Every dense-compression mode the pipeline supports.
fn all_dense_settings() -> Vec<DenseCompression> {
    vec![
        DenseCompression::Off,
        DenseCompression::identity(),
        DenseCompression::fp16(),
        DenseCompression::fp16_ef(),
        DenseCompression::Compressed {
            codec: GradCodecKind::Fp8,
            error_feedback: true,
        },
        DenseCompression::Compressed {
            codec: GradCodecKind::ErrorBounded {
                compressor: CompressorKind::SzLike,
                error_bound: 1e-4,
            },
            error_feedback: true,
        },
        DenseCompression::top_k_ef(0.25),
        // Homomorphic kinds run both ways: combine suppressed (classic
        // owner-shard decode → reduce → re-encode) and combine enabled.
        DenseCompression::lattice_classic(1e-4),
        DenseCompression::lattice_ef(1e-4),
        DenseCompression::sum_sketch(),
    ]
}

fn tiny_config(dense: DenseCompression, iterations: usize) -> TrainerConfig {
    let mut cfg = TrainerConfig::small_test(CompressionSetting::None);
    cfg.iterations = iterations;
    cfg.with_dense_compression(dense)
}

/// Bit-exact view of a report's numeric outcome (everything that must not
/// depend on timing or thread scheduling).
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
fn every_dense_setting_trains_with_and_without_overlap() {
    let dataset = presets::tiny();
    let iterations = 60;
    for dense in all_dense_settings() {
        for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
            let cfg = tiny_config(dense.clone(), iterations).with_overlap(overlap);
            let report = run_training(&dataset, &cfg);
            let tag = format!("{} / {}", report.dense_compression, overlap.label());
            assert_eq!(report.accuracy_curve.len(), iterations, "{tag}");
            assert_eq!(report.dense_compression, dense.label(), "{tag}");
            assert!(
                report.final_metrics.loss < report.initial_metrics.loss,
                "{tag}: loss did not decrease: {} -> {}",
                report.initial_metrics.loss,
                report.final_metrics.loss
            );
            assert!(report.final_metrics.loss.is_finite(), "{tag}");
            assert!(report.final_metrics.accuracy.is_finite(), "{tag}");
            assert!(report.final_metrics.auc.is_finite(), "{tag}");
            assert!(report.total_seconds.is_finite(), "{tag}");
            assert!(report.dense_ratio.is_finite(), "{tag}");
            assert!(report.dense_saved_seconds.is_finite(), "{tag}");
            assert!(report.dense_residual_norm.is_finite(), "{tag}");
            for m in &report.accuracy_curve {
                assert!(m.loss.is_finite() && m.auc.is_finite(), "{tag}");
            }
            match &dense {
                DenseCompression::Off => {
                    assert!((report.dense_ratio - 1.0).abs() < 1e-12, "{tag}");
                    assert_eq!(report.dense_saved_seconds, 0.0, "{tag}");
                    assert_eq!(report.dense_residual_norm, 0.0, "{tag}");
                }
                DenseCompression::Compressed { codec, .. } => {
                    // Identity moves the same bytes; every lossy codec must
                    // genuinely shrink the wire and save modelled time.
                    if matches!(codec, GradCodecKind::Identity) {
                        assert!((report.dense_ratio - 1.0).abs() < 0.01, "{tag}");
                    } else {
                        assert!(
                            report.dense_ratio > 1.5,
                            "{tag}: dense ratio {}",
                            report.dense_ratio
                        );
                        assert!(
                            report.dense_saved_seconds > 0.0,
                            "{tag}: nothing saved on the dense wire"
                        );
                    }
                    // The classic arm never combines, even for kinds that
                    // could.
                    assert_eq!(report.homo_combines, 0, "{tag}");
                }
                DenseCompression::Homomorphic { codec, .. } => {
                    assert!(report.homo_combines > 0, "{tag}: no combines recorded");
                    if matches!(codec, GradCodecKind::Lattice { .. }) {
                        assert!(
                            report.dense_ratio > 1.5,
                            "{tag}: dense ratio {}",
                            report.dense_ratio
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn dense_off_is_bit_for_bit_the_uncompressed_path() {
    // `Off` runs the plain all-reduce whose rank-order summation is pinned
    // to the pre-PR full-replication reference by the comm-level tests;
    // routing the same gradients through the compressed collective with the
    // lossless identity codec must not move a single bit — proving the
    // reduce-scatter + all-gather schedule itself is exact, for both
    // overlap modes.
    let dataset = presets::tiny();
    for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
        let off = run_training(
            &dataset,
            &tiny_config(DenseCompression::Off, 24).with_overlap(overlap),
        );
        let identity = run_training(
            &dataset,
            &tiny_config(DenseCompression::identity(), 24).with_overlap(overlap),
        );
        assert_eq!(
            metric_bits(&off),
            metric_bits(&identity),
            "{}: identity-compressed dense path changed the numerics",
            overlap.label()
        );
        // And two Off runs are reproducible bit for bit.
        let off2 = run_training(
            &dataset,
            &tiny_config(DenseCompression::Off, 24).with_overlap(overlap),
        );
        assert_eq!(metric_bits(&off), metric_bits(&off2));
    }
}

#[test]
fn dense_compression_composes_with_embedding_compression() {
    // Both knobs at once: lossy embedding all-to-all AND compressed dense
    // all-reduce, overlapped — the full paper pipeline plus the new dense
    // subsystem.
    let dataset = presets::tiny();
    let mut cfg =
        TrainerConfig::small_test(CompressionSetting::fixed(0.02, CompressorKind::OursHybrid));
    cfg.iterations = 60;
    let cfg = cfg
        .with_overlap(OverlapSetting::DoubleBuffered)
        .with_dense_compression(DenseCompression::fp16_ef());
    let report = run_training(&dataset, &cfg);
    assert!(report.final_metrics.loss < report.initial_metrics.loss);
    assert!(report.overall_ratio > 1.5);
    assert!(report.dense_ratio > 1.5);
    assert!(report.dense_residual_norm.is_finite());
}

#[test]
fn fp16_with_error_feedback_matches_uncompressed_within_tolerance() {
    let dataset = presets::tiny();
    let iterations = 80;
    let baseline = run_training(&dataset, &tiny_config(DenseCompression::Off, iterations));
    let ef = run_training(
        &dataset,
        &tiny_config(DenseCompression::fp16_ef(), iterations),
    );
    // EF convergence: the compressed run must land within tolerance of the
    // uncompressed run, both in loss and accuracy.
    let loss_gap = (baseline.final_metrics.loss - ef.final_metrics.loss).abs();
    assert!(
        loss_gap < 0.05,
        "fp16+EF final loss {} vs baseline {} (gap {loss_gap})",
        ef.final_metrics.loss,
        baseline.final_metrics.loss
    );
    let acc_gap = (baseline.final_metrics.accuracy - ef.final_metrics.accuracy).abs();
    assert!(acc_gap < 0.08, "accuracy gap {acc_gap} too large");
    // The residual is the fp16 rounding error of one gradient — bounded far
    // below the gradient scale, and strictly positive (fp16 is lossy).
    assert!(ef.dense_residual_norm > 0.0);
    assert!(
        ef.dense_residual_norm < 1.0,
        "residual norm {} diverged",
        ef.dense_residual_norm
    );
}

#[test]
fn top_k_needs_error_feedback_and_its_residual_stays_bounded() {
    let dataset = presets::tiny();
    let iterations = 80;
    let ef = run_training(
        &dataset,
        &tiny_config(DenseCompression::top_k_ef(0.25), iterations),
    );
    // Top-k sends 25% of elements: EF must still learn.
    assert!(
        ef.final_metrics.loss < ef.initial_metrics.loss,
        "top-k with EF failed to learn"
    );
    // The residual holds the unsent mass; bounded, not exploding.
    assert!(ef.dense_residual_norm > 0.0);
    assert!(
        ef.dense_residual_norm < 10.0,
        "top-k residual norm {} diverged",
        ef.dense_residual_norm
    );
    // And the wire ratio reflects the sparsification (~2x at 25% kept,
    // since each kept element costs index + value).
    assert!(
        ef.dense_ratio > 1.7,
        "top-k dense ratio {} unexpectedly low",
        ef.dense_ratio
    );
}

#[test]
fn analytic_codec_charge_counts_each_element_encoded_once() {
    // Under a device-throughput override, the dense codec is charged
    // analytically: every element is encoded exactly once per rank (the
    // all-gather shard is encoded once, not once per peer), so the charge
    // must match `flat_len / tc` plus the decode terms — not the wire
    // volume. With a slow analytic compressor the charge dominates, so the
    // total ALLREDUCE time pins the formula.
    use dlrm_comm::phase as phases;
    let dataset = presets::tiny();
    let mut base = tiny_config(DenseCompression::fp16_ef(), 4);
    // Infinitely fast network + decompression, slow compression: the
    // ALLREDUCE charge reduces to iterations · flat_bytes / tc.
    base.network = dlrm_comm::NetworkConfig::infinite();
    let tc = 1e6;
    base.device_throughput = Some((tc, 1e15));
    let with_codec = run_training(&dataset, &base);
    let mut free = base.clone();
    free.device_throughput = Some((1e15, 1e15));
    let without_codec = run_training(&dataset, &free);
    let charged = with_codec.breakdown.seconds(phases::ALLREDUCE)
        - without_codec.breakdown.seconds(phases::ALLREDUCE);
    // flat gradient bytes per iteration, recoverable from the raw traffic:
    // the ledger's ALLREDUCE bytes are one rank's wire volume (max-merged),
    // sent + received, i.e. 4·(P−1)/P · flat_bytes per iteration before
    // compression.
    let world = base.world as f64;
    let iters = base.iterations as f64;
    let raw_per_rank_per_iter =
        with_codec.dense_ratio * with_codec.breakdown.bytes(phases::ALLREDUCE) as f64 / iters;
    let flat_bytes = raw_per_rank_per_iter / (4.0 * (world - 1.0) / world);
    let expected = iters * flat_bytes / tc;
    let rel = (charged - expected).abs() / expected;
    assert!(
        rel < 0.05,
        "analytic encode charge {charged} vs expected {expected} (rel {rel}): \
         each element must be charged exactly one encode"
    );
}

/// Bit patterns of every charge the dense stage makes: ALLREDUCE and
/// COMBINE seconds and bytes, the dense ratio, the saved seconds, the
/// combine count and the inter-tier bytes.
fn dense_charges(report: &TrainingReport) -> [u64; 9] {
    use dlrm_comm::phase as phases;
    [
        report.breakdown.seconds(phases::ALLREDUCE).to_bits(),
        report.breakdown.bytes(phases::ALLREDUCE),
        report.breakdown.seconds(phases::COMBINE).to_bits(),
        report.breakdown.bytes(phases::COMBINE),
        report.dense_ratio.to_bits(),
        report.dense_saved_seconds.to_bits(),
        report.homo_combines,
        report.homo_saved_seconds.to_bits(),
        report.inter_tier_bytes,
    ]
}

/// [`dense_charges`] per dense setting × topology, captured before the
/// dense stage's three arms were merged into one.
#[rustfmt::skip]
const DENSE_CHARGES: &[(&str, [u64; 9])] = &[
    ("dense-fp32 / flat", [0x3f4005293d43b5eb, 0x0000000000022c50, 0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    ("dense-fp32 / 2x2", [0x3f1478ae77ad21c0, 0x0000000000022c50, 0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x000000000008dd80]),
    ("dense-fp16 / flat", [0x3f4458abd7789125, 0x0000000000011820, 0x0000000000000000, 0x0000000000000000, 0x3fffc66593bc9ff4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    ("dense-fp16 / 2x2", [0x3f2bb905230c3ff0, 0x0000000000011820, 0x0000000000000000, 0x0000000000000000, 0x3fffc66593bc9ff4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x000000000005fd60]),
    ("dense-homo-lattice-eb0.0001 / flat", [0x3f43c33958c4c5cb, 0x0000000000011868, 0x3e7349e81ed30793, 0x000000000000462c, 0x3fffbe3bdb8533c4, 0x0000000000000000, 0x0000000000000048, 0x3ef29c3b2b30eafc, 0x0000000000000000]),
    ("dense-homo-lattice-eb0.0001 / 2x2", [0x3f296897243ba201, 0x00000000000190f8, 0x3e79b1474f88ee37, 0x0000000000005d78, 0x3fff7893064f13a2, 0x0000000000000000, 0x0000000000000048, 0x3ef29905d5622bec, 0x0000000000048db0]),
    ("dense-lattice-eb0.0001 / flat", [0x3f4458b5815f43bb, 0x0000000000011868, 0x0000000000000000, 0x0000000000000000, 0x3fffbe3bdb8533c4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    ("dense-lattice-eb0.0001 / 2x2", [0x3f2bb91f980a1b36, 0x0000000000011868, 0x0000000000000000, 0x0000000000000000, 0x3fffbe3bdb8533c4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x000000000005fe20]),
    ("dense-homo-sumsketch / flat", [0x3f43e871bb509aef, 0x0000000000022db8, 0x3e93fb4e59432c14, 0x0000000000008b92, 0x3fefec5d657007c0, 0x0000000000000000, 0x0000000000000048, 0x3ef25f97d9eab153, 0x0000000000000000]),
    ("dense-homo-sumsketch / 2x2", [0x3f29d2682ffdbe43, 0x000000000003199e, 0x3e9a9d893f0dc4d5, 0x000000000000b9e8, 0x3fefc8e8de1a517d, 0x0000000000000000, 0x0000000000000048, 0x3ef271004f2e8714, 0x000000000005ff40]),
];

#[test]
fn dense_stage_charges_are_pinned() {
    // Every charge is analytic under a device-throughput override, so the
    // bit patterns are stable run to run.
    use dlrm_comm::{NetworkConfig, Topology};
    use dlrm_trainer::TopologySetting;
    let dataset = presets::tiny();
    let hier = TopologySetting::Hierarchical(Topology::new(
        2,
        2,
        NetworkConfig::nvlink_intra_node(),
        NetworkConfig::paper_figure11(),
    ));
    let mut rows = Vec::new();
    for dense in [
        DenseCompression::Off,
        DenseCompression::fp16(),
        DenseCompression::lattice(1e-4),
        DenseCompression::lattice_classic(1e-4),
        DenseCompression::sum_sketch(),
    ] {
        for topo in [TopologySetting::Flat, hier] {
            let mut cfg = tiny_config(dense.clone(), 6).with_topology(topo);
            cfg.device_throughput = Some((0.5e9, 2e9));
            let report = run_training(&dataset, &cfg);
            let tag = format!("{} / {}", dense.label(), topo.label());
            rows.push((tag, dense_charges(&report)));
        }
    }
    for ((tag, got), (want_tag, want)) in rows.iter().zip(DENSE_CHARGES) {
        assert_eq!(
            (tag.as_str(), got),
            (*want_tag, want),
            "dense charges moved"
        );
    }
    assert_eq!(
        rows.len(),
        DENSE_CHARGES.len(),
        "dense charge table size; computed:\n{}",
        rows.iter()
            .map(|(tag, c)| {
                let c: Vec<String> = c.iter().map(|v| format!("{v:#018x}")).collect();
                format!("    ({tag:?}, [{}]),", c.join(", "))
            })
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn zero_allocation_steady_state_survives_dense_compression() {
    // Acceptance: steady_state_allocated_bytes == 0 with dense compression
    // enabled, across codecs and both overlap modes.
    let dataset = presets::tiny();
    for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
        for dense in [
            DenseCompression::identity(),
            DenseCompression::fp16_ef(),
            DenseCompression::top_k_ef(0.25),
            DenseCompression::Compressed {
                codec: GradCodecKind::ErrorBounded {
                    compressor: CompressorKind::SzLike,
                    error_bound: 1e-4,
                },
                error_feedback: true,
            },
        ] {
            let label = format!("{} / {}", dense.label(), overlap.label());
            let mut cfg = tiny_config(dense, 12).with_overlap(overlap);
            cfg.global_batch = 64;
            let report = run_training(&dataset, &cfg);
            assert_eq!(
                report.steady_state_allocated_bytes, 0,
                "{label}: steady state allocated {} bytes",
                report.steady_state_allocated_bytes
            );
            assert!(
                report.buffer_reused_bytes > 0,
                "{label}: reuse counters never moved"
            );
        }
    }
}
