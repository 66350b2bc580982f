//! Trainer-wide test matrix of the overlapped chunked all-to-all: every
//! `CompressionSetting` variant × overlap on/off trains end to end,
//! numerics are bit-identical across overlap modes and repeated runs,
//! overlap strictly reduces modelled time when the wire can hide codec
//! work, the zero-allocation steady state survives the double-buffered
//! pipeline, and the warm-up allocation counters are reproducible.

use dlrm_comm::phase as phases;
use dlrm_comm::{NetworkConfig, SimCluster, Topology};
use dlrm_compress::CompressorKind;
use dlrm_data::{presets, BatchFeed};
use dlrm_trainer::pipeline::{run_rank, RankSetup, SegmentSpec};
use dlrm_trainer::{
    plan, run_training, CompressionSetting, ExecutorSetting, ObsSetting, OverlapSetting,
    TablePartition, TopologySetting, TrainerConfig, TrainingReport,
};
use std::sync::Arc;

/// Every compression mode the pipeline supports, Adaptive included.
fn all_settings(iterations: usize) -> Vec<CompressionSetting> {
    let dataset = presets::tiny();
    let adaptive = plan::paper_default_plan(
        &dataset,
        iterations / 2,
        iterations - iterations / 2,
        4e9,
        7,
    )
    .expect("offline analysis succeeds on synthetic traffic");
    vec![
        CompressionSetting::None,
        CompressionSetting::Fp16,
        CompressionSetting::Fp8,
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        CompressionSetting::Adaptive(adaptive),
    ]
}

fn tiny_config(compression: CompressionSetting, iterations: usize) -> TrainerConfig {
    let mut cfg = TrainerConfig::small_test(compression);
    cfg.iterations = iterations;
    cfg
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
fn every_compression_setting_trains_with_and_without_overlap() {
    let dataset = presets::tiny();
    let iterations = 60;
    for setting in all_settings(iterations) {
        for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
            let cfg = tiny_config(setting.clone(), iterations).with_overlap(overlap);
            let report = run_training(&dataset, &cfg);
            let tag = format!("{} / {}", report.label, overlap.label());
            assert_eq!(report.accuracy_curve.len(), iterations, "{tag}");
            assert_eq!(report.overlap, overlap, "{tag}");
            // Loss improves first-vs-last quarter (single iterations are too
            // noisy to compare).
            assert!(
                report.final_metrics.loss < report.initial_metrics.loss,
                "{tag}: loss did not decrease: {} -> {}",
                report.initial_metrics.loss,
                report.final_metrics.loss
            );
            // Every reported number is finite.
            assert!(report.final_metrics.loss.is_finite(), "{tag}");
            assert!(report.final_metrics.accuracy.is_finite(), "{tag}");
            assert!(report.final_metrics.auc.is_finite(), "{tag}");
            assert!(report.total_seconds.is_finite(), "{tag}");
            assert!(report.overall_ratio.is_finite(), "{tag}");
            assert!(report.overlap_saved_seconds >= 0.0, "{tag}");
            for m in &report.accuracy_curve {
                assert!(m.loss.is_finite() && m.auc.is_finite(), "{tag}");
            }
            // Sequential runs must not record hidden time.
            if !overlap.is_enabled() {
                assert_eq!(report.overlap_saved_seconds, 0.0, "{tag}");
            }
        }
    }
}

#[test]
fn same_seed_and_config_reproduce_metrics_bit_for_bit() {
    let dataset = presets::tiny();
    for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
        let cfg = tiny_config(
            CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
            24,
        )
        .with_overlap(overlap);
        let a = run_training(&dataset, &cfg);
        let b = run_training(&dataset, &cfg);
        assert_eq!(
            metric_bits(&a),
            metric_bits(&b),
            "{}: two identical runs diverged",
            overlap.label()
        );
        assert_eq!(a.overall_ratio.to_bits(), b.overall_ratio.to_bits());
        assert_eq!(a.per_table, b.per_table);
    }
}

#[test]
fn overlap_changes_timing_but_not_numerics() {
    let dataset = presets::tiny();
    for setting in all_settings(24) {
        let base = tiny_config(setting, 24);
        let seq = run_training(&dataset, &base.clone().with_overlap(OverlapSetting::Off));
        let ovl = run_training(&dataset, &base.with_overlap(OverlapSetting::DoubleBuffered));
        assert_eq!(
            metric_bits(&seq),
            metric_bits(&ovl),
            "{}: overlap changed the numerics",
            seq.label
        );
        assert_eq!(seq.overall_ratio.to_bits(), ovl.overall_ratio.to_bits());
        assert_eq!(seq.per_table, ovl.per_table);
    }
}

/// Timing-dominant configuration: analytic codec throughput and a slow link,
/// so the modelled comm/codec time dwarfs this machine's (scaled-down)
/// measured compute and the overlap saving is deterministic.
fn timing_config(compression: CompressionSetting) -> TrainerConfig {
    TrainerConfig {
        world: 4,
        global_batch: 256,
        iterations: 6,
        learning_rate: 0.05,
        compression,
        overlap: OverlapSetting::Off,
        dense_compression: Default::default(),
        network: NetworkConfig::alltoall_bound(5e7),
        topology: Default::default(),
        adaptive: Default::default(),
        bandwidth_trace: None,
        fault: None,
        codec_profile: None,
        executor: ExecutorSetting::Threaded,
        realtime_wire: false,
        obs: ObsSetting::Off,
        seed: 20_240_614,
        device_throughput: Some((0.5e9, 2e9)),
        compute_time_scale: 1.0 / 5000.0,
    }
}

#[test]
fn overlap_strictly_reduces_modelled_time_for_multiple_codecs() {
    let dataset = presets::tiny();
    for kind in [CompressorKind::OursHybrid, CompressorKind::FzLike] {
        // Both totals carry measured compute. Scaled to nothing, it leaves
        // only the analytic codec and wire charges, so a loaded machine's
        // compute noise cannot outgrow the overlap saving.
        let mut base = timing_config(CompressionSetting::fixed(0.02, kind));
        base.compute_time_scale = f64::MIN_POSITIVE;
        let seq = run_training(&dataset, &base.clone());
        let ovl = run_training(&dataset, &base.with_overlap(OverlapSetting::DoubleBuffered));
        assert!(
            ovl.overlap_saved_seconds > 0.0,
            "{}: nothing was hidden",
            ovl.label
        );
        assert!(
            ovl.total_seconds < seq.total_seconds,
            "{}: overlapped {} >= sequential {}",
            ovl.label,
            ovl.total_seconds,
            seq.total_seconds
        );
        // The hidden time is codec time: it reappears as the gap between the
        // un-overlapped cost (seconds + overlap_saved) and the charged cost.
        let a2a = ovl.breakdown.seconds(phases::FWD_A2A) + ovl.breakdown.seconds(phases::BWD_A2A);
        let saved = ovl.breakdown.overlap_saved(phases::FWD_A2A)
            + ovl.breakdown.overlap_saved(phases::BWD_A2A);
        assert!(a2a > 0.0);
        assert!((saved - ovl.overlap_saved_seconds).abs() < 1e-12);
    }
}

/// A 2 × 2 hierarchy over `timing_config`'s slow link.
fn hier_2x2() -> TopologySetting {
    TopologySetting::Hierarchical(Topology::new(
        2,
        2,
        NetworkConfig::nvlink_intra_node(),
        NetworkConfig::alltoall_bound(5e7),
    ))
}

/// Bit patterns of both all-to-all phases' charges: seconds, bytes and
/// overlap-saved seconds, forward then backward.
fn a2a_charges(report: &TrainingReport) -> [u64; 6] {
    let b = &report.breakdown;
    [
        b.seconds(phases::FWD_A2A).to_bits(),
        b.bytes(phases::FWD_A2A),
        b.overlap_saved(phases::FWD_A2A).to_bits(),
        b.seconds(phases::BWD_A2A).to_bits(),
        b.bytes(phases::BWD_A2A),
        b.overlap_saved(phases::BWD_A2A).to_bits(),
    ]
}

/// [`a2a_charges`] per compression × topology × overlap, at
/// `timing_config`'s analytic throughputs. Captured while the flat
/// sequential exchange still ran a separate metadata round: its rows were
/// re-pinned once when it went, each all-to-all second lower by exactly one
/// α per exchange. The forward columns were re-pinned once more when owners
/// began sending each distinct row once: forward bytes fell on every row,
/// the backward columns stayed. The backward columns were re-pinned once
/// when shards began sending one summed gradient row per distinct index:
/// under fp32 and fp16 the backward bytes now equal the forward bytes, and
/// the forward columns stayed. The byte and second columns were re-pinned
/// once when the chunks moved to the shared varint payload frame
/// (`dlrm_comm::frame`): fewer header bytes per chunk and block. The flat
/// rows were re-pinned once when flat chunks dropped their 16-byte header:
/// 576 B less per direction (16 B × 3 peers × sent + received × 6
/// iterations), 5.76 µs less (48 B per exchange at 50 MB/s, six
/// iterations), and the lossy rows' `overlap_saved` with that wire time;
/// the 2x2 rows stayed.
#[rustfmt::skip]
const A2A_CHARGES: &[(&str, [u64; 6])] = &[
    ("fp32-baseline / flat / sequential", [0x3f47fc20218890de, 0x000000000000bdd4, 0x0000000000000000, 0x3f47fc20218890de, 0x000000000000bdd4, 0x0000000000000000]),
    ("fp32-baseline / flat / overlapped", [0x3f47fc20218890de, 0x000000000000bdd4, 0x0000000000000000, 0x3f47fc20218890de, 0x000000000000bdd4, 0x0000000000000000]),
    ("fp32-baseline / 2x2 / sequential", [0x3f3c9ceac522e4d2, 0x0000000000016904, 0x0000000000000000, 0x3f3c9d550e625148, 0x0000000000016904, 0x0000000000000000]),
    ("fp32-baseline / 2x2 / overlapped", [0x3f3c9ceac522e4d2, 0x0000000000016904, 0x0000000000000000, 0x3f3c9d550e625148, 0x0000000000016904, 0x0000000000000000]),
    ("fp16 / flat / sequential", [0x3f391900acf91ce3, 0x0000000000005fa4, 0x0000000000000000, 0x3f391900acf91ce3, 0x0000000000005fa4, 0x0000000000000000]),
    ("fp16 / flat / overlapped", [0x3f360d7750b33a9a, 0x0000000000005fa4, 0x3f085c4ae22f1244, 0x3f3865b010b20782, 0x0000000000005fa4, 0x3f0477dc2f9645a6]),
    ("fp16 / 2x2 / sequential", [0x3f2fbe44ca637ebe, 0x000000000000b80c, 0x0000000000000000, 0x3f2fbeaf13a2eb32, 0x000000000000b80c, 0x0000000000000000]),
    ("fp16 / 2x2 / overlapped", [0x3f2c2f1850a457fc, 0x000000000000b80c, 0x3f085c4ae22f1241, 0x3f2e580ddb14c074, 0x000000000000b80c, 0x3efd20102f91d7c2]),
    ("lossy-ours-hybrid-eb0.02 / flat / sequential", [0x3f26260725b92220, 0x00000000000023ca, 0x0000000000000000, 0x3f0f29e6d93d737f, 0x00000000000008dd, 0x0000000000000000]),
    ("lossy-ours-hybrid-eb0.02 / flat / overlapped", [0x3f21f894c085b072, 0x00000000000023ca, 0x3f00d2d253646db1, 0x3f098f61f704c87f, 0x00000000000008dd, 0x3ef20e7563af51e8]),
    ("lossy-ours-hybrid-eb0.02 / 2x2 / sequential", [0x3f1a754ca7a59fa2, 0x0000000000004a89, 0x0000000000000000, 0x3f105921e8966540, 0x00000000000015c1, 0x0000000000000000]),
    ("lossy-ours-hybrid-eb0.02 / 2x2 / overlapped", [0x3f135631ea305f21, 0x0000000000004a89, 0x3f04a1a5d1fc8190, 0x3f0b19cce13de262, 0x00000000000015c1, 0x3ef1de26f9147d28]),
];

#[test]
fn a2a_charges_are_pinned() {
    let dataset = presets::tiny();
    let mut rows = Vec::new();
    for compression in [
        CompressionSetting::None,
        CompressionSetting::Fp16,
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
    ] {
        for topo in [TopologySetting::Flat, hier_2x2()] {
            for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
                let cfg = timing_config(compression.clone())
                    .with_topology(topo)
                    .with_overlap(overlap);
                let report = run_training(&dataset, &cfg);
                let tag = format!("{} / {} / {}", report.label, topo.label(), overlap.label());
                rows.push((tag, a2a_charges(&report)));
            }
        }
    }
    let computed = rows
        .iter()
        .map(|(tag, c)| {
            let c: Vec<String> = c.iter().map(|v| format!("{v:#018x}")).collect();
            format!("    ({tag:?}, [{}]),", c.join(", "))
        })
        .collect::<Vec<_>>()
        .join("\n");
    for ((tag, got), (want_tag, want)) in rows.iter().zip(A2A_CHARGES) {
        assert_eq!(
            (tag.as_str(), got),
            (*want_tag, want),
            "a2a charges moved; computed:\n{computed}"
        );
    }
    assert_eq!(
        rows.len(),
        A2A_CHARGES.len(),
        "a2a charge table size; computed:\n{computed}"
    );
}

/// Each rank's `(seconds, overlap_saved)` of both all-to-all phases.
fn rank_a2a_ledgers(cfg: &TrainerConfig) -> Vec<[(f64, f64); 2]> {
    let dataset = presets::tiny();
    let cards: Vec<usize> = dataset.tables.iter().map(|t| t.cardinality).collect();
    let setup = Arc::new(RankSetup {
        dataset: dataset.clone(),
        trainer: cfg.clone(),
        partition: TablePartition::greedy(&cards, cfg.world),
        segment: SegmentSpec::full(cfg.iterations),
        feed: BatchFeed::new(dataset, cfg.seed.wrapping_add(1), cfg.world),
    });
    SimCluster::new(cfg.world, cfg.network).run(move |ctx| {
        let ledger = run_rank(&ctx, &setup).ledger;
        [phases::FWD_A2A, phases::BWD_A2A].map(|p| (ledger.seconds(p), ledger.overlap_saved(p)))
    })
}

#[test]
fn sequential_a2a_charge_is_overlapped_charge_plus_hidden_time() {
    // One charge rule for every route: a sequential exchange pays α + β, an
    // overlapped one α + the exposed part of β, with the rest hidden.
    for topo in [TopologySetting::Flat, hier_2x2()] {
        for compression in [
            CompressionSetting::None,
            CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        ] {
            let base = timing_config(compression).with_topology(topo);
            let seq = rank_a2a_ledgers(&base.clone());
            let ovl = rank_a2a_ledgers(&base.with_overlap(OverlapSetting::DoubleBuffered));
            for (rank, (seq, ovl)) in seq.iter().zip(&ovl).enumerate() {
                for (phase, (&(s, hidden_s), &(o, hidden_o))) in seq.iter().zip(ovl).enumerate() {
                    let tag = format!("{} rank {rank} phase {phase}", topo.label());
                    assert_eq!(hidden_s, 0.0, "{tag}");
                    assert!(
                        (s - (o + hidden_o)).abs() <= 1e-12 * s,
                        "{tag}: sequential {s} vs overlapped {o} + hidden {hidden_o}"
                    );
                }
            }
        }
    }
}

#[test]
fn zero_allocation_steady_state_survives_the_overlapped_pipeline() {
    // Acceptance: steady_state_allocated_bytes == 0 with overlap on, for
    // raw / fp16 / hybrid / fz modes.
    let dataset = presets::tiny();
    for setting in [
        CompressionSetting::None,
        CompressionSetting::Fp16,
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        CompressionSetting::fixed(0.02, CompressorKind::FzLike),
    ] {
        let label = setting.label();
        let mut cfg = tiny_config(setting, 12).with_overlap(OverlapSetting::DoubleBuffered);
        cfg.global_batch = 64;
        let report = run_training(&dataset, &cfg);
        assert_eq!(
            report.steady_state_allocated_bytes, 0,
            "{label}: overlapped steady state allocated {} bytes",
            report.steady_state_allocated_bytes
        );
        assert!(
            report.buffer_reused_bytes > 0,
            "{label}: reuse counters never moved"
        );
    }
}

#[test]
fn warmup_allocation_counters_are_reproducible_and_never_double_counted() {
    // Regression for the counter audit: a single-rank run is fully
    // deterministic (no cross-thread pool races), so every per-phase
    // allocated/reused byte counter must pin to the same value on repeated
    // runs — a double-counted warm-up allocation (e.g. a retried chunk
    // counted both by the pool and as lease growth) would show up here as a
    // drifting or inflated counter.
    let dataset = presets::tiny();
    for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
        let mut cfg = tiny_config(
            CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
            8,
        )
        .with_overlap(overlap);
        cfg.world = 1;
        cfg.global_batch = 32;
        let a = run_training(&dataset, &cfg);
        let b = run_training(&dataset, &cfg);
        for &phase in phases::ALL {
            assert_eq!(
                a.breakdown.allocated_bytes(phase),
                b.breakdown.allocated_bytes(phase),
                "{}: allocated counter for {phase:?} not reproducible",
                overlap.label()
            );
            assert_eq!(
                a.breakdown.reused_bytes(phase),
                b.breakdown.reused_bytes(phase),
                "{}: reused counter for {phase:?} not reproducible",
                overlap.label()
            );
        }
        // Warm-up allocates (the pool starts empty), the steady state never.
        assert!(
            a.breakdown.total_allocated_bytes() > 0,
            "{}: warm-up counters never moved",
            overlap.label()
        );
        assert_eq!(a.steady_state_allocated_bytes, 0, "{}", overlap.label());
        assert_eq!(
            a.breakdown.total_allocated_bytes(),
            b.breakdown.total_allocated_bytes()
        );
    }
}
