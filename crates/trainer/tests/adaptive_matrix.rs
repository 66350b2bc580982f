//! Adaptive test matrix: the hard invariants of the closed-loop runtime
//! controller.
//!
//! * `AdaptiveSetting::Static` (and a constant bandwidth trace) is
//!   **bit-for-bit** today's pipeline across compression × overlap ×
//!   topology;
//! * the controller is deterministic: same seed + same trace ⇒ the same
//!   reselection log, on every rank (the merger asserts cross-rank
//!   equality);
//! * the zero-allocation steady state holds with the controller on;
//! * loss-plateau error-bound control tightens the bound and the run still
//!   learns;
//! * under a bandwidth drift the controller beats every static plan, and a
//!   traffic drift shows up as fewer distinct rows on the forward wire;
//! * the controller windows are frozen: a golden table pins every
//!   reselection, window ratio, controller-phase charge and final loss over
//!   topology × overlap × error-bound control × drift shape.

use dlrm_adaptive::{CodecProfile, PlateauEbControl, Reselection};
use dlrm_comm::{BandwidthTrace, FaultPlan, NetworkConfig, Topology};
use dlrm_compress::CompressorKind;
use dlrm_trainer::{
    run_training, AdaptiveSetting, CompressionSetting, ExecutorSetting, FaultSetting,
    OverlapSetting, TopologySetting, TrainerConfig, TrainingReport,
};

/// Bitwise fingerprint of a run's numerics: every per-iteration metric.
fn numeric_bits(r: &TrainingReport) -> Vec<u64> {
    r.accuracy_curve
        .iter()
        .flat_map(|m| [m.loss.to_bits(), m.accuracy.to_bits(), m.auc.to_bits()])
        .collect()
}

fn matrix_configs() -> Vec<TrainerConfig> {
    let mut configs = Vec::new();
    for compression in [
        CompressionSetting::None,
        CompressionSetting::Fp16,
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
    ] {
        for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
            for hierarchical in [false, true] {
                let topology = if hierarchical {
                    TopologySetting::Hierarchical(Topology::new(
                        2,
                        2,
                        NetworkConfig::nvlink_intra_node(),
                        NetworkConfig::paper_figure11(),
                    ))
                } else {
                    TopologySetting::Flat
                };
                let mut cfg = TrainerConfig::small_test(compression.clone())
                    .with_overlap(overlap)
                    .with_topology(topology);
                cfg.iterations = 6;
                cfg.global_batch = 64;
                configs.push(cfg);
            }
        }
    }
    configs
}

#[test]
fn static_setting_is_bit_identical_across_the_matrix() {
    let dataset = dlrm_data::presets::tiny();
    for cfg in matrix_configs() {
        let baseline = run_training(&dataset, &cfg);
        // Explicit Static plus a *constant* trace of the link the run
        // actually charges (the fabric tier under a hierarchy, the flat
        // network otherwise) must change nothing: numerics bitwise, virtual
        // charges and traffic exact.
        let pinned_link = cfg.topology.topology().map_or(cfg.network, |t| t.inter());
        let pinned = cfg
            .clone()
            .with_adaptive(AdaptiveSetting::Static)
            .with_bandwidth_trace(BandwidthTrace::constant(pinned_link));
        let report = run_training(&dataset, &pinned);
        let label = format!(
            "{} / {} / {}",
            baseline.label,
            baseline.overlap.label(),
            baseline.topology
        );
        assert_eq!(
            numeric_bits(&baseline),
            numeric_bits(&report),
            "{label}: numerics diverged"
        );
        // Measured compute time is wall-clock and never reproducible; the
        // *virtual* network charges must match. Under overlap the
        // exposed/hidden split of the wire time depends on measured codec
        // seconds, so only the un-overlapped charge (exposed + saved) is
        // comparable there; sequential charges must match bitwise.
        for phase in [
            dlrm_comm::phase::FWD_A2A,
            dlrm_comm::phase::BWD_A2A,
            dlrm_comm::phase::ALLREDUCE,
        ] {
            assert_eq!(
                baseline.breakdown.bytes(phase),
                report.breakdown.bytes(phase),
                "{label}: {phase} bytes diverged"
            );
            let full =
                |r: &TrainingReport| r.breakdown.seconds(phase) + r.breakdown.overlap_saved(phase);
            if cfg.overlap.is_enabled() {
                let (a, b) = (full(&baseline), full(&report));
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1e-30),
                    "{label}: un-overlapped {phase} charge diverged: {a} vs {b}"
                );
            } else {
                assert_eq!(
                    baseline.breakdown.seconds(phase).to_bits(),
                    report.breakdown.seconds(phase).to_bits(),
                    "{label}: virtual {phase} charge diverged"
                );
            }
        }
        assert_eq!(
            baseline.overall_ratio.to_bits(),
            report.overall_ratio.to_bits(),
            "{label}: traffic diverged"
        );
        assert!(report.reselections.is_empty());
        assert!(report.window_ratios.is_empty());
        assert_eq!(report.adaptive, "static");
    }
}

/// A runtime configuration over a drifting fabric: fast first half, slow
/// second half, per-codec analytic throughputs so codec trade-offs are
/// deterministic.
fn runtime_config(iterations: usize) -> (dlrm_data::DatasetConfig, TrainerConfig) {
    let dataset = dlrm_data::presets::tiny();
    let fast = NetworkConfig::alltoall_bound(60e9);
    let slow = NetworkConfig::alltoall_bound(5e8);
    let mut cfg = TrainerConfig::small_test(CompressionSetting::fixed(0.05, CompressorKind::Fp16));
    cfg.iterations = iterations;
    cfg.global_batch = 64;
    cfg.network = fast;
    (
        dataset,
        cfg.with_adaptive(AdaptiveSetting::runtime(3, 0.1))
            .with_bandwidth_trace(BandwidthTrace::step(fast, slow, iterations / 2))
            .with_codec_profile(CodecProfile::paper_reference()),
    )
}

#[test]
fn runtime_controller_reselects_and_is_deterministic() {
    let (dataset, cfg) = runtime_config(12);
    let a = run_training(&dataset, &cfg);
    let b = run_training(&dataset, &cfg);
    // The drift from 60 GB/s to 0.5 GB/s crosses every codec's Equation-2
    // crossover: at least one table must switch off the fp16 cast.
    assert!(
        a.total_reselections() >= 1,
        "no reselection under a 120x bandwidth drift: {:?}",
        a.reselections
    );
    assert_eq!(a.reselections.len(), 3, "one entry per window boundary");
    // Same seed + same trace ⇒ the same reselection log, bit for bit —
    // and the same numerics (the merger separately asserts that all ranks
    // agreed within each run).
    assert_eq!(a.reselections, b.reselections);
    assert_eq!(numeric_bits(&a), numeric_bits(&b));
    assert_eq!(a.window_ratios.len(), a.reselections.len());
    // The switches go in the right direction: toward heavier compression
    // as the fabric degrades.
    let switched_to: Vec<CompressorKind> = a
        .reselections
        .iter()
        .flat_map(|r| r.switches.iter().map(|s| s.to))
        .collect();
    assert!(
        switched_to
            .iter()
            .all(|k| !matches!(k, CompressorKind::Fp16)),
        "drift to a slow fabric must not select the cheap cast: {switched_to:?}"
    );
}

#[test]
fn runtime_controller_keeps_the_zero_alloc_steady_state() {
    let (dataset, cfg) = runtime_config(12);
    let report = run_training(&dataset, &cfg);
    assert_eq!(
        report.steady_state_allocated_bytes, 0,
        "controller probing/exchange allocated in the steady state"
    );
    assert!(report.buffer_reused_bytes > 0);
    // The controller's own phase must have been charged (probe + exchange).
    assert!(report.breakdown.seconds(dlrm_comm::phase::CONTROLLER) > 0.0);
}

#[test]
fn runtime_controller_composes_with_overlap_and_topology() {
    // The controller must run (and stay deterministic) under the overlapped
    // schedule and the hierarchical collective, observing the fabric tier.
    let dataset = dlrm_data::presets::tiny();
    let fast = NetworkConfig::alltoall_bound(60e9);
    let slow = NetworkConfig::alltoall_bound(5e8);
    let mut cfg = TrainerConfig::small_test(CompressionSetting::fixed(0.05, CompressorKind::Fp16));
    cfg.iterations = 12;
    cfg.global_batch = 64;
    cfg.network = fast;
    let cfg = cfg
        .with_overlap(OverlapSetting::DoubleBuffered)
        .with_topology(TopologySetting::Hierarchical(Topology::new(
            2,
            2,
            NetworkConfig::nvlink_intra_node(),
            fast,
        )))
        .with_adaptive(AdaptiveSetting::runtime(3, 0.1))
        .with_bandwidth_trace(BandwidthTrace::step(fast, slow, 6))
        .with_codec_profile(CodecProfile::paper_reference());
    let a = run_training(&dataset, &cfg);
    let b = run_training(&dataset, &cfg);
    assert_eq!(a.reselections, b.reselections);
    assert!(a.total_reselections() >= 1, "{:?}", a.reselections);
    // Numerics still learn and stay finite.
    assert!(a.final_metrics.loss.is_finite());
    assert_eq!(a.steady_state_allocated_bytes, 0);
}

#[test]
fn plateau_eb_control_tightens_and_still_learns() {
    let dataset = dlrm_data::presets::tiny();
    let mut cfg =
        TrainerConfig::small_test(CompressionSetting::fixed(0.05, CompressorKind::OursHybrid));
    cfg.iterations = 40;
    cfg.global_batch = 64;
    let cfg = cfg.with_adaptive(AdaptiveSetting::Runtime {
        window: 4,
        hysteresis: 0.1,
        // An absurd threshold so every window counts as plateaued: the
        // scale must walk down to the floor and stay there.
        eb_control: Some(PlateauEbControl {
            plateau_threshold: 1e9,
            tighten_factor: 0.5,
            min_scale: 0.25,
        }),
    });
    let report = run_training(&dataset, &cfg);
    assert!(
        (report.final_eb_scale() - 0.25).abs() < 1e-6,
        "eb scale {} never reached the floor",
        report.final_eb_scale()
    );
    assert!(report.reselections.iter().skip(1).any(|r| r.plateaued));
    // Tightening the bound must not break training.
    assert!(report.final_metrics.loss < report.initial_metrics.loss);
    // A tighter bound compresses less: from the first window on the final
    // codecs (the one after the last switch) to the last window, the ratio
    // must not rise (same codecs, smaller bins ⇒ lower ratio).
    let settled = (report.reselections.iter())
        .rposition(|r| !r.switches.is_empty())
        .map_or(0, |i| i + 1);
    let first = report.window_ratios[settled];
    let last = report.window_ratios.last().copied().unwrap_or(1.0);
    assert!(
        last <= first + 1e-9,
        "ratio rose under a tightened bound: {first} -> {last}"
    );
}

/// Per-codec analytic throughputs with a stark speed/ratio trade-off: a very
/// fast cheap cast against a slow heavy codec, the FZ-like baseline priced
/// out.
fn drift_profile() -> CodecProfile {
    CodecProfile::paper_reference()
        .with(CompressorKind::Fp16, 200e9, 200e9)
        .with(CompressorKind::OursHybrid, 2e9, 10e9)
        .with(CompressorKind::FzLike, 1e9, 1e9)
}

/// A fixed-EB lossy run on `codec` with the drift profile; compute is
/// scaled far down so the deterministic wire + codec schedule decides the
/// comparison, not CPU noise.
fn drift_arm_config(codec: CompressorKind, adaptive: AdaptiveSetting) -> TrainerConfig {
    let mut cfg = TrainerConfig::small_test(CompressionSetting::fixed(0.05, codec))
        .with_adaptive(adaptive)
        .with_codec_profile(drift_profile());
    cfg.iterations = 24;
    cfg.learning_rate = 0.05;
    cfg.compute_time_scale = 1.0 / 50_000.0;
    cfg
}

#[test]
fn runtime_controller_beats_every_static_plan_under_bandwidth_drift() {
    // The fabric starts degraded and recovers 10x at mid-run, so every
    // static plan is wrong in one half. The runtime arm starts on the heavy
    // codec the degraded fabric wants.
    let dataset = dlrm_data::presets::tiny();
    let slow = NetworkConfig::alltoall_bound(2e8);
    let fast = NetworkConfig::alltoall_bound(2e9);
    let run = |codec, adaptive| {
        let mut cfg = drift_arm_config(codec, adaptive)
            .with_bandwidth_trace(BandwidthTrace::step(slow, fast, 12));
        cfg.network = slow;
        run_training(&dataset, &cfg)
    };
    let runtime = run(CompressorKind::OursHybrid, AdaptiveSetting::runtime(3, 0.1));
    assert!(
        runtime.total_reselections() >= 1,
        "no mid-run reselection under a 10x bandwidth drift: {:?}",
        runtime.reselections
    );
    for codec in [
        CompressorKind::Fp16,
        CompressorKind::FzLike,
        CompressorKind::OursHybrid,
    ] {
        let fixed = run(codec, AdaptiveSetting::Static);
        assert!(
            runtime.total_seconds < fixed.total_seconds,
            "runtime ({:.6}s) not strictly better than static-{} ({:.6}s)",
            runtime.total_seconds,
            codec.label(),
            fixed.total_seconds
        );
    }
}

#[test]
fn traffic_drift_shrinks_the_distinct_rows_sent() {
    // A steady fabric, and the query skew sharpens at mid-run: hot rows
    // repeat more, and a repeat never leaves its owner — the owners send a
    // smaller share of distinct rows and the forward wire carries fewer
    // bytes than under the steady skew.
    let steady = dlrm_data::presets::tiny();
    let drifting = steady
        .clone()
        .with_drift(dlrm_data::TrafficDrift::exponent_shift(12, 1.5));
    let mut cfg = drift_arm_config(CompressorKind::OursHybrid, AdaptiveSetting::runtime(3, 0.1));
    cfg.network = NetworkConfig::alltoall_bound(5e8);
    let (before, after) = (run_training(&steady, &cfg), run_training(&drifting, &cfg));
    assert!(
        after.fwd_unique_frac < before.fwd_unique_frac,
        "skew shift did not cut the distinct share: {} -> {}",
        before.fwd_unique_frac,
        after.fwd_unique_frac
    );
    let fwd_bytes = |r: &TrainingReport| r.breakdown.bytes(dlrm_comm::phase::FWD_A2A);
    assert!(fwd_bytes(&after) < fwd_bytes(&before));
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every field of a reselection, floats by bits, codecs by label.
fn reselection_words(r: &Reselection) -> Vec<u64> {
    let kind = |k: CompressorKind| fnv(k.label().bytes().map(u64::from));
    let mut w = vec![
        r.index as u64,
        r.iteration as u64,
        r.effective_bandwidth.to_bits(),
        r.mean_loss.to_bits(),
        r.plateaued as u64,
        r.eb_scale.to_bits() as u64,
        r.degraded as u64,
        r.switches.len() as u64,
    ];
    for s in &r.switches {
        w.extend([
            s.table_id as u64,
            kind(s.from),
            kind(s.to),
            s.estimated_speedup.to_bits(),
            s.incumbent_speedup.to_bits(),
        ]);
    }
    w
}

/// Golden controller windows, one column per quantity so a change shows
/// which moved: `(row label, codec switches, FNV over every reselection
/// field, FNV over the window ratios, the controller phase's ledger seconds
/// (bits) and bytes, and the final loss (bits))`. Any change to the
/// observation format, its exchange or charge, or the controller's decisions
/// moves a row. Re-pinned once when the forward exchange began sending each
/// distinct row once: window ratios and the codec ratios probed on live
/// payloads are now over distinct rows, so the two FNV columns moved on
/// every row, and with them two rows' final loss and two rows' switch count.
/// Re-pinned once more when shards began sending one summed gradient row per
/// distinct index: the final loss moved on the twelve rows with a straggler
/// or a plateau controller, and the reselection FNV on every row (a
/// reselection records the window's mean loss and the bandwidth its wire
/// bytes imply); switches, window ratios and the controller's seconds and
/// bytes stayed. Re-pinned a third time when the all-to-all chunks moved to
/// the varint payload frame: fewer header bytes move the bandwidth a
/// reselection records on twelve rows' reselection FNV; nothing else moved.
/// Re-pinned a fourth time when the per-tier advice was deleted: every
/// row's reselection FNV, because [`reselection_words`] lost its tier words
/// (with those words left out, the commit before the deletion gives the same
/// sixteen FNVs), and every row's controller seconds and bytes, because each
/// window share lost its two intra-tier words (16 B) and three boundaries
/// move 96 B each (8304 → 8016). Switches, window ratios and final losses
/// stayed. Re-pinned a fifth time when flat chunks dropped their 16-byte
/// header: the eight flat rows' reselection FNV, through the bandwidth and
/// speedup words (with those words left out, the FNVs before and after
/// agree); every other column and the 2x2 rows stayed.
#[rustfmt::skip]
const CONTROLLER_GOLDEN: &[(&str, usize, u64, u64, u64, u64, u64)] = &[
    ("flat/sequential/eb-none/drift", 4, 0x663697dd16cbe601, 0xaf49b4c4db35418e, 0x3eb63da3517ab63e, 8016, 0x3fe64a721aaaaaab),
    ("flat/sequential/eb-none/straggler", 4, 0x904fe00b49fa75e1, 0xa484c239bf90b7f9, 0x3eb63da3517ab63e, 8016, 0x3fe6473872aaaaab),
    ("flat/sequential/eb-plateau/drift", 4, 0x12d49ed0e2376e70, 0xaf49b4c4db35418e, 0x3eb63da3517ab63e, 8016, 0x3fe6461d68000000),
    ("flat/sequential/eb-plateau/straggler", 4, 0x0493e1c64acdaeaa, 0xce3f792cf6a6013c, 0x3eb63da3517ab63e, 8016, 0x3fe6468d82aaaaab),
    ("flat/overlapped/eb-none/drift", 4, 0xd657ef71f95f2a6d, 0xaf49b4c4db35418e, 0x3eb63da3517ab63e, 8016, 0x3fe64a721aaaaaab),
    ("flat/overlapped/eb-none/straggler", 4, 0x9614e48d1521fba0, 0x85fd5bed6ab0faa7, 0x3eb63da3517ab63e, 8016, 0x3fe6473a18000000),
    ("flat/overlapped/eb-plateau/drift", 4, 0x9fb416cc51dbee4d, 0xaf49b4c4db35418e, 0x3eb63da3517ab63e, 8016, 0x3fe6461d68000000),
    ("flat/overlapped/eb-plateau/straggler", 4, 0x76ea0fab59d4e804, 0x88c473962fde7901, 0x3eb63da3517ab63e, 8016, 0x3fe6470058000000),
    ("2x2/sequential/eb-none/drift", 4, 0x1d8b44c12eba6c9c, 0xaf49b4c4db35418e, 0x3eb63da3517ab63e, 8016, 0x3fe64a721aaaaaab),
    ("2x2/sequential/eb-none/straggler", 4, 0x4b1e8b6074969274, 0x85fd5bed6ab0faa7, 0x3eb63da3517ab63e, 8016, 0x3fe6473a18000000),
    ("2x2/sequential/eb-plateau/drift", 4, 0xccd2bcd33100bb5b, 0xaf49b4c4db35418e, 0x3eb63da3517ab63e, 8016, 0x3fe6461d68000000),
    ("2x2/sequential/eb-plateau/straggler", 4, 0x137ca5033e847cb6, 0x88c473962fde7901, 0x3eb63da3517ab63e, 8016, 0x3fe6470058000000),
    ("2x2/overlapped/eb-none/drift", 4, 0x792186fe24b26f0e, 0xaf49b4c4db35418e, 0x3eb63da3517ab63e, 8016, 0x3fe64a721aaaaaab),
    ("2x2/overlapped/eb-none/straggler", 4, 0x00faba26e1909124, 0x85fd5bed6ab0faa7, 0x3eb63da3517ab63e, 8016, 0x3fe6473a18000000),
    ("2x2/overlapped/eb-plateau/drift", 4, 0x7c26df075df1ddb3, 0xaf49b4c4db35418e, 0x3eb63da3517ab63e, 8016, 0x3fe6461d68000000),
    ("2x2/overlapped/eb-plateau/straggler", 4, 0xe7871b156608b38a, 0x88c473962fde7901, 0x3eb63da3517ab63e, 8016, 0x3fe6470058000000),
];

#[test]
fn controller_windows_are_pinned() {
    let dataset = dlrm_data::presets::tiny();
    let fast = NetworkConfig::alltoall_bound(60e9);
    let slow = NetworkConfig::alltoall_bound(5e8);
    let mut rows = Vec::new();
    for hierarchical in [false, true] {
        for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
            for eb_control in [None, Some(PlateauEbControl::default())] {
                for straggler in [false, true] {
                    let mut cfg = TrainerConfig::small_test(CompressionSetting::fixed(
                        0.05,
                        CompressorKind::Fp16,
                    ));
                    cfg.iterations = 12;
                    cfg.global_batch = 64;
                    cfg.network = fast;
                    let mut cfg = cfg
                        .with_executor(ExecutorSetting::Sequential)
                        .with_overlap(overlap)
                        .with_adaptive(AdaptiveSetting::Runtime {
                            window: 3,
                            hysteresis: 0.1,
                            eb_control,
                        })
                        .with_codec_profile(CodecProfile::paper_reference());
                    if hierarchical {
                        cfg = cfg.with_topology(TopologySetting::Hierarchical(Topology::new(
                            2,
                            2,
                            NetworkConfig::nvlink_intra_node(),
                            fast,
                        )));
                    }
                    cfg = if straggler {
                        cfg.with_fault(FaultSetting::new(
                            FaultPlan::none().with_straggler(1, 3, 7, 120.0),
                        ))
                    } else {
                        cfg.with_bandwidth_trace(BandwidthTrace::step(fast, slow, 6))
                    };
                    let report = run_training(&dataset, &cfg);
                    let columns = (
                        report.total_reselections(),
                        fnv(report.reselections.iter().flat_map(reselection_words)),
                        fnv(report.window_ratios.iter().map(|r| r.to_bits())),
                        report
                            .breakdown
                            .seconds(dlrm_comm::phase::CONTROLLER)
                            .to_bits(),
                        report.breakdown.bytes(dlrm_comm::phase::CONTROLLER),
                        report.final_metrics.loss.to_bits(),
                    );
                    let label = format!(
                        "{}/{}/{}/{}",
                        if hierarchical { "2x2" } else { "flat" },
                        overlap.label(),
                        if eb_control.is_some() {
                            "eb-plateau"
                        } else {
                            "eb-none"
                        },
                        if straggler { "straggler" } else { "drift" },
                    );
                    rows.push((label, columns));
                }
            }
        }
    }
    let table: String = rows
        .iter()
        .map(|(label, (n, resel, ratios, secs, bytes, loss))| {
            format!(
                "    (\"{label}\", {n}, {resel:#018x}, {ratios:#018x}, {secs:#018x}, {bytes}, {loss:#018x}),\n"
            )
        })
        .collect();
    assert_eq!(
        rows.len(),
        CONTROLLER_GOLDEN.len(),
        "actual table:\n{table}"
    );
    for ((label, (n, resel, ratios, secs, bytes, loss)), golden) in
        rows.iter().zip(CONTROLLER_GOLDEN)
    {
        assert_eq!(
            (label.as_str(), *n, *resel, *ratios, *secs, *bytes, *loss),
            *golden,
            "controller window drifted; actual table:\n{table}"
        );
    }
    // A grid where nothing switches pins nothing worth pinning.
    assert!(
        rows.iter().any(|(_, (n, ..))| *n > 0),
        "no row switched a codec"
    );
}
