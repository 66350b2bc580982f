//! Both embedding exchanges are frozen where their numerics are concerned.
//!
//! Owners send each distinct embedding row of a (table, destination) block
//! once, and the receiver re-expands the block from its own indices. Under
//! every pointwise codec a repeated row decodes to the bits of its first
//! occurrence, so the matrices `forward_dense` sees are the ones a full-row
//! exchange delivers. Backward, each shard sums its gradient rows per
//! distinct index in sample order and sends one row per distinct index, and
//! the owner applies one update row per distinct index. The golden table
//! below pins that over compression × topology × executor × overlap: an FNV
//! over every per-iteration loss bit pattern, the backward all-to-all's bytes
//! and the dense all-reduce's bytes. It also keeps the forward bytes of a
//! full-row exchange and the backward bytes of a per-sample exchange, which
//! the two exchanges may never exceed.

use dlrm_comm::phase as phases;
use dlrm_comm::{NetworkConfig, Topology};
use dlrm_compress::CompressorKind;
use dlrm_data::presets;
use dlrm_trainer::{
    plan, run_training, CompressionSetting, ExecutorSetting, OverlapSetting, TopologySetting,
    TrainerConfig, TrainingReport,
};
use std::sync::OnceLock;

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One run of the grid: `(label, loss FNV, BWD_A2A bytes, ALLREDUCE bytes,
/// FWD_A2A bytes)`.
type Row = (String, u64, u64, u64, u64);

fn row(label: String, report: &TrainingReport) -> Row {
    let b = &report.breakdown;
    (
        label,
        fnv(report.accuracy_curve.iter().map(|m| m.loss.to_bits())),
        b.bytes(phases::BWD_A2A),
        b.bytes(phases::ALLREDUCE),
        b.bytes(phases::FWD_A2A),
    )
}

/// Every pointwise compression setting the trainer offers: raw, the two
/// casts, the hybrid and vector-LZ codecs at a fixed bound, and the offline
/// adaptive plan.
fn settings() -> Vec<CompressionSetting> {
    let plan = plan::paper_default_plan(&presets::tiny(), 4, 4, 4e9, 7)
        .expect("offline analysis succeeds on synthetic traffic");
    vec![
        CompressionSetting::None,
        CompressionSetting::Fp16,
        CompressionSetting::Fp8,
        CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
        CompressionSetting::fixed(0.02, CompressorKind::OursVector),
        CompressionSetting::Adaptive(plan),
    ]
}

/// The grid, run once and shared by both tests.
fn grid() -> &'static [Row] {
    static GRID: OnceLock<Vec<Row>> = OnceLock::new();
    GRID.get_or_init(|| {
        let dataset = presets::tiny();
        let hier = TopologySetting::Hierarchical(Topology::new(
            2,
            2,
            NetworkConfig::nvlink_intra_node(),
            NetworkConfig::default(),
        ));
        let mut rows = Vec::new();
        for compression in settings() {
            for topo in [TopologySetting::Flat, hier] {
                for executor in [ExecutorSetting::Sequential, ExecutorSetting::Threaded] {
                    for overlap in [OverlapSetting::Off, OverlapSetting::DoubleBuffered] {
                        let cfg = TrainerConfig::small_test(compression.clone())
                            .with_topology(topo)
                            .with_executor(executor)
                            .with_overlap(overlap);
                        let report = run_training(&dataset, &cfg);
                        let label = format!(
                            "{} / {} / {} / {}",
                            report.label,
                            topo.label(),
                            executor.label(),
                            overlap.label()
                        );
                        rows.push(row(label, &report));
                    }
                }
            }
        }
        rows
    })
}

/// Golden rows: `(label, loss FNV, BWD_A2A bytes, ALLREDUCE bytes, FWD_A2A
/// bytes of the full-row exchange, BWD_A2A bytes of the per-sample
/// exchange)`. The last two columns were captured while every owner still
/// sent one row per sample and every shard one gradient row per sample. The
/// loss FNVs and BWD bytes were re-pinned once when shards began summing
/// their gradient rows per distinct index: `w − lr·(g₁ + g₂)` rounds
/// differently from `(w − lr·g₁) − lr·g₂`, and a lossy codec quantizes the
/// summed row rather than each of its parts. The BWD bytes were re-pinned
/// once more, alone, when the chunks moved to the shared varint payload
/// frame (`dlrm_comm::frame`): fewer header bytes per block and chunk. The
/// flat rows' BWD bytes were re-pinned, alone, when flat chunks dropped
/// their 16-byte header: 768 B less (16 B × 3 peers × sent + received × 8
/// iterations); the loss FNVs and the 2x2 rows stayed, and the last two
/// columns still count that header.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64, u64, u64)] = &[
    ("fp32-baseline / flat / sequential / sequential", 0x72c93b50381a39c5, 35824, 189888, 50496, 50496),
    ("fp32-baseline / flat / sequential / overlapped", 0x72c93b50381a39c5, 35824, 189888, 50496, 50496),
    ("fp32-baseline / flat / threaded / sequential", 0x72c93b50381a39c5, 35824, 189888, 50496, 50496),
    ("fp32-baseline / flat / threaded / overlapped", 0x72c93b50381a39c5, 35824, 189888, 50496, 50496),
    ("fp32-baseline / 2x2 / sequential / sequential", 0x72c93b50381a39c5, 72048, 189888, 117312, 117312),
    ("fp32-baseline / 2x2 / sequential / overlapped", 0x72c93b50381a39c5, 72048, 189888, 117312, 117312),
    ("fp32-baseline / 2x2 / threaded / sequential", 0x72c93b50381a39c5, 72048, 189888, 117312, 117312),
    ("fp32-baseline / 2x2 / threaded / overlapped", 0x72c93b50381a39c5, 72048, 189888, 117312, 117312),
    ("fp16 / flat / sequential / sequential", 0x9aea49dc201a39c5, 18156, 189888, 26064, 26064),
    ("fp16 / flat / sequential / overlapped", 0x9aea49dc201a39c5, 18156, 189888, 26064, 26064),
    ("fp16 / flat / threaded / sequential", 0x9aea49dc201a39c5, 18156, 189888, 26064, 26064),
    ("fp16 / flat / threaded / overlapped", 0x9aea49dc201a39c5, 18156, 189888, 26064, 26064),
    ("fp16 / 2x2 / sequential / sequential", 0x9aea49dc201a39c5, 37220, 189888, 60304, 60304),
    ("fp16 / 2x2 / sequential / overlapped", 0x9aea49dc201a39c5, 37220, 189888, 60304, 60304),
    ("fp16 / 2x2 / threaded / sequential", 0x9aea49dc201a39c5, 37220, 189888, 60304, 60304),
    ("fp16 / 2x2 / threaded / overlapped", 0x9aea49dc201a39c5, 37220, 189888, 60304, 60304),
    ("fp8 / flat / sequential / sequential", 0x4467fc0fe01a39c5, 9256, 189888, 13776, 13776),
    ("fp8 / flat / sequential / overlapped", 0x4467fc0fe01a39c5, 9256, 189888, 13776, 13776),
    ("fp8 / flat / threaded / sequential", 0x4467fc0fe01a39c5, 9256, 189888, 13776, 13776),
    ("fp8 / flat / threaded / overlapped", 0x4467fc0fe01a39c5, 9256, 189888, 13776, 13776),
    ("fp8 / 2x2 / sequential / sequential", 0x4467fc0fe01a39c5, 19656, 189888, 31632, 31632),
    ("fp8 / 2x2 / sequential / overlapped", 0x4467fc0fe01a39c5, 19656, 189888, 31632, 31632),
    ("fp8 / 2x2 / threaded / sequential", 0x4467fc0fe01a39c5, 19656, 189888, 31632, 31632),
    ("fp8 / 2x2 / threaded / overlapped", 0x4467fc0fe01a39c5, 19656, 189888, 31632, 31632),
    ("lossy-ours-hybrid-eb0.02 / flat / sequential / sequential", 0x8542537b501a39c5, 2120, 189888, 9208, 3696),
    ("lossy-ours-hybrid-eb0.02 / flat / sequential / overlapped", 0x8542537b501a39c5, 2120, 189888, 9208, 3696),
    ("lossy-ours-hybrid-eb0.02 / flat / threaded / sequential", 0x8542537b501a39c5, 2120, 189888, 9208, 3696),
    ("lossy-ours-hybrid-eb0.02 / flat / threaded / overlapped", 0x8542537b501a39c5, 2120, 189888, 9208, 3696),
    ("lossy-ours-hybrid-eb0.02 / 2x2 / sequential / sequential", 0x8542537b501a39c5, 5842, 189888, 18968, 8112),
    ("lossy-ours-hybrid-eb0.02 / 2x2 / sequential / overlapped", 0x8542537b501a39c5, 5842, 189888, 18968, 8112),
    ("lossy-ours-hybrid-eb0.02 / 2x2 / threaded / sequential", 0x8542537b501a39c5, 5842, 189888, 18968, 8112),
    ("lossy-ours-hybrid-eb0.02 / 2x2 / threaded / overlapped", 0x8542537b501a39c5, 5842, 189888, 18968, 8112),
    ("lossy-ours-vector-eb0.02 / flat / sequential / sequential", 0x8542537b501a39c5, 2120, 189888, 9208, 3696),
    ("lossy-ours-vector-eb0.02 / flat / sequential / overlapped", 0x8542537b501a39c5, 2120, 189888, 9208, 3696),
    ("lossy-ours-vector-eb0.02 / flat / threaded / sequential", 0x8542537b501a39c5, 2120, 189888, 9208, 3696),
    ("lossy-ours-vector-eb0.02 / flat / threaded / overlapped", 0x8542537b501a39c5, 2120, 189888, 9208, 3696),
    ("lossy-ours-vector-eb0.02 / 2x2 / sequential / sequential", 0x8542537b501a39c5, 5842, 189888, 18968, 8112),
    ("lossy-ours-vector-eb0.02 / 2x2 / sequential / overlapped", 0x8542537b501a39c5, 5842, 189888, 18968, 8112),
    ("lossy-ours-vector-eb0.02 / 2x2 / threaded / sequential", 0x8542537b501a39c5, 5842, 189888, 18968, 8112),
    ("lossy-ours-vector-eb0.02 / 2x2 / threaded / overlapped", 0x8542537b501a39c5, 5842, 189888, 18968, 8112),
    ("lossy-adaptive / flat / sequential / sequential", 0xadc81da9d01a39c5, 2120, 189888, 7608, 3696),
    ("lossy-adaptive / flat / sequential / overlapped", 0xadc81da9d01a39c5, 2120, 189888, 7608, 3696),
    ("lossy-adaptive / flat / threaded / sequential", 0xadc81da9d01a39c5, 2120, 189888, 7608, 3696),
    ("lossy-adaptive / flat / threaded / overlapped", 0xadc81da9d01a39c5, 2120, 189888, 7608, 3696),
    ("lossy-adaptive / 2x2 / sequential / sequential", 0xadc81da9d01a39c5, 5826, 189888, 15952, 8112),
    ("lossy-adaptive / 2x2 / sequential / overlapped", 0xadc81da9d01a39c5, 5826, 189888, 15952, 8112),
    ("lossy-adaptive / 2x2 / threaded / sequential", 0xadc81da9d01a39c5, 5826, 189888, 15952, 8112),
    ("lossy-adaptive / 2x2 / threaded / overlapped", 0xadc81da9d01a39c5, 5826, 189888, 15952, 8112),
];

fn table(rows: &[Row]) -> String {
    rows.iter()
        .map(|(label, loss, bwd, ar, fwd)| {
            format!("    ({label:?}, {loss:#018x}, {bwd}, {ar}, {fwd}),\n")
        })
        .collect()
}

#[test]
fn exchange_numerics_are_pinned() {
    let rows = grid();
    assert_eq!(
        rows.len(),
        GOLDEN.len(),
        "golden table size; computed:\n{}",
        table(rows)
    );
    for (
        (label, loss, bwd, ar, fwd),
        &(want_label, want_loss, want_bwd, want_ar, full_fwd, per_sample_bwd),
    ) in rows.iter().zip(GOLDEN)
    {
        assert_eq!(
            (label.as_str(), *loss, *bwd, *ar),
            (want_label, want_loss, want_bwd, want_ar),
            "exchange numerics moved; computed:\n{}",
            table(rows)
        );
        assert!(
            *fwd <= full_fwd,
            "{label}: forward bytes {fwd} above the full-row exchange's {full_fwd}"
        );
        assert!(
            *bwd <= per_sample_bwd,
            "{label}: backward bytes {bwd} above the per-sample exchange's {per_sample_bwd}"
        );
    }
}

#[test]
fn distinct_rows_shrink_the_forward_exchange() {
    let rows = grid();
    let sent: u64 = rows.iter().map(|r| r.4).sum();
    let full_rows: u64 = GOLDEN.iter().map(|g| g.4).sum();
    assert!(
        sent < full_rows,
        "forward bytes {sent} did not fall below the full-row exchange's {full_rows}"
    );
}

#[test]
fn distinct_rows_shrink_the_backward_exchange() {
    let rows = grid();
    let sent: u64 = rows.iter().map(|r| r.2).sum();
    let per_sample: u64 = GOLDEN.iter().map(|g| g.5).sum();
    assert!(
        sent < per_sample,
        "backward bytes {sent} did not fall below the per-sample exchange's {per_sample}"
    );
}
