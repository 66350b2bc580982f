//! Checkpoint-path benchmarks: section encode/decode throughput per
//! codec kind on an embedding-shard-sized payload, and one full elastic
//! recovery (rank loss mid-run, compressed restore, replay) end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dlrm_adaptive::CodecProfile;
use dlrm_bench::workloads::{sampled_traffic, Scale};
use dlrm_ckpt::{CheckpointSpec, EncodedSection};
use dlrm_comm::{FaultPlan, NetworkConfig};
use dlrm_compress::CompressorKind;
use dlrm_data::presets;
use dlrm_grad::{GradCodecKind, GradScratch};
use dlrm_trainer::{run_training, CompressionSetting, FaultSetting, TrainerConfig};

/// World size the rank-loss run starts from.
const FAULT_WORLD: usize = 4;

/// Iterations of the rank-loss run.
const FAULT_ITERS: usize = 24;

/// Hybrid-compressed training on the tiny preset whose last rank dies at
/// the midpoint: it rolls back to the last checkpoint (error-bounded hybrid
/// sections every 4 iterations), re-shards the lost rank's tables over the
/// survivors and replays. Analytic codec throughputs and compute scaled far
/// down make the run's cost the checkpoint, restore and replay path rather
/// than this CPU's MLP.
fn fault_trainer() -> TrainerConfig {
    let ckpt = CheckpointSpec::new(
        4,
        GradCodecKind::ErrorBounded {
            compressor: CompressorKind::OursHybrid,
            error_bound: 1e-3,
        },
    );
    let loss = FaultPlan::none().with_rank_loss(FAULT_ITERS / 2, FAULT_WORLD - 1);
    let mut cfg =
        TrainerConfig::small_test(CompressionSetting::fixed(0.05, CompressorKind::OursHybrid))
            .with_codec_profile(CodecProfile::paper_reference().with(
                CompressorKind::OursHybrid,
                2e9,
                10e9,
            ))
            .with_fault(FaultSetting::new(loss).with_checkpoint(ckpt));
    cfg.world = FAULT_WORLD;
    cfg.iterations = FAULT_ITERS;
    cfg.learning_rate = 0.05;
    cfg.network = NetworkConfig::alltoall_bound(2e9);
    cfg.compute_time_scale = 1.0 / 50_000.0;
    cfg
}

fn bench_ckpt_codec(c: &mut Criterion) {
    let dataset = presets::criteo_kaggle_like();
    let samples = sampled_traffic(&dataset, Scale::Quick, 11);
    let shard: Vec<f32> = samples[8]
        .iter()
        .chain(samples[2].iter())
        .copied()
        .collect();
    let bytes = (shard.len() * 4) as u64;

    let kinds = [
        GradCodecKind::Fp16,
        GradCodecKind::ErrorBounded {
            compressor: CompressorKind::OursHybrid,
            error_bound: 1e-3,
        },
    ];
    let mut group = c.benchmark_group("ckpt-codec");
    group.throughput(Throughput::Bytes(bytes));
    for kind in kinds {
        let (codec, mut scratch) = (kind.build(), GradScratch::new());
        let mut encode =
            |data: &[f32]| EncodedSection::encode(&codec, data, data.len(), &mut scratch);
        group.bench_with_input(
            BenchmarkId::new("encode", kind.label()),
            &shard,
            |b, data| {
                b.iter(|| encode(data).encoded_bytes());
            },
        );
        let section = encode(&shard);
        let mut out = Vec::new();
        group.bench_with_input(
            BenchmarkId::new("decode", kind.label()),
            &section,
            |b, section| {
                b.iter(|| {
                    (section.decode_into(&codec, &mut scratch, &mut out))
                        .expect("a section this codec wrote decodes");
                    out.len()
                });
            },
        );
    }
    group.finish();
}

fn bench_elastic_recovery(c: &mut Criterion) {
    // One full rank-loss run: checkpoint cadence, rollback, re-shard,
    // replay — the end-to-end cost of elasticity at quick scale.
    let dataset = presets::tiny();
    let cfg = fault_trainer();
    let mut group = c.benchmark_group("elastic-recovery");
    group.sample_size(10);
    group.bench_function("rank-loss-replay", |b| {
        b.iter(|| run_training(&dataset, &cfg).recovery_iterations);
    });
    group.finish();
}

criterion_group!(benches, bench_ckpt_codec, bench_elastic_recovery);
criterion_main!(benches);
