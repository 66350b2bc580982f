//! Criterion micro-benchmark behind Figure 11: compression and decompression
//! throughput of every registered compressor on DLRM-like embedding traffic,
//! plus the hybrid codec's kernel rows at the two shapes the pipeline really
//! feeds it: one 128×32 chunk per destination (training, local batch 128) and
//! one 25×32 row group (a serving fetch), through the allocation-free
//! `compress_into` / `decompress_into` the trainer and the server call —
//! and the two rounding front-ends on their own: `quantize_into` on the
//! training chunks and the dense path's lattice encode on a gradient shard.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dlrm_bench::workloads::{sampled_traffic, Scale};
use dlrm_compress::{quant, CompressScratch, CompressorKind};
use dlrm_data::{presets, EmbeddingTrafficGenerator};
use dlrm_grad::{GradCodecKind, GradScratch};

fn bench_compressors(c: &mut Criterion) {
    let dataset = presets::criteo_kaggle_like();
    let samples = sampled_traffic(&dataset, Scale::Quick, 7);
    // One representative repeat-heavy table and one spread-out table.
    let payload: Vec<f32> = samples[8]
        .iter()
        .chain(samples[2].iter())
        .copied()
        .collect();
    let dim = dataset.embedding_dim;
    let bytes = (payload.len() * 4) as u64;

    let mut group = c.benchmark_group("compress");
    group.throughput(Throughput::Bytes(bytes));
    for &kind in CompressorKind::all() {
        let comp = kind.build();
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &payload,
            |b, data| {
                b.iter(|| comp.compress(data, dim, 0.01).expect("compress"));
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("decompress");
    group.throughput(Throughput::Bytes(bytes));
    for &kind in CompressorKind::all() {
        let comp = kind.build();
        let compressed = comp.compress(&payload, dim, 0.01).expect("compress");
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &compressed,
            |b, data| {
                b.iter(|| comp.decompress(data).expect("decompress"));
            },
        );
    }
    group.finish();
}

/// One iteration of a row is the whole table set: 26 chunks of `rows`×32,
/// one lookup batch per table of the Kaggle-like preset (both back-ends win
/// some tables under `Auto`).
fn bench_pipeline_shapes(c: &mut Criterion) {
    let dataset = presets::criteo_kaggle_like();
    let dim = dataset.embedding_dim;
    for (rows, eb) in [(128usize, 0.02f32), (25, 0.05)] {
        let mut traffic = EmbeddingTrafficGenerator::new(dataset.clone(), 7);
        let chunks: Vec<Vec<f32>> = (0..dataset.num_tables())
            .map(|t| traffic.lookup_batch(t, rows).into_vec())
            .collect();
        let mut group = c.benchmark_group(format!("hybrid {rows}x{dim} x{}", chunks.len()));
        group.throughput(Throughput::Bytes((chunks.len() * rows * dim * 4) as u64));
        for (label, kind) in [
            ("Auto", CompressorKind::OursHybrid),
            ("Vlz", CompressorKind::OursVector),
            ("Huffman", CompressorKind::OursHuffman),
        ] {
            let comp = kind.build();
            let mut scratch = CompressScratch::new();
            let mut bytes = Vec::new();
            group.bench_function(BenchmarkId::new("encode", label), |b| {
                b.iter(|| {
                    for chunk in &chunks {
                        bytes.clear();
                        comp.compress_into(black_box(chunk), dim, eb, &mut scratch, &mut bytes)
                            .expect("compress");
                    }
                })
            });
            let streams: Vec<Vec<u8>> = chunks
                .iter()
                .map(|chunk| comp.compress(chunk, dim, eb).expect("compress"))
                .collect();
            let mut values = Vec::new();
            group.bench_function(BenchmarkId::new("decode", label), |b| {
                b.iter(|| {
                    for stream in &streams {
                        values.clear();
                        comp.decompress_into(black_box(stream), &mut scratch, &mut values)
                            .expect("decompress");
                    }
                })
            });
        }
        group.finish();
    }
}

/// The quantizer in front of every hybrid stream, on the training row's 26
/// chunks, and the lattice quantizer of the homomorphic all-reduce on a
/// gradient-shaped shard (small values, nothing saturating at 1e-3).
fn bench_rounding_front_ends(c: &mut Criterion) {
    let dataset = presets::criteo_kaggle_like();
    let mut traffic = EmbeddingTrafficGenerator::new(dataset.clone(), 7);
    let chunks: Vec<Vec<f32>> = (0..dataset.num_tables())
        .map(|t| traffic.lookup_batch(t, 128).into_vec())
        .collect();
    let values: usize = chunks.iter().map(Vec::len).sum();
    let mut group = c.benchmark_group("rounding");
    group.throughput(Throughput::Bytes((values * 4) as u64));
    let mut codes = Vec::new();
    group.bench_function("quantize_into", |b| {
        b.iter(|| {
            for chunk in &chunks {
                quant::quantize_into(black_box(chunk), 0.02, &mut codes).expect("quantize");
            }
        })
    });

    let grads: Vec<f32> = (0..values)
        .map(|i| (i as f32 * 0.37).sin() * 4e-3)
        .collect();
    let codec = GradCodecKind::Lattice { error_bound: 1e-3 }.build();
    let mut scratch = GradScratch::new();
    let mut encoded = Vec::new();
    group.bench_function("lattice_encode", |b| {
        b.iter(|| {
            encoded.clear();
            codec.encode_into(black_box(&grads), &mut scratch, &mut encoded);
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_compressors, bench_pipeline_shapes, bench_rounding_front_ends
}
criterion_main!(benches);
