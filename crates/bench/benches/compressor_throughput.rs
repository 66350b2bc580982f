//! Criterion micro-benchmark behind Figure 11: compression and decompression
//! throughput of every registered compressor on DLRM-like embedding traffic,
//! plus the hybrid codec's kernel rows at the two shapes the pipeline really
//! feeds it: one 128×32 chunk per destination (training, local batch 128) and
//! one 25×32 row group (a serving fetch), through the allocation-free
//! `compress_into` / `decompress_into` the trainer and the server call;
//! a real serving fetch group (25 rows of a 174 k-row table's initial
//! weights) through the fetch codec as one long row and at the table's row
//! width; and the two rounding front-ends on their own: `quantize_into` on
//! the training chunks and the dense path's lattice encode on a gradient
//! shard.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dlrm_bench::workloads::{sampled_traffic, Scale};
use dlrm_compress::{quant, CompressScratch, CompressorKind};
use dlrm_data::{presets, EmbeddingTrafficGenerator};
use dlrm_grad::{GradCodecKind, GradScratch};
use dlrm_model::EmbeddingTable;
use dlrm_tensor::SeededRng;

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

/// What an owner encodes for one serving fetch: 25 rows of the largest
/// Kaggle-like table (174 k rows) at their initial weights, ±1/√174 k, so
/// every code is zero at the serving bound 0.05. As one long row (how
/// fetch groups were encoded before they took the row width) vector-LZ sees
/// one 800-value literal and the Huffman stream pays its length table; at
/// `dim` vector-LZ sends one zero row and 24 one-byte matches.
fn bench_serving_fetch_group(c: &mut Criterion) {
    let (cardinality, dim, rows) = (174_000usize, 32usize, 25usize);
    let table = EmbeddingTable::new(2, cardinality, dim, &mut SeededRng::new(7));
    let ids: Vec<u32> = (0..rows)
        .map(|i| (i * (cardinality / rows)) as u32)
        .collect();
    let mut group_rows = Vec::new();
    table.lookup_into(&ids, &mut group_rows);
    let codec = GradCodecKind::ErrorBounded {
        compressor: CompressorKind::OursHybrid,
        error_bound: 0.05,
    }
    .build();
    let mut group = c.benchmark_group(format!("serving fetch {rows}x{dim} initial weights"));
    group.throughput(Throughput::Bytes((group_rows.len() * 4) as u64));
    let mut scratch = GradScratch::new();
    for (label, width) in [("long row", group_rows.len()), ("dim", dim)] {
        let mut bytes = Vec::new();
        group.bench_function(BenchmarkId::new("encode", label), |b| {
            b.iter(|| {
                bytes.clear();
                codec.encode_rows_into(black_box(&group_rows), width, &mut scratch, &mut bytes);
            })
        });
        let mut values = Vec::new();
        group.bench_function(BenchmarkId::new("decode", label), |b| {
            b.iter(|| {
                values.clear();
                codec
                    .decode_into(black_box(&bytes), &mut scratch, &mut values)
                    .expect("decode");
            })
        });
        println!("serving fetch group, {label}: {} bytes", bytes.len());
    }
    group.finish();
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
    targets = bench_compressors, bench_pipeline_shapes, bench_serving_fetch_group,
        bench_rounding_front_ends
}
criterion_main!(benches);
