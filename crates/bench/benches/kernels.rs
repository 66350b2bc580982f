//! Micro-benchmark of the dense path's kernels at the shapes the benchmark's
//! workloads run (`criteo_kaggle_like`, world 4, global batch 512 → local
//! batch 128): the three matmul flavours at the top MLP's first layer
//! (383 → 128), the 27×32 feature interaction forward and backward, and the
//! whole `forward_dense` / `backward_dense` they add up to.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dlrm_data::{presets, EmbeddingTrafficGenerator, SyntheticCriteo};
use dlrm_model::{interaction, Dlrm, DlrmConfig};
use dlrm_tensor::Matrix;

const LOCAL_BATCH: usize = 128;

fn pattern(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 7 + j * 3 + salt) % 13) as f32 * 0.01 - 0.05
    })
}

fn bench_matmul(c: &mut Criterion) {
    let (k, n) = (383, 128);
    let x = pattern(LOCAL_BATCH, k, 0);
    let w = pattern(k, n, 1);
    let dy = pattern(LOCAL_BATCH, n, 2);

    let mut group = c.benchmark_group("matmul");
    group.throughput(Throughput::Elements((2 * LOCAL_BATCH * k * n) as u64));
    group.bench_function("matmul 128x383 . 383x128", |b| {
        b.iter(|| black_box(&x).matmul(black_box(&w)))
    });
    group.bench_function("matmul_bt 128x128 . (383x128)^T", |b| {
        b.iter(|| black_box(&dy).matmul_bt(black_box(&w)))
    });
    group.bench_function("matmul_at (128x383)^T . 128x128", |b| {
        b.iter(|| black_box(&x).matmul_at(black_box(&dy)))
    });
    group.finish();
}

fn bench_interaction(c: &mut Criterion) {
    let (tables, dim) = (26, 32);
    let bottom = pattern(LOCAL_BATCH, dim, 3);
    let embeddings: Vec<Matrix> = (0..tables)
        .map(|t| pattern(LOCAL_BATCH, dim, 4 + t))
        .collect();
    let (out, cache) = interaction::forward(&bottom, &embeddings);
    let grad_out = pattern(LOCAL_BATCH, out.cols(), 5);

    let mut group = c.benchmark_group("interaction 27x32");
    group.throughput(Throughput::Elements(LOCAL_BATCH as u64));
    group.bench_function("forward", |b| {
        b.iter(|| interaction::forward(black_box(&bottom), black_box(&embeddings)))
    });
    group.bench_function("backward", |b| {
        b.iter(|| interaction::backward(black_box(&cache), black_box(&grad_out)))
    });
    group.finish();
}

fn bench_dense(c: &mut Criterion) {
    let dataset = presets::criteo_kaggle_like();
    let model = Dlrm::new_partial(DlrmConfig::from_dataset(&dataset), 1, Some(&[]));
    let batch = SyntheticCriteo::new(dataset.clone(), 1).next_batch(LOCAL_BATCH);
    let mut traffic = EmbeddingTrafficGenerator::new(dataset, 1);
    let lookups = traffic.all_tables_batch(LOCAL_BATCH);
    let cache = model.forward_dense(&batch.dense, &lookups);

    let mut group = c.benchmark_group("dense criteo_kaggle_like");
    group.throughput(Throughput::Elements(LOCAL_BATCH as u64));
    group.bench_function("forward_dense", |b| {
        b.iter(|| model.forward_dense(black_box(&batch.dense), black_box(&lookups)))
    });
    group.bench_function("backward_dense", |b| {
        b.iter(|| model.backward_dense(black_box(&cache), black_box(&batch.labels)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_matmul, bench_interaction, bench_dense
}
criterion_main!(benches);
