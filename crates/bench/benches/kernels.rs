//! Micro-benchmark of the dense path's kernels at the shapes the benchmark's
//! workloads run (`criteo_kaggle_like`, world 4, global batch 512 → local
//! batch 128): the three matmul flavours at the top MLP's first layer
//! (383 → 128), `matmul` and `matmul_at` also with a post-ReLU left operand
//! and `matmul` with a 70 %-zero one (the interaction output on codec-like
//! lookups), `matmul_bt` with half of `dY` masked, the second top layer's
//! post-ReLU products (128 → 64), one `vecmat` and one `dots` at the first
//! layer's shape and `dots` at the interaction's, the 27×32 feature
//! interaction forward and backward on zero-free and on codec-like lookups
//! (half the vectors exact zeros), and the whole `forward_dense` /
//! `backward_dense` they add up to, with the backward pass also in its two
//! halves: `backward_embeddings` (what the backward exchange waits for) and
//! `backward_weights` (what the trainer runs while it is in flight). It
//! prints the lane body the CPU picked first.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dlrm_data::{presets, EmbeddingTrafficGenerator, SyntheticCriteo};
use dlrm_model::{interaction, Dlrm, DlrmConfig};
use dlrm_tensor::{matrix, ops, Matrix, SeededRng};

const LOCAL_BATCH: usize = 128;
const SAMPLES: usize = 50;

fn pattern(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 7 + j * 3 + salt) % 13) as f32 * 0.01 - 0.05
    })
}

fn bench_matmul(c: &mut Criterion) {
    // Every row below ran on this body of the kernels; the CPU picks it.
    println!("dense kernels: {} lanes", matrix::lane_path());
    let (k, n) = (383, 128);
    let x = pattern(LOCAL_BATCH, k, 0);
    let w = pattern(k, n, 1);
    let dy = pattern(LOCAL_BATCH, n, 2);
    // A post-ReLU activation, like the MLP's real left operands: half its
    // elements are exact zeros, at random positions, which `matmul` and
    // `matmul_at` skip.
    let mut rng = SeededRng::new(3);
    let relu = Matrix::from_fn(LOCAL_BATCH, k, |_, _| ops::relu(rng.uniform(-1.0, 1.0)));
    // The interaction output on codec-like lookups: about 70 % zeros.
    let sparse = Matrix::from_fn(LOCAL_BATCH, k, |_, _| {
        if rng.index(10) < 7 {
            0.0
        } else {
            rng.uniform(-1.0, 1.0)
        }
    });
    // A ReLU-masked output gradient: half its elements are exact zeros.
    let masked = Matrix::from_fn(LOCAL_BATCH, n, |_, _| {
        if rng.index(2) == 0 {
            0.0
        } else {
            rng.uniform(-1.0, 1.0)
        }
    });
    // The second top layer (128 -> 64): post-ReLU input, its output gradient.
    let (hidden, w2) = (
        Matrix::from_fn(LOCAL_BATCH, n, |_, _| ops::relu(rng.uniform(-1.0, 1.0))),
        pattern(n, 64, 4),
    );
    let dy2 = pattern(LOCAL_BATCH, 64, 5);

    let mut group = c.benchmark_group("matmul");
    group.throughput(Throughput::Elements((2 * LOCAL_BATCH * k * n) as u64));
    group.bench_function("matmul 128x383 . 383x128", |b| {
        b.iter(|| black_box(&x).matmul(black_box(&w)))
    });
    group.bench_function("matmul relu(128x383) . 383x128", |b| {
        b.iter(|| black_box(&relu).matmul(black_box(&w)))
    });
    group.bench_function("matmul 70%-zero(128x383) . 383x128", |b| {
        b.iter(|| black_box(&sparse).matmul(black_box(&w)))
    });
    group.bench_function("matmul_bt 128x128 . (383x128)^T", |b| {
        b.iter(|| black_box(&dy).matmul_bt(black_box(&w)))
    });
    group.bench_function("matmul_bt half-zero(128x128) . (383x128)^T", |b| {
        b.iter(|| black_box(&masked).matmul_bt(black_box(&w)))
    });
    group.bench_function("matmul_at (128x383)^T . 128x128", |b| {
        b.iter(|| black_box(&x).matmul_at(black_box(&dy)))
    });
    group.bench_function("matmul_at relu(128x383)^T . 128x128", |b| {
        b.iter(|| black_box(&relu).matmul_at(black_box(&dy)))
    });
    group.bench_function("matmul relu(128x128) . 128x64", |b| {
        b.iter(|| black_box(&hidden).matmul(black_box(&w2)))
    });
    group.bench_function("matmul_at relu(128x128)^T . 128x64", |b| {
        b.iter(|| black_box(&hidden).matmul_at(black_box(&dy2)))
    });
    group.finish();
}

fn bench_vectors(c: &mut Criterion) {
    let (k, n) = (383, 128);
    let x = pattern(1, k, 6);
    let w = pattern(k, n, 7);
    let mut out = vec![0.0; n];
    let mut group = c.benchmark_group("vectors");
    group.bench_function("vecmat 383 . 383x128", |b| {
        b.iter(|| matrix::vecmat(black_box(x.as_slice()), black_box(w.as_slice()), &mut out))
    });
    let (y, rows) = (pattern(1, n, 8), pattern(k, n, 9));
    let mut out = vec![0.0; k];
    group.bench_function("dots 128 . (383x128)^T", |b| {
        b.iter(|| {
            matrix::dots(
                black_box(y.as_slice()),
                black_box(rows.as_slice()),
                &mut out,
            )
        })
    });
    // The interaction forward's shape: the last feature against 24 earlier.
    let (y, rows) = (pattern(1, 32, 10), pattern(24, 32, 11));
    let mut out = vec![0.0; 24];
    group.bench_function("dots 32 . (24x32)^T", |b| {
        b.iter(|| {
            matrix::dots(
                black_box(y.as_slice()),
                black_box(rows.as_slice()),
                &mut out,
            )
        })
    });
    group.finish();
}

fn bench_interaction(c: &mut Criterion) {
    let (tables, dim) = (26, 32);
    let bottom = pattern(LOCAL_BATCH, dim, 3);
    let embeddings: Vec<Matrix> = (0..tables)
        .map(|t| pattern(LOCAL_BATCH, dim, 4 + t))
        .collect();
    // Codec-like lookups: the error-bounded quantizer returns about half the
    // lookup vectors as exact zero vectors.
    let mut rng = SeededRng::new(6);
    let mut codec_like = embeddings.clone();
    for table in &mut codec_like {
        for i in 0..LOCAL_BATCH {
            if rng.index(2) == 0 {
                table.row_mut(i).fill(0.0);
            }
        }
    }
    for (name, embeddings) in [("27x32", &embeddings), ("27x32 codec-like", &codec_like)] {
        let (out, cache) = interaction::forward(&bottom, embeddings);
        let grad_out = pattern(LOCAL_BATCH, out.cols(), 5);
        let mut group = c.benchmark_group(format!("interaction {name}"));
        group.throughput(Throughput::Elements(LOCAL_BATCH as u64));
        group.bench_function("forward", |b| {
            b.iter(|| interaction::forward(black_box(&bottom), black_box(embeddings)))
        });
        group.bench_function("backward", |b| {
            b.iter(|| interaction::backward(black_box(&cache), black_box(&grad_out)))
        });
        group.finish();
    }
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
    group.bench_function("backward_embeddings", |b| {
        b.iter(|| model.backward_embeddings(black_box(&cache), black_box(&batch.labels)))
    });
    // `backward_weights` consumes the embedding half: hand each call its own
    // copy, made outside the timed region (one per sample plus the warm-up).
    let back = model.backward_embeddings(&cache, &batch.labels);
    let mut backs = vec![back.clone(); SAMPLES + 1];
    group.bench_function("backward_weights", |b| {
        b.iter(|| {
            let back = backs.pop().unwrap_or_else(|| back.clone());
            model.backward_weights(black_box(&cache), back)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(SAMPLES);
    targets = bench_matmul, bench_vectors, bench_interaction, bench_dense
}
criterion_main!(benches);
