//! Micro-benchmark of the synthetic input stream at the benchmark's shape
//! (`criteo_kaggle_like`, world 4, global batch 512): one
//! `next_batch_into` of the whole global batch into its 4 shards (what a
//! `BatchFeed` step costs the rank or frontend that draws it), and 512 Zipf
//! draws from the preset's largest table (174 000 categories), the
//! inversion the draw makes 26 times per sample.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dlrm_data::{presets, MiniBatch, SyntheticCriteo, Zipf};
use dlrm_tensor::SeededRng;

const GLOBAL_BATCH: usize = 512;
const WORLD: usize = 4;

fn bench_input(c: &mut Criterion) {
    let dataset = presets::criteo_kaggle_like();
    let largest = dataset
        .tables
        .iter()
        .max_by_key(|t| t.cardinality)
        .expect("the preset has tables");
    let zipf = Zipf::new(largest.cardinality, largest.zipf_exponent);
    let mut generator = SyntheticCriteo::new(dataset.clone(), 1);
    let mut shards: Vec<MiniBatch> = Vec::new();
    let mut rng = SeededRng::new(2);

    let mut group = c.benchmark_group("input");
    group.throughput(Throughput::Elements(GLOBAL_BATCH as u64));
    group.bench_function("next_batch_into 512 -> 4 shards", |b| {
        b.iter(|| {
            generator.next_batch_into(GLOBAL_BATCH, WORLD, &mut shards);
            black_box(&shards);
        })
    });
    group.bench_function(
        format!("zipf sample x512, {} categories", largest.cardinality),
        |b| {
            b.iter(|| {
                (0..GLOBAL_BATCH).fold(0usize, |acc, _| acc ^ zipf.sample(black_box(&mut rng)))
            })
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(200);
    targets = bench_input
}
criterion_main!(benches);
