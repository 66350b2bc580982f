//! The dense pass, pinned by bits: the FNV of `forward_dense`'s logits and of
//! `backward_dense`'s flat MLP gradients and embedding gradients at the
//! benchmark's shape (`criteo_kaggle_like`, local batch 128, seed 1).
//!
//! The dense kernels guarantee a summation order that is a function of the
//! operand shapes alone, so a rewrite of them that keeps that order must pass
//! this table unmodified. A change here means every loss, gradient and
//! fingerprint downstream moved.

use dlrm_data::{presets, EmbeddingTrafficGenerator, SyntheticCriteo};
use dlrm_model::{Dlrm, DlrmConfig};
use dlrm_tensor::SeededRng;

const LOCAL_BATCH: usize = 128;

/// `(logits, flat MLP gradients, embedding gradients)` FNVs, captured with
/// the row-at-a-time kernels the register-blocked ones replaced.
const PINNED: (u64, u64, u64) = (
    11_438_893_357_781_917_968,
    10_236_258_065_918_326_565,
    4_782_322_704_470_129_418,
);

fn fnv(values: impl IntoIterator<Item = f32>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn dense_pass_bits_are_pinned() {
    let dataset = presets::criteo_kaggle_like();
    let model = Dlrm::new_partial(DlrmConfig::from_dataset(&dataset), 1, Some(&[]));
    let batch = SyntheticCriteo::new(dataset.clone(), 1).next_batch(LOCAL_BATCH);
    let lookups = EmbeddingTrafficGenerator::new(dataset, 1).all_tables_batch(LOCAL_BATCH);

    let cache = model.forward_dense(&batch.dense, &lookups);
    let grads = model.backward_dense(&cache, &batch.labels);
    let embedding_grads = grads.embedding_grads.iter().flat_map(|g| g.as_slice());
    let got = (
        fnv(cache.logits.iter().copied()),
        fnv(model.flatten_mlp_grads(&grads)),
        fnv(embedding_grads.copied()),
    );
    assert_eq!(got, PINNED, "(logits, MLP grads, embedding grads) FNV");
}

/// The same pin through the split halves the trainer runs around its
/// exchanges: the bottom MLP, then the rest of the forward pass; the
/// embedding-gradient half of the backward pass, then the weight half.
#[test]
fn split_dense_pass_bits_are_pinned() {
    let dataset = presets::criteo_kaggle_like();
    let model = Dlrm::new_partial(DlrmConfig::from_dataset(&dataset), 1, Some(&[]));
    let batch = SyntheticCriteo::new(dataset.clone(), 1).next_batch(LOCAL_BATCH);
    let lookups = EmbeddingTrafficGenerator::new(dataset, 1).all_tables_batch(LOCAL_BATCH);

    let bottom = model.forward_bottom(&batch.dense);
    let cache = model.forward_top(bottom, &lookups);
    let back = model.backward_embeddings(&cache, &batch.labels);
    let embedding_fnv = fnv(back
        .embedding_grads
        .iter()
        .flat_map(|g| g.as_slice())
        .copied());
    let grads = model.backward_weights(&cache, back);
    let got = (
        fnv(cache.logits.iter().copied()),
        fnv(model.flatten_mlp_grads(&grads)),
        embedding_fnv,
    );
    assert_eq!(got, PINNED, "(logits, MLP grads, embedding grads) FNV");
}

/// `(logits, flat MLP gradients, embedding gradients)` FNVs of
/// [`zero_lookup_dense_pass_bits_are_pinned`], captured with the kernels
/// that computed every pair and skipped zeros one element at a time.
const PINNED_ZERO_LOOKUPS: (u64, u64, u64) = (
    5_421_901_057_390_181_937,
    1_909_940_092_598_278_567,
    9_426_738_663_180_586_652,
);

/// The dense pass on codec-like lookups: the error-bounded quantizer sends
/// every vector of a large table as zeros, so about half the (sample, table)
/// lookup vectors reaching the dense pass are exact zero vectors. Here half
/// of them are, and half of those are `-0.0` in every element. The two pins
/// above use lookups with no zero vector, so they never reach the kernels'
/// zero paths; this one does, through the fused and the split pass alike.
#[test]
fn zero_lookup_dense_pass_bits_are_pinned() {
    let dataset = presets::criteo_kaggle_like();
    let model = Dlrm::new_partial(DlrmConfig::from_dataset(&dataset), 1, Some(&[]));
    let batch = SyntheticCriteo::new(dataset.clone(), 1).next_batch(LOCAL_BATCH);
    let mut lookups = EmbeddingTrafficGenerator::new(dataset, 1).all_tables_batch(LOCAL_BATCH);
    let mut rng = SeededRng::new(2);
    for table in &mut lookups {
        for i in 0..LOCAL_BATCH {
            match rng.index(4) {
                0 => table.row_mut(i).fill(0.0),
                1 => table.row_mut(i).fill(-0.0),
                _ => {}
            }
        }
    }

    let cache = model.forward_dense(&batch.dense, &lookups);
    let grads = model.backward_dense(&cache, &batch.labels);
    let embedding_grads = grads.embedding_grads.iter().flat_map(|g| g.as_slice());
    let got = (
        fnv(cache.logits.iter().copied()),
        fnv(model.flatten_mlp_grads(&grads)),
        fnv(embedding_grads.copied()),
    );
    assert_eq!(
        got, PINNED_ZERO_LOOKUPS,
        "(logits, MLP grads, embedding grads) FNV"
    );

    let cache = model.forward_top(model.forward_bottom(&batch.dense), &lookups);
    let back = model.backward_embeddings(&cache, &batch.labels);
    let embedding_fnv = fnv(back
        .embedding_grads
        .iter()
        .flat_map(|g| g.as_slice())
        .copied());
    let grads = model.backward_weights(&cache, back);
    let split = (
        fnv(cache.logits.iter().copied()),
        fnv(model.flatten_mlp_grads(&grads)),
        embedding_fnv,
    );
    assert_eq!(
        split, PINNED_ZERO_LOOKUPS,
        "split pass: (logits, MLP grads, embedding grads) FNV"
    );
}
