//! The full DLRM, wired for both single-process training and the split
//! (hybrid-parallel) execution the distributed trainer needs.

use crate::embedding::EmbeddingTable;
use crate::interaction;
use crate::metrics::EvalMetrics;
use crate::mlp::{Mlp, MlpCache, MlpChain, MlpGrads};
use dlrm_data::{DatasetConfig, MiniBatch};
use dlrm_tensor::{ops, Matrix, SeededRng};

/// Architecture description of a DLRM.
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmConfig {
    /// Number of dense (continuous) input features.
    pub num_dense: usize,
    /// Embedding dimension shared by all tables and the bottom-MLP output.
    pub embedding_dim: usize,
    /// Cardinality of each embedding table, in table order.
    pub table_cardinalities: Vec<usize>,
    /// Hidden-layer widths of the bottom MLP (input and output widths are
    /// implied by `num_dense` and `embedding_dim`).
    pub bottom_hidden: Vec<usize>,
    /// Hidden-layer widths of the top MLP (the output width is 1).
    pub top_hidden: Vec<usize>,
}

impl DlrmConfig {
    /// Derive a model configuration from a dataset preset, with hidden sizes
    /// scaled to the embedding dimension (mirroring the reference DLRM's
    /// Criteo configurations at laptop scale).
    pub fn from_dataset(dataset: &DatasetConfig) -> Self {
        let d = dataset.embedding_dim;
        Self {
            num_dense: dataset.num_dense,
            embedding_dim: d,
            table_cardinalities: dataset.tables.iter().map(|t| t.cardinality).collect(),
            bottom_hidden: vec![4 * d, 2 * d],
            top_hidden: vec![4 * d, 2 * d],
        }
    }

    /// Number of embedding tables.
    pub fn num_tables(&self) -> usize {
        self.table_cardinalities.len()
    }

    /// Bottom-MLP layer widths: `num_dense -> hidden… -> embedding_dim`.
    pub fn bottom_dims(&self) -> Vec<usize> {
        let mut dims = vec![self.num_dense];
        dims.extend_from_slice(&self.bottom_hidden);
        dims.push(self.embedding_dim);
        dims
    }

    /// Width of the interaction output feeding the top MLP.
    pub fn interaction_dim(&self) -> usize {
        interaction::output_dim(self.embedding_dim, self.num_tables())
    }

    /// Top-MLP layer widths: `interaction_dim -> hidden… -> 1`.
    pub fn top_dims(&self) -> Vec<usize> {
        let mut dims = vec![self.interaction_dim()];
        dims.extend_from_slice(&self.top_hidden);
        dims.push(1);
        dims
    }
}

/// Forward-pass cache of the data-parallel ("dense") part of the model.
#[derive(Debug, Clone)]
pub struct DenseCache {
    bottom: MlpCache,
    interaction: interaction::InteractionCache,
    top: MlpCache,
    /// Raw CTR logits, one per sample.
    pub logits: Vec<f32>,
}

/// The bottom MLP's output and cache: what [`Dlrm::forward_bottom`] hands
/// to [`Dlrm::forward_top`].
#[derive(Debug, Clone)]
pub struct BottomForward {
    out: Matrix,
    cache: MlpCache,
}

/// The first half of [`Dlrm::backward_dense`], from
/// [`Dlrm::backward_embeddings`]: the embedding gradients plus what
/// [`Dlrm::backward_weights`] needs to finish the MLP parameter gradients.
#[derive(Debug, Clone)]
pub struct EmbeddingBackward {
    /// Gradient w.r.t. each table's lookup matrix (`batch x dim`, table
    /// order) — the payload of the backward all-to-all.
    pub embedding_grads: Vec<Matrix>,
    top: MlpChain,
    grad_bottom_out: Matrix,
}

/// Gradients produced by [`Dlrm::backward_dense`].
#[derive(Debug, Clone)]
pub struct DenseGrads {
    /// Bottom-MLP parameter gradients.
    pub bottom: MlpGrads,
    /// Top-MLP parameter gradients.
    pub top: MlpGrads,
    /// Gradient w.r.t. each table's lookup matrix (`batch x dim`, table
    /// order) — the payload of the backward all-to-all.
    pub embedding_grads: Vec<Matrix>,
}

/// The DLRM: embedding tables + bottom MLP + interaction + top MLP.
#[derive(Debug, Clone)]
pub struct Dlrm {
    config: DlrmConfig,
    embeddings: Vec<EmbeddingTable>,
    bottom: Mlp,
    top: Mlp,
}

impl Dlrm {
    /// Build a model with reproducible random initialisation.
    pub fn new(config: DlrmConfig, seed: u64) -> Self {
        Self::new_partial(config, seed, None)
    }

    /// Build a model materialising only the embedding tables listed in
    /// `materialize` (all tables if `None`).
    ///
    /// The hybrid-parallel trainer gives every rank a full MLP replica but
    /// only the embedding tables that rank owns; the other tables are
    /// replaced by single-row placeholders that are never looked up or
    /// updated. A materialised table is initialised identically to the one
    /// `Dlrm::new` would create (the per-table RNG stream depends only on the
    /// seed and the table id), so a sharded model and a single-process model
    /// built from the same seed hold the same parameters.
    pub fn new_partial(config: DlrmConfig, seed: u64, materialize: Option<&[usize]>) -> Self {
        assert!(config.num_tables() > 0, "DLRM needs at least one table");
        let root = SeededRng::new(seed);
        let embeddings = config
            .table_cardinalities
            .iter()
            .enumerate()
            .map(|(id, &card)| {
                let mut rng = root.fork(100 + id as u64);
                let card = match materialize {
                    Some(owned) if !owned.contains(&id) => 1,
                    _ => card,
                };
                EmbeddingTable::new(id, card, config.embedding_dim, &mut rng)
            })
            .collect();
        let mut mlp_rng = root.fork(1);
        let bottom = Mlp::new(&config.bottom_dims(), &mut mlp_rng);
        let top = Mlp::new(&config.top_dims(), &mut mlp_rng);
        Self {
            config,
            embeddings,
            bottom,
            top,
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &DlrmConfig {
        &self.config
    }

    /// Borrow an embedding table.
    pub fn embedding(&self, table: usize) -> &EmbeddingTable {
        &self.embeddings[table]
    }

    /// Mutably borrow an embedding table (the trainer uses this to apply
    /// gradients on the owning rank).
    pub fn embedding_mut(&mut self, table: usize) -> &mut EmbeddingTable {
        &mut self.embeddings[table]
    }

    /// Total parameter count of the data-parallel (MLP) part.
    pub fn mlp_param_count(&self) -> usize {
        self.bottom.num_params() + self.top.num_params()
    }

    /// Look up one table for a batch of category indices.
    pub fn lookup(&self, table: usize, indices: &[u32]) -> Matrix {
        self.embeddings[table].lookup(indices)
    }

    /// Look up one table into recycled storage: `storage` is cleared, filled
    /// with the row-major lookup values, and wrapped into the returned
    /// matrix (the trainer hands back last iteration's float buffers here).
    pub fn lookup_with_storage(
        &self,
        table: usize,
        indices: &[u32],
        mut storage: Vec<f32>,
    ) -> Matrix {
        self.embeddings[table].lookup_into(indices, &mut storage);
        Matrix::from_vec(indices.len(), self.config.embedding_dim, storage)
    }

    /// Look up every table for a mini-batch, in table order.
    pub fn lookup_all(&self, batch: &MiniBatch) -> Vec<Matrix> {
        batch
            .sparse
            .iter()
            .enumerate()
            .map(|(t, indices)| self.lookup(t, indices))
            .collect()
    }

    /// Run the data-parallel part of the forward pass: bottom MLP on the
    /// dense features, interaction with the given embedding lookups, top MLP
    /// to a single logit per sample. [`Dlrm::forward_bottom`] then
    /// [`Dlrm::forward_top`].
    pub fn forward_dense(&self, dense: &Matrix, embeddings: &[Matrix]) -> DenseCache {
        self.forward_top(self.forward_bottom(dense), embeddings)
    }

    /// The bottom MLP on the dense features — the part of the forward pass
    /// that needs no embedding lookup.
    pub fn forward_bottom(&self, dense: &Matrix) -> BottomForward {
        // The bottom MLP caches its own copy of the batch's dense features.
        let (out, cache) = self.bottom.forward(dense.clone());
        BottomForward { out, cache }
    }

    /// The rest of the forward pass: interaction of the bottom MLP's output
    /// with the embedding lookups, then the top MLP.
    pub fn forward_top(&self, bottom: BottomForward, embeddings: &[Matrix]) -> DenseCache {
        assert_eq!(
            embeddings.len(),
            self.config.num_tables(),
            "one lookup matrix per table"
        );
        // The interaction output is handed over to the top MLP.
        let (inter_out, inter_cache) = interaction::forward(&bottom.out, embeddings);
        let (top_out, top_cache) = self.top.forward(inter_out);
        DenseCache {
            bottom: bottom.cache,
            interaction: inter_cache,
            top: top_cache,
            logits: top_out.into_vec(),
        }
    }

    /// Mean binary cross-entropy loss of a cached forward pass.
    pub fn loss(cache: &DenseCache, labels: &[f32]) -> f64 {
        ops::bce_mean(&cache.logits, labels) as f64
    }

    /// Gradient of [`Dlrm::loss`] w.r.t. the logits, as a `batch x 1` matrix:
    /// `d(mean BCE)/d(logit_i) = (sigmoid(z_i) - y_i) / batch`.
    fn loss_grad(cache: &DenseCache, labels: &[f32]) -> Matrix {
        let batch = labels.len();
        assert_eq!(cache.logits.len(), batch);
        let pairs = cache.logits.iter().zip(labels);
        let grads = pairs.map(|(&z, &y)| ops::bce_with_logits_grad(z, y) / batch as f32);
        Matrix::from_vec(batch, 1, grads.collect())
    }

    /// Backward pass of the data-parallel part: BCE gradient through the top
    /// MLP, the interaction and the bottom MLP. Returns MLP parameter
    /// gradients and the gradient w.r.t. every table's lookup matrix.
    /// [`Dlrm::backward_embeddings`] then [`Dlrm::backward_weights`].
    pub fn backward_dense(&self, cache: &DenseCache, labels: &[f32]) -> DenseGrads {
        self.backward_weights(cache, self.backward_embeddings(cache, labels))
    }

    /// The half of the backward pass the embedding gradients depend on: the
    /// loss gradient, the top MLP's input-gradient chain and the interaction
    /// backward.
    pub fn backward_embeddings(&self, cache: &DenseCache, labels: &[f32]) -> EmbeddingBackward {
        let grad_logits = Self::loss_grad(cache, labels);
        let (grad_inter_out, top) = self.top.backward_chain(&cache.top, &grad_logits);
        let (grad_bottom_out, embedding_grads) =
            interaction::backward(&cache.interaction, &grad_inter_out);
        EmbeddingBackward {
            embedding_grads,
            top,
            grad_bottom_out,
        }
    }

    /// The other half: the top MLP's parameter gradients and the whole
    /// bottom MLP backward. No embedding gradient depends on it, so it can
    /// run while they are on the wire; the result equals
    /// [`Dlrm::backward_dense`]'s bit for bit.
    pub fn backward_weights(&self, cache: &DenseCache, back: EmbeddingBackward) -> DenseGrads {
        let top = self.top.param_grads(&cache.top, &back.top);
        // The bottom MLP's input is the batch's dense features: no gradient.
        let bottom = self
            .bottom
            .backward_params(&cache.bottom, &back.grad_bottom_out);
        DenseGrads {
            bottom,
            top,
            embedding_grads: back.embedding_grads,
        }
    }

    /// SGD update of both MLPs.
    pub fn apply_mlp_grads(&mut self, bottom: &MlpGrads, top: &MlpGrads, lr: f32) {
        self.bottom.apply_grads(bottom, lr);
        self.top.apply_grads(top, lr);
    }

    /// SGD update of one embedding table from the gradient of its lookups.
    pub fn apply_embedding_grad(&mut self, table: usize, indices: &[u32], grad: &Matrix, lr: f32) {
        self.embeddings[table].apply_sparse_grad(indices, grad, lr);
    }

    /// Flatten both MLPs' gradients into one vector (bottom first), the
    /// payload the distributed trainer all-reduces.
    pub fn flatten_mlp_grads(&self, grads: &DenseGrads) -> Vec<f32> {
        let mut flat = Vec::with_capacity(self.mlp_param_count());
        self.flatten_mlp_grads_into(grads, &mut flat);
        flat
    }

    /// Allocation-free [`Dlrm::flatten_mlp_grads`]: clears and refills `out`,
    /// reusing its capacity.
    pub fn flatten_mlp_grads_into(&self, grads: &DenseGrads, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.mlp_param_count());
        Mlp::flatten_grads_into(&grads.bottom, out);
        Mlp::flatten_grads_into(&grads.top, out);
    }

    /// Flatten both MLPs' *parameters* into one vector, in the layout of
    /// [`Dlrm::flatten_mlp_grads`] (bottom first) — the MLP section of a
    /// checkpoint. *Appends* to `out`.
    pub fn flatten_mlp_params_into(&self, out: &mut Vec<f32>) {
        out.reserve(self.mlp_param_count());
        self.bottom.flatten_params_into(out);
        self.top.flatten_params_into(out);
    }

    /// Overwrite both MLPs' parameters from a flat vector laid out as
    /// [`Dlrm::flatten_mlp_params_into`] produces — checkpoint restore.
    pub fn load_flat_mlp_params(&mut self, flat: &[f32]) {
        let split = self.bottom.num_params();
        assert_eq!(
            flat.len(),
            self.mlp_param_count(),
            "flat parameter size mismatch"
        );
        self.bottom.load_flat_params(&flat[..split]);
        self.top.load_flat_params(&flat[split..]);
    }

    /// Apply a flat gradient vector produced by [`Dlrm::flatten_mlp_grads`]
    /// (possibly averaged across ranks) with SGD.
    pub fn apply_flat_mlp_grads(&mut self, flat: &[f32], lr: f32) {
        let split = self.bottom.num_params();
        assert_eq!(
            flat.len(),
            self.mlp_param_count(),
            "flat gradient size mismatch"
        );
        let bottom = self.bottom.unflatten_grads(&flat[..split]);
        let top = self.top.unflatten_grads(&flat[split..]);
        self.bottom.apply_grads(&bottom, lr);
        self.top.apply_grads(&top, lr);
    }

    /// One single-process SGD step on a mini-batch. Returns pre-update
    /// metrics of the batch.
    pub fn train_step(&mut self, batch: &MiniBatch, lr: f32) -> EvalMetrics {
        let lookups = self.lookup_all(batch);
        let cache = self.forward_dense(&batch.dense, &lookups);
        let metrics = EvalMetrics::from_logits(&cache.logits, &batch.labels);
        let grads = self.backward_dense(&cache, &batch.labels);
        self.apply_mlp_grads(&grads.bottom, &grads.top, lr);
        for (t, grad) in grads.embedding_grads.iter().enumerate() {
            self.apply_embedding_grad(t, &batch.sparse[t], grad, lr);
        }
        metrics
    }

    /// Evaluate without updating parameters.
    pub fn evaluate(&self, batches: &[MiniBatch]) -> EvalMetrics {
        let parts: Vec<EvalMetrics> = batches
            .iter()
            .map(|b| {
                let lookups = self.lookup_all(b);
                let cache = self.forward_dense(&b.dense, &lookups);
                EvalMetrics::from_logits(&cache.logits, &b.labels)
            })
            .collect();
        EvalMetrics::combine(&parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::tests::{bits, fused_backward, grad_bits};
    use dlrm_data::{presets, EmbeddingTrafficGenerator, SyntheticCriteo};

    fn tiny_model(seed: u64) -> (Dlrm, SyntheticCriteo) {
        let dataset = presets::tiny();
        let config = DlrmConfig::from_dataset(&dataset);
        (Dlrm::new(config, seed), SyntheticCriteo::new(dataset, seed))
    }

    #[test]
    fn forward_produces_one_logit_per_sample() {
        let (model, mut gen) = tiny_model(1);
        let batch = gen.next_batch(17);
        let lookups = model.lookup_all(&batch);
        let cache = model.forward_dense(&batch.dense, &lookups);
        assert_eq!(cache.logits.len(), 17);
        assert!(cache.logits.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn config_dims_are_consistent() {
        let dataset = presets::criteo_kaggle_like();
        let cfg = DlrmConfig::from_dataset(&dataset);
        assert_eq!(cfg.num_tables(), 26);
        assert_eq!(cfg.bottom_dims().first().copied(), Some(13));
        assert_eq!(cfg.bottom_dims().last().copied(), Some(32));
        assert_eq!(cfg.top_dims().last().copied(), Some(1));
        assert_eq!(cfg.interaction_dim(), 32 + 27 * 26 / 2);
    }

    #[test]
    fn training_reduces_loss() {
        // The eval set must be large enough (16 batches = 512 samples) that
        // the expected loss improvement exceeds its sampling noise; with a
        // 4-batch eval set this assertion is a coin flip early in training.
        let (mut model, mut gen) = tiny_model(7);
        let eval_batches = gen.batches(16);
        let before = model.evaluate(&eval_batches);
        for _ in 0..200 {
            let batch = gen.next_batch(64);
            model.train_step(&batch, 0.2);
        }
        let after = model.evaluate(&eval_batches);
        assert!(
            after.loss < before.loss,
            "loss did not improve: {} -> {}",
            before.loss,
            after.loss
        );
        assert!(after.auc > 0.5, "AUC {} not above chance", after.auc);
    }

    #[test]
    fn train_step_updates_embeddings_and_mlps() {
        let (mut model, mut gen) = tiny_model(3);
        let batch = gen.next_batch(32);
        let table0_before = model.embedding(0).weights().clone();
        let logits_before = {
            let lookups = model.lookup_all(&batch);
            model.forward_dense(&batch.dense, &lookups).logits
        };
        model.train_step(&batch, 0.1);
        let table0_after = model.embedding(0).weights().clone();
        assert_ne!(
            table0_before, table0_after,
            "embedding table did not change"
        );
        let logits_after = {
            let lookups = model.lookup_all(&batch);
            model.forward_dense(&batch.dense, &lookups).logits
        };
        assert_ne!(logits_before, logits_after, "model output did not change");
    }

    #[test]
    fn flat_mlp_grads_roundtrip_equals_direct_application() {
        let (model, mut gen) = tiny_model(9);
        let batch = gen.next_batch(16);
        let lookups = model.lookup_all(&batch);
        let cache = model.forward_dense(&batch.dense, &lookups);
        let grads = model.backward_dense(&cache, &batch.labels);
        let flat = model.flatten_mlp_grads(&grads);
        assert_eq!(flat.len(), model.mlp_param_count());

        let mut via_flat = model.clone();
        via_flat.apply_flat_mlp_grads(&flat, 0.1);
        let mut direct = model.clone();
        direct.apply_mlp_grads(&grads.bottom, &grads.top, 0.1);
        // Both paths must produce identical parameters; compare via outputs.
        let c1 = via_flat.forward_dense(&batch.dense, &lookups);
        let c2 = direct.forward_dense(&batch.dense, &lookups);
        for (a, b) in c1.logits.iter().zip(c2.logits.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn dropping_the_bottom_input_gradient_changes_no_returned_gradient() {
        let (model, mut gen) = tiny_model(17);
        let batch = gen.next_batch(16);
        let lookups = model.lookup_all(&batch);
        let cache = model.forward_dense(&batch.dense, &lookups);
        let grads = model.backward_dense(&cache, &batch.labels);

        // The same chain with every MLP's full backward, input gradient
        // included.
        let grad_logits = Dlrm::loss_grad(&cache, &batch.labels);
        let (grad_inter, top) = model.top.backward(&cache.top, &grad_logits);
        let (grad_bottom, embedding_grads) = interaction::backward(&cache.interaction, &grad_inter);
        let (grad_dense, bottom) = model.bottom.backward(&cache.bottom, &grad_bottom);
        assert_eq!(grad_dense.cols(), model.config().num_dense);

        let full = DenseGrads {
            bottom,
            top,
            embedding_grads,
        };
        let (flat, flat_full) = (
            model.flatten_mlp_grads(&grads),
            model.flatten_mlp_grads(&full),
        );
        assert!(flat.iter().any(|&g| g != 0.0), "gradients are all zero");
        for (i, (a, b)) in flat.iter().zip(&flat_full).enumerate() {
            assert!((a - b).abs() < 1e-5, "MLP gradient {i}: {a} vs {b}");
        }
        for (t, (a, b)) in grads
            .embedding_grads
            .iter()
            .zip(&full.embedding_grads)
            .enumerate()
        {
            assert!(a.max_abs_diff(b) < 1e-5, "table {t} gradient differs");
        }
    }

    #[test]
    fn mlp_param_checkpoint_roundtrip() {
        let (mut model, mut gen) = tiny_model(21);
        let mut flat = Vec::new();
        model.flatten_mlp_params_into(&mut flat);
        assert_eq!(flat.len(), model.mlp_param_count());
        let batch = gen.next_batch(16);
        model.train_step(&batch, 0.1);
        let mut after = Vec::new();
        model.flatten_mlp_params_into(&mut after);
        assert_ne!(flat, after, "training did not change the parameters");
        model.load_flat_mlp_params(&flat);
        let mut restored = Vec::new();
        model.flatten_mlp_params_into(&mut restored);
        assert_eq!(restored, flat);
    }

    #[test]
    fn same_seed_same_model() {
        let dataset = presets::tiny();
        let cfg = DlrmConfig::from_dataset(&dataset);
        let a = Dlrm::new(cfg.clone(), 5);
        let b = Dlrm::new(cfg, 5);
        assert_eq!(a.embedding(1).weights(), b.embedding(1).weights());
    }

    #[test]
    fn backward_embedding_grads_have_lookup_shape() {
        let (model, mut gen) = tiny_model(11);
        let batch = gen.next_batch(8);
        let lookups = model.lookup_all(&batch);
        let cache = model.forward_dense(&batch.dense, &lookups);
        let grads = model.backward_dense(&cache, &batch.labels);
        assert_eq!(grads.embedding_grads.len(), model.config().num_tables());
        for g in &grads.embedding_grads {
            assert_eq!(g.rows(), 8);
            assert_eq!(g.cols(), model.config().embedding_dim);
        }
    }

    /// The fused dense pass the split replaced, built from the MLP's fused
    /// reference backward.
    fn fused_dense(
        model: &Dlrm,
        dense: &Matrix,
        lookups: &[Matrix],
        labels: &[f32],
    ) -> (Vec<f32>, DenseGrads) {
        let (bottom_out, bottom_cache) = model.bottom.forward(dense.clone());
        let (inter_out, inter_cache) = interaction::forward(&bottom_out, lookups);
        let (top_out, top_cache) = model.top.forward(inter_out);
        let cache = DenseCache {
            bottom: bottom_cache,
            interaction: inter_cache,
            top: top_cache,
            logits: top_out.into_vec(),
        };
        let grad_logits = Dlrm::loss_grad(&cache, labels);
        let (grad_inter, top) = fused_backward(&model.top, &cache.top, &grad_logits);
        let (grad_bottom, embedding_grads) = interaction::backward(&cache.interaction, &grad_inter);
        let (_, bottom) = fused_backward(&model.bottom, &cache.bottom, &grad_bottom);
        let grads = DenseGrads {
            bottom,
            top,
            embedding_grads,
        };
        (cache.logits, grads)
    }

    #[test]
    fn split_dense_pass_is_the_fused_pass_bit_for_bit() {
        let cases = [
            (presets::tiny(), 1usize),
            (presets::tiny(), 17),
            (presets::criteo_kaggle_like(), 128),
        ];
        for (dataset, batch_size) in cases {
            let model = Dlrm::new(DlrmConfig::from_dataset(&dataset), 5);
            let batch = SyntheticCriteo::new(dataset.clone(), 5).next_batch(batch_size);
            let lookups = EmbeddingTrafficGenerator::new(dataset, 5).all_tables_batch(batch_size);
            // Ordinary labels, then labels that make the upstream gradient
            // ±inf and NaN on some samples.
            let special = [0.0, f32::INFINITY, 1.0, f32::NEG_INFINITY, f32::NAN];
            let odd: Vec<f32> = (0..batch_size).map(|i| special[i % 5]).collect();
            for labels in [&batch.labels, &odd] {
                let (logits, fused) = fused_dense(&model, &batch.dense, &lookups, labels);
                let cache = model.forward_top(model.forward_bottom(&batch.dense), &lookups);
                assert_eq!(bits(&cache.logits), bits(&logits), "batch {batch_size}");
                let back = model.backward_embeddings(&cache, labels);
                let split = model.backward_weights(&cache, back);
                for grads in [&split, &model.backward_dense(&cache, labels)] {
                    assert_eq!(grad_bits(&grads.bottom), grad_bits(&fused.bottom));
                    assert_eq!(grad_bits(&grads.top), grad_bits(&fused.top));
                    for (a, b) in grads.embedding_grads.iter().zip(&fused.embedding_grads) {
                        assert_eq!(bits(a.as_slice()), bits(b.as_slice()));
                    }
                }
                let dense = model.forward_dense(&batch.dense, &lookups);
                assert_eq!(bits(&dense.logits), bits(&logits));
            }
        }
    }
}
