//! Bridging trained model state into the serving fleet.
//!
//! A serving deployment starts from trained weights. The trainer's
//! `dlrm-ckpt` checkpoints are partition-agnostic (tables keyed by global
//! id), so a serving fleet with a *different* world size can restore the same
//! snapshot: each rank decodes only the table sections it owns plus the
//! replicated MLP. [`snapshot_model`] produces such a checkpoint directly
//! from an in-process model — the single-process path that hands a model
//! trained in this process to the fleet.

use dlrm_ckpt::{Checkpoint, EncodedSection, RankCheckpoint};
use dlrm_grad::{GradCodecKind, GradScratch};
use dlrm_model::Dlrm;

/// Encode `model` (every table at its row width, and the MLP) into a
/// checkpoint with `codec`.
pub fn snapshot_model(model: &Dlrm, codec: &GradCodecKind, iteration: usize) -> Checkpoint {
    let (built, mut scratch) = (codec.build(), GradScratch::new());
    let mut encode =
        |data: &[f32], width| EncodedSection::encode(&built, data, width, &mut scratch);
    let mut part = RankCheckpoint::new(iteration, 0);
    let mut flat = Vec::new();
    model.flatten_mlp_params_into(&mut flat);
    part.mlp = Some(encode(&flat, flat.len()));
    for t in 0..model.config().num_tables() {
        let table = model.embedding(t);
        let section = encode(table.weights().as_slice(), table.dim());
        part.push_table(t, table.cardinality(), table.dim(), section);
    }
    Checkpoint::assemble(codec.clone(), vec![part])
}

/// Restore the MLP replica and the `owned` table shards of `model` from
/// `checkpoint`.
///
/// # Panics
/// Panics if the checkpoint is missing an owned table, a shape mismatches
/// or a section does not decode; the message names the section.
pub fn restore_owned(model: &mut Dlrm, checkpoint: &Checkpoint, owned: &[usize]) {
    let (codec, mut scratch) = (checkpoint.codec.build(), GradScratch::new());
    let mut floats = Vec::new();
    (checkpoint.mlp)
        .decode_into(&codec, &mut scratch, &mut floats)
        .unwrap_or_else(|e| panic!("checkpoint MLP section: {e}"));
    model.load_flat_mlp_params(&floats);
    for &t in owned {
        let section = checkpoint
            .table(t)
            .unwrap_or_else(|| panic!("checkpoint is missing table {t}"));
        let table = model.embedding_mut(t);
        assert_eq!(section.rows, table.cardinality(), "table {t} row mismatch");
        assert_eq!(section.cols, table.dim(), "table {t} dim mismatch");
        (section.section)
            .decode_into(&codec, &mut scratch, &mut floats)
            .unwrap_or_else(|e| panic!("checkpoint table {t} section: {e}"));
        table.weights_mut().as_mut_slice().copy_from_slice(&floats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_data::presets;
    use dlrm_model::DlrmConfig;

    #[test]
    fn lossless_snapshot_restores_bitwise() {
        let dataset = presets::tiny();
        let cfg = DlrmConfig::from_dataset(&dataset);
        let model = Dlrm::new(cfg.clone(), 99);
        let ckpt = snapshot_model(&model, &GradCodecKind::Identity, 7);
        // Restore into a partial replica owning tables 1 and 3.
        let mut partial = Dlrm::new_partial(cfg, 1234, Some(&[1, 3]));
        restore_owned(&mut partial, &ckpt, &[1, 3]);
        for t in [1usize, 3] {
            assert_eq!(
                model.embedding(t).weights().as_slice(),
                partial.embedding(t).weights().as_slice(),
                "table {t} not restored bitwise"
            );
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        model.flatten_mlp_params_into(&mut a);
        partial.flatten_mlp_params_into(&mut b);
        assert_eq!(a, b, "MLP replica not restored bitwise");
    }
}
