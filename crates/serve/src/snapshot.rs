//! Bridging trained model state into the serving fleet.
//!
//! A serving deployment starts from trained weights. The trainer's
//! `dlrm-ckpt` checkpoints are partition-agnostic (tables keyed by global
//! id), so a serving fleet with a *different* world size can restore the same
//! snapshot: each rank decodes only the table sections it owns plus the
//! replicated MLP. [`snapshot_model`] produces such a checkpoint directly
//! from an in-process model — the single-process path that hands a model
//! trained in this process to the fleet.

use dlrm_ckpt::{Checkpoint, RankCheckpoint};
use dlrm_grad::{GradCodecKind, GradScratch};
use dlrm_model::Dlrm;
use dlrm_trainer::pipeline::encode_model;

/// Encode `model` (every table at its row width, and the MLP) into a
/// checkpoint with `codec`.
pub fn snapshot_model(model: &Dlrm, codec: &GradCodecKind, iteration: usize) -> Checkpoint {
    let tables: Vec<usize> = (0..model.config().num_tables()).collect();
    let (built, mut part) = (codec.build(), RankCheckpoint::new(iteration, 0));
    encode_model(model, &tables, &built, &mut GradScratch::new(), &mut part);
    Checkpoint::assemble(codec.clone(), vec![part])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_data::presets;
    use dlrm_model::DlrmConfig;
    use dlrm_trainer::pipeline::restore_model;

    #[test]
    fn lossless_snapshot_restores_bitwise() {
        let dataset = presets::tiny();
        let cfg = DlrmConfig::from_dataset(&dataset);
        let model = Dlrm::new(cfg.clone(), 99);
        let ckpt = snapshot_model(&model, &GradCodecKind::Identity, 7);
        // Restore into a partial replica owning tables 1 and 3.
        let mut partial = Dlrm::new_partial(cfg, 1234, Some(&[1, 3]));
        restore_model(&mut partial, &ckpt, &[1, 3]);
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
