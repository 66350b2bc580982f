//! Shared workload builders for the experiments: sampled embedding traffic
//! per table, scaled-down trainer configurations, and the network settings
//! the paper's evaluation assumes.

use dlrm_adaptive::{EbConfig, EbSchedule, Thresholds, TrainingPhases};
use dlrm_comm::NetworkConfig;
use dlrm_compress::CompressorKind;
use dlrm_data::{presets, DatasetConfig, EmbeddingTrafficGenerator};
use dlrm_trainer::{
    plan, CompressionSetting, ExecutorSetting, ObsSetting, OverlapSetting, TrainerConfig,
};

/// The all-to-all bandwidth the paper's Figure 11 speedup analysis assumes.
pub const PAPER_BANDWIDTH: f64 = 4e9;

/// GPU compressor throughputs the paper reports for its hybrid compressor
/// (compression, decompression) in bytes/s — used by the analytical timing
/// mode of the Figure 1/12 breakdowns.
pub const PAPER_HYBRID_THROUGHPUT: (f64, f64) = (40.5e9, 205.4e9);

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small and fast — used by integration tests and `--quick`.
    Quick,
    /// The paper-scale default.
    Full,
}

/// Both dataset presets, in the order the paper reports them.
pub fn both_presets() -> Vec<DatasetConfig> {
    vec![
        presets::criteo_kaggle_like(),
        presets::criteo_terabyte_like(),
    ]
}

/// The dataset preset used by an experiment at a given scale. Quick runs use
/// the tiny preset so CI stays fast.
pub fn preset_at(scale: Scale, name: &str) -> DatasetConfig {
    match scale {
        Scale::Quick => presets::tiny(),
        Scale::Full => presets::by_name(name).expect("known preset"),
    }
}

/// One sampled lookup batch per table, at the preset's evaluation batch size
/// (128 for Kaggle, 2048 for Terabyte — Tables III/IV), capped for quick runs.
pub fn sampled_traffic(dataset: &DatasetConfig, scale: Scale, seed: u64) -> Vec<Vec<f32>> {
    let batch = match scale {
        Scale::Quick => dataset.default_batch_size.min(64),
        Scale::Full => dataset.default_batch_size.min(512),
    };
    let mut traffic = EmbeddingTrafficGenerator::new(dataset.clone(), seed);
    (0..dataset.num_tables())
        .map(|t| traffic.lookup_batch(t, batch).into_vec())
        .collect()
}

/// Number of training iterations per scale for accuracy experiments.
pub fn accuracy_iterations(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 20,
        Scale::Full => 120,
    }
}

/// The trainer configuration the accuracy experiments (Figures 8–10) use:
/// 4 simulated ranks at the dataset's default batch size (capped for speed).
pub fn accuracy_trainer(
    dataset: &DatasetConfig,
    compression: CompressionSetting,
    scale: Scale,
) -> TrainerConfig {
    TrainerConfig {
        world: 4,
        global_batch: dataset.default_batch_size.min(128),
        iterations: accuracy_iterations(scale),
        learning_rate: 0.05,
        compression,
        overlap: OverlapSetting::Off,
        dense_compression: Default::default(),
        network: NetworkConfig::default(),
        topology: Default::default(),
        adaptive: Default::default(),
        bandwidth_trace: None,
        fault: None,
        codec_profile: None,
        executor: ExecutorSetting::Threaded,
        realtime_wire: false,
        obs: ObsSetting::Off,
        seed: 20_240_614,
        device_throughput: None,
        compute_time_scale: 1.0,
    }
}

/// A100-to-CPU scale factor used by the breakdown experiments for the dense
/// compute phases (see `TrainerConfig::compute_time_scale`).
pub const BREAKDOWN_COMPUTE_SCALE: f64 = 1.0 / 500.0;

/// The trainer configuration the time-breakdown experiments (Figures 1 and
/// 12) use: the paper's 32 ranks (8 for quick runs), analytical compressor
/// throughput so the breakdown reflects GPU-scale codecs rather than this
/// machine's CPU.
pub fn breakdown_trainer(
    dataset: &DatasetConfig,
    compression: CompressionSetting,
    scale: Scale,
) -> TrainerConfig {
    let (world, iterations) = match scale {
        Scale::Quick => (8, 2),
        Scale::Full => (32, 4),
    };
    let device_throughput = if compression.is_compressed() {
        Some(PAPER_HYBRID_THROUGHPUT)
    } else {
        None
    };
    TrainerConfig {
        world,
        // The paper's clusters run large local batches; keep at least 64
        // samples per rank so the all-to-all payloads are not latency-bound.
        global_batch: dataset.default_batch_size.clamp(world * 64, 2048),
        iterations,
        learning_rate: 0.05,
        compression,
        overlap: OverlapSetting::Off,
        dense_compression: Default::default(),
        network: NetworkConfig::paper_figure11(),
        topology: Default::default(),
        adaptive: Default::default(),
        bandwidth_trace: None,
        fault: None,
        codec_profile: None,
        executor: ExecutorSetting::Threaded,
        realtime_wire: false,
        obs: ObsSetting::Off,
        seed: 20_240_614,
        device_throughput,
        compute_time_scale: BREAKDOWN_COMPUTE_SCALE,
    }
}

/// The paper-default adaptive compression setting for a dataset (offline
/// analysis with EBs 0.05/0.03/0.01, step-wise decay over the initial phase).
pub fn adaptive_setting(dataset: &DatasetConfig, iterations: usize) -> CompressionSetting {
    let plan = plan::paper_default_plan(
        dataset,
        iterations / 2,
        iterations - iterations / 2,
        PAPER_BANDWIDTH,
        7,
    )
    .expect("offline analysis succeeds on synthetic traffic");
    CompressionSetting::Adaptive(plan)
}

/// Fixed-global-EB lossy setting (EB 0.02, hybrid compressor) used as "ours"
/// in the Figure 8 accuracy comparison.
pub fn fixed_lossy_setting() -> CompressionSetting {
    CompressionSetting::fixed(0.02, CompressorKind::OursHybrid)
}

/// Paper-default table-wise EB configuration and thresholds.
pub fn paper_eb_config() -> (EbConfig, Thresholds) {
    (EbConfig::paper_default(), Thresholds::default())
}

/// A decay schedule over `iterations` with the paper's 2x start factor.
pub fn decay_schedule(
    schedule: dlrm_adaptive::DecaySchedule,
    start_factor: f32,
    iterations: usize,
) -> EbSchedule {
    EbSchedule {
        schedule,
        start_factor,
        steps: 4,
        phases: TrainingPhases {
            initial_iters: iterations / 2,
            stable_iters: iterations - iterations / 2,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_traffic_has_one_batch_per_table() {
        let dataset = presets::tiny();
        let samples = sampled_traffic(&dataset, Scale::Quick, 1);
        assert_eq!(samples.len(), dataset.num_tables());
        for s in samples {
            assert_eq!(s.len() % dataset.embedding_dim, 0);
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn trainer_configs_validate() {
        let dataset = presets::tiny();
        assert!(
            accuracy_trainer(&dataset, CompressionSetting::None, Scale::Quick)
                .validate()
                .is_ok()
        );
        assert!(
            breakdown_trainer(&dataset, fixed_lossy_setting(), Scale::Quick)
                .validate()
                .is_ok()
        );
    }

    #[test]
    fn adaptive_setting_builds_a_plan() {
        let dataset = presets::tiny();
        match adaptive_setting(&dataset, 10) {
            CompressionSetting::Adaptive(plan) => {
                assert_eq!(plan.tables.len(), dataset.num_tables())
            }
            _ => panic!("expected adaptive setting"),
        }
    }
}
