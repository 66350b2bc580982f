//! End-to-end hybrid-parallel DLRM training on the simulated cluster, with
//! and without compressed all-to-all, comparing accuracy and the time
//! breakdown.
//!
//! Run with:
//! ```text
//! cargo run --release --example train_compressed
//! ```

use dlrm_lossy_comm::comm::phase as phases;
use dlrm_lossy_comm::compress::CompressorKind;
use dlrm_lossy_comm::data::presets;
use dlrm_lossy_comm::trainer::{run_training, CompressionSetting, TrainerConfig, TrainingReport};

fn print_report(report: &TrainingReport) {
    println!("── {} ──", report.label);
    println!(
        "  final accuracy {:.4}   final loss {:.4}   fwd payload compression {:.2}x",
        report.final_metrics.accuracy, report.final_metrics.loss, report.overall_ratio
    );
    println!(
        "  distinct rows sent: {:.1}% of the rows delivered (repeats re-expanded from indices)   \
         bwd payload compression {:.2}x (summed gradient rows)",
        100.0 * report.fwd_unique_frac,
        report.bwd_ratio
    );
    let a2a = report.breakdown.seconds(phases::FWD_A2A) + report.breakdown.seconds(phases::BWD_A2A);
    println!(
        "  modelled time {:.4}s of which all-to-all {:.4}s ({:.1}%)",
        report.total_seconds,
        a2a,
        100.0 * report.alltoall_fraction()
    );
    print!("  accuracy curve: ");
    for (i, m) in report.accuracy_curve.iter().enumerate() {
        if i % (report.accuracy_curve.len() / 8).max(1) == 0 {
            print!("{:.3} ", m.accuracy);
        }
    }
    println!("\n");
}

fn main() {
    let dataset = presets::tiny();
    let iterations = 60;

    let mut baseline_cfg = TrainerConfig::small_test(CompressionSetting::None);
    baseline_cfg.iterations = iterations;
    baseline_cfg.global_batch = 128;

    let mut lossy_cfg = baseline_cfg.clone();
    lossy_cfg.compression = CompressionSetting::fixed(0.02, CompressorKind::OursHybrid);

    let mut fp16_cfg = baseline_cfg.clone();
    fp16_cfg.compression = CompressionSetting::Fp16;

    println!(
        "training a DLRM on the '{}' preset: {} ranks, global batch {}, {} iterations\n",
        dataset.name, baseline_cfg.world, baseline_cfg.global_batch, iterations
    );

    let baseline = run_training(&dataset, &baseline_cfg);
    let fp16 = run_training(&dataset, &fp16_cfg);
    let lossy = run_training(&dataset, &lossy_cfg);

    print_report(&baseline);
    print_report(&fp16);
    print_report(&lossy);

    let delta = lossy.final_metrics.accuracy - baseline.final_metrics.accuracy;
    println!(
        "accuracy delta (lossy - fp32 baseline): {delta:+.4}  |  payload reduction {:.2}x vs fp16's 2x",
        lossy.overall_ratio
    );
    let a2a = |r: &TrainingReport| {
        r.breakdown.seconds(phases::FWD_A2A) + r.breakdown.seconds(phases::BWD_A2A)
    };
    println!(
        "all-to-all network time: baseline {:.4}s -> lossy {:.4}s ({:.2}x faster)",
        a2a(&baseline),
        a2a(&lossy),
        a2a(&baseline) / a2a(&lossy).max(1e-12)
    );
}
