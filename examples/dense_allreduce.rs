//! The dense path end to end: training with the MLP-gradient all-reduce
//! uncompressed, fp16-cast, and error-feedback compressed (fp16+EF and
//! top-k+EF), comparing accuracy, dense wire ratio and modelled all-reduce
//! time on an allreduce-bound interconnect.
//!
//! Run with:
//! ```text
//! cargo run --release --example dense_allreduce
//! ```

use dlrm_lossy_comm::comm::phase as phases;
use dlrm_lossy_comm::comm::NetworkConfig;
use dlrm_lossy_comm::data::presets;
use dlrm_lossy_comm::trainer::{
    run_training, CompressionSetting, DenseCompression, TrainerConfig, TrainingReport,
};

fn print_report(report: &TrainingReport) {
    println!("── {} ──", report.dense_compression);
    println!(
        "  final accuracy {:.4}   final loss {:.4}   dense wire ratio {:.2}x",
        report.final_metrics.accuracy, report.final_metrics.loss, report.dense_ratio
    );
    println!(
        "  all-reduce time {:.4}s   saved vs fp32 ring {:.4}s   EF residual L2 {:.3e}",
        report.breakdown.seconds(phases::ALLREDUCE),
        report.dense_saved_seconds,
        report.dense_residual_norm
    );
    println!();
}

fn main() {
    let dataset = presets::tiny();
    // An allreduce-bound interconnect: fast all-to-all, slow all-reduce
    // link, so the MLP all-reduce dominates the wire and the dense codecs matter.
    let mut base = TrainerConfig::small_test(CompressionSetting::None);
    base.iterations = 60;
    base.network = NetworkConfig::allreduce_bound(5e7);

    println!(
        "training a DLRM on the '{}' preset: {} ranks, {} iterations, allreduce link 0.05 GB/s\n",
        dataset.name, base.world, base.iterations
    );

    let settings = [
        DenseCompression::Off,
        DenseCompression::fp16(),
        DenseCompression::fp16_ef(),
        DenseCompression::top_k_ef(0.1),
    ];
    let mut reports = Vec::new();
    for dense in settings {
        let cfg = base.clone().with_dense_compression(dense);
        reports.push(run_training(&dataset, &cfg));
    }
    for report in &reports {
        print_report(report);
    }

    let baseline = &reports[0];
    let best = &reports[2]; // fp16 + EF
    println!(
        "accuracy delta (fp16+EF - fp32): {:+.4}  |  all-reduce {:.4}s -> {:.4}s ({:.2}x faster)",
        best.final_metrics.accuracy - baseline.final_metrics.accuracy,
        baseline.breakdown.seconds(phases::ALLREDUCE),
        best.breakdown.seconds(phases::ALLREDUCE),
        baseline.breakdown.seconds(phases::ALLREDUCE)
            / best.breakdown.seconds(phases::ALLREDUCE).max(1e-12)
    );
}
