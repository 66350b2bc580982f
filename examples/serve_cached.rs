//! Short serving runs on the tiny preset: the hot-row cache's hit rate, the
//! rows its admission gate refused, the flushes on codec switches, and the
//! fetch wire bytes per batch window, each read from a real run's report.
//!
//! Run with:
//! ```text
//! cargo run --release --example serve_cached
//! ```

use dlrm_lossy_comm::compress::CompressorKind;
use dlrm_lossy_comm::data::{presets, TrafficDrift};
use dlrm_lossy_comm::grad::GradCodecKind;
use dlrm_serve::{run_serving, FetchSetting, ServeAdaptive, ServeConfig, ServingReport};

fn print_report(label: &str, r: &ServingReport) {
    let per_window = |bytes: u64| bytes as f64 / r.windows as f64;
    println!(
        "{label:<28} hit rate {:.3}   rows refused {:>5}   flushes {:>2}   rows fetched {:>5}   \
         wire {:.0} B/window (payload {:.0} + request {:.0})",
        r.hit_rate,
        r.cache_rejections,
        r.cache_flushes,
        r.fetched_rows,
        per_window(r.fetch_wire_bytes + r.request_wire_bytes),
        per_window(r.fetch_wire_bytes),
        per_window(r.request_wire_bytes),
    );
}

fn main() {
    let cfg = ServeConfig::small_test();
    println!(
        "serving the 'tiny' preset: {} ranks, {} requests in windows of {}, {} cached rows per frontend\n",
        cfg.world, cfg.requests, cfg.window, cfg.cache_rows
    );

    print_report("hybrid fetch", &run_serving(&presets::tiny(), &cfg));

    // A rotating hot set and the runtime controller: each codec switch
    // flushes every frontend's cache.
    let windows = cfg.num_windows();
    let drifting = presets::tiny().with_drift(TrafficDrift::hot_rotation(windows / 4, windows / 8));
    let mut adaptive = cfg.clone();
    adaptive.fetch = FetchSetting::Compressed {
        codec: GradCodecKind::ErrorBounded {
            compressor: CompressorKind::Fp16,
            error_bound: 0.05,
        },
    };
    adaptive.adaptive = Some(ServeAdaptive::new(2, 0.05));
    let report = run_serving(&drifting, &adaptive);
    print_report("rotating hot set + control", &report);
    println!("{:<28} codec switches {}", "", report.codec_switches);
}
