//! Observability test matrix: the hard invariants of the tracing layer.
//!
//! * `ObsSetting::Off` (the default) is **bit-for-bit** today's pipeline
//!   and carries no trace;
//! * `ObsSetting::On` never changes numerics and preserves the
//!   zero-allocation steady state;
//! * the Chrome trace export carries one track per rank with phase spans
//!   nested inside iteration spans;
//! * the metrics series pins the controller's codec reselection to the
//!   iteration the reselection log says it happened at;
//! * under the sequential executor the trace structure (spans, instants,
//!   iterations, payloads) is deterministic run to run, and rank 0's
//!   phase order (checkpoint and controller instants included) is pinned,
//!   flat and on a 2×2 node grid;
//! * a segment restored after a rank loss is traced from its restore point.

use dlrm_adaptive::CodecProfile;
use dlrm_ckpt::CheckpointSpec;
use dlrm_comm::FaultPlan;
use dlrm_comm::{BandwidthTrace, NetworkConfig, Topology};
use dlrm_compress::CompressorKind;
use dlrm_grad::GradCodecKind;
use dlrm_obs::{RecordKind, SpanRecord};
use dlrm_trainer::{
    run_training, AdaptiveSetting, CompressionSetting, ExecutorSetting, FaultSetting, ObsSetting,
    TopologySetting, TrainerConfig, TrainingReport,
};

/// Bitwise fingerprint of a run's numerics: every per-iteration metric.
fn numeric_bits(r: &TrainingReport) -> Vec<u64> {
    r.accuracy_curve
        .iter()
        .flat_map(|m| [m.loss.to_bits(), m.accuracy.to_bits(), m.auc.to_bits()])
        .collect()
}

fn base_config() -> TrainerConfig {
    let mut cfg =
        TrainerConfig::small_test(CompressionSetting::fixed(0.02, CompressorKind::OursHybrid));
    cfg.iterations = 12;
    cfg.global_batch = 64;
    cfg
}

/// The adaptive drift scenario under the sequential executor: the fabric
/// degrades 120x at mid-run, so the runtime controller switches codecs —
/// with the modeled clock stamping the trace.
fn drift_config(iterations: usize) -> (dlrm_data::DatasetConfig, TrainerConfig) {
    let dataset = dlrm_data::presets::tiny();
    let fast = NetworkConfig::alltoall_bound(60e9);
    let slow = NetworkConfig::alltoall_bound(5e8);
    let mut cfg = TrainerConfig::small_test(CompressionSetting::fixed(0.05, CompressorKind::Fp16));
    cfg.iterations = iterations;
    cfg.global_batch = 64;
    cfg.network = fast;
    let cfg = cfg
        .with_adaptive(AdaptiveSetting::runtime(3, 0.1))
        .with_bandwidth_trace(BandwidthTrace::step(fast, slow, iterations / 2))
        .with_codec_profile(CodecProfile::paper_reference())
        .with_executor(ExecutorSetting::Sequential)
        .with_obs(ObsSetting::On);
    (dataset, cfg)
}

/// The structural identity of a record: everything except its timestamps
/// (modeled compute charges are measured×scale, so instants and span edges
/// are reproducible in structure, not in bits).
fn structure(records: &[SpanRecord]) -> Vec<(&'static str, &'static str, u64, u64)> {
    records
        .iter()
        .map(|r| (r.kind.label(), r.name, r.iteration, r.arg))
        .collect()
}

#[test]
fn obs_on_is_bit_identical_and_off_carries_no_trace() {
    let dataset = dlrm_data::presets::tiny();
    let cfg = base_config();
    let off = run_training(&dataset, &cfg);
    let on = run_training(&dataset, &cfg.clone().with_obs(ObsSetting::On));
    assert!(off.trace.is_none(), "off run carried a trace");
    assert!(off.metrics.is_none(), "off run carried metrics");
    assert!(on.trace.is_some(), "on run dropped its trace");
    assert!(on.metrics.is_some(), "on run dropped its metrics");
    // Tracing observes the pipeline; it must never steer it.
    assert_eq!(
        numeric_bits(&off),
        numeric_bits(&on),
        "tracing changed the numerics"
    );
    for phase in [
        dlrm_comm::phase::FWD_A2A,
        dlrm_comm::phase::BWD_A2A,
        dlrm_comm::phase::ALLREDUCE,
    ] {
        assert_eq!(
            off.breakdown.bytes(phase),
            on.breakdown.bytes(phase),
            "tracing changed {phase} traffic"
        );
    }
}

#[test]
fn tracing_preserves_the_zero_alloc_steady_state() {
    let dataset = dlrm_data::presets::tiny();
    for executor in [ExecutorSetting::Sequential, ExecutorSetting::Threaded] {
        let cfg = base_config()
            .with_executor(executor)
            .with_obs(ObsSetting::On);
        let report = run_training(&dataset, &cfg);
        assert_eq!(
            report.steady_state_allocated_bytes,
            0,
            "{}: tracing allocated in the steady state",
            executor.label()
        );
        assert!(report.buffer_reused_bytes > 0);
        let trace = report.trace.expect("trace present");
        for track in &trace.tracks {
            assert_eq!(track.dropped, 0, "ring sized too small for the run");
        }
    }
}

#[test]
fn chrome_trace_nests_phase_spans_in_per_rank_tracks() {
    let dataset = dlrm_data::presets::tiny();
    let cfg = base_config()
        .with_executor(ExecutorSetting::Sequential)
        .with_obs(ObsSetting::On);
    let report = run_training(&dataset, &cfg);
    let trace = report.trace.expect("trace present");
    assert_eq!(trace.tracks.len(), cfg.world, "one track per rank");
    let json = trace.to_chrome_trace();
    assert!(json.starts_with('{') && json.ends_with("]}"));
    for rank in 0..cfg.world {
        assert!(
            json.contains(&format!("\"rank {rank} (modeled clock)\"")),
            "missing rank {rank} track metadata"
        );
    }
    assert!(json.contains("\"cat\":\"iteration\""));
    assert!(json.contains("\"cat\":\"phase\""));
    // Every rank recorded one enclosing span per iteration, and each
    // iteration span really encloses that iteration's phase spans.
    for track in &trace.tracks {
        let iters: Vec<&SpanRecord> = track
            .records
            .iter()
            .filter(|r| r.kind == dlrm_obs::RecordKind::Iteration)
            .collect();
        assert_eq!(iters.len(), cfg.iterations, "rank {}", track.rank);
        for it in iters {
            for phase in track
                .records
                .iter()
                .filter(|r| r.kind == dlrm_obs::RecordKind::Phase && r.iteration == it.iteration)
            {
                assert!(
                    phase.start >= it.start - 1e-12 && phase.end <= it.end + 1e-12,
                    "rank {} iter {}: phase {} [{}, {}] escapes its iteration [{}, {}]",
                    track.rank,
                    it.iteration,
                    phase.name,
                    phase.start,
                    phase.end,
                    it.start,
                    it.end
                );
            }
        }
    }
}

#[test]
fn metrics_series_pins_the_reselection_to_its_iteration() {
    let (dataset, cfg) = drift_config(12);
    let report = run_training(&dataset, &cfg);
    let switched = report
        .reselections
        .iter()
        .find(|r| !r.switches.is_empty())
        .expect("a 120x drift must trigger a codec switch");
    let metrics = report.metrics.as_ref().expect("metrics present");
    assert_eq!(metrics.len(), report.iterations);
    assert!(
        metrics
            .events
            .iter()
            .any(|ev| ev.kind == "codec reselection" && ev.iteration == switched.iteration as u64),
        "no codec-reselection event at iteration {} in {:?}",
        switched.iteration,
        metrics.events
    );
    // The series carries real traffic and real charges.
    for row in &metrics.rows {
        assert!(row.wire_bytes > 0);
        assert!(row.comm_seconds > 0.0);
        assert!(row.effective_bandwidth > 0.0);
        assert!(row.compression_ratio > 1.0);
    }
    // The CSV export has one line per iteration plus the header.
    let csv = metrics.to_csv();
    assert_eq!(csv.trim_end().lines().count(), report.iterations + 1);
}

#[test]
fn sequential_trace_structure_is_deterministic() {
    let (dataset, cfg) = drift_config(12);
    let a = run_training(&dataset, &cfg);
    let b = run_training(&dataset, &cfg);
    assert_eq!(numeric_bits(&a), numeric_bits(&b));
    let (ta, tb) = (a.trace.expect("trace"), b.trace.expect("trace"));
    assert_eq!(ta.tracks.len(), tb.tracks.len());
    for (x, y) in ta.tracks.iter().zip(&tb.tracks) {
        assert_eq!(x.rank, y.rank);
        assert_eq!(
            structure(&x.records),
            structure(&y.records),
            "rank {}: trace structure diverged",
            x.rank
        );
    }
    let (ma, mb) = (a.metrics.expect("metrics"), b.metrics.expect("metrics"));
    assert_eq!(ma.events, mb.events);
    let bytes = |m: &dlrm_obs::MetricsSeries| {
        m.rows
            .iter()
            .map(|r| {
                (
                    r.iteration,
                    r.wire_bytes,
                    r.fwd_original_bytes,
                    r.fwd_encoded_bytes,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(bytes(&ma), bytes(&mb), "metrics byte columns diverged");
}

/// Rank 0's trace of `drift_config(12)` on `topology` plus a checkpoint at
/// iteration 7, one line per iteration: each record in recording order, a
/// phase as its name, an instant as `label=arg`, the closing iteration span
/// as `end`. The run's numerics must equal the untraced run's.
fn rank0_phase_order(topology: TopologySetting) -> Vec<String> {
    let (dataset, cfg) = drift_config(12);
    let cfg = cfg.with_topology(topology).with_fault(
        FaultSetting::new(FaultPlan::none())
            .with_checkpoint(CheckpointSpec::new(7, GradCodecKind::Fp16)),
    );
    let report = run_training(&dataset, &cfg);
    let untraced = run_training(&dataset, &cfg.with_obs(ObsSetting::Off));
    assert_eq!(numeric_bits(&report), numeric_bits(&untraced));
    assert_eq!(report.inter_tier_bytes > 0, topology.is_hierarchical());
    let trace = report.trace.expect("trace present");
    let track = trace.tracks.iter().find(|t| t.rank == 0).expect("rank 0");
    let mut lines: Vec<String> = Vec::new();
    for r in &track.records {
        let token = match r.kind {
            RecordKind::Phase => r.name.to_string(),
            RecordKind::Iteration => "end".to_string(),
            kind => format!("{}={}", kind.label(), r.arg),
        };
        let iter = r.iteration as usize;
        if lines.len() <= iter {
            lines.resize(iter + 1, format!("{iter}:"));
        }
        let line = &mut lines[iter];
        line.push_str(if line.ends_with(':') { " " } else { ", " });
        line.push_str(&token);
    }
    lines
}

/// Rank 0's phase order, checkpoint and controller instants included, as
/// the pipeline records it: a change that moves a phase, or closes one in
/// another place, moves a line.
const PHASE_ORDER: &[&str] = &[
    "0: checkpoint write=83969, checkpoint, input batch, embedding lookup, fwd compression, fwd decompression, fwd all-to-all, mlp forward, mlp backward, bwd compression, bwd decompression, bwd all-to-all, embedding update, mlp all-reduce, optimizer, end",
    "1: input batch, embedding lookup, fwd compression, fwd decompression, fwd all-to-all, mlp forward, mlp backward, bwd compression, bwd decompression, bwd all-to-all, embedding update, mlp all-reduce, optimizer, runtime controller, end",
    "2: input batch, embedding lookup, fwd compression, fwd decompression, fwd all-to-all, mlp forward, mlp backward, bwd compression, bwd decompression, bwd all-to-all, embedding update, mlp all-reduce, optimizer, runtime controller, end",
    "3: runtime controller, input batch, embedding lookup, fwd compression, fwd decompression, fwd all-to-all, mlp forward, mlp backward, bwd compression, bwd decompression, bwd all-to-all, embedding update, mlp all-reduce, optimizer, end",
    "4: input batch, embedding lookup, fwd compression, fwd decompression, fwd all-to-all, mlp forward, mlp backward, bwd compression, bwd decompression, bwd all-to-all, embedding update, mlp all-reduce, optimizer, end",
    "5: input batch, embedding lookup, fwd compression, fwd decompression, fwd all-to-all, mlp forward, mlp backward, bwd compression, bwd decompression, bwd all-to-all, embedding update, mlp all-reduce, optimizer, runtime controller, end",
    "6: runtime controller, input batch, embedding lookup, fwd compression, fwd decompression, fwd all-to-all, mlp forward, mlp backward, bwd compression, bwd decompression, bwd all-to-all, embedding update, mlp all-reduce, optimizer, end",
    "7: checkpoint write=83969, checkpoint, input batch, embedding lookup, fwd compression, fwd decompression, fwd all-to-all, mlp forward, mlp backward, bwd compression, bwd decompression, bwd all-to-all, embedding update, mlp all-reduce, optimizer, end",
    "8: input batch, embedding lookup, fwd compression, fwd decompression, fwd all-to-all, mlp forward, mlp backward, bwd compression, bwd decompression, bwd all-to-all, embedding update, mlp all-reduce, optimizer, runtime controller, end",
    "9: codec reselection=0, codec reselection=1, codec reselection=2, codec reselection=3, runtime controller, input batch, embedding lookup, fwd compression, fwd decompression, fwd all-to-all, mlp forward, mlp backward, bwd compression, bwd decompression, bwd all-to-all, embedding update, mlp all-reduce, optimizer, end",
    "10: input batch, embedding lookup, fwd compression, fwd decompression, fwd all-to-all, mlp forward, mlp backward, bwd compression, bwd decompression, bwd all-to-all, embedding update, mlp all-reduce, optimizer, end",
    "11: input batch, embedding lookup, fwd compression, fwd decompression, fwd all-to-all, mlp forward, mlp backward, bwd compression, bwd decompression, bwd all-to-all, embedding update, mlp all-reduce, optimizer, end",
];

/// A 2×2 node grid relays both all-to-alls through the node leaders inside
/// the exchange's receive loop and closes each exchange with the flat
/// route's one split close, so rank 0 records the flat order.
#[test]
fn sequential_phase_order_is_pinned() {
    let nvlink = NetworkConfig::nvlink_intra_node();
    let grid = Topology::new(2, 2, nvlink, NetworkConfig::paper_figure11());
    for topology in [TopologySetting::Flat, TopologySetting::Hierarchical(grid)] {
        let got = rank0_phase_order(topology);
        for (iter, (got, want)) in got.iter().zip(PHASE_ORDER).enumerate() {
            assert_eq!(got, want, "{}: iteration {iter}", topology.label());
        }
        assert_eq!(got.len(), PHASE_ORDER.len());
    }
}

#[test]
fn a_restored_segment_is_traced_from_its_restore_point() {
    let dataset = dlrm_data::presets::tiny();
    let fault = FaultSetting::new(FaultPlan::none().with_rank_loss(7, 1))
        .with_checkpoint(CheckpointSpec::new(4, GradCodecKind::Fp16));
    let cfg = base_config()
        .with_executor(ExecutorSetting::Sequential)
        .with_obs(ObsSetting::On)
        .with_fault(fault);
    let report = run_training(&dataset, &cfg);
    assert_eq!(report.recovery_iterations, 3);
    let trace = report.trace.expect("trace present");
    assert_eq!(trace.tracks.len(), cfg.world);
    for track in &trace.tracks {
        let iterations: Vec<u64> = (track.records.iter())
            .filter(|r| r.kind == RecordKind::Iteration)
            .map(|r| r.iteration)
            .collect();
        // The three survivors ran 0..7, then replayed from the checkpoint
        // at 4 on the shrunk world; the lost rank's track ends at the loss.
        let want: Vec<u64> = match track.rank {
            0..=2 => (0..7).chain(4..12).collect(),
            _ => (0..7).collect(),
        };
        assert_eq!(iterations, want, "rank {}", track.rank);
        assert_eq!(track.dropped, 0, "rank {}", track.rank);
    }
}
