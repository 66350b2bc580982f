//! The three timing systems — the modeled ledger (`breakdown`), the
//! wall-clock ledger (`wall_phase_seconds`) and the span trace — agree on
//! which phases ran, on every exchange route. The pipeline closes a phase in
//! all three at one site; a phase closed in one system but not another (the
//! bug class of hand-placed marks) shows up here.

use dlrm_comm::phase as phases;
use dlrm_comm::{NetworkConfig, Topology};
use dlrm_data::presets;
use dlrm_obs::RecordKind;
use dlrm_trainer::plan::paper_default_plan;
use dlrm_trainer::{
    run_training, CompressionSetting, ObsSetting, OverlapSetting, TopologySetting, TrainerConfig,
};
use std::collections::{BTreeMap, BTreeSet};

#[test]
fn ledger_wall_clock_and_trace_agree_on_every_route() {
    let dataset = presets::tiny();
    let iterations = 6;
    let hier = || {
        TopologySetting::Hierarchical(Topology::new(
            2,
            2,
            NetworkConfig::nvlink_intra_node(),
            NetworkConfig::paper_figure11(),
        ))
    };
    let plan = paper_default_plan(&dataset, 2, 4, 4e9, 7).expect("offline analysis succeeds");
    for compression in [CompressionSetting::Adaptive(plan), CompressionSetting::None] {
        for (topology, overlap) in [
            (TopologySetting::Flat, OverlapSetting::Off),
            (TopologySetting::Flat, OverlapSetting::DoubleBuffered),
            (hier(), OverlapSetting::Off),
            (hier(), OverlapSetting::DoubleBuffered),
        ] {
            let mut cfg = TrainerConfig::small_test(compression.clone())
                .with_topology(topology)
                .with_overlap(overlap)
                .with_obs(ObsSetting::On);
            cfg.iterations = iterations;
            cfg.global_batch = 64;
            let report = run_training(&dataset, &cfg);
            let label = &report.label;

            let closed = report.wall_phase_seconds.phases();
            let wall: BTreeSet<&str> = phases::ALL
                .iter()
                .copied()
                .filter(|p| closed.iter().any(|(name, _)| name == p))
                .collect();
            assert!(wall.len() >= 12, "{label}: only {wall:?} were closed");
            for &phase in phases::ALL {
                assert!(
                    report.breakdown.seconds(phase) == 0.0 || wall.contains(phase),
                    "{label}: {phase} has modeled seconds but no wall-clock bucket"
                );
            }

            let trace = report.trace.as_ref().expect("obs on carries a trace");
            assert_eq!(trace.tracks.len(), cfg.world);
            for track in &trace.tracks {
                assert_eq!(track.dropped, 0);
                let iteration_spans: BTreeMap<u64, (f64, f64)> = track
                    .records
                    .iter()
                    .filter(|r| r.kind == RecordKind::Iteration)
                    .map(|r| (r.iteration, (r.start, r.end)))
                    .collect();
                assert_eq!(iteration_spans.len(), iterations);
                let mut spans: BTreeMap<(u64, &str), usize> = BTreeMap::new();
                for r in track.records.iter().filter(|r| r.kind == RecordKind::Phase) {
                    let (start, end) = iteration_spans[&r.iteration];
                    assert!(
                        start <= r.start && r.start <= r.end && r.end <= end,
                        "{label} rank {}: {} span escapes iteration {}",
                        track.rank,
                        r.name,
                        r.iteration
                    );
                    *spans.entry((r.iteration, r.name)).or_default() += 1;
                }
                let names: BTreeSet<&str> = spans.keys().map(|&(_, name)| name).collect();
                assert_eq!(
                    names, wall,
                    "{label} rank {}: trace and wall clock closed different phases",
                    track.rank
                );
                for &iteration in iteration_spans.keys() {
                    for &phase in &wall {
                        assert_eq!(
                            spans.get(&(iteration, phase)),
                            Some(&1),
                            "{label} rank {}: iteration {iteration} closed {phase} \
                             other than exactly once",
                            track.rank
                        );
                    }
                }
            }
        }
    }
}
