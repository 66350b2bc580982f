//! Driver that runs the per-rank pipeline on the simulated cluster and merges
//! the per-rank outcomes into one [`TrainingReport`].

use crate::config::{OverlapSetting, TrainerConfig};
use crate::partition::TablePartition;
use crate::pipeline::{self, RankOutcome, RankSetup, SegmentSpec};
use dlrm_adaptive::{DenseAdvice, Reselection};
use dlrm_ckpt::{Checkpoint, RankCheckpoint};
use dlrm_comm::{TimingLedger, WirePolicy, WorldEvent};
use dlrm_data::{BatchFeed, DatasetConfig};
use dlrm_exec::Executor;
use dlrm_model::EvalMetrics;
use dlrm_obs::{MetricsRow, MetricsSeries, RankTrack, RecordKind, SpanRecord, TraceExport};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-table forward all-to-all compression statistics, summed over the whole
/// run and over all owning ranks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableCompressionStats {
    /// Table id.
    pub table_id: usize,
    /// Uncompressed payload bytes.
    pub original_bytes: u64,
    /// Compressed payload bytes.
    pub compressed_bytes: u64,
}

impl TableCompressionStats {
    /// Compression ratio for this table (1.0 when nothing was sent).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.original_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// Merged result of one distributed training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Compression setting label.
    pub label: String,
    /// Overlap mode the run used (sequential vs double-buffered pipeline).
    #[serde(default)]
    pub overlap: OverlapSetting,
    /// Number of ranks.
    pub world: usize,
    /// Number of iterations run.
    pub iterations: usize,
    /// Batch metrics per iteration, combined across ranks (pre-update, so
    /// entry 0 reflects the randomly initialised model).
    pub accuracy_curve: Vec<EvalMetrics>,
    /// Mean of the first quarter of the accuracy curve — the statistically
    /// meaningful "where training started" reference (a single iteration's
    /// batch metrics are too noisy to compare against).
    pub initial_metrics: EvalMetrics,
    /// Mean of the last quarter of the accuracy curve — the "converged"
    /// metrics the paper's accuracy tables quote.
    pub final_metrics: EvalMetrics,
    /// Per-phase time, max-merged across ranks (the slowest rank bounds each
    /// bulk-synchronous phase) and summed over iterations.
    pub breakdown: TimingLedger,
    /// Per-table forward-payload compression statistics.
    pub per_table: Vec<TableCompressionStats>,
    /// Overall forward-payload compression ratio.
    pub overall_ratio: f64,
    /// Total modelled time of the run (sum of the breakdown's phases).
    pub total_seconds: f64,
    /// Virtual seconds the double-buffered pipeline hid (codec time that ran
    /// while chunks were on the wire), max-merged across ranks and summed
    /// over both all-to-all phases. Zero for sequential runs.
    #[serde(default)]
    pub overlap_saved_seconds: f64,
    /// Executor label the run used (`"sequential"` or `"threaded"`).
    #[serde(default)]
    pub executor: String,
    /// Real wall-clock seconds of the whole execution, spawn to join.
    #[serde(default)]
    pub wall_seconds: f64,
    /// Per-phase wall-clock seconds, max-merged across ranks (the slowest
    /// rank bounds each bulk-synchronous phase). Each rank's buckets
    /// partition its training-loop wall time; the merged buckets need not
    /// sum to [`TrainingReport::wall_seconds`], which also covers setup and
    /// thread spawn/join.
    #[serde(default)]
    pub wall_phase_seconds: TimingLedger,
    /// Total modeled seconds over measured wall seconds (0 when wall is 0).
    /// Meaningful under [`crate::config::TrainerConfig::realtime_wire`],
    /// where modeled wire time costs real sleeps and the ratio
    /// cross-validates the cost model against the clock; with an instant
    /// wire it merely reports virtual seconds charged per real second.
    #[serde(default)]
    pub modeled_vs_wall_ratio: f64,
    /// Label of the dense-gradient (`mlp all-reduce`) compression setting.
    #[serde(default)]
    pub dense_compression: String,
    /// Wire compression ratio of the dense all-reduce: raw bytes the
    /// schedule would have moved over bytes it actually moved, summed over
    /// ranks and iterations (1.0 when off).
    #[serde(default)]
    pub dense_ratio: f64,
    /// Virtual seconds the compressed dense all-reduce saved vs the raw
    /// ring-formula charge, max-merged across ranks (the slowest rank bounds
    /// the bulk-synchronous step). Zero when off.
    #[serde(default)]
    pub dense_saved_seconds: f64,
    /// Largest final error-feedback residual L2 norm across ranks (0
    /// without EF) — bounded residuals are the EF convergence invariant.
    #[serde(default)]
    pub dense_residual_norm: f64,
    /// Compressed-domain combines performed at owner shards, summed across
    /// ranks and iterations. Zero on the classic decode → reduce → re-encode
    /// path and when dense compression is off.
    #[serde(default)]
    pub homo_combines: u64,
    /// Virtual seconds charged to the homomorphic-combine phase, max-merged
    /// across ranks per segment (zero without a device-throughput override).
    #[serde(default)]
    pub homo_combine_seconds: f64,
    /// Virtual codec seconds the homomorphic path saved vs the classic
    /// counterpart of the same schedule (eliminated owner-shard decodes and
    /// re-encodes minus the combine charge), max-merged across ranks per
    /// segment. Zero without a device-throughput override.
    #[serde(default)]
    pub homo_saved_seconds: f64,
    /// Combine-aware Equation-2 advice over the dense candidate pool on the
    /// final post-all-reduce gradient (`None` for zero-iteration runs).
    /// Identical on every rank — asserted by the merger.
    #[serde(default)]
    pub dense_advice: Option<DenseAdvice>,
    /// Label of the backward embedding-gradient push
    /// (`"push-per-sample"` or `"push-combined-<codec>"`).
    #[serde(default)]
    pub grad_push: String,
    /// Compressed-domain combines of the backward push, summed across ranks
    /// and iterations (zero on the per-sample default path).
    #[serde(default)]
    pub grad_push_combines: u64,
    /// Label of the cluster topology the run used (`"flat"` or
    /// `"<nodes>x<ranks_per_node>"`).
    #[serde(default)]
    pub topology: String,
    /// Intra-node tier bytes moved (both directions, all network phases),
    /// summed across ranks and iterations. Zero under a flat topology —
    /// tier accounting is only recorded when a hierarchy is configured.
    #[serde(default)]
    pub intra_tier_bytes: u64,
    /// Inter-node (fabric) tier bytes moved, summed across ranks and
    /// iterations. Zero under a flat topology.
    #[serde(default)]
    pub inter_tier_bytes: u64,
    /// Virtual seconds charged to the intra-node tier, max-merged across
    /// ranks (the slowest rank bounds each bulk-synchronous phase). The
    /// un-overlapped charge: hidden time stays in `overlap_saved_seconds`.
    #[serde(default)]
    pub intra_tier_seconds: f64,
    /// Virtual seconds charged to the inter-node (fabric) tier, max-merged
    /// across ranks.
    #[serde(default)]
    pub inter_tier_seconds: f64,
    /// Label of the adaptive setting the run used (`"static"` or
    /// `"runtime-w<window>-h<hysteresis>"`).
    #[serde(default)]
    pub adaptive: String,
    /// The runtime controller's reselection log: one entry per window
    /// boundary, recording the observed bandwidth, the loss-plateau signal,
    /// the error-bound scale and every codec switch. Empty under the static
    /// setting. Identical on every rank (asserted by the merger) — the SPMD
    /// consistency that keeps mid-run codec switches coherent.
    #[serde(default)]
    pub reselections: Vec<Reselection>,
    /// Overall forward-payload compression ratio per controller window
    /// (summed across ranks). Empty under the static setting.
    #[serde(default)]
    pub window_ratios: Vec<f64>,
    /// Bytes of fresh buffer capacity the compress/send path allocated after
    /// the warm-up iterations, summed across ranks. Zero when the buffer
    /// pool, compression scratch and float recycler are fully reused.
    pub steady_state_allocated_bytes: u64,
    /// Bytes of buffer capacity served from recycled pool leases and scratch
    /// buffers over the whole run, summed across ranks.
    pub buffer_reused_bytes: u64,
    /// Label of the fault/elasticity setting (`"none"` without one).
    #[serde(default)]
    pub fault: String,
    /// Human-readable log of the world events the run went through (rank
    /// losses, resizes), in schedule order. Empty for fault-free runs.
    #[serde(default)]
    pub world_events: Vec<String>,
    /// World size after the last scheduled event (equals
    /// [`TrainingReport::world`] when nothing changed it).
    #[serde(default)]
    pub final_world: usize,
    /// Global checkpoints taken across the run (every rank contributes its
    /// part to each).
    #[serde(default)]
    pub checkpoints_taken: usize,
    /// Raw over encoded bytes across every checkpoint section (1.0 when no
    /// checkpoint was taken).
    #[serde(default)]
    pub checkpoint_ratio: f64,
    /// Modeled store-write seconds, bounded per checkpoint by the slowest
    /// rank's part and summed over checkpoints.
    #[serde(default)]
    pub checkpoint_write_seconds: f64,
    /// Modeled seconds lost to recovery: restore reads plus the re-executed
    /// iterations' share of their segments' modeled time.
    #[serde(default)]
    pub recovery_seconds: f64,
    /// Iterations re-executed because a rank loss rolled back to the last
    /// checkpoint.
    #[serde(default)]
    pub recovery_iterations: usize,
    /// Merged per-rank span trace (`None` with observability off). Segments
    /// concatenate on the timeline, so replayed iterations appear again —
    /// the trace shows the work that actually ran, in execution order.
    #[serde(default)]
    pub trace: Option<TraceExport>,
    /// Merged per-iteration metrics series (`None` with observability off).
    /// Rows key by iteration with replay overwriting its slot, matching the
    /// accuracy-curve semantics.
    #[serde(default)]
    pub metrics: Option<MetricsSeries>,
}

impl TrainingReport {
    /// Fraction of total time spent in the two all-to-all phases — the number
    /// behind Figure 1's ">60% of training time" observation.
    pub fn alltoall_fraction(&self) -> f64 {
        let a2a = self.breakdown.seconds(dlrm_comm::phase::FWD_A2A)
            + self.breakdown.seconds(dlrm_comm::phase::BWD_A2A);
        if self.total_seconds <= 0.0 {
            0.0
        } else {
            a2a / self.total_seconds
        }
    }

    /// Accuracy of the final quarter of training (convenience accessor).
    pub fn final_accuracy(&self) -> f64 {
        self.final_metrics.accuracy
    }

    /// Total number of per-table codec switches the runtime controller made
    /// (0 under the static setting).
    pub fn total_reselections(&self) -> usize {
        self.reselections.iter().map(|r| r.switches.len()).sum()
    }

    /// The error-bound scale in effect at the end of the run (1.0 without
    /// runtime eb control).
    pub fn final_eb_scale(&self) -> f32 {
        self.reselections.last().map_or(1.0, |r| r.eb_scale)
    }
}

/// One executed segment: the iteration span it covered, the world it ran on,
/// and the per-rank outcomes it produced.
struct SegmentRun {
    start: usize,
    end: usize,
    outcomes: Vec<RankOutcome>,
    wall_seconds: f64,
}

/// Spawn a fresh simulated cluster sized to the segment's world and run the
/// per-rank pipeline over the segment.
fn execute_segment(setup: Arc<RankSetup>) -> (Vec<RankOutcome>, f64) {
    let cfg = &setup.trainer;
    let mode = cfg.executor.exec_mode();
    let wire = if cfg.realtime_wire {
        WirePolicy::Modeled
    } else {
        WirePolicy::Instant
    };
    let executor = Executor::new(cfg.world, cfg.network)
        .with_mode(mode)
        .with_wire(wire);
    let setup_for_ranks = Arc::clone(&setup);
    let run = executor.run(move |ctx| pipeline::run_rank(&ctx, &setup_for_ranks));
    (run.results, run.wall_seconds)
}

/// Assemble the global checkpoint from the per-rank parts a segment produced
/// (every rank takes its part at the same cadence iteration, so either all
/// ranks carry one or none do).
fn assemble_last_checkpoint(
    spec: Option<&dlrm_ckpt::CheckpointSpec>,
    outcomes: &mut [RankOutcome],
) -> Option<Arc<Checkpoint>> {
    let parts: Vec<RankCheckpoint> = outcomes
        .iter_mut()
        .filter_map(|o| o.last_checkpoint.take())
        .collect();
    if parts.is_empty() {
        return None;
    }
    let spec = spec.expect("checkpoints were taken, so a spec exists");
    Some(Arc::new(Checkpoint::assemble(spec.codec.clone(), parts)))
}

/// Run hybrid-parallel training of `dataset` under `config` on the simulated
/// cluster and merge the per-rank outcomes.
///
/// Without scheduled world events this is one execution of the full
/// iteration range — bit for bit the pre-fault behaviour. A
/// [`FaultPlan`](dlrm_comm::FaultPlan) with events cuts the run into
/// segments: a rank loss rolls back to the last compressed checkpoint,
/// re-shards the lost rank's tables over the survivors and replays from
/// there on the shrunk world; a resize checkpoints at the boundary and
/// re-shards onto the new world with no lost work.
pub fn run_training(dataset: &DatasetConfig, config: &TrainerConfig) -> TrainingReport {
    config.validate().expect("invalid trainer config");
    dataset.validate().expect("invalid dataset config");

    let cards: Vec<usize> = dataset.tables.iter().map(|t| t.cardinality).collect();
    let spec = config.fault.as_ref().and_then(|f| f.checkpoint.clone());
    let events: Vec<WorldEvent> = config
        .fault
        .as_ref()
        .map_or_else(Vec::new, |f| f.plan.events().to_vec());

    let mut world = config.world;
    let mut partition = TablePartition::greedy(&cards, world);
    let mut cursor = 0usize;
    let mut restore: Option<Arc<Checkpoint>> = None;
    let mut last_ckpt: Option<Arc<Checkpoint>> = None;
    let mut world_events: Vec<String> = Vec::new();
    let mut recovery_seconds = 0.0f64;
    let mut recovery_iterations = 0usize;
    // Replay bookkeeping settled after the segment runs: the iteration the
    // current replay reaches, and the restore read already charged for it.
    let mut replay_to: Option<usize> = None;
    let mut pending_read_seconds = 0.0f64;
    let mut segments: Vec<SegmentRun> = Vec::new();
    let mut next_event = 0usize;

    while cursor < config.iterations {
        let end = events
            .get(next_event)
            .map_or(config.iterations, WorldEvent::iter);
        let segment = SegmentSpec {
            start: cursor,
            end,
            recovery: replay_to.is_some(),
            restore: restore.take(),
            checkpoint: spec.clone(),
            // A planned resize gets its exact restore point at the boundary.
            checkpoint_at_end: matches!(events.get(next_event), Some(WorldEvent::Resize { .. })),
        };
        let mut trainer = config.clone();
        trainer.world = world;
        let feed = BatchFeed::new(dataset.clone(), config.seed.wrapping_add(1), world)
            .starting_at(cursor, config.global_batch);
        let setup = Arc::new(RankSetup {
            dataset: dataset.clone(),
            trainer,
            partition: partition.clone(),
            segment,
            feed,
        });
        let (mut outcomes, wall_seconds) = execute_segment(setup);
        outcomes.sort_by_key(|o| o.rank);

        // Settle the replay accounting: the re-executed iterations' share of
        // this segment's modeled time, plus the restore read.
        if let Some(k) = replay_to.take() {
            let ledgers: Vec<TimingLedger> = outcomes.iter().map(|o| o.ledger.clone()).collect();
            let modeled = TimingLedger::merge_max(&ledgers).total_seconds();
            recovery_iterations += k - cursor;
            recovery_seconds +=
                pending_read_seconds + modeled * (k - cursor) as f64 / (end - cursor) as f64;
            pending_read_seconds = 0.0;
        }
        if let Some(ckpt) = assemble_last_checkpoint(spec.as_ref(), &mut outcomes) {
            last_ckpt = Some(ckpt);
        }
        segments.push(SegmentRun {
            start: cursor,
            end,
            outcomes,
            wall_seconds,
        });
        cursor = end;

        if let Some(&event) = events.get(next_event) {
            next_event += 1;
            let ckpt = last_ckpt
                .clone()
                .expect("validated: world events require a checkpoint spec");
            match event {
                WorldEvent::RankLoss { iter, rank } => {
                    let from = ckpt.iteration;
                    assert!(from <= iter, "restore point is ahead of the failure");
                    let (next, _moved) = partition.after_loss(&cards, rank);
                    partition = next;
                    world -= 1;
                    world_events.push(format!(
                        "iter {iter}: rank {rank} lost (world {}->{world}, replay from {from})",
                        world + 1
                    ));
                    pending_read_seconds = ckpt.read_seconds(
                        spec.as_ref()
                            .expect("validated: world events require a checkpoint spec")
                            .write_bandwidth,
                    );
                    restore = Some(ckpt);
                    replay_to = Some(iter);
                    cursor = from;
                }
                WorldEvent::Resize { iter, new_world } => {
                    assert_eq!(
                        ckpt.iteration, iter,
                        "resize restore point must be the boundary checkpoint"
                    );
                    let (next, _moved) = partition.resized(&cards, new_world);
                    partition = next;
                    world_events.push(format!("iter {iter}: resize {world}->{new_world}"));
                    world = new_world;
                    restore = Some(ckpt);
                }
            }
        }
    }

    merge_segments(
        dataset,
        config,
        &segments,
        FaultSummary {
            world_events,
            final_world: world,
            recovery_seconds,
            recovery_iterations,
        },
    )
}

/// Merge the per-rank observability artifacts into one trace and one
/// metrics series (both `None` with observability off).
///
/// Tracks concatenate segment by segment: each segment's records shift by
/// the running end time of the segments before it, so the timeline shows
/// the work in execution order, replays included. Driver-level world events
/// land on the global track at the boundary they occurred at. Metrics rows
/// instead key by iteration — a replayed iteration overwrites its slot, the
/// same semantics as the accuracy curve — and merge across ranks the way
/// the report does: seconds by max (the slowest rank bounds each
/// bulk-synchronous phase), bytes by sum, ratios from the summed bytes.
fn merge_obs(
    config: &TrainerConfig,
    segments: &[SegmentRun],
    num_tables: usize,
) -> (Option<TraceExport>, Option<MetricsSeries>) {
    if !config.obs.is_enabled() {
        return (None, None);
    }
    let events: Vec<WorldEvent> = config
        .fault
        .as_ref()
        .map_or_else(Vec::new, |f| f.plan.events().to_vec());

    let mut tracks: BTreeMap<usize, RankTrack> = BTreeMap::new();
    let mut global: Vec<SpanRecord> = Vec::new();
    let mut offset = 0.0f64;
    let mut next_event = 0usize;
    for seg in segments {
        let mut span = 0.0f64;
        for o in &seg.outcomes {
            let Some(track) = o.obs_track.as_ref() else {
                continue;
            };
            for rec in &track.records {
                span = span.max(rec.end);
            }
            let merged = tracks.entry(track.rank).or_insert_with(|| RankTrack {
                rank: track.rank,
                clock: track.clock,
                dropped: 0,
                records: Vec::new(),
            });
            merged.dropped += track.dropped;
            merged
                .records
                .extend(track.records.iter().map(|r| SpanRecord {
                    start: r.start + offset,
                    end: r.end + offset,
                    ..*r
                }));
        }
        offset += span;
        // A segment ends exactly where its scheduled event fires.
        while next_event < events.len() && events[next_event].iter() == seg.end {
            let ev = events[next_event];
            next_event += 1;
            let (kind, arg) = match ev {
                WorldEvent::RankLoss { rank, .. } => (RecordKind::RankLoss, rank as u64),
                WorldEvent::Resize { new_world, .. } => (RecordKind::Resize, new_world as u64),
            };
            global.push(SpanRecord {
                kind,
                name: kind.label(),
                start: offset,
                end: offset,
                iteration: ev.iter() as u64,
                arg,
                value: 0.0,
            });
        }
    }

    let mut slots: Vec<Option<(MetricsRow, Vec<f64>)>> = vec![None; config.iterations];
    for seg in segments {
        for (iter, slot) in slots.iter_mut().enumerate().take(seg.end).skip(seg.start) {
            let mut row = MetricsRow {
                iteration: iter as u64,
                ..Default::default()
            };
            let mut ratios = vec![0.0f64; num_tables];
            let mut any = false;
            for o in &seg.outcomes {
                let Some(m) = o.obs_metrics.as_ref() else {
                    continue;
                };
                let Some(idx) = m.rows.iter().position(|r| r.iteration == iter as u64) else {
                    continue;
                };
                any = true;
                let r = &m.rows[idx];
                row.modeled_seconds = row.modeled_seconds.max(r.modeled_seconds);
                row.wall_seconds = row.wall_seconds.max(r.wall_seconds);
                row.comm_seconds = row.comm_seconds.max(r.comm_seconds);
                row.wire_bytes += r.wire_bytes;
                row.intra_bytes += r.intra_bytes;
                row.inter_bytes += r.inter_bytes;
                row.fwd_original_bytes += r.fwd_original_bytes;
                row.fwd_encoded_bytes += r.fwd_encoded_bytes;
                row.ef_residual_norm = row.ef_residual_norm.max(r.ef_residual_norm);
                row.channel_depth = row.channel_depth.max(r.channel_depth);
                // Each table has a single owner rank; the others report 0.
                for (dst, &v) in ratios.iter_mut().zip(m.table_ratios(idx)) {
                    *dst = (*dst).max(v);
                }
            }
            if !any {
                continue;
            }
            row.compression_ratio = if row.fwd_encoded_bytes == 0 {
                0.0
            } else {
                row.fwd_original_bytes as f64 / row.fwd_encoded_bytes as f64
            };
            row.effective_bandwidth = if row.comm_seconds > 0.0 {
                row.wire_bytes as f64 / row.comm_seconds
            } else {
                0.0
            };
            *slot = Some((row, ratios));
        }
    }
    let mut metrics = MetricsSeries::with_capacity(config.iterations, num_tables);
    for (row, ratios) in slots.into_iter().flatten() {
        metrics.push_row(row, &ratios);
    }
    // Discrete events, synthesized post-run: controller/checkpoint instants
    // from rank 0's track (reselections are identical on every rank), plus
    // the driver-level world events.
    if let Some(track0) = tracks.values().next() {
        for rec in &track0.records {
            match rec.kind {
                RecordKind::CodecReselection => {
                    metrics.push_event(rec.iteration, rec.name, format!("table {}", rec.arg));
                }
                RecordKind::EbScaleChange => {
                    metrics.push_event(rec.iteration, rec.name, format!("scale {}", rec.value));
                }
                RecordKind::CheckpointWrite => {
                    metrics.push_event(
                        rec.iteration,
                        rec.name,
                        format!("{} encoded bytes", rec.arg),
                    );
                }
                _ => {}
            }
        }
    }
    for rec in &global {
        let detail = match rec.kind {
            RecordKind::RankLoss => format!("rank {}", rec.arg),
            _ => format!("world {}", rec.arg),
        };
        metrics.push_event(rec.iteration, rec.name, detail);
    }

    let trace = TraceExport {
        tracks: tracks.into_values().collect(),
        global,
    };
    (Some(trace), Some(metrics))
}

/// Driver-level fault bookkeeping folded into the report.
struct FaultSummary {
    world_events: Vec<String>,
    final_world: usize,
    recovery_seconds: f64,
    recovery_iterations: usize,
}

fn merge_segments(
    dataset: &DatasetConfig,
    config: &TrainerConfig,
    segments: &[SegmentRun],
    fault: FaultSummary,
) -> TrainingReport {
    let iterations = config.iterations;
    let num_tables = dataset.num_tables();

    // Combine per-iteration shard metrics across ranks; a replayed iteration
    // overwrites its slot in run order, so the curve reflects the work that
    // actually produced the final model.
    let mut slots: Vec<Option<EvalMetrics>> = vec![None; iterations];
    for seg in segments {
        for (offset, slot) in slots[seg.start..seg.end].iter_mut().enumerate() {
            let parts: Vec<EvalMetrics> = seg
                .outcomes
                .iter()
                .filter_map(|o| o.per_iteration.get(offset).copied())
                .collect();
            *slot = Some(EvalMetrics::combine(&parts));
        }
    }
    let accuracy_curve: Vec<EvalMetrics> = slots
        .into_iter()
        .enumerate()
        .map(|(i, m)| m.unwrap_or_else(|| panic!("iteration {i} not covered by any segment")))
        .collect();
    let tail = (iterations / 4).max(1).min(iterations);
    let initial_metrics = EvalMetrics::combine(&accuracy_curve[..tail]);
    let final_metrics = EvalMetrics::combine(&accuracy_curve[iterations - tail..]);

    // Within a segment the slowest rank bounds every bulk-synchronous phase
    // (max); segments execute back to back (sum).
    let mut breakdown = TimingLedger::new();
    let mut wall_phase_seconds = TimingLedger::new();
    let mut wall_seconds = 0.0f64;
    let mut dense_saved_seconds = 0.0f64;
    let mut homo_combine_seconds = 0.0f64;
    let mut homo_saved_seconds = 0.0f64;
    let mut intra_tier_seconds = 0.0f64;
    let mut inter_tier_seconds = 0.0f64;
    let mut checkpoint_write_seconds = 0.0f64;
    let mut checkpoints_taken = 0usize;
    let mut reselections: Vec<Reselection> = Vec::new();
    let mut window_ratios: Vec<f64> = Vec::new();
    for seg in segments {
        let ledgers: Vec<TimingLedger> = seg.outcomes.iter().map(|o| o.ledger.clone()).collect();
        breakdown.merge_sum(&TimingLedger::merge_max(&ledgers));
        let walls: Vec<TimingLedger> = seg.outcomes.iter().map(|o| o.wall.clone()).collect();
        wall_phase_seconds.merge_sum(&TimingLedger::merge_max(&walls));
        wall_seconds += seg.wall_seconds;
        dense_saved_seconds += seg
            .outcomes
            .iter()
            .map(|o| o.dense_saved_seconds)
            .fold(0.0, f64::max);
        homo_combine_seconds += seg
            .outcomes
            .iter()
            .map(|o| o.homo_combine_seconds)
            .fold(0.0, f64::max);
        homo_saved_seconds += seg
            .outcomes
            .iter()
            .map(|o| o.homo_saved_seconds)
            .fold(0.0, f64::max);
        intra_tier_seconds += seg
            .outcomes
            .iter()
            .map(|o| o.tier_seconds.0)
            .fold(0.0, f64::max);
        inter_tier_seconds += seg
            .outcomes
            .iter()
            .map(|o| o.tier_seconds.1)
            .fold(0.0, f64::max);
        // Ranks checkpoint in lockstep: the slowest part bounds each write.
        checkpoint_write_seconds += seg
            .outcomes
            .iter()
            .map(|o| o.checkpoint_write_seconds)
            .fold(0.0, f64::max);
        checkpoints_taken += seg
            .outcomes
            .iter()
            .map(|o| o.checkpoints_taken)
            .max()
            .unwrap_or(0);
        // The controller's decisions must be identical on every rank — they
        // were made from the same all-gathered observations. A divergence
        // here means ranks disagreed about which codec a table runs, which
        // would corrupt payloads; fail loudly instead.
        let seg_reselections = &seg.outcomes[0].reselections;
        for o in &seg.outcomes[1..] {
            assert_eq!(
                &o.reselections, seg_reselections,
                "rank {} diverged from rank 0's reselection log",
                o.rank
            );
        }
        reselections.extend_from_slice(seg_reselections);
        let windows = seg
            .outcomes
            .iter()
            .map(|o| o.window_traffic.len())
            .max()
            .unwrap_or(0);
        window_ratios.extend((0..windows).map(|w| {
            let (orig, comp) = seg.outcomes.iter().fold((0u64, 0u64), |acc, o| {
                let &(wo, wc) = o.window_traffic.get(w).unwrap_or(&(0, 0));
                (acc.0 + wo, acc.1 + wc)
            });
            if comp == 0 {
                1.0
            } else {
                orig as f64 / comp as f64
            }
        }));
    }
    let total_seconds = breakdown.total_seconds();
    let overlap_saved_seconds = breakdown.total_overlap_saved();
    let modeled_vs_wall_ratio = if wall_seconds > 0.0 {
        total_seconds / wall_seconds
    } else {
        0.0
    };

    // Everything below sums plain counters across every rank of every
    // segment (replayed work counts — those bytes really moved twice).
    let all = || segments.iter().flat_map(|s| s.outcomes.iter());
    let mut per_table: Vec<TableCompressionStats> = (0..num_tables)
        .map(|table_id| TableCompressionStats {
            table_id,
            original_bytes: 0,
            compressed_bytes: 0,
        })
        .collect();
    for o in all() {
        for (t, &(orig, comp)) in o.fwd_traffic.iter().enumerate() {
            per_table[t].original_bytes += orig;
            per_table[t].compressed_bytes += comp;
        }
    }
    let steady_state_allocated_bytes: u64 = all().map(|o| o.steady_state_allocated_bytes).sum();
    let dense_raw: u64 = all().map(|o| o.dense_traffic.0).sum();
    let dense_wire: u64 = all().map(|o| o.dense_traffic.1).sum();
    let dense_ratio = if dense_wire == 0 {
        1.0
    } else {
        dense_raw as f64 / dense_wire as f64
    };
    let dense_residual_norm = segments.last().map_or(0.0, |s| {
        s.outcomes
            .iter()
            .map(|o| o.dense_residual_norm)
            .fold(0.0, f64::max)
    });
    let homo_combines: u64 = all().map(|o| o.homo_combines).sum();
    let grad_push_combines: u64 = all().map(|o| o.grad_push_combines).sum();
    // The advice is computed from the post-all-gather gradient every rank
    // holds identically; a divergence means ranks decoded different values
    // from the same reduced shards — fail loudly.
    let dense_advice = segments.last().and_then(|s| {
        let advice = s.outcomes[0].dense_advice.clone();
        for o in &s.outcomes[1..] {
            assert_eq!(
                o.dense_advice, advice,
                "rank {} diverged from rank 0's dense advice",
                o.rank
            );
        }
        advice
    });
    let intra_tier_bytes: u64 = all().map(|o| o.tier_bytes.0).sum();
    let inter_tier_bytes: u64 = all().map(|o| o.tier_bytes.1).sum();
    let buffer_reused_bytes: u64 = all().map(|o| o.ledger.total_reused_bytes()).sum();
    let ckpt_orig: u64 = all().map(|o| o.checkpoint_original_bytes).sum();
    let ckpt_enc: u64 = all().map(|o| o.checkpoint_encoded_bytes).sum();
    let checkpoint_ratio = if ckpt_enc == 0 {
        1.0
    } else {
        ckpt_orig as f64 / ckpt_enc as f64
    };

    let total_orig: u64 = per_table.iter().map(|t| t.original_bytes).sum();
    let total_comp: u64 = per_table.iter().map(|t| t.compressed_bytes).sum();
    let overall_ratio = if total_comp == 0 {
        1.0
    } else {
        total_orig as f64 / total_comp as f64
    };

    let (trace, metrics) = merge_obs(config, segments, num_tables);

    TrainingReport {
        label: config.compression.label(),
        overlap: config.overlap,
        world: config.world,
        iterations,
        accuracy_curve,
        initial_metrics,
        final_metrics,
        breakdown,
        per_table,
        overall_ratio,
        total_seconds,
        overlap_saved_seconds,
        executor: config.executor.label().to_string(),
        wall_seconds,
        wall_phase_seconds,
        modeled_vs_wall_ratio,
        dense_compression: config.dense_compression.label(),
        dense_ratio,
        dense_saved_seconds,
        dense_residual_norm,
        homo_combines,
        homo_combine_seconds,
        homo_saved_seconds,
        dense_advice,
        grad_push: config.grad_push.label(),
        grad_push_combines,
        topology: config.topology.label(),
        adaptive: config.adaptive.label(),
        reselections,
        window_ratios,
        intra_tier_bytes,
        inter_tier_bytes,
        intra_tier_seconds,
        inter_tier_seconds,
        steady_state_allocated_bytes,
        buffer_reused_bytes,
        fault: config
            .fault
            .as_ref()
            .map_or_else(|| "none".to_string(), |f| f.label()),
        world_events: fault.world_events,
        final_world: fault.final_world,
        checkpoints_taken,
        checkpoint_ratio,
        checkpoint_write_seconds,
        recovery_seconds: fault.recovery_seconds,
        recovery_iterations: fault.recovery_iterations,
        trace,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompressionSetting;
    use dlrm_compress::CompressorKind;
    use dlrm_data::presets;

    fn tiny_config(compression: CompressionSetting, iterations: usize) -> TrainerConfig {
        let mut cfg = TrainerConfig::small_test(compression);
        cfg.iterations = iterations;
        cfg
    }

    #[test]
    fn baseline_training_runs_and_learns() {
        let dataset = presets::tiny();
        let cfg = tiny_config(CompressionSetting::None, 80);
        let report = run_training(&dataset, &cfg);
        assert_eq!(report.accuracy_curve.len(), 80);
        assert_eq!(report.per_table.len(), dataset.num_tables());
        // Loss in the last quarter should be below the first quarter's
        // (single-iteration losses are too noisy to compare directly).
        let first = report.initial_metrics.loss;
        let last = report.final_metrics.loss;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        // No compression → ratio 1.
        assert!((report.overall_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lossy_training_matches_baseline_accuracy_closely() {
        let dataset = presets::tiny();
        let iterations = 80;
        let baseline = run_training(&dataset, &tiny_config(CompressionSetting::None, iterations));
        let lossy = run_training(
            &dataset,
            &tiny_config(
                CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
                iterations,
            ),
        );
        assert!(lossy.overall_ratio > 1.5, "ratio {}", lossy.overall_ratio);
        let gap = (baseline.final_metrics.accuracy - lossy.final_metrics.accuracy).abs();
        assert!(gap < 0.08, "accuracy gap {gap} too large");
        // Lossy training must still actually learn.
        assert!(lossy.final_metrics.loss < lossy.initial_metrics.loss);
    }

    #[test]
    fn compressed_run_spends_less_time_in_alltoall() {
        let dataset = presets::tiny();
        let baseline = run_training(&dataset, &tiny_config(CompressionSetting::None, 6));
        let lossy = run_training(
            &dataset,
            &tiny_config(
                CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
                6,
            ),
        );
        let a2a = |r: &TrainingReport| {
            r.breakdown.seconds(dlrm_comm::phase::FWD_A2A)
                + r.breakdown.seconds(dlrm_comm::phase::BWD_A2A)
        };
        assert!(
            a2a(&lossy) < a2a(&baseline),
            "lossy {} vs baseline {}",
            a2a(&lossy),
            a2a(&baseline)
        );
    }

    #[test]
    fn world_one_degenerates_to_single_process() {
        let dataset = presets::tiny();
        let mut cfg = tiny_config(CompressionSetting::None, 5);
        cfg.world = 1;
        cfg.global_batch = 16;
        let report = run_training(&dataset, &cfg);
        assert_eq!(report.world, 1);
        assert_eq!(report.accuracy_curve.len(), 5);
    }

    #[test]
    fn fp16_and_fp8_pipelines_run() {
        let dataset = presets::tiny();
        for setting in [CompressionSetting::Fp16, CompressionSetting::Fp8] {
            let report = run_training(&dataset, &tiny_config(setting.clone(), 5));
            let expected = match setting {
                CompressionSetting::Fp16 => 2.0,
                _ => 4.0,
            };
            assert!(
                (report.overall_ratio - expected).abs() < 0.1,
                "{}: ratio {}",
                report.label,
                report.overall_ratio
            );
        }
    }

    #[test]
    fn steady_state_training_allocates_nothing_in_compress_send_path() {
        // The zero-allocation claim of the pooled-buffer refactor: after the
        // warm-up iterations, the compress → send → decompress path must be
        // fully served by recycled buffers — across every compression mode.
        let dataset = presets::tiny();
        for setting in [
            CompressionSetting::None,
            CompressionSetting::Fp16,
            CompressionSetting::fixed(0.02, CompressorKind::OursHybrid),
            CompressionSetting::fixed(0.02, CompressorKind::FzLike),
        ] {
            let label = setting.label();
            let mut cfg = tiny_config(setting, 12);
            // Fixed per-iteration batch size: chunk sizes reach their working
            // maximum during warm-up.
            cfg.global_batch = 64;
            let report = run_training(&dataset, &cfg);
            assert_eq!(
                report.steady_state_allocated_bytes, 0,
                "{label}: steady state allocated {} bytes",
                report.steady_state_allocated_bytes
            );
            assert!(
                report.buffer_reused_bytes > 0,
                "{label}: reuse counters never moved"
            );
        }
    }

    #[test]
    fn report_fractions_are_sane() {
        let dataset = presets::tiny();
        let report = run_training(&dataset, &tiny_config(CompressionSetting::None, 4));
        let f = report.alltoall_fraction();
        assert!((0.0..=1.0).contains(&f));
        assert!(report.total_seconds > 0.0);
    }
}
