//! The traced pass: untraced long runs for the tracing-overhead baseline,
//! one run with the program's own tracing on, then the *layer replay* — the
//! benchmark calling each layer's public functions directly on the
//! workload's own inputs, one span per call.

use crate::measure::{checked_run, median, Tally};
use crate::spec::{CODEC_TABLE, TRAINER_PHASES};
use crate::trace::Tracer;
use crate::workloads::{configure, dataset, Job, Report, Scale, Sizes, Workload, WORLD};
use dlrm_comm::cluster::METADATA_RECORD_BYTES;
use dlrm_comm::fabric::{run_on_mesh, GatePolicy, WirePolicy};
use dlrm_comm::{
    phase, NetworkConfig, PoolStats, PooledBuf, RankCtx, ReduceScratch, Topology,
    CHUNK_HEADER_BYTES,
};
use dlrm_compress::buffer::{compress_chunks_into, decompress_chunks_into, FusedBuffer};
use dlrm_compress::{CompressScratch, Compressor, CompressorKind};
use dlrm_data::{DatasetConfig, EmbeddingTrafficGenerator, SyntheticCriteo};
use dlrm_exec::{ExecMode, Executor};
use dlrm_grad::{ErrorFeedback, GradCodecKind, GradCompressor, GradScratch};
use dlrm_model::{Dlrm, DlrmConfig};
use dlrm_obs::{ClockDomain, SpanRecorder};
use dlrm_serve::{BatchCoalescer, FetchCodecs, HotRowCache, ServingReport};
use dlrm_tensor::Matrix;
use dlrm_trainer::plan::paper_default_plan;
use dlrm_trainer::{CompressionSetting, DenseCompression, TablePartition, TrainingReport};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Calls discarded before timing, and calls timed, per replay.
const WARM_CALLS: usize = 5;
const TIMED_CALLS: usize = 50;
/// Operations batched into one timed call where a single one is too short
/// for the clock (cache probes, span marks).
const BATCH: usize = 4096;
/// Error bound of the `compress.<codec>.*` table.
const TABLE_EB: f32 = 0.02;
/// Most untraced long runs the overhead baseline takes.
const MAX_BASELINE_RUNS: usize = 5;

/// Which all-to-all a workload's pipeline calls.
#[derive(Clone, Copy)]
enum A2a {
    /// Metadata phase + payload phase (`all_to_all_var_pooled`).
    Var,
    /// Self-describing chunks (`all_to_all_chunked`).
    Chunked,
    /// Two-level gather / leader exchange / scatter.
    Hier(Topology),
}

struct Replay<'a> {
    workload: Workload,
    sizes: Sizes,
    seed: u64,
    ds: &'a DatasetConfig,
    job: &'a Job,
    tr: &'a mut Tracer,
    out: Vec<(String, f64)>,
}

impl Replay<'_> {
    fn put(&mut self, name: &str, value: f64) {
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.0.
        self.out.push((name.to_string(), value + 0.0));
    }

    /// Run one layer's replay inside its own span.
    fn layer(&mut self, span: &'static str, f: impl FnOnce(&mut Self)) {
        let id = self.tr.enter(span);
        f(self);
        self.tr.exit(id);
    }

    /// Median seconds per call of `f`: `warm` discarded calls, then `calls`
    /// timed ones, each a leaf span carrying `count` units of work.
    fn time_n(
        &mut self,
        span: &'static str,
        warm: usize,
        calls: usize,
        count: u64,
        mut f: impl FnMut(),
    ) -> f64 {
        for _ in 0..warm {
            f();
        }
        let samples: Vec<f64> = (0..calls)
            .map(|_| self.tr.call(span, count, &mut f).1)
            .collect();
        median(&samples)
    }

    fn time(&mut self, span: &'static str, count: u64, f: impl FnMut()) -> f64 {
        self.time_n(span, WARM_CALLS, TIMED_CALLS, count, f)
    }

    /// Samples per rank per step: the trainer's local batch, or one
    /// frontend's share of a serving window.
    fn local_batch(&self) -> usize {
        self.sizes.samples_per_step(self.workload) / WORLD
    }

    /// The workload's modeled network, scheduling mode, and whether its
    /// wire is paced.
    fn fabric_settings(&self) -> (NetworkConfig, ExecMode, bool) {
        match self.job {
            Job::Train(cfg) => (cfg.network, cfg.executor.exec_mode(), cfg.realtime_wire),
            Job::Serve(cfg) => (cfg.network, cfg.executor.exec_mode(), cfg.realtime_wire),
        }
    }

    /// An executor with the workload's world, network, mode and wire policy.
    fn executor(&self) -> Executor {
        let (network, mode, paced) = self.fabric_settings();
        let wire = if paced {
            WirePolicy::Modeled
        } else {
            WirePolicy::Instant
        };
        Executor::new(WORLD, network)
            .with_mode(mode)
            .with_wire(wire)
    }

    /// Record rank 0's per-call windows as spans and return the median over
    /// calls of the slowest rank's duration (a collective is done when its
    /// last rank is).
    fn collect_calls(
        &mut self,
        span: &'static str,
        count: u64,
        per_rank: &[Vec<(Instant, Instant)>],
    ) -> f64 {
        for &(t0, t1) in &per_rank[0] {
            self.tr.record(span, t0, t1, count);
        }
        let calls = per_rank[0].len();
        let slowest: Vec<f64> = (0..calls)
            .map(|c| {
                per_rank
                    .iter()
                    .map(|marks| (marks[c].1 - marks[c].0).as_secs_f64())
                    .fold(0.0, f64::max)
            })
            .collect();
        median(&slowest)
    }
}

/// `WARM_CALLS + TIMED_CALLS` rounds of `prepare` then `call` on this rank's
/// `state`, all ranks aligned by a barrier before each timed window.
/// `prepare` gets the round number (warm-up ends at `WARM_CALLS`). Every
/// rank has finished the previous `call` before any rank prepares (first
/// barrier), so leases a call released are back in their pools by then and
/// a pool miss after warm-up is the collective's own.
fn rank_rounds<S>(
    ctx: &RankCtx,
    state: &mut S,
    prepare: impl Fn(&mut S, usize),
    call: impl Fn(&mut S),
) -> Vec<(Instant, Instant)> {
    let mut marks = Vec::with_capacity(TIMED_CALLS);
    for round in 0..WARM_CALLS + TIMED_CALLS {
        ctx.barrier();
        prepare(state, round);
        ctx.barrier();
        let t0 = Instant::now();
        call(state);
        let t1 = Instant::now();
        if round >= WARM_CALLS {
            marks.push((t0, t1));
        }
    }
    marks
}

// ───────────────────────────── compress ─────────────────────────────

/// Per-table `(codec, error bound)` the workload's forward all-to-all runs,
/// or `None` where the codec is bypassed.
fn table_codecs(r: &Replay) -> Option<Vec<(CompressorKind, f32)>> {
    let Job::Train(cfg) = r.job else {
        return None;
    };
    match &cfg.compression {
        CompressionSetting::Adaptive(plan) => Some(
            plan.tables
                .iter()
                .map(|t| (t.compressor, plan.error_bound(t.table_id, r.sizes.long)))
                .collect(),
        ),
        CompressionSetting::FixedLossy {
            error_bound,
            compressor,
            ..
        } => Some(vec![(*compressor, *error_bound); r.ds.num_tables()]),
        _ => None,
    }
}

/// Encode and decode every table's payload once per call; returns
/// `(enc GB/s, dec GB/s, encoded streams)`.
fn codec_pass(
    r: &mut Replay,
    spans: (&'static str, &'static str),
    payloads: &[Vec<f32>],
    codecs: &[(Box<dyn Compressor>, f32)],
) -> (f64, f64, Vec<Vec<u8>>) {
    let dim = r.ds.embedding_dim;
    let raw_bytes: usize = payloads.iter().map(|p| p.len() * 4).sum();
    let mut scratch = CompressScratch::new();
    let mut encoded: Vec<Vec<u8>> = vec![Vec::new(); payloads.len()];
    let enc_s = r.time(spans.0, raw_bytes as u64, || {
        for ((payload, (codec, eb)), out) in payloads.iter().zip(codecs).zip(encoded.iter_mut()) {
            out.clear();
            codec
                .compress_into(payload, dim, *eb, &mut scratch, out)
                .expect("payload compresses");
        }
    });
    let mut decoded: Vec<f32> = Vec::new();
    let dec_s = r.time(spans.1, raw_bytes as u64, || {
        for ((codec, _), bytes) in codecs.iter().zip(&encoded) {
            decoded.clear();
            codec
                .decompress_into(bytes, &mut scratch, &mut decoded)
                .expect("stream decompresses");
            black_box(&decoded);
        }
    });
    (
        raw_bytes as f64 / enc_s / 1e9,
        raw_bytes as f64 / dec_s / 1e9,
        encoded,
    )
}

fn replay_compress(r: &mut Replay, traffic: &mut EmbeddingTrafficGenerator, tally: &mut Tally) {
    let Some(kinds) = table_codecs(r) else {
        return;
    };
    let dim = r.ds.embedding_dim;
    let local = r.local_batch();
    let payloads: Vec<Vec<f32>> = (0..r.ds.num_tables())
        .map(|t| traffic.lookup_batch(t, local).into_vec())
        .collect();
    let codecs: Vec<(Box<dyn Compressor>, f32)> =
        kinds.iter().map(|(k, eb)| (k.build(), *eb)).collect();

    let (enc, dec, encoded) = codec_pass(r, ("compress.enc", "compress.dec"), &payloads, &codecs);
    r.put("compress.enc_gbps", enc);
    r.put("compress.dec_gbps", dec);
    let raw: usize = payloads.iter().map(|p| p.len() * 4).sum();
    let wire: usize = encoded.iter().map(Vec::len).sum();
    r.put("compress.ratio", raw as f64 / wire.max(1) as f64);

    // Decoded values off by more than the bound (same tolerance as
    // `dlrm_compress::verify_error_bound`).
    let mut scratch = CompressScratch::new();
    let mut violations = 0usize;
    for ((payload, (codec, eb)), bytes) in payloads.iter().zip(&codecs).zip(&encoded) {
        if !codec.is_error_bounded() {
            continue;
        }
        let mut back = Vec::new();
        codec
            .decompress_into(bytes, &mut scratch, &mut back)
            .expect("stream decompresses");
        violations += usize::from(back.len() != payload.len());
        violations += payload
            .iter()
            .zip(&back)
            .filter(|(a, b)| (**a - **b).abs() > eb * 1.0001)
            .count();
    }
    r.put("compress.bound_violations", violations as f64);
    tally.check(violations == 0, || {
        format!("compress.bound_violations = {violations}")
    });

    // One chunk per destination rank, fused into one send buffer per table.
    let chunks: Vec<Vec<Vec<f32>>> = (0..r.ds.num_tables())
        .map(|t| {
            (0..WORLD)
                .map(|_| traffic.lookup_batch(t, local).into_vec())
                .collect()
        })
        .collect();
    let chunk_bytes = (r.ds.num_tables() * WORLD * local * dim * 4) as u64;
    let mut fused: Vec<FusedBuffer> = (0..r.ds.num_tables())
        .map(|_| FusedBuffer {
            bytes: Vec::new(),
            spans: Vec::new(),
        })
        .collect();
    let enc_s = r.time("compress.chunks.enc", chunk_bytes, || {
        for ((table, (codec, eb)), out) in chunks.iter().zip(&codecs).zip(fused.iter_mut()) {
            let refs: [&[f32]; WORLD] = std::array::from_fn(|d| table[d].as_slice());
            compress_chunks_into(codec.as_ref(), &refs, dim, *eb, &mut scratch, out)
                .expect("chunks compress");
        }
    });
    let mut values = Vec::new();
    let mut spans = Vec::new();
    let dec_s = r.time("compress.chunks.dec", chunk_bytes, || {
        for ((codec, _), buffer) in codecs.iter().zip(&fused) {
            decompress_chunks_into(
                codec.as_ref(),
                buffer,
                &mut scratch,
                &mut values,
                &mut spans,
            )
            .expect("chunks decompress");
            black_box(&values);
        }
    });
    r.put("compress.chunks.enc_gbps", chunk_bytes as f64 / enc_s / 1e9);
    r.put("compress.chunks.dec_gbps", chunk_bytes as f64 / dec_s / 1e9);

    // The codec table: every codec on the same payloads at one bound, under
    // the workload that lets the plan choose among them.
    if r.workload == Workload::TrainAdaptivePaced {
        for (key, kind) in CODEC_TABLE {
            let same: Vec<(Box<dyn Compressor>, f32)> = (0..payloads.len())
                .map(|_| (kind.build(), TABLE_EB))
                .collect();
            let (enc, dec, _) = codec_pass(
                r,
                ("compress.table.enc", "compress.table.dec"),
                &payloads,
                &same,
            );
            r.put(&format!("compress.{key}.enc_gbps"), enc);
            r.put(&format!("compress.{key}.dec_gbps"), dec);
        }
    }
}

// ─────────────────────────────── comm ───────────────────────────────

/// One rank's containers for the all-to-all replay.
struct A2aState {
    send: Vec<PooledBuf>,
    recv: Vec<PooledBuf>,
    records: Vec<(usize, u32)>,
    steady_mark: PoolStats,
    moved: (usize, usize),
}

fn replay_a2a(r: &mut Replay, variant: A2a, payload: usize, tally: &mut Tally) {
    let exec = r.executor();
    let runs = exec.run(move |ctx| {
        let world = ctx.world();
        let tags = vec![0u32; world];
        let mut state = A2aState {
            send: Vec::with_capacity(world),
            recv: Vec::with_capacity(world),
            records: Vec::with_capacity(world),
            steady_mark: ctx.pool().stats(),
            moved: (0, 0),
        };
        let marks = rank_rounds(
            &ctx,
            &mut state,
            |st, round| {
                if round == WARM_CALLS {
                    st.steady_mark = ctx.pool().stats();
                }
                for _ in 0..world {
                    let mut buf = match variant {
                        A2a::Chunked => ctx.take_chunk_buf(payload + CHUNK_HEADER_BYTES),
                        A2a::Var | A2a::Hier(_) => ctx.take_buf(payload),
                    };
                    let filled = buf.len() + payload;
                    buf.resize(filled, 0x5A);
                    st.send.push(buf);
                }
            },
            |st| {
                st.moved = match variant {
                    A2a::Var => {
                        let s = ctx.all_to_all_var_pooled(
                            &mut st.send,
                            &mut st.recv,
                            &tags,
                            &mut st.records,
                        );
                        (s.sent, s.received)
                    }
                    A2a::Chunked => {
                        let s = ctx.all_to_all_chunked(
                            &mut st.send,
                            &mut st.recv,
                            &tags,
                            &mut st.records,
                        );
                        (s.sent, s.received)
                    }
                    A2a::Hier(topo) => {
                        let s = ctx.all_to_all_hier_pooled(&topo, &mut st.send, &mut st.recv);
                        (s.total() as usize, s.total() as usize)
                    }
                };
                // Releasing the received leases is part of the call, as in
                // the pipeline.
                st.recv.clear();
            },
        );
        let steady = ctx.pool().stats().since(&state.steady_mark);
        (marks, steady.allocated_bytes, state.moved)
    });
    let (marks, rest): (Vec<_>, Vec<_>) = runs
        .results
        .into_iter()
        .map(|(marks, alloc, moved)| (marks, (alloc, moved)))
        .unzip();
    let goodput = (WORLD * (WORLD - 1) * payload) as u64;
    let call_s = r.collect_calls("comm.a2a", goodput, &marks);
    r.put("comm.a2a.call_us", call_s * 1e6);
    r.put("comm.a2a.gbps", goodput as f64 / call_s / 1e9);
    let (network, _, paced) = r.fabric_settings();
    if paced {
        let cost = network.cost_model();
        let (sent, received) = rest[0].1;
        let modeled = match variant {
            A2a::Var => {
                let meta = (WORLD - 1) * METADATA_RECORD_BYTES;
                cost.metadata_time(WORLD - 1, METADATA_RECORD_BYTES)
                    + cost.alltoall_time(sent.saturating_sub(meta), received.saturating_sub(meta))
            }
            A2a::Chunked | A2a::Hier(_) => {
                cost.config().latency + cost.bandwidth_time(sent.max(received))
            }
        };
        r.put("comm.a2a.wall_over_modeled", call_s / modeled);
    }
    let steady_alloc: u64 = rest.iter().map(|(alloc, _)| alloc).sum();
    r.put("comm.pool.alloc_bytes_steady", steady_alloc as f64);
    tally.check(steady_alloc == 0, || {
        format!("comm.pool.alloc_bytes_steady = {steady_alloc}")
    });
}

/// Small deterministic pseudo-gradients: magnitudes a lattice quantizer at
/// 1e-3 represents without saturating, different on every rank.
fn pseudo_grads(len: usize, rank: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i + 31 * rank) as f32 * 0.37).sin() * 4e-3)
        .collect()
}

fn replay_allreduce(r: &mut Replay, len: usize) {
    let Job::Train(cfg) = r.job else {
        return;
    };
    let dense = match &cfg.dense_compression {
        DenseCompression::Off => None,
        DenseCompression::Compressed {
            codec,
            error_feedback,
        }
        | DenseCompression::Homomorphic {
            codec,
            error_feedback,
        } => Some((codec.clone(), *error_feedback)),
    };
    let topo = cfg.topology.topology().copied();
    let runs = r.executor().run(move |ctx| {
        let template = pseudo_grads(len, ctx.rank());
        let codec = dense
            .as_ref()
            .map(|(kind, error_feedback)| GradCompressor::new(kind, *error_feedback));
        let mut state = (template.clone(), codec, ReduceScratch::new());
        rank_rounds(
            &ctx,
            &mut state,
            |(data, codec, _), _| {
                data.copy_from_slice(&template);
                if let Some(codec) = codec {
                    // Sizes the error-feedback residual, as the pipeline's
                    // compensate step does before every all-reduce.
                    codec.compensate(data);
                }
            },
            |(data, codec, scratch)| match (codec.as_mut(), topo.as_ref()) {
                (Some(codec), Some(topo)) => {
                    ctx.all_reduce_homomorphic_hier(data, codec, scratch, topo);
                }
                (Some(codec), None) => {
                    ctx.all_reduce_compressed(data, codec, scratch);
                }
                (None, _) => {
                    ctx.all_reduce_sum(data);
                }
            },
        )
    });
    let reduced = (len * 4 * WORLD) as u64;
    let call_s = r.collect_calls("comm.allreduce", reduced, &runs.results);
    r.put("comm.allreduce.call_us", call_s * 1e6);
    r.put("comm.allreduce.gbps", reduced as f64 / call_s / 1e9);
}

/// 64-byte send→recv through the fabric on an instant free-running mesh:
/// ranks 0 and 1 bounce one lease, `MSGS` one-way messages per call.
fn replay_fabric_msg(r: &mut Replay) {
    const MSGS: usize = 512;
    let runs = run_on_mesh(
        WORLD,
        NetworkConfig::infinite(),
        GatePolicy::FreeRunning,
        WirePolicy::Instant,
        |ctx| {
            let fabric = ctx.fabric();
            let mut lease = ctx.take_buf(64);
            lease.resize(64, 1);
            let mut token = Some(lease);
            rank_rounds(
                &ctx,
                &mut token,
                |_, _| (),
                |token| match ctx.rank() {
                    0 => {
                        for _ in 0..MSGS / 2 {
                            fabric.send(1, token.take().expect("token held"));
                            *token = Some(fabric.recv(1));
                        }
                    }
                    1 => {
                        for _ in 0..MSGS / 2 {
                            fabric.send(0, fabric.recv(0));
                        }
                    }
                    _ => {}
                },
            )
        },
    );
    let call_s = r.collect_calls("comm.fabric.msg", MSGS as u64, &runs[..1]);
    r.put("comm.fabric.msg_us", call_s / MSGS as f64 * 1e6);
}

/// A token passed once around the ring under the serial gate: every hop is
/// a blocked receive handing the gate to the next rank.
fn replay_gate_handoff(r: &mut Replay) {
    const LAPS: usize = 256;
    let runs = run_on_mesh(
        WORLD,
        NetworkConfig::infinite(),
        GatePolicy::Serialized,
        WirePolicy::Instant,
        |ctx| {
            let fabric = ctx.fabric();
            let (rank, world) = (ctx.rank(), ctx.world());
            let (prev, next) = ((rank + world - 1) % world, (rank + 1) % world);
            let mut token = (rank == 0).then(|| ctx.take_buf(8));
            rank_rounds(
                &ctx,
                &mut token,
                |_, _| (),
                |token| {
                    for _ in 0..LAPS {
                        if rank == 0 {
                            fabric.send(next, token.take().expect("token held"));
                            *token = Some(fabric.recv(prev));
                        } else {
                            fabric.send(next, fabric.recv(prev));
                        }
                    }
                },
            )
        },
    );
    let hops = (LAPS * WORLD) as u64;
    let call_s = r.collect_calls("comm.gate.handoff", hops, &runs[..1]);
    r.put("comm.gate.handoff_us", call_s / hops as f64 * 1e6);
}

fn replay_barrier(r: &mut Replay) {
    const BARRIERS: usize = 64;
    let runs = r.executor().run(|ctx| {
        rank_rounds(
            &ctx,
            &mut (),
            |(), _| (),
            |()| {
                for _ in 0..BARRIERS {
                    ctx.barrier();
                }
            },
        )
    });
    let call_s = r.collect_calls("comm.barrier", BARRIERS as u64, &runs.results);
    r.put("comm.barrier_us", call_s / BARRIERS as f64 * 1e6);
}

fn replay_exec(r: &mut Replay) {
    let exec = r.executor();
    let s = r.time("exec.spawn_join", WORLD as u64, || {
        black_box(exec.run(|ctx| ctx.rank()));
    });
    r.put("exec.spawn_join_us", s * 1e6);
}

// ─────────────────────── model, tensor, data ───────────────────────

/// Returns the flattened MLP parameter count (the all-reduce's length).
fn replay_model(r: &mut Replay, traffic: &mut EmbeddingTrafficGenerator) -> usize {
    let training = r.workload.is_training();
    let local = r.local_batch();
    let global = local * WORLD;
    let cards: Vec<usize> = r.ds.tables.iter().map(|t| t.cardinality).collect();
    let owned = TablePartition::greedy(&cards, WORLD).tables_of(0).to_vec();
    let config = DlrmConfig::from_dataset(r.ds);
    let top_dims = config.top_dims();
    let mut model = Dlrm::new_partial(config, r.seed, Some(&owned));
    let mut gen = SyntheticCriteo::new(r.ds.clone(), r.seed);

    let s = r.time("data.next_batch", global as u64, || {
        black_box(gen.next_batch(global));
    });
    r.put("data.batch_ksamples_per_s", global as f64 / s / 1e3);

    // Rank 0 looks its owned tables up for every rank's shard, into
    // storage recycled from the call before — as the pipeline does.
    let shards = gen.next_batch(global).shard(WORLD);
    let rows = (owned.len() * global) as u64;
    let mut storage: Vec<Vec<f32>> = vec![Vec::new(); owned.len() * WORLD];
    let s = r.time("model.lookup", rows, || {
        let mut slot = storage.iter_mut();
        for &t in &owned {
            for shard in &shards {
                let buf = slot.next().expect("one buffer per lookup");
                let m = model.lookup_with_storage(t, &shard.sparse[t], std::mem::take(buf));
                *buf = m.into_vec();
            }
        }
    });
    r.put("model.lookup_mrows_per_s", rows as f64 / s / 1e6);

    let lookups: Vec<Matrix> = (0..r.ds.num_tables())
        .map(|t| traffic.lookup_batch(t, local))
        .collect();
    let mine = &shards[0];
    let s = r.time("model.forward_dense", local as u64, || {
        black_box(model.forward_dense(&mine.dense, &lookups));
    });
    r.put("model.fwd_us_per_sample", s / local as f64 * 1e6);

    let a = Matrix::from_fn(local, top_dims[0], |i, j| ((i * 7 + j) % 13) as f32 * 0.01);
    let b = Matrix::from_fn(top_dims[0], top_dims[1], |i, j| {
        ((i + j * 3) % 11) as f32 * 0.01
    });
    let flops = 2.0 * (local * top_dims[0] * top_dims[1]) as f64;
    let s = r.time("tensor.matmul", flops as u64, || {
        black_box(a.matmul(&b));
    });
    r.put("tensor.matmul_gflops", flops / s / 1e9);

    if training {
        let cache = model.forward_dense(&mine.dense, &lookups);
        let s = r.time("model.backward_dense", local as u64, || {
            black_box(model.backward_dense(&cache, &mine.labels));
        });
        r.put("model.bwd_us_per_sample", s / local as f64 * 1e6);

        let grads = model.backward_dense(&cache, &mine.labels);
        let s = r.time("model.apply_embedding_grad", rows, || {
            for &t in &owned {
                for shard in &shards {
                    model.apply_embedding_grad(
                        t,
                        &shard.sparse[t],
                        &grads.embedding_grads[t],
                        1e-6,
                    );
                }
            }
        });
        r.put("model.emb_update_mrows_per_s", rows as f64 / s / 1e6);
    }
    model.mlp_param_count()
}

// ─────────────────────────────── grad ───────────────────────────────

fn replay_grad(r: &mut Replay, len: usize) {
    let Job::Train(cfg) = r.job else {
        return;
    };
    let Some(kind @ GradCodecKind::Lattice { .. }) = cfg.dense_compression.codec() else {
        return;
    };
    let codec = kind.build();
    let mut scratch = GradScratch::new();
    let (a, b) = (pseudo_grads(len, 0), pseudo_grads(len, 1));
    let bytes = (len * 4) as u64;

    let mut enc_a = Vec::new();
    let s = r.time("grad.lattice.encode", bytes, || {
        enc_a.clear();
        codec.encode_into(&a, &mut scratch, &mut enc_a);
    });
    r.put("grad.lattice.enc_gbps", bytes as f64 / s / 1e9);

    let mut back = Vec::new();
    let s = r.time("grad.lattice.decode", bytes, || {
        back.clear();
        codec
            .decode_into(&enc_a, &mut scratch, &mut back)
            .expect("lattice stream decodes");
    });
    r.put("grad.lattice.dec_gbps", bytes as f64 / s / 1e9);

    let mut enc_b = Vec::new();
    codec.encode_into(&b, &mut scratch, &mut enc_b);
    let mut acc = enc_a.clone();
    let s = r.time("grad.lattice.combine", bytes, || {
        codec
            .combine_into(&mut acc, &enc_b, &mut scratch)
            .expect("lattice streams combine");
    });
    r.put("grad.lattice.combine_gbps", bytes as f64 / s / 1e9);

    let mut ef = ErrorFeedback::new();
    let mut grads = a.clone();
    ef.compensate(&mut grads);
    ef.record(0, &a, &back);
    let s = r.time("grad.ef.compensate", bytes, || ef.compensate(&mut grads));
    r.put("grad.ef.compensate_gbps", bytes as f64 / s / 1e9);
}

// ───────────────────────────── adaptive ─────────────────────────────

fn replay_plan(r: &mut Replay) {
    let Job::Train(cfg) = r.job else {
        return;
    };
    let CompressionSetting::Adaptive(plan) = &cfg.compression else {
        return;
    };
    let phases = plan.schedule.phases;
    let (ds, bandwidth, seed) = (r.ds.clone(), plan.bandwidth, r.seed);
    // A plan build is ~0.1 s: ten calls resolve it without costing the
    // pass what fifty would.
    let s = r.time_n("adaptive.plan_build", 1, 10, ds.num_tables() as u64, || {
        black_box(
            paper_default_plan(
                &ds,
                phases.initial_iters,
                phases.stable_iters,
                bandwidth,
                seed,
            )
            .expect("offline analysis succeeds"),
        );
    });
    r.put("adaptive.plan_build_s", s);
}

// ─────────────────────────────── serve ──────────────────────────────

fn replay_serve(r: &mut Replay, traffic: &mut EmbeddingTrafficGenerator, report: &ServingReport) {
    let Job::Serve(cfg) = r.job else {
        return;
    };
    let dim = r.ds.embedding_dim;
    let tables = r.ds.num_tables();
    let row = vec![0.25f32; dim];

    // Hits: probe resident keys in a scattered order (each hit promotes).
    let capacity = cfg.cache_rows.max(1);
    let key = |i: usize| ((i % tables) as u32, i as u32);
    let mut cache = HotRowCache::new(capacity, dim);
    for i in 0..capacity {
        let (t, row_id) = key(i);
        cache.insert(t, row_id, &row);
    }
    let mut cursor = 0usize;
    let s = r.time("serve.cache.get", BATCH as u64, || {
        for _ in 0..BATCH {
            cursor = (cursor + 7919) % capacity;
            let (t, row_id) = key(cursor);
            black_box(cache.get(t, row_id));
        }
    });
    r.put("serve.cache.hit_ns", s / BATCH as f64 * 1e9);

    // Inserts: always a new key into a full cache, so each one evicts.
    let mut fresh = capacity;
    let s = r.time("serve.cache.insert", BATCH as u64, || {
        for _ in 0..BATCH {
            let (t, row_id) = key(fresh);
            cache.insert(t, row_id, &row);
            fresh += 1;
        }
    });
    r.put("serve.cache.insert_ns", s / BATCH as f64 * 1e9);

    // One window of Zipf keys bucketed by owner and deduplicated.
    let cards: Vec<usize> = r.ds.tables.iter().map(|t| t.cardinality).collect();
    let partition = TablePartition::greedy(&cards, cfg.frontend_count());
    let batch = SyntheticCriteo::new(r.ds.clone(), r.seed).next_batch(cfg.window);
    let keys = (cfg.window * tables) as u64;
    let mut coalescer = BatchCoalescer::new(WORLD);
    let s = r.time("serve.coalesce", keys, || {
        coalescer.clear();
        for (t, column) in batch.sparse.iter().enumerate() {
            let owner = partition.owner_of(t);
            for &row_id in column {
                coalescer.note(owner, t as u32, row_id);
            }
        }
        coalescer.finish();
        black_box(coalescer.total_unique());
    });
    r.put("serve.coalesce.ns_per_key", s / keys as f64 * 1e9);

    // The fetch codec on row groups of the size the run actually gathered:
    // one group per (frontend, remote table) per window.
    let groups = (report.windows * tables * (WORLD - 1)).max(1);
    let group_rows = (report.fetched_rows as usize).div_ceil(groups).max(1);
    let payloads: Vec<Vec<f32>> = (0..tables)
        .map(|t| traffic.lookup_batch(t, group_rows).into_vec())
        .collect();
    let codecs = FetchCodecs::new(tables, cfg.fetch.resolved_kind());
    let mut scratch = GradScratch::new();
    let bytes = (tables * group_rows * dim * 4) as u64;
    let mut encoded: Vec<Vec<u8>> = vec![Vec::new(); tables];
    let s = r.time("serve.fetch.encode", bytes, || {
        for (t, (payload, out)) in payloads.iter().zip(encoded.iter_mut()).enumerate() {
            out.clear();
            codecs.codec(t).encode_into(payload, &mut scratch, out);
        }
    });
    r.put("serve.fetch.enc_gbps", bytes as f64 / s / 1e9);
    let mut back = Vec::new();
    let s = r.time("serve.fetch.decode", bytes, || {
        for (t, stream) in encoded.iter().enumerate() {
            back.clear();
            codecs
                .codec(t)
                .decode_into(stream, &mut scratch, &mut back)
                .expect("fetch stream decodes");
            black_box(&back);
        }
    });
    r.put("serve.fetch.dec_gbps", bytes as f64 / s / 1e9);

    r.put("serve.hit_rate", report.hit_rate);
    r.put("serve.local_rows", report.local_rows as f64);
    r.put("serve.fetched_rows", report.fetched_rows as f64);
    r.put("serve.fetch_wire_mb", report.fetch_wire_bytes as f64 / 1e6);
    r.put("serve.fetch_ratio", report.fetch_ratio);
    r.put(
        "serve.alloc_bytes_steady",
        report.steady_state_allocated_bytes as f64,
    );
    r.put("serve.modeled_qps", report.modeled_qps);
    r.put("serve.model_p50_ms", report.p50_ms);
}

// ────────────────────────── trainer and obs ─────────────────────────

fn trainer_rows(r: &mut Replay, report: &TrainingReport) {
    let iters = report.iterations.max(1) as f64;
    let per_iter_ms = |seconds: f64| seconds / iters * 1e3;
    for (name, ledger_phase) in TRAINER_PHASES {
        r.put(
            name,
            per_iter_ms(report.wall_phase_seconds.seconds(ledger_phase)),
        );
    }
    let phase_sum: f64 = phase::ALL
        .iter()
        .map(|p| report.wall_phase_seconds.seconds(p))
        .sum();
    r.put(
        "trainer.phase_sum_over_wall",
        phase_sum / report.wall_seconds,
    );
    r.put(
        "trainer.modeled_ms_per_iter",
        per_iter_ms(report.total_seconds),
    );
    r.put(
        "trainer.wall_gap_ms_per_iter",
        per_iter_ms(report.wall_seconds - report.total_seconds),
    );
    r.put("trainer.modeled_over_wall", report.modeled_vs_wall_ratio);
    r.put("trainer.fwd_ratio", report.overall_ratio);
    r.put("trainer.dense_ratio", report.dense_ratio);
    let mb_per_iter = |bytes: u64| bytes as f64 / iters / 1e6;
    r.put(
        "trainer.a2a_wire_mb_per_iter",
        mb_per_iter(
            report.breakdown.bytes(phase::FWD_A2A) + report.breakdown.bytes(phase::BWD_A2A),
        ),
    );
    r.put(
        "trainer.allreduce_wire_mb_per_iter",
        mb_per_iter(report.breakdown.bytes(phase::ALLREDUCE)),
    );
    r.put(
        "trainer.alloc_bytes_steady",
        report.steady_state_allocated_bytes as f64,
    );
    r.put(
        "trainer.overlap_saved_ms_per_iter",
        per_iter_ms(report.overlap_saved_seconds),
    );
    r.put(
        "trainer.homo_combines_per_iter",
        report.homo_combines as f64 / iters,
    );
    r.put(
        "trainer.intra_mb_per_iter",
        mb_per_iter(report.intra_tier_bytes),
    );
    r.put(
        "trainer.inter_mb_per_iter",
        mb_per_iter(report.inter_tier_bytes),
    );
    if let Some(trace) = &report.trace {
        r.put("obs.spans_recorded", trace.record_count() as f64);
        r.put(
            "obs.spans_dropped",
            trace.tracks.iter().map(|t| t.dropped).sum::<u64>() as f64,
        );
    }

    let mut recorder = SpanRecorder::new(
        0,
        ClockDomain::Wall,
        SpanRecorder::capacity_for(report.iterations),
    );
    let mut iteration = 0u64;
    let s = r.time("obs.mark", BATCH as u64, || {
        recorder.begin_iteration(iteration, 0.0);
        iteration += 1;
        for _ in 0..BATCH {
            recorder.mark(phase::LOOKUP, 0.0);
        }
    });
    r.put("obs.mark_ns", s / BATCH as f64 * 1e9);
}

// ────────────────────────────── the pass ─────────────────────────────

/// Per-peer all-to-all payload of one step, from the run's own byte counts.
fn a2a_payload_bytes(report: &Report) -> usize {
    let per_peer = match report {
        Report::Train(r) => {
            // The busiest rank's sent + received forward bytes per iteration.
            r.breakdown.bytes(phase::FWD_A2A) as usize / r.iterations.max(1) / (2 * (WORLD - 1))
        }
        Report::Serve(r) => r.fetch_wire_bytes as usize / r.windows.max(1) / (WORLD * (WORLD - 1)),
    };
    per_peer.max(64)
}

fn a2a_variant(job: &Job) -> A2a {
    match job {
        Job::Train(cfg) => match cfg.topology.topology() {
            Some(topo) => A2a::Hier(*topo),
            None if cfg.overlap.is_enabled() => A2a::Chunked,
            None => A2a::Var,
        },
        Job::Serve(_) => A2a::Var,
    }
}

/// Every per-layer metric this workload produces (the caller fills 0 for
/// the layers it does not use) — and the trace file, written to `trace_dir`.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    trace_dir: &Path,
    tally: &mut Tally,
) -> Vec<(String, f64)> {
    let sizes = Sizes::of(workload, scale);
    let mut tr = Tracer::new(workload.name());
    let run_span = if workload.is_training() {
        "run_training"
    } else {
        "run_serving"
    };
    let root = tr.enter("workload");
    let ds = tr.scope("setup.dataset", |_| dataset(scale));
    let job = tr.scope("setup.plan", |_| configure(workload, &ds, seed, scale));

    // Untraced baseline for the tracing overhead: a discarded short run,
    // then long runs while one more of the average length still fits in
    // half the time budget.
    tr.scope("warmup", |_| {
        checked_run(workload, &sizes, &ds, &job, sizes.short, false, tally)
    });
    let began = Instant::now();
    let mut untraced = Vec::new();
    while untraced.is_empty()
        || (untraced.len() < MAX_BASELINE_RUNS
            && began.elapsed().as_secs_f64() * (1.0 + 1.0 / untraced.len() as f64) < seconds / 2.0)
    {
        let (run, _) = tr.scope(run_span, |_| {
            checked_run(workload, &sizes, &ds, &job, sizes.long, false, tally)
        });
        untraced.push(run.wall_s);
    }
    let (traced, _) = tr.scope("run.traced", |_| {
        checked_run(workload, &sizes, &ds, &job, sizes.long, true, tally)
    });

    let mut r = Replay {
        workload,
        sizes,
        seed,
        ds: &ds,
        job: &job,
        tr: &mut tr,
        out: Vec::new(),
    };
    let baseline = median(&untraced);
    r.put(
        "obs.trace_overhead_frac",
        (traced.wall_s - baseline) / baseline,
    );
    if let Ok(report) = &traced.report {
        replay_layers(&mut r, report, tally);
    }
    let out = r.out;
    tr.exit(root);

    print_self_times(&tr);
    let path = trace_dir.join(format!("trace_{}.json", workload.name()));
    let written = std::fs::create_dir_all(trace_dir)
        .and_then(|()| std::fs::write(&path, tr.to_chrome_trace().encode()));
    tally.check(written.is_ok(), || {
        format!("could not write {}: {:?}", path.display(), written)
    });
    println!("trace: {} spans -> {}", tr.spans().len(), path.display());
    out
}

fn replay_layers(r: &mut Replay, report: &Report, tally: &mut Tally) {
    let mut traffic = EmbeddingTrafficGenerator::new(r.ds.clone(), r.seed);
    let payload = a2a_payload_bytes(report);
    let variant = a2a_variant(r.job);
    let gated = r.executor().mode() == ExecMode::Sequential;
    let mut mlp_params = 0;
    r.layer("replay.compress", |r| {
        replay_compress(r, &mut traffic, tally)
    });
    r.layer("replay.model", |r| {
        mlp_params = replay_model(r, &mut traffic)
    });
    r.layer("replay.comm", |r| {
        replay_a2a(r, variant, payload, tally);
        replay_allreduce(r, mlp_params);
        replay_fabric_msg(r);
        if gated {
            replay_gate_handoff(r);
        }
        replay_barrier(r);
    });
    r.layer("replay.exec", replay_exec);
    r.layer("replay.grad", |r| replay_grad(r, mlp_params));
    r.layer("replay.adaptive", replay_plan);
    match report {
        Report::Train(report) => r.layer("replay.trainer", |r| trainer_rows(r, report)),
        Report::Serve(report) => r.layer("replay.serve", |r| replay_serve(r, &mut traffic, report)),
    }
}

fn print_self_times(tr: &Tracer) {
    println!("self time by span (duration minus children):");
    println!(
        "  {:<28} {:>7} {:>12} {:>12}",
        "span", "calls", "total s", "self s"
    );
    for (name, calls, total, own) in tr.self_times().into_iter().take(16) {
        println!("  {name:<28} {calls:>7} {total:>12.6} {own:>12.6}");
    }
}
