//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` is this file printed
//! (`dlrm-benchmark spec`); the smoke test keeps the two equal.

use crate::json::Value;

/// How long one driver run measures (`--seconds` default and
/// `BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 25;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchmark"];

/// `(name, why)` per workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "train_raw_paced",
        "Figure-1 baseline: raw fp32 all-to-all on a paced 10 MB/s wire; the codec is bypassed, so a codec change must show no change here",
    ),
    (
        "train_adaptive_paced",
        "the paper's method on the same wire: dual-level adaptive plan + streamed chunked all-to-all; many small messages, where the modeled-vs-wall gap lives",
    ),
    (
        "train_hier_instant",
        "no sleeps: 2x2 hierarchy, serial gate, fixed hybrid codec, homomorphic lattice all-reduce; pure software cost of comm, codec and model",
    ),
    (
        "serve_zipf",
        "online inference on Zipf traffic: hot-row LRU, miss coalescer and many small compressed row gathers that training never touches",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these; see the README for what each
/// means on a training workload and on `serve_zipf`. One bound serves all
/// four workloads, so the noisiest sets it: the deterministic metrics carry
/// about three times the interquartile spread ten seeds showed; the
/// wall-clock ones carry the contract's maximum, because on the 2-core
/// container the compute-bound workloads' medians drifted by up to 17 %
/// between two back-to-back ten-seed sets of one commit (README, "Baseline").
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "iters_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_qps",
        unit: "req/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "final_loss",
        unit: "loss",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "wire_mb_per_iter",
        unit: "MB",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "serve_p99_model_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Training-pipeline phases reported as `trainer.phase.<key>_ms`, paired
/// with the ledger phase name they read.
pub const TRAINER_PHASES: &[(&str, &str)] = &[
    ("trainer.phase.lookup_ms", dlrm_comm::phase::LOOKUP),
    (
        "trainer.phase.fwd_compress_ms",
        dlrm_comm::phase::FWD_COMPRESS,
    ),
    ("trainer.phase.fwd_a2a_ms", dlrm_comm::phase::FWD_A2A),
    (
        "trainer.phase.fwd_decompress_ms",
        dlrm_comm::phase::FWD_DECOMPRESS,
    ),
    ("trainer.phase.mlp_fwd_ms", dlrm_comm::phase::MLP_FWD),
    ("trainer.phase.mlp_bwd_ms", dlrm_comm::phase::MLP_BWD),
    (
        "trainer.phase.bwd_compress_ms",
        dlrm_comm::phase::BWD_COMPRESS,
    ),
    ("trainer.phase.bwd_a2a_ms", dlrm_comm::phase::BWD_A2A),
    (
        "trainer.phase.bwd_decompress_ms",
        dlrm_comm::phase::BWD_DECOMPRESS,
    ),
    ("trainer.phase.emb_update_ms", dlrm_comm::phase::EMB_UPDATE),
    ("trainer.phase.allreduce_ms", dlrm_comm::phase::ALLREDUCE),
    ("trainer.phase.combine_ms", dlrm_comm::phase::COMBINE),
    ("trainer.phase.optimizer_ms", dlrm_comm::phase::OPTIMIZER),
];

/// Codecs of the `compress.<key>.{enc,dec}_gbps` table (eb 0.02).
pub const CODEC_TABLE: &[(&str, dlrm_compress::CompressorKind)] = &[
    ("hybrid", dlrm_compress::CompressorKind::OursHybrid),
    ("vector", dlrm_compress::CompressorKind::OursVector),
    ("huffman", dlrm_compress::CompressorKind::OursHuffman),
    ("fzlike", dlrm_compress::CompressorKind::FzLike),
    ("szlike", dlrm_compress::CompressorKind::SzLike),
    ("fp16", dlrm_compress::CompressorKind::Fp16),
];

/// Every workload reports every one of these; a workload that does not use
/// a layer reports 0 for it.
pub const PER_LAYER: &[PerLayer] = &[
    // compress (18)
    hi("compress.enc_gbps", "GB/s"),
    hi("compress.dec_gbps", "GB/s"),
    hi("compress.ratio", "ratio"),
    lo("compress.bound_violations", "count"),
    hi("compress.chunks.enc_gbps", "GB/s"),
    hi("compress.chunks.dec_gbps", "GB/s"),
    hi("compress.hybrid.enc_gbps", "GB/s"),
    hi("compress.hybrid.dec_gbps", "GB/s"),
    hi("compress.vector.enc_gbps", "GB/s"),
    hi("compress.vector.dec_gbps", "GB/s"),
    hi("compress.huffman.enc_gbps", "GB/s"),
    hi("compress.huffman.dec_gbps", "GB/s"),
    hi("compress.fzlike.enc_gbps", "GB/s"),
    hi("compress.fzlike.dec_gbps", "GB/s"),
    hi("compress.szlike.enc_gbps", "GB/s"),
    hi("compress.szlike.dec_gbps", "GB/s"),
    hi("compress.fp16.enc_gbps", "GB/s"),
    hi("compress.fp16.dec_gbps", "GB/s"),
    // comm (9)
    lo("comm.a2a.call_us", "us"),
    hi("comm.a2a.gbps", "GB/s"),
    lo("comm.a2a.wall_over_modeled", "ratio"),
    lo("comm.allreduce.call_us", "us"),
    hi("comm.allreduce.gbps", "GB/s"),
    lo("comm.fabric.msg_us", "us"),
    lo("comm.gate.handoff_us", "us"),
    lo("comm.barrier_us", "us"),
    lo("comm.pool.alloc_bytes_steady", "B"),
    // exec (1)
    lo("exec.spawn_join_us", "us"),
    // model, tensor, data (6)
    lo("model.fwd_us_per_sample", "us"),
    lo("model.bwd_us_per_sample", "us"),
    hi("model.lookup_mrows_per_s", "Mrows/s"),
    hi("model.emb_update_mrows_per_s", "Mrows/s"),
    hi("tensor.matmul_gflops", "GFLOP/s"),
    hi("data.batch_ksamples_per_s", "ksamples/s"),
    // grad (4)
    hi("grad.lattice.enc_gbps", "GB/s"),
    hi("grad.lattice.dec_gbps", "GB/s"),
    hi("grad.lattice.combine_gbps", "GB/s"),
    hi("grad.ef.compensate_gbps", "GB/s"),
    // adaptive (1)
    lo("adaptive.plan_build_s", "s"),
    // serve (13)
    lo("serve.cache.hit_ns", "ns"),
    lo("serve.cache.insert_ns", "ns"),
    lo("serve.coalesce.ns_per_key", "ns"),
    hi("serve.fetch.enc_gbps", "GB/s"),
    hi("serve.fetch.dec_gbps", "GB/s"),
    hi("serve.hit_rate", "ratio"),
    hi("serve.local_rows", "count"),
    lo("serve.fetched_rows", "count"),
    lo("serve.fetch_wire_mb", "MB"),
    hi("serve.fetch_ratio", "ratio"),
    lo("serve.alloc_bytes_steady", "B"),
    hi("serve.modeled_qps", "req/s"),
    lo("serve.model_p50_ms", "ms"),
    // trainer (26)
    lo("trainer.phase.lookup_ms", "ms"),
    lo("trainer.phase.fwd_compress_ms", "ms"),
    lo("trainer.phase.fwd_a2a_ms", "ms"),
    lo("trainer.phase.fwd_decompress_ms", "ms"),
    lo("trainer.phase.mlp_fwd_ms", "ms"),
    lo("trainer.phase.mlp_bwd_ms", "ms"),
    lo("trainer.phase.bwd_compress_ms", "ms"),
    lo("trainer.phase.bwd_a2a_ms", "ms"),
    lo("trainer.phase.bwd_decompress_ms", "ms"),
    lo("trainer.phase.emb_update_ms", "ms"),
    lo("trainer.phase.allreduce_ms", "ms"),
    lo("trainer.phase.combine_ms", "ms"),
    lo("trainer.phase.optimizer_ms", "ms"),
    hi("trainer.phase_sum_over_wall", "ratio"),
    lo("trainer.modeled_ms_per_iter", "ms"),
    lo("trainer.wall_gap_ms_per_iter", "ms"),
    hi("trainer.modeled_over_wall", "ratio"),
    hi("trainer.fwd_ratio", "ratio"),
    hi("trainer.dense_ratio", "ratio"),
    lo("trainer.a2a_wire_mb_per_iter", "MB"),
    lo("trainer.allreduce_wire_mb_per_iter", "MB"),
    lo("trainer.alloc_bytes_steady", "B"),
    hi("trainer.overlap_saved_ms_per_iter", "ms"),
    hi("trainer.homo_combines_per_iter", "count"),
    lo("trainer.intra_mb_per_iter", "MB"),
    lo("trainer.inter_mb_per_iter", "MB"),
    // obs (4)
    lo("obs.trace_overhead_frac", "frac"),
    hi("obs.spans_recorded", "count"),
    lo("obs.spans_dropped", "count"),
    lo("obs.mark_ns", "ns"),
];

/// `BENCHMARK.json`, exactly the keys the driver's contract lists.
pub fn benchmark_json() -> Value {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(s)).collect());
    Value::obj(vec![
        ("command", strs(COMMAND)),
        ("paths", strs(PATHS)),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::obj(vec![("name", Value::str(name)), ("why", Value::str(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.label())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(*name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name} why");
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert_eq!(PER_LAYER.len(), 82);
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Better::Lower
            && m.bound == END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max)));
        assert!(benchmark_json().encode().len() < 64 * 1024);
    }

    #[test]
    fn every_phase_and_codec_row_is_declared() {
        for (name, _) in TRAINER_PHASES {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
        }
        for (key, _) in CODEC_TABLE {
            for dir in ["enc", "dec"] {
                let name = format!("compress.{key}.{dir}_gbps");
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
            }
        }
    }
}
