//! The serving equivalence matrix.
//!
//! Four invariants the engine is built around, asserted bitwise:
//!
//! 1. **cache-on ≡ cache-off** — the hot-row cache stores codec-decoded
//!    bytes, so caching changes *when* a row crosses the wire but never a
//!    response bit;
//! 2. **sequential ≡ threaded** — all modeled numbers are analytic, so the
//!    executor mode never changes the deterministic report;
//! 3. **compressed fetch at eb = 0 ≡ raw** — a zero error bound resolves to
//!    the identity codec;
//! 4. **zero-alloc steady state** — after the warm-up windows, pools and
//!    engine scratch stop allocating.
//!
//! Plus the wins the engine exists for, on the paper's figure-11 network
//! under overload (arrivals past the service rate, so the queue integrates
//! every per-window saving): caching and compressed fetches each strictly
//! improve the modeled p99 and QPS, the controller moves tables off a
//! mediocre codec under drifting traffic, and serving from a restored
//! checkpoint answers bit for bit what the in-memory model answers. A golden
//! table freezes the controller windows: every reselection, the final codecs
//! and the response fingerprint over topology × error-bound control. Two
//! response-only pins (the controller rows and three lossy pointwise fetch
//! codecs) hold every answer bit still while the wire format moves.

use dlrm_adaptive::Reselection;
use dlrm_comm::{NetworkConfig, Topology};
use dlrm_compress::CompressorKind;
use dlrm_data::{presets, DatasetConfig, TrafficDrift};
use dlrm_grad::GradCodecKind;
use dlrm_model::{Dlrm, DlrmConfig};
use dlrm_serve::{
    run_serving, run_serving_from_checkpoint, snapshot_model, FetchSetting, ServeAdaptive,
    ServeConfig, ServingReport,
};
use dlrm_trainer::ExecutorSetting;

#[test]
fn cache_on_equals_cache_off_bitwise() {
    let dataset = presets::tiny();
    let on = ServeConfig::small_test();
    let mut off = on.clone();
    off.cache_rows = 0;
    let r_on = run_serving(&dataset, &on);
    let r_off = run_serving(&dataset, &off);
    assert_eq!(
        r_on.response_bits(),
        r_off.response_bits(),
        "hot-row caching changed a response bit"
    );
    // The comparison is only meaningful if the cache actually absorbed
    // traffic and the workload actually crossed ranks.
    assert!(r_on.hit_rate > 0.3, "hit rate {} too low", r_on.hit_rate);
    assert!(r_on.fetched_rows < r_off.fetched_rows);
    assert!(r_on.fetched_rows > 0 && r_on.local_rows > 0);
    assert_eq!(r_off.cache_hits, 0);
}

#[test]
fn sequential_equals_threaded_bitwise() {
    let dataset = presets::tiny();
    let seq = ServeConfig::small_test();
    let mut thr = seq.clone();
    thr.executor = ExecutorSetting::Threaded;
    let r_seq = run_serving(&dataset, &seq);
    let r_thr = run_serving(&dataset, &thr);
    assert_eq!(
        r_seq.fingerprint(),
        r_thr.fingerprint(),
        "executor mode leaked into the deterministic report"
    );
    assert_eq!(r_seq.response_bits(), r_thr.response_bits());
    assert_eq!(r_seq.p99_ms.to_bits(), r_thr.p99_ms.to_bits());
    assert_eq!(r_seq.modeled_qps.to_bits(), r_thr.modeled_qps.to_bits());
}

#[test]
fn compressed_fetch_at_zero_bound_equals_raw_bitwise() {
    let dataset = presets::tiny();
    let mut raw = ServeConfig::small_test();
    raw.fetch = FetchSetting::Raw;
    let mut eb0 = raw.clone();
    eb0.fetch = FetchSetting::hybrid(0.0);
    let r_raw = run_serving(&dataset, &raw);
    let r_eb0 = run_serving(&dataset, &eb0);
    assert_eq!(
        r_raw.fingerprint(),
        r_eb0.fingerprint(),
        "eb=0 compressed fetch is not the raw wire"
    );
    assert_eq!(r_raw.fetch_wire_bytes, r_eb0.fetch_wire_bytes);

    // Sanity: an actually-lossy bound does change bits (so test 1 and this
    // test are not vacuous).
    let lossy = ServeConfig::small_test();
    let r_lossy = run_serving(&dataset, &lossy);
    assert_ne!(r_raw.response_bits(), r_lossy.response_bits());
    assert!(r_lossy.fetch_ratio > r_raw.fetch_ratio);
}

#[test]
fn lattice_fetch_is_cache_transparent_too() {
    // The non-default pointwise codec family follows the same invariant.
    let dataset = presets::tiny();
    let mut on = ServeConfig::small_test();
    on.fetch = FetchSetting::Compressed {
        codec: GradCodecKind::Lattice { error_bound: 0.02 },
    };
    let mut off = on.clone();
    off.cache_rows = 0;
    let r_on = run_serving(&dataset, &on);
    let r_off = run_serving(&dataset, &off);
    assert_eq!(r_on.response_bits(), r_off.response_bits());
    assert!(r_on.cache_hits > 0);
}

#[test]
fn steady_state_allocates_nothing() {
    let dataset = presets::tiny();
    let cfg = ServeConfig::small_test();
    let report = run_serving(&dataset, &cfg);
    assert_eq!(
        report.steady_state_allocated_bytes, 0,
        "pool/scratch allocated after warm-up"
    );
    // And with the cache off (different code path through the store).
    let mut off = cfg.clone();
    off.cache_rows = 0;
    let report = run_serving(&dataset, &off);
    assert_eq!(report.steady_state_allocated_bytes, 0);
}

/// [`ServeConfig::small_test`] with arrivals far past the service rate.
fn overloaded() -> ServeConfig {
    let mut cfg = ServeConfig::small_test();
    cfg.arrival_qps = 20_000_000.0;
    cfg
}

/// One arm of the fetch transport × hot-row caching grid.
fn grid_arm(fetch: FetchSetting, cached: bool) -> ServingReport {
    let mut cfg = overloaded();
    cfg.fetch = fetch;
    if !cached {
        cfg.cache_rows = 0;
    }
    run_serving(&presets::tiny(), &cfg)
}

/// The hybrid fetch transport at the serving error bound.
fn hybrid() -> FetchSetting {
    FetchSetting::hybrid(0.05)
}

/// `better` has a strictly lower modeled p99 AND a strictly higher QPS.
fn assert_strictly_better(label: &str, better: &ServingReport, worse: &ServingReport) {
    assert!(
        better.p99_ms < worse.p99_ms,
        "{label}: p99 {} not strictly under {}",
        better.p99_ms,
        worse.p99_ms
    );
    assert!(
        better.modeled_qps > worse.modeled_qps,
        "{label}: qps {} not strictly over {}",
        better.modeled_qps,
        worse.modeled_qps
    );
}

#[test]
fn caching_strictly_improves_tail_and_throughput() {
    let cold = grid_arm(hybrid(), false);
    let hot = grid_arm(hybrid(), true);
    assert!(hot.hit_rate > 0.2, "hit rate {} too low", hot.hit_rate);
    assert_strictly_better("cache / hybrid", &hot, &cold);
    // And the same holds on the raw wire, where a hit saves more bytes.
    let raw_cold = grid_arm(FetchSetting::Raw, false);
    let raw_hot = grid_arm(FetchSetting::Raw, true);
    assert_strictly_better("cache / raw", &raw_hot, &raw_cold);
}

#[test]
fn compressed_fetches_strictly_beat_raw() {
    for cached in [false, true] {
        let raw = grid_arm(FetchSetting::Raw, cached);
        let comp = grid_arm(hybrid(), cached);
        assert!(comp.fetch_ratio > 1.0, "ratio {}", comp.fetch_ratio);
        assert!(comp.fetch_wire_bytes < raw.fetch_wire_bytes);
        assert_strictly_better(&format!("hybrid / cached={cached}"), &comp, &raw);
    }
}

#[test]
fn controller_reselects_under_drift() {
    // Every table starts on an fp16 cast; drifting hot rows must make the
    // Equation-2 score move at least one table to a better-ratio codec.
    let mut cfg = overloaded();
    let windows = cfg.num_windows();
    let dataset = presets::tiny().with_drift(TrafficDrift::hot_rotation(windows / 4, windows / 8));
    cfg.fetch = FetchSetting::Compressed {
        codec: GradCodecKind::ErrorBounded {
            compressor: CompressorKind::Fp16,
            error_bound: 0.05,
        },
    };
    cfg.adaptive = Some(ServeAdaptive::new(2, 0.05));
    let report = run_serving(&dataset, &cfg);
    assert!(
        report.codec_switches >= 1,
        "no codec reselection under drift: {:?}",
        report.final_codecs
    );
    assert!(!report.reselections.is_empty());
    assert!(
        report
            .final_codecs
            .iter()
            .any(|label| !label.contains("fp16")),
        "every table still on the initial fp16: {:?}",
        report.final_codecs
    );
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every field of a reselection, floats by bits, codecs by label.
fn reselection_words(r: &Reselection) -> Vec<u64> {
    let kind = |k: CompressorKind| fnv(k.label().bytes().map(u64::from));
    let mut w = vec![
        r.index as u64,
        r.iteration as u64,
        r.effective_bandwidth.to_bits(),
        r.mean_loss.to_bits(),
        r.plateaued as u64,
        r.eb_scale.to_bits() as u64,
        r.degraded as u64,
        r.switches.len() as u64,
    ];
    for s in &r.switches {
        w.extend([
            s.table_id as u64,
            kind(s.from),
            kind(s.to),
            s.estimated_speedup.to_bits(),
            s.incumbent_speedup.to_bits(),
        ]);
    }
    w
}

/// Golden serving controller windows over the drift setup of
/// `controller_reselects_under_drift`: `(row label, codec switches, FNV over
/// every reselection field, FNV over the final codec labels, the report
/// fingerprint)`. The fingerprint covers every response bit, so a moved
/// error-bound scale shows up there too.
///
/// Re-pinned once, columns 3 and 5 only, when fetch groups began to be
/// encoded at the table's row width and framed with varints: the live
/// traffic ratios and the wire bytes the reselections read moved, while the
/// switch counts, the final codecs and every response bit
/// ([`SERVE_CONTROLLER_RESPONSES`]) stayed.
///
/// Re-pinned again, columns 3 and 5 only, when the hot-row cache gained its
/// frequency admission gate: the cache hits, evictions and fetched rows
/// moved, and with them the wire bandwidth and hit-share loss signal each
/// reselection from window 6 on records, and the fingerprint's cache
/// counters. Every switch (all at the first reselection), the final codecs,
/// the plateau decisions and every response bit stayed.
///
/// Re-pinned a third time, columns 3 and 5 only, when payload groups lost
/// their `[n u32]` count header: the fetch wire bytes the reselections'
/// bandwidth and ratio words read and the fingerprint's `fetch_wire_bytes`
/// moved. The serving error-bound control and its two `eb-plateau` rows
/// were deleted then.
///
/// Re-pinned a fourth time, column 3 only, when the per-tier advice was
/// deleted: [`reselection_words`] lost its tier words. With those words left
/// out, the commit before the deletion gives these same two FNVs, so no
/// reselection field moved.
const SERVE_CONTROLLER_GOLDEN: [(&str, usize, u64, u64, u64); 2] = [
    (
        "flat/eb-fixed",
        4,
        0xddfd1d4e3591e007,
        0xd2fe3784ff160581,
        0x21dc23a4157ba8da,
    ),
    (
        "2x2/eb-fixed",
        4,
        0x799c20e2a058befd,
        0xd2fe3784ff160581,
        0x5e779eb1a1160910,
    ),
];

/// FNV over the response bits of every [`SERVE_CONTROLLER_GOLDEN`] row,
/// captured before the fetch wire changed: the re-pin moved no answer.
const SERVE_CONTROLLER_RESPONSES: u64 = 0x9dcc4aa467afb797;

#[test]
fn controller_windows_are_pinned() {
    let mut rows = Vec::new();
    for hierarchical in [false, true] {
        let (dataset, cfg) = drift_controller(hierarchical);
        let report = run_serving(&dataset, &cfg);
        let label = format!("{}/eb-fixed", if hierarchical { "2x2" } else { "flat" });
        assert_eq!(
            fnv(report.response_bits().into_iter().map(u64::from)),
            SERVE_CONTROLLER_RESPONSES,
            "{label}: a response bit moved"
        );
        rows.push((
            label,
            report.codec_switches,
            fnv(report.reselections.iter().flat_map(reselection_words)),
            fnv(report
                .final_codecs
                .iter()
                .flat_map(|l| l.bytes().chain([0]).map(u64::from))),
            report.fingerprint(),
        ));
    }
    let table: String = rows
        .iter()
        .map(|(label, n, r, c, f)| {
            format!("    (\"{label}\", {n}, {r:#018x}, {c:#018x}, {f:#018x}),\n")
        })
        .collect();
    for ((label, n, r, c, f), golden) in rows.iter().zip(SERVE_CONTROLLER_GOLDEN) {
        assert_eq!(
            (label.as_str(), *n, *r, *c, *f),
            golden,
            "serving controller window drifted; actual table:\n{table}"
        );
    }
    // A grid where nothing switches pins nothing worth pinning.
    assert!(rows.iter().any(|r| r.1 > 0), "no row switched a codec");
}

/// The two configurations of [`controller_windows_are_pinned`], shared with
/// [`serving_charges_are_pinned`]: drifting hot rows, every table starting
/// on an fp16 cast, a controller window of two batch windows, flat or on the
/// 2x2 topology.
fn drift_controller(hierarchical: bool) -> (DatasetConfig, ServeConfig) {
    let mut cfg = overloaded();
    let windows = cfg.num_windows();
    let dataset = presets::tiny().with_drift(TrafficDrift::hot_rotation(windows / 4, windows / 8));
    cfg.fetch = FetchSetting::Compressed {
        codec: GradCodecKind::ErrorBounded {
            compressor: CompressorKind::Fp16,
            error_bound: 0.05,
        },
    };
    cfg.adaptive = Some(ServeAdaptive::new(2, 0.05));
    if hierarchical {
        cfg.topology = Some(two_by_two(&cfg));
    }
    (dataset, cfg)
}

/// Two nodes of two ranks: NVLink inside a node, `cfg`'s network between.
fn two_by_two(cfg: &ServeConfig) -> Topology {
    Topology::new(2, 2, NetworkConfig::nvlink_intra_node(), cfg.network)
}

/// Golden serving charges: every row's `phase_seconds` (phase name and
/// `f64` bits, in report order) and `steady_state_allocated_bytes`. The
/// report fingerprint hashes neither, so this is the pin on what a window
/// is charged: the host gathers, the codec work at the profile's
/// throughputs, the request and payload wire seconds summed per destination,
/// and the MLP flops. Rows: [`ServeConfig::small_test`] and the
/// [`drift_controller`] configuration, each flat and on the 2x2 topology.
type ChargesRow = (&'static str, [(&'static str, u64); 5], u64);

#[rustfmt::skip]
const SERVE_CHARGES_GOLDEN: [ChargesRow; 4] = [
    ("small/flat", [("embedding lookup", 0x3ef3edb48fd60d54), ("fwd all-to-all", 0x3f660fb55d4d15bc), ("fwd compression", 0x3ebb04105a7f71d3), ("fwd decompression", 0x3e954ebbe2abceb0), ("mlp forward", 0x3ebb2bf34aebea82)], 0),
    ("drift/flat", [("embedding lookup", 0x3ef2d4628cdc915a), ("fwd all-to-all", 0x3f679e1e16492038), ("fwd compression", 0x3ea3f669562bd955), ("fwd decompression", 0x3ea3f669562bd954), ("mlp forward", 0x3ebb2bf34aebea82)], 0),
    ("small/2x2", [("embedding lookup", 0x3ef3edb48fd60d54), ("fwd all-to-all", 0x3f6027b00bb8a84d), ("fwd compression", 0x3ebb04105a7f71d3), ("fwd decompression", 0x3e954ebbe2abceb0), ("mlp forward", 0x3ebb2bf34aebea82)], 0),
    ("drift/2x2", [("embedding lookup", 0x3ef2d4628cdc915a), ("fwd all-to-all", 0x3f610e51eb6fd125), ("fwd compression", 0x3ea3f669562bd955), ("fwd decompression", 0x3ea3f669562bd954), ("mlp forward", 0x3ebb2bf34aebea82)], 0),
];

#[test]
fn serving_charges_are_pinned() {
    let mut runs = Vec::new();
    for hierarchical in [false, true] {
        let tier = if hierarchical { "2x2" } else { "flat" };
        let mut small = ServeConfig::small_test();
        if hierarchical {
            small.topology = Some(two_by_two(&small));
        }
        runs.push((
            format!("small/{tier}"),
            run_serving(&presets::tiny(), &small),
        ));
        let (dataset, drift) = drift_controller(hierarchical);
        runs.push((format!("drift/{tier}"), run_serving(&dataset, &drift)));
    }
    let phases = |r: &ServingReport| -> Vec<(String, u64)> {
        (r.phase_seconds.iter())
            .map(|(name, s)| (name.clone(), s.to_bits()))
            .collect()
    };
    let table: String = runs
        .iter()
        .map(|(label, r)| {
            let phases: Vec<String> = (phases(r).iter())
                .map(|(name, bits)| format!("(\"{name}\", {bits:#018x})"))
                .collect();
            let steady = r.steady_state_allocated_bytes;
            format!("    (\"{label}\", [{}], {steady}),\n", phases.join(", "))
        })
        .collect();
    assert_eq!(
        runs.len(),
        SERVE_CHARGES_GOLDEN.len(),
        "actual table:\n{table}"
    );
    for ((label, r), (g_label, g_phases, g_steady)) in runs.iter().zip(SERVE_CHARGES_GOLDEN) {
        let golden: Vec<(String, u64)> = (g_phases.iter())
            .map(|&(name, bits)| (name.to_string(), bits))
            .collect();
        assert_eq!(
            (label.as_str(), phases(r), r.steady_state_allocated_bytes),
            (g_label, golden, g_steady),
            "serving charges drifted; actual table:\n{table}"
        );
    }
}

/// FNV over the response bits of [`ServeConfig::small_test`] runs under
/// lossy pointwise fetch codecs. Only the responses are pinned, not the
/// report fingerprint, which covers wire bytes: the fetch frames and the
/// codec streams' row width may change what crosses the wire, never what a
/// frontend decodes.
const LOSSY_RESPONSES: [(&str, u64); 3] = [
    ("hybrid-eb0.05", 0x0492d35efeaa4fc5),
    ("fp16", 0x38459e06729390ea),
    ("lattice-eb0.02", 0x901450cc59cb3d70),
];

#[test]
fn lossy_fetch_responses_are_pinned() {
    let fetches = [
        FetchSetting::hybrid(0.05),
        FetchSetting::Compressed {
            codec: GradCodecKind::Fp16,
        },
        FetchSetting::Compressed {
            codec: GradCodecKind::Lattice { error_bound: 0.02 },
        },
    ];
    for (fetch, (label, golden)) in fetches.into_iter().zip(LOSSY_RESPONSES) {
        let mut cfg = ServeConfig::small_test();
        cfg.fetch = fetch;
        let report = run_serving(&presets::tiny(), &cfg);
        assert!(
            report.fetched_rows > 0 && report.fetch_ratio > 1.0,
            "{label}"
        );
        let got = fnv(report.response_bits().into_iter().map(u64::from));
        assert_eq!(got, golden, "{label}: responses moved, now {got:#018x}");
    }
}

#[test]
fn checkpoint_restored_serving_is_bitwise_identical() {
    // Snapshot the fleet's model, then serve from the restored checkpoint
    // under a different model seed: every response bit must come from the
    // checkpoint, not from the fleet's own initialization.
    let dataset = presets::tiny();
    let cfg = overloaded();
    let in_memory = run_serving(&dataset, &cfg);
    let model = Dlrm::new(DlrmConfig::from_dataset(&dataset), cfg.model_seed);
    let ckpt = snapshot_model(&model, &GradCodecKind::Identity, 0);
    let mut restored_cfg = cfg;
    restored_cfg.model_seed ^= 0xDEAD_BEEF;
    let restored = run_serving_from_checkpoint(
        &dataset,
        &restored_cfg,
        &ckpt,
        Some("snapshot of the in-memory model".to_string()),
    );
    assert!(restored.from_checkpoint);
    assert!(!in_memory.from_checkpoint);
    assert_eq!(in_memory.response_bits(), restored.response_bits());
    assert_eq!(in_memory.p99_ms.to_bits(), restored.p99_ms.to_bits());
    assert_eq!(
        restored.provenance.as_deref(),
        Some("snapshot of the in-memory model")
    );
}
