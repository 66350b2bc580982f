//! Compressor-selection model (Equation 2 / Algorithm 2 of the paper).
//!
//! Sending `V` bytes uncompressed over a link of bandwidth `B` takes `V / B`.
//! With a compressor of ratio `CR`, compression throughput `Tc` and
//! decompression throughput `Td`, the same exchange takes
//! `V/Tc + (V/CR)/B + V/Td`, so the end-to-end communication speedup is
//!
//! ```text
//! speedup = (V / B) / (V/Tc + V/(CR·B) + V/Td)
//!         = 1 / ( 1/CR + B·(1/Tc + 1/Td) )
//! ```
//!
//! which is the paper's Equation 2 (all throughputs and the bandwidth in the
//! same unit, e.g. bytes per second). The offline analysis evaluates this for
//! every candidate compressor on sampled data and keeps the one with the
//! largest estimated speedup.

use dlrm_compress::{CompressionReport, CompressorKind};
use serde::{Deserialize, Serialize};

/// Inputs of the speedup model for one compressor on one table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedupInputs {
    /// Compression ratio (original bytes / compressed bytes).
    pub ratio: f64,
    /// Compression throughput in bytes per second.
    pub compress_throughput: f64,
    /// Decompression throughput in bytes per second.
    pub decompress_throughput: f64,
    /// All-to-all network bandwidth in bytes per second.
    pub bandwidth: f64,
}

impl SpeedupInputs {
    /// Build the model inputs from a measured [`CompressionReport`] and a
    /// network bandwidth (bytes/s).
    pub fn from_report(report: &CompressionReport, bandwidth: f64) -> Self {
        Self {
            ratio: report.ratio,
            compress_throughput: report.compress_throughput,
            decompress_throughput: report.decompress_throughput,
            bandwidth,
        }
    }
}

/// Equation 2: estimated end-to-end communication speedup.
///
/// Returns a value ≤ ratio; a speedup below 1 means compression would slow
/// the exchange down (compressor slower than the network).
pub fn estimate_speedup(inputs: SpeedupInputs) -> f64 {
    validate(inputs);
    1.0 / (1.0 / inputs.ratio
        + inputs.bandwidth
            * (1.0 / inputs.compress_throughput + 1.0 / inputs.decompress_throughput))
}

fn validate(inputs: SpeedupInputs) {
    assert!(inputs.ratio > 0.0, "ratio must be positive");
    assert!(
        inputs.compress_throughput > 0.0 && inputs.decompress_throughput > 0.0,
        "throughputs must be positive"
    );
    assert!(inputs.bandwidth > 0.0, "bandwidth must be positive");
}

/// Equation 2 adjusted for the overlapped (double-buffered) pipeline, where
/// compression of chunk *k+1* runs while chunk *k* is on the wire, so only
/// the slower of the two stages paces the exchange:
///
/// ```text
/// t_overlap ≈ max(V/Tc, V/(CR·B)) + V/Td
/// speedup   = (V / B) / t_overlap = 1 / ( max(B/Tc, 1/CR) + B/Td )
/// ```
///
/// (The pipeline-fill transient — one chunk's compression that nothing can
/// hide — is amortised away over many chunks, exactly as the trainer's
/// `OverlapTimeline` converges to for large chunk counts.) Always ≥ the
/// sequential [`estimate_speedup`]; the gap is the hidden codec time.
pub fn estimate_overlapped_speedup(inputs: SpeedupInputs) -> f64 {
    validate(inputs);
    let b = inputs.bandwidth;
    1.0 / ((b / inputs.compress_throughput).max(1.0 / inputs.ratio)
        + b / inputs.decompress_throughput)
}

/// Equation 2 adapted to the dense-gradient **all-reduce** (reduce-scatter +
/// all-gather over `world` ranks), where a rank moves `r = 2·(P−1)/P` of the
/// vector instead of all of it:
///
/// ```text
/// t_raw  = r·V/B
/// t_comp = V/Tc + r·(V/CR)/B + 2·V/Td
/// speedup = t_raw / t_comp = r / ( B/Tc + r/CR + 2·B/Td )
/// ```
///
/// The codec terms follow the compressed schedule's work: each rank encodes
/// roughly one vector's worth of shards per call (the `(P−1)/P` it
/// contributes plus its own reduced shard re-encoded for the all-gather),
/// and decodes about two (the peer contributions it reduces plus the
/// gathered shards) — hence `V/Tc + 2·V/Td`. At `world == 1` nothing moves
/// and the estimate is 1.
pub fn estimate_allreduce_speedup(inputs: SpeedupInputs, world: usize) -> f64 {
    validate(inputs);
    if world <= 1 {
        return 1.0;
    }
    let p = world as f64;
    let r = 2.0 * (p - 1.0) / p;
    let b = inputs.bandwidth;
    r / (b / inputs.compress_throughput + r / inputs.ratio + 2.0 * b / inputs.decompress_throughput)
}

/// Equation 2 for a **homomorphic** all-reduce codec — one whose encoded
/// shards add in the compressed domain (`dlrm_comm::ReduceCodec::combine`),
/// letting owner shards skip the decode → reduce → re-encode round-trip:
///
/// ```text
/// t_classic = V/Tc + r·(V/CR)/B + 2·V/Td
/// t_homo    = V/Tc + r·(V/CR)/B + V/Td + (r/2)·V/(CR·Tm)
/// speedup   = t_raw / t_homo = r / ( B/Tc + r/CR + B/Td + (r/2)·B/(CR·Tm) )
/// ```
///
/// Relative to [`estimate_allreduce_speedup`], one of the two `V/Td` decode
/// terms disappears (the `world − 1` peer contributions an owner no longer
/// decodes, plus the reduced shard it no longer re-encodes, net out to about
/// one vector's worth of codec work) and a combine term appears: each rank
/// folds `(P−1)/P` of the vector's **encoded** bytes (`r/2 · V/CR`) at
/// throughput `Tm`. A homomorphic codec therefore wins the selection
/// exactly when its eliminated re-encode/decode cycles outweigh whatever
/// ratio penalty its addable layout costs.
pub fn estimate_homomorphic_allreduce_speedup(
    inputs: SpeedupInputs,
    combine_throughput: f64,
    world: usize,
) -> f64 {
    validate(inputs);
    assert!(
        combine_throughput > 0.0,
        "combine throughput must be positive"
    );
    if world <= 1 {
        return 1.0;
    }
    let p = world as f64;
    let r = 2.0 * (p - 1.0) / p;
    let b = inputs.bandwidth;
    r / (b / inputs.compress_throughput
        + r / inputs.ratio
        + b / inputs.decompress_throughput
        + (r / 2.0) * b / (inputs.ratio * combine_throughput))
}

/// Rank one all-reduce codec by the right Equation-2 variant: codecs that
/// advertise a combine throughput are scored with
/// [`estimate_homomorphic_allreduce_speedup`], the rest with the classic
/// [`estimate_allreduce_speedup`].
pub fn estimate_allreduce_speedup_auto(
    inputs: SpeedupInputs,
    combine_throughput: Option<f64>,
    world: usize,
) -> f64 {
    match combine_throughput {
        Some(tm) => estimate_homomorphic_allreduce_speedup(inputs, tm, world),
        None => estimate_allreduce_speedup(inputs, world),
    }
}

/// Equation-2 estimate under a given overlap mode — what compressor
/// selection uses so a pipeline that hides codec time ranks codecs by their
/// *exposed* cost, not their raw cost.
pub fn estimate_speedup_with(inputs: SpeedupInputs, overlapped: bool) -> f64 {
    if overlapped {
        estimate_overlapped_speedup(inputs)
    } else {
        estimate_speedup(inputs)
    }
}

/// Pick the compressor with the best estimated speedup from measured reports
/// (Algorithm 2). Returns `(kind, estimated speedup)`; `None` if `reports`
/// is empty.
pub fn select_compressor(
    reports: &[(CompressorKind, CompressionReport)],
    bandwidth: f64,
) -> Option<(CompressorKind, f64)> {
    select_compressor_with(reports, bandwidth, false)
}

/// [`select_compressor`] under a given overlap mode: with `overlapped`, the
/// ranking uses [`estimate_overlapped_speedup`], so a high-ratio compressor
/// whose codec time hides behind the wire is no longer penalised for it —
/// the selection the overlapped trainer pipeline wants.
pub fn select_compressor_with(
    reports: &[(CompressorKind, CompressionReport)],
    bandwidth: f64,
    overlapped: bool,
) -> Option<(CompressorKind, f64)> {
    reports
        .iter()
        .map(|(kind, report)| {
            (
                *kind,
                estimate_speedup_with(SpeedupInputs::from_report(report, bandwidth), overlapped),
            )
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(ratio: f64, tc: f64, td: f64, b: f64) -> SpeedupInputs {
        SpeedupInputs {
            ratio,
            compress_throughput: tc,
            decompress_throughput: td,
            bandwidth: b,
        }
    }

    #[test]
    fn infinite_throughput_limit_is_the_ratio() {
        // With compressors far faster than the network the speedup approaches CR.
        let s = estimate_speedup(inputs(10.0, 1e15, 1e15, 4e9));
        assert!((s - 10.0).abs() < 1e-3, "{s}");
    }

    #[test]
    fn slow_compressor_yields_speedup_below_one() {
        // Compressor slower than the link: not worth it.
        let s = estimate_speedup(inputs(10.0, 1e9, 1e9, 4e9));
        assert!(s < 1.0, "{s}");
    }

    #[test]
    fn paper_scale_numbers_are_plausible() {
        // Hybrid compressor at CR ~19.9, Tc ~40.5 GB/s, Td ~205 GB/s over a
        // 4 GB/s all-to-all — the paper reports an 8.6x speedup on Terabyte
        // (its measured pipeline overlaps some stages; the plain Equation-2
        // estimate lands a bit lower but in the same regime).
        let s = estimate_speedup(inputs(19.9, 40.5e9, 205.4e9, 4e9));
        assert!(
            (4.5..10.0).contains(&s),
            "speedup {s} out of expected range"
        );
        // Kaggle: CR ~11.2 → ~6.22x reported.
        let s2 = estimate_speedup(inputs(11.2, 40.5e9, 205.4e9, 4e9));
        assert!(
            (3.5..8.0).contains(&s2),
            "speedup {s2} out of expected range"
        );
        assert!(s > s2);
    }

    #[test]
    fn speedup_increases_with_ratio_and_throughput() {
        let base = estimate_speedup(inputs(5.0, 50e9, 50e9, 4e9));
        assert!(estimate_speedup(inputs(10.0, 50e9, 50e9, 4e9)) > base);
        assert!(estimate_speedup(inputs(5.0, 100e9, 100e9, 4e9)) > base);
        // A faster network makes compression less attractive.
        assert!(estimate_speedup(inputs(5.0, 50e9, 50e9, 16e9)) < base);
    }

    #[test]
    fn selection_prefers_balanced_compressor_over_fast_low_ratio() {
        use dlrm_compress::CompressionReport;
        let mk = |ratio: f64, tc: f64, td: f64| CompressionReport {
            compressor: "x".into(),
            original_bytes: 1_000_000,
            compressed_bytes: (1_000_000.0 / ratio) as usize,
            ratio,
            compress_seconds: 1.0,
            decompress_seconds: 1.0,
            compress_throughput: tc,
            decompress_throughput: td,
            max_abs_error: 0.0,
            error_bound: 0.01,
        };
        // FZ-like: extremely fast but CR 6; hybrid: CR 19.9 at 40/205 GB/s.
        let reports = vec![
            (CompressorKind::FzLike, mk(6.2, 136e9, 136e9)),
            (CompressorKind::OursHybrid, mk(19.9, 40.5e9, 205.4e9)),
        ];
        let (kind, speedup) = select_compressor(&reports, 4e9).unwrap();
        assert_eq!(kind, CompressorKind::OursHybrid);
        assert!(speedup > 5.0);
        // On a much faster network the cheap compressor can win.
        let (kind_fast_net, _) = select_compressor(&reports, 60e9).unwrap();
        assert_eq!(kind_fast_net, CompressorKind::FzLike);
    }

    #[test]
    fn empty_selection_returns_none() {
        assert!(select_compressor(&[], 4e9).is_none());
        assert!(select_compressor_with(&[], 4e9, true).is_none());
    }

    #[test]
    fn overlapped_estimate_dominates_the_sequential_one() {
        for (cr, tc, td, b) in [
            (19.9, 40.5e9, 205.4e9, 4e9),
            (6.2, 136e9, 136e9, 4e9),
            (2.0, 1e9, 1e9, 4e9), // codec slower than the link
            (11.2, 40.5e9, 205.4e9, 60e9),
        ] {
            let i = inputs(cr, tc, td, b);
            let seq = estimate_speedup(i);
            let ovl = estimate_overlapped_speedup(i);
            assert!(
                ovl >= seq - 1e-12,
                "overlap must never estimate slower: {ovl} < {seq}"
            );
            assert!(
                ovl <= cr + 1e-9,
                "no estimate can beat the compression ratio: {ovl}"
            );
            assert_eq!(estimate_speedup_with(i, true), ovl);
            assert_eq!(estimate_speedup_with(i, false), seq);
        }
    }

    #[test]
    fn overlap_is_paced_by_the_slower_of_codec_and_wire() {
        // Compression slower than the compressed wire share: the codec
        // paces the pipeline (the wire hides behind it instead).
        let i = inputs(10.0, 8e9, 1e15, 4e9);
        let ovl = estimate_overlapped_speedup(i);
        // max(B/Tc, 1/CR) = max(0.5, 0.1) = 0.5 → speedup 2.0 (minus the
        // negligible decompression term).
        assert!((ovl - 2.0).abs() < 1e-4, "{ovl}");
        // With compression faster than the wire share, the ratio paces it.
        let i = inputs(10.0, 1e15, 1e15, 4e9);
        assert!((estimate_overlapped_speedup(i) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn overlap_can_flip_the_selected_compressor() {
        use dlrm_compress::CompressionReport;
        let mk = |ratio: f64, tc: f64, td: f64| CompressionReport {
            compressor: "x".into(),
            original_bytes: 1_000_000,
            compressed_bytes: (1_000_000.0 / ratio) as usize,
            ratio,
            compress_seconds: 1.0,
            decompress_seconds: 1.0,
            compress_throughput: tc,
            decompress_throughput: td,
            max_abs_error: 0.0,
            error_bound: 0.01,
        };
        // A slow-but-dense codec vs a fast-but-sparse one: sequentially the
        // dense codec's compression time (B/Tc = 0.32) is added to its wire
        // share (1/CR = 0.05) and loses to the fast codec; overlapped, the
        // wire share hides behind the codec and the dense codec wins.
        let reports = vec![
            (CompressorKind::FzLike, mk(3.0, 500e9, 500e9)),
            (CompressorKind::OursHybrid, mk(20.0, 18.75e9, 1e15)),
        ];
        let b = 6e9;
        let (seq_kind, _) = select_compressor_with(&reports, b, false).unwrap();
        let (ovl_kind, ovl_speedup) = select_compressor_with(&reports, b, true).unwrap();
        assert_eq!(seq_kind, CompressorKind::FzLike);
        assert_eq!(ovl_kind, CompressorKind::OursHybrid);
        assert!(ovl_speedup > 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_panics() {
        let _ = estimate_speedup(inputs(5.0, 1e9, 1e9, 0.0));
    }

    #[test]
    fn allreduce_estimate_limits_and_monotonicity() {
        // Infinitely fast codecs: the speedup approaches the ratio — the
        // wire term shrinks by CR in both phases of the schedule.
        let s = estimate_allreduce_speedup(inputs(8.0, 1e15, 1e15, 8e9), 4);
        assert!((s - 8.0).abs() < 1e-2, "{s}");
        // world == 1: nothing moves, nothing to speed up.
        assert_eq!(
            estimate_allreduce_speedup(inputs(8.0, 1e9, 1e9, 8e9), 1),
            1.0
        );
        // A codec slower than the link loses, as in the all-to-all model.
        assert!(estimate_allreduce_speedup(inputs(8.0, 1e9, 1e9, 8e9), 4) < 1.0);
        // More ranks move more relative volume, so compression pays off
        // (weakly) more.
        let few = estimate_allreduce_speedup(inputs(4.0, 50e9, 50e9, 8e9), 2);
        let many = estimate_allreduce_speedup(inputs(4.0, 50e9, 50e9, 8e9), 32);
        assert!(many >= few, "{many} < {few}");
    }

    #[test]
    fn homomorphic_estimate_beats_classic_when_combine_is_cheap() {
        // Same ratio and codec speeds: skipping a full V/Td of decode work
        // for a fast combine must strictly win.
        let i = inputs(2.0, 150e9, 180e9, 8e9);
        let classic = estimate_allreduce_speedup(i, 8);
        let homo = estimate_homomorphic_allreduce_speedup(i, 250e9, 8);
        assert!(homo > classic, "{homo} <= {classic}");
        // An absurdly slow combine flips the comparison: the combine term
        // outgrows the saved decode.
        let slow = estimate_homomorphic_allreduce_speedup(i, 1e6, 8);
        assert!(slow < classic, "{slow} >= {classic}");
        // world == 1 degenerates like the classic estimate.
        assert_eq!(estimate_homomorphic_allreduce_speedup(i, 250e9, 1), 1.0);
        // Infinitely fast codec and combine: the ratio is the ceiling.
        let s = estimate_homomorphic_allreduce_speedup(inputs(2.0, 1e15, 1e15, 8e9), 1e15, 8);
        assert!((s - 2.0).abs() < 1e-2, "{s}");
    }

    #[test]
    fn auto_estimate_dispatches_on_the_combine_capability() {
        let i = inputs(4.0, 100e9, 140e9, 8e9);
        assert_eq!(
            estimate_allreduce_speedup_auto(i, None, 8),
            estimate_allreduce_speedup(i, 8)
        );
        assert_eq!(
            estimate_allreduce_speedup_auto(i, Some(120e9), 8),
            estimate_homomorphic_allreduce_speedup(i, 120e9, 8)
        );
    }
}
