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

use dlrm_compress::CompressionReport;

/// Inputs of the speedup model for one compressor on one table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupInputs {
    /// Compression ratio (original bytes / compressed bytes).
    pub ratio: f64,
    /// Compression throughput in bytes per second.
    pub compress_throughput: f64,
    /// Decompression throughput in bytes per second.
    pub decompress_throughput: f64,
    /// Network bandwidth of the exchange in bytes per second.
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

/// The dataflow an Equation-2 estimate models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dataflow {
    /// The embedding all-to-all: each rank encodes, sends and decodes the
    /// whole volume `V` once.
    ///
    /// ```text
    /// sequential: t = V/Tc + V/(CR·B) + V/Td
    ///             speedup = 1 / ( 1/CR + B·(1/Tc + 1/Td) )
    /// overlapped: t ≈ max(V/Tc, V/(CR·B)) + V/Td
    ///             speedup = 1 / ( max(B/Tc, 1/CR) + B/Td )
    /// ```
    ///
    /// Overlapped (double-buffered), chunk *k+1* compresses while chunk *k*
    /// is on the wire, so only the slower of the two stages paces the
    /// exchange and a high-ratio codec is ranked by its *exposed* cost.
    /// (The pipeline-fill transient is amortised away over many chunks, as
    /// the trainer's `OverlapTimeline` converges to.) Never below the
    /// sequential estimate; the gap is the hidden codec time.
    AllToAll {
        /// Whether codec time overlaps the wire.
        overlapped: bool,
    },
}

/// Equation 2: the estimated end-to-end communication speedup of a codec
/// with `inputs` over the uncompressed exchange, under `dataflow` — the one
/// estimate every codec selection ranks by (Algorithm 2's table selection
/// and the runtime controller).
///
/// Bounded by the ratio; below 1 the codec would
/// slow the exchange down (it is slower than the network).
///
/// # Panics
/// Panics on a non-positive ratio, throughput or bandwidth.
pub fn estimate_speedup(inputs: SpeedupInputs, dataflow: Dataflow) -> f64 {
    assert!(inputs.ratio > 0.0, "ratio must be positive");
    assert!(
        inputs.compress_throughput > 0.0 && inputs.decompress_throughput > 0.0,
        "throughputs must be positive"
    );
    assert!(inputs.bandwidth > 0.0, "bandwidth must be positive");
    let (cr, tc, td, b) = (
        inputs.ratio,
        inputs.compress_throughput,
        inputs.decompress_throughput,
        inputs.bandwidth,
    );
    match dataflow {
        Dataflow::AllToAll { overlapped: false } => 1.0 / (1.0 / cr + b * (1.0 / tc + 1.0 / td)),
        Dataflow::AllToAll { overlapped: true } => 1.0 / ((b / tc).max(1.0 / cr) + b / td),
    }
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

    fn a2a(inputs: SpeedupInputs, overlapped: bool) -> f64 {
        estimate_speedup(inputs, Dataflow::AllToAll { overlapped })
    }

    #[test]
    fn infinite_throughput_limit_is_the_ratio() {
        // With compressors far faster than the network the speedup approaches CR.
        let s = a2a(inputs(10.0, 1e15, 1e15, 4e9), false);
        assert!((s - 10.0).abs() < 1e-3, "{s}");
    }

    #[test]
    fn slow_compressor_yields_speedup_below_one() {
        // Compressor slower than the link: not worth it, sequential or overlapped.
        assert!(a2a(inputs(10.0, 1e9, 1e9, 4e9), false) < 1.0);
        assert!(a2a(inputs(10.0, 1e9, 1e9, 4e9), true) < 1.0);
    }

    #[test]
    fn paper_scale_numbers_are_plausible() {
        // Hybrid compressor at CR ~19.9, Tc ~40.5 GB/s, Td ~205 GB/s over a
        // 4 GB/s all-to-all — the paper reports an 8.6x speedup on Terabyte
        // (its measured pipeline overlaps some stages; the plain Equation-2
        // estimate lands a bit lower but in the same regime).
        let s = a2a(inputs(19.9, 40.5e9, 205.4e9, 4e9), false);
        assert!(
            (4.5..10.0).contains(&s),
            "speedup {s} out of expected range"
        );
        // Kaggle: CR ~11.2 → ~6.22x reported.
        let s2 = a2a(inputs(11.2, 40.5e9, 205.4e9, 4e9), false);
        assert!(
            (3.5..8.0).contains(&s2),
            "speedup {s2} out of expected range"
        );
        assert!(s > s2);
    }

    #[test]
    fn speedup_increases_with_ratio_and_throughput() {
        let base = a2a(inputs(5.0, 50e9, 50e9, 4e9), false);
        assert!(a2a(inputs(10.0, 50e9, 50e9, 4e9), false) > base);
        assert!(a2a(inputs(5.0, 100e9, 100e9, 4e9), false) > base);
        // A faster network makes compression less attractive.
        assert!(a2a(inputs(5.0, 50e9, 50e9, 16e9), false) < base);
    }

    #[test]
    fn selection_prefers_balanced_compressor_over_fast_low_ratio() {
        // FZ-like: extremely fast but CR 6; hybrid: CR 19.9 at 40/205 GB/s.
        let fz = |b| a2a(inputs(6.2, 136e9, 136e9, b), false);
        let hybrid = |b| a2a(inputs(19.9, 40.5e9, 205.4e9, b), false);
        assert!(hybrid(4e9) > fz(4e9));
        assert!(hybrid(4e9) > 5.0);
        // On a much faster network the cheap compressor can win.
        assert!(fz(60e9) > hybrid(60e9));
    }

    #[test]
    fn overlap_is_paced_by_the_slower_of_codec_and_wire() {
        // Compression slower than the compressed wire share: the codec
        // paces the pipeline (the wire hides behind it instead).
        let ovl = a2a(inputs(10.0, 8e9, 1e15, 4e9), true);
        // max(B/Tc, 1/CR) = max(0.5, 0.1) = 0.5 → speedup 2.0 (minus the
        // negligible decompression term).
        assert!((ovl - 2.0).abs() < 1e-4, "{ovl}");
        // With compression faster than the wire share, the ratio paces it.
        assert!((a2a(inputs(10.0, 1e15, 1e15, 4e9), true) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn overlap_can_flip_the_selected_compressor() {
        // A slow-but-dense codec vs a fast-but-sparse one: sequentially the
        // dense codec's compression time (B/Tc = 0.32) is added to its wire
        // share (1/CR = 0.05) and loses to the fast codec; overlapped, the
        // wire share hides behind the codec and the dense codec wins.
        let b = 6e9;
        let fast = inputs(3.0, 500e9, 500e9, b);
        let dense = inputs(20.0, 18.75e9, 1e15, b);
        assert!(a2a(fast, false) > a2a(dense, false));
        assert!(a2a(dense, true) > a2a(fast, true));
        assert!(a2a(dense, true) > 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_panics() {
        let _ = a2a(inputs(5.0, 1e9, 1e9, 0.0), false);
    }
}
