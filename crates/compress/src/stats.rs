//! Measurement helpers: compression ratio, throughput and error-bound
//! verification for any [`Compressor`].

use crate::registry::Compressor;
use crate::Result;
use std::time::Instant;

/// Outcome of one compress + decompress measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionReport {
    /// Compressor label.
    pub compressor: String,
    /// Uncompressed size in bytes.
    pub original_bytes: usize,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
    /// Compression ratio (original / compressed).
    pub ratio: f64,
    /// Compression wall time in seconds.
    pub compress_seconds: f64,
    /// Decompression wall time in seconds.
    pub decompress_seconds: f64,
    /// Compression throughput in bytes/second (of original data).
    pub compress_throughput: f64,
    /// Decompression throughput in bytes/second (of original data).
    pub decompress_throughput: f64,
    /// Largest absolute reconstruction error observed.
    pub max_abs_error: f32,
    /// The error bound the compressor was asked to honour.
    pub error_bound: f32,
}

impl CompressionReport {
    /// Throughput in GB/s (decimal gigabytes, as the paper reports).
    pub fn compress_gbps(&self) -> f64 {
        self.compress_throughput / 1e9
    }

    /// Decompression throughput in GB/s.
    pub fn decompress_gbps(&self) -> f64 {
        self.decompress_throughput / 1e9
    }
}

/// Compress and decompress `data`, timing both directions and verifying the
/// reconstruction error.
pub fn measure_roundtrip(
    compressor: &dyn Compressor,
    data: &[f32],
    dim: usize,
    eb: f32,
) -> Result<CompressionReport> {
    let original_bytes = std::mem::size_of_val(data);

    let t0 = Instant::now();
    let compressed = compressor.compress(data, dim, eb)?;
    let compress_seconds = t0.elapsed().as_secs_f64().max(1e-9);

    let t1 = Instant::now();
    let decompressed = compressor.decompress(&compressed)?;
    let decompress_seconds = t1.elapsed().as_secs_f64().max(1e-9);

    let max_abs_error = data
        .iter()
        .zip(decompressed.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);

    Ok(CompressionReport {
        compressor: compressor.name().to_string(),
        original_bytes,
        compressed_bytes: compressed.len(),
        ratio: original_bytes as f64 / compressed.len().max(1) as f64,
        compress_seconds,
        decompress_seconds,
        compress_throughput: original_bytes as f64 / compress_seconds,
        decompress_throughput: original_bytes as f64 / decompress_seconds,
        max_abs_error,
        error_bound: eb,
    })
}

/// Verify that `reconstructed` stays within `eb` of `original` point-wise.
/// Returns the first offending index, if any.
pub fn verify_error_bound(original: &[f32], reconstructed: &[f32], eb: f32) -> Option<usize> {
    if original.len() != reconstructed.len() {
        return Some(original.len().min(reconstructed.len()));
    }
    original
        .iter()
        .zip(reconstructed.iter())
        .position(|(a, b)| (a - b).abs() > eb * 1.0001)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{build_compressor, CompressorKind};

    #[test]
    fn report_fields_are_consistent() {
        let data: Vec<f32> = (0..16 * 64)
            .map(|i| (i as f32 * 0.01).sin() * 0.1)
            .collect();
        let comp = build_compressor(CompressorKind::OursHybrid);
        let r = measure_roundtrip(comp.as_ref(), &data, 16, 0.01).unwrap();
        assert_eq!(r.original_bytes, data.len() * 4);
        assert!(r.compressed_bytes > 0);
        assert!((r.ratio - r.original_bytes as f64 / r.compressed_bytes as f64).abs() < 1e-9);
        assert!(r.compress_throughput > 0.0);
        assert!(r.decompress_throughput > 0.0);
        assert!(r.max_abs_error <= 0.0101);
        assert!(r.compress_gbps() > 0.0);
    }

    #[test]
    fn verify_error_bound_finds_violations() {
        let a = [0.0f32, 1.0, 2.0];
        let b = [0.0f32, 1.005, 2.5];
        assert_eq!(verify_error_bound(&a, &b, 0.01), Some(2));
        assert_eq!(verify_error_bound(&a, &a, 0.01), None);
        assert_eq!(verify_error_bound(&a, &b[..2], 0.01), Some(2));
    }
}
