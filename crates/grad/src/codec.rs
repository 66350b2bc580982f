//! Gradient codec adapters: how a shard of the flattened dense gradient
//! becomes bytes on the all-reduce wire.
//!
//! Six families, all behind one [`GradCodec`] with reusable scratch:
//!
//! * **Identity** — raw little-endian f32 (lossless; with it the compressed
//!   all-reduce is bit-identical to the uncompressed one);
//! * **Fp16 / Fp8** — the low-precision casts from `dlrm-compress`;
//! * **ErrorBounded** — any error-bounded compressor from the registry
//!   (sz-like Lorenzo+quantization works well on smooth gradients);
//! * **TopK** — magnitude sparsification: only the `⌈fraction·n⌉` largest
//!   |values| are sent as `(index, value)` pairs, kept values bit-exact.
//!   Requires error feedback to converge (the unsent mass accumulates in
//!   the residual until it earns a slot);
//! * **Lattice / SumSketch** — the **homomorphic** pair
//!   ([`homomorphic`] module): encoded shards add
//!   *without decoding* via [`GradCodec::combine_into`], which is what lets
//!   the compressed all-reduce skip the decode → reduce → re-encode
//!   round-trip at owner shards.
//!
//! Each kind has one body encoder and one body decoder, and two stream
//! forms around them. A standalone stream (a dense all-reduce shard, a
//! checkpoint section) opens with the element count, so it is
//! self-describing: `[n u32 LE]` then the body. A stream inside a frame (an
//! embedding exchange or fetch group, whose frame's `rows × dim` is the
//! count) is the body alone. Decoding and combining validate the stream and
//! return a [`ReduceError`] on truncated, overlong or corrupted input.

use crate::homomorphic;
use dlrm_adaptive::CodecProfile;
use dlrm_comm::ReduceError;
use dlrm_compress::lowprec::{self, Precision};
use dlrm_compress::{CompressScratch, Compressor, CompressorKind};

/// Description of a gradient codec (the form carried in trainer configs).
#[derive(Debug, Clone, PartialEq)]
pub enum GradCodecKind {
    /// Raw f32 — lossless, ratio 1. The control arm of every experiment.
    Identity,
    /// IEEE binary16 cast — fixed 2×.
    Fp16,
    /// FP8 E4M3 cast — fixed 4×.
    Fp8,
    /// An error-bounded compressor from the `dlrm-compress` registry with an
    /// absolute error bound.
    ErrorBounded {
        /// Which registry compressor encodes the shards.
        compressor: CompressorKind,
        /// Absolute point-wise error bound.
        error_bound: f32,
    },
    /// Magnitude top-k sparsification: send the `⌈fraction·n⌉` largest
    /// |values| as exact `(index, value)` pairs. Ratio ≈ `1/(2·fraction)`.
    TopK {
        /// Fraction of elements kept per shard, in `(0, 1]`.
        fraction: f32,
    },
    /// THC-style homomorphic uniform quantizer: values round to a shared
    /// integer lattice (`step = 2·error_bound`) stored as i16 codes, ratio
    /// ≈ 2. Encoded shards add by saturating integer lattice addition, so
    /// owners combine in the compressed domain.
    Lattice {
        /// Absolute point-wise error bound (half the lattice step).
        error_bound: f32,
    },
    /// Lossless homomorphic index–sum sketch: nonzero `(index, value)`
    /// pairs with a dense-f32 fallback. Encoded shards add by sparse merge
    /// or scatter-add, bit-identical to the rank-order raw sum on finite
    /// data (`-0.0` canonicalises to `+0.0` at encode).
    SumSketch,
}

impl GradCodecKind {
    /// Short display label used in reports.
    pub fn label(&self) -> String {
        match self {
            GradCodecKind::Identity => "identity".to_string(),
            GradCodecKind::Fp16 => "fp16".to_string(),
            GradCodecKind::Fp8 => "fp8".to_string(),
            GradCodecKind::ErrorBounded {
                compressor,
                error_bound,
            } => format!("{}-eb{}", compressor.label(), error_bound),
            GradCodecKind::TopK { fraction } => format!("top{}", fraction),
            GradCodecKind::Lattice { error_bound } => format!("lattice-eb{}", error_bound),
            GradCodecKind::SumSketch => "sumsketch".to_string(),
        }
    }

    /// True when encoded shards of this kind add in the compressed domain
    /// (supports [`GradCodec::combine_into`]).
    pub fn is_homomorphic(&self) -> bool {
        matches!(
            self,
            GradCodecKind::Lattice { .. } | GradCodecKind::SumSketch
        )
    }

    /// The absolute error bound of the error-bounded and lattice kinds;
    /// 0 for the kinds that have none.
    pub fn error_bound(&self) -> f32 {
        match self {
            GradCodecKind::ErrorBounded { error_bound, .. }
            | GradCodecKind::Lattice { error_bound } => *error_bound,
            _ => 0.0,
        }
    }

    /// The one price of this kind under `profile`: modeled `(encode,
    /// decode, combine)` throughputs in bytes/s — what the embedding
    /// exchange and serving's fetch charge for codec time, what the dense
    /// selector ranks by and what the trainer charges a compressed-domain
    /// combine at. `combine` is `Some` for the homomorphic kinds only. The
    /// casts and the error-bounded codecs take the profile's figures; the
    /// gradient codecs carry their own. `None` for the identity codec, whose
    /// raw bytes ride the wire charge and are charged no codec time.
    pub fn price(&self, profile: &CodecProfile) -> Option<(f64, f64, Option<f64>)> {
        let profiled = |kind| {
            let (encode, decode) = profile.throughput(kind);
            (encode, decode, None)
        };
        Some(match self {
            GradCodecKind::Identity => return None,
            GradCodecKind::Fp16 => profiled(CompressorKind::Fp16),
            GradCodecKind::Fp8 => profiled(CompressorKind::Fp8),
            GradCodecKind::ErrorBounded { compressor, .. } => profiled(*compressor),
            // Shared-scale quantization with no entropy stage; saturating
            // i16 adds combine at near-memcpy speed.
            GradCodecKind::Lattice { .. } => (150e9, 200e9, Some(250e9)),
            // A scan with a branch per element; merges branch per entry.
            GradCodecKind::SumSketch => (120e9, 160e9, Some(120e9)),
            // A selection pass.
            GradCodecKind::TopK { .. } => (40e9, 200e9, None),
        })
    }

    /// Build the runnable codec.
    pub fn build(&self) -> GradCodec {
        let compressor = match self {
            GradCodecKind::ErrorBounded { compressor, .. } => Some(compressor.build()),
            _ => None,
        };
        GradCodec {
            kind: self.clone(),
            compressor,
        }
    }
}

/// Reusable intermediates of the gradient codecs.
#[derive(Default)]
pub struct GradScratch {
    /// Scratch of the `dlrm-compress` codecs.
    pub compress: CompressScratch,
    /// Index ordering buffer of the top-k selection.
    order: Vec<u32>,
    /// Dense staging of the sum-sketch combine.
    sketch_dense: Vec<f32>,
    /// Accumulator-payload staging of the sum-sketch combine.
    sketch_bytes: Vec<u8>,
    /// Sparse-merge output staging of the sum-sketch combine.
    sketch_merge: Vec<u8>,
}

impl GradScratch {
    /// Create an empty scratch (buffers grow to working size on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total heap capacity currently held.
    pub fn capacity_bytes(&self) -> u64 {
        self.compress.capacity_bytes()
            + (self.order.capacity() * 4) as u64
            + (self.sketch_dense.capacity() * 4) as u64
            + (self.sketch_bytes.capacity() + self.sketch_merge.capacity()) as u64
    }
}

/// A runnable gradient codec (built by [`GradCodecKind::build`]).
pub struct GradCodec {
    kind: GradCodecKind,
    compressor: Option<Box<dyn Compressor>>,
}

impl GradCodec {
    /// The kind this codec was built from.
    pub fn kind(&self) -> &GradCodecKind {
        &self.kind
    }

    /// True when decoding reproduces the input bit-exactly (Identity, and
    /// SumSketch up to `-0.0 → +0.0` canonicalisation — which the
    /// error-feedback residual treats as exact since `x − (+0.0) == x −
    /// (−0.0)`).
    pub fn is_lossless(&self) -> bool {
        matches!(
            self.kind,
            GradCodecKind::Identity | GradCodecKind::SumSketch
        )
    }

    /// True when encoded shards add in the compressed domain (see
    /// [`GradCodec::combine_into`]).
    pub fn is_homomorphic(&self) -> bool {
        self.kind.is_homomorphic()
    }

    /// Upper bound on the encoded size of a shard of `len` values.
    pub fn max_encoded_bytes(&self, len: usize) -> usize {
        4 + self.max_body_bytes(len)
    }

    /// Upper bound on the body of a shard of `len` values: the stream
    /// without its `[n u32 LE]` count, as it rides inside a frame.
    pub fn max_body_bytes(&self, len: usize) -> usize {
        match self.kind {
            GradCodecKind::Identity => len * 4,
            // lowprec streams open with a ≤10-byte varint count + format tag.
            GradCodecKind::Fp16 => 11 + len * 2,
            GradCodecKind::Fp8 => 11 + len,
            // ≤ 3× the raw bytes plus the compressors' stream headers.
            GradCodecKind::ErrorBounded { .. } => len * 12 + 708,
            GradCodecKind::TopK { fraction } => 4 + top_k_count(len, fraction) * 8,
            GradCodecKind::Lattice { .. } => homomorphic::lattice_max_bytes(len),
            GradCodecKind::SumSketch => homomorphic::sketch_max_bytes(len),
        }
    }

    /// Heap capacity held by the codec itself (its boxed compressor holds
    /// no buffers; scratch is accounted by [`GradScratch`]).
    pub fn capacity_bytes(&self) -> u64 {
        0
    }

    /// Append the encoded form of `data` to `out` as one long row, drawing
    /// intermediates from `scratch`: the flat dense gradient's form, where
    /// Lorenzo prediction runs along the whole shard.
    pub fn encode_into(&self, data: &[f32], scratch: &mut GradScratch, out: &mut Vec<u8>) {
        self.encode_rows_into(data, data.len(), scratch, out);
    }

    /// Append the standalone stream of `data`, row-major rows of
    /// `row_width` values (an embedding table's `dim`), to `out`: the
    /// `[n u32 LE]` count, then [`GradCodec::encode_body_into`]'s body at
    /// the kind's own error bound. The stream records its width, so
    /// [`GradCodec::decode_into`] needs none.
    ///
    /// # Panics
    /// Panics if `data` is non-empty and `row_width` is zero or does not
    /// divide `data.len()`.
    pub fn encode_rows_into(
        &self,
        data: &[f32],
        row_width: usize,
        scratch: &mut GradScratch,
        out: &mut Vec<u8>,
    ) {
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        self.encode_body_into(data, row_width, self.kind.error_bound(), scratch, out);
    }

    /// Append the body of `data`'s stream to `out`: what rides inside a
    /// frame whose own `rows × dim` is the value count. The error-bounded
    /// and lattice kinds encode at `error_bound` (the caller's scheduled
    /// bound); every other kind ignores it. The error-bounded codecs see
    /// whole rows of `row_width`: vector-LZ matches repeated rows and
    /// Lorenzo predicts from the row above. Every other kind is
    /// element-wise and ignores the width. An empty `data` has an empty
    /// body.
    ///
    /// # Panics
    /// Panics if `data` is non-empty and `row_width` is zero or does not
    /// divide `data.len()`.
    pub fn encode_body_into(
        &self,
        data: &[f32],
        row_width: usize,
        error_bound: f32,
        scratch: &mut GradScratch,
        out: &mut Vec<u8>,
    ) {
        if data.is_empty() {
            return;
        }
        assert!(
            row_width > 0 && data.len().is_multiple_of(row_width),
            "{} values do not split into rows of {row_width}",
            data.len()
        );
        match &self.kind {
            GradCodecKind::Identity => {
                out.reserve(data.len() * 4);
                for v in data {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            GradCodecKind::Fp16 => lowprec::compress_into(data, Precision::Fp16, out),
            GradCodecKind::Fp8 => lowprec::compress_into(data, Precision::Fp8E4M3, out),
            GradCodecKind::ErrorBounded { .. } => {
                let comp = self.compressor.as_ref().expect("built with a compressor");
                comp.compress_into(data, row_width, error_bound, &mut scratch.compress, out)
                    .expect("compression of finite data cannot fail");
            }
            GradCodecKind::TopK { fraction } => {
                let k = top_k_count(data.len(), *fraction);
                out.extend_from_slice(&(k as u32).to_le_bytes());
                scratch.order.clear();
                scratch.order.extend(0..data.len() as u32);
                // Deterministic selection: magnitude descending, index
                // ascending as the tie-break (total order even with NaNs).
                let key = |&i: &u32| {
                    let v = data[i as usize].abs();
                    (std::cmp::Reverse(OrdF32(v)), i)
                };
                if k < data.len() {
                    scratch.order.select_nth_unstable_by_key(k - 1, key);
                }
                let kept = &mut scratch.order[..k];
                // Ascending index order on the wire (and for decode locality).
                kept.sort_unstable();
                for &i in kept.iter() {
                    out.extend_from_slice(&i.to_le_bytes());
                }
                for &i in kept.iter() {
                    out.extend_from_slice(&data[i as usize].to_le_bytes());
                }
            }
            GradCodecKind::Lattice { .. } => homomorphic::lattice_encode(data, error_bound, out),
            GradCodecKind::SumSketch => homomorphic::sketch_encode(data, out),
        }
    }

    /// Append the decoded values of a standalone stream produced by
    /// [`GradCodec::encode_rows_into`] (or [`GradCodec::encode_into`]) to
    /// `out`.
    ///
    /// Returns `Err` (and leaves `out` as it was) when the stream is
    /// truncated or corrupted, instead of panicking — malformed wire bytes
    /// must surface as a recoverable error at the collective layer.
    pub fn decode_into(
        &self,
        bytes: &[u8],
        scratch: &mut GradScratch,
        out: &mut Vec<f32>,
    ) -> Result<(), ReduceError> {
        let Some((count, body)) = bytes.split_first_chunk::<4>() else {
            return Err(ReduceError::Truncated {
                needed: 4,
                got: bytes.len(),
            });
        };
        self.decode_body_into(body, u32::from_le_bytes(*count) as usize, scratch, out)
    }

    /// Append the `n` values of a stream body (see
    /// [`GradCodec::encode_body_into`]) to `out`. `Err` when the body does
    /// not decode to exactly `n` values, is cut short or carries bytes past
    /// its end; `out` then keeps what it held before.
    pub fn decode_body_into(
        &self,
        body: &[u8],
        n: usize,
        scratch: &mut GradScratch,
        out: &mut Vec<f32>,
    ) -> Result<(), ReduceError> {
        if n == 0 {
            return if body.is_empty() {
                Ok(())
            } else {
                Err(ReduceError::Corrupt("payload after an empty shard"))
            };
        }
        let start = out.len();
        let decoded = self.decode_nonempty(body, n, scratch, out);
        if decoded.is_err() || out.len() - start != n {
            out.truncate(start);
            return decoded.and(Err(ReduceError::Corrupt("decoded count disagrees with n")));
        }
        Ok(())
    }

    fn decode_nonempty(
        &self,
        body: &[u8],
        n: usize,
        scratch: &mut GradScratch,
        out: &mut Vec<f32>,
    ) -> Result<(), ReduceError> {
        match &self.kind {
            GradCodecKind::Identity => {
                if body.len() != n * 4 {
                    return Err(if body.len() < n * 4 {
                        ReduceError::Truncated {
                            needed: n * 4,
                            got: body.len(),
                        }
                    } else {
                        ReduceError::Corrupt("identity payload longer than declared")
                    });
                }
                out.reserve(n);
                out.extend(
                    body.chunks_exact(4)
                        .map(|b| f32::from_le_bytes(b.try_into().expect("4-byte chunk"))),
                );
            }
            GradCodecKind::Fp16 | GradCodecKind::Fp8 => {
                lowprec::decompress_into(body, out)
                    .map_err(|_| ReduceError::Corrupt("malformed low-precision stream"))?;
            }
            GradCodecKind::ErrorBounded { .. } => {
                let comp = self.compressor.as_ref().expect("built with a compressor");
                comp.decompress_into(body, &mut scratch.compress, out)
                    .map_err(|_| ReduceError::Corrupt("malformed error-bounded stream"))?;
            }
            GradCodecKind::TopK { .. } => {
                let Some((k, pairs)) = body.split_first_chunk::<4>() else {
                    return Err(ReduceError::Truncated {
                        needed: 4,
                        got: body.len(),
                    });
                };
                let k = u32::from_le_bytes(*k) as usize;
                if k > n {
                    return Err(ReduceError::Corrupt("top-k keeps more than n elements"));
                }
                if pairs.len() != k * 8 {
                    return Err(if pairs.len() < k * 8 {
                        ReduceError::Truncated {
                            needed: 4 + k * 8,
                            got: body.len(),
                        }
                    } else {
                        ReduceError::Corrupt("top-k payload longer than declared")
                    });
                }
                let (idx, vals) = pairs.split_at(k * 4);
                for ib in idx.chunks_exact(4) {
                    let i = u32::from_le_bytes(ib.try_into().expect("index")) as usize;
                    if i >= n {
                        return Err(ReduceError::Corrupt("top-k index out of range"));
                    }
                }
                let start = out.len();
                out.resize(start + n, 0.0);
                let dense = &mut out[start..];
                for (ib, vb) in idx.chunks_exact(4).zip(vals.chunks_exact(4)) {
                    let i = u32::from_le_bytes(ib.try_into().expect("index")) as usize;
                    dense[i] = f32::from_le_bytes(vb.try_into().expect("value"));
                }
            }
            GradCodecKind::Lattice { .. } => homomorphic::lattice_decode(body, n, out)?,
            GradCodecKind::SumSketch => homomorphic::sketch_decode(body, n, out)?,
        }
        Ok(())
    }

    /// Sum the encoded shard `other` into the encoded accumulator `acc`
    /// **in the compressed domain** — only the homomorphic kinds support
    /// this; the rest return [`ReduceError::NotHomomorphic`]. Both streams
    /// must describe shards of the same length
    /// ([`ReduceError::ShardMismatch`] otherwise). The accumulated value is
    /// `acc + other` in that operand order, matching the collective's
    /// rank-order fold.
    pub fn combine_into(
        &self,
        acc: &mut Vec<u8>,
        other: &[u8],
        scratch: &mut GradScratch,
    ) -> Result<(), ReduceError> {
        if !self.is_homomorphic() {
            return Err(ReduceError::NotHomomorphic);
        }
        for stream in [&acc[..], other] {
            if stream.len() < 4 {
                return Err(ReduceError::Truncated {
                    needed: 4,
                    got: stream.len(),
                });
            }
        }
        let n_acc = u32::from_le_bytes(acc[0..4].try_into().expect("count header")) as usize;
        let n_other = u32::from_le_bytes(other[0..4].try_into().expect("count header")) as usize;
        if n_acc != n_other {
            return Err(ReduceError::ShardMismatch {
                expected: n_acc,
                got: n_other,
            });
        }
        if n_acc == 0 {
            return if acc.len() == 4 && other.len() == 4 {
                Ok(())
            } else {
                Err(ReduceError::Corrupt("payload after empty-shard header"))
            };
        }
        match &self.kind {
            GradCodecKind::Lattice { .. } => {
                homomorphic::lattice_combine(&mut acc[4..], &other[4..], n_acc)
            }
            GradCodecKind::SumSketch => {
                // Rebuild [n][payload] through the staging buffer: the
                // combine may rewrite the payload layout.
                scratch.sketch_bytes.clear();
                scratch.sketch_bytes.extend_from_slice(&acc[4..]);
                homomorphic::sketch_combine(
                    &mut scratch.sketch_bytes,
                    &other[4..],
                    n_acc,
                    &mut scratch.sketch_dense,
                    &mut scratch.sketch_merge,
                )?;
                acc.truncate(4);
                // The rewritten payload may be the dense fallback even when
                // the inputs were sparse; pin the accumulator at the worst
                // case so steady-state combines never reallocate it.
                acc.reserve(self.max_encoded_bytes(n_acc).saturating_sub(acc.len()));
                acc.extend_from_slice(&scratch.sketch_bytes);
                Ok(())
            }
            _ => unreachable!("is_homomorphic gated above"),
        }
    }
}

/// Number of elements the top-k sparsifier keeps for a shard of `len`.
fn top_k_count(len: usize, fraction: f32) -> usize {
    if len == 0 {
        return 0;
    }
    ((len as f64 * fraction as f64).ceil() as usize).clamp(1, len)
}

/// Total-order f32 wrapper for the top-k selection.
#[derive(PartialEq)]
struct OrdF32(f32);
impl Eq for OrdF32 {}
impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grads(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.13).sin() * 0.05).collect()
    }

    #[test]
    fn identity_roundtrips_bitwise() {
        let data = grads(200);
        let codec = GradCodecKind::Identity.build();
        let mut scratch = GradScratch::new();
        let mut bytes = Vec::new();
        codec.encode_into(&data, &mut scratch, &mut bytes);
        assert!(bytes.len() <= codec.max_encoded_bytes(data.len()));
        let mut back = Vec::new();
        codec.decode_into(&bytes, &mut scratch, &mut back).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn lowprec_and_error_bounded_stay_within_tolerance() {
        let data = grads(300);
        for (kind, tol) in [
            (GradCodecKind::Fp16, 1e-4f32),
            (GradCodecKind::Fp8, 6e-3),
            (
                GradCodecKind::ErrorBounded {
                    compressor: CompressorKind::SzLike,
                    error_bound: 1e-3,
                },
                1.02e-3,
            ),
        ] {
            let codec = kind.build();
            let mut scratch = GradScratch::new();
            let mut bytes = Vec::new();
            codec.encode_into(&data, &mut scratch, &mut bytes);
            assert!(
                bytes.len() <= codec.max_encoded_bytes(data.len()),
                "{}: {} > bound {}",
                kind.label(),
                bytes.len(),
                codec.max_encoded_bytes(data.len())
            );
            let mut back = Vec::new();
            codec.decode_into(&bytes, &mut scratch, &mut back).unwrap();
            assert_eq!(back.len(), data.len(), "{}", kind.label());
            for (a, b) in data.iter().zip(back.iter()) {
                assert!((a - b).abs() <= tol, "{}: {a} vs {b}", kind.label());
            }
        }
    }

    /// `rows × dim` embedding-like values: a third of the rows repeat an
    /// earlier one, a third quantize to zero at eb 0.01.
    fn table_rows(rows: usize, dim: usize) -> Vec<f32> {
        (0..rows * dim)
            .map(|i| match (i / dim) % 3 {
                0 => ((i % dim) as f32 * 0.7).sin() * 0.2,
                1 => ((i % dim) as f32 * 0.3).cos() * 0.004,
                _ => ((i as f32) * 0.13).sin() * 0.2,
            })
            .collect()
    }

    fn decode(codec: &GradCodec, bytes: &[u8]) -> Vec<f32> {
        let mut back = Vec::new();
        codec
            .decode_into(bytes, &mut GradScratch::new(), &mut back)
            .unwrap();
        back
    }

    #[test]
    fn row_width_keeps_pointwise_decodes_bit_identical() {
        let (rows, dim) = (25, 32);
        let data = table_rows(rows, dim);
        let eb = |compressor| GradCodecKind::ErrorBounded {
            compressor,
            error_bound: 0.01,
        };
        for kind in [
            eb(CompressorKind::OursHybrid),
            eb(CompressorKind::OursVector),
            eb(CompressorKind::OursHuffman),
            eb(CompressorKind::FzLike),
            eb(CompressorKind::Fp16),
            eb(CompressorKind::Fp8),
            GradCodecKind::Fp16,
            GradCodecKind::Fp8,
            GradCodecKind::Lattice { error_bound: 0.01 },
        ] {
            let codec = kind.build();
            let mut scratch = GradScratch::new();
            let (mut long, mut wide) = (Vec::new(), Vec::new());
            codec.encode_into(&data, &mut scratch, &mut long);
            codec.encode_rows_into(&data, dim, &mut scratch, &mut wide);
            assert!(wide.len() <= codec.max_encoded_bytes(data.len()));
            let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(decode(&codec, &long)),
                bits(decode(&codec, &wide)),
                "{}",
                kind.label()
            );
        }
        // Vector-LZ matches the repeated rows only when it sees rows.
        let codec = eb(CompressorKind::OursVector).build();
        let mut scratch = GradScratch::new();
        let (mut long, mut wide) = (Vec::new(), Vec::new());
        codec.encode_into(&data, &mut scratch, &mut long);
        codec.encode_rows_into(&data, dim, &mut scratch, &mut wide);
        assert!(wide.len() < long.len(), "{} !< {}", wide.len(), long.len());
    }

    #[test]
    fn row_width_keeps_lorenzo_within_the_bound() {
        let (rows, dim) = (25, 32);
        let data = table_rows(rows, dim);
        let codec = GradCodecKind::ErrorBounded {
            compressor: CompressorKind::SzLike,
            error_bound: 0.01,
        }
        .build();
        let mut bytes = Vec::new();
        codec.encode_rows_into(&data, dim, &mut GradScratch::new(), &mut bytes);
        let back = decode(&codec, &bytes);
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= 0.01 * 1.0001, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "do not split into rows")]
    fn row_width_must_divide_the_values() {
        let codec = GradCodecKind::Fp16.build();
        codec.encode_rows_into(&[0.0; 10], 4, &mut GradScratch::new(), &mut Vec::new());
    }

    #[test]
    fn top_k_keeps_the_largest_magnitudes_exactly() {
        let mut data = vec![0.01f32; 100];
        data[7] = -5.0;
        data[42] = 3.0;
        data[99] = 4.0;
        let codec = GradCodecKind::TopK { fraction: 0.03 }.build();
        let mut scratch = GradScratch::new();
        let mut bytes = Vec::new();
        codec.encode_into(&data, &mut scratch, &mut bytes);
        // 4 count + 4 k + 3 * 8 bytes of pairs.
        assert_eq!(bytes.len(), 8 + 3 * 8);
        let mut back = Vec::new();
        codec.decode_into(&bytes, &mut scratch, &mut back).unwrap();
        assert_eq!(back.len(), 100);
        assert_eq!(back[7], -5.0);
        assert_eq!(back[42], 3.0);
        assert_eq!(back[99], 4.0);
        assert_eq!(back.iter().filter(|&&v| v != 0.0).count(), 3);
    }

    #[test]
    fn top_k_selection_is_deterministic_under_ties() {
        let data = vec![1.0f32; 12]; // every magnitude ties
        let codec = GradCodecKind::TopK { fraction: 0.25 }.build();
        let mut scratch = GradScratch::new();
        let mut a = Vec::new();
        codec.encode_into(&data, &mut scratch, &mut a);
        let mut b = Vec::new();
        codec.encode_into(&data, &mut scratch, &mut b);
        assert_eq!(a, b);
        let mut back = Vec::new();
        codec.decode_into(&a, &mut scratch, &mut back).unwrap();
        // Ties break toward the lowest indices.
        assert_eq!(&back[..3], &[1.0, 1.0, 1.0]);
        assert!(back[3..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_shards_encode_and_decode() {
        for kind in [
            GradCodecKind::Identity,
            GradCodecKind::Fp16,
            GradCodecKind::Fp8,
            GradCodecKind::ErrorBounded {
                compressor: CompressorKind::SzLike,
                error_bound: 0.01,
            },
            GradCodecKind::TopK { fraction: 0.1 },
        ] {
            let codec = kind.build();
            let mut scratch = GradScratch::new();
            let mut bytes = Vec::new();
            codec.encode_into(&[], &mut scratch, &mut bytes);
            let mut back = Vec::new();
            codec.decode_into(&bytes, &mut scratch, &mut back).unwrap();
            assert!(back.is_empty(), "{}", kind.label());
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = [
            GradCodecKind::Identity,
            GradCodecKind::Fp16,
            GradCodecKind::Fp8,
            GradCodecKind::ErrorBounded {
                compressor: CompressorKind::SzLike,
                error_bound: 0.001,
            },
            GradCodecKind::TopK { fraction: 0.1 },
        ]
        .iter()
        .map(GradCodecKind::label)
        .collect();
        let unique: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }
}
