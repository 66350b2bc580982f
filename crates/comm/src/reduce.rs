//! Support types of the compressed all-reduce
//! ([`RankCtx::all_reduce_compressed`](crate::cluster::RankCtx::all_reduce_compressed)).
//!
//! The collective is a **reduce-scatter + all-gather** schedule: the vector
//! is split into `world` contiguous shards, every rank sends each peer's
//! shard to its owner — directly, or through node leaders on the relayed
//! route (reduce-scatter) — the owner sums the contributions, and finally
//! every owner distributes its reduced shard to all peers (all-gather). Every hop carries bytes produced by a [`ReduceCodec`],
//! so a lossy gradient codec shrinks the wire traffic of *both* phases; the
//! trivial [`RawF32Codec`] reproduces the classic uncompressed all-reduce
//! bit for bit.
//!
//! The codec is deliberately a small trait owned by this crate (rather than
//! a dependency on the compression crates): `dlrm-grad` implements it for
//! its error-feedback gradient compressors, tests implement it for identity
//! and fault-injection codecs, and the cluster itself only needs the two
//! `encode`/`decode` hooks plus a worst-case size bound for pool leases.

use crate::cluster::ExchangeBytes;
use crate::topology::{Tier, Topology};
use std::fmt;
use std::ops::Range;

/// Why a [`ReduceCodec`] rejected an encoded reduce payload.
///
/// Decoding and combining are the two places the collective consumes bytes
/// produced elsewhere, so both are fallible: a truncated or corrupted stream
/// must surface as an `Err` the caller can attribute, never as an
/// out-of-bounds panic inside the codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceError {
    /// The stream ended before the content its header declared.
    Truncated {
        /// Bytes the stream claimed to need.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The stream is structurally invalid (bad tag, impossible header,
    /// inner compressor rejection).
    Corrupt(&'static str),
    /// Two encodings that must describe the same shard disagree on its
    /// element count — e.g. `combine` over mismatched shard lengths.
    ShardMismatch {
        /// Elements the accumulator describes.
        expected: usize,
        /// Elements the incoming payload describes.
        got: usize,
    },
    /// [`ReduceCodec::combine`] was called on a codec without a
    /// compressed-domain addition.
    NotHomomorphic,
}

impl fmt::Display for ReduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { needed, got } => {
                write!(
                    f,
                    "encoded reduce payload truncated: needed {needed} bytes, got {got}"
                )
            }
            Self::Corrupt(what) => write!(f, "encoded reduce payload corrupt: {what}"),
            Self::ShardMismatch { expected, got } => {
                write!(
                    f,
                    "combine over mismatched shards: {expected} vs {got} elements"
                )
            }
            Self::NotHomomorphic => write!(f, "codec has no compressed-domain combine"),
        }
    }
}

impl std::error::Error for ReduceError {}

/// Encoder/decoder driving the hops of a compressed all-reduce.
///
/// `offset` is the element index of the shard's first value within the full
/// all-reduce vector — stateful codecs (e.g. an error-feedback residual
/// accumulator) use it to know *which* elements a shard covers. A stateless
/// codec can ignore it.
///
/// Contract: `decode_into(offset, encode_into(offset, data))` must append
/// exactly `data.len()` values. The collective round-trips the owner's own
/// reduced shard through the codec before use, so every rank — owner
/// included — ends with bit-identical values.
///
/// # Homomorphic codecs
///
/// A codec may additionally support **reduction in the compressed domain**:
/// [`ReduceCodec::combine`] sums two encoded shards without decoding either,
/// such that `decode(combine(enc(a), enc(b))) ≈ a + b` within the codec's
/// stated error bound (exactly, for a lossless codec). Codecs advertise the
/// capability through [`ReduceCodec::is_homomorphic`]; the collective
/// detects it and replaces the owner-shard decode → reduce → re-encode
/// round-trip with a chain of combines, eliminating `world − 1` decodes and
/// one re-encode per shard from the critical path.
pub trait ReduceCodec {
    /// Append the encoded form of `data` (the shard starting at element
    /// `offset` of the full vector) to `out`.
    fn encode_into(&mut self, offset: usize, data: &[f32], out: &mut Vec<u8>);

    /// Append the decoded values of a shard produced by
    /// [`ReduceCodec::encode_into`] to `out`. Truncated or corrupted input
    /// must return an error, not panic.
    fn decode_into(
        &mut self,
        offset: usize,
        bytes: &[u8],
        out: &mut Vec<f32>,
    ) -> Result<(), ReduceError>;

    /// Upper bound on the encoded size of a shard of `len` values; sizes the
    /// pool leases so a steady-state encode never grows its lease mid-fill.
    fn max_encoded_bytes(&self, len: usize) -> usize {
        len * 4 + 16
    }

    /// Whether [`ReduceCodec::combine`] is supported. The collective only
    /// takes the combine path when this returns `true`.
    fn is_homomorphic(&self) -> bool {
        false
    }

    /// Sum the encoded shard `other` into the encoded accumulator `acc`, in
    /// the compressed domain. Both must encode the same shard (same element
    /// count, starting at `offset`); mismatched shards are a checked
    /// [`ReduceError::ShardMismatch`]. The default implementation reports
    /// the codec as non-homomorphic.
    fn combine(
        &mut self,
        offset: usize,
        acc: &mut Vec<u8>,
        other: &[u8],
    ) -> Result<(), ReduceError> {
        let _ = (offset, acc, other);
        Err(ReduceError::NotHomomorphic)
    }
}

/// The trivial lossless codec: raw little-endian f32 bytes. With it,
/// [`RankCtx::all_reduce_compressed`](crate::cluster::RankCtx::all_reduce_compressed)
/// is exactly [`RankCtx::all_reduce_sum`](crate::cluster::RankCtx::all_reduce_sum)
/// (which is implemented through it).
#[derive(Debug, Clone, Copy, Default)]
pub struct RawF32Codec;

impl ReduceCodec for RawF32Codec {
    fn encode_into(&mut self, _offset: usize, data: &[f32], out: &mut Vec<u8>) {
        out.reserve(data.len() * 4);
        for v in data {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode_into(
        &mut self,
        _offset: usize,
        bytes: &[u8],
        out: &mut Vec<f32>,
    ) -> Result<(), ReduceError> {
        if !bytes.len().is_multiple_of(4) {
            return Err(ReduceError::Truncated {
                needed: bytes.len().next_multiple_of(4),
                got: bytes.len(),
            });
        }
        out.reserve(bytes.len() / 4);
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().expect("4-byte chunk"))),
        );
        Ok(())
    }

    fn max_encoded_bytes(&self, len: usize) -> usize {
        len * 4
    }
}

/// Reusable buffers of the compressed all-reduce, so a steady-state caller
/// allocates nothing: the owner-shard accumulator, the decode staging
/// buffer, and the once-per-call all-gather encode buffer.
#[derive(Debug, Default)]
pub struct ReduceScratch {
    /// Rank-order sum of the contributions to this rank's own shard.
    pub(crate) accum: Vec<f32>,
    /// Decode staging for incoming shards.
    pub(crate) decode: Vec<f32>,
    /// The reduced own shard: re-encoded once on the classic path, or the
    /// compressed-domain combine accumulator on the homomorphic path. Either
    /// way it is copied to every peer lease during the all-gather.
    pub(crate) encoded: Vec<u8>,
    /// This rank's own contribution to its own shard, encoded once per call
    /// on the homomorphic path (the classic path adds it raw).
    pub(crate) own_enc: Vec<u8>,
    /// Leader-side per-destination combine accumulators of the relayed
    /// route (`ranks_per_node` of them, reused across remote nodes and
    /// across calls).
    pub(crate) accs: Vec<Vec<u8>>,
}

impl ReduceScratch {
    /// Create an empty scratch (buffers grow to working size on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes of heap capacity currently held — stable once warmed up,
    /// which the trainer's allocation ledger uses to prove the steady state.
    pub fn capacity_bytes(&self) -> u64 {
        (self.accum.capacity() * 4
            + self.decode.capacity() * 4
            + self.encoded.capacity()
            + self.own_enc.capacity()
            + self.accs.iter().map(Vec::capacity).sum::<usize>()
            + self.accs.capacity() * std::mem::size_of::<Vec<u8>>()) as u64
    }
}

/// Byte accounting of one compressed all-reduce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Bytes actually moved (encoded payloads), both directions.
    pub wire: ExchangeBytes,
    /// Bytes the same reduce-scatter + all-gather schedule would have moved
    /// with raw f32 payloads — the denominator of the compression ratio and
    /// the bytes [`CostModel::allreduce_time`](crate::cost::CostModel::allreduce_time)
    /// assumes.
    pub raw: ExchangeBytes,
    /// Compressed-domain combines performed at owner shards (zero on the
    /// decode → reduce → re-encode path).
    pub combines: usize,
    /// Encoded payload bytes folded into accumulators by those combines —
    /// what the trainer charges combine cycles against.
    pub combined_bytes: usize,
    /// Raw f32 bytes actually pushed through `encode_into` over the whole
    /// schedule — the homomorphic path skips the owner re-encode, so this
    /// (not the wire accounting) is what codec encode cycles cost.
    pub encoded_bytes: usize,
    /// Raw f32 bytes actually produced by `decode_into` over the whole
    /// schedule — the homomorphic path decodes each shard once instead of
    /// once per contribution.
    pub decoded_bytes: usize,
}

impl ReduceStats {
    /// Wire compression ratio of the exchange (1.0 when nothing moved).
    pub fn ratio(&self) -> f64 {
        let wire = self.wire.sent + self.wire.received;
        if wire == 0 {
            1.0
        } else {
            (self.raw.sent + self.raw.received) as f64 / wire as f64
        }
    }
}

/// [`ReduceStats`] with the wire bytes additionally bucketed by the tier
/// each hop crossed — what the all-reduce returns over a node-aware
/// topology, on either route
/// ([`RankCtx::all_reduce_compressed_tiered`](crate::cluster::RankCtx::all_reduce_compressed_tiered),
/// [`RankCtx::all_reduce_homomorphic_hier`](crate::cluster::RankCtx::all_reduce_homomorphic_hier)).
/// `intra + inter == stats.wire` when a topology was supplied; both stay
/// zero without one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TieredReduceStats {
    /// The untiered accounting (wire and raw bytes).
    pub stats: ReduceStats,
    /// Wire bytes whose hop stayed within a node.
    pub intra: ExchangeBytes,
    /// Wire bytes whose hop crossed the fabric.
    pub inter: ExchangeBytes,
}

impl TieredReduceStats {
    pub(crate) fn record_sent(&mut self, tier: Option<Tier>, bytes: usize) {
        self.stats.wire.sent += bytes;
        match tier {
            Some(Tier::Intra) => self.intra.sent += bytes,
            Some(Tier::Inter) => self.inter.sent += bytes,
            None => {}
        }
    }

    pub(crate) fn record_received(&mut self, tier: Option<Tier>, bytes: usize) {
        self.stats.wire.received += bytes;
        match tier {
            Some(Tier::Intra) => self.intra.received += bytes,
            Some(Tier::Inter) => self.inter.received += bytes,
            None => {}
        }
    }
}

/// Per-tier `(intra, inter)` bytes `rank` moves in an **uncompressed**
/// reduce-scatter + all-gather over a `len`-element f32 vector on `topo` —
/// the raw baseline the trainer charges `dense_saved_seconds` against when
/// the compressed collective runs on a hierarchical topology. With raw f32
/// payloads the tiered collective's measured wire bytes reproduce these
/// numbers exactly.
pub fn allreduce_tier_bytes(
    len: usize,
    topo: &Topology,
    rank: usize,
) -> (ExchangeBytes, ExchangeBytes) {
    let world = topo.world();
    let own = shard_range(len, world, rank).len() * 4;
    let mut intra = ExchangeBytes::default();
    let mut inter = ExchangeBytes::default();
    for peer in 0..world {
        if peer == rank {
            continue;
        }
        let peer_shard = shard_range(len, world, peer).len() * 4;
        // Reduce-scatter: send the peer's shard, receive a contribution to
        // our own. All-gather: send our reduced shard, receive the peer's.
        let bucket = if topo.same_node(rank, peer) {
            &mut intra
        } else {
            &mut inter
        };
        bucket.sent += peer_shard + own;
        bucket.received += own + peer_shard;
    }
    (intra, inter)
}

/// Element range of the all-reduce shard owned by `rank`: contiguous,
/// near-even split with earlier ranks absorbing the remainder (mirrors the
/// trainer's batch sharding).
pub fn shard_range(len: usize, world: usize, rank: usize) -> Range<usize> {
    assert!(rank < world, "rank {rank} out of world {world}");
    let base = len / world;
    let rem = len % world;
    let start = rank * base + rank.min(rem);
    let size = base + usize::from(rank < rem);
    start..start + size
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_tile_the_vector() {
        for (len, world) in [(0, 1), (7, 3), (12, 4), (3, 5), (100, 7)] {
            let mut next = 0usize;
            for r in 0..world {
                let range = shard_range(len, world, r);
                assert_eq!(range.start, next, "len {len} world {world} rank {r}");
                next = range.end;
            }
            assert_eq!(next, len, "len {len} world {world}");
            // Earlier ranks are never smaller than later ones.
            let sizes: Vec<usize> = (0..world)
                .map(|r| shard_range(len, world, r).len())
                .collect();
            assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "{sizes:?}");
        }
    }

    #[test]
    fn raw_codec_roundtrips_bitwise() {
        let data: Vec<f32> = (0..33).map(|i| (i as f32 * 0.7).sin() - 0.5).collect();
        let mut codec = RawF32Codec;
        let mut bytes = Vec::new();
        codec.encode_into(5, &data, &mut bytes);
        assert_eq!(bytes.len(), data.len() * 4);
        assert!(bytes.len() <= codec.max_encoded_bytes(data.len()));
        let mut back = Vec::new();
        codec
            .decode_into(5, &bytes, &mut back)
            .expect("valid stream");
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn raw_codec_rejects_truncated_stream() {
        let mut codec = RawF32Codec;
        let mut bytes = Vec::new();
        codec.encode_into(0, &[1.0, 2.0, 3.0], &mut bytes);
        let mut back = Vec::new();
        let err = codec.decode_into(0, &bytes[..10], &mut back).unwrap_err();
        assert_eq!(
            err,
            ReduceError::Truncated {
                needed: 12,
                got: 10
            }
        );
    }

    #[test]
    fn combine_defaults_to_not_homomorphic() {
        let mut codec = RawF32Codec;
        assert!(!codec.is_homomorphic());
        let mut acc = vec![0u8; 4];
        assert_eq!(
            codec.combine(0, &mut acc, &[0u8; 4]),
            Err(ReduceError::NotHomomorphic)
        );
    }

    #[test]
    fn reduce_stats_ratio() {
        let stats = ReduceStats {
            wire: ExchangeBytes {
                sent: 250,
                received: 250,
            },
            raw: ExchangeBytes {
                sent: 1000,
                received: 1000,
            },
            ..Default::default()
        };
        assert!((stats.ratio() - 4.0).abs() < 1e-12);
        assert_eq!(ReduceStats::default().ratio(), 1.0);
    }
}
