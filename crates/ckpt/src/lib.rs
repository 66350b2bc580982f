//! # dlrm-ckpt
//!
//! Compressed in-memory checkpoints of a hybrid-parallel DLRM: the MLP
//! replica, each rank's embedding-table shards, and the error-feedback
//! residual of the dense gradient compressor.
//!
//! The paper's thesis — aggressive lossy compression makes DLRM
//! communication cheap — applies just as well to fault tolerance: the same
//! [`GradCodec`] stack that shrinks the wire traffic shrinks a checkpoint,
//! making *frequent* snapshots affordable. A checkpoint here is not a file:
//! the simulated cluster holds it in memory as per-section
//! [`EncodedSection`]s, reports the compression ratio, and charges the
//! modeled write/read time (`encoded bytes / bandwidth`) to the trainer's
//! timing ledger, so a report prices checkpointing and recovery next to
//! the exchanges.
//!
//! Layout. Every rank produces a [`RankCheckpoint`] for the state it owns:
//! rank 0 encodes the (replicated) MLP parameters once, each rank encodes
//! the weight matrix of every embedding table it owns (at the table's row
//! width, [`EncodedSection::encode`]) plus its private error-feedback
//! residual. [`Checkpoint::assemble`] stitches the per-rank
//! parts into one global [`Checkpoint`], keyed by table id — deliberately
//! **partition-agnostic**, so a checkpoint taken under one
//! `TablePartition` restores cleanly onto a different world size after a
//! rank loss or an elastic resize.
//!
//! ```
//! use dlrm_ckpt::{Checkpoint, EncodedSection, RankCheckpoint};
//! use dlrm_grad::{GradCodecKind, GradScratch};
//!
//! let (codec, mut scratch) = (GradCodecKind::Fp16.build(), GradScratch::new());
//! let weights: Vec<f32> = (0..64).map(|i| (i as f32 * 0.1).sin()).collect();
//! let mut part = RankCheckpoint::new(10, 0);
//! part.mlp = Some(EncodedSection::encode(&codec, &weights, 64, &mut scratch));
//! part.push_table(3, 8, 8, EncodedSection::encode(&codec, &weights, 8, &mut scratch));
//! let ckpt = Checkpoint::assemble(GradCodecKind::Fp16, vec![part]);
//! assert!(ckpt.ratio() > 1.0);
//! let mut restored = Vec::new();
//! let section = &ckpt.table(3).unwrap().section;
//! section.decode_into(&codec, &mut scratch, &mut restored).unwrap();
//! assert_eq!(restored.len(), 64);
//! ```

use dlrm_grad::{GradCodec, GradCodecKind, GradScratch, ReduceError};

/// When and how to checkpoint — the knob the trainer's `FaultSetting`
/// carries.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSpec {
    /// Take a checkpoint every `every` iterations (and always at a segment
    /// boundary, so a restore point exists for any scheduled event).
    pub every: usize,
    /// Codec the sections are encoded with. Lossless kinds restore
    /// bit-identically; lossy kinds restore within their configured error
    /// and lean on training to heal the rest.
    pub codec: GradCodecKind,
    /// Modeled bandwidth of the checkpoint store in bytes/second; writes
    /// charge `encoded bytes / write_bandwidth` seconds to the ledger.
    pub write_bandwidth: f64,
}

impl CheckpointSpec {
    /// Default modeled checkpoint-store bandwidth: 2 GB/s, a local NVMe.
    pub const DEFAULT_WRITE_BANDWIDTH: f64 = 2e9;

    /// A spec checkpointing every `every` iterations through `codec` at the
    /// default store bandwidth.
    ///
    /// # Panics
    /// Panics if `every == 0`.
    pub fn new(every: usize, codec: GradCodecKind) -> Self {
        let spec = Self {
            every,
            codec,
            write_bandwidth: Self::DEFAULT_WRITE_BANDWIDTH,
        };
        if let Err(e) = spec.validate() {
            panic!("invalid checkpoint spec: {e}");
        }
        spec
    }

    /// Builder: override the modeled store bandwidth.
    pub fn with_write_bandwidth(mut self, bandwidth: f64) -> Self {
        self.write_bandwidth = bandwidth;
        if let Err(e) = self.validate() {
            panic!("invalid checkpoint spec: {e}");
        }
        self
    }

    /// Structural validation.
    pub fn validate(&self) -> Result<(), String> {
        if self.every == 0 {
            return Err("checkpoint cadence must be at least 1 iteration".into());
        }
        if !(self.write_bandwidth > 0.0 && self.write_bandwidth.is_finite()) {
            return Err(format!(
                "checkpoint write bandwidth must be finite and positive, got {}",
                self.write_bandwidth
            ));
        }
        Ok(())
    }

    /// Short human label, e.g. `ckpt@4/fp16`.
    pub fn label(&self) -> String {
        format!("ckpt@{}/{}", self.every, self.codec.label())
    }
}

/// One compressed section: a float vector as the codec's byte stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedSection {
    /// Element count of the original float vector.
    pub original_len: usize,
    /// The codec's output stream.
    pub bytes: Vec<u8>,
}

impl EncodedSection {
    /// Encode `data`, row-major rows `row_width` wide, as one standalone
    /// `codec` stream: a table section at its `dim`, so the error-bounded
    /// codecs see whole embedding rows, and the MLP parameters and the
    /// error-feedback residual as one long row (see
    /// [`GradCodec::encode_rows_into`]). Decoding needs no width.
    pub fn encode(
        codec: &GradCodec,
        data: &[f32],
        row_width: usize,
        scratch: &mut GradScratch,
    ) -> Self {
        let mut bytes = Vec::with_capacity(codec.max_encoded_bytes(data.len()).min(1 << 20));
        codec.encode_rows_into(data, row_width, scratch, &mut bytes);
        Self {
            original_len: data.len(),
            bytes,
        }
    }

    /// Decode the section into `out` (cleared and refilled). `Err` when the
    /// stream does not decode, or decodes to other than `original_len`
    /// values.
    pub fn decode_into(
        &self,
        codec: &GradCodec,
        scratch: &mut GradScratch,
        out: &mut Vec<f32>,
    ) -> Result<(), ReduceError> {
        out.clear();
        codec.decode_into(&self.bytes, scratch, out)?;
        if out.len() != self.original_len {
            return Err(ReduceError::ShardMismatch {
                expected: self.original_len,
                got: out.len(),
            });
        }
        Ok(())
    }

    /// Size of the section before compression.
    pub fn original_bytes(&self) -> u64 {
        (self.original_len * 4) as u64
    }

    /// Size of the section on the (modeled) checkpoint store.
    pub fn encoded_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }
}

/// One embedding table's weights, identified globally by table id so the
/// restore side needs no knowledge of the partition that wrote it.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSection {
    /// Stable table id (matches the dataset configuration).
    pub table_id: usize,
    /// Row count (cardinality) — restore-side shape check.
    pub rows: usize,
    /// Column count (embedding dim) — restore-side shape check.
    pub cols: usize,
    /// The encoded row-major weight matrix.
    pub section: EncodedSection,
}

/// The state one rank contributes to a checkpoint.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankCheckpoint {
    /// Iteration the snapshot describes (state *entering* this iteration).
    pub iteration: usize,
    /// The writing rank.
    pub rank: usize,
    /// Replicated MLP parameters — encoded by rank 0 only.
    pub mlp: Option<EncodedSection>,
    /// The embedding tables this rank owns.
    pub tables: Vec<TableSection>,
    /// This rank's error-feedback residual, when the dense compressor
    /// maintains one.
    pub residual: Option<EncodedSection>,
    /// Measured wall seconds spent encoding the sections.
    pub encode_seconds: f64,
}

impl RankCheckpoint {
    /// An empty per-rank snapshot at `iteration`.
    pub fn new(iteration: usize, rank: usize) -> Self {
        Self {
            iteration,
            rank,
            ..Self::default()
        }
    }

    /// Append one owned table's encoded weights.
    pub fn push_table(&mut self, table_id: usize, rows: usize, cols: usize, s: EncodedSection) {
        assert_eq!(s.original_len, rows * cols, "table section shape mismatch");
        self.tables.push(TableSection {
            table_id,
            rows,
            cols,
            section: s,
        });
    }

    fn sections(&self) -> impl Iterator<Item = &EncodedSection> {
        self.mlp
            .iter()
            .chain(self.tables.iter().map(|t| &t.section))
            .chain(self.residual.iter())
    }

    /// Uncompressed size of everything this rank wrote.
    pub fn original_bytes(&self) -> u64 {
        self.sections().map(EncodedSection::original_bytes).sum()
    }

    /// Compressed size of everything this rank wrote.
    pub fn encoded_bytes(&self) -> u64 {
        self.sections().map(EncodedSection::encoded_bytes).sum()
    }

    /// Modeled seconds to push this rank's sections to the store.
    pub fn write_seconds(&self, bandwidth: f64) -> f64 {
        self.encoded_bytes() as f64 / bandwidth
    }
}

/// A complete, partition-agnostic snapshot assembled from every rank's
/// [`RankCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Iteration the snapshot describes.
    pub iteration: usize,
    /// Codec every section was encoded with.
    pub codec: GradCodecKind,
    /// The replicated MLP parameters.
    pub mlp: EncodedSection,
    /// All embedding tables, sorted by table id.
    tables: Vec<TableSection>,
    /// Per-rank error-feedback residuals, sorted by writing rank.
    residuals: Vec<(usize, EncodedSection)>,
    /// Total uncompressed bytes across every section.
    pub original_bytes: u64,
    /// Total compressed bytes across every section.
    pub encoded_bytes: u64,
    /// Summed measured encode seconds across ranks.
    pub encode_seconds: f64,
}

impl Checkpoint {
    /// Stitch per-rank snapshots into one global checkpoint.
    ///
    /// # Panics
    /// Panics if the parts disagree on the iteration, the MLP section is
    /// missing or duplicated, or a table id appears twice.
    pub fn assemble(codec: GradCodecKind, parts: Vec<RankCheckpoint>) -> Self {
        assert!(!parts.is_empty(), "checkpoint needs at least one rank part");
        let iteration = parts[0].iteration;
        let original_bytes: u64 = parts.iter().map(RankCheckpoint::original_bytes).sum();
        let encoded_bytes: u64 = parts.iter().map(RankCheckpoint::encoded_bytes).sum();
        let encode_seconds: f64 = parts.iter().map(|p| p.encode_seconds).sum();
        let mut mlp = None;
        let mut tables = Vec::new();
        let mut residuals = Vec::new();
        for part in parts {
            assert_eq!(
                part.iteration, iteration,
                "rank {} checkpointed a different iteration",
                part.rank
            );
            if let Some(s) = part.mlp {
                assert!(mlp.is_none(), "two ranks wrote the MLP section");
                mlp = Some(s);
            }
            if let Some(s) = part.residual {
                residuals.push((part.rank, s));
            }
            tables.extend(part.tables);
        }
        tables.sort_by_key(|t| t.table_id);
        assert!(
            tables.windows(2).all(|w| w[0].table_id != w[1].table_id),
            "a table was checkpointed by two ranks"
        );
        residuals.sort_by_key(|(rank, _)| *rank);
        Self {
            iteration,
            codec,
            mlp: mlp.expect("no rank wrote the MLP section"),
            tables,
            residuals,
            original_bytes,
            encoded_bytes,
            encode_seconds,
        }
    }

    /// Compression ratio of the whole snapshot (`original / encoded`).
    pub fn ratio(&self) -> f64 {
        self.original_bytes as f64 / (self.encoded_bytes as f64).max(1.0)
    }

    /// All table sections, sorted by table id.
    pub fn tables(&self) -> &[TableSection] {
        &self.tables
    }

    /// The section of table `id`, if the checkpoint holds it.
    pub fn table(&self, id: usize) -> Option<&TableSection> {
        self.tables
            .binary_search_by_key(&id, |t| t.table_id)
            .ok()
            .map(|i| &self.tables[i])
    }

    /// The error-feedback residual the given rank wrote, if any. After a
    /// re-shard the surviving ranks restore their *own* residual; a lost
    /// rank's residual is simply dropped (its discarded-gradient debt dies
    /// with it, which error feedback tolerates — the residual is a
    /// correction, not model state).
    pub fn residual_for(&self, rank: usize) -> Option<&EncodedSection> {
        self.residuals
            .iter()
            .find(|(r, _)| *r == rank)
            .map(|(_, s)| s)
    }

    /// Modeled seconds for one rank to pull the whole snapshot back from
    /// the store at `bandwidth` bytes/second — the read half of recovery
    /// cost.
    pub fn read_seconds(&self, bandwidth: f64) -> f64 {
        self.encoded_bytes as f64 / bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_compress::CompressorKind;

    /// A gradient-shaped payload: smooth, small-magnitude, sign-mixed.
    fn payload(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.173).sin() * 0.2 + (i as f32 * 0.011).cos() * 0.05)
            .collect()
    }

    /// Encode `data` as one long row.
    fn encode(codec: &GradCodec, data: &[f32]) -> EncodedSection {
        EncodedSection::encode(codec, data, data.len(), &mut GradScratch::new())
    }

    fn decode(codec: &GradCodec, section: &EncodedSection) -> Vec<f32> {
        let mut out = Vec::new();
        section
            .decode_into(codec, &mut GradScratch::new(), &mut out)
            .expect("a section this codec wrote decodes");
        out
    }

    fn roundtrip(kind: &GradCodecKind, data: &[f32]) -> Vec<f32> {
        let codec = kind.build();
        let section = encode(&codec, data);
        assert_eq!(section.original_len, data.len());
        decode(&codec, &section)
    }

    #[test]
    fn identity_roundtrip_is_bit_identical() {
        let data = payload(997);
        let back = roundtrip(&GradCodecKind::Identity, &data);
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fp16_roundtrip_is_within_cast_tolerance() {
        let data = payload(512);
        let back = roundtrip(&GradCodecKind::Fp16, &data);
        for (a, b) in data.iter().zip(&back) {
            // Half precision: 11-bit significand, relative error <= 2^-11.
            assert!((a - b).abs() <= a.abs() * 5e-4 + 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn fp8_roundtrip_is_within_cast_tolerance() {
        let data = payload(512);
        let back = roundtrip(&GradCodecKind::Fp8, &data);
        for (a, b) in data.iter().zip(&back) {
            // e4m3: 4-bit significand (rel err <= 2^-4) and subnormal steps
            // of 2^-9 near zero (abs err <= 2^-10).
            assert!((a - b).abs() <= a.abs() * 0.13 + 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn error_bounded_roundtrip_respects_the_bound() {
        let data = payload(2048);
        for compressor in [
            CompressorKind::OursHybrid,
            CompressorKind::SzLike,
            CompressorKind::FzLike,
        ] {
            let bound = 1e-3f32;
            let kind = GradCodecKind::ErrorBounded {
                compressor,
                error_bound: bound,
            };
            let back = roundtrip(&kind, &data);
            for (a, b) in data.iter().zip(&back) {
                assert!(
                    (a - b).abs() <= bound * 1.0001,
                    "{compressor:?}: {a} vs {b} exceeds bound {bound}"
                );
            }
        }
    }

    #[test]
    fn topk_roundtrip_keeps_elements_exact_or_zero() {
        let data = payload(400);
        let back = roundtrip(&GradCodecKind::TopK { fraction: 0.25 }, &data);
        let mut kept = 0usize;
        for (a, b) in data.iter().zip(&back) {
            if *b != 0.0 {
                assert_eq!(a.to_bits(), b.to_bits(), "kept element not exact");
                kept += 1;
            }
        }
        assert!(kept >= 100, "top-k kept only {kept} of 100 expected");
    }

    #[test]
    fn assemble_stitches_ranks_and_reports_ratio() {
        let kind = GradCodecKind::Fp16;
        let codec = kind.build();
        let mlp = payload(300);
        let t0 = payload(64);
        let t1 = payload(128);
        let res = payload(300);

        let mut part0 = RankCheckpoint::new(8, 0);
        part0.mlp = Some(encode(&codec, &mlp));
        part0.push_table(0, 8, 8, encode(&codec, &t0));
        part0.residual = Some(encode(&codec, &res));
        let mut part1 = RankCheckpoint::new(8, 1);
        part1.push_table(1, 16, 8, encode(&codec, &t1));

        let total_original = part0.original_bytes() + part1.original_bytes();
        let ckpt = Checkpoint::assemble(kind, vec![part1, part0]);
        assert_eq!(ckpt.iteration, 8);
        assert_eq!(ckpt.original_bytes, total_original);
        assert!(ckpt.ratio() > 1.5, "fp16 ratio {} not ~2x", ckpt.ratio());
        assert_eq!(ckpt.tables().len(), 2);
        assert_eq!(ckpt.table(1).unwrap().rows, 16);
        assert!(ckpt.table(7).is_none());
        assert!(ckpt.residual_for(0).is_some());
        assert!(ckpt.residual_for(1).is_none());
        assert!(ckpt.read_seconds(1e9) > 0.0);

        // And the sections restore.
        assert_eq!(decode(&codec, &ckpt.mlp).len(), 300);
        assert_eq!(decode(&codec, &ckpt.table(0).unwrap().section).len(), 64);
    }

    #[test]
    #[should_panic(expected = "different iteration")]
    fn assemble_rejects_mixed_iterations() {
        let kind = GradCodecKind::Identity;
        let mut a = RankCheckpoint::new(4, 0);
        a.mlp = Some(encode(&kind.build(), &payload(10)));
        let b = RankCheckpoint::new(5, 1);
        let _ = Checkpoint::assemble(kind, vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "two ranks")]
    fn assemble_rejects_duplicate_tables() {
        let kind = GradCodecKind::Identity;
        let codec = kind.build();
        let mut a = RankCheckpoint::new(4, 0);
        a.mlp = Some(encode(&codec, &payload(10)));
        a.push_table(2, 2, 5, encode(&codec, &payload(10)));
        let mut b = RankCheckpoint::new(4, 1);
        b.push_table(2, 2, 5, encode(&codec, &payload(10)));
        let _ = Checkpoint::assemble(kind, vec![a, b]);
    }

    #[test]
    fn spec_validates_and_labels() {
        let spec = CheckpointSpec::new(4, GradCodecKind::Fp16);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.label(), "ckpt@4/fp16");
        assert!(spec.with_write_bandwidth(1e9).validate().is_ok());
    }

    #[test]
    #[should_panic]
    fn zero_cadence_panics() {
        let _ = CheckpointSpec::new(0, GradCodecKind::Identity);
    }

    /// A 6 × 8 table whose rows repeat with period 3.
    fn repeating_table() -> Vec<f32> {
        (0..48)
            .map(|i| (((i / 8) % 3 * 8 + i % 8) as f32 * 0.37).sin() * 0.2)
            .collect()
    }

    fn fnv_bits(values: &[f32]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// [`repeating_table`] under the hybrid codec at eb 0.01, encoded as one
    /// long row, as table sections were written before they took the
    /// table's row width; and the FNV of its decoded bits.
    const LONG_ROW_SECTION: &str = "30000000010130ff010ad7233c0000080e121414100a0403090f1313110d\
        0700080e1214141000080e121414100a0403090f1313110d0700080e12141410";
    const LONG_ROW_DECODED: u64 = 0x801ae06d35d892ad;

    #[test]
    fn long_row_sections_still_decode_and_rows_decode_the_same() {
        let kind = GradCodecKind::ErrorBounded {
            compressor: CompressorKind::OursHybrid,
            error_bound: 0.01,
        };
        let codec = kind.build();
        let table = repeating_table();
        let bytes: Vec<u8> = (0..LONG_ROW_SECTION.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&LONG_ROW_SECTION[i..i + 2], 16).unwrap())
            .collect();
        let old = EncodedSection {
            original_len: table.len(),
            bytes,
        };
        assert_eq!(fnv_bits(&decode(&codec, &old)), LONG_ROW_DECODED);
        // The long-row encoder still writes those bytes.
        assert_eq!(encode(&codec, &table).bytes, old.bytes);
        // At the table's width the same bits come back from fewer bytes:
        // vector-LZ matches the repeated rows.
        let rows = EncodedSection::encode(&codec, &table, 8, &mut GradScratch::new());
        assert!(rows.bytes.len() < old.bytes.len());
        assert_eq!(fnv_bits(&decode(&codec, &rows)), LONG_ROW_DECODED);
    }

    #[test]
    fn malformed_sections_decode_to_errors() {
        let codec = GradCodecKind::ErrorBounded {
            compressor: CompressorKind::OursHybrid,
            error_bound: 0.01,
        }
        .build();
        let good = EncodedSection::encode(&codec, &repeating_table(), 8, &mut GradScratch::new());
        let (mut scratch, mut out) = (GradScratch::new(), Vec::new());
        let mut truncated = good.clone();
        truncated.bytes.pop();
        assert!(truncated
            .decode_into(&codec, &mut scratch, &mut out)
            .is_err());
        let mut wrong_len = good.clone();
        wrong_len.original_len += 8;
        assert_eq!(
            wrong_len.decode_into(&codec, &mut scratch, &mut out),
            Err(ReduceError::ShardMismatch {
                expected: good.original_len + 8,
                got: good.original_len,
            })
        );
        assert!(good.decode_into(&codec, &mut scratch, &mut out).is_ok());
    }
}
