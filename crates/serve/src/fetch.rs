//! Fetch codec bank and wire framing for the compressed cross-rank gather.
//!
//! Every embedding table carries its own fetch codec (so the runtime
//! controller can retune tables independently), and both wire directions use
//! tiny self-describing frames. Every integer in a frame is an unsigned
//! LEB128 varint of at most [`VARINT_MAX`] bytes:
//!
//! * **request chunk** (frontend → owner): `[groups]` then per group
//!   `[table][count][gap × count]`. The row ids are sorted ascending and
//!   unique (the coalescer's output order), so each is written as its gap to
//!   one past the previous id (the first as itself): a Zipf-hot group's ids
//!   cost one or two bytes each instead of four;
//! * **payload chunk** (owner → frontend): `[groups]` then per group
//!   `[table][rows][len][codec stream]`, one group per request group in
//!   request order. The stream encodes the rows in request order at the
//!   table's row width ([`GradCodec::encode_rows_into`] with `dim`), so
//!   vector-LZ sees whole embedding rows, and the frontend re-associates
//!   decoded rows with keys positionally, without per-row framing.
//!
//! The walkers ([`request_groups`], [`payload_groups`]) are total: bytes
//! that end early, run on past the last group, carry a varint past `u32` or
//! a length past the chunk's end give a [`FrameError`] with its byte offset,
//! never a panic. [`PayloadGroup::answered`] checks a payload group against
//! the keys it should answer.

use dlrm_adaptive::CodecProfile;
use dlrm_compress::{varint, CompressorKind};
use dlrm_grad::{GradCodec, GradCodecKind};

/// Modeled `(encode, decode)` throughput of the integer-lattice codec, in
/// bytes/s (shared-scale quantization, no entropy stage).
pub const LATTICE_THROUGHPUT: (f64, f64) = (150e9, 200e9);
/// Modeled `(encode, decode)` throughput of the index–sum sketch.
pub const SKETCH_THROUGHPUT: (f64, f64) = (120e9, 160e9);

/// Deterministic `(encode, decode)` throughput of a fetch codec under
/// `profile`. The identity codec charges nothing (raw memcpy rides the wire
/// charge, not a codec charge).
pub fn codec_throughput(kind: &GradCodecKind, profile: &CodecProfile) -> (f64, f64) {
    match kind {
        GradCodecKind::Identity => (f64::INFINITY, f64::INFINITY),
        GradCodecKind::Fp16 => profile.throughput(CompressorKind::Fp16),
        GradCodecKind::Fp8 => profile.throughput(CompressorKind::Fp8),
        GradCodecKind::ErrorBounded { compressor, .. } => profile.throughput(*compressor),
        GradCodecKind::Lattice { .. } => LATTICE_THROUGHPUT,
        GradCodecKind::SumSketch => SKETCH_THROUGHPUT,
        GradCodecKind::TopK { .. } => (40e9, 200e9),
    }
}

/// One codec per table, rebuildable per table when the controller switches.
pub struct FetchCodecs {
    kinds: Vec<GradCodecKind>,
    codecs: Vec<GradCodec>,
}

impl FetchCodecs {
    /// Every table starts on `kind`.
    pub fn new(tables: usize, kind: GradCodecKind) -> Self {
        Self {
            kinds: vec![kind.clone(); tables],
            codecs: (0..tables).map(|_| kind.build()).collect(),
        }
    }

    /// The codec kind table `t` currently runs.
    pub fn kind(&self, t: usize) -> &GradCodecKind {
        &self.kinds[t]
    }

    /// The built codec of table `t`.
    pub fn codec(&self, t: usize) -> &GradCodec {
        &self.codecs[t]
    }

    /// Switch table `t` to an error-bounded codec over `compressor` at `eb`.
    pub fn set_compressor(&mut self, t: usize, compressor: CompressorKind, eb: f32) {
        let kind = GradCodecKind::ErrorBounded {
            compressor,
            error_bound: eb,
        };
        self.codecs[t] = kind.build();
        self.kinds[t] = kind;
    }

    /// Worst-case encoded bytes for `len` floats of table `t`.
    pub fn max_encoded_bytes(&self, t: usize, len: usize) -> usize {
        self.codecs[t].max_encoded_bytes(len)
    }
}

/// Fetch-chunk bytes that do not parse, or a payload group that does not
/// answer the request it should: what is wrong, and the byte offset of the
/// field or group where it went wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameError {
    /// Byte offset where the failed field or group starts.
    pub offset: usize,
    /// What is wrong there.
    pub what: &'static str,
}

impl FrameError {
    /// An error at `offset`.
    pub fn at(offset: usize, what: &'static str) -> Self {
        Self { offset, what }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at offset {}", self.what, self.offset)
    }
}

impl std::error::Error for FrameError {}

/// Worst-case bytes of one frame varint (a `u32` in LEB128).
pub const VARINT_MAX: usize = 5;

fn write_varint(out: &mut Vec<u8>, value: usize) {
    varint::write_u64(out, value as u64);
}

/// Read one LEB128 varint that fits a `u32` (at most [`VARINT_MAX`] bytes)
/// at `*at`, advancing `*at` past it.
fn read_varint(bytes: &[u8], at: &mut usize) -> Result<u32, FrameError> {
    let start = *at;
    let mut value = 0u64;
    for shift in (0..7 * VARINT_MAX).step_by(7) {
        let &byte = bytes
            .get(*at)
            .ok_or(FrameError::at(start, "chunk ends inside a varint"))?;
        *at += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return u32::try_from(value).map_err(|_| FrameError::at(start, "varint exceeds u32"));
        }
    }
    Err(FrameError::at(start, "varint longer than 5 bytes"))
}

/// Iterator over the groups of a fetch chunk ([`request_groups`],
/// [`payload_groups`]). After the announced groups it checks that the chunk
/// ends; the first error ends the walk.
pub struct Groups<'a, G> {
    bytes: &'a [u8],
    at: usize,
    remaining: u32,
    group: fn(&'a [u8], &mut usize) -> Result<G, FrameError>,
}

impl<'a, G> Groups<'a, G> {
    /// Read a chunk's group count; `group` parses one group at a time.
    fn new(
        bytes: &'a [u8],
        group: fn(&'a [u8], &mut usize) -> Result<G, FrameError>,
    ) -> Result<Self, FrameError> {
        let mut at = 0;
        let remaining = read_varint(bytes, &mut at)?;
        Ok(Self {
            bytes,
            at,
            remaining,
            group,
        })
    }

    /// Groups the chunk announces that the walk has not reached yet.
    pub fn remaining(&self) -> usize {
        self.remaining as usize
    }
}

impl<G> Iterator for Groups<'_, G> {
    type Item = Result<G, FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = match self.remaining {
            0 if self.at == self.bytes.len() => return None,
            0 => Err(FrameError::at(
                self.at,
                "trailing bytes after the last group",
            )),
            _ => {
                self.remaining -= 1;
                (self.group)(self.bytes, &mut self.at)
            }
        };
        if item.is_err() {
            (self.remaining, self.at) = (0, self.bytes.len());
        }
        Some(item)
    }
}

/// Append a whole request chunk for `keys`: `(table, row)` pairs sorted
/// ascending and unique, the coalescer's output order.
///
/// # Panics
/// Panics if `keys` are not sorted and unique.
pub fn write_request_chunk(out: &mut Vec<u8>, keys: &[(u32, u32)]) {
    let same_table = |a: &(u32, u32), b: &(u32, u32)| a.0 == b.0;
    write_varint(out, keys.chunk_by(same_table).count());
    for group in keys.chunk_by(same_table) {
        write_varint(out, group[0].0 as usize);
        write_varint(out, group.len());
        // Row ids as gaps: each id minus one past the previous (the first
        // minus zero), so sorted unique ids never write a negative gap.
        let mut next = 0u64;
        for &(_, row) in group {
            let row = u64::from(row);
            assert!(row >= next, "request rows must be sorted and unique");
            varint::write_u64(out, row - next);
            next = row + 1;
        }
    }
}

/// Walk the `(table, rows)` groups of a request chunk. Total: a chunk that
/// ends early, a count that runs past its end, an id past `u32`, an empty
/// group or bytes after the last group give one [`FrameError`] and end the
/// walk; nothing panics.
pub fn request_groups(bytes: &[u8]) -> Result<Groups<'_, RequestGroup<'_>>, FrameError> {
    Groups::new(bytes, request_group)
}

fn request_group<'a>(bytes: &'a [u8], at: &mut usize) -> Result<RequestGroup<'a>, FrameError> {
    let offset = *at;
    let table = read_varint(bytes, at)?;
    let count = read_varint(bytes, at)? as usize;
    if count == 0 {
        return Err(FrameError::at(offset, "empty request group"));
    }
    // Each id takes a byte at least.
    if count > bytes.len() - *at {
        return Err(FrameError::at(
            offset,
            "row count runs past the end of the chunk",
        ));
    }
    let start = *at;
    let mut next = 0u64;
    for _ in 0..count {
        let id_at = *at;
        let row = next + u64::from(read_varint(bytes, at)?);
        if row > u64::from(u32::MAX) {
            return Err(FrameError::at(id_at, "row id exceeds u32"));
        }
        next = row + 1;
    }
    let rows = RequestRows {
        gaps: &bytes[start..*at],
        count,
    };
    Ok(RequestGroup {
        offset,
        table,
        rows,
    })
}

/// One request group: the rows of `table` a frontend asks for.
pub struct RequestGroup<'a> {
    /// Byte offset of the group in its chunk.
    pub offset: usize,
    /// Table the rows belong to.
    pub table: u32,
    /// The row ids.
    pub rows: RequestRows<'a>,
}

/// The row ids of one request group, checked by the walk and decoded
/// lazily.
pub struct RequestRows<'a> {
    /// The group's id gaps, one varint each.
    gaps: &'a [u8],
    count: usize,
}

impl RequestRows<'_> {
    /// Number of rows in the group.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the group is empty (the walk rejects empty groups).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterate the row ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let mut next = 0u64;
        let gaps = self.gaps.split_inclusive(|&b| b & 0x80 == 0);
        gaps.map(move |v| {
            let gap = v
                .iter()
                .rev()
                .fold(0u64, |acc, &b| acc << 7 | u64::from(b & 0x7f));
            let row = next + gap;
            next = row + 1;
            row as u32
        })
    }
}

/// Start a payload chunk of `groups` groups (one per request group, in
/// request order).
pub fn write_payload_header(out: &mut Vec<u8>, groups: usize) {
    write_varint(out, groups);
}

/// Append one payload group (already-encoded stream) to `out`.
pub fn write_payload_group(out: &mut Vec<u8>, table: u32, rows: u32, encoded: &[u8]) {
    write_varint(out, table as usize);
    write_varint(out, rows as usize);
    write_varint(out, encoded.len());
    out.extend_from_slice(encoded);
}

/// One payload group: `rows` rows of `table` in one codec stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PayloadGroup<'a> {
    /// Byte offset of the group in its chunk.
    pub offset: usize,
    /// Table the rows belong to.
    pub table: u32,
    /// Rows in the stream (at least one).
    pub rows: u32,
    /// The codec stream.
    pub stream: &'a [u8],
}

impl PayloadGroup<'_> {
    /// The `keys` this group answers: the next `rows` keys from `cursor`,
    /// every one of the group's table. `Err` when the group answers rows
    /// the request never asked for or names another table.
    pub fn answered<'k>(
        &self,
        keys: &'k [(u32, u32)],
        cursor: usize,
    ) -> Result<&'k [(u32, u32)], FrameError> {
        let answered = keys
            .get(cursor..cursor + self.rows as usize)
            .ok_or(FrameError::at(
                self.offset,
                "group answers more rows than requested",
            ))?;
        if answered.iter().any(|&(t, _)| t != self.table) {
            return Err(FrameError::at(
                self.offset,
                "group's table differs from the request",
            ));
        }
        Ok(answered)
    }
}

/// Walk the groups of a payload chunk. Total in the same way as
/// [`request_groups`]: an empty group or a stream length that runs past
/// the chunk is a [`FrameError`].
pub fn payload_groups(bytes: &[u8]) -> Result<Groups<'_, PayloadGroup<'_>>, FrameError> {
    Groups::new(bytes, payload_group)
}

fn payload_group<'a>(bytes: &'a [u8], at: &mut usize) -> Result<PayloadGroup<'a>, FrameError> {
    let offset = *at;
    let table = read_varint(bytes, at)?;
    let rows = read_varint(bytes, at)?;
    let len = read_varint(bytes, at)? as usize;
    if rows == 0 {
        return Err(FrameError::at(offset, "empty payload group"));
    }
    let stream = bytes.get(*at..*at + len).ok_or(FrameError::at(
        offset,
        "stream runs past the end of the chunk",
    ))?;
    *at += len;
    Ok(PayloadGroup {
        offset,
        table,
        rows,
        stream,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_grad::GradScratch;

    /// Round-trip `values`, rows `row_width` wide, through `codec`.
    fn roundtrip(codec: &GradCodec, values: &[f32], row_width: usize) -> Vec<f32> {
        let mut scratch = GradScratch::new();
        let mut bytes = Vec::new();
        codec.encode_rows_into(values, row_width, &mut scratch, &mut bytes);
        let mut out = Vec::new();
        codec
            .decode_into(&bytes, &mut scratch, &mut out)
            .expect("fetch codec decodes");
        out
    }

    fn request_chunk(keys: &[(u32, u32)]) -> Vec<u8> {
        let mut chunk = vec![];
        write_request_chunk(&mut chunk, keys);
        chunk
    }

    fn walk_requests(chunk: &[u8]) -> Result<Vec<(u32, Vec<u32>)>, FrameError> {
        request_groups(chunk)?
            .map(|g| g.map(|g| (g.table, g.rows.iter().collect())))
            .collect()
    }

    #[test]
    fn request_frames_roundtrip() {
        let keys = [(3, 1), (3, 5), (3, 9), (3, 300), (7, 0), (9, u32::MAX)];
        let chunk = request_chunk(&keys);
        // [3] [3][4][1][3][3][290: 2 bytes] [7][1][0] [9][1][u32::MAX: 5 bytes]
        assert_eq!(chunk.len(), 1 + (2 + 5) + 3 + (2 + 5));
        let groups = walk_requests(&chunk).unwrap();
        assert_eq!(
            groups,
            vec![(3, vec![1, 5, 9, 300]), (7, vec![0]), (9, vec![u32::MAX])]
        );
        assert_eq!(request_groups(&chunk).unwrap().remaining(), 3);
    }

    #[test]
    fn payload_frames_roundtrip() {
        let mut chunk = vec![];
        write_payload_header(&mut chunk, 2);
        write_payload_group(&mut chunk, 2, 4, &[9, 9, 9]);
        write_payload_group(&mut chunk, 200, 1, &[]);
        let groups: Vec<PayloadGroup> = payload_groups(&chunk)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(
            groups,
            vec![
                PayloadGroup {
                    offset: 1,
                    table: 2,
                    rows: 4,
                    stream: &[9, 9, 9]
                },
                PayloadGroup {
                    offset: 7,
                    table: 200,
                    rows: 1,
                    stream: &[]
                },
            ]
        );
    }

    #[test]
    fn malformed_chunks_are_errors_with_offsets() {
        let chunk = request_chunk(&[(3, 1), (3, 5), (7, 0)]);
        // Truncated inside the second group.
        let err = walk_requests(&chunk[..chunk.len() - 1]).unwrap_err();
        assert_eq!(err.offset, 5);
        // A trailing byte.
        let mut long = chunk.clone();
        long.push(0);
        assert_eq!(
            walk_requests(&long).unwrap_err(),
            FrameError::at(chunk.len(), "trailing bytes after the last group")
        );
        // A count past the end of the chunk, and an empty chunk.
        let mut big = chunk.clone();
        big[2] = 100;
        assert_eq!(walk_requests(&big).unwrap_err().offset, 1);
        assert!(request_groups(&[]).is_err());
        // A varint past u32, and an id past u32 by its gaps.
        assert_eq!(
            walk_requests(&[1, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x7f]).unwrap_err(),
            FrameError::at(3, "varint exceeds u32")
        );
        let over = request_chunk(&[(0, u32::MAX)]);
        let mut two = over.clone();
        two[2] = 2;
        two.push(0);
        assert_eq!(
            walk_requests(&two).unwrap_err(),
            FrameError::at(over.len(), "row id exceeds u32")
        );

        // A payload stream past the chunk, and groups that disagree with
        // the request they answer.
        let mut pay = vec![];
        write_payload_header(&mut pay, 1);
        write_payload_group(&mut pay, 3, 2, &[1, 2, 3, 4]);
        let short = payload_groups(&pay[..pay.len() - 1]).unwrap().next();
        assert_eq!(
            short,
            Some(Err(FrameError::at(
                1,
                "stream runs past the end of the chunk"
            )))
        );
        let group = payload_groups(&pay).unwrap().next().unwrap().unwrap();
        let keys = [(3, 1), (3, 5), (7, 0)];
        assert_eq!(group.answered(&keys, 0), Ok(&keys[..2]));
        assert!(group.answered(&keys, 1).is_err());
        assert!(group.answered(&keys, 2).is_err());
    }

    #[test]
    fn pointwise_codecs_decode_rows_independently_of_composition() {
        // The cache-transparency invariant: a row's round-trip through the
        // fetch codec must not depend on which other rows share the stream.
        let dim = 8;
        let rows: Vec<Vec<f32>> = (0..6)
            .map(|r| {
                (0..dim)
                    .map(|c| ((r * dim + c) as f32).sin() * 0.3)
                    .collect()
            })
            .collect();
        for kind in [
            GradCodecKind::Identity,
            GradCodecKind::Fp16,
            GradCodecKind::Fp8,
            GradCodecKind::ErrorBounded {
                compressor: CompressorKind::OursHybrid,
                error_bound: 0.01,
            },
            GradCodecKind::ErrorBounded {
                compressor: CompressorKind::FzLike,
                error_bound: 0.01,
            },
            GradCodecKind::Lattice { error_bound: 0.01 },
            GradCodecKind::SumSketch,
        ] {
            let codec = kind.build();
            // Batch round-trip of all rows in one stream, at the table's
            // row width (the wire's form) and as one long row.
            let flat: Vec<f32> = rows.iter().flatten().copied().collect();
            let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let batch = roundtrip(&codec, &flat, dim);
            let long = roundtrip(&codec, &flat, flat.len());
            assert_eq!(bits(&batch), bits(&long), "{}: width", kind.label());
            // Each row round-tripped alone.
            for (r, row) in rows.iter().enumerate() {
                let solo = roundtrip(&codec, row, dim);
                assert_eq!(
                    bits(&solo),
                    bits(&batch[r * dim..(r + 1) * dim]),
                    "{}: row {r} decode depends on stream composition",
                    kind.label()
                );
            }
        }
    }
}
