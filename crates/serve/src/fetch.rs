//! The request frame of the compressed cross-rank gather.
//!
//! Every embedding table carries its own fetch codec in a [`FetchCodecs`]
//! bank — `dlrm-grad`'s [`CodecBank`](dlrm_grad::CodecBank), the one
//! training's exchange runs through — so the runtime controller can retune
//! tables independently. Both wire directions use tiny self-describing
//! frames built on [`dlrm_comm::frame`]'s LEB128 varints, walker and
//! [`FrameError`]:
//!
//! * **request chunk** (frontend → owner), defined here: `[groups]` then per
//!   group `[table][count][gap × count]`. The row ids are sorted ascending
//!   and unique (the coalescer's output order), so each is written as its
//!   gap to one past the previous id (the first as itself): a Zipf-hot
//!   group's ids cost one or two bytes each instead of four;
//! * **payload chunk** (owner → frontend): the payload frame training's
//!   all-to-all uses too, [`dlrm_comm::frame::write_payload_group`], one
//!   group per request group in request order. The stream is the table's
//!   in-frame codec body
//!   ([`CodecBank::encode`](dlrm_grad::CodecBank::encode) at the table's row
//!   width `dim`): the group's `rows × dim` is its value count, so no count
//!   header travels with it. It encodes the rows in request order, so
//!   vector-LZ sees whole embedding rows, and the frontend re-associates
//!   decoded rows with keys positionally, without per-row framing.
//!
//! [`request_groups`] is total like the payload walker: bytes that end
//! early, run on past the last group, or carry a varint or row id past
//! `u32` give a [`FrameError`] with its byte offset, never a panic.
//! [`answered`] checks a payload group against the keys it should answer.

use dlrm_comm::frame::{read_varint, write_varint, FrameError, Groups, PayloadGroup};
pub use dlrm_grad::CodecBank as FetchCodecs;

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
            write_varint(out, (row - next) as usize);
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
        let (mut at, mut next) = (0, 0u64);
        std::iter::from_fn(move || {
            // The walk checked every gap, so only the end stops this.
            let row = next + u64::from(read_varint(self.gaps, &mut at).ok()?);
            next = row + 1;
            Some(row as u32)
        })
    }
}

/// The `keys` payload `group` answers: the next `group.rows` keys from
/// `cursor`, every one of the group's table. `Err` when the group answers
/// rows the request never asked for or names another table.
pub fn answered<'k>(
    group: &PayloadGroup<'_>,
    keys: &'k [(u32, u32)],
    cursor: usize,
) -> Result<&'k [(u32, u32)], FrameError> {
    let answered = keys
        .get(cursor..cursor + group.rows as usize)
        .ok_or(FrameError::at(
            group.offset,
            "group answers more rows than requested",
        ))?;
    if answered.iter().any(|&(t, _)| t != group.table) {
        return Err(FrameError::at(
            group.offset,
            "group's table differs from the request",
        ));
    }
    Ok(answered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_comm::frame::{payload_groups, write_payload_group};
    use dlrm_compress::CompressorKind;
    use dlrm_grad::{GradCodecKind, GradScratch};

    /// Round-trip `values`, rows `row_width` wide, through `codecs`' one
    /// table in the in-frame form.
    fn roundtrip(codecs: &FetchCodecs, values: &[f32], row_width: usize) -> Vec<f32> {
        let mut scratch = GradScratch::new();
        let mut bytes = Vec::new();
        let eb = codecs.kind(0).error_bound();
        codecs.encode(0, values, row_width, eb, &mut scratch, &mut bytes);
        let mut out = Vec::new();
        codecs
            .decode(0, &bytes, values.len(), &mut scratch, &mut out)
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

        // Payload groups that disagree with the request they answer.
        let mut pay = vec![];
        write_varint(&mut pay, 1);
        write_payload_group(&mut pay, 3, 2, |out| out.extend_from_slice(&[1, 2, 3, 4]));
        let group = payload_groups(&pay).unwrap().next().unwrap().unwrap();
        let keys = [(3, 1), (3, 5), (7, 0)];
        assert_eq!(answered(&group, &keys, 0), Ok(&keys[..2]));
        assert!(answered(&group, &keys, 1).is_err());
        assert!(answered(&group, &keys, 2).is_err());
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
            let codec = FetchCodecs::new(1, kind.clone());
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
