//! The one wire frame both embedding exchanges use.
//!
//! Training's forward and backward all-to-alls and serving's fetch responses
//! all move the same thing: per-table codec streams of embedding rows. They
//! share one **payload chunk** frame, in which every integer is an unsigned
//! LEB128 varint of at most [`VARINT_MAX`] bytes:
//!
//! ```text
//! [groups] then per group [table][rows][len][stream]
//! ```
//!
//! `rows` is the number of embedding rows the stream decodes to (at least
//! one), so a receiver checks a group against what it expects before it
//! decodes anything. Serving's request chunk (`dlrm_serve::fetch`) is built
//! on the same varint, walker and error.
//!
//! The walker ([`Groups`], [`payload_groups`]) is total: bytes that end
//! early, run on past the last group, carry a varint past `u32` or a length
//! past the chunk's end give a [`FrameError`] with its byte offset, never a
//! panic. [`ChunkOrigin`] turns an error into the one panic a rank raises
//! for a malformed chunk.

/// Worst-case bytes of one frame varint (a `u32` in LEB128).
pub const VARINT_MAX: usize = 5;

/// Worst-case bytes of one payload group's `[table][rows][len]` header.
pub const GROUP_HEADER_MAX: usize = 3 * VARINT_MAX;

/// Chunk bytes that do not parse, or a group that does not match what its
/// receiver expects: what is wrong, and the byte offset of the field or
/// group where it went wrong.
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

/// `value` in LEB128: the bytes, and how many of them it takes.
fn encode_varint(mut value: u32) -> ([u8; VARINT_MAX], usize) {
    let mut bytes = [0u8; VARINT_MAX];
    let mut n = 0;
    while value >= 0x80 {
        bytes[n] = value as u8 | 0x80;
        value >>= 7;
        n += 1;
    }
    bytes[n] = value as u8;
    (bytes, n + 1)
}

/// Append `value` as a LEB128 varint.
///
/// # Panics
/// Panics if `value` does not fit a `u32`.
pub fn write_varint(out: &mut Vec<u8>, value: usize) {
    let (bytes, n) = encode_varint(u32::try_from(value).expect("frame integers fit a u32"));
    out.extend_from_slice(&bytes[..n]);
}

/// Read one LEB128 varint that fits a `u32` (at most [`VARINT_MAX`] bytes)
/// at `*at`, advancing `*at` past it.
pub fn read_varint(bytes: &[u8], at: &mut usize) -> Result<u32, FrameError> {
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

/// Iterator over the groups of a chunk whose first varint counts them.
/// After the announced groups it checks that the chunk ends; the first
/// error ends the walk.
pub struct Groups<'a, G> {
    bytes: &'a [u8],
    at: usize,
    remaining: u32,
    group: fn(&'a [u8], &mut usize) -> Result<G, FrameError>,
}

impl<'a, G> Groups<'a, G> {
    /// Read a chunk's group count; `group` parses one group at a time,
    /// advancing the offset past it.
    pub fn new(
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

/// Lease capacity that always holds a payload chunk whose groups' streams
/// are at most `streams` bytes each: every varint at its widest.
pub fn payload_chunk_capacity(streams: impl IntoIterator<Item = usize>) -> usize {
    let groups = streams.into_iter().map(|s| GROUP_HEADER_MAX + s);
    VARINT_MAX + groups.sum::<usize>()
}

/// Append one payload group of `rows` rows of `table` to `out`: `encode`
/// appends the codec stream, straight into `out`, and the length varint is
/// written in front of it afterwards. Returns the stream's length.
///
/// # Panics
/// Panics if `table`, `rows` or the stream's length does not fit a `u32`.
///
/// `out` needs [`GROUP_HEADER_MAX`] bytes of room beyond the stream, as
/// [`payload_chunk_capacity`] reserves.
pub fn write_payload_group(
    out: &mut Vec<u8>,
    table: usize,
    rows: usize,
    encode: impl FnOnce(&mut Vec<u8>),
) -> usize {
    write_varint(out, table);
    write_varint(out, rows);
    // Room for the widest length; the stream moves down over what the real
    // one does not use.
    let len_at = out.len();
    out.resize(len_at + VARINT_MAX, 0);
    encode(out);
    let start = len_at + VARINT_MAX;
    let len = out.len() - start;
    let (bytes, n) = encode_varint(u32::try_from(len).expect("frame integers fit a u32"));
    out[len_at..len_at + n].copy_from_slice(&bytes[..n]);
    out.copy_within(start.., len_at + n);
    out.truncate(len_at + n + len);
    len
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

/// Walk the groups of a payload chunk. An empty group or a stream length
/// that runs past the chunk is a [`FrameError`], like every malformation
/// [`Groups`] catches.
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

/// Where a chunk came from: the receiving rank, what the chunk is and the
/// sending rank, named by the one panic a malformed chunk raises.
#[derive(Clone, Copy)]
pub struct ChunkOrigin {
    /// The receiving rank.
    pub rank: usize,
    /// What the chunk is ("fetch payload", an all-to-all phase, ...).
    pub what: &'static str,
    /// The sending rank.
    pub src: usize,
}

impl ChunkOrigin {
    /// The parsed value, or [`ChunkOrigin::fail`] on an error.
    pub fn check<T>(self, parsed: Result<T, FrameError>) -> T {
        parsed.unwrap_or_else(|e| self.fail(e))
    }

    /// Panic: `rank R: malformed {what} from rank S: {e}`.
    pub fn fail(self, e: FrameError) -> ! {
        let Self { rank, what, src } = self;
        panic!("rank {rank}: malformed {what} from rank {src}: {e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(groups: &[(usize, usize, &[u8])]) -> Vec<u8> {
        let mut out = vec![];
        write_varint(&mut out, groups.len());
        for &(table, rows, stream) in groups {
            write_payload_group(&mut out, table, rows, |o| o.extend_from_slice(stream));
        }
        out
    }

    fn walk(bytes: &[u8]) -> Result<Vec<PayloadGroup<'_>>, FrameError> {
        payload_groups(bytes)?.collect()
    }

    #[test]
    fn varints_are_leb128() {
        for (value, want) in [
            (0u32, &[0u8][..]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (300, &[0xac, 0x02]),
            (u32::MAX, &[0xff, 0xff, 0xff, 0xff, 0x0f]),
        ] {
            let mut out = vec![];
            write_varint(&mut out, value as usize);
            assert_eq!(out, want, "{value}");
            let mut at = 0;
            assert_eq!(read_varint(&out, &mut at), Ok(value));
            assert_eq!(at, out.len());
        }
        let mut at = 0;
        assert_eq!(
            read_varint(&[0xff, 0xff, 0xff, 0xff, 0x7f], &mut at),
            Err(FrameError::at(0, "varint exceeds u32"))
        );
        assert_eq!(
            read_varint(&[0x80; 6], &mut 0),
            Err(FrameError::at(0, "varint longer than 5 bytes"))
        );
        assert_eq!(
            read_varint(&[0x80], &mut 0),
            Err(FrameError::at(0, "chunk ends inside a varint"))
        );
    }

    #[test]
    fn payload_frames_roundtrip() {
        let long = vec![7u8; 200];
        let bytes = chunk(&[(2, 4, &[9, 9, 9]), (200, 1, &[]), (3, 128, &long)]);
        // [3] [2][4][3] 9 9 9 [200: 2][1][0] [3][128: 2][200: 2] 7 × 200
        assert_eq!(bytes.len(), 1 + 3 + 3 + 4 + 5 + 200);
        assert_eq!(
            walk(&bytes).unwrap(),
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
                PayloadGroup {
                    offset: 11,
                    table: 3,
                    rows: 128,
                    stream: &long
                },
            ]
        );
        assert_eq!(payload_groups(&bytes).unwrap().remaining(), 3);
        assert!(bytes.len() <= payload_chunk_capacity([3, 0, 200]));
        assert_eq!(walk(&chunk(&[])), Ok(vec![]));
    }

    #[test]
    fn malformed_chunks_are_errors_with_offsets() {
        let bytes = chunk(&[(3, 2, &[1, 2, 3, 4])]);
        assert_eq!(
            walk(&bytes[..bytes.len() - 1]),
            Err(FrameError::at(1, "stream runs past the end of the chunk"))
        );
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            walk(&long),
            Err(FrameError::at(
                bytes.len(),
                "trailing bytes after the last group"
            ))
        );
        let mut empty = bytes.clone();
        empty[2] = 0;
        assert_eq!(walk(&empty), Err(FrameError::at(1, "empty payload group")));
        assert_eq!(
            walk(&[]).unwrap_err(),
            FrameError::at(0, "chunk ends inside a varint")
        );
        // The first error ends the walk.
        let mut groups = payload_groups(&bytes[..3]).unwrap();
        assert!(matches!(groups.next(), Some(Err(_))));
        assert_eq!(groups.next(), None);
    }

    #[test]
    #[should_panic(
        expected = "rank 2: malformed fetch payload from rank 5: empty payload group at offset 1"
    )]
    fn a_chunk_origin_names_rank_source_and_offset() {
        let origin = ChunkOrigin {
            rank: 2,
            what: "fetch payload",
            src: 5,
        };
        origin.check(walk(&[1, 0, 0, 0]));
    }
}
