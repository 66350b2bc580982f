//! Property tests for the serving data structures.
//!
//! The hot-row cache (LRU eviction, frequency admission) is checked against
//! a naive recency-list model over arbitrary op sequences; the coalescer is checked to deliver exactly the
//! union of requested keys — per owner, sorted, no duplicates — under
//! arbitrary interleavings. The fetch-frame walkers are total: every
//! truncation and random byte flips of a valid request or payload chunk
//! parse or give an error, never a panic.

use proptest::prelude::*;

use dlrm_comm::frame::{payload_groups, write_payload_group, write_varint, FrameError};
use dlrm_compress::CompressorKind;
use dlrm_grad::{GradCodecKind, GradScratch};
use dlrm_serve::cache::FrequencySketch;
use dlrm_serve::fetch::{answered, request_groups, write_request_chunk};
use dlrm_serve::{BatchCoalescer, FetchCodecs, HotRowCache};

/// Naive reference model of the cache's policy: a vector of keys ordered
/// most-recently-used first, plus the cache's own frequency sketch fed the
/// same probes. A missing key is kept while there is room, and when full
/// only if the sketch puts it strictly above the least-recently-used key.
struct ModelCache {
    capacity: usize,
    entries: Vec<((u32, u32), Vec<f32>)>,
    sketch: FrequencySketch,
    evictions: u64,
    rejections: u64,
}

impl ModelCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Vec::new(),
            sketch: FrequencySketch::new(capacity),
            evictions: 0,
            rejections: 0,
        }
    }

    fn get(&mut self, key: (u32, u32)) -> Option<Vec<f32>> {
        self.sketch.record(key.0, key.1);
        let at = self.entries.iter().position(|(k, _)| *k == key)?;
        let hit = self.entries.remove(at);
        let vals = hit.1.clone();
        self.entries.insert(0, hit);
        Some(vals)
    }

    fn insert(&mut self, key: (u32, u32), vals: Vec<f32>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(at) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(at);
        } else if self.entries.len() == self.capacity {
            let victim = self.entries.last().expect("full").0;
            if self.sketch.estimate(key.0, key.1) <= self.sketch.estimate(victim.0, victim.1) {
                self.rejections += 1;
                return;
            }
            self.entries.pop();
            self.evictions += 1;
        }
        self.entries.insert(0, (key, vals));
    }

    fn keys_mru_to_lru(&self) -> Vec<(u32, u32)> {
        self.entries.iter().map(|(k, _)| *k).collect()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Get(u32, u32),
    Insert(u32, u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..4, 0u32..12).prop_map(|(t, r)| Op::Get(t, r)),
        (0u32..4, 0u32..12).prop_map(|(t, r)| Op::Insert(t, r)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lru_matches_naive_model(
        capacity in 0usize..9,
        ops in prop::collection::vec(op_strategy(), 0..200),
    ) {
        const DIM: usize = 3;
        let mut cache = HotRowCache::new(capacity, DIM);
        let mut model = ModelCache::new(capacity);
        for op in &ops {
            match *op {
                Op::Get(t, r) => {
                    let got = cache.get(t, r).map(<[f32]>::to_vec);
                    prop_assert_eq!(got, model.get((t, r)));
                }
                Op::Insert(t, r) => {
                    // Value derived from the key so refreshed inserts are
                    // distinguishable from stale slots.
                    let vals = vec![(t * 100 + r) as f32; DIM];
                    cache.insert(t, r, &vals);
                    model.insert((t, r), vals);
                }
            }
            // Capacity is never exceeded, the recency (= reverse eviction)
            // order matches the model exactly, and so do the evictions.
            prop_assert!(cache.len() <= capacity);
            prop_assert_eq!(cache.keys_mru_to_lru(), model.keys_mru_to_lru());
            prop_assert_eq!(cache.evictions(), model.evictions);
        }
        prop_assert_eq!(cache.rejections(), model.rejections);
    }

    #[test]
    fn coalescer_delivers_exactly_the_union(
        owners in 1usize..6,
        notes in prop::collection::vec((0u32..5, 0u32..40), 0..300),
    ) {
        let mut c = BatchCoalescer::new(owners);
        for &(t, r) in &notes {
            // Owner derived from the table, as the engine does.
            c.note(t as usize % owners, t, r);
        }
        c.finish();
        // Expected: per owner, the sorted set of unique keys noted to it.
        for owner in 0..owners {
            let mut expect: Vec<(u32, u32)> = notes
                .iter()
                .copied()
                .filter(|&(t, _)| t as usize % owners == owner)
                .collect();
            expect.sort_unstable();
            expect.dedup();
            prop_assert_eq!(c.rows(owner), &expect[..]);
            // No duplicates and sorted (the wire-framing contract).
            let rows = c.rows(owner);
            for w in rows.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
        let unique: usize = (0..owners).map(|o| c.rows(o).len()).sum();
        prop_assert_eq!(c.total_unique(), unique);
    }

    #[test]
    fn damaged_fetch_chunks_never_panic(
        notes in prop::collection::vec((0u32..4, 0u32..20_000), 1..40),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..4),
    ) {
        const DIM: usize = 4;
        let mut keys = notes;
        keys.sort_unstable();
        keys.dedup();
        let codec = FetchCodecs::new(
            4,
            GradCodecKind::ErrorBounded {
                compressor: CompressorKind::OursHybrid,
                error_bound: 0.05,
            },
        );
        let mut request = Vec::new();
        write_request_chunk(&mut request, &keys);
        let payload = payload_for(&request, &codec, DIM);
        prop_assert_eq!(walk_requests(&request), Ok(keys.clone()));
        prop_assert_eq!(walk_payload(&payload, &keys, &codec, DIM), Ok(keys.len()));
        for cut in 0..request.len() {
            prop_assert!(walk_requests(&request[..cut]).is_err());
        }
        for cut in 0..payload.len() {
            prop_assert!(walk_payload(&payload[..cut], &keys, &codec, DIM).is_err());
        }
        let (mut request, mut payload) = (request, payload);
        for &(at, mask) in &flips {
            let n = request.len();
            request[at % n] ^= mask;
            let n = payload.len();
            payload[at % n] ^= mask;
        }
        // A flip may still parse (a row id moved, a value changed); it must
        // not panic.
        let _ = walk_requests(&request);
        let _ = walk_payload(&payload, &keys, &codec, DIM);
    }
}

/// The owner's answer to `request`: one in-frame hybrid stream per group,
/// rows `dim` wide, values derived from the keys.
fn payload_for(request: &[u8], codec: &FetchCodecs, dim: usize) -> Vec<u8> {
    let groups = request_groups(request).unwrap();
    let mut out = Vec::new();
    write_varint(&mut out, groups.remaining());
    let mut rows = Vec::new();
    for group in groups {
        let group = group.unwrap();
        rows.clear();
        for r in group.rows.iter() {
            rows.extend((0..dim).map(|c| ((r as usize * dim + c) as f32 * 0.01).sin()));
        }
        let t = group.table as usize;
        let eb = codec.kind(t).error_bound();
        write_payload_group(&mut out, t, group.rows.len(), |out| {
            codec.encode(t, &rows, dim, eb, &mut GradScratch::new(), out)
        });
    }
    out
}

/// Every `(table, row)` of a request chunk, in order.
fn walk_requests(chunk: &[u8]) -> Result<Vec<(u32, u32)>, FrameError> {
    let mut keys = Vec::new();
    for group in request_groups(chunk)? {
        let group = group?;
        keys.extend(group.rows.iter().map(|r| (group.table, r)));
    }
    Ok(keys)
}

/// The frontend's walk of a payload chunk against the `keys` it asked for:
/// the rows it decodes, or the first error.
fn walk_payload(
    chunk: &[u8],
    keys: &[(u32, u32)],
    codec: &FetchCodecs,
    dim: usize,
) -> Result<usize, FrameError> {
    let (mut cursor, mut decoded) = (0, Vec::new());
    for group in payload_groups(chunk)? {
        let group = group?;
        let answered = answered(&group, keys, cursor)?;
        decoded.clear();
        let (t, n) = (group.table as usize, answered.len() * dim);
        let ok = codec.decode(t, group.stream, n, &mut GradScratch::new(), &mut decoded);
        if ok.is_err() || decoded.len() != n {
            return Err(FrameError::at(group.offset, "stream does not decode"));
        }
        cursor += answered.len();
    }
    if cursor != keys.len() {
        return Err(FrameError::at(chunk.len(), "fewer rows than requested"));
    }
    Ok(cursor)
}
