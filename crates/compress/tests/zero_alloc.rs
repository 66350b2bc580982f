//! Proof that the steady-state codec hot path never touches the allocator.
//!
//! `CompressScratch::capacity_bytes` (what the trainer's ledger samples) can
//! only see buffers the scratch owns: a `Vec` built and dropped inside a
//! call is invisible to it. This test installs a counting global allocator
//! and asserts that, after one warm-up call, `compress_into` +
//! `decompress_into` of the paper's codecs and the SZ-like baseline perform
//! zero heap allocations on chunks of a fixed shape — including chunks whose
//! *content* differs from the warm-up's (more distinct symbols, longer codes,
//! escapes, the other `Auto` winner).
//!
//! The counter is armed per thread: the libtest harness keeps helper threads
//! of its own alive during the run, and a stray allocation on one of them
//! must not be charged to the codec under test.

use dlrm_compress::{CompressScratch, CompressorKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// True only on a thread that armed the counter (`try_with`: TLS may be
/// gone during thread teardown, and the allocator runs there too).
fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ROWS: usize = 128;
const DIM: usize = 32;
const EB: f32 = 0.02;

/// A 128×32 chunk. `flavour` 0 repeats a few vectors (vector-LZ wins
/// `Auto`), 1 is near-zero noise with distinct vectors (Huffman wins), 2
/// spreads over hundreds of symbols with a few far outliers (long codes and
/// escapes).
fn chunk(flavour: usize, salt: usize) -> Vec<f32> {
    (0..ROWS * DIM)
        .map(|i| {
            let hash = (((i + salt * 7919) * 2_654_435_761) >> 11) % 1000;
            match flavour {
                0 => (((i / DIM) % 5 + salt) * DIM + i % DIM) as f32 * 0.003,
                1 => (hash % 7) as f32 * 0.01 + if i % DIM == 0 { i as f32 * 1e-3 } else { 0.0 },
                _ if hash == 0 => 400.0 + i as f32,
                _ => hash as f32 * 0.02 - 10.0,
            }
        })
        .collect()
}

/// What one scratch does after its single warm-up roundtrip (`warm_up`):
/// heap allocations over four rounds of `later`, the first stream bytes seen
/// there (the hybrid's tag: 1 = vector-LZ, 2 = Huffman), and the warm-up
/// stream's first byte and length.
fn after_warm_up(
    kind: CompressorKind,
    warm_up: &[f32],
    later: &[Vec<f32>],
) -> (u64, [bool; 256], (u8, usize)) {
    let comp = kind.build();
    let mut scratch = CompressScratch::new();
    let mut bytes = Vec::new();
    let mut values = Vec::new();
    let mut roundtrip = |data: &[f32]| {
        bytes.clear();
        comp.compress_into(data, DIM, EB, &mut scratch, &mut bytes)
            .expect("compress");
        values.clear();
        comp.decompress_into(&bytes, &mut scratch, &mut values)
            .expect("decompress");
        assert_eq!(values.len(), data.len());
        (bytes[0], bytes.len())
    };
    let first = roundtrip(warm_up);

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    let mut tags = [false; 256];
    for data in later.iter().cycle().take(4 * later.len()) {
        tags[usize::from(roundtrip(data).0)] = true;
    }
    ARMED.with(|a| a.set(false));
    let allocated = ALLOC_CALLS.load(Ordering::SeqCst) - before;
    (allocated, tags, first)
}

#[test]
fn warmed_up_codecs_never_allocate() {
    let chunks: Vec<Vec<f32>> = (0..9).map(|i| chunk(i % 3, i)).collect();
    for kind in [
        CompressorKind::OursHybrid,
        CompressorKind::OursHuffman,
        CompressorKind::OursVector,
        CompressorKind::SzLike,
    ] {
        // The one warm-up call, on the blandest chunk.
        let (allocated, tags, _) = after_warm_up(kind, &chunks[0], &chunks);
        assert_eq!(
            allocated,
            0,
            "{}: {allocated} heap allocation(s) after warm-up",
            kind.label()
        );
        if kind == CompressorKind::OursHybrid {
            // Not a vacuous pass: both back-ends won some chunk.
            assert!(tags[1] && tags[2], "Auto never switched back-end");
        }
    }
}

/// `Auto` skips the entropy plan when the vector-LZ stream is already at or
/// under the least an entropy stream of the chunk can take. A scratch that
/// warmed up on such a chunk has never planned anything, and must still have
/// sized the plan's buffers for the chunks that do need it.
#[test]
fn a_warm_up_under_the_skip_floor_sizes_the_entropy_scratch_anyway() {
    // Header (two 2-byte counts, dim, eb), length table, one bit per value.
    let floor = 2 + 1 + 4 + 2 + 513 + ROWS * DIM / 8;
    let later: Vec<Vec<f32>> = (1..7).map(|i| chunk(1 + i % 2, i)).collect();
    let (allocated, tags, (tag, len)) =
        after_warm_up(CompressorKind::OursHybrid, &chunk(0, 0), &later);
    assert!(
        tag == 1 && len - 1 <= floor,
        "the warm-up chunk must take the skip: tag {tag}, {} B against a floor of {floor}",
        len - 1
    );
    assert!(tags[2], "no later chunk went to the entropy back-end");
    assert_eq!(allocated, 0, "{allocated} heap allocation(s) after warm-up");
}

/// The match table is sized by the chunk's shape, not by what the warm-up
/// chunk happened to contain: one distinct vector first, 128 later.
#[test]
fn more_distinct_vectors_than_the_warm_up_grow_nothing() {
    let one_vector: Vec<f32> = (0..ROWS * DIM).map(|i| (i % DIM) as f32 * 0.01).collect();
    let later: Vec<Vec<f32>> = (1..5).map(|i| chunk(1 + i % 2, i)).collect();
    for kind in [CompressorKind::OursVector, CompressorKind::OursHybrid] {
        let (allocated, _, (_, len)) = after_warm_up(kind, &one_vector, &later);
        assert!(len < 200, "the warm-up chunk is one literal and 127 copies");
        assert_eq!(
            allocated,
            0,
            "{}: {allocated} heap allocation(s) after warm-up",
            kind.label()
        );
    }
}
