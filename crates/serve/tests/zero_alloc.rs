//! Proof that the serving hot path — LRU probe/insert, request coalescing,
//! codec encode/decode, the timing ledger's charges — never touches the
//! allocator in the steady state.
//!
//! The engine's own steady-state ledger watches the pool and the engine
//! scratch; this test installs a counting global allocator underneath the
//! per-row data structures themselves and drives them far past cache
//! capacity after one warm-up pass. (The full engine also holds channel
//! nodes and matmuls whose globals are out of scope here — the engine-level
//! claim is pinned by `serve_matrix.rs` via
//! `steady_state_allocated_bytes == 0`.)
//!
//! The counter is armed per thread: the libtest harness keeps helper
//! threads of its own alive during the run, and a stray allocation on one
//! of them must not be charged to the serving hot path under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use dlrm_grad::{GradCodecKind, GradScratch};
use dlrm_serve::{BatchCoalescer, HotRowCache};

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

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn serving_row_hot_path_never_allocates() {
    const DIM: usize = 16;
    const CACHE_ROWS: usize = 64;
    const OWNERS: usize = 4;
    const WINDOW: usize = 48;

    // Construction + warm-up are the only places allocation is allowed.
    let mut cache = HotRowCache::new(CACHE_ROWS, DIM);
    let mut coalescer = BatchCoalescer::new(OWNERS);
    coalescer.reserve(WINDOW * 2);
    // The lattice codec's encode/decode write straight into caller buffers
    // (the hybrid's Huffman stage builds per-call tree scratch, so its
    // allocation behaviour is owned by `dlrm-compress`, not the serving
    // layer this test is about).
    let codec = GradCodecKind::Lattice { error_bound: 0.01 }.build();
    let mut scratch = GradScratch::new();
    let mut row = [0.0f32; DIM];
    let mut gather: Vec<f32> = Vec::with_capacity(WINDOW * DIM);
    let mut wire: Vec<u8> = Vec::with_capacity(codec.max_encoded_bytes(WINDOW * DIM));
    let mut decoded: Vec<f32> = Vec::with_capacity(WINDOW * DIM);

    // One warm-up pass lets the codec scratch reach its steady footprint.
    let mut pass = |cache: &mut HotRowCache,
                    coalescer: &mut BatchCoalescer,
                    scratch: &mut GradScratch,
                    gather: &mut Vec<f32>,
                    wire: &mut Vec<u8>,
                    decoded: &mut Vec<f32>,
                    salt: u32| {
        for w in 0..24u32 {
            coalescer.clear();
            for i in 0..WINDOW as u32 {
                // Zipf-ish repetition: low rows recur, tail rows churn.
                let r = (i * i + salt + w * 7) % 97;
                let t = i % 3;
                if cache.get(t, r).is_none() {
                    coalescer.note((t as usize + r as usize) % OWNERS, t, r);
                }
            }
            coalescer.finish();
            for owner in 0..OWNERS {
                let keys = coalescer.rows(owner);
                if keys.is_empty() {
                    continue;
                }
                gather.clear();
                for &(t, r) in keys {
                    for (c, slot) in row.iter_mut().enumerate() {
                        *slot = ((t as usize * 31 + r as usize * 7 + c) as f32).sin() * 0.2;
                    }
                    gather.extend_from_slice(&row);
                }
                wire.clear();
                codec.encode_into(gather, scratch, wire);
                decoded.clear();
                codec.decode_into(wire, scratch, decoded).expect("decodes");
                for (k, &(t, r)) in keys.iter().enumerate() {
                    cache.insert(t, r, &decoded[k * DIM..(k + 1) * DIM]);
                }
            }
        }
    };
    pass(
        &mut cache,
        &mut coalescer,
        &mut scratch,
        &mut gather,
        &mut wire,
        &mut decoded,
        0,
    );

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    pass(
        &mut cache,
        &mut coalescer,
        &mut scratch,
        &mut gather,
        &mut wire,
        &mut decoded,
        13,
    );
    ARMED.with(|a| a.set(false));
    let after = ALLOC_CALLS.load(Ordering::SeqCst);
    assert!(cache.evictions() > 0, "workload never filled the cache");
    assert!(cache.hits() > 0 && cache.misses() > 0);
    assert_eq!(
        after - before,
        0,
        "serving row hot path allocated {} times",
        after - before
    );
}

/// Every phase close of the training loop and every serving window charges
/// a `TimingLedger`: once a phase has its counters, charging it again must
/// not allocate its name afresh.
#[test]
fn ledger_charges_allocate_only_a_phases_first_key() {
    use dlrm_comm::{phase, TimingLedger};

    let mut ledger = TimingLedger::new();
    let charge_all = |ledger: &mut TimingLedger| {
        for name in phase::ALL {
            ledger.add_time(name, 0.5);
            ledger.add_bytes(name, 64);
            ledger.add_allocated_bytes(name, 8);
            ledger.add_reused_bytes(name, 16);
            ledger.add_overlap_saved(name, 0.25);
        }
    };
    charge_all(&mut ledger);

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    charge_all(&mut ledger);
    ARMED.with(|a| a.set(false));
    let after = ALLOC_CALLS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "re-charging {} phases allocated {} times",
        phase::ALL.len(),
        after - before
    );
    assert_eq!(ledger.bytes(phase::ALL[0]), 128);
}
