//! Proof that the steady-state input path never touches the allocator.
//!
//! The trainer's allocation ledger samples buffer *capacities* it knows
//! about; the `Vec`s a generator builds per batch and the shards a
//! `MiniBatch::shard` copies out were invisible to it. This test installs a
//! counting global allocator and asserts that, after one warm-up step per
//! slot, drawing a batch into recycled storage — directly, or through a
//! [`BatchFeed`] step with every rank taking its clone — performs zero heap
//! allocations.
//!
//! The counter is armed per thread: the libtest harness keeps helper threads
//! of its own alive during the run, and a stray allocation on one of them
//! must not be charged to the code under test.

use dlrm_data::{presets, BatchFeed, SyntheticCriteo};
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

/// Heap allocations `f` performs on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

const WORLD: usize = 4;
/// Leaves a remainder over `WORLD`, so the shards differ in size.
const GLOBAL_BATCH: usize = 130;

#[test]
fn a_warmed_up_input_path_never_allocates() {
    let dataset = presets::criteo_kaggle_like();

    let mut generator = SyntheticCriteo::new(dataset.clone(), 3);
    let mut shards = Vec::new();
    generator.next_batch_into(GLOBAL_BATCH, WORLD, &mut shards);
    let direct = allocations_in(|| {
        for _ in 0..4 {
            generator.next_batch_into(GLOBAL_BATCH, WORLD, &mut shards);
        }
    });
    assert_eq!(direct, 0, "next_batch_into allocated after warm-up");

    // A feed step as a world of ranks sees it: one generation, `WORLD`
    // takers, everyone done with a step before the one after next starts.
    let feed = BatchFeed::new(dataset, 3, WORLD);
    for k in 0..2 {
        drop(feed.step(k, GLOBAL_BATCH));
    }
    let stepped = allocations_in(|| {
        for k in 2..8 {
            let taken: [_; WORLD] = std::array::from_fn(|_| feed.step(k, GLOBAL_BATCH));
            assert_eq!(taken[WORLD - 1].len(), WORLD);
        }
    });
    assert_eq!(stepped, 0, "a feed step allocated after warm-up");
    assert_eq!((feed.generated(), feed.spills()), (8, 0));
}
