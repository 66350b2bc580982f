//! Proof that the steady-state input path never touches the allocator.
//!
//! The trainer's allocation ledger samples buffer *capacities* it knows
//! about; the `Vec`s a generator builds per batch and the shards a
//! `MiniBatch::shard` copies out were invisible to it. This test installs a
//! counting global allocator and asserts that, after one warm-up step per
//! slot, drawing a batch into recycled storage — directly, or through a
//! [`BatchFeed`] step with every rank taking its clone — performs zero heap
//! allocations. The same holds for the distinct-row index the trainer builds
//! per lookup column: building it, re-expanding a block through it and
//! summing a gradient block back through it.
//!
//! The counter is armed per thread: the libtest harness keeps helper threads
//! of its own alive during the run, and a stray allocation on one of them
//! must not be charged to the code under test.

use dlrm_data::{presets, BatchFeed, DistinctRows, MiniBatch, SyntheticCriteo};
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

#[test]
fn a_warmed_up_prefetching_feed_never_allocates() {
    // The trainer's order: every rank takes step k, then one prefetches
    // step k + 1 while every rank still holds step k.
    let feed = BatchFeed::new(presets::criteo_kaggle_like(), 3, WORLD);
    for k in 0..2 {
        drop(feed.step(k, GLOBAL_BATCH));
    }
    let stepped = allocations_in(|| {
        for k in 2..8 {
            let taken: [_; WORLD] = std::array::from_fn(|_| feed.step(k, GLOBAL_BATCH));
            assert!(
                feed.prefetch(k + 1, GLOBAL_BATCH),
                "step {} was free",
                k + 1
            );
            assert_eq!(taken[WORLD - 1].len(), WORLD);
        }
    });
    assert_eq!(stepped, 0, "prefetch + step allocated after warm-up");
    assert_eq!(
        (feed.generated(), feed.spills(), feed.prefetched()),
        (9, 0, 6)
    );
}

#[test]
fn a_warmed_up_distinct_index_never_allocates() {
    let dataset = presets::criteo_kaggle_like();
    let dim = dataset.embedding_dim;
    let mut generator = SyntheticCriteo::new(dataset, 5);
    let mut shards = Vec::new();
    let mut rows = DistinctRows::new();
    let mut values: Vec<f32> = Vec::new();
    let mut sums: Vec<f32> = Vec::new();
    // Index, re-expand and sum back every column of every shard. Each
    // distinct row holds its own index, so the expansion is checked sample
    // by sample; summing rows of ones counts each index's samples.
    let mut index_batch = |shards: &[MiniBatch]| {
        for column in shards.iter().flat_map(|s| &s.sparse) {
            rows.build(column);
            values.clear();
            for &i in rows.unique() {
                values.resize(values.len() + dim, i as f32);
            }
            rows.expand_in_place(&mut values, dim);
            let expanded = values.chunks_exact(dim).map(|row| row[0]);
            assert!(column.iter().map(|&i| i as f32).eq(expanded));
            values.fill(1.0);
            rows.sum_rows_into(&values, dim, &mut sums);
            let counts = sums.chunks_exact(dim).map(|row| row[0]);
            assert!(counts.clone().all(|n| n >= 1.0));
            assert_eq!(counts.sum::<f32>(), column.len() as f32);
        }
    };
    generator.next_batch_into(GLOBAL_BATCH, WORLD, &mut shards);
    index_batch(&shards);
    let steady = allocations_in(|| {
        for _ in 0..4 {
            generator.next_batch_into(GLOBAL_BATCH, WORLD, &mut shards);
            index_batch(&shards);
        }
    });
    assert_eq!(
        steady, 0,
        "build + expand_in_place + sum_rows_into allocated after warm-up"
    );
}
