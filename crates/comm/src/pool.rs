//! Recycling byte-buffer pool backing the cluster's collectives.
//!
//! Every message a collective sends is carried by a [`PooledBuf`] leased
//! from a [`BufferPool`]. Each rank of a
//! [`SimCluster`](crate::SimCluster) owns its own pool, and a lease
//! remembers its origin: when the *receiving* rank drops the lease (after
//! decompressing the payload), the buffer's storage returns to the
//! **sender's** pool, ready for the sender's next iteration — so a
//! steady-state training loop stops allocating per message after the first
//! couple of iterations, exactly like a NCCL implementation reusing
//! registered communication buffers, and each pool's statistics stay
//! attributable to one rank.
//!
//! The pool counts allocations and reuses ([`PoolStats`]); the trainer folds
//! those counters into its [`TimingLedger`](crate::TimingLedger) to *prove*
//! the zero-allocation steady state rather than assume it.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Upper bound on buffers parked in the pool; beyond this, returned buffers
/// are simply freed. Generous enough for `world²` in-flight chunks of every
/// collective this workspace runs.
const MAX_POOLED: usize = 4096;

/// Allocation / reuse counters of a [`BufferPool`] (monotonic totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of `take` calls that had to allocate — either a fresh buffer
    /// (empty pool) or a growth-reallocation of an undersized parked buffer.
    pub allocations: u64,
    /// Bytes of capacity allocated by those misses (the full new capacity,
    /// since a `Vec` growth allocates a whole new block).
    pub allocated_bytes: u64,
    /// Number of `take` calls served from the free list.
    pub reuses: u64,
    /// Bytes of requested capacity served from the free list.
    pub reused_bytes: u64,
}

impl PoolStats {
    /// Counter-wise difference `self - earlier` (for per-phase accounting).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            allocations: self.allocations - earlier.allocations,
            allocated_bytes: self.allocated_bytes - earlier.allocated_bytes,
            reuses: self.reuses - earlier.reuses,
            reused_bytes: self.reused_bytes - earlier.reused_bytes,
        }
    }
}

#[derive(Debug, Default)]
struct PoolInner {
    free: Mutex<FreeList>,
    allocations: AtomicU64,
    allocated_bytes: AtomicU64,
    reuses: AtomicU64,
    reused_bytes: AtomicU64,
}

/// Parked storage. While a [`ReturnHold`] is open, returned storage waits in
/// `held` instead of `free`, so takes see only what was parked before.
#[derive(Debug, Default)]
struct FreeList {
    free: Vec<Vec<u8>>,
    held: Vec<Vec<u8>>,
    holds: usize,
}

/// A shared, thread-safe pool of byte buffers. Cheap to clone (`Arc`
/// internally); clones share the same free list and counters.
#[derive(Debug, Clone, Default)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lease a cleared buffer with at least `capacity` bytes of capacity.
    ///
    /// Best-fit policy: the *smallest* parked buffer that satisfies the
    /// request is taken, so a small request (e.g. an empty 20-byte frame)
    /// never steals a large payload buffer another caller is about to need.
    /// With nothing large enough, the largest available buffer is grown in
    /// place; only an empty pool allocates.
    pub fn take(&self, capacity: usize) -> PooledBuf {
        let reclaimed = {
            let free = &mut self.inner.free.lock().expect("pool poisoned").free;
            let mut best_fit: Option<(usize, usize)> = None; // (index, capacity)
            let mut largest: Option<(usize, usize)> = None;
            for (i, b) in free.iter().enumerate() {
                let c = b.capacity();
                if c >= capacity && best_fit.is_none_or(|(_, bc)| c < bc) {
                    best_fit = Some((i, c));
                }
                if largest.is_none_or(|(_, lc)| c > lc) {
                    largest = Some((i, c));
                }
            }
            best_fit.or(largest).map(|(i, _)| free.swap_remove(i))
        };
        let mut buf = match reclaimed {
            Some(b) if b.capacity() >= capacity => {
                self.inner.reuses.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .reused_bytes
                    .fetch_add(capacity as u64, Ordering::Relaxed);
                b
            }
            Some(b) => {
                // Growing an undersized parked buffer is a real heap
                // allocation of the full new capacity (Vec allocates a new
                // block and frees the old) — count it as such, or the
                // counters would "prove" a steady state that still mallocs.
                self.inner.allocations.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .allocated_bytes
                    .fetch_add(capacity as u64, Ordering::Relaxed);
                b
            }
            None => {
                self.inner.allocations.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .allocated_bytes
                    .fetch_add(capacity as u64, Ordering::Relaxed);
                Vec::with_capacity(capacity)
            }
        };
        buf.clear();
        buf.reserve(capacity);
        PooledBuf {
            buf,
            pool: Arc::clone(&self.inner),
        }
    }

    /// Wrap an existing vector in a lease so that its storage recycles
    /// through this pool when dropped.
    pub fn adopt(&self, vec: Vec<u8>) -> PooledBuf {
        PooledBuf {
            buf: vec,
            pool: Arc::clone(&self.inner),
        }
    }

    /// Current allocation / reuse counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            allocations: self.inner.allocations.load(Ordering::Relaxed),
            allocated_bytes: self.inner.allocated_bytes.load(Ordering::Relaxed),
            reuses: self.inner.reuses.load(Ordering::Relaxed),
            reused_bytes: self.inner.reused_bytes.load(Ordering::Relaxed),
        }
    }

    /// Number of buffers currently parked in the free list.
    pub fn idle_buffers(&self) -> usize {
        self.inner.free.lock().expect("pool poisoned").free.len()
    }

    /// Hold back returned storage until the guard drops: leases returned
    /// meanwhile — by this rank or by a peer — are parked only then, so
    /// every take in between is served from what was parked before. A
    /// collective holds its rank's pool for the whole call, which makes the
    /// buffers it can reuse independent of how fast peers drop what it sent.
    pub(crate) fn hold_returns(&self) -> ReturnHold<'_> {
        self.inner.free.lock().expect("pool poisoned").holds += 1;
        ReturnHold { pool: self }
    }
}

/// Guard of [`BufferPool::hold_returns`]; parks the held-back storage when
/// the last open hold drops.
#[derive(Debug)]
pub(crate) struct ReturnHold<'a> {
    pool: &'a BufferPool,
}

impl Drop for ReturnHold<'_> {
    fn drop(&mut self) {
        let mut list = self.pool.inner.free.lock().expect("pool poisoned");
        list.holds -= 1;
        if list.holds == 0 {
            let FreeList { free, held, .. } = &mut *list;
            free.append(held);
        }
    }
}

/// A leased byte buffer. Dereferences to `Vec<u8>`; returns its storage to
/// the owning pool on drop (from whichever thread drops it — leases travel
/// across rank threads inside the collectives).
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Arc<PoolInner>,
}

impl PooledBuf {
    /// Detach the buffer from the pool, taking ownership of the storage
    /// (it will no longer recycle).
    pub fn into_vec(mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if self.buf.capacity() == 0 {
            return;
        }
        let buf = std::mem::take(&mut self.buf);
        let mut list = self.pool.free.lock().expect("pool poisoned");
        if list.free.len() + list.held.len() < MAX_POOLED {
            if list.holds > 0 {
                list.held.push(buf);
            } else {
                list.free.push(buf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_take_reuses_the_first_buffer() {
        let pool = BufferPool::new();
        {
            let mut b = pool.take(100);
            b.extend_from_slice(&[1, 2, 3]);
        }
        let b = pool.take(50);
        assert!(b.is_empty(), "recycled buffer must come back cleared");
        assert!(b.capacity() >= 100);
        let stats = pool.stats();
        assert_eq!(stats.allocations, 1);
        assert_eq!(stats.reuses, 1);
    }

    #[test]
    fn prefers_a_buffer_that_already_fits() {
        let pool = BufferPool::new();
        let small = pool.take(10);
        let big = pool.take(1000);
        drop(big);
        drop(small); // free list (oldest→newest): [big, small]
        let b = pool.take(500);
        assert!(b.capacity() >= 1000, "should pick the buffer that fits");
    }

    #[test]
    fn storage_returned_during_a_hold_is_parked_when_it_closes() {
        let pool = BufferPool::new();
        drop(pool.take(100));
        let outer = pool.hold_returns();
        let lease = pool.take(1000);
        let inner = pool.hold_returns();
        drop(lease);
        // Held back: only the 100-byte buffer is parked, so it grows.
        assert!(pool.take(500).capacity() >= 500);
        assert_eq!((pool.stats().allocations, pool.idle_buffers()), (3, 0));
        drop(inner);
        assert_eq!(pool.idle_buffers(), 0, "the outer hold is still open");
        drop(outer);
        assert_eq!(pool.idle_buffers(), 2);
        assert!(pool.take(1000).capacity() >= 1000);
        assert_eq!(pool.stats().allocations, 3, "the returned lease recycles");
    }

    #[test]
    fn into_vec_detaches_from_pool() {
        let pool = BufferPool::new();
        let v = pool.take(64).into_vec();
        assert!(v.capacity() >= 64);
        drop(v);
        assert_eq!(pool.idle_buffers(), 0);
    }

    #[test]
    fn leases_recycle_across_threads() {
        let pool = BufferPool::new();
        let lease = pool.take(256);
        let handle = std::thread::spawn(move || drop(lease));
        handle.join().unwrap();
        assert_eq!(pool.idle_buffers(), 1);
        let stats = pool.stats();
        assert_eq!(stats.allocations, 1);
    }

    #[test]
    fn steady_state_stops_allocating() {
        let pool = BufferPool::new();
        // Warm-up round: 8 concurrent leases.
        let warm: Vec<PooledBuf> = (0..8).map(|_| pool.take(128)).collect();
        drop(warm);
        let after_warmup = pool.stats();
        for _ in 0..100 {
            let round: Vec<PooledBuf> = (0..8).map(|_| pool.take(128)).collect();
            drop(round);
        }
        let end = pool.stats();
        assert_eq!(end.since(&after_warmup).allocations, 0);
        assert_eq!(end.since(&after_warmup).reuses, 800);
    }
}
