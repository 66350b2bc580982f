//! Per-rank hot-row cache: LRU eviction behind a TinyLFU admission gate.
//!
//! A frontend rank keeps the decoded embedding rows it fetched from remote
//! owners in a fixed-capacity slab: a flat `f32` store of `capacity × dim`
//! values, a doubly-linked recency list threaded through slot indices, and a
//! pre-reserved map from `(table, row)` to slot. Nothing is allocated after
//! construction — inserting into a full cache recycles the least-recently-used
//! slot in place — which is what lets the serving steady state stay
//! allocation-free.
//!
//! **Admission.** Every probe also counts its key in a [`FrequencySketch`]
//! (a count-min sketch sized from `capacity`, allocated with the cache). When
//! the cache is full, a fetched row takes the least-recently-used row's slot
//! only if the sketch estimates it strictly more frequent than that victim
//! (TinyLFU, Einziger et al., arXiv 1512.00727); otherwise the row is
//! answered but not kept. A scan of one-off keys from large, low-skew tables
//! therefore no longer pushes out the rows that are hit again. The sketch's
//! counters stop at 7, and it halves them all after `15 × capacity` probes,
//! so a row's past popularity fades and a hot set that rotates can still get
//! in.
//!
//! The cache stores the **decoded** row bytes (the codec round-trip of the
//! owner's weights), never the raw weights, so a response assembled from a
//! cache hit is bit-identical to one assembled from a fresh fetch: both are
//! the same pure function of `(row values, codec, error bound)`. That
//! invariant is what `serve_matrix.rs` pins with the cache-on ≡ cache-off
//! bitwise test, and why the gate moves only which rows are fetched.
//!
//! The slot map and the sketch hash keys with one fixed function (the
//! MurmurHash3 finalizer over the packed key), so what the cache keeps, and
//! whether its map ever needs to grow, is the same in every process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const NIL: u32 = u32::MAX;

/// Count-min rows of the sketch.
const SKETCH_DEPTH: usize = 4;
/// Counters per sketch row for each cached row (rounded up to a power of two).
const SKETCH_WIDTH_PER_ROW: usize = 8;
/// A counter's ceiling: a row once hot is at most this far ahead of a new
/// one, and half that after the next halving.
const COUNTER_MAX: u8 = 7;
/// Probes between two halvings of the sketch, per cached row.
const AGING_PROBES_PER_ROW: usize = 15;

/// The one hash of a `(table, row)` key, used by the slot map and the
/// sketch: the MurmurHash3 64-bit finalizer over the packed key. Fixed, so
/// it is the same in every process.
fn key_hash(table: u32, row: u32) -> u64 {
    mix(pack(table, row))
}

fn pack(table: u32, row: u32) -> u64 {
    (u64::from(table) << 32) | u64::from(row)
}

fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// [`Hasher`] of the slot map's packed `u64` keys: [`key_hash`]'s mix.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = mix(key);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Count-min sketch of key frequencies: four rows of one-byte counters that
/// stop at 7, all halved every `15 × capacity` recorded keys.
#[derive(Debug)]
pub struct FrequencySketch {
    /// `SKETCH_DEPTH` rows of `mask + 1` counters each.
    counters: Vec<u8>,
    mask: usize,
    recorded: usize,
    aging_period: usize,
}

impl FrequencySketch {
    /// The sketch of a cache holding `capacity` rows. `capacity == 0` gives
    /// an empty sketch that records nothing and estimates 0.
    pub fn new(capacity: usize) -> Self {
        let width = match capacity {
            0 => 0,
            _ => (capacity * SKETCH_WIDTH_PER_ROW).next_power_of_two(),
        };
        Self {
            counters: vec![0; SKETCH_DEPTH * width],
            mask: width.wrapping_sub(1),
            recorded: 0,
            aging_period: capacity * AGING_PROBES_PER_ROW,
        }
    }

    /// Count one occurrence of `(table, row)`, halving every counter once
    /// the aging period is reached.
    pub fn record(&mut self, table: u32, row: u32) {
        if self.counters.is_empty() {
            return;
        }
        let h = key_hash(table, row);
        for d in 0..SKETCH_DEPTH {
            let at = self.index(h, d);
            self.counters[at] = (self.counters[at] + 1).min(COUNTER_MAX);
        }
        self.recorded += 1;
        if self.recorded == self.aging_period {
            self.recorded = 0;
            for c in &mut self.counters {
                *c >>= 1;
            }
        }
    }

    /// Estimated occurrences of `(table, row)`, capped at 7 and halved with
    /// age: never below the true (capped, halved) count, above it only by
    /// hash collisions.
    pub fn estimate(&self, table: u32, row: u32) -> u8 {
        if self.counters.is_empty() {
            return 0;
        }
        let h = key_hash(table, row);
        (0..SKETCH_DEPTH)
            .map(|d| self.counters[self.index(h, d)])
            .min()
            .unwrap_or(0)
    }

    /// Row `d`'s counter of hash `h` (double hashing over the two halves).
    fn index(&self, h: u64, d: usize) -> usize {
        let (lo, hi) = (h as u32 as usize, (h >> 32) as usize | 1);
        d * (self.mask + 1) + (lo.wrapping_add(d.wrapping_mul(hi)) & self.mask)
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: (u32, u32),
    prev: u32,
    next: u32,
}

/// Fixed-capacity cache of embedding rows keyed by `(table, row)`: LRU
/// eviction, TinyLFU admission.
#[derive(Debug)]
pub struct HotRowCache {
    capacity: usize,
    dim: usize,
    map: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    sketch: FrequencySketch,
    slots: Vec<Slot>,
    values: Vec<f32>,
    /// Most-recently-used slot.
    head: u32,
    /// Least-recently-used slot (the eviction victim).
    tail: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
    rejections: u64,
    flushes: u64,
}

impl HotRowCache {
    /// A cache holding up to `capacity` rows of `dim` floats. `capacity == 0`
    /// disables the cache: every probe misses and inserts are dropped.
    pub fn new(capacity: usize, dim: usize) -> Self {
        assert!(dim > 0, "row dimension must be positive");
        let mut map = HashMap::default();
        // Twice the headroom, not `capacity`: every eviction removes a key,
        // and the removal tombstones eventually saturate the table. At that
        // point hashbrown rehashes in place (no allocation) only while the
        // live count stays within half the table's full capacity.
        map.reserve(capacity * 2);
        Self {
            capacity,
            dim,
            map,
            sketch: FrequencySketch::new(capacity),
            slots: Vec::with_capacity(capacity),
            values: Vec::with_capacity(capacity * dim),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
            rejections: 0,
            flushes: 0,
        }
    }

    /// Maximum number of rows the cache will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows currently cached. Never exceeds [`Self::capacity`].
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no rows are cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Probe hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probe misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Rows evicted to make room so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Rows the admission gate refused so far.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// [`Self::clear`] calls on an enabled cache so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Look up `(table, row)`, promoting it to most-recently-used on a hit.
    /// Every probe, hit or miss, counts the key in the frequency sketch.
    pub fn get(&mut self, table: u32, row: u32) -> Option<&[f32]> {
        self.sketch.record(table, row);
        match self.map.get(&pack(table, row)).copied() {
            Some(slot) => {
                self.hits += 1;
                self.promote(slot);
                let at = slot as usize * self.dim;
                Some(&self.values[at..at + self.dim])
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Membership test without touching recency, the sketch or the counters.
    pub fn contains(&self, table: u32, row: u32) -> bool {
        self.map.contains_key(&pack(table, row))
    }

    /// Insert (or refresh) `(table, row)`; the row becomes most-recently-used.
    ///
    /// A resident row is refreshed in place. Otherwise, while there is room
    /// the row is kept; when full, it replaces the least-recently-used row
    /// only if the sketch estimates it strictly more frequent than that
    /// victim, and is dropped (counted in [`Self::rejections`]) if not.
    ///
    /// # Panics
    /// Panics if `row_values.len() != dim`.
    pub fn insert(&mut self, table: u32, row: u32, row_values: &[f32]) {
        assert_eq!(row_values.len(), self.dim, "row dimension mismatch");
        if self.capacity == 0 {
            return;
        }
        let key = pack(table, row);
        if let Some(&slot) = self.map.get(&key) {
            let at = slot as usize * self.dim;
            self.values[at..at + self.dim].copy_from_slice(row_values);
            self.promote(slot);
            return;
        }
        let slot = if self.slots.len() < self.capacity {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                key: (table, row),
                prev: NIL,
                next: NIL,
            });
            self.values.extend_from_slice(row_values);
            slot
        } else {
            let victim = self.tail;
            let (vt, vr) = self.slots[victim as usize].key;
            if self.sketch.estimate(table, row) <= self.sketch.estimate(vt, vr) {
                self.rejections += 1;
                return;
            }
            self.unlink(victim);
            self.map.remove(&pack(vt, vr));
            self.evictions += 1;
            self.slots[victim as usize].key = (table, row);
            let at = victim as usize * self.dim;
            self.values[at..at + self.dim].copy_from_slice(row_values);
            victim
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    /// Drop every cached row, keeping capacity, the frequency sketch and the
    /// cumulative counters; an enabled cache counts a flush. The engine
    /// flushes on a codec switch so a hit never replays a row decoded under a
    /// codec the wire no longer runs.
    pub fn clear(&mut self) {
        if self.capacity > 0 {
            self.flushes += 1;
        }
        self.map.clear();
        self.slots.clear();
        self.values.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Keys ordered most-recently-used first (the reverse of eviction order).
    /// Test/diagnostic helper; allocates.
    pub fn keys_mru_to_lru(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.slots.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.slots[cur as usize].key);
            cur = self.slots[cur as usize].next;
        }
        out
    }

    fn promote(&mut self, slot: u32) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.push_front(slot);
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: f32, dim: usize) -> Vec<f32> {
        vec![v; dim]
    }

    /// The engine's order: probe, and on a miss fetch and insert.
    fn probe_or_fill(c: &mut HotRowCache, t: u32, r: u32) {
        let dim = 4;
        if c.get(t, r).is_none() {
            c.insert(t, r, &row(r as f32, dim));
        }
    }

    #[test]
    fn hit_returns_inserted_values_and_promotes() {
        let mut c = HotRowCache::new(2, 4);
        c.insert(0, 1, &row(1.0, 4));
        c.insert(0, 2, &row(2.0, 4));
        assert_eq!(c.get(0, 1), Some(&row(1.0, 4)[..]));
        // (0,2) is now LRU; a third row, probed once and so estimated more
        // frequent than the never-probed victim, evicts it.
        assert_eq!(c.get(0, 3), None);
        c.insert(0, 3, &row(3.0, 4));
        assert!(c.contains(0, 1));
        assert!(!c.contains(0, 2));
        assert!(c.contains(0, 3));
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.rejections(), 0);
    }

    #[test]
    fn a_row_no_more_frequent_than_the_victim_is_refused() {
        let mut c = HotRowCache::new(1, 4);
        probe_or_fill(&mut c, 0, 1);
        // (0,2) ties (0,1) at one probe each: answered, not kept.
        probe_or_fill(&mut c, 0, 2);
        assert_eq!(c.keys_mru_to_lru(), vec![(0, 1)]);
        assert_eq!((c.evictions(), c.rejections()), (0, 1));
        // A second probe puts it ahead.
        probe_or_fill(&mut c, 0, 2);
        assert_eq!(c.keys_mru_to_lru(), vec![(0, 2)]);
        assert_eq!((c.evictions(), c.rejections()), (1, 1));
    }

    #[test]
    fn a_scan_of_one_off_keys_leaves_a_twice_hit_row_resident() {
        const CAPACITY: u32 = 64;
        let mut c = HotRowCache::new(CAPACITY as usize, 4);
        for r in 0..CAPACITY {
            probe_or_fill(&mut c, 0, r);
        }
        for _ in 0..2 {
            assert!(c.get(0, 0).is_some());
        }
        // A scan of never-repeated keys, far longer than the cache. Under
        // plain LRU the hot row is gone after `CAPACITY` of them.
        for r in 0..1000 {
            probe_or_fill(&mut c, 1, r);
        }
        assert!(c.contains(0, 0), "the twice-hit row was evicted by a scan");
        assert!(c.rejections() > 900);
    }

    #[test]
    fn sketch_counts_at_least_the_truth_and_halves_with_age() {
        let mut s = FrequencySketch::new(16);
        for r in 0..50u32 {
            for _ in 0..(r % 9) {
                s.record(3, r);
            }
        }
        for r in 0..50u32 {
            assert!(s.estimate(3, r) >= (r % 9).min(7) as u8);
        }
        let mut s = FrequencySketch::new(2);
        for _ in 0..29 {
            s.record(0, 9);
        }
        assert_eq!(s.estimate(0, 9), 7);
        // The 30th record reaches the period of 2 × 15 and halves.
        s.record(0, 9);
        assert_eq!(s.estimate(0, 9), 3);
        assert_eq!(FrequencySketch::new(0).estimate(0, 9), 0);
    }

    #[test]
    fn flushes_count_clears_of_an_enabled_cache() {
        let mut c = HotRowCache::new(4, 4);
        probe_or_fill(&mut c, 0, 1);
        c.clear();
        assert!(c.is_empty() && !c.contains(0, 1));
        assert_eq!(c.flushes(), 1);
        let mut off = HotRowCache::new(0, 4);
        off.clear();
        assert_eq!(off.flushes(), 0);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = HotRowCache::new(0, 4);
        c.insert(0, 1, &row(1.0, 4));
        assert_eq!(c.get(0, 1), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn refresh_updates_in_place() {
        let mut c = HotRowCache::new(2, 2);
        c.insert(1, 7, &[1.0, 2.0]);
        c.insert(1, 7, &[3.0, 4.0]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1, 7), Some(&[3.0f32, 4.0][..]));
    }
}
