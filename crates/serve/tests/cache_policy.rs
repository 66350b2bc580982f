//! The hot-row cache's admission gate against plain LRU on real traffic.
//!
//! Both caches see the same tiny-preset key stream the way a serving
//! frontend does: every key of a batch window is probed, and the window's
//! distinct misses are fetched and inserted after it. On a stationary Zipf
//! stream the gate must hit at least as often as LRU; on streams whose hot
//! set rotates (fast and slow) it may lose at most 1 % of LRU's hits.

use std::collections::VecDeque;

use dlrm_data::{presets, BatchFeed, DatasetConfig, TrafficDrift};
use dlrm_serve::HotRowCache;

const CAPACITY: usize = 256;
const WINDOW: usize = 32;
const WINDOWS: usize = 200;

/// Plain LRU over keys, most-recently-used first.
struct Lru {
    keys: VecDeque<(u32, u32)>,
    hits: u64,
}

impl Lru {
    fn get(&mut self, key: (u32, u32)) -> bool {
        let Some(at) = self.keys.iter().position(|&k| k == key) else {
            return false;
        };
        self.keys.remove(at);
        self.keys.push_front(key);
        self.hits += 1;
        true
    }

    fn insert(&mut self, key: (u32, u32)) {
        if self.keys.len() == CAPACITY {
            self.keys.pop_back();
        }
        self.keys.push_front(key);
    }
}

/// `(gated hits, LRU hits)` over `WINDOWS` windows of `dataset`'s stream.
fn hits(dataset: &DatasetConfig) -> (u64, u64) {
    let feed = BatchFeed::new(dataset.clone(), 7, 1);
    let mut gated = HotRowCache::new(CAPACITY, 1);
    let mut lru = Lru {
        keys: VecDeque::with_capacity(CAPACITY),
        hits: 0,
    };
    let (mut gated_misses, mut lru_misses) = (Vec::new(), Vec::new());
    for w in 0..WINDOWS {
        let batch = &feed.step(w, WINDOW)[0];
        for i in 0..WINDOW {
            for (t, column) in batch.sparse.iter().enumerate() {
                let key = (t as u32, column[i]);
                if gated.get(key.0, key.1).is_none() {
                    gated_misses.push(key);
                }
                if !lru.get(key) {
                    lru_misses.push(key);
                }
            }
        }
        for misses in [&mut gated_misses, &mut lru_misses] {
            misses.sort_unstable();
            misses.dedup();
        }
        for (t, r) in gated_misses.drain(..) {
            gated.insert(t, r, &[r as f32]);
        }
        for key in lru_misses.drain(..) {
            lru.insert(key);
        }
    }
    (gated.hits(), lru.hits)
}

#[test]
fn gate_hits_at_least_lru_on_a_stationary_stream() {
    let (gated, lru) = hits(&presets::tiny());
    assert!(gated >= lru, "gated {gated} < LRU {lru}");
}

#[test]
fn gate_stays_within_one_percent_of_lru_as_the_hot_set_rotates() {
    for (start, every) in [(50, 25), (20, 40), (10, 10), (5, 2)] {
        let drifting = presets::tiny().with_drift(TrafficDrift::hot_rotation(start, every));
        let (gated, lru) = hits(&drifting);
        assert!(
            gated as f64 >= 0.99 * lru as f64,
            "hot_rotation({start}, {every}): gated {gated} vs LRU {lru}"
        );
    }
}
