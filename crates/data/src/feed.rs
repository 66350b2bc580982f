//! One input feed per cluster.
//!
//! Every rank of a bulk-synchronous run consumes the *same* global batch per
//! step — its own shard to train on, the other shards' category indices to
//! look up for their owners. [`BatchFeed`] owns the run's single
//! [`SyntheticCriteo`] and hands step `k`'s shards to every rank that asks:
//! the first rank to ask generates them, under the feed's mutex, into a
//! recycled slot; later ranks get a clone of the same [`Arc`]. A batch is
//! therefore drawn once per step, not once per rank per step, and nobody can
//! observe a half-built one — there is no producer thread and no condition
//! to wait on, so a rank that holds the lock is never waiting for another
//! rank.
//!
//! Two slots suffice: ranks that meet in a collective every step are never
//! more than one step apart, so when step `k + 2` is first asked for, every
//! rank has dropped step `k`. The slot is then regenerated in place, reusing
//! its storage; [`Arc::get_mut`] is the proof that it is unshared. A caller
//! that does still hold the old step keeps it — the slot gets fresh storage
//! instead (counted by [`BatchFeed::spills`]) — and a request the two slots
//! cannot serve is a panic with a message, never a block or an overwrite.
//!
//! [`BatchFeed::prefetch`] lets a caller draw the next step while it has
//! nothing better to do (waiting on the wire). It never waits and never
//! spills: it does nothing unless the step is the next one, nobody holds the
//! feed, and the slot it would recycle is unshared. A prefetched step is
//! served by [`BatchFeed::step`] like any other.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::batch::{shard_sizes, MiniBatch};
use crate::config::DatasetConfig;
use crate::generator::SyntheticCriteo;

/// The shared, step-indexed source of a run's global batches. See the
/// [module documentation](self).
#[derive(Debug)]
pub struct BatchFeed {
    parts: usize,
    state: Mutex<FeedState>,
}

#[derive(Debug)]
struct FeedState {
    generator: SyntheticCriteo,
    /// Step `k` lives in `slots[k % 2]`.
    slots: [Slot; 2],
    /// The step the generator draws next.
    next: usize,
    generated: u64,
    spills: u64,
    prefetched: u64,
}

impl FeedState {
    /// Draw step `next` into its slot, recycling the slot's storage unless a
    /// caller still holds it.
    fn generate(&mut self, batch_size: usize, parts: usize) {
        let step = self.next;
        let slot = &mut self.slots[step % 2];
        if Arc::get_mut(&mut slot.shards).is_none() {
            slot.shards = Arc::default();
            self.spills += 1;
        }
        let shards = Arc::get_mut(&mut slot.shards).expect("checked or replaced just above");
        self.generator.next_batch_into(batch_size, parts, shards);
        slot.step = Some(step);
        self.next += 1;
        self.generated += 1;
    }
}

#[derive(Debug, Default)]
struct Slot {
    /// The step whose shards the slot holds (`None` until first filled).
    step: Option<usize>,
    shards: Arc<Vec<MiniBatch>>,
}

impl BatchFeed {
    /// A feed over the `(config, seed)` stream of [`SyntheticCriteo`] whose
    /// every step is cut into `parts` contiguous shards by
    /// [`MiniBatch::shard`]'s rule. Step 0 is the stream's first batch.
    pub fn new(config: DatasetConfig, seed: u64, parts: usize) -> Self {
        assert!(parts > 0, "a feed needs at least one part");
        Self {
            parts,
            state: Mutex::new(FeedState {
                generator: SyntheticCriteo::new(config, seed),
                slots: Default::default(),
                next: 0,
                generated: 0,
                spills: 0,
                prefetched: 0,
            }),
        }
    }

    /// Fast-forward a fresh feed so that its first step is `start`: the
    /// `start` batches of `batch_size` samples before it are drawn once and
    /// discarded (they advance the generator's RNG and drift clock exactly
    /// as serving them would).
    pub fn starting_at(mut self, start: usize, batch_size: usize) -> Self {
        let state = self.state.get_mut().expect("a fresh feed is not poisoned");
        assert_eq!(state.next, 0, "only a fresh feed can be fast-forwarded");
        let discard = Arc::get_mut(&mut state.slots[0].shards).expect("a fresh feed is unshared");
        for _ in 0..start {
            state
                .generator
                .next_batch_into(batch_size, self.parts, discard);
        }
        state.next = start;
        self
    }

    /// The shards of step `step`, a global batch of `batch_size` samples.
    /// The first caller to ask for a step generates it; every caller gets
    /// the same shards.
    ///
    /// # Panics
    /// Panics if `step` is ahead of the next step to generate or more than
    /// one step behind the newest (callers sharing a feed must stay within
    /// one step of each other), or if callers disagree on `batch_size`.
    pub fn step(&self, step: usize, batch_size: usize) -> Arc<Vec<MiniBatch>> {
        let mut state = self.lock();
        if step == state.next {
            state.generate(batch_size, self.parts);
        }
        let slot = &state.slots[step % 2];
        assert!(
            slot.step == Some(step),
            "BatchFeed: step {step} is out of reach (next step to generate: {}); \
             callers sharing a feed must stay within one step of each other",
            state.next
        );
        assert_eq!(
            slot.shards.iter().map(MiniBatch::batch_size).sum::<usize>(),
            batch_size,
            "BatchFeed: callers disagree on the batch size of step {step}"
        );
        Arc::clone(&slot.shards)
    }

    /// Draw step `step` (a global batch of `batch_size` samples) ahead of
    /// its first [`BatchFeed::step`] call, if that costs nobody anything:
    /// only when `step` is the next step to generate, no other caller holds
    /// the feed, and the slot it would recycle is unshared. Otherwise it
    /// returns at once, so it never blocks and never spills. Returns whether
    /// it generated the step.
    pub fn prefetch(&self, step: usize, batch_size: usize) -> bool {
        let Ok(mut state) = self.state.try_lock() else {
            return false;
        };
        if step != state.next || Arc::get_mut(&mut state.slots[step % 2].shards).is_none() {
            return false;
        }
        state.generate(batch_size, self.parts);
        state.prefetched += 1;
        true
    }

    /// Expected distinct rows per `(table, shard)` of a global batch of
    /// `batch_size` samples: `out[t][s]` is table `t`'s expected distinct
    /// categories among shard `s`'s samples. Computed from the Zipf tables
    /// the feed's generator already holds, once per distinct shard size,
    /// under the undrifted distributions; it draws nothing from the stream.
    pub fn expected_distinct(&self, batch_size: usize) -> Vec<Vec<f64>> {
        let state = self.lock();
        let sizes: Vec<usize> = shard_sizes(batch_size, self.parts).collect();
        let mut per_size: Vec<(usize, Vec<f64>)> = Vec::new();
        for &m in &sizes {
            if !per_size.iter().any(|&(n, _)| n == m) {
                per_size.push((m, state.generator.expected_distinct(m)));
            }
        }
        let column = |m: usize| &per_size.iter().find(|&&(n, _)| n == m).expect("computed").1;
        (0..state.generator.config().num_tables())
            .map(|t| sizes.iter().map(|&m| column(m)[t]).collect())
            .collect()
    }

    /// Batches generated so far, not counting the fast-forwarded prefix:
    /// one per step served, however many callers asked for it.
    pub fn generated(&self) -> u64 {
        self.lock().generated
    }

    /// Times a step found its slot still shared by a caller holding the
    /// step before last, and took fresh storage instead of recycling it.
    pub fn spills(&self) -> u64 {
        self.lock().spills
    }

    /// Steps [`BatchFeed::prefetch`] generated (each is also counted by
    /// [`BatchFeed::generated`]).
    pub fn prefetched(&self) -> u64 {
        self.lock().prefetched
    }

    fn lock(&self) -> MutexGuard<'_, FeedState> {
        self.state
            .lock()
            .expect("another rank panicked while generating a batch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrafficDrift;
    use crate::presets;

    /// The bugfix this type carries: a recovery segment fast-forwards the
    /// stream once, and lands on exactly the batches a feed that served
    /// every step from 0 would hand out — including the drift clock and the
    /// lazily built drifted distributions the skipped prefix ran through.
    #[test]
    fn feed_resumes_mid_stream() {
        let drifting = presets::tiny().with_drift(TrafficDrift {
            start_batch: 2,
            exponent_shift: 0.8,
            hot_rotation_every: 2,
        });
        for dataset in [presets::tiny(), drifting] {
            let (parts, batch) = (3, 50);
            let from_zero = BatchFeed::new(dataset.clone(), 9, parts);
            let all: Vec<_> = (0..8).map(|k| from_zero.step(k, batch)).collect();
            for start in [0, 1, 2, 3, 5] {
                let resumed = BatchFeed::new(dataset.clone(), 9, parts).starting_at(start, batch);
                for (k, expected) in all.iter().enumerate().skip(start) {
                    assert_eq!(
                        &resumed.step(k, batch),
                        expected,
                        "start {start}: step {k} differs"
                    );
                }
                assert_eq!(resumed.generated(), (8 - start) as u64);
            }
        }
    }
}
