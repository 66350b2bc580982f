//! The shared input feed hands out exactly the batches every rank used to
//! draw for itself, once per step, to callers in any order the
//! bulk-synchronous schedule allows — and the stream itself is pinned.

use std::collections::VecDeque;
use std::sync::{Arc, Barrier};

use dlrm_data::{presets, BatchFeed, MiniBatch, SyntheticCriteo, TrafficDrift};
use proptest::prelude::*;

/// Step sizes of a serving-style schedule: full windows, then a short one.
const WINDOWS: [usize; 5] = [50, 50, 50, 50, 23];

#[test]
fn feed_shards_equal_the_per_rank_draw_bit_for_bit() {
    let drifting = presets::tiny().with_drift(TrafficDrift {
        start_batch: 2,
        exponent_shift: 0.8,
        hot_rotation_every: 1,
    });
    for dataset in [presets::tiny(), drifting] {
        for world in 1..=4 {
            // 50 and 23 both leave a remainder over 3 and 4 parts.
            let feed = BatchFeed::new(dataset.clone(), 31, world);
            let mut generator = SyntheticCriteo::new(dataset.clone(), 31);
            for (k, &n) in WINDOWS.iter().enumerate() {
                let expected = generator.next_batch(n).shard(world);
                assert_eq!(*feed.step(k, n), expected, "world {world}, step {k}");
            }
            assert_eq!(feed.generated(), WINDOWS.len() as u64);
            assert_eq!(feed.spills(), 0, "nothing was held, so every slot recycles");
        }
    }
}

#[test]
fn skewed_callers_see_one_generation_per_step() {
    const STEPS: usize = 12;
    const CALLERS: usize = 4;
    let dataset = presets::tiny();
    let feed = BatchFeed::new(dataset.clone(), 5, CALLERS);
    let expected: Vec<Vec<MiniBatch>> = {
        let mut generator = SyntheticCriteo::new(dataset, 5);
        (0..STEPS)
            .map(|_| generator.next_batch(37).shard(CALLERS))
            .collect()
    };
    // Two barrier waits per round force the interleaving: in round r callers
    // 1.. ask for step r, then caller 0 — one step behind — asks for r - 1.
    // Caller 0 still holds step r - 2 when the others reach step r, whose
    // slot that is, so from step 2 on every generation must spill.
    let barrier = Barrier::new(CALLERS);
    std::thread::scope(|scope| {
        for caller in 0..CALLERS {
            let (feed, expected, barrier) = (&feed, &expected, &barrier);
            scope.spawn(move || {
                let mut held: Option<Arc<Vec<MiniBatch>>> = None;
                for round in 0..=STEPS {
                    if caller == 0 {
                        barrier.wait();
                    }
                    let k = if caller == 0 {
                        round.checked_sub(1)
                    } else {
                        Some(round)
                    };
                    if let Some(k) = k.filter(|&k| k < STEPS) {
                        let got = feed.step(k, 37);
                        assert_eq!(*got, expected[k], "caller {caller}, step {k}");
                        held = Some(got);
                    }
                    if caller != 0 {
                        barrier.wait();
                    }
                    barrier.wait();
                }
                drop(held);
            });
        }
    });
    assert_eq!(feed.generated(), STEPS as u64);
    assert_eq!(feed.spills(), STEPS as u64 - 2);
}

#[test]
#[should_panic(expected = "callers sharing a feed must stay within one step of each other")]
fn a_caller_two_steps_behind_panics_instead_of_hanging() {
    let feed = BatchFeed::new(presets::tiny(), 5, 2);
    for k in 0..3 {
        feed.step(k, 16);
    }
    // Steps 1 and 2 are live; step 0's slot now holds step 2.
    feed.step(0, 16);
}

#[test]
#[should_panic(expected = "callers sharing a feed must stay within one step of each other")]
fn a_caller_two_steps_ahead_panics_instead_of_skipping() {
    let feed = BatchFeed::new(presets::tiny(), 5, 2);
    feed.step(0, 16);
    feed.step(2, 16);
}

const PREFETCH_STEPS: usize = 8;

/// Step sizes differ, so a prefetch drawn at the wrong size would show.
fn prefetch_batch(step: usize) -> usize {
    37 + step % 3
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A caller that prefetches at arbitrary moments — stale steps, the step
    /// it is about to take, the one after, one too far ahead — while holding
    /// steps for up to two rounds, gets exactly the stream, spills and
    /// generation count of a plain feed driven through the same holds.
    #[test]
    fn prefetch_in_any_interleaving_serves_the_plain_stream(
        world in 1usize..=3,
        schedule in prop::collection::vec((0usize..4, 0usize..4, any::<bool>()), PREFETCH_STEPS),
    ) {
        let dataset = presets::tiny();
        let feed = BatchFeed::new(dataset.clone(), 13, world);
        let plain = BatchFeed::new(dataset.clone(), 13, world);
        let mut generator = SyntheticCriteo::new(dataset, 13);
        let mut held: VecDeque<(usize, _, _)> = VecDeque::new();
        let prefetch = |step: usize| {
            if step < PREFETCH_STEPS {
                feed.prefetch(step, prefetch_batch(step));
            }
        };
        for (k, &(before, after, keep)) in schedule.iter().enumerate() {
            prefetch((k + before).saturating_sub(1));
            let got = feed.step(k, prefetch_batch(k));
            let reference = plain.step(k, prefetch_batch(k));
            let expected = generator.next_batch(prefetch_batch(k)).shard(world);
            prop_assert_eq!(&*got, &expected, "step {}", k);
            prop_assert_eq!(&*reference, &expected, "step {}", k);
            prefetch((k + after).saturating_sub(1));
            // A held step lives through the next step's generation.
            held.retain(|&(step, ..)| step + 1 >= k);
            if keep {
                held.push_back((k, got, reference));
            }
        }
        prop_assert_eq!(feed.generated(), plain.generated());
        prop_assert_eq!(feed.spills(), plain.spills());
        prop_assert!(feed.prefetched() <= feed.generated());
        prop_assert_eq!(plain.prefetched(), 0);
    }
}

#[test]
fn a_prefetch_into_a_held_slot_is_a_no_op() {
    let feed = BatchFeed::new(presets::tiny(), 5, 2);
    let step0 = feed.step(0, 16);
    drop(feed.step(1, 16));
    // Step 2 would recycle step 0's slot, which a caller still holds.
    assert!(!feed.prefetch(2, 16));
    assert_eq!(
        (feed.generated(), feed.spills(), feed.prefetched()),
        (2, 0, 0)
    );
    // Not the next step, stale or too far ahead: no-ops too.
    for step in [0, 1, 3] {
        assert!(!feed.prefetch(step, 16));
    }
    assert_eq!(
        (feed.generated(), feed.spills(), feed.prefetched()),
        (2, 0, 0)
    );
    drop(step0);
    assert!(feed.prefetch(2, 16));
    assert!(!feed.prefetch(2, 16), "a step is generated once");
    let mut generator = SyntheticCriteo::new(presets::tiny(), 5);
    let expected: Vec<_> = (0..3).map(|_| generator.next_batch(16).shard(2)).collect();
    assert_eq!(*feed.step(2, 16), expected[2]);
    assert_eq!(
        (feed.generated(), feed.spills(), feed.prefetched()),
        (3, 0, 1)
    );
}

/// FNV-1a over every bit the batch carries, in a fixed order.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The stream is part of every pinned number downstream (`final_loss`, wire
/// bytes, fingerprints). This hash was computed with the generator as it
/// stood before the guided Zipf sampler and the sharded fill; a sampler
/// change that moves it has changed the data, whatever its tests say.
#[test]
fn the_criteo_kaggle_like_stream_is_pinned() {
    let mut generator = SyntheticCriteo::new(presets::criteo_kaggle_like(), 2024);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..3 {
        let batch = generator.next_batch(128);
        for v in batch.dense.as_slice() {
            fnv1a(&mut hash, &v.to_bits().to_le_bytes());
        }
        for column in &batch.sparse {
            for c in column {
                fnv1a(&mut hash, &c.to_le_bytes());
            }
        }
        for y in &batch.labels {
            fnv1a(&mut hash, &y.to_bits().to_le_bytes());
        }
    }
    assert_eq!(hash, GOLDEN_STREAM_HASH, "got {hash:#018x}");
}

const GOLDEN_STREAM_HASH: u64 = 0x5f69_3cc4_6cd3_8486;

/// The expectation the trainer places tables by matches what the stream
/// draws: per table, the analytic distinct count of a 128-sample shard is
/// within 2 % of the mean over sampled shards of the benchmark's shape
/// (global batch 512 over 4 ranks).
#[test]
fn expected_distinct_matches_sampled_shards() {
    const STEPS: usize = 60;
    const WORLD: usize = 4;
    const BATCH: usize = 512;
    let dataset = presets::criteo_kaggle_like();
    let feed = BatchFeed::new(dataset.clone(), 11, WORLD);
    let expected = feed.expected_distinct(BATCH);
    assert_eq!(expected.len(), dataset.num_tables());
    let mut counted = vec![0usize; dataset.num_tables()];
    for step in 0..STEPS {
        for shard in feed.step(step, BATCH).iter() {
            for (count, column) in counted.iter_mut().zip(&shard.sparse) {
                let mut ids = column.clone();
                ids.sort_unstable();
                ids.dedup();
                *count += ids.len();
            }
        }
    }
    for (t, row) in expected.iter().enumerate() {
        assert_eq!(row.len(), WORLD);
        assert!(row.iter().all(|&d| d == row[0]), "equal shards, equal rows");
        let mean = counted[t] as f64 / (STEPS * WORLD) as f64;
        assert!(
            (row[0] - mean).abs() <= 0.02 * mean,
            "table {t}: expected {:.3}, sampled mean {mean:.3}",
            row[0]
        );
    }
}

/// Unequal shards get their own sizes' expectations: 10 samples over 3
/// parts are shards of 4, 3 and 3.
#[test]
fn expected_distinct_follows_the_shard_split() {
    let dataset = presets::tiny();
    let feed = BatchFeed::new(dataset.clone(), 1, 3);
    let generator = SyntheticCriteo::new(dataset, 1);
    let (four, three) = (
        generator.expected_distinct(4),
        generator.expected_distinct(3),
    );
    for (t, row) in feed.expected_distinct(10).iter().enumerate() {
        assert_eq!(row, &vec![four[t], three[t], three[t]]);
    }
    assert_eq!(feed.generated(), 0, "the expectation draws nothing");
}
