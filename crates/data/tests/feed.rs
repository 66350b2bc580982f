//! The shared input feed hands out exactly the batches every rank used to
//! draw for itself, once per step, to callers in any order the
//! bulk-synchronous schedule allows — and the stream itself is pinned.

use std::sync::{Arc, Barrier};

use dlrm_data::{presets, BatchFeed, MiniBatch, SyntheticCriteo, TrafficDrift};

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
