//! Where training puts its embedding tables, and what that placement sends.
//!
//! Training places tables by expected all-to-all traffic
//! ([`TablePartition::by_traffic`]). At the benchmark's shape
//! (`criteo_kaggle_like`, world 4, global batch 512) the placement is pinned
//! here with its predicted busiest senders next to greedy's, and a short run
//! checks that each rank's measured bytes sent match the prediction.

use dlrm_data::{presets, BatchFeed, DatasetConfig};
use dlrm_trainer::{run_training, CompressionSetting, TablePartition, TrainerConfig};

const WORLD: usize = 4;
const GLOBAL_BATCH: usize = 512;

/// `owner[t]` of the traffic placement at the benchmark's shape.
const PINNED_OWNERS: [usize; 26] = [
    0, 1, 0, 3, 2, 2, 2, 0, 1, 0, 3, 2, 1, 2, 3, 3, 2, 0, 1, 2, 1, 3, 0, 1, 0, 2,
];

fn cardinalities(dataset: &DatasetConfig) -> Vec<usize> {
    dataset.tables.iter().map(|t| t.cardinality).collect()
}

/// Expected distinct rows per `(table, shard)`; the feed's seed does not
/// enter them.
fn distinct(dataset: &DatasetConfig) -> Vec<Vec<f64>> {
    BatchFeed::new(dataset.clone(), 1, WORLD).expected_distinct(GLOBAL_BATCH)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

fn assert_rows(what: &str, got: f64, pinned: f64) {
    assert!(
        (got - pinned).abs() < 0.01,
        "{what}: {got} rows, pinned {pinned}"
    );
}

#[test]
fn benchmark_shape_placement_is_pinned() {
    let dataset = presets::criteo_kaggle_like();
    let cards = cardinalities(&dataset);
    let distinct = distinct(&dataset);
    let greedy = TablePartition::greedy(&cards, WORLD).sender_rows(&distinct);
    let placed = TablePartition::by_traffic(&cards, &distinct, WORLD);
    assert_eq!(placed.owner, PINNED_OWNERS);
    let rows = placed.sender_rows(&distinct);
    // 128-byte rows: greedy's busiest senders send 222 KB forward and
    // 193 KB backward, the traffic placement's 180 KB either way.
    assert_rows("greedy forward", max(&greedy.forward), 1736.60);
    assert_rows("greedy backward", max(&greedy.backward), 1509.75);
    assert_rows("placed forward", max(&rows.forward), 1405.16);
    assert_rows("placed backward", max(&rows.backward), 1404.27);
    assert_rows(
        "floor",
        TablePartition::sender_lower_bound(&distinct, WORLD),
        1404.00,
    );
    // Table memory: greedy's most loaded rank holds 267,000 rows.
    let most_rows = (0..WORLD)
        .map(|r| placed.tables_of(r).iter().map(|&t| cards[t]).sum::<usize>())
        .max();
    assert_eq!(most_rows, Some(267_340));
}

/// Each rank's measured all-to-all bytes sent per iteration match the
/// placement's expected rows × row bytes within 10 %. The test adds the
/// framing the rows travel in: per peer chunk a one-byte varint group count
/// (the frame is the whole chunk), per `(table, peer)` block 4 bytes (the
/// varint table id, distinct-row count and payload length at this shape:
/// under 128 rows of 128 bytes). Under raw fp32 the payload is the rows.
#[test]
fn measured_egress_matches_the_placement() {
    let dataset = presets::criteo_kaggle_like();
    let mut cfg = TrainerConfig::small_test(CompressionSetting::None);
    cfg.world = WORLD;
    cfg.global_batch = GLOBAL_BATCH;
    cfg.iterations = 3;
    let report = run_training(&dataset, &cfg);

    let cards = cardinalities(&dataset);
    let distinct = distinct(&dataset);
    let placed = TablePartition::by_traffic(&cards, &distinct, WORLD);
    let rows = placed.sender_rows(&distinct);
    let row_bytes = (dataset.embedding_dim * 4) as f64;
    let chunks = (WORLD - 1) as f64;
    let blocks = |r: usize| placed.tables_of(r).len();
    let predicted: Vec<(f64, f64)> = (0..WORLD)
        .map(|r| {
            let fwd_blocks = (WORLD - 1) * blocks(r);
            let bwd_blocks = cards.len() - blocks(r);
            (
                rows.forward[r] * row_bytes + chunks + (4 * fwd_blocks) as f64,
                rows.backward[r] * row_bytes + chunks + (4 * bwd_blocks) as f64,
            )
        })
        .collect();

    let measured = &report.a2a_sent_per_iter;
    assert_eq!(measured.len(), WORLD);
    let within = |what: &str, got: f64, want: f64| {
        assert!(
            (got - want).abs() <= 0.10 * want,
            "{what}: measured {got:.0} B per iteration, predicted {want:.0} B"
        );
    };
    for (r, (&(fwd, bwd), &(want_fwd, want_bwd))) in measured.iter().zip(&predicted).enumerate() {
        within(&format!("rank {r} forward"), fwd, want_fwd);
        within(&format!("rank {r} backward"), bwd, want_bwd);
    }
    let busiest =
        |pick: fn(&(f64, f64)) -> f64, of: &[(f64, f64)]| of.iter().map(pick).fold(0.0, f64::max);
    within(
        "busiest forward sender",
        busiest(|s| s.0, measured),
        busiest(|s| s.0, &predicted),
    );
    within(
        "busiest backward sender",
        busiest(|s| s.1, measured),
        busiest(|s| s.1, &predicted),
    );
}
