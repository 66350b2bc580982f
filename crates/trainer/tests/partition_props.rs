//! Property-based tests of [`TablePartition`]: the greedy packing and both
//! elastic remaps (`after_loss`, `resized`) are deterministic, keep every
//! table owned exactly once, stay balanced to within one largest table, and
//! move only the minimal set of tables an event forces to move. The traffic
//! placement (`by_traffic`) is deterministic, owns every table exactly once,
//! holds its memory cap, and lands its busiest sender between the floor and
//! greedy's.

use dlrm_trainer::TablePartition;
use proptest::prelude::*;

/// Random table cardinalities (zero allowed — the packer weights those as 1).
fn cards_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..5000, 1..40)
}

/// Every table owned exactly once, owner/owned agree, rank lists sorted.
fn assert_consistent(p: &TablePartition, num_tables: usize) {
    assert_eq!(p.owner.len(), num_tables);
    let mut seen = vec![false; num_tables];
    for (r, tables) in p.owned.iter().enumerate() {
        assert!(tables.windows(2).all(|w| w[0] < w[1]), "unsorted rank list");
        for &t in tables {
            assert!(!seen[t], "table {t} owned twice");
            seen[t] = true;
            assert_eq!(p.owner[t], r, "owner[{t}] disagrees with owned");
        }
    }
    assert!(seen.iter().all(|&s| s), "a table lost its owner");
}

/// Per-rank loads under the packer's weighting (`cardinality.max(1)`).
fn loads(p: &TablePartition, cards: &[usize]) -> Vec<usize> {
    p.owned
        .iter()
        .map(|ts| ts.iter().map(|&t| cards[t].max(1)).sum())
        .collect()
}

/// Max-min load gap is at most one largest table: the rank holding the max
/// received its last table when it was the least loaded, so every other
/// rank already carried at least `max - weight(last)` then.
fn assert_balanced(p: &TablePartition, cards: &[usize]) {
    let loads = loads(p, cards);
    let max_w = cards.iter().map(|&c| c.max(1)).max().unwrap_or(1);
    let gap = loads.iter().max().unwrap() - loads.iter().min().unwrap();
    assert!(gap <= max_w, "load gap {gap} exceeds largest table {max_w}");
}

/// Cardinalities, a world, and expected distinct rows per `(table, shard)`
/// of matching shape.
fn placement_strategy() -> impl Strategy<Value = (Vec<usize>, usize, Vec<Vec<f64>>)> {
    (cards_strategy(), 1usize..6).prop_flat_map(|(cards, world)| {
        let rows = prop::collection::vec(prop::collection::vec(0.0f64..200.0, world), cards.len());
        (Just(cards), Just(world), rows)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The traffic placement is a pure function of its inputs, keeps every
    /// table owned exactly once, keeps every rank's table rows within 1 % of
    /// greedy's most loaded rank, and puts its busiest sender at or under
    /// greedy's and at or over the floor. Every row leaves one sender and
    /// reaches one, so both directions carry the same total.
    #[test]
    fn by_traffic_is_deterministic_capped_and_between_floor_and_greedy(
        (cards, world, distinct) in placement_strategy(),
    ) {
        let p = TablePartition::by_traffic(&cards, &distinct, world);
        prop_assert_eq!(&p, &TablePartition::by_traffic(&cards, &distinct, world));
        prop_assert_eq!(p.world(), world);
        assert_consistent(&p, cards.len());
        let greedy = TablePartition::greedy(&cards, world);
        let greedy_max = loads(&greedy, &cards).into_iter().max().unwrap();
        let cap = greedy_max + greedy_max / 100;
        let placed = loads(&p, &cards);
        prop_assert!(placed.iter().all(|&l| l <= cap), "loads {:?} over cap {}", placed, cap);
        let rows = p.sender_rows(&distinct);
        let busiest = rows.busiest();
        prop_assert!(busiest <= greedy.sender_rows(&distinct).busiest());
        prop_assert!(busiest >= TablePartition::sender_lower_bound(&distinct, world));
        let (fwd, bwd): (f64, f64) = (rows.forward.iter().sum(), rows.backward.iter().sum());
        prop_assert!((fwd - bwd).abs() <= 1e-9 * fwd.max(1.0), "{} vs {}", fwd, bwd);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The greedy packing is a pure function of its inputs, keeps every
    /// table owned exactly once, and balances to within one largest table.
    #[test]
    fn greedy_is_deterministic_consistent_and_balanced(
        cards in cards_strategy(),
        world in 1usize..8,
    ) {
        let p = TablePartition::greedy(&cards, world);
        prop_assert_eq!(&p, &TablePartition::greedy(&cards, world));
        assert_consistent(&p, cards.len());
        assert_balanced(&p, &cards);
        prop_assert_eq!(p.world(), world);
    }

    /// Losing a rank moves exactly the lost rank's tables — survivors keep
    /// every table they owned (shifted down past the lost slot) — and the
    /// repaired partition is consistent and balanced.
    #[test]
    fn after_loss_is_minimal_consistent_and_balanced(
        cards in cards_strategy(),
        world in 2usize..8,
        lost_seed in 0usize..8,
    ) {
        let p = TablePartition::greedy(&cards, world);
        let lost = lost_seed % world;
        let orphans = p.tables_of(lost).to_vec();
        let (q, moved) = p.after_loss(&cards, lost);
        prop_assert_eq!(q.world(), world - 1);
        assert_consistent(&q, cards.len());
        assert_balanced(&q, &cards);
        // Deterministic remap.
        prop_assert_eq!(&(q.clone(), moved.clone()), &p.after_loss(&cards, lost));
        // The moved set is exactly the orphaned tables, ascending.
        prop_assert_eq!(&moved, &orphans);
        // Survivors keep their tables.
        for old_r in 0..world {
            if old_r == lost {
                continue;
            }
            let new_r = old_r - usize::from(old_r > lost);
            for &t in p.tables_of(old_r) {
                prop_assert_eq!(q.owner_of(t), new_r, "table {} left its survivor", t);
            }
        }
    }

    /// An elastic resize in either direction is deterministic, keeps the
    /// partition consistent and balanced, and reports exactly the tables
    /// whose owner changed — shrinking moves only the dropped ranks'
    /// tables, the identity resize moves nothing.
    #[test]
    fn resized_is_minimal_consistent_and_balanced(
        cards in cards_strategy(),
        world in 1usize..8,
        new_world in 1usize..8,
    ) {
        let p = TablePartition::greedy(&cards, world);
        let (q, moved) = p.resized(&cards, new_world);
        prop_assert_eq!(q.world(), new_world);
        assert_consistent(&q, cards.len());
        assert_balanced(&q, &cards);
        prop_assert_eq!(&(q.clone(), moved.clone()), &p.resized(&cards, new_world));
        // The moved set is exactly the owner diff, ascending.
        let diff: Vec<usize> = (0..cards.len())
            .filter(|&t| q.owner_of(t) != p.owner_of(t))
            .collect();
        prop_assert_eq!(&moved, &diff);
        if new_world == world {
            prop_assert!(moved.is_empty(), "identity resize moved {:?}", moved);
            prop_assert_eq!(&q, &p);
        }
        if new_world < world {
            // Shrinking orphans only the dropped top ranks' tables.
            for r in 0..new_world {
                for &t in p.tables_of(r) {
                    prop_assert_eq!(q.owner_of(t), r, "surviving rank lost table {}", t);
                }
            }
        }
    }

    /// A loss followed by a regrow ends at the original world with a
    /// consistent, balanced partition — the composition elastic recovery
    /// actually performs.
    #[test]
    fn loss_then_regrow_composes(
        cards in cards_strategy(),
        world in 2usize..8,
        lost_seed in 0usize..8,
    ) {
        let p = TablePartition::greedy(&cards, world);
        let (q, _) = p.after_loss(&cards, lost_seed % world);
        let (r, _) = q.resized(&cards, world);
        prop_assert_eq!(r.world(), world);
        assert_consistent(&r, cards.len());
        assert_balanced(&r, &cards);
    }
}
