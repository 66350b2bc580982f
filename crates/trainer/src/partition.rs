//! Model-parallel partitioning of embedding tables across ranks.
//!
//! The reference DLRM assigns whole tables to devices. A greedy
//! largest-first bin packing ([`TablePartition::greedy`]) balances the
//! per-rank parameter counts, which is what memory needs — but it does not
//! balance lookup traffic. A table's all-to-all rows are its distinct
//! lookups per shard, which follow its query skew, not its size: a
//! 174,000-row table with a flat distribution sends a full shard of rows,
//! a 3-row table three. Each sender's egress is serialised, so an exchange
//! lasts as long as its busiest sender takes.
//!
//! Training therefore places tables with [`TablePartition::by_traffic`]: a
//! deterministic local search from the greedy packing that minimises the
//! busiest sender's expected rows in both directions, with every rank's
//! table rows held within 1 % of greedy's maximum. Serving and the elastic
//! remaps ([`TablePartition::after_loss`], [`TablePartition::resized`])
//! stay on the cardinality rule.

/// Assignment of embedding tables to ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct TablePartition {
    /// `owned[r]` lists the table ids owned by rank `r`, in ascending order.
    pub owned: Vec<Vec<usize>>,
    /// `owner[t]` is the rank owning table `t`.
    pub owner: Vec<usize>,
}

/// Expected all-to-all rows each rank sends per iteration under a
/// placement, from the expected distinct rows per `(table, shard)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SenderRows {
    /// `forward[r]`: the distinct rows rank `r`'s tables serve to the other
    /// shards.
    pub forward: Vec<f64>,
    /// `backward[r]`: the summed-gradient rows rank `r`'s shard sends home
    /// to the owners of the tables it does not own.
    pub backward: Vec<f64>,
}

impl SenderRows {
    /// The busiest sender's rows, over both directions (0 with no ranks).
    pub fn busiest(&self) -> f64 {
        self.forward
            .iter()
            .chain(&self.backward)
            .copied()
            .fold(0.0, f64::max)
    }
}

/// How far [`TablePartition::by_traffic`] lets a rank's table rows grow
/// past greedy's most loaded rank: one part in this many (1 %). Ranks whose
/// table memory differs hold a run's peak memory above greedy's, because a
/// rank's buffers land in whichever allocator arena its thread picks up.
const MEMORY_SLACK_PARTS: usize = 100;

/// Fixed-point units per expected row. The traffic search adds and
/// subtracts integers, so a placement's sender loads are exact and do not
/// depend on the order of moves that reached it.
const ROW_UNITS: f64 = (1u64 << 20) as f64;

impl TablePartition {
    /// Greedy largest-first partition of tables (weighted by cardinality)
    /// over `world` ranks.
    pub fn greedy(cardinalities: &[usize], world: usize) -> Self {
        assert!(world > 0, "need at least one rank");
        let mut order: Vec<usize> = (0..cardinalities.len()).collect();
        order.sort_by_key(|&t| std::cmp::Reverse(cardinalities[t]));

        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); world];
        let mut load = vec![0usize; world];
        let mut owner = vec![0usize; cardinalities.len()];
        for &t in &order {
            // Least-loaded rank; ties go to the lowest rank id for determinism.
            let r = (0..world).min_by_key(|&r| (load[r], r)).expect("world > 0");
            owned[r].push(t);
            owner[t] = r;
            load[r] += cardinalities[t].max(1);
        }
        for tables in owned.iter_mut() {
            tables.sort_unstable();
        }
        Self { owned, owner }
    }

    /// Traffic-aware placement: start from [`TablePartition::greedy`], then
    /// repeatedly make the best exchange of up to two tables each way
    /// between two ranks (a move, a swap, two for one, two for two), as long
    /// as one makes the ranks' sender loads strictly smaller — forward and
    /// backward rows of every rank (see [`TablePartition::sender_rows`]),
    /// sorted descending and compared lexicographically. The busiest sender
    /// therefore never ends above greedy's. An exchange is only allowed if
    /// every rank's table rows stay within 1 % of greedy's most loaded rank.
    ///
    /// `distinct[t][s]` is table `t`'s expected distinct rows in shard `s`,
    /// one entry per rank. Deterministic: ties go to the first exchange in
    /// (rank pair, table) order.
    pub fn by_traffic(cardinalities: &[usize], distinct: &[Vec<f64>], world: usize) -> Self {
        assert_eq!(
            distinct.len(),
            cardinalities.len(),
            "one distinct-row row per table"
        );
        let units = row_units(distinct, world);
        let mut placed = Self::greedy(cardinalities, world);
        let mut load = placed.loads(cardinalities);
        let greedy_max = load.iter().copied().max().unwrap_or(0);
        let cap = greedy_max + greedy_max / MEMORY_SLACK_PARTS;
        let weight =
            |group: &[usize]| -> usize { group.iter().map(|&t| cardinalities[t].max(1)).sum() };
        let mut send = sender_units(&placed.owner, &units, world);
        let mut key = sorted_descending(&send);
        loop {
            let mut best: Option<Trade> = None;
            for (a, b) in (0..world).flat_map(|a| (a + 1..world).map(move |b| (a, b))) {
                let back_groups = small_groups(&placed.owned[b]);
                for out in small_groups(&placed.owned[a]) {
                    for back in &back_groups {
                        let (w_out, w_back) = (weight(&out), weight(back));
                        if out.len() + back.len() == 0
                            || load[a] + w_back - w_out > cap
                            || load[b] + w_out - w_back > cap
                        {
                            continue;
                        }
                        let mut trial = send.clone();
                        out.iter().for_each(|&t| shift(&mut trial, &units[t], a, b));
                        back.iter()
                            .for_each(|&t| shift(&mut trial, &units[t], b, a));
                        let trial_key = sorted_descending(&trial);
                        if trial_key < *best.as_ref().map_or(&key, |t| &t.key) {
                            best = Some(Trade {
                                key: trial_key,
                                moves: [(out.clone(), a, b), (back.clone(), b, a)],
                            });
                        }
                    }
                }
            }
            let Some(trade) = best else {
                break;
            };
            for (group, from, to) in trade.moves {
                for &t in &group {
                    shift(&mut send, &units[t], from, to);
                    placed.owner[t] = to;
                }
                placed.owned[from].retain(|t| !group.contains(t));
                placed.owned[to].extend_from_slice(&group);
                load[from] -= weight(&group);
                load[to] += weight(&group);
            }
            key = trade.key;
        }
        for tables in placed.owned.iter_mut() {
            tables.sort_unstable();
        }
        placed
    }

    /// Expected all-to-all rows each rank sends per iteration under this
    /// placement; `distinct` as in [`TablePartition::by_traffic`], summed
    /// in its fixed-point units.
    pub fn sender_rows(&self, distinct: &[Vec<f64>]) -> SenderRows {
        let world = self.world();
        let send = sender_units(&self.owner, &row_units(distinct, world), world);
        let rows = |units: &[u64]| units.iter().map(|&u| u as f64 / ROW_UNITS).collect();
        SenderRows {
            forward: rows(&send[..world]),
            backward: rows(&send[world..]),
        }
    }

    /// A floor no placement's busiest sender goes under: every row that
    /// crosses the wire leaves one forward sender, so the busiest of `world`
    /// carries at least a `1/world` share of the least total traffic (each
    /// table owned by the shard that looks up most of it), and at least one
    /// table's own forward rows.
    pub fn sender_lower_bound(distinct: &[Vec<f64>], world: usize) -> f64 {
        let leaving: Vec<u64> = row_units(distinct, world)
            .iter()
            .map(|row| row.iter().sum::<u64>() - row.iter().copied().max().unwrap_or(0))
            .collect();
        let share = leaving.iter().sum::<u64>() / world.max(1) as u64;
        leaving.into_iter().fold(share, u64::max) as f64 / ROW_UNITS
    }

    /// Number of ranks in the partition.
    pub fn world(&self) -> usize {
        self.owned.len()
    }

    /// Tables owned by `rank`.
    pub fn tables_of(&self, rank: usize) -> &[usize] {
        &self.owned[rank]
    }

    /// The rank owning `table`.
    pub fn owner_of(&self, table: usize) -> usize {
        self.owner[table]
    }

    /// Per-rank loads under the same weighting [`TablePartition::greedy`]
    /// packs with (`cardinality.max(1)`).
    fn loads(&self, cardinalities: &[usize]) -> Vec<usize> {
        self.owned
            .iter()
            .map(|ts| ts.iter().map(|&t| cardinalities[t].max(1)).sum())
            .collect()
    }

    /// Place `orphans` (already sorted) greedily largest-first onto the
    /// least-loaded ranks of `self`, in place.
    fn place_orphans(&mut self, cardinalities: &[usize], orphans: &[usize]) {
        let mut load = self.loads(cardinalities);
        let mut order: Vec<usize> = orphans.to_vec();
        order.sort_by_key(|&t| std::cmp::Reverse(cardinalities[t]));
        for t in order {
            let r = (0..self.owned.len())
                .min_by_key(|&r| (load[r], r))
                .expect("world > 0");
            self.owned[r].push(t);
            self.owner[t] = r;
            load[r] += cardinalities[t].max(1);
        }
        for tables in self.owned.iter_mut() {
            tables.sort_unstable();
        }
    }

    /// The partition after rank `lost` dies: survivors keep every table
    /// they already own (ranks above `lost` shift down by one), and only
    /// the lost rank's tables move — placed greedily largest-first on the
    /// least-loaded survivors. Returns the new partition and the moved
    /// table ids (exactly the lost rank's former tables, ascending) — the
    /// minimal set any remap must move.
    pub fn after_loss(&self, cardinalities: &[usize], lost: usize) -> (Self, Vec<usize>) {
        assert!(lost < self.owned.len(), "lost rank out of range");
        assert!(self.owned.len() > 1, "cannot lose the only rank");
        let orphans = self.owned[lost].clone();
        let mut owned = self.owned.clone();
        owned.remove(lost);
        let mut next = Self {
            owner: vec![0; self.owner.len()],
            owned,
        };
        for (r, tables) in next.owned.iter().enumerate() {
            for &t in tables {
                next.owner[t] = r;
            }
        }
        next.place_orphans(cardinalities, &orphans);
        (next, orphans)
    }

    /// The partition after an elastic resize to `new_world` ranks.
    ///
    /// Shrinking orphans only the dropped top ranks' tables (placed
    /// greedily largest-first on the survivors); growing adds empty ranks
    /// and then moves tables one at a time — always the largest table on
    /// the most-loaded rank whose move strictly reduces the donor/recipient
    /// gap — until no such move exists. Both directions move a minimal set:
    /// the returned table ids are exactly the tables whose owner changed,
    /// ascending.
    pub fn resized(&self, cardinalities: &[usize], new_world: usize) -> (Self, Vec<usize>) {
        assert!(new_world > 0, "need at least one rank");
        let old_world = self.owned.len();
        if new_world == old_world {
            return (self.clone(), Vec::new());
        }
        if new_world < old_world {
            let mut orphans: Vec<usize> = self.owned[new_world..].concat();
            orphans.sort_unstable();
            let mut next = Self {
                owned: self.owned[..new_world].to_vec(),
                owner: vec![0; self.owner.len()],
            };
            for (r, tables) in next.owned.iter().enumerate() {
                for &t in tables {
                    next.owner[t] = r;
                }
            }
            next.place_orphans(cardinalities, &orphans);
            return (next, orphans);
        }
        // Growing: rebalance onto the empty newcomers by repeated
        // largest-table moves from the most- to the least-loaded rank.
        // Every move strictly shrinks the donor/recipient load gap, so the
        // loop terminates; the final spread is within one table of even.
        let mut next = self.clone();
        next.owned.resize(new_world, Vec::new());
        let mut load = next.loads(cardinalities);
        loop {
            let donor = (0..new_world)
                .max_by_key(|&r| (load[r], std::cmp::Reverse(r)))
                .expect("world > 0");
            let recipient = (0..new_world)
                .min_by_key(|&r| (load[r], r))
                .expect("world > 0");
            let gap = load[donor] - load[recipient];
            // Largest table on the donor that still shrinks the gap when
            // moved (its weight must be under the gap, not just half of it,
            // to keep strictly descending total spread).
            let candidate = next.owned[donor]
                .iter()
                .copied()
                .filter(|&t| cardinalities[t].max(1) < gap)
                .max_by_key(|&t| (cardinalities[t].max(1), t));
            let Some(t) = candidate else {
                break;
            };
            next.owned[donor].retain(|&x| x != t);
            next.owned[recipient].push(t);
            next.owner[t] = recipient;
            let w = cardinalities[t].max(1);
            load[donor] -= w;
            load[recipient] += w;
        }
        for tables in next.owned.iter_mut() {
            tables.sort_unstable();
        }
        // Report the tables whose owner actually changed (a table bounced
        // through an intermediate rank counts once; one returned home not
        // at all).
        let moved = (0..self.owner.len())
            .filter(|&t| next.owner[t] != self.owner[t])
            .collect();
        (next, moved)
    }

    /// Parameter-count imbalance: max rank load / mean rank load (1.0 is
    /// perfectly balanced). Ranks with zero load are counted.
    pub fn imbalance(&self, cardinalities: &[usize]) -> f64 {
        let loads: Vec<usize> = self
            .owned
            .iter()
            .map(|ts| ts.iter().map(|&t| cardinalities[t]).sum())
            .collect();
        let max = *loads.iter().max().unwrap_or(&0) as f64;
        let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// One exchange [`TablePartition::by_traffic`] considers: groups of tables
/// moving `(tables, from, to)`, and the sender loads it leads to, sorted
/// descending.
struct Trade {
    key: Vec<u64>,
    moves: [(Vec<usize>, usize, usize); 2],
}

/// `distinct` in fixed-point units, checked to be one finite,
/// non-negative entry per rank.
fn row_units(distinct: &[Vec<f64>], world: usize) -> Vec<Vec<u64>> {
    distinct
        .iter()
        .map(|row| {
            assert_eq!(row.len(), world, "one distinct-row entry per rank");
            row.iter()
                .map(|&d| {
                    assert!(d.is_finite() && d >= 0.0, "bad distinct-row count {d}");
                    (d * ROW_UNITS).round() as u64
                })
                .collect()
        })
        .collect()
}

/// Sender loads of the placement `owner`: `send[r]` is rank `r`'s forward
/// rows, `send[world + r]` its backward rows.
fn sender_units(owner: &[usize], units: &[Vec<u64>], world: usize) -> Vec<u64> {
    let mut send = vec![0u64; 2 * world];
    for (row, &o) in units.iter().zip(owner) {
        for (s, &d) in row.iter().enumerate() {
            if s != o {
                send[o] += d;
                send[world + s] += d;
            }
        }
    }
    send
}

/// Move one table (its per-shard rows `row`) from rank `from` to rank `to`
/// in the sender loads `send`.
fn shift(send: &mut [u64], row: &[u64], from: usize, to: usize) {
    let world = row.len();
    let total: u64 = row.iter().sum();
    send[from] -= total - row[from];
    send[world + from] += row[from];
    send[to] += total - row[to];
    send[world + to] -= row[to];
}

fn sorted_descending(send: &[u64]) -> Vec<u64> {
    let mut key = send.to_vec();
    key.sort_unstable_by(|a, b| b.cmp(a));
    key
}

/// Every group of at most two of `tables`, the empty group first.
fn small_groups(tables: &[usize]) -> Vec<Vec<usize>> {
    let mut groups = vec![Vec::new()];
    for (i, &t) in tables.iter().enumerate() {
        groups.push(vec![t]);
        groups.extend(tables[i + 1..].iter().map(|&u| vec![t, u]));
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_has_exactly_one_owner() {
        let cards = vec![100, 5, 2000, 300, 7, 900, 50, 4];
        let p = TablePartition::greedy(&cards, 3);
        assert_eq!(p.world(), 3);
        let mut seen = vec![false; cards.len()];
        for r in 0..3 {
            for &t in p.tables_of(r) {
                assert!(!seen[t], "table {t} owned twice");
                seen[t] = true;
                assert_eq!(p.owner_of(t), r);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn partition_is_reasonably_balanced() {
        let cards: Vec<usize> = (1..=26).map(|i| i * i * 100).collect();
        let p = TablePartition::greedy(&cards, 4);
        assert!(
            p.imbalance(&cards) < 1.3,
            "imbalance {}",
            p.imbalance(&cards)
        );
    }

    #[test]
    fn more_ranks_than_tables_leaves_some_ranks_empty() {
        let cards = vec![10, 20];
        let p = TablePartition::greedy(&cards, 5);
        let non_empty = p.owned.iter().filter(|t| !t.is_empty()).count();
        assert_eq!(non_empty, 2);
    }

    #[test]
    fn single_rank_owns_everything() {
        let cards = vec![3, 1, 4, 1, 5];
        let p = TablePartition::greedy(&cards, 1);
        assert_eq!(p.tables_of(0), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn deterministic() {
        let cards = vec![10, 10, 10, 10];
        assert_eq!(
            TablePartition::greedy(&cards, 2),
            TablePartition::greedy(&cards, 2)
        );
    }

    /// Every table owned exactly once and owner/owned agree.
    fn assert_consistent(p: &TablePartition, num_tables: usize) {
        assert_eq!(p.owner.len(), num_tables);
        let mut seen = vec![false; num_tables];
        for (r, tables) in p.owned.iter().enumerate() {
            assert!(tables.windows(2).all(|w| w[0] < w[1]), "unsorted rank list");
            for &t in tables {
                assert!(!seen[t], "table {t} owned twice");
                seen[t] = true;
                assert_eq!(p.owner[t], r);
            }
        }
        assert!(seen.iter().all(|&s| s), "a table lost its owner");
    }

    #[test]
    fn after_loss_moves_only_the_lost_ranks_tables() {
        let cards = vec![100, 5, 2000, 300, 7, 900, 50, 4];
        let p = TablePartition::greedy(&cards, 4);
        let lost = 1usize;
        let orphans = p.tables_of(lost).to_vec();
        let (q, moved) = p.after_loss(&cards, lost);
        assert_eq!(q.world(), 3);
        assert_consistent(&q, cards.len());
        assert_eq!(moved, orphans, "remap moved a survivor's table");
        // Survivors keep their tables (ranks above the lost one shift down).
        for old_r in 0..4 {
            if old_r == lost {
                continue;
            }
            let new_r = old_r - usize::from(old_r > lost);
            for &t in p.tables_of(old_r) {
                assert_eq!(q.owner_of(t), new_r, "table {t} moved off its survivor");
            }
        }
    }

    #[test]
    fn resized_same_world_is_identity() {
        let cards = vec![10, 40, 5, 25];
        let p = TablePartition::greedy(&cards, 3);
        let (q, moved) = p.resized(&cards, 3);
        assert_eq!(q, p);
        assert!(moved.is_empty());
    }

    #[test]
    fn resized_shrink_orphans_only_dropped_ranks() {
        let cards: Vec<usize> = (1..=12).map(|i| i * 37 % 90 + 1).collect();
        let p = TablePartition::greedy(&cards, 5);
        let mut orphans: Vec<usize> = p.owned[3..].concat();
        orphans.sort_unstable();
        let (q, moved) = p.resized(&cards, 3);
        assert_eq!(q.world(), 3);
        assert_consistent(&q, cards.len());
        assert_eq!(moved, orphans);
        for r in 0..3 {
            for &t in p.tables_of(r) {
                assert_eq!(q.owner_of(t), r, "surviving rank lost table {t}");
            }
        }
    }

    #[test]
    fn resized_grow_balances_within_the_largest_table() {
        let cards: Vec<usize> = (1..=26).map(|i| i * i * 10).collect();
        let p = TablePartition::greedy(&cards, 4);
        let (q, moved) = p.resized(&cards, 6);
        assert_eq!(q.world(), 6);
        assert_consistent(&q, cards.len());
        assert!(!moved.is_empty(), "growing 4->6 must move something");
        for &t in &moved {
            assert_ne!(q.owner_of(t), p.owner_of(t), "unmoved table reported");
        }
        for t in 0..cards.len() {
            if !moved.contains(&t) {
                assert_eq!(q.owner_of(t), p.owner_of(t), "gratuitous move of {t}");
            }
        }
        // Balance: max load within one largest-table of the min load.
        let loads: Vec<usize> = (0..6)
            .map(|r| q.tables_of(r).iter().map(|&t| cards[t]).sum())
            .collect();
        let max_card = *cards.iter().max().unwrap();
        assert!(
            loads.iter().max().unwrap() - loads.iter().min().unwrap() <= max_card,
            "loads {loads:?} spread beyond the largest table {max_card}"
        );
    }
}
