//! The distinct categories of one lookup column.
//!
//! Zipf-skewed traffic repeats hot categories inside a batch, so an embedding
//! block of one row per sample carries the same row many times. Both ends of
//! the forward all-to-all hold the column's indices — the owner needs them
//! for the lookup, the data-parallel rank drew them — so the owner can send
//! each distinct row once and the receiver can rebuild the full block from
//! its own copy of the indices, with no match search and no bytes spent on
//! saying where the repeats were. The backward all-to-all runs the other way:
//! an owner's SGD step needs only each row's summed gradient, so the
//! data-parallel rank sums its per-sample gradient rows per distinct index
//! before sending, and the owner applies one update row per distinct index.
//!
//! [`DistinctRows`] is that shared index: the distinct values of an index
//! list in first-occurrence order, and for every sample the position of its
//! value among them. It reuses its storage across builds, so a warmed-up
//! build allocates nothing.

/// One live entry of the open-addressed table: valid while `stamp` equals the
/// current build's stamp.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    stamp: u32,
    index: u32,
    slot: u32,
}

/// The distinct values of an index list, in first-occurrence order, and the
/// position of every sample's value among them. See the
/// [module documentation](self).
///
/// ```
/// use dlrm_data::DistinctRows;
///
/// let mut rows = DistinctRows::new();
/// rows.build(&[7, 3, 7, 9, 3]);
/// assert_eq!(rows.unique(), &[7, 3, 9]);
/// assert_eq!(rows.slots(), &[0, 1, 0, 2, 1]);
///
/// // One row of width 2 per distinct index, re-expanded to one per sample.
/// let mut values = vec![7.0, 7.5, 3.0, 3.5, 9.0, 9.5];
/// rows.expand_in_place(&mut values, 2);
/// assert_eq!(values, [7.0, 7.5, 3.0, 3.5, 7.0, 7.5, 9.0, 9.5, 3.0, 3.5]);
///
/// // And back: one gradient row per sample, summed per distinct index.
/// let mut sums = Vec::new();
/// rows.sum_rows_into(&values, 2, &mut sums);
/// assert_eq!(sums, [14.0, 15.0, 6.0, 7.0, 9.0, 9.5]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DistinctRows {
    unique: Vec<u32>,
    slots: Vec<u32>,
    /// Power-of-two open-addressed table, at least twice the samples of the
    /// largest build so far, so probes stay short and always find a hole.
    table: Vec<Entry>,
    /// Stamp of the current build: bumping it empties the table in O(1).
    stamp: u32,
}

impl DistinctRows {
    /// An empty index that owns no storage yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index `indices`: afterwards [`DistinctRows::unique`] holds its
    /// distinct values in first-occurrence order and
    /// [`DistinctRows::slots`] one position into them per sample. Allocates
    /// only when `indices` is longer than every list built before.
    pub fn build(&mut self, indices: &[u32]) {
        self.unique.clear();
        self.slots.clear();
        self.unique.reserve(indices.len());
        self.slots.reserve(indices.len());
        let size = 2 * indices.len().next_power_of_two();
        if self.table.len() < size {
            self.table.clear();
            self.table.resize(size, Entry::default());
            self.stamp = 0;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.table.fill(Entry::default());
            self.stamp = 1;
        }
        let mask = self.table.len() - 1;
        let shift = u64::BITS - self.table.len().trailing_zeros();
        for &index in indices {
            // Fibonacci hashing: the product's top bits pick the bucket.
            let mut pos =
                ((u64::from(index)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
            let slot = loop {
                let entry = &mut self.table[pos];
                if entry.stamp != self.stamp {
                    let slot = self.unique.len() as u32;
                    *entry = Entry {
                        stamp: self.stamp,
                        index,
                        slot,
                    };
                    self.unique.push(index);
                    break slot;
                }
                if entry.index == index {
                    break entry.slot;
                }
                pos = (pos + 1) & mask;
            };
            self.slots.push(slot);
        }
    }

    /// The distinct indices of the last build, in first-occurrence order.
    pub fn unique(&self) -> &[u32] {
        &self.unique
    }

    /// Per sample of the last build, the position of its index in
    /// [`DistinctRows::unique`].
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// Re-expand `values`, one row of `dim` values per distinct index, into
    /// one row per sample, in place.
    ///
    /// Rows are written from the last sample back: sample `i`'s slot is at
    /// most `i` (first-occurrence order), so the row it copies has not been
    /// overwritten yet. Allocates only if `values` lacks the capacity for
    /// every sample's row.
    ///
    /// # Panics
    /// Panics if `values` does not hold exactly one row per distinct index.
    pub fn expand_in_place(&self, values: &mut Vec<f32>, dim: usize) {
        assert_eq!(
            values.len(),
            self.unique.len() * dim,
            "expected one row of {dim} values per distinct index"
        );
        values.resize(self.slots.len() * dim, 0.0);
        for (i, &slot) in self.slots.iter().enumerate().rev() {
            let slot = slot as usize;
            if slot != i {
                values.copy_within(slot * dim..(slot + 1) * dim, i * dim);
            }
        }
    }

    /// Sum `values`, one row of `dim` values per sample, into `out`, one row
    /// per distinct index — the adjoint of
    /// [`DistinctRows::expand_in_place`], and how a gradient reaches a row
    /// that several samples looked up.
    ///
    /// Row `j` of `out` is the sum of every sample row whose slot is `j`,
    /// added in sample order starting from `+0.0`. `out` is overwritten and
    /// keeps its storage, so it allocates only if it lacks the capacity for
    /// one row per distinct index.
    ///
    /// # Panics
    /// Panics if `values` does not hold exactly one row per sample.
    pub fn sum_rows_into(&self, values: &[f32], dim: usize, out: &mut Vec<f32>) {
        assert_eq!(
            values.len(),
            self.slots.len() * dim,
            "expected one row of {dim} values per sample"
        );
        out.clear();
        out.resize(self.unique.len() * dim, 0.0);
        if dim == 0 {
            return;
        }
        for (&slot, row) in self.slots.iter().zip(values.chunks_exact(dim)) {
            let slot = slot as usize;
            for (acc, &v) in out[slot * dim..(slot + 1) * dim].iter_mut().zip(row) {
                *acc += v;
            }
        }
    }

    /// Heap bytes the index holds, for allocation accounting.
    pub fn capacity_bytes(&self) -> u64 {
        ((self.unique.capacity() + self.slots.capacity()) * 4
            + self.table.capacity() * std::mem::size_of::<Entry>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn built(indices: &[u32]) -> DistinctRows {
        let mut rows = DistinctRows::new();
        rows.build(indices);
        rows
    }

    /// Every sample's slot names its own index.
    fn assert_consistent(rows: &DistinctRows, indices: &[u32]) {
        assert_eq!(rows.slots().len(), indices.len());
        for (&slot, &index) in rows.slots().iter().zip(indices) {
            assert_eq!(rows.unique()[slot as usize], index);
        }
    }

    #[test]
    fn first_occurrence_order_is_pinned() {
        let indices = [5, 1, 5, 5, 8, 1, 0, 8, 2];
        let rows = built(&indices);
        assert_eq!(rows.unique(), &[5, 1, 8, 0, 2]);
        assert_eq!(rows.slots(), &[0, 1, 0, 0, 2, 1, 3, 2, 4]);
    }

    #[test]
    fn empty_input_has_no_rows() {
        let rows = built(&[]);
        assert!(rows.unique().is_empty() && rows.slots().is_empty());
        let mut values = Vec::new();
        rows.expand_in_place(&mut values, 4);
        assert!(values.is_empty());
        let mut sums = vec![1.0; 3];
        rows.sum_rows_into(&values, 4, &mut sums);
        assert!(sums.is_empty());
    }

    #[test]
    fn one_row_is_its_own_distinct_row() {
        let rows = built(&[42]);
        assert_eq!((rows.unique(), rows.slots()), (&[42][..], &[0][..]));
        let mut sums = Vec::new();
        rows.sum_rows_into(&[1.5, -0.0, 3.0], 3, &mut sums);
        // Summed from +0.0: a lone -0.0 comes back as +0.0.
        assert_eq!(sums, [1.5, 0.0, 3.0]);
        assert!(sums[1].is_sign_positive());
    }

    #[test]
    fn all_equal_indices_collapse_to_one_row() {
        let rows = built(&[3; 100]);
        assert_eq!(rows.unique(), &[3]);
        assert!(rows.slots().iter().all(|&s| s == 0));
        let mut values = vec![1.0, 2.0];
        rows.expand_in_place(&mut values, 2);
        assert_eq!(values, [1.0, 2.0].repeat(100));
        let mut sums = Vec::new();
        rows.sum_rows_into(&values, 2, &mut sums);
        assert_eq!(sums, [100.0, 200.0]);
    }

    #[test]
    fn all_distinct_rows_sum_to_themselves() {
        let indices: Vec<u32> = (0..257).rev().collect();
        let rows = built(&indices);
        let values: Vec<f32> = (0..257 * 3).map(|v| v as f32 - 300.0).collect();
        let mut sums = vec![9.0; 5000];
        rows.sum_rows_into(&values, 3, &mut sums);
        assert_eq!(sums, values);
    }

    #[test]
    fn rows_sum_in_sample_order() {
        // 1e8 + 1 − 1e8 is 0 in f32 sample order; cancelling the large
        // pair first would leave 1.
        let rows = built(&[4, 2, 4, 4]);
        let mut sums = Vec::new();
        rows.sum_rows_into(&[1e8, 7.0, 1.0, -1e8], 1, &mut sums);
        assert_eq!(sums, [0.0, 7.0]);
    }

    #[test]
    fn all_distinct_indices_are_the_identity() {
        let indices: Vec<u32> = (0..257).rev().collect();
        let rows = built(&indices);
        assert_eq!(rows.unique(), &indices[..]);
        assert!(rows
            .slots()
            .iter()
            .enumerate()
            .all(|(i, &s)| s as usize == i));
        let mut values: Vec<f32> = (0..257 * 3).map(|v| v as f32).collect();
        let before = values.clone();
        rows.expand_in_place(&mut values, 3);
        assert_eq!(values, before);
    }

    #[test]
    fn indices_near_the_top_of_the_range_stay_distinct() {
        let indices = [u32::MAX, u32::MAX - 1, 0, u32::MAX, 1 << 31, u32::MAX - 1];
        let rows = built(&indices);
        assert_eq!(rows.unique(), &[u32::MAX, u32::MAX - 1, 0, 1 << 31]);
        assert_consistent(&rows, &indices);
    }

    #[test]
    fn a_reused_index_forgets_earlier_builds() {
        let mut rows = DistinctRows::new();
        for indices in [
            &[9, 9, 4, 7][..],
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 4, 9],
            &[4, 7],
            &[],
            &[7, 4, 7],
        ] {
            rows.build(indices);
            assert_consistent(&rows, indices);
            let mut seen = Vec::new();
            for &i in indices {
                if !seen.contains(&i) {
                    seen.push(i);
                }
            }
            assert_eq!(rows.unique(), &seen[..]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Looking up the distinct rows and re-expanding them is, bit for
        /// bit, the one-row-per-sample lookup.
        #[test]
        fn expanded_distinct_lookup_is_the_full_lookup(
            indices in prop::collection::vec(0u32..40, 0..300),
            dim in 1usize..9,
            seed in any::<u32>(),
        ) {
            let weights: Vec<f32> = (0..40 * dim as u32)
                .map(|v| f32::from_bits(v.wrapping_mul(0x9e37_79b9) ^ seed))
                .collect();
            let lookup = |ids: &[u32]| -> Vec<f32> {
                ids.iter()
                    .flat_map(|&i| &weights[i as usize * dim..(i as usize + 1) * dim])
                    .copied()
                    .collect()
            };
            let rows = built(&indices);
            let mut values = lookup(rows.unique());
            rows.expand_in_place(&mut values, dim);
            let full = lookup(&indices);
            prop_assert_eq!(
                values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                full.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }

        /// The sum is, bit for bit, a per-slot reference that adds every
        /// sample row of the slot in sample order from +0.0 — over arbitrary
        /// bit patterns, infinities and NaNs included. Which input NaN's
        /// payload an addition keeps is up to the code generator (it may
        /// swap an addition's operands), so NaNs compare as NaN.
        #[test]
        fn summed_rows_are_the_sample_order_sums(
            indices in prop::collection::vec(0u32..40, 0..300),
            dim in 1usize..9,
            seed in any::<u32>(),
        ) {
            let values: Vec<f32> = (0..(indices.len() * dim) as u32)
                .map(|v| f32::from_bits(v.wrapping_mul(0x9e37_79b9) ^ seed))
                .collect();
            let rows = built(&indices);
            let mut sums = vec![f32::NAN; 7];
            rows.sum_rows_into(&values, dim, &mut sums);
            let mut want = Vec::new();
            for slot in 0..rows.unique().len() {
                for c in 0..dim {
                    let mut acc = 0.0f32;
                    for (i, &s) in rows.slots().iter().enumerate() {
                        if s as usize == slot {
                            acc += values[i * dim + c];
                        }
                    }
                    want.push(acc);
                }
            }
            let bits = |v: &[f32]| -> Vec<u32> {
                v.iter()
                    .map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() })
                    .collect()
            };
            prop_assert_eq!(bits(&sums), bits(&want));
        }

        /// Summing is the adjoint of re-expanding:
        /// ⟨expand(y), g⟩ = ⟨y, sum(g)⟩ up to f32 rounding.
        #[test]
        fn summing_is_the_adjoint_of_expanding(
            indices in prop::collection::vec(0u32..40, 0..300),
            dim in 1usize..9,
            seed in any::<u32>(),
        ) {
            let rows = built(&indices);
            let unit = |k: u32| (k.wrapping_mul(0x9e37_79b9) ^ seed) as f32 / u32::MAX as f32 - 0.5;
            let y: Vec<f32> = (0..(rows.unique().len() * dim) as u32).map(unit).collect();
            let g: Vec<f32> = (0..(indices.len() * dim) as u32).map(|k| unit(!k)).collect();
            let dot = |a: &[f32], b: &[f32]| -> f64 {
                a.iter().zip(b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum()
            };
            let mut expanded = y.clone();
            rows.expand_in_place(&mut expanded, dim);
            let mut summed = Vec::new();
            rows.sum_rows_into(&g, dim, &mut summed);
            let (lhs, rhs) = (dot(&expanded, &g), dot(&y, &summed));
            let scale: f64 = expanded.iter().zip(&g).map(|(&a, &b)| f64::from((a * b).abs())).sum();
            prop_assert!(
                (lhs - rhs).abs() <= 1e-5 * scale + 1e-12,
                "⟨expand(y), g⟩ = {} but ⟨y, sum(g)⟩ = {}", lhs, rhs
            );
        }
    }
}
