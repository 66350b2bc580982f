//! Per-rank accounting of where (virtual and real) time goes.
//!
//! The trainer records every pipeline stage — embedding lookup, compression,
//! all-to-all, decompression, MLP compute, … — into
//! a [`TimingLedger`]. Virtual seconds come from the α–β cost model (network
//! phases), real seconds from `Instant` measurements (compute and
//! compression phases). Ledgers from all ranks are merged to produce the
//! breakdowns of Figures 1 and 12.

use std::collections::BTreeMap;

/// Accumulates seconds, bytes moved, and buffer-allocation accounting per
/// named phase.
///
/// The `allocated` / `reused` counters record how many bytes of buffer
/// capacity a phase obtained from fresh heap allocations vs recycled pool
/// leases and scratch buffers — the evidence behind the zero-allocation
/// steady-state claim of the compress → send pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimingLedger {
    seconds: BTreeMap<String, f64>,
    bytes: BTreeMap<String, u64>,
    allocated: BTreeMap<String, u64>,
    reused: BTreeMap<String, u64>,
    /// Virtual seconds the overlapped (double-buffered) pipeline hid per
    /// phase: codec time that ran while a chunk was on the wire. A phase's
    /// *un-overlapped* cost is `seconds(phase) + overlap_saved(phase)`.
    overlap_saved: BTreeMap<String, f64>,
}

impl TimingLedger {
    /// Create an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `seconds` to `phase`.
    pub fn add_time(&mut self, phase: &str, seconds: f64) {
        *charge(&mut self.seconds, phase) += seconds;
    }

    /// Add `bytes` moved during `phase`.
    pub fn add_bytes(&mut self, phase: &str, bytes: u64) {
        *charge(&mut self.bytes, phase) += bytes;
    }

    /// Seconds accumulated for `phase` (0 if never recorded).
    pub fn seconds(&self, phase: &str) -> f64 {
        self.seconds.get(phase).copied().unwrap_or(0.0)
    }

    /// Bytes accumulated for `phase` (0 if never recorded).
    pub fn bytes(&self, phase: &str) -> u64 {
        self.bytes.get(phase).copied().unwrap_or(0)
    }

    /// Record `bytes` of freshly allocated buffer capacity in `phase`.
    pub fn add_allocated_bytes(&mut self, phase: &str, bytes: u64) {
        if bytes > 0 {
            *charge(&mut self.allocated, phase) += bytes;
        }
    }

    /// Record `bytes` of buffer capacity served from recycled pool leases or
    /// scratch buffers in `phase`.
    pub fn add_reused_bytes(&mut self, phase: &str, bytes: u64) {
        if bytes > 0 {
            *charge(&mut self.reused, phase) += bytes;
        }
    }

    /// Freshly allocated buffer bytes recorded for `phase`.
    pub fn allocated_bytes(&self, phase: &str) -> u64 {
        self.allocated.get(phase).copied().unwrap_or(0)
    }

    /// Recycled buffer bytes recorded for `phase`.
    pub fn reused_bytes(&self, phase: &str) -> u64 {
        self.reused.get(phase).copied().unwrap_or(0)
    }

    /// Record `seconds` of codec time that the overlapped pipeline hid
    /// behind `phase`'s wire time.
    pub fn add_overlap_saved(&mut self, phase: &str, seconds: f64) {
        if seconds > 0.0 {
            *charge(&mut self.overlap_saved, phase) += seconds;
        }
    }

    /// Seconds of hidden (overlapped-away) time recorded for `phase`.
    pub fn overlap_saved(&self, phase: &str) -> f64 {
        self.overlap_saved.get(phase).copied().unwrap_or(0.0)
    }

    /// Total hidden seconds across all phases — how much faster the
    /// overlapped pipeline is than its sequential schedule.
    pub fn total_overlap_saved(&self) -> f64 {
        self.overlap_saved.values().sum()
    }

    /// Total freshly allocated buffer bytes across all phases.
    pub fn total_allocated_bytes(&self) -> u64 {
        self.allocated.values().sum()
    }

    /// Total recycled buffer bytes across all phases.
    pub fn total_reused_bytes(&self) -> u64 {
        self.reused.values().sum()
    }

    /// Total seconds across all phases.
    pub fn total_seconds(&self) -> f64 {
        self.seconds.values().sum()
    }

    /// All phases with their seconds, sorted by phase name.
    pub fn phases(&self) -> Vec<(String, f64)> {
        self.seconds.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Fraction of the total spent in `phase` (0 if the ledger is empty).
    pub fn fraction(&self, phase: &str) -> f64 {
        let total = self.total_seconds();
        if total <= 0.0 {
            0.0
        } else {
            self.seconds(phase) / total
        }
    }

    /// Merge another ledger into this one by *summing* phase times (used to
    /// average across iterations on a single rank).
    pub fn merge_sum(&mut self, other: &TimingLedger) {
        for (k, v) in &other.seconds {
            *self.seconds.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, v) in &other.bytes {
            *self.bytes.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.allocated {
            *self.allocated.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.reused {
            *self.reused.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.overlap_saved {
            *self.overlap_saved.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// Merge ledgers from all ranks by taking the *maximum* per phase — the
    /// slowest rank determines the iteration time of a bulk-synchronous step.
    pub fn merge_max(ledgers: &[TimingLedger]) -> TimingLedger {
        let mut out = TimingLedger::new();
        for ledger in ledgers {
            for (k, v) in &ledger.seconds {
                let entry = out.seconds.entry(k.clone()).or_insert(0.0);
                *entry = entry.max(*v);
            }
            for (k, v) in &ledger.bytes {
                let entry = out.bytes.entry(k.clone()).or_insert(0);
                *entry = (*entry).max(*v);
            }
            for (k, v) in &ledger.allocated {
                let entry = out.allocated.entry(k.clone()).or_insert(0);
                *entry = (*entry).max(*v);
            }
            for (k, v) in &ledger.reused {
                let entry = out.reused.entry(k.clone()).or_insert(0);
                *entry = (*entry).max(*v);
            }
            for (k, v) in &ledger.overlap_saved {
                let entry = out.overlap_saved.entry(k.clone()).or_insert(0.0);
                *entry = entry.max(*v);
            }
        }
        out
    }
}

/// `phase`'s counter in `map`, looked up by `&str`: the key is allocated
/// only on the phase's first charge, so a steady-state charge allocates
/// nothing.
fn charge<'m, V: Default>(map: &'m mut BTreeMap<String, V>, phase: &str) -> &'m mut V {
    if !map.contains_key(phase) {
        map.insert(phase.to_owned(), V::default());
    }
    map.get_mut(phase).expect("inserted above")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_reports() {
        let mut l = TimingLedger::new();
        l.add_time("a2a", 0.5);
        l.add_time("a2a", 0.25);
        l.add_time("mlp", 0.25);
        l.add_bytes("a2a", 1000);
        assert!((l.seconds("a2a") - 0.75).abs() < 1e-12);
        assert!((l.total_seconds() - 1.0).abs() < 1e-12);
        assert!((l.fraction("a2a") - 0.75).abs() < 1e-12);
        assert_eq!(l.bytes("a2a"), 1000);
        assert_eq!(l.seconds("missing"), 0.0);
    }

    #[test]
    fn merge_sum_adds_phases() {
        let mut a = TimingLedger::new();
        a.add_time("x", 1.0);
        let mut b = TimingLedger::new();
        b.add_time("x", 2.0);
        b.add_time("y", 3.0);
        a.merge_sum(&b);
        assert_eq!(a.seconds("x"), 3.0);
        assert_eq!(a.seconds("y"), 3.0);
    }

    #[test]
    fn merge_max_takes_slowest_rank() {
        let mut a = TimingLedger::new();
        a.add_time("a2a", 1.0);
        a.add_time("mlp", 5.0);
        let mut b = TimingLedger::new();
        b.add_time("a2a", 2.0);
        b.add_time("mlp", 1.0);
        let merged = TimingLedger::merge_max(&[a, b]);
        assert_eq!(merged.seconds("a2a"), 2.0);
        assert_eq!(merged.seconds("mlp"), 5.0);
    }

    #[test]
    fn empty_ledger_fraction_is_zero() {
        assert_eq!(TimingLedger::new().fraction("x"), 0.0);
    }

    #[test]
    fn zero_total_fraction_is_zero_not_nan() {
        // A ledger can be non-empty with zero accumulated seconds (phases
        // touched with 0.0, or bytes-only accounting); fraction must stay a
        // well-defined 0.0 rather than 0.0 / 0.0 = NaN.
        let mut l = TimingLedger::new();
        l.add_time("a2a", 0.0);
        l.add_bytes("a2a", 4096);
        assert_eq!(l.total_seconds(), 0.0);
        let f = l.fraction("a2a");
        assert!(
            !f.is_nan(),
            "fraction of a zero-total ledger must not be NaN"
        );
        assert_eq!(f, 0.0);
    }

    #[test]
    fn merge_sum_adds_all_counter_maps() {
        let mut a = TimingLedger::new();
        a.add_bytes("a2a", 100);
        a.add_allocated_bytes("a2a", 10);
        a.add_reused_bytes("a2a", 1000);
        a.add_overlap_saved("a2a", 0.5);
        let mut b = TimingLedger::new();
        b.add_bytes("a2a", 50);
        b.add_bytes("ar", 7);
        b.add_allocated_bytes("a2a", 4);
        b.add_allocated_bytes("ar", 2);
        b.add_reused_bytes("a2a", 500);
        b.add_overlap_saved("a2a", 0.25);
        a.merge_sum(&b);
        assert_eq!(a.bytes("a2a"), 150);
        assert_eq!(a.bytes("ar"), 7);
        assert_eq!(a.allocated_bytes("a2a"), 14);
        assert_eq!(a.allocated_bytes("ar"), 2);
        assert_eq!(a.reused_bytes("a2a"), 1500);
        assert!((a.overlap_saved("a2a") - 0.75).abs() < 1e-12);
        assert_eq!(a.total_allocated_bytes(), 16);
        assert_eq!(a.total_reused_bytes(), 1500);
    }

    #[test]
    fn merge_max_takes_per_phase_max_of_all_counter_maps() {
        let mut a = TimingLedger::new();
        a.add_bytes("a2a", 100);
        a.add_allocated_bytes("a2a", 10);
        a.add_reused_bytes("a2a", 300);
        a.add_overlap_saved("a2a", 0.5);
        let mut b = TimingLedger::new();
        b.add_bytes("a2a", 50);
        b.add_allocated_bytes("a2a", 40);
        b.add_allocated_bytes("ar", 8);
        b.add_reused_bytes("a2a", 200);
        b.add_overlap_saved("a2a", 0.75);
        let merged = TimingLedger::merge_max(&[a, b]);
        // Per phase, per map: the slowest/biggest rank wins independently.
        assert_eq!(merged.bytes("a2a"), 100);
        assert_eq!(merged.allocated_bytes("a2a"), 40);
        assert_eq!(merged.allocated_bytes("ar"), 8);
        assert_eq!(merged.reused_bytes("a2a"), 300);
        assert!((merged.overlap_saved("a2a") - 0.75).abs() < 1e-12);
    }

    #[test]
    fn overlap_saved_accumulates_and_merges() {
        let mut a = TimingLedger::new();
        a.add_overlap_saved("a2a", 0.5);
        a.add_overlap_saved("a2a", 0.25);
        a.add_overlap_saved("ignored", 0.0); // zero entries are not recorded
        assert!((a.overlap_saved("a2a") - 0.75).abs() < 1e-12);
        assert_eq!(a.overlap_saved("ignored"), 0.0);
        assert!((a.total_overlap_saved() - 0.75).abs() < 1e-12);

        let mut b = TimingLedger::new();
        b.add_overlap_saved("a2a", 1.0);
        a.merge_sum(&b);
        assert!((a.overlap_saved("a2a") - 1.75).abs() < 1e-12);

        let merged = TimingLedger::merge_max(&[a, b]);
        assert!((merged.overlap_saved("a2a") - 1.75).abs() < 1e-12);
    }
}
