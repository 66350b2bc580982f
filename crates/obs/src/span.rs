//! The per-rank span recorder: a preallocated ring of `Copy` records.
//!
//! The recorder is designed around one constraint: the trainer's inner loop
//! must not allocate in its steady state, with or without tracing. Every
//! record is a fixed-size [`SpanRecord`] holding a `&'static str` name, the
//! backing store is a `Vec` filled to a capacity chosen up front (before
//! the warm-up iterations end), and once full the ring overwrites its
//! oldest entries rather than growing — `dropped` counts what was lost.

use std::time::Instant;

/// Which clock a recorder stamps its records with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockDomain {
    /// Virtual seconds from the rank's α–β ledger. Deterministic: two runs
    /// of the same configuration produce byte-identical traces. The right
    /// domain for the sequential executor, where wall time is meaningless.
    #[default]
    Modeled,
    /// Real seconds from a per-recorder [`Instant`] epoch. The right domain
    /// for the threaded executor, where the trace shows genuine overlap of
    /// codec work and paced wire time.
    Wall,
}

impl ClockDomain {
    /// Short lowercase name, used in export metadata.
    pub fn label(self) -> &'static str {
        match self {
            ClockDomain::Modeled => "modeled",
            ClockDomain::Wall => "wall",
        }
    }
}

/// What a [`SpanRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A completed pipeline-phase span (`name` is the ledger phase).
    Phase,
    /// The enclosing per-iteration span.
    Iteration,
    /// The runtime controller switched a table's codec (`arg` = table
    /// index).
    CodecReselection,
    /// The controller revised the error-bound scale (`value` = new scale).
    EbScaleChange,
    /// A checkpoint was written (`arg` = encoded bytes).
    CheckpointWrite,
    /// A rank left the world (`arg` = lost rank).
    RankLoss,
    /// The world resized (`arg` = new world size).
    Resize,
    /// A straggler window opened on this rank (`value` = slowdown factor).
    StragglerStart,
    /// A straggler window closed on this rank.
    StragglerEnd,
}

impl RecordKind {
    /// Display name used as the event name in trace exports.
    pub fn label(self) -> &'static str {
        match self {
            RecordKind::Phase => "phase",
            RecordKind::Iteration => "iteration",
            RecordKind::CodecReselection => "codec reselection",
            RecordKind::EbScaleChange => "eb scale change",
            RecordKind::CheckpointWrite => "checkpoint write",
            RecordKind::RankLoss => "rank loss",
            RecordKind::Resize => "resize",
            RecordKind::StragglerStart => "straggler start",
            RecordKind::StragglerEnd => "straggler end",
        }
    }

    /// Instant events have zero duration in the exported trace.
    pub fn is_instant(self) -> bool {
        !matches!(self, RecordKind::Phase | RecordKind::Iteration)
    }
}

/// One entry in the ring: a span (`start < end`) or an instant
/// (`start == end`), in the recorder's clock domain, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// What this record describes.
    pub kind: RecordKind,
    /// Span name: the ledger phase for [`RecordKind::Phase`], the kind's
    /// label otherwise.
    pub name: &'static str,
    /// Span start, seconds in the recorder's clock domain.
    pub start: f64,
    /// Span end; equals `start` for instant events.
    pub end: f64,
    /// The training iteration the record belongs to.
    pub iteration: u64,
    /// Integer payload (table index, bytes, rank — see [`RecordKind`]).
    pub arg: u64,
    /// Float payload (scale, slowdown factor — see [`RecordKind`]).
    pub value: f64,
}

/// Per-rank recorder. Create it before the training loop (its one
/// allocation is the ring itself), then `begin_iteration` / `mark` /
/// `instant` / `end_iteration` from the hot path without ever allocating.
#[derive(Debug)]
pub struct SpanRecorder {
    rank: usize,
    clock: ClockDomain,
    epoch: Instant,
    records: Vec<SpanRecord>,
    /// Next overwrite position once the ring is full.
    head: usize,
    dropped: u64,
    last_mark: f64,
    iter_start: f64,
    current_iter: u64,
}

impl SpanRecorder {
    /// A recorder for `rank` stamping `clock`, with room for `capacity`
    /// records (≥ 1 enforced). The ring never grows past this.
    pub fn new(rank: usize, clock: ClockDomain, capacity: usize) -> Self {
        SpanRecorder {
            rank,
            clock,
            epoch: Instant::now(),
            records: Vec::with_capacity(capacity.max(1)),
            head: 0,
            dropped: 0,
            last_mark: 0.0,
            iter_start: 0.0,
            current_iter: 0,
        }
    }

    /// Ring capacity that holds a full run of `iterations`: the pipeline
    /// emits at most 16 phase spans (one per `dlrm_comm::phase` name) + 1
    /// iteration span per iteration, plus a handful of instants. Capped so
    /// a million-iteration request cannot ask for gigabytes.
    pub fn capacity_for(iterations: usize) -> usize {
        iterations
            .saturating_mul(24)
            .saturating_add(64)
            .min(1 << 20)
    }

    /// This recorder's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// This recorder's clock domain.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Records lost to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The fixed ring capacity chosen at construction.
    pub fn capacity(&self) -> usize {
        self.records.capacity()
    }

    /// The records currently held (insertion order is not chronological
    /// once the ring has wrapped; exporters sort by `start`).
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Resolve "now": `modeled_now` (the caller's ledger total) under
    /// [`ClockDomain::Modeled`], the epoch-relative wall clock under
    /// [`ClockDomain::Wall`].
    fn now(&self, modeled_now: f64) -> f64 {
        match self.clock {
            ClockDomain::Modeled => modeled_now,
            ClockDomain::Wall => self.epoch.elapsed().as_secs_f64(),
        }
    }

    /// Open iteration `iteration`: subsequent phase marks close spans
    /// started here, and `end_iteration` emits the enclosing span.
    pub fn begin_iteration(&mut self, iteration: u64, modeled_now: f64) {
        let now = self.now(modeled_now);
        self.current_iter = iteration;
        self.iter_start = now;
        self.last_mark = now;
    }

    /// Close the span running since the previous mark and attribute it to
    /// `phase` — the recorder twin of the pipeline's `WallClock::mark`.
    pub fn mark(&mut self, phase: &'static str, modeled_now: f64) {
        let now = self.now(modeled_now);
        let rec = SpanRecord {
            kind: RecordKind::Phase,
            name: phase,
            start: self.last_mark,
            end: now,
            iteration: self.current_iter,
            arg: 0,
            value: 0.0,
        };
        self.last_mark = now;
        self.push(rec);
    }

    /// Close the span since the previous mark as *two* spans: the first
    /// `codec_seconds` attributed to `codec_phase`, the remainder to
    /// `rest_phase` — the twin of `WallClock::mark_split` used by the
    /// overlapped exchange paths.
    pub fn mark_split(
        &mut self,
        codec_phase: &'static str,
        codec_seconds: f64,
        rest_phase: &'static str,
        modeled_now: f64,
    ) {
        let now = self.now(modeled_now);
        let split = (self.last_mark + codec_seconds.max(0.0)).min(now);
        let iter = self.current_iter;
        let codec = SpanRecord {
            kind: RecordKind::Phase,
            name: codec_phase,
            start: self.last_mark,
            end: split,
            iteration: iter,
            arg: 0,
            value: 0.0,
        };
        let rest = SpanRecord {
            kind: RecordKind::Phase,
            name: rest_phase,
            start: split,
            end: now,
            iteration: iter,
            arg: 0,
            value: 0.0,
        };
        self.last_mark = now;
        self.push(codec);
        self.push(rest);
    }

    /// Emit the enclosing span for the current iteration.
    pub fn end_iteration(&mut self, modeled_now: f64) {
        let now = self.now(modeled_now);
        let rec = SpanRecord {
            kind: RecordKind::Iteration,
            name: RecordKind::Iteration.label(),
            start: self.iter_start,
            end: now,
            iteration: self.current_iter,
            arg: 0,
            value: 0.0,
        };
        self.last_mark = now;
        self.push(rec);
    }

    /// Emit a zero-duration event at "now" with the kind's payloads.
    pub fn instant(&mut self, kind: RecordKind, modeled_now: f64, arg: u64, value: f64) {
        debug_assert!(kind.is_instant(), "use mark/end_iteration for spans");
        let now = self.now(modeled_now);
        let rec = SpanRecord {
            kind,
            name: kind.label(),
            start: now,
            end: now,
            iteration: self.current_iter,
            arg,
            value,
        };
        self.push(rec);
    }

    /// Append within the preallocated ring; overwrite the oldest entry
    /// (bumping `dropped`) once full. Never reallocates.
    fn push(&mut self, rec: SpanRecord) {
        if self.records.len() < self.records.capacity() {
            self.records.push(rec);
        } else {
            self.records[self.head] = rec;
            self.head = (self.head + 1) % self.records.len();
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_clock_uses_caller_timestamps() {
        let mut r = SpanRecorder::new(0, ClockDomain::Modeled, 16);
        r.begin_iteration(3, 10.0);
        r.mark("lookup", 10.5);
        r.mark("a2a", 12.0);
        r.end_iteration(12.0);
        let recs = r.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].name, "lookup");
        assert_eq!((recs[0].start, recs[0].end), (10.0, 10.5));
        assert_eq!((recs[1].start, recs[1].end), (10.5, 12.0));
        assert_eq!(recs[2].kind, RecordKind::Iteration);
        assert_eq!((recs[2].start, recs[2].end), (10.0, 12.0));
        assert_eq!(recs[2].iteration, 3);
    }

    #[test]
    fn modeled_clock_is_deterministic() {
        let run = || {
            let mut r = SpanRecorder::new(1, ClockDomain::Modeled, 8);
            r.begin_iteration(0, 0.0);
            r.mark("x", 1.25);
            r.instant(RecordKind::CheckpointWrite, 1.25, 512, 0.0);
            r.end_iteration(2.5);
            r.records().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wall_clock_advances_monotonically() {
        let mut r = SpanRecorder::new(0, ClockDomain::Wall, 8);
        r.begin_iteration(0, 0.0);
        r.mark("x", 0.0);
        r.mark("y", 0.0);
        let recs = r.records();
        assert!(recs[0].end >= recs[0].start);
        assert!(recs[1].start >= recs[0].end - 1e-12);
    }

    #[test]
    fn mark_split_partitions_the_interval() {
        let mut r = SpanRecorder::new(0, ClockDomain::Modeled, 8);
        r.begin_iteration(0, 0.0);
        r.mark_split("codec", 0.3, "wire", 1.0);
        let recs = r.records();
        assert_eq!((recs[0].start, recs[0].end), (0.0, 0.3));
        assert_eq!((recs[1].start, recs[1].end), (0.3, 1.0));
        // Codec time longer than the interval clamps to the interval.
        r.mark_split("codec", 9.0, "wire", 1.5);
        let recs = r.records();
        assert_eq!((recs[2].start, recs[2].end), (1.0, 1.5));
        assert_eq!((recs[3].start, recs[3].end), (1.5, 1.5));
    }

    #[test]
    fn ring_overwrites_oldest_without_growing() {
        let mut r = SpanRecorder::new(0, ClockDomain::Modeled, 4);
        let cap = 4;
        r.begin_iteration(0, 0.0);
        for i in 0..10 {
            r.mark("x", (i + 1) as f64);
        }
        assert_eq!(r.records().len(), cap);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.capacity(), cap);
        // The newest record is retained somewhere in the ring.
        assert!(r.records().iter().any(|rec| rec.end == 10.0));
    }

    #[test]
    fn capacity_estimate_scales_and_caps() {
        assert!(SpanRecorder::capacity_for(10) >= 10 * (16 + 1));
        assert_eq!(SpanRecorder::capacity_for(usize::MAX), 1 << 20);
    }
}
