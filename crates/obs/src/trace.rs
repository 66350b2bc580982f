//! Chrome trace-event JSON export.
//!
//! [`TraceExport::to_chrome_trace`] emits the [Trace Event Format] consumed
//! by Perfetto and `chrome://tracing`: one JSON object with a `traceEvents`
//! array of complete spans (`"ph":"X"`), instant events (`"ph":"i"`) and
//! thread-name metadata (`"ph":"M"`). Every rank becomes one track (`tid` =
//! rank, all under `pid` 0); phase spans nest inside their iteration span
//! by timestamp containment, which is how the viewers infer hierarchy.
//! Timestamps are microseconds, converted from the recorder's seconds.
//!
//! The encoder is a hand-rolled string builder, and its output is
//! deterministic:
//! records are sorted by start time (ties broken structurally), so a
//! modeled-clock trace is byte-identical across runs.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::span::{ClockDomain, RecordKind, SpanRecord, SpanRecorder};

/// One rank's worth of records, detached from its recorder.
#[derive(Debug, Clone, Default)]
pub struct RankTrack {
    /// The rank this track belongs to (`tid` in the export).
    pub rank: usize,
    /// The clock domain its timestamps live in.
    pub clock: ClockDomain,
    /// Records lost to ring wrap-around on this rank.
    pub dropped: u64,
    /// The records themselves, not necessarily chronological.
    pub records: Vec<SpanRecord>,
}

impl From<SpanRecorder> for RankTrack {
    fn from(rec: SpanRecorder) -> Self {
        RankTrack {
            rank: rec.rank(),
            clock: rec.clock(),
            dropped: rec.dropped(),
            records: rec.records().to_vec(),
        }
    }
}

/// A whole run's trace: per-rank tracks plus driver-level world events
/// (rank loss, resize) that belong to no single rank.
#[derive(Debug, Clone, Default)]
pub struct TraceExport {
    /// One track per rank.
    pub tracks: Vec<RankTrack>,
    /// World events, rendered on their own track above the ranks.
    pub global: Vec<SpanRecord>,
}

impl TraceExport {
    /// Total records across all tracks (excluding `global`).
    pub fn record_count(&self) -> usize {
        self.tracks.iter().map(|t| t.records.len()).sum()
    }

    /// Serialize to Chrome trace-event JSON.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(128 + 160 * (self.record_count() + self.global.len()));
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        push_event(&mut out, &mut first, |out| {
            out.push_str(
                "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{\"name\":\"dlrm-lossy-comm\"}}",
            );
        });
        let world_tid = self.tracks.iter().map(|t| t.rank + 1).max().unwrap_or(0);
        for track in &self.tracks {
            push_event(&mut out, &mut first, |out| {
                out.push_str(&format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"rank {} ({} clock)\"}}}}",
                    track.rank,
                    track.rank,
                    track.clock.label()
                ));
            });
            for rec in sorted(&track.records) {
                push_event(&mut out, &mut first, |out| {
                    write_record(out, track.rank, &rec)
                });
            }
        }
        if !self.global.is_empty() {
            push_event(&mut out, &mut first, |out| {
                out.push_str(&format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{world_tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"world events\"}}}}",
                ));
            });
            for rec in sorted(&self.global) {
                push_event(&mut out, &mut first, |out| {
                    write_record(out, world_tid, &rec)
                });
            }
        }
        out.push_str("]}");
        out
    }
}

/// Records sorted by start time, then end, then name — a deterministic
/// chronological order even after ring wrap-around.
fn sorted(records: &[SpanRecord]) -> Vec<SpanRecord> {
    let mut v = records.to_vec();
    v.sort_by(|a, b| {
        a.start
            .total_cmp(&b.start)
            .then(b.end.total_cmp(&a.end)) // longer (enclosing) spans first
            .then(a.name.cmp(b.name))
    });
    v
}

fn push_event(out: &mut String, first: &mut bool, f: impl FnOnce(&mut String)) {
    if !*first {
        out.push(',');
    }
    *first = false;
    f(out);
}

fn write_record(out: &mut String, tid: usize, rec: &SpanRecord) {
    let ts_us = rec.start * 1e6;
    if rec.kind.is_instant() {
        out.push_str(&format!(
            "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"s\":\"t\",\"name\":\"{}\",\
             \"cat\":\"event\",\"ts\":{ts_us},\"args\":{{\"iter\":{},\"arg\":{},\"value\":{}}}}}",
            escape(rec.name),
            rec.iteration,
            rec.arg,
            finite(rec.value),
        ));
    } else {
        let dur_us = (rec.end - rec.start).max(0.0) * 1e6;
        let cat = match rec.kind {
            RecordKind::Iteration => "iteration",
            _ => "phase",
        };
        out.push_str(&format!(
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"{cat}\",\
             \"ts\":{ts_us},\"dur\":{dur_us},\"args\":{{\"iter\":{}}}}}",
            escape(rec.name),
            rec.iteration,
        ));
    }
}

/// JSON numbers must be finite; NaN/∞ would corrupt the document.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Escape a name for embedding in a JSON string. Phase names are static
/// identifiers today; this keeps the exporter correct if one ever carries
/// a quote or backslash.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_track() -> RankTrack {
        let mut r = SpanRecorder::new(0, ClockDomain::Modeled, 32);
        r.begin_iteration(0, 0.0);
        r.mark("lookup", 0.5);
        r.mark("a2a", 1.0);
        r.instant(RecordKind::CodecReselection, 1.0, 2, 0.0);
        r.end_iteration(1.5);
        RankTrack::from(r)
    }

    #[test]
    fn chrome_trace_has_expected_shape() {
        let export = TraceExport {
            tracks: vec![sample_track()],
            global: vec![],
        };
        let json = export.to_chrome_trace();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"rank 0 (modeled clock)\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"lookup\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"codec reselection\""));
        // 1.5 s iteration span → 1500000 µs duration.
        assert!(json.contains("\"dur\":1500000"));
    }

    #[test]
    fn iteration_span_encloses_phase_spans() {
        let track = sample_track();
        let json = TraceExport {
            tracks: vec![track],
            global: vec![],
        }
        .to_chrome_trace();
        // The enclosing iteration span must be emitted before the phases it
        // contains (same start, longer duration sorts first), which is what
        // makes viewers nest them.
        let iter_pos = json.find("\"cat\":\"iteration\"").expect("iteration span");
        let phase_pos = json.find("\"name\":\"lookup\"").expect("phase span");
        assert!(iter_pos < phase_pos);
    }

    #[test]
    fn world_events_get_their_own_track() {
        let rec = SpanRecord {
            kind: RecordKind::RankLoss,
            name: RecordKind::RankLoss.label(),
            start: 2.0,
            end: 2.0,
            iteration: 8,
            arg: 3,
            value: 0.0,
        };
        let json = TraceExport {
            tracks: vec![sample_track()],
            global: vec![rec],
        }
        .to_chrome_trace();
        assert!(json.contains("\"world events\""));
        assert!(json.contains("\"rank loss\""));
        // World track tid sits above every rank tid.
        assert!(json.contains("\"tid\":1,\"name\":\"thread_name\""));
    }

    #[test]
    fn modeled_trace_is_deterministic() {
        let json = || {
            TraceExport {
                tracks: vec![sample_track()],
                global: vec![],
            }
            .to_chrome_trace()
        };
        assert_eq!(json(), json());
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
