//! The benchmark's own in-memory span recorder: one span per call into a
//! layer, recorded from outside the program, kept in memory and written once
//! as Chrome-trace JSON when the traced pass ends.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: what ran, when, under which span, and how much work
/// it did (`count`: bytes, rows, messages — whatever the layer counts).
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the enclosing span in [`Tracer::spans`]; a span's own index
    /// is its id.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub count: u64,
}

/// Span recorder for one workload. Spans nest by a stack of open spans:
/// whatever is open when a span starts is its parent.
pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn push(&mut self, name: &'static str, start_us: f64, end_us: f64, count: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_us,
            end_us,
            count,
        });
        id
    }

    /// Open a span; spans recorded until the matching [`Tracer::exit`]
    /// become its children.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let start = self.epoch.elapsed().as_secs_f64() * 1e6;
        let id = self.push(name, start, start, 0);
        self.open.push(id);
        id
    }

    /// Close the span `enter` returned (and anything left open inside it).
    pub fn exit(&mut self, id: u32) {
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a new span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Time one call as a leaf span under the currently open span and
    /// return its duration in seconds.
    pub fn call<R>(&mut self, name: &'static str, count: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(name, t0, t1, count);
        (out, (t1 - t0).as_secs_f64())
    }

    /// Record a call that was timed elsewhere (on a rank thread) as a leaf
    /// span under the currently open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, count: u64) {
        let s = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let e = end.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.push(name, s, e.max(s), count);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(calls, total seconds, self seconds)` where self time
    /// is a span's duration minus what its direct children cover.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p as usize] += s.end_us - s.start_us;
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_time) {
            let dur = s.end_us - s.start_us;
            let entry = by_name.entry(s.name).or_insert((0, 0.0, 0.0));
            entry.0 += 1;
            entry.1 += dur * 1e-6;
            entry.2 += (dur - children).max(0.0) * 1e-6;
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total, own))
            .collect();
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        rows
    }

    /// Chrome trace-event JSON (opens in Perfetto / `chrome://tracing`):
    /// one complete event per span; `args` carry the span id, its parent
    /// (absent on roots), the workload id and the work count.
    pub fn to_chrome_trace(&self) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![
                    ("id", Value::Num(id as f64)),
                    ("workload", Value::str(&self.workload)),
                    ("count", Value::Num(s.count as f64)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent", Value::Num(p as f64)));
                }
                Value::obj(vec![
                    ("name", Value::str(s.name)),
                    ("cat", Value::str("benchmark")),
                    ("ph", Value::str("X")),
                    ("ts", Value::Num(s.start_us)),
                    ("dur", Value::Num(s.end_us - s.start_us)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    ("args", Value::obj(args)),
                ])
            })
            .collect();
        Value::obj(vec![
            ("displayTimeUnit", Value::str("ms")),
            ("traceEvents", Value::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new("w");
        tr.scope("outer", |tr| {
            tr.call("inner", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.call("inner", 7, || ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let rows = tr.self_times();
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        let inner = rows.iter().find(|r| r.0 == "inner").unwrap();
        assert_eq!(inner.1, 2);
        assert!(outer.3 <= outer.2 - inner.2 + 1e-9);
    }

    #[test]
    fn chrome_trace_lists_every_span_with_its_parent() {
        let mut tr = Tracer::new("w");
        tr.scope("root", |tr| tr.call("leaf", 1, || ()));
        let json = tr.to_chrome_trace();
        let events = json.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert!(events[0].get("args").unwrap().get("parent").is_none());
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
