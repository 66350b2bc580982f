//! `dlrm-serve` — sharded online inference serving for the trained DLRM.
//!
//! Training (the rest of this workspace) ends with trained embedding tables
//! and MLP weights; this crate serves them. A fleet of executor ranks shards
//! the embedding tables with the trainer's greedy partition, answers
//! lookup+MLP inference requests from a Zipf (optionally drifting) request
//! stream, and moves every cross-rank embedding row through the same
//! compressed transports the trainer uses for gradients:
//!
//! * a per-rank **hot-row cache** ([`HotRowCache`]) short-circuits repeat
//!   fetches of hot rows — transparently, because it stores the
//!   codec-decoded bytes a fresh fetch would produce. It evicts the
//!   least-recently-used row, but a fetched row only takes that slot when a
//!   count-min frequency sketch says it is hit more often (TinyLFU
//!   admission), so one-off rows of large, low-skew tables no longer push
//!   hot rows out;
//! * a per-window **request coalescer** ([`BatchCoalescer`]) collapses all
//!   misses into one deduplicated gather per owner rank;
//! * the gather rides the `dlrm-grad` **fetch codecs** over the real
//!   channel fabric, with modeled wire/codec charges driving a queueing
//!   timeline whose sorted per-request latencies give p50/p99;
//! * the trainer's **runtime controller** replica re-selects each table's
//!   fetch codec from live traffic at window boundaries, off the request
//!   latency path.
//!
//! [`run_serving`] executes a full run and returns a [`ServingReport`];
//! [`run_serving_from_checkpoint`] starts from a trained snapshot produced
//! by [`snapshot_model`]. See `docs/SERVING.md` for the methodology.

pub mod cache;
pub mod coalesce;
pub mod config;
// One batch window is a chain of step methods; clippy.toml caps their length.
#[warn(clippy::too_many_lines)]
pub mod engine;
pub mod fetch;
pub mod latency;
pub mod report;
pub mod snapshot;

pub use cache::HotRowCache;
pub use coalesce::BatchCoalescer;
pub use config::{FetchSetting, ServeAdaptive, ServeConfig};
pub use engine::{run_serving, run_serving_from_checkpoint};
pub use fetch::FetchCodecs;
pub use latency::{percentile, timeline, Timeline};
pub use report::ServingReport;
pub use snapshot::snapshot_model;
