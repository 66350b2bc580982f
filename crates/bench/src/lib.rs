//! # dlrm-bench
//!
//! Experiment harness regenerating the tables and figures of the paper's
//! evaluation section and its two ablations.
//!
//! Each experiment is registered in [`experiments::registry`] under the
//! paper artifact's id (`fig1`, `tab5`, `abl2`, …) and can be run with the
//! `expfig` binary:
//!
//! ```text
//! cargo run -p dlrm-bench --release --bin expfig -- list
//! cargo run -p dlrm-bench --release --bin expfig -- fig11
//! cargo run -p dlrm-bench --release --bin expfig -- all --quick
//! ```
//!
//! Criterion micro-benchmarks live in `benches/`: codec throughput and
//! kernels (`compressor_throughput`, `kernels`), the vector-LZ window sweep
//! and its LZSS comparison (`vlz_window`, `vlz_vs_lzss`), the Figure 15
//! buffer optimization (`buffer_optimization`), and checkpoint encode plus
//! rank-loss replay (`fault`). Layer-by-layer wall-clock rows for the rest
//! of the stack come from the `benchmark/` workspace.

pub mod experiments;
pub mod format;
pub mod workloads;

pub use experiments::{registry, ExpOptions, Experiment};
