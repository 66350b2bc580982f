//! # dlrm-tensor
//!
//! Minimal dense linear-algebra substrate for the DLRM reproduction.
//!
//! The crate provides a row-major [`Matrix`] of `f32`, the handful of
//! operations a DLRM needs (matrix multiplication in its three transposition
//! flavours, bias addition, element-wise maps), common activation functions,
//! weight initializers, and small statistics helpers used by the experiment
//! harness (histograms of embedding values, mean/variance).
//!
//! Design notes (following the hpc-parallel guides used in this project):
//!
//! * The dense kernels ([`matrix::dot`], [`matrix::dots`], [`matrix::vecmat`]
//!   and the matmul flavours built on them) keep their accumulators in 4-lane
//!   registers over contiguous `&[f32]` slices, and every reduction runs in
//!   an order fixed by the operand shapes alone. Threads live one level up,
//!   one per rank, in `dlrm-exec`.
//! * `unsafe` lives in one private module, the 4-lane vector type: on x86_64
//!   its SSE2 intrinsic calls and its loads and stores from length-checked
//!   slices (SSE2 is the x86_64 baseline: no runtime CPU detection, no
//!   `target-cpu`); elsewhere a `[f32; 4]` with the same API. Nothing else
//!   in the crate uses it.
//! * All randomness goes through [`rng::SeededRng`] so every experiment is
//!   reproducible from a single `u64` seed.

pub mod init;
mod lanes;
pub mod matrix;
pub mod ops;
pub mod rng;
pub mod stats;

pub use init::{he_normal, xavier_uniform, Initializer};
pub use matrix::Matrix;
pub use rng::SeededRng;
