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
//! * The dense kernels ([`matrix::dot`], [`matrix::dots`], [`matrix::vecmat`],
//!   the matmul flavours built on them and the feature interaction's
//!   [`matrix::interact`] / [`matrix::interact_backward`]) keep their
//!   accumulators in 8-lane vectors over contiguous `&[f32]` slices, and
//!   every reduction runs in an order fixed by the operand shapes alone;
//!   exact zeros are skipped only where skipping provably changes no bit.
//!   Threads live one level up, one per rank, in `dlrm-exec`.
//! * Each kernel is written once and runs on the widest lane path the CPU
//!   has, picked once per call by CPU feature: one AVX register per vector
//!   where `is_x86_feature_detected!("avx")`, two SSE2 registers otherwise
//!   (the x86_64 baseline), a `[f32; 4]` pair on other targets. Every path
//!   keeps each element's float sequence and never fuses a multiply and an
//!   add, so the path never changes a bit; [`matrix::lane_path`] names it.
//! * `unsafe` lives in one private module, the lane types: their intrinsic
//!   calls, their loads and stores from length-checked slices and the entry
//!   into the AVX-enabled kernel body. Nothing else in the crate uses it.
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
