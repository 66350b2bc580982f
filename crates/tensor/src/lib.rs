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
//! * All hot loops operate on contiguous `&[f32]` slices so the compiler can
//!   auto-vectorise; matrix multiplication is cache-blocked, and every
//!   reduction runs in an order fixed by the operand shapes alone (see
//!   [`matrix::dot`]). Threads live one level up, one per rank, in `dlrm-exec`.
//! * No `unsafe` is used; bounds checks in inner loops are avoided by slicing
//!   rows up front.
//! * All randomness goes through [`rng::SeededRng`] so every experiment is
//!   reproducible from a single `u64` seed.

pub mod init;
pub mod matrix;
pub mod ops;
pub mod rng;
pub mod stats;

pub use init::{he_normal, xavier_uniform, Initializer};
pub use matrix::Matrix;
pub use rng::SeededRng;
