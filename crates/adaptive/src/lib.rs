//! # dlrm-adaptive
//!
//! The paper's **dual-level adaptive error-bound strategy** and the offline
//! analysis that configures it.
//!
//! * **Table-wise** ([`homo`], [`classify`]): each embedding table is scored
//!   with the *Homogenization Index* — how strongly its vectors collapse into
//!   repeated patterns once quantized — and assigned a Large, Medium or Small
//!   error bound accordingly (Algorithm 1 of the paper).
//! * **Iteration-wise** ([`decay`]): the error bound starts larger and decays
//!   over the initial training phase (step-wise by default), mirroring how a
//!   learning-rate schedule front-loads tolerance for noise.
//! * **Runtime control** ([`controller`]): the offline choices above are
//!   made once, before iteration 0; a [`controller::RuntimeController`]
//!   re-runs Equation-2 selection *during* training from live per-window
//!   observations (measured ratios, effective wire bandwidth, the loss
//!   curve), with hysteresis so selection doesn't thrash — the closed loop
//!   that lets the dual-level scheme survive drifting networks and shifting
//!   traffic.
//! * **Compressor selection** ([`speedup`]): Equation 2 of the paper converts
//!   a compressor's ratio and throughput plus the network bandwidth into an
//!   expected speedup; the offline analysis uses it to pick the best encoder
//!   per table ([`analysis`], Algorithm 2). One estimator,
//!   [`speedup::estimate_speedup`], serves every selection: a
//!   [`speedup::Dataflow`] names the exchange it models — the all-to-all,
//!   sequential or overlapped.

pub mod analysis;
pub mod classify;
pub mod controller;
pub mod decay;
pub mod homo;
pub mod speedup;

pub use analysis::{analyze_tables, CompressionPlan, TablePlan};
pub use classify::{EbClass, EbConfig, Thresholds};
pub use controller::{
    probe_candidates, CodecProfile, ControllerConfig, PlateauEbControl, Reselection,
    RuntimeController, ShareError, TableObservation, TableRevision, WindowObservation, WindowShare,
    PROBE_ROWS,
};
pub use decay::{DecaySchedule, EbSchedule, TrainingPhases};
pub use homo::{homogenization_index, pattern_counts, HomoReport};
pub use speedup::{estimate_speedup, Dataflow, SpeedupInputs};
