//! # dlrm-data
//!
//! Synthetic Criteo-like datasets for the DLRM reproduction.
//!
//! The real evaluation in the paper uses the Criteo Ad Kaggle and Criteo
//! Terabyte click logs (13 continuous + 26 categorical features, ~45M
//! samples). Those datasets are not available here, so this crate generates
//! synthetic data that reproduces every property the paper's compression
//! system exploits:
//!
//! * **26 categorical features** whose cardinalities span fewer than ten to
//!   hundreds of thousands of categories (the Figure 6 size spread, scaled
//!   down to laptop memory — see `DESIGN.md` for the scaling note).
//! * **Unbalanced query frequency** — categorical lookups follow per-table
//!   Zipf distributions, so hot categories repeat within a batch. This is
//!   the source of repeated embedding vectors, vector homogenization and
//!   vector-LZ matches.
//! * **Per-table value distributions** — embedding values are drawn from
//!   either Gaussian or uniform distributions per table, reproducing the
//!   paper's observation ❸ (some tables look Gaussian, others uniform) and
//!   the resulting difference between Huffman-friendly and LZ-friendly
//!   tables.
//! * **A learnable labelling function** — labels come from a hidden
//!   ground-truth model over the dense features and category identities, so
//!   the DLRM actually has something to learn and accuracy comparisons
//!   between compressed and uncompressed training are meaningful.
//!
//! Two presets mirror the paper's datasets: [`presets::criteo_kaggle_like`]
//! (embedding dim 32, batch 128) and [`presets::criteo_terabyte_like`]
//! (embedding dim 64, batch 2048).

pub mod batch;
pub mod config;
pub mod feed;
pub mod generator;
pub mod presets;
pub mod traffic;
pub mod zipf;

pub use batch::MiniBatch;
pub use config::{DatasetConfig, TableProfile, TrafficDrift, ValueDistribution};
pub use feed::BatchFeed;
pub use generator::SyntheticCriteo;
pub use traffic::EmbeddingTrafficGenerator;
pub use zipf::Zipf;
