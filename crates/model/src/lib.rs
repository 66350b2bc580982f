//! # dlrm-model
//!
//! A from-scratch DLRM (Deep Learning Recommendation Model) in Rust,
//! following the reference architecture of Naumov et al. that the paper
//! trains: per-feature **embedding tables**, a **bottom MLP** that lifts the
//! dense features to the embedding dimension, a **dot-product feature
//! interaction** over all embedding vectors plus the bottom-MLP output, and a
//! **top MLP** that produces the click-through-rate logit.
//!
//! The API is deliberately split so the distributed trainer can interpose
//! compression exactly where the paper does:
//!
//! * [`embedding::EmbeddingTable::lookup`] produces the per-table lookup
//!   matrices that are exchanged in the forward all-to-all;
//! * [`dlrm::Dlrm::forward_dense`] / [`dlrm::Dlrm::backward_dense`] run the
//!   data-parallel part of the model given (possibly decompressed) lookup
//!   matrices, and hand back per-table gradient matrices — the payload of the
//!   backward all-to-all. Each is also available in two halves that run the
//!   same float operations — [`dlrm::Dlrm::forward_bottom`] /
//!   [`dlrm::Dlrm::forward_top`] and [`dlrm::Dlrm::backward_embeddings`] /
//!   [`dlrm::Dlrm::backward_weights`] — so the trainer can run the half no
//!   exchange feeds while the exchange is on the wire;
//! * [`embedding::EmbeddingTable::apply_sparse_grad`] applies those gradients
//!   on whichever rank owns the table.
//!
//! [`dlrm::Dlrm::train_step`] composes the pieces for single-process training
//! (used by tests and the accuracy experiments that don't need the cluster).

pub mod dlrm;
pub mod embedding;
pub mod interaction;
pub mod metrics;
pub mod mlp;

pub use dlrm::{Dlrm, DlrmConfig};
pub use embedding::EmbeddingTable;
pub use metrics::EvalMetrics;
pub use mlp::Mlp;
