//! Canonical ledger phase names.
//!
//! Every [`TimingLedger`](crate::ledger::TimingLedger) key used by the
//! trainer's pipeline lives here, as `&'static str` constants shared by the
//! trainer, the bench harness and the observability layer. The ledger itself
//! is stringly keyed — `add_time("fwd compresion", …)` would silently create
//! a brand-new phase — so call sites must name phases through these
//! constants rather than repeating the literals.

/// Handing the iteration its global batch (the first rank to ask draws it
/// from the shared input feed). The data loader is off the modeled critical
/// path, so this phase carries wall seconds only — zero modeled seconds.
pub const INPUT: &str = "input batch";
/// Embedding-table lookups on the owning rank.
pub const LOOKUP: &str = "embedding lookup";
/// Compression of forward all-to-all payloads.
pub const FWD_COMPRESS: &str = "fwd compression";
/// Forward all-to-all (metadata + payload), virtual network time.
pub const FWD_A2A: &str = "fwd all-to-all";
/// Decompression of forward all-to-all payloads.
pub const FWD_DECOMPRESS: &str = "fwd decompression";
/// Bottom MLP + interaction + top MLP forward.
pub const MLP_FWD: &str = "mlp forward";
/// Dense backward pass.
pub const MLP_BWD: &str = "mlp backward";
/// Compression of backward all-to-all payloads.
pub const BWD_COMPRESS: &str = "bwd compression";
/// Backward all-to-all (metadata + payload), virtual network time.
pub const BWD_A2A: &str = "bwd all-to-all";
/// Decompression of backward all-to-all payloads.
pub const BWD_DECOMPRESS: &str = "bwd decompression";
/// Applying embedding gradients on the owning rank.
pub const EMB_UPDATE: &str = "embedding update";
/// All-reduce of the MLP gradients, virtual network time.
pub const ALLREDUCE: &str = "mlp all-reduce";
/// Compressed-domain combine cycles of a homomorphic dense codec at owner
/// shards — the work that replaces the decode → reduce → re-encode
/// round-trip (zero on the classic path and with dense compression off).
pub const COMBINE: &str = "homomorphic combine";
/// MLP parameter update.
pub const OPTIMIZER: &str = "optimizer";
/// Runtime adaptive controller: candidate-codec probing plus the
/// window-boundary observation exchange (zero under a static adaptive
/// setting).
pub const CONTROLLER: &str = "runtime controller";
/// Checkpoint encode plus the modeled store write (and, in a recovery
/// segment, the modeled restore read). Zero without a checkpoint spec.
pub const CHECKPOINT: &str = "checkpoint";

/// All phases, in pipeline order.
pub const ALL: &[&str] = &[
    INPUT,
    LOOKUP,
    FWD_COMPRESS,
    FWD_A2A,
    FWD_DECOMPRESS,
    MLP_FWD,
    MLP_BWD,
    BWD_COMPRESS,
    BWD_A2A,
    BWD_DECOMPRESS,
    EMB_UPDATE,
    ALLREDUCE,
    COMBINE,
    OPTIMIZER,
    CONTROLLER,
    CHECKPOINT,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(*name), "duplicate phase name {name:?}");
        }
        assert_eq!(ALL.len(), 16);
    }
}
