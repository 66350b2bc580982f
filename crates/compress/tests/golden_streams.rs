//! The hybrid stream format, pinned across PRs: one frozen stream per
//! back-end tag, produced by the bit-at-a-time encoder this crate shipped
//! before the word-at-a-time rewrite. Today's encoder must reproduce each
//! byte for byte and today's decoder must read it back to the fixed values —
//! whatever else changes, streams already on disk (checkpoints) or in flight
//! between mixed builds stay readable.

use dlrm_compress::hybrid::{self, HybridConfig, Selection};

/// Four vectors of four values, `eb` 0.05: one vector seen three times (a
/// vector-LZ match) and one with a value (100.0 → symbol 2000) beyond the
/// 1 024 hot Huffman symbols (an escape literal).
const DATA: [f32; 16] = [
    0.1, -0.2, 0.3, 0.0, //
    0.1, -0.2, 0.3, 0.0, //
    1.0, 2.0, -3.0, 100.0, //
    0.1, -0.2, 0.3, 0.0,
];
const DIM: usize = 4;
const EB: f32 = 0.05;

/// What every stream below decodes to: the centres of the `2·eb` bins.
const DECODED: [f32; 16] = [
    0.1, -0.2, 0.3, 0.0, 0.1, -0.2, 0.3, 0.0, 1.0, 2.0, -3.0, 100.0, 0.1, -0.2, 0.3, 0.0,
];

/// `TAG_VLZ`: `01 | n_vectors 4 | dim 4 | window 255 | eb | literal, match
/// −1, literal, match −3`.
const GOLDEN_VLZ: &[&str] = &["010404ff01cdcc4c3d0002030600010014283bd00f02"];

/// `TAG_HUFFMAN`: `02 | n 16 | dim 4 | eb | n 16 | 513-byte table of 4-bit
/// code lengths (symbol 2k in the low half of byte k, the escape last) |
/// code bits, LSB first, the escape followed by its 32-bit literal`.
const GOLDEN_HUFFMAN: &[&str] = &[
    "021004cdcc4c3d10032300020000000000000400000000000000000004000000",
    "0000000000400000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "000000000000000004c514337b0f7d0000500c",
];

fn from_hex(lines: &[&str]) -> Vec<u8> {
    let hex = lines.concat();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

fn check(selection: Selection, golden: &[&str]) {
    let golden = from_hex(golden);
    let config = HybridConfig {
        selection,
        ..Default::default()
    };
    let encoded = hybrid::compress(&DATA, DIM, EB, config).expect("compress");
    assert_eq!(
        encoded, golden,
        "{selection:?}: the encoder no longer writes the frozen stream: {encoded:02x?}"
    );
    let decoded = hybrid::decompress(&golden).expect("decompress");
    assert_eq!(
        decoded, DECODED,
        "{selection:?}: the frozen stream no longer decodes to the fixed values"
    );
}

#[test]
fn vector_lz_stream_is_frozen() {
    check(Selection::Vlz, GOLDEN_VLZ);
    // 22 bytes against 531: the automatic choice is the same stream.
    check(Selection::Auto, GOLDEN_VLZ);
}

#[test]
fn huffman_stream_is_frozen() {
    assert_eq!(from_hex(GOLDEN_HUFFMAN).len(), 531);
    check(Selection::Huffman, GOLDEN_HUFFMAN);
}
