//! Optimised entropy (canonical Huffman) encoder over quantization codes.
//!
//! This is the second half of the paper's hybrid compressor: for embedding
//! tables whose quantized values concentrate into a low-entropy distribution
//! (the "Gaussian" tables of observation ❸), a Huffman code over the
//! quantization symbols approaches the entropy bound and beats LZ-style
//! matching.
//!
//! Implementation notes:
//!
//! * Symbols are the ZigZag-mapped quantization codes (small magnitudes are
//!   small symbols). The `HOT_SYMBOLS` most significant symbols get Huffman
//!   codes; anything rarer is sent through a single ESCAPE code followed by a
//!   raw 32-bit literal. This bounds the code-table size regardless of the
//!   data while keeping the common case optimal.
//! * The code is *canonical*: only the bit length of each hot symbol is
//!   stored in the header, and both sides rebuild the same codebook.
//! * Codes are MSB-first prefix codes but the bit I/O is LSB-first, so both
//!   sides work with the *bit-reversed* code: the encoder looks up one
//!   pre-reversed `(code, length)` entry per symbol, the decoder indexes a
//!   flat table with the next `longest code of this book` bits of the stream.
//! * The stream size follows exactly from the symbol counts and code
//!   lengths, before a byte is written — which is what lets the hybrid's
//!   automatic selection skip emitting the losing candidate.
//!
//! Every buffer the two directions need lives in a reusable
//! [`HuffmanScratch`]; a warmed-up scratch makes both allocation-free.

use crate::bitio::{BitReader, BitSink};
use crate::error::CompressError;
use crate::varint;
use crate::Result;

/// Maximum number of symbols that get dedicated Huffman codes.
pub const HOT_SYMBOLS: usize = 1024;

/// Upper bound on code length; long tails are flattened by the
/// length-limiting pass.
pub const MAX_CODE_LEN: u8 = 15;

/// Internal: the escape symbol index inside the codebook.
const ESCAPE: usize = HOT_SYMBOLS;

/// Coded symbols: the hot ones plus the escape.
const ALPHABET: usize = HOT_SYMBOLS + 1;

/// Bytes of a stream header's length table (one 4-bit length per symbol).
const LENGTH_TABLE_BYTES: usize = ALPHABET.div_ceil(2);

/// Reusable working state of [`encode_into`] and [`decode_map_into`]: the
/// histogram, the canonical codebook in both its encode and decode forms,
/// and the tree builder's queues.
#[derive(Debug, Default)]
pub struct HuffmanScratch {
    /// Occurrences per symbol (`ALPHABET` entries).
    freqs: Vec<u64>,
    /// Bit length per symbol (0 = symbol absent; `ALPHABET` entries).
    lengths: Vec<u8>,
    /// Hot symbols at and above this index are absent from the current book.
    /// Quantized embeddings use a few dozen of the 1 024 hot symbols, so the
    /// per-stream codebook work walks `coded()` instead of the alphabet.
    used: usize,
    /// Encode table: per symbol, `bit-reversed code << 4 | length`.
    codes: Vec<u32>,
    /// Decode table: `symbol << 4 | length` (0 = no such code) for every
    /// value of the next `max length of this book` stream bits.
    table: Vec<u16>,
    tree: TreeBuilder,
}

/// The symbols that can have a code when hot symbols from `used` up are
/// absent, in symbol order.
fn coded(used: usize) -> impl Iterator<Item = usize> {
    (0..used).chain([ESCAPE])
}

impl HuffmanScratch {
    /// Heap capacity currently held, in bytes.
    pub fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.freqs.capacity() + self.tree.internal.capacity()) * size_of::<u64>()
            + self.lengths.capacity()
            + (self.codes.capacity() + self.tree.links.capacity()) * size_of::<u32>()
            + self.table.capacity() * size_of::<u16>()
            + self.tree.leaves.capacity() * size_of::<(u64, u32)>()
    }

    /// Grow every buffer to its worst case (the whole alphabet present,
    /// `MAX_CODE_LEN`-bit codes), so that a scratch's capacity is final after
    /// its first stream in either direction, whatever that stream and later
    /// ones look like: the allocation ledgers upstream count later growth as
    /// a steady-state allocation.
    pub(crate) fn reserve_worst_case(&mut self) {
        fn ensure<T>(buffer: &mut Vec<T>, capacity: usize) {
            buffer.reserve(capacity.saturating_sub(buffer.len()));
        }
        ensure(&mut self.freqs, ALPHABET);
        ensure(&mut self.lengths, ALPHABET);
        ensure(&mut self.codes, ALPHABET);
        ensure(&mut self.table, 1 << MAX_CODE_LEN);
        ensure(&mut self.tree.leaves, ALPHABET);
        ensure(&mut self.tree.internal, ALPHABET);
        ensure(&mut self.tree.links, 2 * ALPHABET);
    }

    /// Length-limited code lengths for `self.freqs`.
    fn build_lengths(&mut self) {
        self.lengths.clear();
        self.lengths.resize(ALPHABET, 0);
        let max_len = u32::from(MAX_CODE_LEN);
        self.tree.collect_leaves(&self.freqs, self.used);
        if self.tree.code_lengths(&mut self.lengths) <= max_len {
            return;
        }
        // Naive length limiting: repeatedly flatten the tree by recomputing
        // lengths from dampened frequencies. This converges quickly for the
        // skewed distributions quantized embeddings produce.
        for _ in 0..32 {
            for (weight, _) in &mut self.tree.leaves {
                // Compress the dynamic range of the frequencies.
                *weight = (*weight / 2).max(1);
            }
            if self.tree.code_lengths(&mut self.lengths) <= max_len {
                return;
            }
        }
        // Final fallback: fixed-length code.
        let present = self.tree.leaves.len().max(2);
        let fixed = (usize::BITS - (present - 1).leading_zeros()) as u8;
        for &(_, sym) in &self.tree.leaves {
            self.lengths[sym as usize] = fixed.clamp(1, MAX_CODE_LEN);
        }
    }

    /// Fill the encode table with the canonical codes of `self.lengths`
    /// (which must satisfy the Kraft inequality), already bit-reversed for
    /// the LSB-first bit I/O.
    fn assign_codes(&mut self) {
        // Canonical codes count up within a length, in symbol order; a
        // length's first code is the one after the previous length's last,
        // shifted left.
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for sym in coded(self.used) {
            count[self.lengths[sym] as usize] += 1;
        }
        count[0] = 0;
        let mut next = [0u32; MAX_CODE_LEN as usize + 1];
        for len in 1..next.len() {
            next[len] = (next[len - 1] + count[len - 1]) << 1;
        }
        self.codes.clear();
        self.codes.resize(ALPHABET, 0);
        for sym in coded(self.used) {
            let len = self.lengths[sym];
            if len > 0 {
                let code = next[len as usize];
                next[len as usize] += 1;
                let reversed = (code as u16).reverse_bits() >> (16 - len);
                self.codes[sym] = u32::from(reversed) << 4 | u32::from(len);
            }
        }
    }

    /// Fill the flat decode table from the encode table and return the
    /// longest code length (0 for an empty book).
    fn build_decode_table(&mut self) -> u32 {
        let max_len = coded(self.used)
            .map(|sym| self.lengths[sym])
            .max()
            .unwrap_or(0);
        self.table.clear();
        self.table.resize(1 << max_len, 0);
        for sym in coded(self.used) {
            let code = self.codes[sym];
            let len = code & 0xF;
            if len > 0 {
                // Every slot whose low `len` bits are the reversed code.
                let entry = (sym as u16) << 4 | len as u16;
                let slots = self.table[(code >> 4) as usize..].iter_mut();
                slots.step_by(1 << len).for_each(|slot| *slot = entry);
            }
        }
        u32::from(max_len)
    }
}

/// Two-queue Huffman tree construction over reusable storage.
#[derive(Debug, Default)]
struct TreeBuilder {
    /// Present symbols as `(weight, symbol)`, ascending — the leaf queue.
    leaves: Vec<(u64, u32)>,
    /// Weights of the internal nodes in creation order — the second queue.
    internal: Vec<u64>,
    /// Per tree node (leaves in queue order, then internal nodes in creation
    /// order): first its parent's node number, then its depth.
    links: Vec<u32>,
}

impl TreeBuilder {
    /// Queue the symbols of `coded(used)` that have a non-zero weight.
    fn collect_leaves(&mut self, weights: &[u64], used: usize) {
        self.leaves.clear();
        self.leaves.extend(
            coded(used)
                .filter(|&sym| weights[sym] > 0)
                .map(|sym| (weights[sym], sym as u32)),
        );
    }

    /// Write the Huffman code length (saturating at 255) of every queued
    /// leaf into `lengths`, leaving the other entries alone, and return the
    /// longest.
    ///
    /// Merges the two lightest nodes until one is left; equal weights go
    /// lower symbol first and leaves before internal nodes, internal nodes
    /// oldest first. Internal nodes are born in non-decreasing weight order,
    /// so a sorted leaf queue and a FIFO of internal nodes pop in exactly
    /// the order a min-heap keyed `(weight, node number)` would.
    fn code_lengths(&mut self, lengths: &mut [u8]) -> u32 {
        self.leaves.sort_unstable();
        let k = self.leaves.len();
        if k <= 1 {
            if let Some(&(_, sym)) = self.leaves.first() {
                lengths[sym as usize] = 1;
            }
            return k as u32;
        }

        self.internal.clear();
        self.links.clear();
        self.links.resize(2 * k - 1, 0);
        let (mut next_leaf, mut next_internal) = (0usize, 0usize);
        for merged in 0..k - 1 {
            let mut weight = 0u64;
            for _ in 0..2 {
                let take_leaf = match (self.leaves.get(next_leaf), self.internal.get(next_internal))
                {
                    (Some(&(leaf, _)), Some(&internal)) => leaf <= internal,
                    (leaf, _) => leaf.is_some(),
                };
                let child = if take_leaf {
                    weight += self.leaves[next_leaf].0;
                    next_leaf += 1;
                    next_leaf - 1
                } else {
                    weight += self.internal[next_internal];
                    next_internal += 1;
                    k + next_internal - 1
                };
                self.links[child] = (k + merged) as u32;
            }
            self.internal.push(weight);
        }

        // A parent is always numbered above its children: walking down from
        // the root (the last node, depth 0) turns parent links into depths.
        self.links[2 * k - 2] = 0;
        for node in (0..2 * k - 2).rev() {
            self.links[node] = self.links[self.links[node] as usize] + 1;
        }
        for (&(_, sym), &depth) in self.leaves.iter().zip(&self.links) {
            lengths[sym as usize] = depth.min(255) as u8;
        }
        // The lightest leaf is never above any other.
        self.links[0]
    }
}

/// Compress a slice of unsigned symbols (ZigZag-mapped quantization codes).
///
/// Output layout: `[n: varint] [lengths: HOT_SYMBOLS+1 packed 4-bit pairs]
/// [payload bits]`.
pub fn encode(symbols: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(symbols, &mut HuffmanScratch::default(), &mut out);
    out
}

/// Allocation-free [`encode`]: *appends* the stream to `out`.
pub fn encode_into(symbols: &[u32], scratch: &mut HuffmanScratch, out: &mut Vec<u8>) {
    plan(symbols, scratch);
    emit_planned(symbols, scratch, out);
}

/// Bytes of the shortest stream `n` symbols can have: the count, the length
/// table and one bit per symbol (no code is shorter, see [`plan`]).
pub(crate) fn min_stream_len(n: usize) -> usize {
    varint::len_u64(n as u64) + LENGTH_TABLE_BYTES + n.div_ceil(8)
}

/// Count `symbols` and build their codebook in `scratch`; returns the exact
/// length in bytes of the stream [`emit_planned`] would append.
pub(crate) fn plan(symbols: &[u32], scratch: &mut HuffmanScratch) -> usize {
    scratch.reserve_worst_case();
    let freqs = &mut scratch.freqs;
    freqs.clear();
    freqs.resize(ALPHABET, 0);
    for &s in symbols {
        freqs[(s as usize).min(ESCAPE)] += 1;
    }
    let used = freqs[..ESCAPE]
        .iter()
        .rposition(|&f| f > 0)
        .map_or(0, |top| top + 1);
    scratch.used = used;
    let escapes = freqs[ESCAPE];
    // Ensure the escape symbol always has a code if it might be needed; and
    // avoid a degenerate single-symbol alphabet (give the escape a token count).
    if coded(used).filter(|&sym| freqs[sym] > 0).count() <= 1 {
        freqs[ESCAPE] += 1;
    }
    scratch.build_lengths();

    let code_bits: u64 = scratch.freqs[..used]
        .iter()
        .zip(&scratch.lengths)
        .map(|(&f, &l)| f * u64::from(l))
        .sum();
    let escape_bits = escapes * (u64::from(scratch.lengths[ESCAPE]) + 32);
    varint::len_u64(symbols.len() as u64)
        + LENGTH_TABLE_BYTES
        + (code_bits + escape_bits).div_ceil(8) as usize
}

/// Append the stream of `symbols`, whose codebook [`plan`] left in `scratch`.
pub(crate) fn emit_planned(symbols: &[u32], scratch: &mut HuffmanScratch, out: &mut Vec<u8>) {
    scratch.assign_codes();
    varint::write_u64(out, symbols.len() as u64);
    // Pack lengths as 4-bit nibbles (MAX_CODE_LEN = 15 fits), symbol 2k in
    // the low half of byte k; everything from `used` up to the escape is 0.
    let table_at = out.len();
    out.resize(table_at + LENGTH_TABLE_BYTES, 0);
    let pairs = scratch.lengths[..scratch.used.next_multiple_of(2)].chunks_exact(2);
    for (byte, pair) in out[table_at..].iter_mut().zip(pairs) {
        *byte = pair[0] | pair[1] << 4;
    }
    out[table_at + ESCAPE / 2] = scratch.lengths[ESCAPE];

    let (hot, escape) = scratch.codes.split_at(ESCAPE);
    let escape = escape[0];
    let mut w = BitSink::new(out);
    for &s in symbols {
        match hot.get(s as usize) {
            Some(&code) => {
                debug_assert!(code & 0xF > 0, "emitting absent symbol {s}");
                w.write_bits(code >> 4, (code & 0xF) as u8);
            }
            None => {
                w.write_bits(escape >> 4, (escape & 0xF) as u8);
                w.write_bits(s, 32);
            }
        }
    }
    w.finish();
}

/// Decompress a stream produced by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    decode_map_into(bytes, &mut HuffmanScratch::default(), &mut out, |s| s)?;
    Ok(out)
}

/// Allocation-free [`decode`] fused with the caller's symbol conversion:
/// *appends* `map(symbol)` for every decoded symbol to `out` and returns how
/// many there were. On error `out` is left as it was.
///
/// Total over arbitrary bytes: a header that promises more symbols than the
/// payload has bits, an unusable length table, or a stream that ends inside
/// a code or an escape literal is [`CompressError::Corrupt`].
pub fn decode_map_into<T: Copy + Default>(
    bytes: &[u8],
    scratch: &mut HuffmanScratch,
    out: &mut Vec<T>,
    map: impl Fn(u32) -> T,
) -> Result<usize> {
    let mut pos = 0usize;
    let n = usize::try_from(varint::read_u64(bytes, &mut pos)?)
        .map_err(|_| CompressError::Corrupt("symbol count overflows usize"))?;
    let payload_at = pos
        .checked_add(LENGTH_TABLE_BYTES)
        .ok_or(CompressError::Corrupt("truncated codebook"))?;
    let packed = bytes
        .get(pos..payload_at)
        .ok_or(CompressError::Corrupt("truncated codebook"))?;
    let payload = &bytes[payload_at..];
    // A symbol costs at least one bit: bound `n` before reserving for it.
    if n.div_ceil(8) > payload.len() {
        return Err(CompressError::Corrupt("more symbols than payload bits"));
    }

    scratch.reserve_worst_case();
    // Unpack the hot lengths up to the last non-zero byte, and the escape's
    // from the low half of the final byte (its high half is padding).
    let (hot, escape) = packed.split_at(ESCAPE / 2);
    let hot = &hot[..hot.iter().rposition(|&b| b != 0).map_or(0, |last| last + 1)];
    scratch.used = hot.len() * 2;
    scratch.lengths.clear();
    scratch.lengths.resize(ALPHABET, 0);
    for (pair, &byte) in scratch.lengths.chunks_exact_mut(2).zip(hot) {
        pair[0] = byte & 0x0F;
        pair[1] = byte >> 4;
    }
    scratch.lengths[ESCAPE] = escape[0] & 0x0F;
    // Kraft inequality check: a malformed length table would otherwise
    // produce ambiguous decodes.
    let kraft: u64 = coded(scratch.used)
        .map(|sym| scratch.lengths[sym])
        .filter(|&l| l > 0)
        .map(|l| 1u64 << (MAX_CODE_LEN - l))
        .sum();
    if kraft > 1u64 << MAX_CODE_LEN {
        return Err(CompressError::Corrupt("codebook violates Kraft inequality"));
    }
    scratch.assign_codes();
    let max_len = scratch.build_decode_table();
    if n > 0 && max_len == 0 {
        return Err(CompressError::Corrupt("symbols but no codes"));
    }

    let start = out.len();
    out.resize(start + n, T::default());
    let table = &scratch.table[..];
    let mut r = BitReader::new(payload);
    let decoded = out[start..].iter_mut().try_for_each(|slot| {
        if r.available() < u32::from(MAX_CODE_LEN) {
            r.refill();
        }
        let entry = table[r.peek(max_len) as usize];
        let len = u32::from(entry & 0xF);
        if len == 0 {
            return Err(CompressError::Corrupt("invalid huffman code"));
        }
        if len > r.available() {
            return Err(CompressError::Corrupt("huffman stream ended inside a code"));
        }
        r.consume(len);
        let symbol = u32::from(entry >> 4);
        *slot = map(if symbol as usize == ESCAPE {
            r.read_bits(32)?
        } else {
            symbol
        });
        Ok(())
    });
    if decoded.is_err() {
        out.truncate(start);
    }
    decoded.map(|()| n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use proptest::prelude::*;

    fn roundtrip(symbols: &[u32]) {
        let enc = encode(symbols);
        let dec = decode(&enc).expect("decode");
        assert_eq!(dec, symbols);
    }

    /// New encoder and decoder against the replaced ones, on one input.
    fn assert_matches_reference(symbols: &[u32], what: &str) {
        let mut expected = Vec::new();
        reference::huffman_encode_into(symbols, &mut expected);
        let mut scratch = HuffmanScratch::default();
        let mut bytes = Vec::new();
        let planned = plan(symbols, &mut scratch);
        emit_planned(symbols, &mut scratch, &mut bytes);
        assert_eq!(bytes, expected, "{what}: stream differs for {symbols:?}");
        assert_eq!(planned, bytes.len(), "{what}: planned size is not exact");
        assert_eq!(
            decode(&bytes),
            reference::huffman_decode(&bytes),
            "{what}: decode differs over {bytes:02x?}"
        );
        assert_eq!(decode(&bytes).unwrap(), symbols, "{what}");
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn roundtrip_single_symbol() {
        roundtrip(&[5]);
        roundtrip(&[0; 100]);
    }

    #[test]
    fn roundtrip_small_alphabet() {
        let symbols: Vec<u32> = (0..5000).map(|i| (i * 7 % 5) as u32).collect();
        roundtrip(&symbols);
    }

    #[test]
    fn roundtrip_with_escapes() {
        // Symbols beyond HOT_SYMBOLS must survive through the escape path.
        let symbols: Vec<u32> = (0..2000)
            .map(|i| if i % 17 == 0 { 1_000_000 + i } else { i % 30 })
            .collect();
        roundtrip(&symbols);
    }

    #[test]
    fn roundtrip_all_escapes() {
        let symbols: Vec<u32> = (0..500).map(|i| HOT_SYMBOLS as u32 + i).collect();
        roundtrip(&symbols);
    }

    #[test]
    fn skewed_data_compresses_well() {
        // 95% zeros → strong compression expected vs the 4-bytes-per-symbol raw size.
        let symbols: Vec<u32> = (0..10_000)
            .map(|i| if i % 20 == 0 { i % 7 + 1 } else { 0 })
            .collect();
        let enc = encode(&symbols);
        let raw = symbols.len() * 4;
        assert!(
            enc.len() * 4 < raw,
            "expected >4x compression, got {} -> {}",
            raw,
            enc.len()
        );
    }

    #[test]
    fn uniform_data_does_not_explode() {
        let symbols: Vec<u32> = (0..4096).map(|i| i % HOT_SYMBOLS as u32).collect();
        let enc = encode(&symbols);
        // At worst slightly above the entropy (10 bits/symbol) plus table.
        assert!(enc.len() < symbols.len() * 2 + 1024);
        roundtrip(&symbols);
    }

    /// Fibonacci-like weights make the unlimited Huffman tree a 40-deep
    /// chain, far past `MAX_CODE_LEN`.
    fn steep_skew() -> Vec<u32> {
        let (mut a, mut b) = (1u32, 1u32);
        let mut symbols = Vec::new();
        for sym in 0..24u32 {
            symbols.extend(std::iter::repeat_n(sym, a as usize));
            (a, b) = (b, a + b);
        }
        symbols
    }

    #[test]
    fn matches_reference_on_the_edge_cases() {
        assert_matches_reference(&[], "empty");
        assert_matches_reference(&[7], "one symbol");
        assert_matches_reference(&[3; 257], "one repeated symbol");
        assert_matches_reference(&[HOT_SYMBOLS as u32], "one escape, exactly HOT_SYMBOLS");
        assert_matches_reference(&[u32::MAX; 9], "one repeated escape");
        let escapes: Vec<u32> = (0..300).map(|i| 5_000 + i * 77_777).collect();
        assert_matches_reference(&escapes, "all escapes");
        let mixed: Vec<u32> = (0..999u32)
            .map(|i| if i % 5 == 0 { 1 << (i % 32) } else { i % 40 })
            .collect();
        assert_matches_reference(&mixed, "mixed escapes");
        let full: Vec<u32> = (0..3 * ALPHABET as u32)
            .map(|i| i % ALPHABET as u32)
            .collect();
        assert_matches_reference(&full, "every hot symbol and the escape");

        let steep = steep_skew();
        let mut scratch = HuffmanScratch::default();
        plan(&steep, &mut scratch);
        let mut unlimited = vec![0u8; ALPHABET];
        scratch.tree.collect_leaves(&scratch.freqs, scratch.used);
        let longest = scratch.tree.code_lengths(&mut unlimited);
        assert!(
            longest > u32::from(MAX_CODE_LEN) && unlimited.iter().any(|&l| l > MAX_CODE_LEN),
            "the skew must exercise length limiting"
        );
        assert_matches_reference(&steep, "length-limited skew");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Byte identity with the replaced encoder and value identity with
        /// the replaced decoder, over alphabets from tiny to escape-heavy.
        #[test]
        fn matches_reference_on_arbitrary_symbols(
            spread in prop_oneof![Just(2u32), Just(40), Just(700), Just(1100), Just(5000)],
            raw in prop::collection::vec(any::<u32>(), 0..1200),
            square in any::<bool>(),
        ) {
            // Squaring the draw skews the histogram towards small symbols.
            let symbols: Vec<u32> = raw
                .iter()
                .map(|&r| {
                    let u = r % spread;
                    if square { u * u / spread } else { u }
                })
                .collect();
            assert_matches_reference(&symbols, "proptest");
        }

        /// Both decoders agree on damaged streams too: the same symbols or
        /// an error from each (the new one may refuse earlier).
        #[test]
        fn damaged_streams_decode_like_the_reference(
            raw in prop::collection::vec(0u32..1200, 1..400),
            cut in any::<u16>(),
            flip in any::<u32>(),
        ) {
            let mut bytes = encode(&raw);
            let bit = flip as usize % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            bytes.truncate(bytes.len() - cut as usize % 4);
            match (decode(&bytes), reference::huffman_decode(&bytes)) {
                (Ok(new), Ok(old)) => prop_assert_eq!(new, old, "over {:02x?}", bytes),
                (Err(_), Err(_)) => {}
                (new, old) => prop_assert!(
                    false,
                    "new {:?} vs reference {:?} over {:02x?}",
                    new.map(|v| v.len()),
                    old.map(|v| v.len()),
                    bytes
                ),
            }
        }
    }

    #[test]
    fn corrupt_stream_is_rejected_not_panicking() {
        let symbols: Vec<u32> = (0..100).map(|i| i % 3).collect();
        let mut enc = encode(&symbols);
        enc.truncate(enc.len() / 2);
        // Either an error or (if truncation hit only padding) a wrong-but-safe
        // result; must not panic.
        let _ = decode(&enc);
        let garbage = vec![0xFFu8; 8];
        let _ = decode(&garbage);
    }

    fn is_corrupt<T: std::fmt::Debug>(r: Result<T>) -> bool {
        matches!(r, Err(CompressError::Corrupt(_)))
    }

    #[test]
    fn symbol_count_is_bounded_by_the_payload_before_reserving() {
        // Ten garbage bytes promising 2^56 symbols, then a valid table with
        // a one-byte payload promising nine.
        assert!(is_corrupt(decode(&[0xFF; 10])));
        let mut bytes = encode(&[1, 2, 1, 2, 1, 2, 1, 2]);
        assert_eq!(bytes.len(), 1 + LENGTH_TABLE_BYTES + 1);
        bytes[0] = 9;
        let mut out = vec![42u32];
        let mut scratch = HuffmanScratch::default();
        assert!(is_corrupt(decode_map_into(
            &bytes,
            &mut scratch,
            &mut out,
            |s| s
        )));
        assert_eq!(out, [42], "a failed decode must leave `out` alone");
        assert_eq!(out.capacity(), 1, "and must not have reserved for it");
    }

    #[test]
    fn symbols_without_any_code_are_rejected() {
        let mut bytes = vec![3u8];
        bytes.extend(std::iter::repeat_n(0, LENGTH_TABLE_BYTES + 4));
        assert!(is_corrupt(decode(&bytes)));
        bytes[0] = 0;
        assert_eq!(decode(&bytes).unwrap(), []);
    }

    #[test]
    fn stream_ending_inside_a_code_or_literal_is_corrupt() {
        // Two 2-bit codes in the last byte, then nothing: a third symbol
        // would have to start in the padding and run past the end.
        let symbols = [0u32, 1, 2, 3, 0, 1, 2, 3];
        let mut bytes = encode(&symbols);
        assert_eq!(bytes.len(), 1 + LENGTH_TABLE_BYTES + 2);
        bytes.pop();
        assert!(is_corrupt(decode(&bytes)));
        bytes[0] = 4;
        assert_eq!(decode(&bytes).unwrap(), symbols[..4]);

        // An escape whose 32-bit literal is cut short.
        let mut bytes = encode(&[1, 1, 1, 90_000]);
        bytes.pop();
        let mut out = vec![1.5f32];
        let mut scratch = HuffmanScratch::default();
        assert!(is_corrupt(decode_map_into(
            &bytes,
            &mut scratch,
            &mut out,
            |s| s as f32
        )));
        assert_eq!(out, [1.5]);
    }

    #[test]
    fn codebook_kraft_violation_detected() {
        // 100 symbols of length 1 is impossible.
        let mut bytes = vec![1u8];
        bytes.extend(std::iter::repeat_n(0x11, 50));
        bytes.extend(std::iter::repeat_n(0, LENGTH_TABLE_BYTES - 50 + 1));
        assert!(is_corrupt(decode(&bytes)));
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let symbols: Vec<u32> = (0..20u32)
            .flat_map(|i| std::iter::repeat_n(i, (20 - i as usize) * 10))
            .collect();
        let mut scratch = HuffmanScratch::default();
        plan(&symbols, &mut scratch);
        scratch.assign_codes();
        // Reversed codes are prefix-free when no code's low bits equal a
        // shorter (or equally long) code.
        let codes: Vec<(u32, u32)> = scratch.codes[..20]
            .iter()
            .map(|&c| (c >> 4, c & 0xF))
            .collect();
        for (a, &(code_a, len_a)) in codes.iter().enumerate() {
            assert!(len_a > 0);
            for (b, &(code_b, len_b)) in codes.iter().enumerate() {
                if a != b && len_a <= len_b {
                    assert_ne!(
                        code_a,
                        code_b & ((1 << len_a) - 1),
                        "code {a} is a prefix of {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn decode_table_is_sized_by_the_longest_code() {
        let mut scratch = HuffmanScratch::default();
        let mut out = Vec::new();
        decode_map_into(&encode(&[0, 1, 2, 3]), &mut scratch, &mut out, |s| s).unwrap();
        assert_eq!(scratch.table.len(), 4);
        decode_map_into(&encode(&steep_skew()), &mut scratch, &mut out, |s| s).unwrap();
        let longest = scratch.lengths.iter().copied().max().unwrap();
        assert!(longest > 10, "a steep skew needs long codes, got {longest}");
        assert_eq!(scratch.table.len(), 1 << longest);
    }
}
