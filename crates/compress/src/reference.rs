//! Test-only oracle: the bit-at-a-time entropy back-end, the compress-both
//! hybrid selection, the libm-rounding quantizer and the FNV + `HashMap`
//! vector-LZ encoder that faster code replaced, kept verbatim so the
//! byte-identity tests can demand `new bytes == reference bytes` and
//! `new decode == reference decode`.
//!
//! Nothing outside `#[cfg(test)]` may call into this module.

use crate::error::CompressError;
use crate::huffman::{HOT_SYMBOLS, MAX_CODE_LEN};
use crate::hybrid::{Selection, TAG_HUFFMAN, TAG_VLZ};
use crate::vlz::VlzConfig;
use crate::{quant, varint, vlz, Result};
use std::collections::{BinaryHeap, HashMap};

const ESCAPE: usize = HOT_SYMBOLS;

/// Byte-at-a-time LSB-first bit writer.
pub struct BitSink<'a> {
    bytes: &'a mut Vec<u8>,
    bit_pos: u8,
}

impl<'a> BitSink<'a> {
    pub fn new(bytes: &'a mut Vec<u8>) -> Self {
        Self { bytes, bit_pos: 0 }
    }

    pub fn write_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        let mut remaining = count;
        let mut v = value as u64;
        while remaining > 0 {
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            let free = 8 - self.bit_pos;
            let take = free.min(remaining);
            let mask = ((1u64 << take) - 1) as u8;
            let chunk = (v as u8) & mask;
            let last = self.bytes.last_mut().expect("byte pushed above");
            *last |= chunk << self.bit_pos;
            self.bit_pos = (self.bit_pos + take) % 8;
            v >>= take;
            remaining -= take;
        }
    }
}

/// Byte-at-a-time LSB-first bit reader.
#[derive(Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    byte_pos: usize,
    bit_pos: u8,
}

impl<'a> BitReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            byte_pos: 0,
            bit_pos: 0,
        }
    }

    pub fn read_bits(&mut self, count: u8) -> Result<u32> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        let mut out: u64 = 0;
        let mut filled: u8 = 0;
        while filled < count {
            if self.byte_pos >= self.bytes.len() {
                return Err(CompressError::Corrupt("bit stream ended early"));
            }
            let avail = 8 - self.bit_pos;
            let take = avail.min(count - filled);
            let cur = self.bytes[self.byte_pos] >> self.bit_pos;
            let mask = ((1u16 << take) - 1) as u8;
            out |= ((cur & mask) as u64) << filled;
            filled += take;
            self.bit_pos += take;
            if self.bit_pos == 8 {
                self.bit_pos = 0;
                self.byte_pos += 1;
            }
        }
        Ok(out as u32)
    }
}

struct Codebook {
    lengths: Vec<u8>,
    codes: Vec<u32>,
}

impl Codebook {
    fn from_frequencies(freqs: &[u64]) -> Codebook {
        assert_eq!(freqs.len(), HOT_SYMBOLS + 1);
        let mut lengths = huffman_code_lengths(freqs);
        limit_lengths(&mut lengths, freqs, MAX_CODE_LEN);
        let codes = canonical_codes(&lengths);
        Codebook { lengths, codes }
    }

    fn from_lengths(lengths: Vec<u8>) -> Result<Codebook> {
        if lengths.len() != HOT_SYMBOLS + 1 {
            return Err(CompressError::Corrupt(
                "codebook length table has wrong size",
            ));
        }
        if lengths.iter().any(|&l| l > MAX_CODE_LEN) {
            return Err(CompressError::Corrupt("codebook length exceeds limit"));
        }
        let kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (MAX_CODE_LEN - l))
            .sum();
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(CompressError::Corrupt("codebook violates Kraft inequality"));
        }
        let codes = canonical_codes(&lengths);
        Ok(Codebook { lengths, codes })
    }

    fn emit(&self, w: &mut BitSink<'_>, symbol: usize) {
        let len = self.lengths[symbol];
        w.write_bits(reverse_bits(self.codes[symbol], len), len);
    }
}

/// The replaced `huffman::encode_into`: *appends* the stream to `out`.
pub fn huffman_encode_into(symbols: &[u32], out: &mut Vec<u8>) {
    let mut freqs = vec![0u64; HOT_SYMBOLS + 1];
    for &s in symbols {
        if (s as usize) < HOT_SYMBOLS {
            freqs[s as usize] += 1;
        } else {
            freqs[ESCAPE] += 1;
        }
    }
    if freqs.iter().filter(|&&f| f > 0).count() <= 1 {
        freqs[ESCAPE] += 1;
    }
    let book = Codebook::from_frequencies(&freqs);

    varint::write_u64(out, symbols.len() as u64);
    let mut nibble_buf = 0u8;
    let mut have_nibble = false;
    for &l in &book.lengths {
        if have_nibble {
            out.push(nibble_buf | (l << 4));
            have_nibble = false;
        } else {
            nibble_buf = l;
            have_nibble = true;
        }
    }
    if have_nibble {
        out.push(nibble_buf);
    }

    let mut w = BitSink::new(out);
    for &s in symbols {
        if (s as usize) < HOT_SYMBOLS && book.lengths[s as usize] > 0 {
            book.emit(&mut w, s as usize);
        } else {
            book.emit(&mut w, ESCAPE);
            w.write_bits(s, 32);
        }
    }
}

/// The replaced `huffman::decode_into`, returning the symbols.
pub fn huffman_decode(bytes: &[u8]) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    let n = varint::read_u64(bytes, &mut pos)? as usize;
    let table_bytes = (HOT_SYMBOLS + 1).div_ceil(2);
    let packed = bytes
        .get(pos..pos + table_bytes)
        .ok_or(CompressError::Corrupt("truncated codebook"))?;
    pos += table_bytes;
    let mut lengths = Vec::with_capacity(HOT_SYMBOLS + 1);
    for &b in packed {
        lengths.push(b & 0x0F);
        if lengths.len() < HOT_SYMBOLS + 1 {
            lengths.push(b >> 4);
        }
    }
    lengths.truncate(HOT_SYMBOLS + 1);
    let book = Codebook::from_lengths(lengths)?;
    let decoder = Decoder::new(&book);

    let mut r = BitReader::new(&bytes[pos..]);
    out.reserve(n.min(1 << 22));
    for _ in 0..n {
        let symbol = decoder.read_symbol(&mut r)?;
        if symbol == ESCAPE {
            out.push(r.read_bits(32)?);
        } else {
            out.push(symbol as u32);
        }
    }
    Ok(out)
}

struct Decoder {
    table: Vec<(u16, u8)>,
}

impl Decoder {
    fn new(book: &Codebook) -> Decoder {
        let size = 1usize << MAX_CODE_LEN;
        let mut table = vec![(u16::MAX, 0u8); size];
        for (sym, (&len, &code)) in book.lengths.iter().zip(book.codes.iter()).enumerate() {
            if len == 0 {
                continue;
            }
            let rev = reverse_bits(code, len);
            let step = 1usize << len;
            let mut idx = rev as usize;
            while idx < size {
                table[idx] = (sym as u16, len);
                idx += step;
            }
        }
        Decoder { table }
    }

    fn read_symbol(&self, r: &mut BitReader<'_>) -> Result<usize> {
        let mut probe = r.clone();
        let mut window = 0u32;
        let mut got = 0u8;
        while got < MAX_CODE_LEN {
            match probe.read_bits(1) {
                Ok(bit) => {
                    window |= bit << got;
                    got += 1;
                }
                Err(_) => break,
            }
        }
        if got == 0 {
            return Err(CompressError::Corrupt("huffman stream ended early"));
        }
        let (sym, len) = self.table[window as usize];
        if sym == u16::MAX || len == 0 || len > got {
            return Err(CompressError::Corrupt("invalid huffman code"));
        }
        r.read_bits(len)?;
        Ok(sym as usize)
    }
}

fn reverse_bits(code: u32, len: u8) -> u32 {
    let mut out = 0u32;
    for i in 0..len {
        if code & (1 << (len - 1 - i)) != 0 {
            out |= 1 << i;
        }
    }
    out
}

fn huffman_code_lengths(freqs: &[u64]) -> Vec<u8> {
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        index: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .weight
                .cmp(&self.weight)
                .then_with(|| other.index.cmp(&self.index))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let n = freqs.len();
    let present: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    let mut lengths = vec![0u8; n];
    match present.len() {
        0 => return lengths,
        1 => {
            lengths[present[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    let mut parent = vec![usize::MAX; n + present.len()];
    let mut heap = BinaryHeap::new();
    for &i in &present {
        heap.push(Node {
            weight: freqs[i],
            index: i,
        });
    }
    let mut next_internal = n;
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1");
        let b = heap.pop().expect("len > 1");
        parent[a.index] = next_internal;
        parent[b.index] = next_internal;
        heap.push(Node {
            weight: a.weight + b.weight,
            index: next_internal,
        });
        next_internal += 1;
    }
    for &i in &present {
        let mut depth = 0u8;
        let mut node = i;
        while parent[node] != usize::MAX {
            node = parent[node];
            depth = depth.saturating_add(1);
        }
        lengths[i] = depth.max(1);
    }
    lengths
}

fn limit_lengths(lengths: &mut Vec<u8>, freqs: &[u64], max_len: u8) {
    let mut damp = freqs.to_vec();
    let mut iterations = 0;
    while lengths.iter().any(|&l| l > max_len) && iterations < 32 {
        for f in damp.iter_mut() {
            if *f > 0 {
                *f = (*f / 2).max(1);
            }
        }
        *lengths = huffman_code_lengths(&damp);
        iterations += 1;
    }
    if lengths.iter().any(|&l| l > max_len) {
        let present = freqs.iter().filter(|&&f| f > 0).count().max(2);
        let fixed = (usize::BITS - (present - 1).leading_zeros()) as u8;
        for (l, &f) in lengths.iter_mut().zip(freqs.iter()) {
            *l = if f > 0 { fixed.clamp(1, max_len) } else { 0 };
        }
    }
}

fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
    let mut symbols: Vec<usize> = (0..lengths.len()).filter(|&i| lengths[i] > 0).collect();
    symbols.sort_by_key(|&i| (lengths[i], i));
    let mut codes = vec![0u32; lengths.len()];
    let mut code = 0u32;
    let mut prev_len = 0u8;
    for &sym in &symbols {
        let len = lengths[sym];
        code <<= len - prev_len;
        codes[sym] = code;
        code += 1;
        prev_len = len;
    }
    codes
}

/// The rounding `quant::round_half_away` replaced: libm's, ties away from
/// zero.
pub fn round(q: f64) -> f64 {
    q.round()
}

/// The replaced `quant::quantize_into`: one `f64::round` per value, with the
/// first offender's error and the codes before it left in `codes`.
pub fn quantize_into(data: &[f32], eb: f32, codes: &mut Vec<i32>) -> Result<()> {
    quant::validate_error_bound(eb)?;
    codes.clear();
    let step = 2.0f64 * eb as f64;
    for &x in data {
        if !x.is_finite() {
            return Err(CompressError::NonFiniteInput);
        }
        let code = round(x as f64 / step);
        if code.abs() > quant::MAX_CODE_MAGNITUDE as f64 {
            return Err(CompressError::CodeOverflow(x));
        }
        codes.push(code as i32);
    }
    Ok(())
}

/// The replaced `vlz::compress`: the match table is a `HashMap` from the
/// FNV-1a hash of a vector's codes to the most recent index with that hash.
/// Literals go out one varint at a time, without the encoder's 8-wide
/// shortcut.
pub fn vlz_compress(data: &[f32], dim: usize, eb: f32, config: VlzConfig) -> Result<Vec<u8>> {
    quant::check_dim(data.len(), dim)?;
    let mut all_codes = Vec::new();
    quantize_into(data, eb, &mut all_codes)?;
    let n_vectors = all_codes.len() / dim;

    let mut out = Vec::new();
    varint::write_u64(&mut out, n_vectors as u64);
    varint::write_u64(&mut out, dim as u64);
    varint::write_u64(&mut out, config.window as u64);
    varint::write_f32_le(&mut out, eb);

    let mut recent: HashMap<u64, usize> = HashMap::new();
    for v in 0..n_vectors {
        let codes = &all_codes[v * dim..(v + 1) * dim];
        let key = fnv1a(codes);
        let matched = match recent.get(&key) {
            Some(&prev)
                if v - prev <= config.window
                    && all_codes[prev * dim..(prev + 1) * dim] == *codes =>
            {
                Some(prev)
            }
            _ => None,
        };
        match matched {
            Some(prev) => varint::write_u64(&mut out, (v - prev) as u64),
            None => {
                varint::write_u64(&mut out, 0);
                for &c in codes {
                    varint::write_i64(&mut out, c as i64);
                }
            }
        }
        recent.insert(key, v);
    }
    Ok(out)
}

/// FNV-1a over a vector's quantization codes.
fn fnv1a(codes: &[i32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    for &c in codes {
        h ^= c as u32 as u64;
        h = h.wrapping_mul(0x100_0000_01b3); // FNV prime (2^40 + 0x1b3)
    }
    h
}

/// The replaced entropy stream ("Ours-Huffman"):
/// `[n varint] [dim varint] [eb f32] [huffman stream]`.
fn entropy_compress_into(data: &[f32], dim: usize, eb: f32, out: &mut Vec<u8>) -> Result<()> {
    let mut codes = Vec::new();
    quantize_into(data, eb, &mut codes)?;
    varint::write_u64(out, data.len() as u64);
    varint::write_u64(out, dim as u64);
    varint::write_f32_le(out, eb);
    huffman_encode_into(&quant::codes_to_symbols(&codes), out);
    Ok(())
}

/// The replaced `hybrid::compress`: `Auto` compresses with both back-ends
/// and keeps the vector-LZ stream unless the Huffman one is strictly smaller.
pub fn hybrid_compress(data: &[f32], dim: usize, eb: f32, selection: Selection) -> Result<Vec<u8>> {
    let mut lz = Vec::new();
    let mut hf = Vec::new();
    if selection != Selection::Huffman {
        lz = vlz_compress(data, dim, eb, VlzConfig::default())?;
    }
    if selection != Selection::Vlz {
        entropy_compress_into(data, dim, eb, &mut hf)?;
    }
    let keep_lz = match selection {
        Selection::Vlz => true,
        Selection::Huffman => false,
        Selection::Auto => lz.len() <= hf.len(),
    };
    let (tag, body) = if keep_lz {
        (TAG_VLZ, lz)
    } else {
        (TAG_HUFFMAN, hf)
    };
    let mut out = vec![tag];
    out.extend_from_slice(&body);
    Ok(out)
}

/// The replaced `hybrid::decompress`.
pub fn hybrid_decompress(bytes: &[u8]) -> Result<Vec<f32>> {
    let (&tag, payload) = bytes
        .split_first()
        .ok_or(CompressError::Corrupt("empty hybrid stream"))?;
    match tag {
        TAG_VLZ => vlz::decompress(payload),
        TAG_HUFFMAN => {
            let mut pos = 0usize;
            let n = varint::read_u64(payload, &mut pos)? as usize;
            let _dim = varint::read_u64(payload, &mut pos)?;
            let eb = varint::read_f32_le(payload, &mut pos)?;
            quant::validate_error_bound(eb)
                .map_err(|_| CompressError::Corrupt("bad error bound in header"))?;
            let symbols = huffman_decode(&payload[pos..])?;
            if symbols.len() != n {
                return Err(CompressError::Corrupt(
                    "entropy stream decoded wrong length",
                ));
            }
            quant::dequantize(&quant::symbols_to_codes(&symbols), eb)
        }
        _ => Err(CompressError::UnsupportedFormat(
            "unknown hybrid back-end tag",
        )),
    }
}
