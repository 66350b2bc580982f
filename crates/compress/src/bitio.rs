//! Bit-level writer and reader used by the Huffman and Deflate-like encoders.
//!
//! Bits are packed LSB-first into bytes; the writer pads the final byte with
//! zero bits. Both ends work a machine word at a time: a 64-bit accumulator
//! that spills (writer) or refills (reader) several bytes per memory access,
//! so one Huffman symbol costs a shift and a mask instead of a per-bit loop.

use crate::error::CompressError;
use crate::Result;

/// The low `count` (≤ 32) bits set.
#[inline]
fn low_mask(count: u32) -> u64 {
    (1u64 << count) - 1
}

/// Packs bits LSB-first into a *caller-owned* byte vector (appending after
/// its current contents) so the hot path can reuse one output buffer across
/// calls instead of allocating per stream.
///
/// Bits are held in an accumulator until [`BitSink::finish`] writes the last
/// partial word; a sink dropped without `finish` loses up to 31 bits.
#[derive(Debug)]
pub struct BitSink<'a> {
    bytes: &'a mut Vec<u8>,
    /// Pending bits, LSB first; bits at and above `nbits` are zero.
    acc: u64,
    /// Number of pending bits, < 32 between calls.
    nbits: u32,
}

impl<'a> BitSink<'a> {
    /// Start appending bits to `bytes`.
    pub fn new(bytes: &'a mut Vec<u8>) -> Self {
        Self {
            bytes,
            acc: 0,
            nbits: 0,
        }
    }

    /// Append the low `count` bits of `value`, LSB first.
    ///
    /// # Panics
    /// Panics if `count > 32`.
    #[inline]
    pub fn write_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        let count = u32::from(count);
        self.acc |= (u64::from(value) & low_mask(count)) << self.nbits;
        self.nbits += count;
        if self.nbits >= 32 {
            self.bytes
                .extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Write the pending bits, zero-padding the final byte.
    pub fn finish(self) {
        let tail = self.nbits.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&self.acc.to_le_bytes()[..tail]);
    }
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte to load into the accumulator.
    pos: usize,
    /// Loaded, unconsumed bits, LSB first; bits at and above `nbits` are zero.
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Create a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Top the accumulator up to at least 56 bits, or to everything that is
    /// left of the stream.
    #[inline]
    pub fn refill(&mut self) {
        if let Some(word) = self.bytes.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("slice of 8"));
            // Whole bytes that fit above the pending bits; the mask drops the
            // partial byte the shift carried along with them.
            let take = (63 - self.nbits) / 8;
            self.acc |= word << self.nbits;
            self.nbits += take * 8;
            self.acc &= u64::MAX >> (64 - self.nbits);
            self.pos += take as usize;
        } else {
            while self.nbits < 56 && self.pos < self.bytes.len() {
                self.acc |= u64::from(self.bytes[self.pos]) << self.nbits;
                self.nbits += 8;
                self.pos += 1;
            }
        }
    }

    /// Bytes holding at least one consumed bit: where the stream ends once
    /// every code is read (its last byte's high bits are padding).
    pub fn consumed_bytes(&self) -> usize {
        self.pos - (self.nbits / 8) as usize
    }

    /// Loaded bits not yet consumed. After [`BitReader::refill`], fewer than
    /// 56 means the stream has no more than that left.
    #[inline]
    pub fn available(&self) -> u32 {
        self.nbits
    }

    /// The next `count` (≤ 32) loaded bits without consuming them; positions
    /// past the loaded bits read as zero.
    #[inline]
    pub fn peek(&self, count: u32) -> u32 {
        (self.acc & low_mask(count)) as u32
    }

    /// Drop `count` loaded bits. `count` must not exceed
    /// [`BitReader::available`].
    #[inline]
    pub fn consume(&mut self, count: u32) {
        debug_assert!(count <= self.nbits, "consuming bits that were not loaded");
        self.acc >>= count;
        self.nbits -= count;
    }

    /// Read the next `count` bits (≤ 32), LSB first.
    #[inline]
    pub fn read_bits(&mut self, count: u8) -> Result<u32> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        let count = u32::from(count);
        if self.nbits < count {
            self.refill();
            if self.nbits < count {
                return Err(CompressError::Corrupt("bit stream ended early"));
            }
        }
        let value = self.peek(count);
        self.consume(count);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use proptest::prelude::*;

    fn written(values: &[(u32, u8)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut w = BitSink::new(&mut bytes);
        for &(v, c) in values {
            w.write_bits(v, c);
        }
        w.finish();
        bytes
    }

    #[test]
    fn roundtrip_varied_widths() {
        let values: Vec<(u32, u8)> = vec![
            (1, 1),
            (0, 1),
            (5, 3),
            (255, 8),
            (1023, 10),
            (0xDEAD_BEEF & 0x7FFF_FFFF, 31),
            (0xFFFF_FFFF, 32),
            (3, 2),
        ];
        let bytes = written(&values);
        let mut r = BitReader::new(&bytes);
        for &(v, c) in &values {
            assert_eq!(r.read_bits(c).unwrap(), v, "width {c}");
        }
    }

    #[test]
    fn final_byte_is_zero_padded() {
        assert_eq!(written(&[(0b101, 3), (0xFF, 8)]), vec![0b1111_1101, 0b111]);
        assert!(written(&[]).is_empty());
        assert!(written(&[(7, 0)]).is_empty());
    }

    #[test]
    fn bits_above_count_are_ignored() {
        assert_eq!(written(&[(0xFFFF_FFFF, 3)]), vec![0b111]);
    }

    #[test]
    fn reading_past_end_errors() {
        let bytes = written(&[(0b11, 2)]);
        let mut r = BitReader::new(&bytes);
        // The padded byte still allows reading up to 8 bits...
        assert!(r.read_bits(8).is_ok());
        // ... but the 9th bit is past the end.
        assert!(r.read_bits(1).is_err());
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn peek_pads_with_zeros_past_the_end() {
        let mut r = BitReader::new(&[0xFF]);
        r.refill();
        assert_eq!(r.available(), 8);
        assert_eq!(r.peek(15), 0xFF);
        r.consume(5);
        assert_eq!(r.peek(15), 0b111);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Same bytes as the byte-at-a-time writer, and both readers return
        /// the same values from them — including the first failing read past
        /// the end.
        #[test]
        fn matches_reference_bit_for_bit(
            values in prop::collection::vec((any::<u32>(), 0u8..=32), 0..200),
            extra_reads in prop::collection::vec(0u8..=32, 0..4),
        ) {
            let bytes = written(&values);
            let mut ref_bytes = Vec::new();
            let mut w = reference::BitSink::new(&mut ref_bytes);
            for &(v, c) in &values {
                w.write_bits(v, c);
            }
            prop_assert_eq!(&bytes, &ref_bytes, "values {:?}", values);

            let mut new = BitReader::new(&bytes);
            let mut old = reference::BitReader::new(&bytes);
            let widths = values.iter().map(|&(_, c)| c).chain(extra_reads.iter().copied());
            for c in widths {
                let (a, b) = (new.read_bits(c), old.read_bits(c));
                prop_assert_eq!(&a, &b, "width {} over {:02x?}", c, bytes);
                if a.is_err() {
                    break;
                }
            }
        }
    }
}
