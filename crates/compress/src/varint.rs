//! LEB128 variable-length integers and ZigZag signed mapping.
//!
//! Quantization codes of embedding values concentrate near zero (the values
//! themselves are small and the bin width is the error bound), so encoding
//! literal codes as zigzag+LEB128 varints is already a solid baseline that
//! the vector-LZ encoder uses for its literal vectors.

use crate::error::CompressError;
use crate::Result;

/// Append `value` as an unsigned LEB128 varint.
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let mut byte = (value & 0x7F) as u8;
        value >>= 7;
        if value != 0 {
            byte |= 0x80;
        }
        out.push(byte);
        if value == 0 {
            break;
        }
    }
}

/// Bytes [`write_u64`] appends for `value`.
pub fn len_u64(value: u64) -> usize {
    (64 - (value | 1).leading_zeros()).div_ceil(7) as usize
}

/// Read an unsigned LEB128 varint starting at `pos`; advances `pos`.
pub fn read_u64(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut shift = 0u32;
    let mut value = 0u64;
    loop {
        let &byte = bytes
            .get(*pos)
            .ok_or(CompressError::Corrupt("varint ran past end of stream"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(CompressError::Corrupt("varint longer than 64 bits"));
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// ZigZag-encode a signed value so small magnitudes use few varint bytes.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a signed value as zigzag + LEB128.
pub fn write_i64(out: &mut Vec<u8>, value: i64) {
    write_u64(out, zigzag(value));
}

/// Read a signed zigzag + LEB128 value.
pub fn read_i64(bytes: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(unzigzag(read_u64(bytes, pos)?))
}

/// Append a little-endian u32 (fixed width, used for headers).
pub fn write_u32_le(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Read a little-endian u32 at `pos`; advances `pos`.
pub fn read_u32_le(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    let slice = bytes
        .get(*pos..*pos + 4)
        .ok_or(CompressError::Corrupt("truncated u32 field"))?;
    *pos += 4;
    Ok(u32::from_le_bytes(
        slice.try_into().expect("length checked"),
    ))
}

/// Append a little-endian f32 (used for storing the error bound in headers).
pub fn write_f32_le(out: &mut Vec<u8>, value: f32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Read a little-endian f32 at `pos`; advances `pos`.
pub fn read_f32_le(bytes: &[u8], pos: &mut usize) -> Result<f32> {
    let slice = bytes
        .get(*pos..*pos + 4)
        .ok_or(CompressError::Corrupt("truncated f32 field"))?;
    *pos += 4;
    Ok(f32::from_le_bytes(
        slice.try_into().expect("length checked"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip_boundaries() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_maps_small_magnitudes_to_small_codes() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [-1000i64, -5, 0, 5, 1000, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn i64_roundtrip() {
        let values = [0i64, -1, 1, -64, 64, i32::MIN as i64, i32::MAX as i64];
        let mut buf = Vec::new();
        for &v in &values {
            write_i64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_i64(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn truncated_varint_errors() {
        let buf = vec![0x80u8, 0x80]; // continuation bits with no terminator
        let mut pos = 0;
        assert!(read_u64(&buf, &mut pos).is_err());
    }

    #[test]
    fn fixed_width_helpers_roundtrip() {
        let mut buf = Vec::new();
        write_u32_le(&mut buf, 0xDEAD_BEEF);
        write_f32_le(&mut buf, -1.5e-3);
        let mut pos = 0;
        assert_eq!(read_u32_le(&buf, &mut pos).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_f32_le(&buf, &mut pos).unwrap(), -1.5e-3);
        assert!(read_u32_le(&buf, &mut pos).is_err());
    }
}
