//! Low-precision casting baselines: FP16 and FP8 (E4M3).
//!
//! The paper's second baseline family reduces communication volume by casting
//! embedding lookups to a narrower floating-point type before the all-to-all.
//! The compression ratio is *fixed* (2× for FP16, 4× for FP8) and the error is
//! relative rather than absolutely bounded — the two limitations the paper
//! calls out. Conversion is implemented by hand (round-to-nearest-even) so the
//! crate has no dependency on a half-precision library.

use crate::error::CompressError;
use crate::varint;
use crate::Result;

/// Convert an f32 to IEEE 754 binary16, round-to-nearest-even.
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf / NaN.
        let m = if mant != 0 { 0x0200 } else { 0 };
        return sign | 0x7C00 | m;
    }
    // Re-bias: f32 exp-127, f16 exp-15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7C00; // overflow → ±inf
    }
    if unbiased >= -14 {
        // Normal f16.
        let mut half_exp = (unbiased + 15) as u32;
        let mut half_mant = mant >> 13;
        // Round to nearest even on the 13 dropped bits.
        let round_bits = mant & 0x1FFF;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (half_mant & 1) == 1) {
            half_mant += 1;
            if half_mant == 0x400 {
                half_mant = 0;
                half_exp += 1;
                if half_exp >= 31 {
                    return sign | 0x7C00;
                }
            }
        }
        return sign | ((half_exp as u16) << 10) | (half_mant as u16);
    }
    // Subnormal f16 (or underflow to zero).
    if unbiased < -25 {
        return sign;
    }
    let full_mant = mant | 0x0080_0000;
    let shift = (-14 - unbiased) as u32 + 13;
    let mut half_mant = full_mant >> shift;
    let round_bit = 1u32 << (shift - 1);
    let round_mask = (1u32 << shift) - 1;
    if (full_mant & round_mask) > round_bit
        || ((full_mant & round_mask) == round_bit && (half_mant & 1) == 1)
    {
        half_mant += 1;
    }
    sign | (half_mant as u16)
}

/// Convert IEEE 754 binary16 bits back to f32.
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1F) as u32;
    let mant = (bits & 0x03FF) as u32;
    let out = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: normalise.
            let mut e = 127 - 15 + 1;
            let mut m = mant;
            while m & 0x0400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x03FF;
            sign | ((e as u32) << 23) | (m << 13)
        }
    } else if exp == 0x1F {
        sign | 0x7F80_0000 | (mant << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(out)
}

/// Convert an f32 to FP8 E4M3 (4 exponent bits, 3 mantissa bits, bias 7),
/// round-to-nearest-even, saturating at ±448.
pub fn f32_to_fp8_e4m3(value: f32) -> u8 {
    if value.is_nan() {
        return 0x7F;
    }
    let sign: u8 = if value.is_sign_negative() { 0x80 } else { 0 };
    let mag = value.abs();
    if mag == 0.0 {
        return sign;
    }
    const MAX_E4M3: f32 = 448.0;
    if mag >= MAX_E4M3 {
        return sign | 0x7E; // largest finite magnitude (E4M3 has no inf)
    }
    // Decompose into exponent/mantissa by scaling.
    let exp = mag.log2().floor() as i32;
    let exp = exp.clamp(-9, 8);
    let frac = mag / (2.0f32).powi(exp); // in [1, 2) for normals
    if exp >= -6 {
        // Normal range.
        let mant = ((frac - 1.0) * 8.0).round() as u32;
        let (mant, exp) = if mant == 8 { (0, exp + 1) } else { (mant, exp) };
        if exp > 8 {
            return sign | 0x7E;
        }
        let e_field = (exp + 7) as u8;
        sign | (e_field << 3) | (mant as u8)
    } else {
        // Subnormal: value = mant/8 * 2^-6.
        let mant = (mag / (2.0f32).powi(-6) * 8.0).round() as u32;
        let mant = mant.min(7);
        sign | (mant as u8)
    }
}

/// Convert FP8 E4M3 bits back to f32.
pub fn fp8_e4m3_to_f32(bits: u8) -> f32 {
    let sign = if bits & 0x80 != 0 { -1.0f32 } else { 1.0 };
    let e_field = (bits >> 3) & 0x0F;
    let mant = (bits & 0x07) as f32;
    if e_field == 0x0F && (bits & 0x07) == 0x07 {
        return f32::NAN;
    }
    if e_field == 0 {
        return sign * (mant / 8.0) * (2.0f32).powi(-6);
    }
    sign * (1.0 + mant / 8.0) * (2.0f32).powi(e_field as i32 - 7)
}

/// Which low-precision format to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// IEEE binary16 — fixed 2× size reduction.
    Fp16,
    /// FP8 E4M3 — fixed 4× size reduction.
    Fp8E4M3,
}

/// Compress by casting down. Layout: `[n varint][format u8][payload]`.
pub fn compress(data: &[f32], precision: Precision) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + data.len() * 2);
    compress_into(data, precision, &mut out);
    out
}

/// Allocation-free [`compress`]: *appends* the stream to `out`.
///
/// Both formats convert in fixed-width chunks of 16 values staged through a
/// stack array, appended to the stream one chunk at a time — the hot loop
/// runs register-to-register instead of bounds-checking the `Vec` per
/// element, and its fixed trip count is what the autovectorizer needs.
pub fn compress_into(data: &[f32], precision: Precision, out: &mut Vec<u8>) {
    varint::write_u64(out, data.len() as u64);
    match precision {
        Precision::Fp16 => {
            out.push(0);
            out.reserve(data.len() * 2);
            let mut stage = [0u8; 32];
            let mut chunks = data.chunks_exact(16);
            for chunk in &mut chunks {
                for (slot, &v) in stage.chunks_exact_mut(2).zip(chunk) {
                    slot.copy_from_slice(&f32_to_f16_bits(v).to_le_bytes());
                }
                out.extend_from_slice(&stage);
            }
            for &v in chunks.remainder() {
                out.extend_from_slice(&f32_to_f16_bits(v).to_le_bytes());
            }
        }
        Precision::Fp8E4M3 => {
            out.push(1);
            out.reserve(data.len());
            let mut stage = [0u8; 16];
            let mut chunks = data.chunks_exact(16);
            for chunk in &mut chunks {
                for (slot, &v) in stage.iter_mut().zip(chunk) {
                    *slot = f32_to_fp8_e4m3(v);
                }
                out.extend_from_slice(&stage);
            }
            for &v in chunks.remainder() {
                out.push(f32_to_fp8_e4m3(v));
            }
        }
    }
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(bytes: &[u8]) -> Result<Vec<f32>> {
    let mut out = Vec::new();
    decompress_into(bytes, &mut out)?;
    Ok(out)
}

/// Allocation-free [`decompress`]: *appends* the values to `out`. A stream
/// whose payload is shorter or longer than its count says is an `Err`.
pub fn decompress_into(bytes: &[u8], out: &mut Vec<f32>) -> Result<()> {
    let mut pos = 0usize;
    let n = varint::read_u64(bytes, &mut pos)? as usize;
    let &fmt = bytes
        .get(pos)
        .ok_or(CompressError::Corrupt("missing precision byte"))?;
    let payload = &bytes[pos + 1..];
    let width = match fmt {
        0 => 2,
        1 => 1,
        _ => return Err(CompressError::UnsupportedFormat("unknown precision tag")),
    };
    match n.checked_mul(width) {
        Some(len) if len == payload.len() => {}
        Some(len) if len > payload.len() => {
            return Err(CompressError::Corrupt("truncated low-precision payload"))
        }
        _ => {
            return Err(CompressError::Corrupt(
                "bytes after the low-precision payload",
            ))
        }
    }
    out.reserve(n);
    // Mirror of the compress staging: 16 values per fixed-width pass.
    let mut stage = [0f32; 16];
    if width == 2 {
        let mut chunks = payload.chunks_exact(32);
        for chunk in &mut chunks {
            for (slot, pair) in stage.iter_mut().zip(chunk.chunks_exact(2)) {
                *slot = f16_bits_to_f32(u16::from_le_bytes([pair[0], pair[1]]));
            }
            out.extend_from_slice(&stage);
        }
        out.extend(
            chunks
                .remainder()
                .chunks_exact(2)
                .map(|c| f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]]))),
        );
    } else {
        let mut chunks = payload.chunks_exact(16);
        for chunk in &mut chunks {
            for (slot, &b) in stage.iter_mut().zip(chunk) {
                *slot = fp8_e4m3_to_f32(b);
            }
            out.extend_from_slice(&stage);
        }
        out.extend(chunks.remainder().iter().map(|&b| fp8_e4m3_to_f32(b)));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_roundtrip_exact_values() {
        for &v in &[0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, 6.1035156e-5] {
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            assert_eq!(back, v, "value {v}");
        }
    }

    #[test]
    fn f16_relative_error_small() {
        for i in 0..2000 {
            let v = (i as f32 - 1000.0) * 0.0137 + 0.001;
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            let rel = ((back - v) / v.abs().max(1e-6)).abs();
            assert!(rel < 1e-3, "value {v} came back {back}");
        }
    }

    #[test]
    fn f16_specials() {
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(f32::INFINITY)),
            f32::INFINITY
        );
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(f32::NEG_INFINITY)),
            f32::NEG_INFINITY
        );
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Overflow saturates to inf, tiny values flush toward zero.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e20)), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e-20)).abs(), 0.0);
    }

    #[test]
    fn fp8_roundtrip_representable_values() {
        for &v in &[0.0f32, 1.0, -1.0, 0.5, 2.0, 448.0, -448.0, 0.015625] {
            let back = fp8_e4m3_to_f32(f32_to_fp8_e4m3(v));
            assert_eq!(back, v, "value {v}");
        }
    }

    #[test]
    fn fp8_relative_error_is_coarse_but_bounded() {
        for i in 1..500 {
            let v = i as f32 * 0.01;
            let back = fp8_e4m3_to_f32(f32_to_fp8_e4m3(v));
            let rel = ((back - v) / v).abs();
            assert!(rel < 0.07, "value {v} came back {back} (rel {rel})");
        }
    }

    #[test]
    fn fp8_saturates() {
        assert_eq!(fp8_e4m3_to_f32(f32_to_fp8_e4m3(1e9)), 448.0);
        assert_eq!(fp8_e4m3_to_f32(f32_to_fp8_e4m3(-1e9)), -448.0);
        assert!(fp8_e4m3_to_f32(f32_to_fp8_e4m3(f32::NAN)).is_nan());
    }

    #[test]
    fn compressed_sizes_match_fixed_ratios() {
        let data = vec![0.125f32; 1000];
        let fp16 = compress(&data, Precision::Fp16);
        let fp8 = compress(&data, Precision::Fp8E4M3);
        assert!(fp16.len() >= 2000 && fp16.len() < 2016);
        assert!(fp8.len() >= 1000 && fp8.len() < 1016);
        assert_eq!(decompress(&fp16).unwrap(), data);
        assert_eq!(decompress(&fp8).unwrap(), data);
    }

    #[test]
    fn corrupt_stream_rejected() {
        let data = vec![1.0f32; 10];
        let enc = compress(&data, Precision::Fp16);
        assert!(decompress(&enc[..5]).is_err());
        assert!(decompress(&[]).is_err());
    }
}
