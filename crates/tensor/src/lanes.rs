//! [`F4`], the 4-lane `f32` vector the dense kernels in [`crate::matrix`]
//! are written in — the one module of this crate that uses `unsafe`.
//!
//! On x86_64 an `F4` is an SSE2 register. SSE2 is part of the x86_64
//! baseline, so every x86_64 build compiles this path: there is no runtime
//! CPU detection and no `target-cpu` flag. Every other target gets the same
//! API over a `[f32; 4]`. Either way an operation is four independent IEEE
//! `f32` operations, one per lane, and a multiply and an add stay two
//! roundings (never a fused multiply–add), so a kernel's bits do not depend
//! on which of the two it runs on or on the CPU's optional features.

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
pub(crate) use sse2::F4;

#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
pub(crate) use portable::F4;

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse2 {
    use core::arch::x86_64::{
        __m128, _mm_add_ps, _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_mul_ps, _mm_set1_ps,
        _mm_setzero_ps, _mm_storeu_ps, _mm_unpackhi_ps, _mm_unpacklo_ps,
    };
    use core::ops::{Add, Mul};

    /// Four `f32` lanes in one SSE2 register.
    #[derive(Clone, Copy)]
    pub(crate) struct F4(__m128);

    impl F4 {
        /// All lanes `+0.0`.
        #[inline(always)]
        pub(crate) fn zero() -> Self {
            // SAFETY: the module's cfg guarantees SSE2 for the whole build; the
            // intrinsic reads only its register operands.
            Self(unsafe { _mm_setzero_ps() })
        }

        /// All lanes `x`.
        #[inline(always)]
        pub(crate) fn splat(x: f32) -> Self {
            // SAFETY: the module's cfg guarantees SSE2 for the whole build; the
            // intrinsic reads only its register operands.
            Self(unsafe { _mm_set1_ps(x) })
        }

        /// Lanes `s[0..4]`.
        ///
        /// # Panics
        /// Panics if `s` is shorter than 4.
        #[inline(always)]
        pub(crate) fn load(s: &[f32]) -> Self {
            let s = &s[..4];
            // SAFETY: `s` is a length-checked slice of 4 initialised floats,
            // and `_mm_loadu_ps` reads exactly 4 with no alignment needed.
            Self(unsafe { _mm_loadu_ps(s.as_ptr()) })
        }

        /// Write the lanes to `s[0..4]`.
        ///
        /// # Panics
        /// Panics if `s` is shorter than 4.
        #[inline(always)]
        pub(crate) fn store(self, s: &mut [f32]) {
            let s = &mut s[..4];
            // SAFETY: `s` is a length-checked, exclusively borrowed slice of
            // 4 floats, and `_mm_storeu_ps` writes exactly 4 with no
            // alignment needed.
            unsafe { _mm_storeu_ps(s.as_mut_ptr(), self.0) }
        }

        /// The lanes as an array.
        #[inline(always)]
        pub(crate) fn to_array(self) -> [f32; 4] {
            let mut lanes = [0.0; 4];
            self.store(&mut lanes);
            lanes
        }

        /// Rows to columns: lane `j` of output `l` is lane `l` of input `j`.
        #[inline(always)]
        pub(crate) fn transpose([a, b, c, d]: [Self; 4]) -> [Self; 4] {
            // SAFETY: the module's cfg guarantees SSE2 for the whole build;
            // the intrinsics only shuffle their register operands.
            unsafe {
                let ab_lo = _mm_unpacklo_ps(a.0, b.0); // a0 b0 a1 b1
                let cd_lo = _mm_unpacklo_ps(c.0, d.0); // c0 d0 c1 d1
                let ab_hi = _mm_unpackhi_ps(a.0, b.0); // a2 b2 a3 b3
                let cd_hi = _mm_unpackhi_ps(c.0, d.0); // c2 d2 c3 d3
                [
                    Self(_mm_movelh_ps(ab_lo, cd_lo)),
                    Self(_mm_movehl_ps(cd_lo, ab_lo)),
                    Self(_mm_movelh_ps(ab_hi, cd_hi)),
                    Self(_mm_movehl_ps(cd_hi, ab_hi)),
                ]
            }
        }
    }

    impl Add for F4 {
        type Output = Self;
        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            // SAFETY: the module's cfg guarantees SSE2 for the whole build; the
            // intrinsic reads only its register operands.
            Self(unsafe { _mm_add_ps(self.0, rhs.0) })
        }
    }

    impl Mul for F4 {
        type Output = Self;
        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            // SAFETY: the module's cfg guarantees SSE2 for the whole build; the
            // intrinsic reads only its register operands.
            Self(unsafe { _mm_mul_ps(self.0, rhs.0) })
        }
    }
}

/// The same API on every other target, and the reference the SSE2 path is
/// tested against.
#[cfg_attr(all(target_arch = "x86_64", target_feature = "sse2"), allow(dead_code))]
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
mod portable {
    use core::ops::{Add, Mul};

    /// Four `f32` lanes in an array.
    #[derive(Clone, Copy)]
    pub(crate) struct F4([f32; 4]);

    impl F4 {
        /// All lanes `+0.0`.
        #[inline(always)]
        pub(crate) fn zero() -> Self {
            Self([0.0; 4])
        }

        /// All lanes `x`.
        #[inline(always)]
        pub(crate) fn splat(x: f32) -> Self {
            Self([x; 4])
        }

        /// Lanes `s[0..4]`.
        ///
        /// # Panics
        /// Panics if `s` is shorter than 4.
        #[inline(always)]
        pub(crate) fn load(s: &[f32]) -> Self {
            Self([s[0], s[1], s[2], s[3]])
        }

        /// Write the lanes to `s[0..4]`.
        ///
        /// # Panics
        /// Panics if `s` is shorter than 4.
        #[inline(always)]
        pub(crate) fn store(self, s: &mut [f32]) {
            s[..4].copy_from_slice(&self.0);
        }

        /// The lanes as an array.
        #[inline(always)]
        pub(crate) fn to_array(self) -> [f32; 4] {
            self.0
        }

        /// Rows to columns: lane `j` of output `l` is lane `l` of input `j`.
        #[inline(always)]
        pub(crate) fn transpose(rows: [Self; 4]) -> [Self; 4] {
            [0, 1, 2, 3].map(|l| Self(rows.map(|r| r.0[l])))
        }
    }

    impl Add for F4 {
        type Output = Self;
        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            Self([0, 1, 2, 3].map(|l| self.0[l] + rhs.0[l]))
        }
    }

    impl Mul for F4 {
        type Output = Self;
        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            Self([0, 1, 2, 3].map(|l| self.0[l] * rhs.0[l]))
        }
    }
}

#[cfg(all(test, target_arch = "x86_64", target_feature = "sse2"))]
mod tests {
    use super::{portable, sse2};
    use crate::SeededRng;

    /// Bits, with every NaN as one value: IEEE fixes whether a lane is NaN,
    /// not which payload it carries.
    fn bits(lanes: [f32; 4]) -> [u32; 4] {
        lanes.map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
    }

    /// Signed zeros, infinities, NaN, a subnormal, extremes and random values.
    fn operand(rng: &mut SeededRng) -> [f32; 4] {
        const SPECIAL: [f32; 8] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e-40,
            f32::MAX,
            -1.5,
        ];
        [(); 4].map(|_| match rng.index(3) {
            0 => SPECIAL[rng.index(SPECIAL.len())],
            _ => rng.uniform(-4.0, 4.0),
        })
    }

    #[test]
    fn sse2_lanes_match_the_portable_lanes() {
        let mut rng = SeededRng::new(5);
        for _ in 0..2_000 {
            let [a, b, c, d] = [(); 4].map(|_| operand(&mut rng));
            let (sa, sb) = (sse2::F4::load(&a), sse2::F4::load(&b));
            let (pa, pb) = (portable::F4::load(&a), portable::F4::load(&b));
            assert_eq!(bits((sa + sb).to_array()), bits((pa + pb).to_array()));
            assert_eq!(bits((sa * sb).to_array()), bits((pa * pb).to_array()));
            let s = sse2::F4::transpose([a, b, c, d].map(|r| sse2::F4::load(&r)));
            let p = portable::F4::transpose([a, b, c, d].map(|r| portable::F4::load(&r)));
            assert_eq!(s.map(|v| bits(v.to_array())), p.map(|v| bits(v.to_array())));
            let mut out = [1.0; 5];
            sse2::F4::splat(a[0]).store(&mut out[1..]);
            assert_eq!(out[0], 1.0, "store wrote before its slice");
            assert_eq!(bits(out[1..].try_into().unwrap()), bits([a[0]; 4]));
        }
        assert_eq!(sse2::F4::zero().to_array().map(f32::to_bits), [0; 4]);
        assert_eq!(portable::F4::zero().to_array().map(f32::to_bits), [0; 4]);
    }
}
