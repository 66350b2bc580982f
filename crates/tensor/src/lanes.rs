//! The lane types the dense kernels in [`crate::matrix`] are written in —
//! the one module of this crate that uses `unsafe`.
//!
//! A kernel body is written once over [`Lanes`], whose vector `V` holds
//! eight `f32` lanes, and [`dispatch`] runs it on the widest path the CPU
//! has, picked once per call:
//!
//! * on x86_64 with AVX (`is_x86_feature_detected!("avx")`), `V` is `F8`,
//!   one AVX register, and the body runs inside a
//!   `#[target_feature(enable = "avx")]` function;
//! * otherwise `V` is [`Halves`], two [`F4`]s: SSE2 registers on x86_64,
//!   where SSE2 is the baseline, and a `[f32; 4]` on every other target.
//!
//! The CPU alone picks the path: there is no setting and no `target-cpu`
//! flag. Either way a lane operation is one IEEE `f32` operation per lane,
//! and a multiply and an add stay two roundings (never a fused
//! multiply–add), so a kernel's bits do not depend on the path it runs on.

use core::ops::{Add, Mul};

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
pub(crate) use sse2::F4;

#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
pub(crate) use portable::F4;

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
pub(crate) use avx::Avx;

/// A lane path: the 8-lane vector `V` a kernel body computes in, and how to
/// enter the code that may use it.
pub(crate) trait Lanes: Copy {
    /// Eight `f32` lanes; `+` and `*` are one IEEE operation per lane.
    type V: Copy + Add<Output = Self::V> + Mul<Output = Self::V>;

    /// Registers one `V` occupies (1 for `F8`, 2 for [`Halves`]), so a
    /// body can size its register blocks.
    const REGISTERS: usize;

    /// All lanes `+0.0`.
    fn zero(self) -> Self::V;

    /// All lanes `x`.
    fn splat(self, x: f32) -> Self::V;

    /// Lanes `s[0..8]`.
    ///
    /// # Panics
    /// Panics if `s` is shorter than 8.
    fn load(self, s: &[f32]) -> Self::V;

    /// Write the lanes to `s[0..8]`.
    ///
    /// # Panics
    /// Panics if `s` is shorter than 8.
    fn store(self, v: Self::V, s: &mut [f32]);

    /// Lane `l` of the result is lane `l` plus lane `l + 4` of `v`.
    fn fold_halves(self, v: Self::V) -> F4;

    /// `kernel.body(self)`, compiled for this path's CPU features.
    fn run<K: Kernel>(self, kernel: K) -> K::Output;
}

/// A kernel written once over [`Lanes`].
pub(crate) trait Kernel {
    type Output;

    /// The kernel on `lanes`. Implementations, and every function they pass
    /// `lanes` to, must be `#[inline(always)]`: the AVX path compiles only
    /// what is inlined into its `target_feature` function for AVX.
    fn body<L: Lanes>(self, lanes: L) -> Self::Output;
}

/// Run `kernel` on the widest path this CPU has: [`Avx`] where the CPU has
/// AVX, [`Base`] otherwise. The check is one cached load per call.
#[inline(always)]
pub(crate) fn dispatch<K: Kernel>(kernel: K) -> K::Output {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    if let Some(avx) = Avx::detect() {
        return avx.run(kernel);
    }
    Base.run(kernel)
}

/// The path [`dispatch`] picks on this CPU: `"avx"`, `"sse2"` or
/// `"portable"`.
pub(crate) fn path() -> &'static str {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    if Avx::detect().is_some() {
        return "avx";
    }
    if cfg!(all(target_arch = "x86_64", target_feature = "sse2")) {
        "sse2"
    } else {
        "portable"
    }
}

/// Eight lanes as two [`F4`]s, `lo` (lanes 0–3) and `hi` (lanes 4–7): the
/// base path's vector.
#[derive(Clone, Copy)]
pub(crate) struct Halves {
    lo: F4,
    hi: F4,
}

impl Add for Halves {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self {
            lo: self.lo + rhs.lo,
            hi: self.hi + rhs.hi,
        }
    }
}

impl Mul for Halves {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self {
            lo: self.lo * rhs.lo,
            hi: self.hi * rhs.hi,
        }
    }
}

/// The path every CPU has: [`Halves`] of [`F4`]s, in the build's baseline
/// features.
#[derive(Clone, Copy)]
pub(crate) struct Base;

impl Lanes for Base {
    type V = Halves;
    const REGISTERS: usize = 2;

    #[inline(always)]
    fn zero(self) -> Halves {
        Halves {
            lo: F4::zero(),
            hi: F4::zero(),
        }
    }

    #[inline(always)]
    fn splat(self, x: f32) -> Halves {
        Halves {
            lo: F4::splat(x),
            hi: F4::splat(x),
        }
    }

    #[inline(always)]
    fn load(self, s: &[f32]) -> Halves {
        let s = &s[..8];
        Halves {
            lo: F4::load(s),
            hi: F4::load(&s[4..]),
        }
    }

    #[inline(always)]
    fn store(self, v: Halves, s: &mut [f32]) {
        let s = &mut s[..8];
        v.lo.store(s);
        v.hi.store(&mut s[4..]);
    }

    #[inline(always)]
    fn fold_halves(self, v: Halves) -> F4 {
        v.lo + v.hi
    }

    #[inline(always)]
    fn run<K: Kernel>(self, kernel: K) -> K::Output {
        kernel.body(self)
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse2 {
    use core::arch::x86_64::{
        __m128, _mm_add_ps, _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_mul_ps, _mm_set1_ps,
        _mm_setzero_ps, _mm_storeu_ps, _mm_unpackhi_ps, _mm_unpacklo_ps,
    };
    use core::ops::{Add, Mul};

    /// Four `f32` lanes in one SSE2 register.
    #[derive(Clone, Copy)]
    pub(crate) struct F4(pub(in crate::lanes) __m128);

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

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod avx {
    use super::{Kernel, Lanes, F4};
    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_loadu_ps,
        _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps, _mm_add_ps,
    };
    use core::ops::{Add, Mul};

    /// Proof that the CPU has AVX: only [`Avx::detect`] makes one.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx(());

    impl Avx {
        /// `Some` if `is_x86_feature_detected!("avx")`: the CPU has AVX and
        /// the OS saves its registers. The answer is cached after the first
        /// call.
        #[inline(always)]
        pub(crate) fn detect() -> Option<Self> {
            is_x86_feature_detected!("avx").then_some(Self(()))
        }
    }

    /// Eight `f32` lanes in one AVX register. Only an [`Avx`] makes one, so
    /// every `F8` in existence is on a CPU that `Avx::detect` found AVX on.
    #[derive(Clone, Copy)]
    pub(crate) struct F8(__m256);

    impl Add for F8 {
        type Output = Self;
        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            // SAFETY: `self` exists, so `is_x86_feature_detected!("avx")`
            // held; the intrinsic reads only its register operands.
            Self(unsafe { _mm256_add_ps(self.0, rhs.0) })
        }
    }

    impl Mul for F8 {
        type Output = Self;
        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            // SAFETY: `self` exists, so `is_x86_feature_detected!("avx")`
            // held; the intrinsic reads only its register operands.
            Self(unsafe { _mm256_mul_ps(self.0, rhs.0) })
        }
    }

    impl Lanes for Avx {
        type V = F8;
        const REGISTERS: usize = 1;

        #[inline(always)]
        fn zero(self) -> F8 {
            // SAFETY: `self` proves `is_x86_feature_detected!("avx")` held;
            // the intrinsic reads only its register operands.
            F8(unsafe { _mm256_setzero_ps() })
        }

        #[inline(always)]
        fn splat(self, x: f32) -> F8 {
            // SAFETY: `self` proves `is_x86_feature_detected!("avx")` held;
            // the intrinsic reads only its register operands.
            F8(unsafe { _mm256_set1_ps(x) })
        }

        #[inline(always)]
        fn load(self, s: &[f32]) -> F8 {
            let s = &s[..8];
            // SAFETY: `self` proves `is_x86_feature_detected!("avx")` held;
            // `s` is a length-checked slice of 8 initialised floats, and
            // `_mm256_loadu_ps` reads exactly 8 with no alignment needed.
            F8(unsafe { _mm256_loadu_ps(s.as_ptr()) })
        }

        #[inline(always)]
        fn store(self, v: F8, s: &mut [f32]) {
            let s = &mut s[..8];
            // SAFETY: `self` proves `is_x86_feature_detected!("avx")` held;
            // `s` is a length-checked, exclusively borrowed slice of 8
            // floats, and `_mm256_storeu_ps` writes exactly 8 with no
            // alignment needed.
            unsafe { _mm256_storeu_ps(s.as_mut_ptr(), v.0) }
        }

        #[inline(always)]
        fn fold_halves(self, v: F8) -> F4 {
            // SAFETY: `self` proves `is_x86_feature_detected!("avx")` held;
            // the intrinsics read only their register operands.
            F4(unsafe { _mm_add_ps(_mm256_castps256_ps128(v.0), _mm256_extractf128_ps::<1>(v.0)) })
        }

        #[inline(always)]
        fn run<K: Kernel>(self, kernel: K) -> K::Output {
            /// The kernel's body, inlined and compiled with AVX enabled.
            #[target_feature(enable = "avx")]
            fn with_avx<K: Kernel>(kernel: K, avx: Avx) -> K::Output {
                kernel.body(avx)
            }
            // SAFETY: `self` proves `is_x86_feature_detected!("avx")` held,
            // the one precondition of a `target_feature(enable = "avx")`
            // function.
            unsafe { with_avx(kernel, self) }
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
    use super::{portable, sse2, Avx, Base, Lanes};
    use crate::SeededRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Bits, with every NaN as one value: IEEE fixes whether a lane is NaN,
    /// not which payload it carries.
    fn bits<const N: usize>(lanes: [f32; N]) -> [u32; N] {
        lanes.map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
    }

    /// Signed zeros, infinities, NaN, subnormals, extremes and random values.
    fn operand<const N: usize>(rng: &mut SeededRng) -> [f32; N] {
        const SPECIAL: [f32; 10] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e-40,
            -3e-39,
            f32::MAX,
            f32::MIN,
            -1.5,
        ];
        [(); N].map(|_| match rng.index(3) {
            0 => SPECIAL[rng.index(SPECIAL.len())],
            _ => rng.uniform(-4.0, 4.0),
        })
    }

    #[test]
    fn sse2_lanes_match_the_portable_lanes() {
        let mut rng = SeededRng::new(5);
        for _ in 0..2_000 {
            let [a, b, c, d] = [(); 4].map(|_| operand::<4>(&mut rng));
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

    /// Eight lanes of `lanes` against two portable `F4`s, lane by lane.
    fn check_eight_lanes<L: Lanes>(lanes: L) {
        let to_array = |v: L::V| {
            let mut out = [0.0; 8];
            lanes.store(v, &mut out);
            out
        };
        let halves = |s: &[f32; 8]| (portable::F4::load(s), portable::F4::load(&s[4..]));
        let array = |(lo, hi): (portable::F4, portable::F4)| {
            let mut out = [0.0; 8];
            out[..4].copy_from_slice(&lo.to_array());
            out[4..].copy_from_slice(&hi.to_array());
            out
        };
        let mut rng = SeededRng::new(7);
        for _ in 0..2_000 {
            let (a, b) = (operand::<8>(&mut rng), operand::<8>(&mut rng));
            let (va, vb) = (lanes.load(&a), lanes.load(&b));
            let (pa, pb) = (halves(&a), halves(&b));
            assert_eq!(bits(to_array(va)), bits(a), "load then store");
            let sum = array((pa.0 + pb.0, pa.1 + pb.1));
            assert_eq!(bits(to_array(va + vb)), bits(sum), "add");
            let product = array((pa.0 * pb.0, pa.1 * pb.1));
            assert_eq!(bits(to_array(va * vb)), bits(product), "mul");
            let folded = lanes.fold_halves(va).to_array();
            assert_eq!(bits(folded), bits((pa.0 + pa.1).to_array()), "fold_halves");
            assert_eq!(bits(to_array(lanes.splat(a[3]))), bits([a[3]; 8]), "splat");
            let mut out = [1.0; 10];
            lanes.store(va, &mut out[1..]);
            assert_eq!([out[0], out[9]], [1.0; 2], "store wrote outside s[0..8]");
            assert_eq!(bits(out[1..9].try_into().unwrap()), bits(a), "store");
        }
        assert_eq!(bits(to_array(lanes.zero())), [0; 8], "zero is +0.0");
        let mut short = [0.0f32; 7];
        let load = AssertUnwindSafe(|| lanes.load(&short));
        assert!(catch_unwind(load).is_err(), "load from 7 floats");
        let store = AssertUnwindSafe(|| lanes.store(lanes.zero(), &mut short));
        assert!(catch_unwind(store).is_err(), "store to 7 floats");
    }

    #[test]
    fn avx_lanes_match_the_portable_lanes() {
        check_eight_lanes(Base);
        match Avx::detect() {
            Some(avx) => check_eight_lanes(avx),
            None => eprintln!("this CPU has no AVX: checked the SSE2 lanes only"),
        }
    }
}
