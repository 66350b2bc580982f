//! Homomorphic gradient codecs: encodings that **add without decoding**.
//!
//! Two instances back [`GradCodecKind`](crate::GradCodecKind)'s homomorphic
//! variants, both driven through
//! [`GradCodec::combine_into`](crate::GradCodec::combine_into):
//!
//! * **Lattice** — a THC-style lossy uniform quantizer. Every value maps to
//!   the nearest point of a shared integer lattice (`step = 2·error_bound`,
//!   so decoding is within the stated absolute bound), stored as `i16`
//!   codes. The scale is value-independent — derived from the configured
//!   bound, carried in the stream and checked at every combine, which is
//!   the "negotiation" that makes lattices from different ranks addable.
//!   Combining is element-wise **saturating** integer addition: fully
//!   associative and commutative, so any combine tree (flat rank order,
//!   hierarchical leader grouping) yields bit-identical codes. Absent
//!   saturation, `decode(combine(enc(a), enc(b))) == decode(enc(a)) +
//!   decode(enc(b))` exactly.
//!
//! * **Sum sketch** — a lossless index–sum sketch. Nonzero values travel as
//!   ascending `(index, value)` pairs, with a dense-f32 fallback once the
//!   pair list would outweigh it; `-0.0` is canonicalised to `+0.0` at
//!   encode, which makes the compressed-domain f32 sum **bit-identical** to
//!   the rank-order raw sum on finite data (adding `+0.0` is a bitwise
//!   no-op on every value the chain can produce). Combining merges sparse
//!   runs or scatter-adds into the dense layout, densifying when the merge
//!   outgrows the fallback.
//!
//! Stream layouts (after the codec's outer `[n u32]` element count):
//!
//! ```text
//! lattice:      [step f32 LE][code i16 LE × n]
//! sketch dense: [0u8][value f32 LE × n]
//! sketch sparse:[1u8][k u32 LE][index u32 LE × k][value f32 LE × k]
//! ```
//!
//! Every decode and combine validates sizes, tags and indices and returns
//! [`ReduceError`] on truncated or corrupted input rather than panicking.

use dlrm_comm::ReduceError;

/// Sketch layout tags.
const DENSE: u8 = 0;
const SPARSE: u8 = 1;

/// Lattice step for an absolute error bound: nearest-point rounding onto a
/// `2·eb` lattice is off by at most `eb`.
pub(crate) fn lattice_step(error_bound: f32) -> f32 {
    2.0 * error_bound
}

/// Worst-case payload bytes of a lattice shard of `len` values (excluding
/// the outer count header).
pub(crate) fn lattice_max_bytes(len: usize) -> usize {
    4 + len * 2
}

/// Worst-case payload bytes of a sum-sketch shard of `len` values
/// (excluding the outer count header): the dense fallback, which encode and
/// combine never exceed.
pub(crate) fn sketch_max_bytes(len: usize) -> usize {
    1 + len * 4
}

pub(crate) fn lattice_encode(data: &[f32], error_bound: f32, out: &mut Vec<u8>) {
    let step = lattice_step(error_bound);
    out.reserve(4 + data.len() * 2);
    out.extend_from_slice(&step.to_le_bytes());
    let start = out.len();
    out.resize(start + data.len() * 2, 0);
    for (code, &v) in out[start..].chunks_exact_mut(2).zip(data) {
        code.copy_from_slice(&lattice_code(v / step).to_le_bytes());
    }
}

/// `1.5·2^23`: adding it to a `|q| < 2^22` lands in `[2^23, 2^24)`, where
/// consecutive floats are 1 apart, so the sum is `MAGIC + rne(q)` (ties to
/// even) with `rne(q)` in its low mantissa bits, two's complement.
const MAGIC: f32 = 12_582_912.0;

/// `f32::round` of `q` (ties away from zero) saturated to the `i16` lattice
/// range — values beyond it clamp to its edge, mirroring the saturating
/// combine — and `0` for NaN: bit for bit what rounding, clamping to
/// `i16::MIN..=i16::MAX` and casting `as i16` gives, without the libm call
/// or the float→int cast that keep the loop scalar.
///
/// Clamping first is the same thing (rounding is monotone and the edges are
/// integers) and bounds `|q|` by `2^15`. There `m = q + MAGIC` holds
/// `r = rne(q)` in its low 16 bits, `m − MAGIC` is exact (one binade) and so
/// is `diff = q − r` (`|diff| ≤ 0.5`, Sterbenz); the two roundings differ
/// only on a tie, where `rne` took the even side: `diff == 0.5` on a positive
/// `q` must go up, `diff == −0.5` on a negative one down. Neither step can
/// leave the range, since both edges are integers and so never ties.
#[inline(always)]
fn lattice_code(q: f32) -> i16 {
    let q = if q.is_nan() { 0.0 } else { q };
    let q = q.clamp(i16::MIN as f32, i16::MAX as f32);
    let m = q + MAGIC;
    let r = m.to_bits() as i16;
    let diff = q - (m - MAGIC);
    let up = (diff == 0.5) & (q > 0.0);
    let down = (diff == -0.5) & (q < 0.0);
    r + i16::from(up) - i16::from(down)
}

pub(crate) fn lattice_decode(
    payload: &[u8],
    n: usize,
    out: &mut Vec<f32>,
) -> Result<(), ReduceError> {
    let needed = 4 + n * 2;
    if payload.len() < needed {
        return Err(ReduceError::Truncated {
            needed,
            got: payload.len(),
        });
    }
    if payload.len() > needed {
        return Err(ReduceError::Corrupt("lattice payload longer than declared"));
    }
    let step = f32::from_le_bytes(payload[0..4].try_into().expect("step"));
    if !step.is_finite() || step <= 0.0 {
        return Err(ReduceError::Corrupt("lattice step not positive finite"));
    }
    out.reserve(n);
    out.extend(
        payload[4..]
            .chunks_exact(2)
            .map(|b| i16::from_le_bytes(b.try_into().expect("code")) as f32 * step),
    );
    Ok(())
}

/// Element-wise saturating lattice addition of `other` into `acc`, both
/// full payloads (step + codes) of `n`-element shards.
pub(crate) fn lattice_combine(acc: &mut [u8], other: &[u8], n: usize) -> Result<(), ReduceError> {
    let needed = 4 + n * 2;
    for (payload, what) in [(&acc[..], "accumulator"), (other, "contribution")] {
        if payload.len() != needed {
            return Err(if payload.len() < needed {
                ReduceError::Truncated {
                    needed,
                    got: payload.len(),
                }
            } else {
                ReduceError::Corrupt("lattice payload longer than declared")
            });
        }
        let _ = what;
    }
    if acc[0..4] != other[0..4] {
        // Shared-scale check: both sides must sit on the same lattice.
        return Err(ReduceError::Corrupt("lattice scale mismatch"));
    }
    for i in 0..n {
        let at = 4 + i * 2;
        let a = i16::from_le_bytes(acc[at..at + 2].try_into().expect("code"));
        let b = i16::from_le_bytes(other[at..at + 2].try_into().expect("code"));
        acc[at..at + 2].copy_from_slice(&a.saturating_add(b).to_le_bytes());
    }
    Ok(())
}

/// Canonicalise `-0.0` to `+0.0` so zero entries can be dropped from the
/// sketch without perturbing the f32 summation chain bitwise.
fn canon(v: f32) -> f32 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

pub(crate) fn sketch_encode(data: &[f32], out: &mut Vec<u8>) {
    let k = data.iter().filter(|&&v| canon(v) != 0.0).count();
    // Reserve the dense fallback even when emitting sparse: payload layout
    // flips with gradient sparsity over training, and capacities must reach
    // their worst case on first touch to keep the steady state allocation-free.
    out.reserve(sketch_max_bytes(data.len()));
    // Sparse pays 8 bytes/entry + a 5-byte header over dense's 1; pick the
    // smaller stream (ties go dense — cheaper to combine into).
    if 5 + 8 * k < 1 + 4 * data.len() {
        out.push(SPARSE);
        out.extend_from_slice(&(k as u32).to_le_bytes());
        for (i, &v) in data.iter().enumerate() {
            if canon(v) != 0.0 {
                out.extend_from_slice(&(i as u32).to_le_bytes());
            }
        }
        for &v in data.iter() {
            if canon(v) != 0.0 {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    } else {
        out.reserve(1 + 4 * data.len());
        out.push(DENSE);
        for &v in data {
            out.extend_from_slice(&canon(v).to_le_bytes());
        }
    }
}

/// Parsed view of a sketch payload: `(k, indices, values)` for sparse,
/// or the dense value bytes.
enum Sketch<'a> {
    Dense(&'a [u8]),
    Sparse { idx: &'a [u8], vals: &'a [u8] },
}

fn parse_sketch(payload: &[u8], n: usize) -> Result<Sketch<'_>, ReduceError> {
    let Some((&tag, rest)) = payload.split_first() else {
        return Err(ReduceError::Truncated { needed: 1, got: 0 });
    };
    match tag {
        DENSE => {
            if rest.len() != n * 4 {
                return Err(if rest.len() < n * 4 {
                    ReduceError::Truncated {
                        needed: 1 + n * 4,
                        got: payload.len(),
                    }
                } else {
                    ReduceError::Corrupt("dense sketch longer than declared")
                });
            }
            Ok(Sketch::Dense(rest))
        }
        SPARSE => {
            if rest.len() < 4 {
                return Err(ReduceError::Truncated {
                    needed: 5,
                    got: payload.len(),
                });
            }
            let k = u32::from_le_bytes(rest[0..4].try_into().expect("k")) as usize;
            if k > n {
                return Err(ReduceError::Corrupt(
                    "sketch keeps more entries than elements",
                ));
            }
            let needed = 5 + k * 8;
            if payload.len() != needed {
                return Err(if payload.len() < needed {
                    ReduceError::Truncated {
                        needed,
                        got: payload.len(),
                    }
                } else {
                    ReduceError::Corrupt("sparse sketch longer than declared")
                });
            }
            let idx = &rest[4..4 + k * 4];
            let vals = &rest[4 + k * 4..];
            // Indices must be strictly ascending and in range: decode and
            // the merge combine both rely on it.
            let mut prev: Option<u32> = None;
            for ib in idx.chunks_exact(4) {
                let i = u32::from_le_bytes(ib.try_into().expect("index"));
                if i as usize >= n || prev.is_some_and(|p| p >= i) {
                    return Err(ReduceError::Corrupt(
                        "sketch indices not ascending in-range",
                    ));
                }
                prev = Some(i);
            }
            Ok(Sketch::Sparse { idx, vals })
        }
        _ => Err(ReduceError::Corrupt("unknown sketch layout tag")),
    }
}

pub(crate) fn sketch_decode(
    payload: &[u8],
    n: usize,
    out: &mut Vec<f32>,
) -> Result<(), ReduceError> {
    match parse_sketch(payload, n)? {
        Sketch::Dense(vals) => {
            out.reserve(n);
            out.extend(
                vals.chunks_exact(4)
                    .map(|b| f32::from_le_bytes(b.try_into().expect("value"))),
            );
        }
        Sketch::Sparse { idx, vals } => {
            let start = out.len();
            out.resize(start + n, 0.0);
            let dense = &mut out[start..];
            for (ib, vb) in idx.chunks_exact(4).zip(vals.chunks_exact(4)) {
                let i = u32::from_le_bytes(ib.try_into().expect("index")) as usize;
                dense[i] = f32::from_le_bytes(vb.try_into().expect("value"));
            }
        }
    }
    Ok(())
}

/// Sum `other` into the sketch accumulator `acc` (both payloads of
/// `n`-element shards), staging through `dense` / `bytes` scratch. The
/// accumulated value of each element is `acc(i) + other(i)` in that order —
/// the chain order the collective's rank-order fold establishes.
pub(crate) fn sketch_combine(
    acc: &mut Vec<u8>,
    other: &[u8],
    n: usize,
    dense: &mut Vec<f32>,
    bytes: &mut Vec<u8>,
) -> Result<(), ReduceError> {
    // Parse both up front so a corrupt contribution never half-mutates acc.
    parse_sketch(acc, n)?;
    let other_sketch = parse_sketch(other, n)?;

    // Worst-case reserves up front: the merge's output layout depends on the
    // data, so pin every buffer at the dense fallback size on first touch to
    // keep steady-state iterations allocation-free.
    acc.reserve(sketch_max_bytes(n).saturating_sub(acc.len()));
    bytes.reserve(sketch_max_bytes(n).saturating_sub(bytes.len()));
    dense.reserve(n.saturating_sub(dense.len()));

    // Sparse + sparse merges stay sparse while they pay off; anything
    // involving a dense side, or an oversized merge, goes through the dense
    // staging buffer.
    if let (Ok(Sketch::Sparse { idx: ai, vals: av }), Sketch::Sparse { idx: bi, vals: bv }) =
        (parse_sketch(acc, n), &other_sketch)
    {
        // Count the union to decide the output layout without allocating.
        let union = merge_count(ai, bi);
        if 5 + 8 * union < 1 + 4 * n {
            bytes.clear();
            bytes.push(SPARSE);
            bytes.extend_from_slice(&(union as u32).to_le_bytes());
            merge_indices(ai, bi, bytes);
            merge_values(ai, av, bi, bv, bytes);
            acc.clear();
            acc.extend_from_slice(bytes);
            return Ok(());
        }
    }

    // Dense path: materialise acc, scatter-add other, re-emit dense.
    dense.clear();
    sketch_decode(acc, n, dense)?;
    match other_sketch {
        Sketch::Dense(vals) => {
            for (a, vb) in dense.iter_mut().zip(vals.chunks_exact(4)) {
                *a += f32::from_le_bytes(vb.try_into().expect("value"));
            }
        }
        Sketch::Sparse { idx, vals } => {
            for (ib, vb) in idx.chunks_exact(4).zip(vals.chunks_exact(4)) {
                let i = u32::from_le_bytes(ib.try_into().expect("index")) as usize;
                dense[i] += f32::from_le_bytes(vb.try_into().expect("value"));
            }
        }
    }
    acc.clear();
    acc.push(DENSE);
    acc.reserve(n * 4);
    for &v in dense.iter() {
        acc.extend_from_slice(&v.to_le_bytes());
    }
    Ok(())
}

/// Size of the union of two strictly ascending u32 index lists.
fn merge_count(a: &[u8], b: &[u8]) -> usize {
    let mut ia = a
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("idx")));
    let mut ib = b
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("idx")));
    let (mut na, mut nb) = (ia.next(), ib.next());
    let mut count = 0usize;
    while na.is_some() || nb.is_some() {
        count += 1;
        match (na, nb) {
            (Some(x), Some(y)) if x == y => {
                na = ia.next();
                nb = ib.next();
            }
            (Some(x), Some(y)) if x < y => na = ia.next(),
            (Some(_), Some(_)) => nb = ib.next(),
            (Some(_), None) => na = ia.next(),
            (None, _) => nb = ib.next(),
        }
    }
    count
}

fn merge_indices(a: &[u8], b: &[u8], out: &mut Vec<u8>) {
    let mut ia = a
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("idx")));
    let mut ib = b
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("idx")));
    let (mut na, mut nb) = (ia.next(), ib.next());
    while na.is_some() || nb.is_some() {
        let next = match (na, nb) {
            (Some(x), Some(y)) if x == y => {
                na = ia.next();
                nb = ib.next();
                x
            }
            (Some(x), Some(y)) if x < y => {
                na = ia.next();
                x
            }
            (Some(_), Some(y)) => {
                nb = ib.next();
                y
            }
            (Some(x), None) => {
                na = ia.next();
                x
            }
            (None, Some(y)) => {
                nb = ib.next();
                y
            }
            (None, None) => unreachable!(),
        };
        out.extend_from_slice(&next.to_le_bytes());
    }
}

/// Merge-sum the value streams of two ascending sparse sketches: common
/// indices sum as `acc + other` (chain order), unique ones copy bit-exactly.
fn merge_values(ai: &[u8], av: &[u8], bi: &[u8], bv: &[u8], out: &mut Vec<u8>) {
    let read_u32 = |s: &[u8], p: usize| u32::from_le_bytes(s[p..p + 4].try_into().expect("u32"));
    let read_f32 = |s: &[u8], p: usize| f32::from_le_bytes(s[p..p + 4].try_into().expect("f32"));
    let (mut pa, mut pb) = (0usize, 0usize);
    while pa < ai.len() || pb < bi.len() {
        if pa < ai.len() && pb < bi.len() {
            let (x, y) = (read_u32(ai, pa), read_u32(bi, pb));
            match x.cmp(&y) {
                std::cmp::Ordering::Equal => {
                    let v = read_f32(av, pa) + read_f32(bv, pb);
                    out.extend_from_slice(&v.to_le_bytes());
                    pa += 4;
                    pb += 4;
                }
                std::cmp::Ordering::Less => {
                    out.extend_from_slice(&av[pa..pa + 4]);
                    pa += 4;
                }
                std::cmp::Ordering::Greater => {
                    out.extend_from_slice(&bv[pb..pb + 4]);
                    pb += 4;
                }
            }
        } else if pa < ai.len() {
            out.extend_from_slice(&av[pa..pa + 4]);
            pa += 4;
        } else {
            out.extend_from_slice(&bv[pb..pb + 4]);
            pb += 4;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_roundtrip_within_bound() {
        let data: Vec<f32> = (0..97).map(|i| (i as f32 * 0.31).sin() * 0.2).collect();
        let eb = 1e-3f32;
        let mut payload = Vec::new();
        lattice_encode(&data, eb, &mut payload);
        let mut back = Vec::new();
        lattice_decode(&payload, data.len(), &mut back).unwrap();
        for (a, b) in data.iter().zip(back.iter()) {
            assert!((a - b).abs() <= eb * 1.0001, "{a} vs {b}");
        }
    }

    /// The expression `lattice_code` replaced, stream and all.
    fn libm_lattice(data: &[f32], error_bound: f32) -> Vec<u8> {
        let step = lattice_step(error_bound);
        let mut out = step.to_le_bytes().to_vec();
        for &v in data {
            let q = (v / step).round().clamp(i16::MIN as f32, i16::MAX as f32) as i16;
            out.extend_from_slice(&q.to_le_bytes());
        }
        out
    }

    fn assert_encodes_like_libm(data: &[f32], error_bound: f32, what: &str) {
        let mut new = vec![0xAB]; // appended to, not overwritten
        lattice_encode(data, error_bound, &mut new);
        let old = libm_lattice(data, error_bound);
        assert_eq!(new[0], 0xAB);
        assert_eq!(new[1..5], old[..4], "{what}: step");
        let code = |bytes: &[u8], i: usize| i16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]);
        for (i, &v) in data.iter().enumerate() {
            let (new, old) = (code(&new[5..], i), code(&old[4..], i));
            assert_eq!(new, old, "{what}, eb {error_bound}: value {v:e} (#{i})");
        }
        assert_eq!(new.len(), 1 + old.len(), "{what}");
    }

    fn within_3_ulp(x: f32) -> impl Iterator<Item = f32> {
        (-3i32..=3).map(move |d| f32::from_bits(x.to_bits().wrapping_add_signed(d)))
    }

    #[test]
    fn lattice_rounding_is_libm_round_around_every_boundary_and_clamp_edge() {
        for eb in [0.005f32, 0.01, 0.02, 0.05, 1e-3, 0.5] {
            let step = lattice_step(eb);
            // Half-integer multiples of the step (the ties and their
            // neighbours), then the saturation edges.
            let boundaries = (-4097i32..=4096).map(|k| (k as f32 + 0.5) * step);
            let edges = [32766.5f32, 32767.0, 32767.5, 32768.0, 32768.5, 40000.0]
                .into_iter()
                .flat_map(|q| [q * step, -q * step]);
            let data: Vec<f32> = boundaries.chain(edges).flat_map(within_3_ulp).collect();
            assert_encodes_like_libm(&data, eb, "boundaries and clamp edges");
        }
    }

    #[test]
    fn lattice_rounding_is_libm_round_on_random_bit_patterns() {
        // SplitMix64 over every kind of f32: subnormals, ±0, huge, ±inf, NaN.
        let seed = 0x5EED_2024_0614u64;
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let data: Vec<f32> = (0..60_000)
            .map(|_| f32::from_bits(next() as u32))
            .chain(specials)
            .chain([f32::MIN_POSITIVE, -1e-45, f32::MAX, f32::MIN])
            .collect();
        for eb in [0.005f32, 0.01, 0.02, 0.05, 1e-3] {
            assert_encodes_like_libm(&data, eb, &format!("seed {seed:#x}"));
        }
        // A degenerate step divides to ±inf and NaN only.
        assert_encodes_like_libm(&[1.0, -1.0, 0.0, f32::NAN], 0.0, "zero step");
    }

    #[test]
    fn lattice_combine_matches_decode_then_sum() {
        let a: Vec<f32> = (0..64).map(|i| (i as f32 * 0.17).sin() * 0.1).collect();
        let b: Vec<f32> = (0..64).map(|i| (i as f32 * 0.23).cos() * 0.1).collect();
        let eb = 5e-4f32;
        let (mut ea, mut eb_) = (Vec::new(), Vec::new());
        lattice_encode(&a, eb, &mut ea);
        lattice_encode(&b, eb, &mut eb_);
        let mut da = Vec::new();
        lattice_decode(&ea, 64, &mut da).unwrap();
        let mut db = Vec::new();
        lattice_decode(&eb_, 64, &mut db).unwrap();
        lattice_combine(&mut ea, &eb_, 64).unwrap();
        let mut combined = Vec::new();
        lattice_decode(&ea, 64, &mut combined).unwrap();
        let step = lattice_step(eb);
        for i in 0..64 {
            // No saturation at these magnitudes: the combined code is
            // exactly qa + qb, i.e. the decoded value is (qa + qb)·step.
            // (Decode-then-sum, qa·step + qb·step, may differ by an ulp —
            // f32 multiplication does not distribute over addition.)
            let qa = (da[i] / step).round();
            let qb = (db[i] / step).round();
            assert_eq!(combined[i].to_bits(), ((qa + qb) * step).to_bits(), "{i}");
            assert!((combined[i] - (da[i] + db[i])).abs() <= step * 1e-3, "{i}");
        }
    }

    #[test]
    fn lattice_combine_saturates_instead_of_wrapping() {
        let big = vec![30000.0f32]; // near the i16 edge at step 1.0
        let mut ea = Vec::new();
        lattice_encode(&big, 0.5, &mut ea);
        let eb_ = ea.clone();
        lattice_combine(&mut ea, &eb_, 1).unwrap();
        let mut out = Vec::new();
        lattice_decode(&ea, 1, &mut out).unwrap();
        assert_eq!(out[0], i16::MAX as f32 * 1.0);
    }

    #[test]
    fn sketch_roundtrips_sparse_and_dense() {
        // Sparse-friendly input.
        let mut sparse = vec![0.0f32; 100];
        sparse[3] = 1.5;
        sparse[97] = -2.5;
        // Dense input (all nonzero).
        let dense: Vec<f32> = (0..40).map(|i| i as f32 + 0.5).collect();
        for data in [sparse, dense] {
            let mut payload = Vec::new();
            sketch_encode(&data, &mut payload);
            let mut back = Vec::new();
            sketch_decode(&payload, data.len(), &mut back).unwrap();
            assert_eq!(back.len(), data.len());
            for (a, b) in data.iter().zip(back.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn sketch_canonicalises_negative_zero() {
        let data = vec![-0.0f32, 1.0, -0.0];
        let mut payload = Vec::new();
        sketch_encode(&data, &mut payload);
        let mut back = Vec::new();
        sketch_decode(&payload, 3, &mut back).unwrap();
        assert_eq!(back[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(back[2].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn sketch_combine_matches_chain_sum_bitwise() {
        let n = 50;
        let mk = |seed: usize| -> Vec<f32> {
            (0..n)
                .map(|i| {
                    if (i + seed).is_multiple_of(3) {
                        ((i * seed + 1) as f32 * 0.7).sin()
                    } else {
                        0.0
                    }
                })
                .collect()
        };
        let (a, b, c) = (mk(1), mk(2), mk(5));
        // Reference: the collective's rank-order chain.
        let mut expected = vec![0.0f32; n];
        for contrib in [&a, &b, &c] {
            for (e, &v) in expected.iter_mut().zip(contrib.iter()) {
                *e += v;
            }
        }
        let mut acc = Vec::new();
        sketch_encode(&a, &mut acc);
        let (mut dense_s, mut bytes_s) = (Vec::new(), Vec::new());
        for contrib in [&b, &c] {
            let mut enc = Vec::new();
            sketch_encode(contrib, &mut enc);
            sketch_combine(&mut acc, &enc, n, &mut dense_s, &mut bytes_s).unwrap();
        }
        let mut back = Vec::new();
        sketch_decode(&acc, n, &mut back).unwrap();
        for i in 0..n {
            assert_eq!(back[i].to_bits(), expected[i].to_bits(), "element {i}");
        }
    }

    #[test]
    fn sketch_densifies_when_the_merge_outgrows_the_fallback() {
        let n = 10;
        // Two disjoint half-dense sketches: the union is fully dense.
        let a: Vec<f32> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
        let b: Vec<f32> = (0..n).map(|i| if i % 2 == 1 { 2.0 } else { 0.0 }).collect();
        let mut acc = Vec::new();
        sketch_encode(&a, &mut acc);
        let mut enc = Vec::new();
        sketch_encode(&b, &mut enc);
        let (mut ds, mut bs) = (Vec::new(), Vec::new());
        sketch_combine(&mut acc, &enc, n, &mut ds, &mut bs).unwrap();
        assert!(acc.len() <= 1 + 4 * n, "combine exceeded the dense bound");
        let mut back = Vec::new();
        sketch_decode(&acc, n, &mut back).unwrap();
        for (i, v) in back.iter().enumerate() {
            assert_eq!(*v, if i % 2 == 0 { 1.0 } else { 2.0 });
        }
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let data: Vec<f32> = (0..16).map(|i| i as f32 * 0.1).collect();
        let mut lat = Vec::new();
        lattice_encode(&data, 1e-3, &mut lat);
        let mut sk = Vec::new();
        sketch_encode(&data, &mut sk);
        let mut out = Vec::new();
        for cut in 0..lat.len() {
            assert!(lattice_decode(&lat[..cut], data.len(), &mut out).is_err());
        }
        for cut in 0..sk.len() {
            assert!(sketch_decode(&sk[..cut], data.len(), &mut out).is_err());
        }
        // Bad layout tag.
        let mut bad = sk.clone();
        bad[0] = 7;
        assert!(sketch_decode(&bad, data.len(), &mut out).is_err());
        // Mismatched lattice scales refuse to combine.
        let mut other = Vec::new();
        lattice_encode(&data, 2e-3, &mut other);
        assert_eq!(
            lattice_combine(&mut lat, &other, data.len()),
            Err(ReduceError::Corrupt("lattice scale mismatch"))
        );
    }
}
