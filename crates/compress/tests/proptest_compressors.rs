//! Property-based tests of the compression stack: for arbitrary finite
//! inputs, every error-bounded compressor must round-trip within the bound,
//! every lossless compressor must round-trip bit-exactly, and the supporting
//! encodings (varint, bit I/O, quantizer, Huffman) must be inverses.

use dlrm_compress::registry::{all_compressors, build_compressor, CompressorKind};
use dlrm_compress::{buffer, huffman, lzss, quant, varint, CompressScratch};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Finite f32 values in a training-plausible range.
fn finite_value() -> impl Strategy<Value = f32> {
    prop_oneof![
        3 => -4.0f32..4.0,
        1 => -0.01f32..0.01,
        1 => Just(0.0f32),
    ]
}

/// A batch of vectors: (flat data, dim).
fn vector_batch() -> impl Strategy<Value = (Vec<f32>, usize)> {
    (1usize..16, 0usize..40).prop_flat_map(|(dim, n)| {
        (
            prop::collection::vec(finite_value(), n * dim..=n * dim),
            Just(dim),
        )
    })
}

/// The codecs whose frames end in the shared Huffman back-end.
const ENTROPY_FRAMED: [CompressorKind; 4] = [
    CompressorKind::OursHybrid,
    CompressorKind::OursHuffman,
    CompressorKind::SzLike,
    CompressorKind::DeflateLike,
];

/// Feed one damaged frame to `decompress_into`: it may return values or a
/// typed error, never panic, and what it returns must be in bound — a
/// Huffman-coded frame cannot hold more symbols than payload bits, and a
/// vector-LZ one spends at least a byte per vector of at most a frame's
/// worth of values. (Deflate's inner LZSS declares its own output size, so
/// only the no-panic half applies to it.)
fn assert_total(
    kind: CompressorKind,
    comp: &dyn dlrm_compress::Compressor,
    scratch: &mut CompressScratch,
    frame: &[u8],
    what: &str,
) {
    let mut values = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        comp.decompress_into(frame, scratch, &mut values)
    }));
    let Ok(result) = outcome else {
        panic!("{}: panicked on {what}: {frame:02x?}", kind.label());
    };
    let bound = match kind {
        CompressorKind::OursHuffman | CompressorKind::SzLike => 8 * frame.len(),
        CompressorKind::OursHybrid => frame.len() * frame.len().max(8),
        _ => usize::MAX,
    };
    assert!(
        result.is_err() || values.len() <= bound,
        "{}: {} values out of {what}: {frame:02x?}",
        kind.label(),
        values.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mutation fuzzing at the frame layer: every prefix, drawn bit flips and
    /// two-stream splices of valid streams.
    #[test]
    fn damaged_frames_decode_or_fail_cleanly(
        (data, dim) in vector_batch(),
        (other, other_dim) in vector_batch(),
        draws in prop::collection::vec(any::<u64>(), 1024..=1024),
    ) {
        // The mutation sites; every failure message spells out the ones used.
        let mut draws = draws.into_iter();
        let mut next = move |below: usize| {
            (draws.next().expect("enough draws for every mutation") % below as u64) as usize
        };
        let mut scratch = CompressScratch::new();
        for kind in ENTROPY_FRAMED {
            let comp = kind.build();
            let frame = comp.compress(&data, dim, 0.01).unwrap();
            let donor = comp.compress(&other, other_dim, 0.03).unwrap();

            for cut in 0..frame.len() {
                let what = format!("prefix {cut} of {}", frame.len());
                assert_total(kind, comp.as_ref(), &mut scratch, &frame[..cut], &what);
            }
            for _ in 0..48 {
                let mut damaged = frame.clone();
                let flips = 1 + next(3);
                let mut what = String::from("flipped bits");
                for _ in 0..flips {
                    let bit = next(damaged.len() * 8);
                    damaged[bit / 8] ^= 1 << (bit % 8);
                    what.push_str(&format!(" {bit}"));
                }
                assert_total(kind, comp.as_ref(), &mut scratch, &damaged, &what);
            }
            for _ in 0..24 {
                let (head, tail) = (next(frame.len() + 1), next(donor.len() + 1));
                let mut spliced = frame[..head].to_vec();
                spliced.extend_from_slice(&donor[tail..]);
                let what = format!("splice of [..{head}] and donor [{tail}..]");
                assert_total(kind, comp.as_ref(), &mut scratch, &spliced, &what);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn quantizer_always_respects_error_bound(
        data in prop::collection::vec(finite_value(), 0..512),
        eb in 1e-4f32..0.5,
    ) {
        let recon = quant::quantize_dequantize(&data, eb).unwrap();
        for (a, b) in data.iter().zip(recon.iter()) {
            prop_assert!((a - b).abs() <= eb * 1.0001, "|{a} - {b}| > {eb}");
        }
    }

    #[test]
    fn quantizer_symbols_roundtrip(data in prop::collection::vec(finite_value(), 0..256)) {
        let q = quant::quantize(&data, 0.01).unwrap();
        let symbols = quant::codes_to_symbols(&q.codes);
        prop_assert_eq!(quant::symbols_to_codes(&symbols), q.codes);
    }

    #[test]
    fn varint_roundtrips(values in prop::collection::vec(any::<u64>(), 0..64)) {
        let mut buf = Vec::new();
        for &v in &values {
            varint::write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(varint::read_u64(&buf, &mut pos).unwrap(), v);
        }
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn signed_varint_roundtrips(values in prop::collection::vec(any::<i64>(), 0..64)) {
        let mut buf = Vec::new();
        for &v in &values {
            varint::write_i64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(varint::read_i64(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn huffman_roundtrips_arbitrary_symbols(
        symbols in prop::collection::vec(0u32..2048, 0..1500),
    ) {
        let encoded = huffman::encode(&symbols);
        prop_assert_eq!(huffman::decode(&encoded).unwrap(), symbols);
    }

    #[test]
    fn lzss_roundtrips_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        let encoded = lzss::compress_bytes(&bytes, lzss::LzssConfig::default());
        prop_assert_eq!(lzss::decompress_bytes(&encoded).unwrap(), bytes);
    }

    #[test]
    fn error_bounded_compressors_roundtrip_within_bound(
        (data, dim) in vector_batch(),
        eb in 1e-3f32..0.2,
    ) {
        for comp in all_compressors() {
            if !comp.is_error_bounded() {
                continue;
            }
            let bytes = comp.compress(&data, dim, eb).unwrap();
            let back = comp.decompress(&bytes).unwrap();
            prop_assert_eq!(back.len(), data.len(), "{}", comp.name());
            for (a, b) in data.iter().zip(back.iter()) {
                prop_assert!(
                    (a - b).abs() <= eb * 1.01,
                    "{}: |{} - {}| > {}",
                    comp.name(), a, b, eb
                );
            }
        }
    }

    #[test]
    fn lossless_compressors_roundtrip_bit_exactly((data, dim) in vector_batch()) {
        for comp in all_compressors() {
            if !comp.is_lossless() {
                continue;
            }
            let bytes = comp.compress(&data, dim, 0.0).unwrap();
            let back = comp.decompress(&bytes).unwrap();
            prop_assert_eq!(back.len(), data.len(), "{}", comp.name());
            for (a, b) in data.iter().zip(back.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{}", comp.name());
            }
        }
    }

    #[test]
    fn fused_buffer_equals_per_chunk_path(
        chunks in prop::collection::vec(
            prop::collection::vec(finite_value(), 0..8).prop_map(|v| {
                // make length a multiple of the dim used below (4)
                let mut v = v;
                v.truncate(v.len() / 4 * 4);
                v
            }),
            1..6,
        ),
    ) {
        let comp = build_compressor(CompressorKind::OursHybrid);
        let refs: Vec<&[f32]> = chunks.iter().map(Vec::as_slice).collect();
        let fused = buffer::compress_chunks_fused(comp.as_ref(), &refs, 4, 0.01).unwrap();
        let naive = buffer::compress_chunks_naive(comp.as_ref(), &refs, 4, 0.01).unwrap();
        prop_assert_eq!(fused.num_chunks(), naive.num_chunks());
        for i in 0..fused.num_chunks() {
            prop_assert_eq!(fused.chunk(i), naive.chunk(i));
        }
        let par = buffer::decompress_chunks_parallel(comp.as_ref(), &fused).unwrap();
        let ser = buffer::decompress_chunks_serial(comp.as_ref(), &naive).unwrap();
        prop_assert_eq!(par, ser);
    }

    #[test]
    fn corrupt_streams_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Feeding arbitrary garbage into any decompressor must produce an
        // error or a (possibly wrong) value — never a panic.
        for comp in all_compressors() {
            let _ = comp.decompress(&bytes);
        }
        let _ = huffman::decode(&bytes);
        let _ = lzss::decompress_bytes(&bytes);
    }
}
