//! The two stream forms of every gradient codec kind: the standalone
//! stream (dense all-reduce shards, checkpoint sections) is the `[n u32 LE]`
//! count followed by the in-frame body (embedding exchange and fetch
//! groups, whose frame carries the count), both decode to the same bits,
//! and the body decoder is total: a cut, a stray byte or a wrong count is
//! an `Err`, never a panic or a silent success.

use dlrm_compress::CompressorKind;
use dlrm_grad::{GradCodecKind, GradScratch};
use proptest::prelude::*;

/// Every kind: each registry compressor behind the error-bounded codec
/// (the pointwise ones serving allows among them), the casts, top-k and the
/// homomorphic pair.
fn kinds() -> Vec<GradCodecKind> {
    let mut kinds = vec![
        GradCodecKind::Identity,
        GradCodecKind::Fp16,
        GradCodecKind::Fp8,
        GradCodecKind::TopK { fraction: 0.3 },
        GradCodecKind::Lattice { error_bound: 1e-3 },
        GradCodecKind::SumSketch,
    ];
    kinds.extend(
        CompressorKind::all()
            .iter()
            .map(|&compressor| GradCodecKind::ErrorBounded {
                compressor,
                error_bound: 1e-3,
            }),
    );
    kinds
}

/// `rows × dim` embedding-like values: repeated rows, near-zero rows and
/// exact zeros, so vector-LZ, the entropy coder and the sketch all see
/// their cases.
fn values(rows: usize, dim: usize, seed: u64) -> Vec<f32> {
    (0..rows * dim)
        .map(|i| {
            let (r, c) = ((i / dim) as u64, (i % dim) as u64);
            match (r ^ seed) % 4 {
                0 => ((c * 7 + seed % 11) as f32 * 0.37).sin() * 0.3,
                1 => ((i as u64 ^ seed) as f32 * 0.013).cos() * 1e-4,
                2 => 0.0,
                _ => ((i as u64 * 31 + seed) as f32 * 0.11).sin() * 0.5,
            }
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Value counts reach past 127, so the casts' own varint count takes
    /// two bytes.
    #[test]
    fn standalone_is_count_then_body_and_the_body_decoder_is_total(
        rows in 1usize..48,
        dim_pick in 0usize..3,
        seed in any::<u64>(),
    ) {
        let dim = [1, 4, 8][dim_pick];
        let data = values(rows, dim, seed);
        let n = data.len();
        let mut scratch = GradScratch::new();
        for kind in kinds() {
            let label = kind.label();
            let codec = kind.build();
            let mut standalone = Vec::new();
            codec.encode_rows_into(&data, dim, &mut scratch, &mut standalone);
            let mut body = Vec::new();
            codec.encode_body_into(&data, dim, kind.error_bound(), &mut scratch, &mut body);
            prop_assert_eq!(&standalone[..4], &(n as u32).to_le_bytes()[..]);
            prop_assert_eq!(&standalone[4..], &body[..]);
            prop_assert!(body.len() <= codec.max_body_bytes(n), "{label}: over the bound");

            let (mut whole, mut framed) = (Vec::new(), Vec::new());
            codec.decode_into(&standalone, &mut scratch, &mut whole).unwrap();
            codec.decode_body_into(&body, n, &mut scratch, &mut framed).unwrap();
            prop_assert_eq!(bits(&whole), bits(&framed), "{label}: the forms decode apart");
            prop_assert_eq!(framed.len(), n);

            let mut out = vec![7.0f32];
            for cut in 0..body.len() {
                let decoded = codec.decode_body_into(&body[..cut], n, &mut scratch, &mut out);
                prop_assert!(decoded.is_err(), "{label}: a {cut}-byte prefix of {} decoded", body.len());
                prop_assert_eq!(&out, &vec![7.0f32], "{label}: a failed decode left values");
            }
            let mut long = body.clone();
            long.push(0);
            prop_assert!(
                codec.decode_body_into(&long, n, &mut scratch, &mut out).is_err(),
                "{label}: a stray trailing byte decoded"
            );
            // Top-k and the sparse sketch record only their kept entries:
            // their count is the frame's alone.
            let counted = !matches!(kind, GradCodecKind::TopK { .. } | GradCodecKind::SumSketch);
            for wrong in [n - 1, n + 1, n + dim].into_iter().filter(|_| counted) {
                prop_assert!(
                    codec.decode_body_into(&body, wrong, &mut scratch, &mut out).is_err(),
                    "{label}: {n} values decoded as {wrong}"
                );
            }
            prop_assert_eq!(&out, &vec![7.0f32]);
        }
    }
}
