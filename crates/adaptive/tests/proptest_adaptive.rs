//! Property-based tests of the adaptive strategy: the homogenization index is
//! a well-behaved statistic, classification is total and consistent, decay
//! schedules are monotone, and the speedup model is monotone in its inputs,
//! bounded by the ratio, and equal bit for bit to its closed forms.

use dlrm_adaptive::speedup::{estimate_speedup, Dataflow, SpeedupInputs};
use dlrm_adaptive::{
    homogenization_index, pattern_counts, DecaySchedule, EbConfig, EbSchedule, Thresholds,
    TrainingPhases,
};
use proptest::prelude::*;

fn finite_value() -> impl Strategy<Value = f32> {
    -2.0f32..2.0
}

fn inputs(ratio: f64, tc: f64, td: f64, bandwidth: f64) -> SpeedupInputs {
    SpeedupInputs {
        ratio,
        compress_throughput: tc,
        decompress_throughput: td,
        bandwidth,
    }
}

fn a2a(inputs: SpeedupInputs, overlapped: bool) -> f64 {
    estimate_speedup(inputs, Dataflow::AllToAll { overlapped })
}

/// Equation 2's closed forms, written out once more as the reference the
/// estimator's arms are held to bit for bit: sequential and overlapped
/// all-to-all.
mod closed_form {
    pub fn sequential(cr: f64, tc: f64, td: f64, b: f64) -> f64 {
        1.0 / (1.0 / cr + b * (1.0 / tc + 1.0 / td))
    }

    pub fn overlapped(cr: f64, tc: f64, td: f64, b: f64) -> f64 {
        1.0 / ((b / tc).max(1.0 / cr) + b / td)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn homo_index_is_in_unit_interval_and_monotone_in_eb(
        dim in 1usize..12,
        vectors in 0usize..40,
        seed_values in prop::collection::vec(finite_value(), 0..480),
        eb_small in 1e-4f32..1e-2,
        factor in 1.5f32..20.0,
    ) {
        let len = vectors * dim;
        if seed_values.len() < len {
            return Ok(());
        }
        let batch = &seed_values[..len];
        let eb_large = eb_small * factor;
        let eta_small = homogenization_index(batch, dim, eb_small).unwrap();
        let eta_large = homogenization_index(batch, dim, eb_large).unwrap();
        prop_assert!((0.0..=1.0).contains(&eta_small));
        prop_assert!((0.0..=1.0).contains(&eta_large));
        prop_assert!(eta_large >= eta_small - 1e-12, "{eta_large} < {eta_small}");
    }

    #[test]
    fn pattern_counts_are_consistent(
        dim in 1usize..8,
        vectors in 0usize..32,
        values in prop::collection::vec(finite_value(), 0..256),
    ) {
        let len = vectors * dim;
        if values.len() < len {
            return Ok(());
        }
        let report = pattern_counts(&values[..len], dim, 0.01).unwrap();
        prop_assert_eq!(report.batch_size, vectors);
        prop_assert!(report.quantized_patterns <= report.original_patterns);
        prop_assert!(report.original_patterns <= vectors.max(1));
    }

    #[test]
    fn classification_is_total_and_respects_thresholds(eta in 0.0f64..=1.0) {
        let thresholds = Thresholds::default();
        let class = thresholds.classify(eta);
        let eb = EbConfig::paper_default().for_class(class);
        prop_assert!(eb > 0.0);
        if eta > thresholds.small_above {
            prop_assert_eq!(eb, EbConfig::paper_default().small);
        }
        if eta < thresholds.large_below {
            prop_assert_eq!(eb, EbConfig::paper_default().large);
        }
    }

    #[test]
    fn decay_schedules_are_monotone_and_bounded(
        schedule_idx in 0usize..5,
        start_factor in 1.0f32..4.0,
        initial in 1usize..200,
        stable in 0usize..200,
        steps in 1usize..8,
    ) {
        let schedule = DecaySchedule::all()[schedule_idx];
        let s = EbSchedule {
            schedule,
            start_factor,
            steps,
            phases: TrainingPhases {
                initial_iters: initial,
                stable_iters: stable,
            },
        };
        let mut prev = f32::INFINITY;
        for iter in 0..(initial + stable) {
            let m = s.multiplier(iter);
            prop_assert!(m >= 1.0 - 1e-6);
            prop_assert!(m <= start_factor + 1e-6);
            prop_assert!(m <= prev + 1e-5, "{schedule:?} increased at {iter}");
            prev = m;
        }
        prop_assert_eq!(s.multiplier(initial + stable + 10), 1.0);
    }

    #[test]
    fn speedup_is_monotone_in_ratio_and_bounded_by_it(
        ratio in 1.01f64..500.0,
        tc in 1e8f64..1e12,
        td in 1e8f64..1e12,
        bandwidth in 1e8f64..1e11,
    ) {
        let s = a2a(inputs(ratio, tc, td, bandwidth), false);
        prop_assert!(s > 0.0);
        prop_assert!(s <= ratio + 1e-9, "speedup {s} exceeds ratio {ratio}");
        let s_higher_ratio = a2a(inputs(ratio * 2.0, tc, td, bandwidth), false);
        prop_assert!(s_higher_ratio >= s - 1e-12);
    }

    #[test]
    fn every_arm_is_its_closed_form_bit_for_bit(
        cr in 1e-3f64..1e3,
        tc in 1e6f64..1e13,
        td in 1e6f64..1e13,
        b in 1e6f64..1e12,
    ) {
        let i = inputs(cr, tc, td, b);
        let cases = [
            ("sequential", a2a(i, false), closed_form::sequential(cr, tc, td, b)),
            ("overlapped", a2a(i, true), closed_form::overlapped(cr, tc, td, b)),
        ];
        for (arm, got, want) in cases {
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{}: {} vs {}", arm, got, want);
        }
    }

    #[test]
    fn overlapped_estimate_dominates_the_sequential_one(
        cr in 1e-3f64..1e3,
        tc in 1e6f64..1e13,
        td in 1e6f64..1e13,
        b in 1e6f64..1e12,
    ) {
        // Hiding codec time behind the wire never estimates slower, and no
        // arm beats the compression ratio.
        let i = inputs(cr, tc, td, b);
        let seq = a2a(i, false);
        let ovl = a2a(i, true);
        prop_assert!(ovl >= seq * (1.0 - 1e-12), "overlapped {ovl} < sequential {seq}");
        for s in [seq, ovl] {
            prop_assert!(s > 0.0);
            prop_assert!(s <= cr.max(1.0) * (1.0 + 1e-12), "estimate {s} beats ratio {cr}");
        }
    }
}
