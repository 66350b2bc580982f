//! Iteration-wise error-bound schedules (Section III-C / Figures 5 & 10).
//!
//! Training is split into an **initial phase**, where the loss falls quickly
//! and larger compression error is tolerable, and a **stable phase**, where
//! the error bound is held at its base value. During the initial phase the
//! error-bound multiplier decays from `start_factor` (2× or 3× in the paper's
//! experiments) down to 1× following a decay function; the paper finds the
//! step-wise (staircase) decay gives the best compression-ratio/accuracy
//! trade-off, and that an abrupt *drop* at the phase boundary hurts
//! convergence.

/// Shape of the error-bound decay during the initial phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DecaySchedule {
    /// No decay: the multiplier is 1 throughout (fixed global error bound).
    None,
    /// Staircase descent in `steps` equal plateaus (the paper's default).
    #[default]
    Stepwise,
    /// Logarithmic descent: fast at first, flattening out.
    Logarithmic,
    /// Straight line from `start_factor` to 1.
    Linear,
    /// Keep `start_factor` for the whole initial phase, then drop abruptly to
    /// 1 (the "Drop_2x/3x" baseline of Figure 10).
    Drop,
}

impl DecaySchedule {
    /// All schedules, for sweeps.
    pub fn all() -> &'static [DecaySchedule] {
        &[
            DecaySchedule::None,
            DecaySchedule::Stepwise,
            DecaySchedule::Logarithmic,
            DecaySchedule::Linear,
            DecaySchedule::Drop,
        ]
    }

    /// Human-readable name.
    pub fn label(&self) -> &'static str {
        match self {
            DecaySchedule::None => "none",
            DecaySchedule::Stepwise => "stepwise",
            DecaySchedule::Logarithmic => "logarithmic",
            DecaySchedule::Linear => "linear",
            DecaySchedule::Drop => "drop",
        }
    }
}

/// Lengths of the two training phases, in iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingPhases {
    /// Iterations of the initial (decaying) phase.
    pub initial_iters: usize,
    /// Iterations of the stable phase that follows.
    pub stable_iters: usize,
}

impl TrainingPhases {
    /// Total planned iterations.
    pub fn total(&self) -> usize {
        self.initial_iters + self.stable_iters
    }
}

/// A complete iteration-wise error-bound schedule: a decay shape, a starting
/// multiplier and the phase split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EbSchedule {
    /// Decay function used during the initial phase.
    pub schedule: DecaySchedule,
    /// Multiplier applied to the base error bound at iteration 0
    /// (2.0 and 3.0 in the paper's sweeps). Must be ≥ 1.
    pub start_factor: f32,
    /// Number of staircase plateaus for [`DecaySchedule::Stepwise`].
    pub steps: usize,
    /// Phase lengths.
    pub phases: TrainingPhases,
}

impl EbSchedule {
    /// The paper's chosen configuration: step-wise decay from 2× over the
    /// initial phase.
    pub fn paper_default(phases: TrainingPhases) -> Self {
        Self {
            schedule: DecaySchedule::Stepwise,
            start_factor: 2.0,
            steps: 4,
            phases,
        }
    }

    /// A schedule that never changes the error bound.
    pub fn constant(phases: TrainingPhases) -> Self {
        Self {
            schedule: DecaySchedule::None,
            start_factor: 1.0,
            steps: 1,
            phases,
        }
    }

    /// Error-bound multiplier at iteration `iter` (0-based). Always ≥ 1, and
    /// exactly 1 once the stable phase begins.
    pub fn multiplier(&self, iter: usize) -> f32 {
        let init = self.phases.initial_iters;
        if iter >= init || init == 0 || self.start_factor <= 1.0 {
            return 1.0;
        }
        // Progress through the initial phase, in [0, 1).
        let progress = iter as f32 / init as f32;
        let factor = match self.schedule {
            DecaySchedule::None => 1.0,
            DecaySchedule::Drop => self.start_factor,
            DecaySchedule::Linear => self.start_factor + (1.0 - self.start_factor) * progress,
            DecaySchedule::Logarithmic => {
                // Decays quickly at first: interpolate on log(1 + k·t)/log(1 + k).
                let k = 9.0f32;
                let w = (1.0 + k * progress).ln() / (1.0 + k).ln();
                self.start_factor + (1.0 - self.start_factor) * w
            }
            DecaySchedule::Stepwise => {
                let steps = self.steps.max(1) as f32;
                let stair = (progress * steps).floor() / steps;
                self.start_factor + (1.0 - self.start_factor) * stair
            }
        };
        factor.max(1.0)
    }

    /// The effective error bound at `iter` for a table whose base bound is
    /// `base_eb`.
    pub fn error_bound_at(&self, base_eb: f32, iter: usize) -> f32 {
        base_eb * self.multiplier(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases() -> TrainingPhases {
        TrainingPhases {
            initial_iters: 100,
            stable_iters: 200,
        }
    }

    #[test]
    fn stable_phase_always_uses_base_bound() {
        for &schedule in DecaySchedule::all() {
            let s = EbSchedule {
                schedule,
                start_factor: 3.0,
                steps: 4,
                phases: phases(),
            };
            for iter in [100, 150, 299, 10_000] {
                assert_eq!(s.multiplier(iter), 1.0, "{schedule:?} at {iter}");
            }
        }
    }

    #[test]
    fn initial_phase_starts_at_start_factor() {
        for &schedule in &[
            DecaySchedule::Stepwise,
            DecaySchedule::Logarithmic,
            DecaySchedule::Linear,
            DecaySchedule::Drop,
        ] {
            let s = EbSchedule {
                schedule,
                start_factor: 2.0,
                steps: 4,
                phases: phases(),
            };
            assert!((s.multiplier(0) - 2.0).abs() < 1e-6, "{schedule:?}");
        }
    }

    #[test]
    fn decay_is_monotone_non_increasing() {
        for &schedule in DecaySchedule::all() {
            let s = EbSchedule {
                schedule,
                start_factor: 3.0,
                steps: 5,
                phases: phases(),
            };
            let mut prev = f32::INFINITY;
            for iter in 0..s.phases.total() {
                let m = s.multiplier(iter);
                assert!(m <= prev + 1e-6, "{schedule:?} increased at {iter}");
                assert!(m >= 1.0);
                prev = m;
            }
        }
    }

    #[test]
    fn drop_stays_high_then_falls() {
        let s = EbSchedule {
            schedule: DecaySchedule::Drop,
            start_factor: 2.0,
            steps: 1,
            phases: phases(),
        };
        assert_eq!(s.multiplier(0), 2.0);
        assert_eq!(s.multiplier(99), 2.0);
        assert_eq!(s.multiplier(100), 1.0);
    }

    #[test]
    fn stepwise_has_expected_plateaus() {
        let s = EbSchedule {
            schedule: DecaySchedule::Stepwise,
            start_factor: 2.0,
            steps: 4,
            phases: phases(),
        };
        // Plateau values: 2.0, 1.75, 1.5, 1.25 then stable 1.0.
        assert!((s.multiplier(10) - 2.0).abs() < 1e-6);
        assert!((s.multiplier(30) - 1.75).abs() < 1e-6);
        assert!((s.multiplier(60) - 1.5).abs() < 1e-6);
        assert!((s.multiplier(90) - 1.25).abs() < 1e-6);
        let distinct: std::collections::BTreeSet<u32> = (0..100)
            .map(|i| (s.multiplier(i) * 1000.0) as u32)
            .collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn gradual_schedules_average_below_drop() {
        // The whole point of decay vs drop: with the same start factor,
        // decaying schedules spend less of the initial phase at the largest
        // bound, so their mean multiplier is lower than Drop's.
        let base = phases();
        let mean = |schedule| {
            let s = EbSchedule {
                schedule,
                start_factor: 2.0,
                steps: 4,
                phases: base,
            };
            (0..base.initial_iters)
                .map(|i| s.multiplier(i) as f64)
                .sum::<f64>()
                / base.initial_iters as f64
        };
        let drop = mean(DecaySchedule::Drop);
        for schedule in [
            DecaySchedule::Stepwise,
            DecaySchedule::Linear,
            DecaySchedule::Logarithmic,
        ] {
            assert!(mean(schedule) < drop, "{schedule:?}");
        }
    }

    #[test]
    fn error_bound_at_scales_base() {
        let s = EbSchedule::paper_default(phases());
        assert!((s.error_bound_at(0.03, 0) - 0.06).abs() < 1e-6);
        assert!((s.error_bound_at(0.03, 250) - 0.03).abs() < 1e-7);
        let c = EbSchedule::constant(phases());
        assert_eq!(c.error_bound_at(0.02, 0), 0.02);
    }

    #[test]
    fn degenerate_phases_do_not_panic() {
        let s = EbSchedule {
            schedule: DecaySchedule::Stepwise,
            start_factor: 2.0,
            steps: 4,
            phases: TrainingPhases {
                initial_iters: 0,
                stable_iters: 10,
            },
        };
        assert_eq!(s.multiplier(0), 1.0);
    }
}
