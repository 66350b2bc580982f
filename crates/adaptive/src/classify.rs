//! Table-wise error-bound classification (Algorithm 1 / Table II of the paper).
//!
//! Each embedding table is placed into one of three error-bound classes based
//! on its Homogenization Index:
//!
//! * η above the "small" threshold → the table collapses heavily under
//!   quantization; its vectors carry their meaning in fine distinctions, so a
//!   **Small** error bound protects accuracy.
//! * η below the "large" threshold → quantization barely merges anything; the
//!   table tolerates a **Large** error bound (and the bigger compression
//!   ratio that comes with it).
//! * everything in between gets the **Medium** (global) error bound.
//!
//! The default bounds follow the paper's chosen configuration:
//! Large = 0.05, Medium = 0.03, Small = 0.01.

/// Error-bound class of an embedding table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EbClass {
    /// Tolerates a large error bound (highest compression).
    Large,
    /// Uses the global/default error bound.
    Medium,
    /// Needs a small error bound (most sensitive).
    Small,
}

impl EbClass {
    /// One-letter label as printed in Table II ("L", "M", "S").
    pub fn letter(&self) -> &'static str {
        match self {
            EbClass::Large => "L",
            EbClass::Medium => "M",
            EbClass::Small => "S",
        }
    }
}

/// Homogenization-index thresholds used by the classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Tables with η **below** this get the Large error bound.
    pub large_below: f64,
    /// Tables with η **above** this get the Small error bound.
    pub small_above: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        // Chosen so that, on the synthetic presets, all three classes are
        // populated (mirroring the L/M/S spread of Table II).
        Self {
            large_below: 0.15,
            small_above: 0.70,
        }
    }
}

impl Thresholds {
    /// Classify a table from its homogenization index (Equation 1's η).
    pub fn classify(&self, homo_index: f64) -> EbClass {
        if homo_index > self.small_above {
            EbClass::Small
        } else if homo_index < self.large_below {
            EbClass::Large
        } else {
            EbClass::Medium
        }
    }
}

/// The three error-bound levels (and derived helpers).
///
/// The paper derives the large and small bounds from a single global bound
/// via multiplicative factors (`LargeEB = GlobalEB × α`,
/// `SmallEB = GlobalEB ÷ β`); [`EbConfig::from_global`] mirrors that, while
/// [`EbConfig::paper_default`] pins the exact values the evaluation settled
/// on (0.05 / 0.03 / 0.01).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EbConfig {
    /// Error bound assigned to [`EbClass::Large`] tables.
    pub large: f32,
    /// Error bound assigned to [`EbClass::Medium`] tables.
    pub medium: f32,
    /// Error bound assigned to [`EbClass::Small`] tables.
    pub small: f32,
}

impl EbConfig {
    /// The configuration the paper selects after its sweep:
    /// Large 0.05, Medium 0.03, Small 0.01.
    pub fn paper_default() -> Self {
        Self {
            large: 0.05,
            medium: 0.03,
            small: 0.01,
        }
    }

    /// Derive the three levels from a global error bound with multiplicative
    /// factors α (large = global × α) and β (small = global ÷ β), as in
    /// Algorithm 1.
    pub fn from_global(global: f32, alpha: f32, beta: f32) -> Self {
        assert!(global > 0.0 && alpha >= 1.0 && beta >= 1.0);
        Self {
            large: global * alpha,
            medium: global,
            small: global / beta,
        }
    }

    /// A single fixed error bound for every class (the "fixed global EB"
    /// baseline of Figure 9).
    pub fn uniform(eb: f32) -> Self {
        Self {
            large: eb,
            medium: eb,
            small: eb,
        }
    }

    /// The error bound for a class.
    pub fn for_class(&self, class: EbClass) -> f32 {
        match class {
            EbClass::Large => self.large,
            EbClass::Medium => self.medium,
            EbClass::Small => self.small,
        }
    }

    /// Sanity: bounds must be positive and ordered small ≤ medium ≤ large.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.small > 0.0 && self.medium > 0.0 && self.large > 0.0) {
            return Err("error bounds must be positive".into());
        }
        if self.small > self.medium || self.medium > self.large {
            return Err(format!(
                "error bounds must be ordered small <= medium <= large, got {} / {} / {}",
                self.small, self.medium, self.large
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_follows_thresholds() {
        let t = Thresholds::default();
        assert_eq!(t.classify(0.95), EbClass::Small);
        assert_eq!(t.classify(0.05), EbClass::Large);
        assert_eq!(t.classify(0.4), EbClass::Medium);
        // Boundary values fall into Medium (strict comparisons, as in
        // Algorithm 1's pseudo-code).
        assert_eq!(t.classify(t.small_above), EbClass::Medium);
        assert_eq!(t.classify(t.large_below), EbClass::Medium);
    }

    #[test]
    fn paper_default_values() {
        let cfg = EbConfig::paper_default();
        assert_eq!(cfg.for_class(EbClass::Large), 0.05);
        assert_eq!(cfg.for_class(EbClass::Medium), 0.03);
        assert_eq!(cfg.for_class(EbClass::Small), 0.01);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn from_global_applies_factors() {
        let cfg = EbConfig::from_global(0.02, 2.5, 2.0);
        assert!((cfg.large - 0.05).abs() < 1e-7);
        assert!((cfg.medium - 0.02).abs() < 1e-7);
        assert!((cfg.small - 0.01).abs() < 1e-7);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn uniform_is_valid_and_flat() {
        let cfg = EbConfig::uniform(0.02);
        for class in [EbClass::Large, EbClass::Medium, EbClass::Small] {
            assert_eq!(cfg.for_class(class), 0.02);
        }
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_misordered_bounds() {
        let bad = EbConfig {
            large: 0.01,
            medium: 0.03,
            small: 0.05,
        };
        assert!(bad.validate().is_err());
        let zero = EbConfig {
            large: 0.0,
            medium: 0.0,
            small: 0.0,
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn letters_match_table_ii() {
        assert_eq!(EbClass::Large.letter(), "L");
        assert_eq!(EbClass::Medium.letter(), "M");
        assert_eq!(EbClass::Small.letter(), "S");
    }
}
