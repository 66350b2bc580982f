//! Small statistics helpers used by the experiment harness: histograms of
//! embedding values (Figures 13 and 14 of the paper), mean/variance, and a
//! simple normality score used by the offline table analysis.

/// Summary statistics of a sample of `f32` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of finite samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Smallest sample.
    pub min: f32,
    /// Largest sample.
    pub max: f32,
}

impl Summary {
    /// Compute summary statistics over a slice. Non-finite values are
    /// ignored; an all-non-finite or empty slice yields a zeroed summary.
    pub fn of(data: &[f32]) -> Summary {
        let mut count = 0usize;
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &x in data {
            if !x.is_finite() {
                continue;
            }
            count += 1;
            let delta = x as f64 - mean;
            mean += delta / count as f64;
            m2 += delta * (x as f64 - mean);
            min = min.min(x);
            max = max.max(x);
        }
        if count == 0 {
            return Summary {
                count: 0,
                mean: 0.0,
                variance: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        Summary {
            count,
            mean,
            variance: m2 / count as f64,
            min,
            max,
        }
    }

    /// Population standard deviation.
    pub fn std(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// A fixed-width histogram over a closed value range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower edge of the first bin.
    pub lo: f32,
    /// Exclusive upper edge of the last bin (the max sample is clamped in).
    pub hi: f32,
    /// Per-bin counts.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Build a histogram with `bins` equal-width bins over `[lo, hi)`.
    /// Values outside the range are clamped into the edge bins; non-finite
    /// values are dropped.
    pub fn build(data: &[f32], lo: f32, hi: f32, bins: usize) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        let mut counts = vec![0u64; bins];
        let width = (hi - lo) / bins as f32;
        for &x in data {
            if !x.is_finite() {
                continue;
            }
            let idx = ((x - lo) / width).floor() as i64;
            let idx = idx.clamp(0, bins as i64 - 1) as usize;
            counts[idx] += 1;
        }
        Histogram { lo, hi, counts }
    }

    /// Build a histogram whose range is the data's own min/max.
    pub fn auto(data: &[f32], bins: usize) -> Histogram {
        let s = Summary::of(data);
        let (lo, hi) = if s.count == 0 || s.min == s.max {
            (s.min - 0.5, s.max + 0.5)
        } else {
            (s.min, s.max)
        };
        Self::build(data, lo, hi + f32::EPSILON, bins)
    }

    /// Total number of counted samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Normalised bin frequencies.
    pub fn frequencies(&self) -> Vec<f64> {
        let total = self.total().max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / total).collect()
    }

    /// Shannon entropy of the bin distribution, in bits.
    pub fn entropy_bits(&self) -> f64 {
        self.frequencies()
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| -p * p.log2())
            .sum()
    }

    /// Render a compact ASCII sparkline of the histogram — used by the
    /// `expfig` harness to print the Figure 13/14 panels in a terminal.
    pub fn sparkline(&self) -> String {
        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        self.counts
            .iter()
            .map(|&c| LEVELS[(c * 7 / max) as usize])
            .collect()
    }
}

/// A crude "Gaussian-ness" score in `[0, 1]`: the fraction of samples within
/// one standard deviation of the mean compared against the ~68.3% a normal
/// distribution would put there, clamped so that heavier-than-normal
/// concentration scores close to 1 and a uniform spread scores lower.
///
/// The paper's observation ❸ only needs a qualitative split between
/// "Gaussian-looking" (concentrated, a few very frequent values) and
/// "uniform-looking" tables, which this score provides cheaply.
pub fn gaussianity(data: &[f32]) -> f64 {
    let s = Summary::of(data);
    if s.count == 0 || s.std() == 0.0 {
        // A constant table is maximally concentrated.
        return 1.0;
    }
    let std = s.std();
    let within = data
        .iter()
        .filter(|x| x.is_finite() && ((**x as f64 - s.mean).abs() <= std))
        .count() as f64
        / s.count as f64;
    // Uniform distribution places ~57.7% of its mass within one sigma, a
    // normal distribution ~68.3%. Map [0.577, 0.75] onto [0, 1].
    ((within - 0.577) / (0.75 - 0.577)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-9);
        assert!((s.variance - 1.25).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_ignores_non_finite() {
        let s = Summary::of(&[1.0, f32::NAN, 3.0, f32::INFINITY]);
        assert_eq!(s.count, 2);
        assert!((s.mean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let h = Histogram::build(&[-10.0, 0.1, 0.2, 0.9, 10.0], 0.0, 1.0, 2);
        assert_eq!(h.counts, vec![3, 2]); // -10 clamps into bin 0, 10 into bin 1
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_auto_covers_data() {
        let data = [1.0f32, 2.0, 3.0, 4.0];
        let h = Histogram::auto(&data, 4);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn entropy_extremes() {
        let concentrated = Histogram::build(&[0.5; 100], 0.0, 1.0, 10);
        assert!(concentrated.entropy_bits() < 1e-9);
        let spread: Vec<f32> = (0..100).map(|i| i as f32 / 100.0).collect();
        let uniform = Histogram::build(&spread, 0.0, 1.0, 10);
        assert!(uniform.entropy_bits() > 3.0);
    }

    #[test]
    fn gaussianity_orders_distributions() {
        // Construct a concentrated (normal-ish) and a uniform sample.
        let normal: Vec<f32> = (0..4000)
            .map(|i| {
                let u1 = (i as f32 + 0.5) / 4000.0;
                let u2 = ((i * 37) % 4000) as f32 / 4000.0;
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            })
            .collect();
        let uniform: Vec<f32> = (0..4000).map(|i| i as f32 / 4000.0 - 0.5).collect();
        assert!(gaussianity(&normal) > gaussianity(&uniform));
    }

    #[test]
    fn sparkline_length_matches_bins() {
        let h = Histogram::build(&[0.1, 0.5, 0.9], 0.0, 1.0, 5);
        assert_eq!(h.sparkline().chars().count(), 5);
    }
}
