//! Order statistics with the sample-count rule every reported percentile
//! follows: a percentile is trustworthy only when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a percentile for it to count
/// as measured rather than guessed.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample, with the counts that qualify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile asked for, in `(0, 100)`.
    pub p: f64,
    /// The nearest-rank value (0 for an empty sample).
    pub value: f64,
    /// Sample size.
    pub samples: usize,
    /// Samples ranked strictly above the reported one.
    pub beyond: usize,
}

impl Percentile {
    /// Whether enough samples lie beyond the percentile to report it.
    pub fn reportable(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }

    /// `p50 = 1.234 (n=200, 100 beyond)`-style rendering for the log.
    pub fn describe(&self) -> String {
        let flag = if self.reportable() {
            ""
        } else {
            " [too few samples beyond]"
        };
        format!(
            "p{} = {:.4} (n={}, {} beyond){flag}",
            self.p, self.value, self.samples, self.beyond
        )
    }
}

/// Nearest-rank percentile `p` of `values` (any order).
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Nearest-rank percentile `p` of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Percentile {
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            p,
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let index = rank.clamp(1, n) - 1;
    Percentile {
        p,
        value: sorted[index],
        samples: n,
        beyond: n - index - 1,
    }
}

/// Median of `values` (nearest rank; 0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).value
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&values, 99.0);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert!(p99.reportable());
        let p999 = percentile(&values, 99.9);
        assert!(p999.beyond < MIN_BEYOND);
        assert!(!p999.reportable());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn empty_samples_are_zero_and_unreportable() {
        let p = percentile(&[], 50.0);
        assert_eq!(p.value, 0.0);
        assert!(!p.reportable());
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
