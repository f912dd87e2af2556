//! Percentiles that refuse to report a tail the sample cannot support.
//!
//! A percentile is the nearest-rank order statistic: for `n` samples
//! and quantile `q` it is the `ceil(q·n)`-th smallest (the smallest
//! sample for `q = 0`). It is reported only when at least
//! [`MIN_BEYOND`] samples lie above that rank, so a p99 needs 1000
//! samples and a p50 needs 20. A quantile outside `[0, 1]` is an error,
//! never clamped: clamping is how a maximum gets printed as a p99.

use std::fmt;

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile could not be reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantileError {
    /// The quantile is not a number in `[0, 1]`.
    OutOfRange(f64),
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the percentile.
    TooFewSamples {
        /// Samples taken.
        n: usize,
        /// Samples beyond the percentile's rank.
        beyond: usize,
    },
}

impl fmt::Display for QuantileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            QuantileError::OutOfRange(q) => write!(f, "quantile {q} is outside [0, 1]"),
            QuantileError::TooFewSamples { n, beyond } => write!(
                f,
                "{n} samples leave {beyond} beyond the percentile, {MIN_BEYOND} needed"
            ),
        }
    }
}

impl std::error::Error for QuantileError {}

/// The `q`-quantile of `samples` (any order; NaN-free).
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, QuantileError> {
    if !(0.0..=1.0).contains(&q) {
        return Err(QuantileError::OutOfRange(q));
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(QuantileError::TooFewSamples { n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of a non-empty set of repeated measurements (the middle
/// element, or the mean of the two middle ones). Used for per-run
/// figures taken a handful of times, where [`percentile`]'s tail rule
/// does not apply.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the helper has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn rejects_quantiles_outside_unit_interval() {
        let s = ramp(2000);
        for q in [-0.01, 1.01, 99.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                percentile(&s, q),
                Err(QuantileError::OutOfRange(_))
            ));
        }
    }

    #[test]
    fn nearest_rank_values() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 0.5), Ok(500.0));
        assert_eq!(percentile(&s, 0.99), Ok(990.0));
        assert_eq!(percentile(&s, 0.0), Ok(1.0));
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 999 samples leave only 9 beyond the p99 rank.
        assert_eq!(
            percentile(&ramp(999), 0.99),
            Err(QuantileError::TooFewSamples { n: 999, beyond: 9 })
        );
        assert_eq!(
            percentile(&ramp(19), 0.5),
            Err(QuantileError::TooFewSamples { n: 19, beyond: 9 })
        );
        assert!(percentile(&[], 0.5).is_err());
        // The maximum is never a supported percentile.
        assert!(percentile(&ramp(100_000), 1.0).is_err());
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
