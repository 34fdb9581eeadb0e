//! Percentiles that refuse to extrapolate.
//!
//! A reported percentile must have at least [`MIN_BEYOND`] samples beyond
//! it, so a p99 needs 1,000 samples and a p50 needs 20. Fewer samples give
//! [`TooFewSamples`] instead of a number that one outlier decides.

use std::fmt;

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile asked of too few samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TooFewSamples {
    /// The quantile asked for, in `(0, 1)`.
    pub q: f64,
    /// Samples available.
    pub samples: usize,
    /// Samples that would lie beyond the percentile.
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} of {} samples leaves {} beyond it (need {MIN_BEYOND})",
            self.q * 100.0,
            self.samples,
            self.beyond
        )
    }
}

impl std::error::Error for TooFewSamples {}

/// Samples sorted once, ready for any number of percentile reads.
#[derive(Debug, Clone, Default)]
pub struct Sorted(Vec<f64>);

impl Sorted {
    /// Sorts `samples` (NaN sorts last; an infinite sample is a failed
    /// request that counts as infinitely late).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Sorted(samples)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// The nearest-rank `q`-quantile, refused unless at least
    /// [`MIN_BEYOND`] samples lie beyond it.
    ///
    /// # Errors
    /// [`TooFewSamples`] when the rule is not met.
    pub fn percentile(&self, q: f64) -> Result<f64, TooFewSamples> {
        assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1), got {q}");
        let n = self.0.len();
        // Nearest rank, guarded against `0.99 * 1000 = 990.0000000000001`.
        let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
        let beyond = n.saturating_sub(rank);
        if n == 0 || beyond < MIN_BEYOND {
            return Err(TooFewSamples {
                q,
                samples: n,
                beyond,
            });
        }
        Ok(self.0[rank - 1])
    }

    /// [`Sorted::percentile`], or 0 when refused: for per-layer figures,
    /// where 0 reads "not measured on this workload".
    pub fn percentile_or_zero(&self, q: f64) -> f64 {
        self.percentile(q).unwrap_or(0.0)
    }
}
