//! Small statistics helpers used by the evaluation harness: means,
//! percentiles and empirical CDFs (every "CDF of ..." figure in the
//! paper's evaluation is built from these).

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population standard deviation; `NaN` for an empty slice.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Linear-interpolated percentile `p` in `[0, 100]`.
///
/// # Panics
///
/// Panics if `values` is empty or `p` is outside `[0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = idx - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// An empirical cumulative distribution function: sorted sample values
/// paired with cumulative probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    values: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn new(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "ECDF of empty sample set");
        let mut values = samples.to_vec();
        values.sort_by(f64::total_cmp);
        Ecdf { values }
    }

    /// `P(X <= x)`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives the count of samples <= x.
        let count = self.values.partition_point(|&v| v <= x);
        count as f64 / self.values.len() as f64
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false` (construction requires a non-empty sample set).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `(x, P(X <= x))` pairs at `n` evenly spaced x positions spanning
    /// the sample range — ready to plot as a CDF curve.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        let lo = self.values[0];
        // invariants: allow(panic-freedom) — the constructor asserts
        // a non-empty sample set, so `values` is never empty.
        let hi = *self.values.last().expect("non-empty");
        if n <= 1 || hi == lo {
            return vec![(hi, 1.0)];
        }
        (0..n)
            .map(|i| {
                // Use `hi` exactly at the last sample point: the linear
                // interpolation can land a hair below it in floating
                // point, which would exclude the maximum sample.
                let x = if i == n - 1 {
                    hi
                } else {
                    lo + (hi - lo) * i as f64 / (n - 1) as f64
                };
                (x, self.eval(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.0).abs() < 1e-12);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn ecdf_eval_steps() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(10.0), 1.0);
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
    }

    #[test]
    fn ecdf_curve_monotone() {
        let e = Ecdf::new(&[0.3, 1.2, 0.7, 2.4, 1.9]);
        let curve = e.curve(20);
        assert_eq!(curve.len(), 20);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be non-decreasing");
        }
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    #[test]
    fn ecdf_degenerate_sample() {
        let e = Ecdf::new(&[2.0, 2.0]);
        assert_eq!(e.curve(5), vec![(2.0, 1.0)]);
    }

    #[test]
    fn ecdf_handles_unsorted_input() {
        let e = Ecdf::new(&[3.0, 1.0, 2.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 1.0 / 3.0);
        assert_eq!(e.eval(2.5), 2.0 / 3.0);
        assert_eq!(e.eval(3.0), 1.0);
    }
}
