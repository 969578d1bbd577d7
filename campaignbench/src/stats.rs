//! Nearest-rank percentiles that carry the sample count they rest on.

/// Samples a tail percentile must leave beyond its rank before it is
/// reported: a tail figure resting on fewer is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// A percentile of a sample set and the number of samples in the set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// The `p`-th percentile of `samples` by nearest rank: the
/// `ceil(p/100 · n)`-th smallest sample. `None` for an empty set, and
/// for a percentile above the median with fewer than [`MIN_BEYOND`]
/// samples beyond its rank.
pub fn percentile(samples: &[f64], p: u32) -> Option<Percentile> {
    let n = samples.len();
    if n == 0 || p == 0 || p > 100 {
        return None;
    }
    let rank = (n * p as usize).div_ceil(100);
    if p > 50 && n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// The nearest-rank median; `None` for an empty set.
pub fn median(samples: &[f64]) -> Option<Percentile> {
    percentile(samples, 50)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_reports_value_and_sample_count() {
        assert_eq!(
            median(&[3.0, 1.0, 2.0]),
            Some(Percentile {
                value: 2.0,
                samples: 3
            })
        );
        assert_eq!(median(&one_to(100)).map(|p| p.value), Some(50.0));
        assert_eq!(median(&[7.5]).map(|p| p.samples), Some(1));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_is_refused_below_the_minimum_sample_count() {
        // 999 samples leave only 9 beyond the 990th rank.
        assert_eq!(percentile(&one_to(999), 99), None);
        assert_eq!(percentile(&one_to(100), 99), None);
        let p = percentile(&one_to(1000), 99).expect("1000 samples leave 10 beyond");
        assert_eq!((p.value, p.samples), (990.0, 1000));
        // The median needs no tail.
        assert!(percentile(&one_to(10), 50).is_some());
    }
}
