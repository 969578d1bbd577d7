//! The fingerprint matrix (Def. 1): `x_ij` is the RSS of link `i` when a
//! target stands at grid location `j`, together with the deployment
//! metadata the constraints need (which link each location belongs to).

use std::ops::RangeInclusive;

use iupdater_linalg::Matrix;
use iupdater_rfsim::target::ObstructionEffect;
use iupdater_rfsim::Testbed;
use rayon::prelude::*;

use crate::{CoreError, Result};

/// The physically plausible RSS range, in dBm, of every reading the
/// system accepts: each `X_R` / `X_B` entry of a
/// [`crate::MeasurementBatch`] (`0`, the unknown-cell sentinel of
/// `X_B`, lies inside it) and each link of a localization query. No
/// received signal exceeds the 30 dBm (1 W) Wi-Fi transmit-power
/// ceiling, and no receiver reports far below the ≈ −101 dBm thermal
/// noise floor of a 20 MHz channel; the simulated testbeds stay within
/// −110…−20 dBm. Readings outside the range are rejected where they
/// enter: magnitudes like `-1e150` would otherwise reach the solver
/// and commit an absurd — or, near `f64::MAX`, non-finite — database,
/// or reach the pursuit and surface as a misleading error about the
/// database.
pub const RSS_DBM_RANGE: RangeInclusive<f64> = -150.0..=30.0;

/// A fingerprint database organised as an `M x N` matrix (Def. 1) plus
/// the grid geometry (`M` links, `N/M` locations per link).
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintMatrix {
    data: Matrix,
    locations_per_link: usize,
}

impl FingerprintMatrix {
    /// Wraps an existing matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the column count is
    /// not `rows * locations_per_link` and
    /// [`CoreError::InvalidArgument`] for empty input.
    pub fn new(data: Matrix, locations_per_link: usize) -> Result<Self> {
        if data.is_empty() {
            return Err(CoreError::InvalidArgument("fingerprint matrix is empty"));
        }
        if locations_per_link == 0 {
            return Err(CoreError::InvalidArgument(
                "locations_per_link must be >= 1",
            ));
        }
        if data.cols() != data.rows() * locations_per_link {
            return Err(CoreError::DimensionMismatch {
                context: "FingerprintMatrix::new",
                expected: format!(
                    "{} columns (= links x per-link)",
                    data.rows() * locations_per_link
                ),
                got: format!("{} columns", data.cols()),
            });
        }
        Ok(FingerprintMatrix {
            data,
            locations_per_link,
        })
    }

    /// Runs a full manual site survey on the simulated testbed at day
    /// offset `day`, averaging `samples` readings per cell — the paper's
    /// ground-truth collection procedure.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn survey(testbed: &Testbed, day: f64, samples: usize) -> Self {
        assert!(samples > 0, "need at least one sample per element");
        let deployment = testbed.deployment();
        let n = deployment.num_locations();
        let mut data = Matrix::zeros(deployment.num_links(), n);
        // Each link draws from its own seeded noise process, so the rows
        // fan out across the pool and are written in place, bit-identical
        // to the serial `Testbed::fingerprint_matrix`.
        data.as_mut_slice()
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(i, row)| testbed.survey_row(i, day, samples, row));
        FingerprintMatrix {
            data,
            locations_per_link: deployment.locations_per_link(),
        }
    }

    /// Collects only the *no-decrease* cells (measurable without a target
    /// present, Fig. 4's blank cells), leaving every other cell at 0 —
    /// the `X_B` input of Eq. (8). Pair with
    /// [`crate::classify::index_matrix`] for the mask `B`.
    ///
    /// Faithful to the paper's procedure, these readings are taken with
    /// the room *empty*: one averaged measurement per link, reused for
    /// every no-decrease cell on that link (a target far outside the
    /// first Fresnel zone changes the reading only marginally).
    pub fn survey_no_decrease(testbed: &Testbed, day: f64, samples: usize) -> Matrix {
        let m = testbed.deployment().num_links();
        let n = testbed.deployment().num_locations();
        let empty: Vec<f64> = (0..m)
            .map(|i| testbed.measure_empty(i, day, samples))
            .collect();
        Matrix::from_fn(m, n, |i, j| {
            if testbed.obstruction_effect(i, j) == ObstructionEffect::NoDecrease {
                empty[i]
            } else {
                0.0
            }
        })
    }

    /// The noiseless expected fingerprint matrix at `day` — the
    /// reconstruction ground truth used by the evaluation.
    pub fn expected(testbed: &Testbed, day: f64) -> Self {
        FingerprintMatrix {
            data: testbed.expected_fingerprint_matrix(day),
            locations_per_link: testbed.deployment().locations_per_link(),
        }
    }

    /// Number of links `M`.
    pub fn num_links(&self) -> usize {
        self.data.rows()
    }

    /// Number of grid locations `N`.
    pub fn num_locations(&self) -> usize {
        self.data.cols()
    }

    /// Locations per link `N/M`.
    pub fn locations_per_link(&self) -> usize {
        self.locations_per_link
    }

    /// Grid location index for link `i`, cell `u` (Def. 2's
    /// `j = (i-1) N/M + u`, 0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `u` is out of range.
    pub fn location_index(&self, i: usize, u: usize) -> usize {
        assert!(i < self.num_links(), "link {i} out of range");
        assert!(u < self.locations_per_link, "cell {u} out of range");
        i * self.locations_per_link + u
    }

    /// Borrows the underlying matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.data
    }

    /// RSS of link `i` with a target at location `j`.
    pub fn rss(&self, i: usize, j: usize) -> f64 {
        self.data[(i, j)]
    }

    /// Replaces the payload matrix, keeping the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the shape differs.
    pub fn with_matrix(&self, data: Matrix) -> Result<Self> {
        if data.shape() != self.data.shape() {
            return Err(CoreError::DimensionMismatch {
                context: "FingerprintMatrix::with_matrix",
                expected: format!("{:?}", self.data.shape()),
                got: format!("{:?}", data.shape()),
            });
        }
        Ok(FingerprintMatrix {
            data,
            locations_per_link: self.locations_per_link,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iupdater_rfsim::Environment;

    fn sample() -> FingerprintMatrix {
        let m = Matrix::from_fn(2, 6, |i, j| -(60.0 + i as f64 + j as f64));
        FingerprintMatrix::new(m, 3).unwrap()
    }

    #[test]
    fn construction_checks_shape() {
        let m = Matrix::zeros(2, 6);
        assert!(FingerprintMatrix::new(m.clone(), 3).is_ok());
        assert!(FingerprintMatrix::new(m.clone(), 4).is_err());
        assert!(FingerprintMatrix::new(m, 0).is_err());
        assert!(FingerprintMatrix::new(Matrix::zeros(0, 0), 1).is_err());
    }

    #[test]
    fn index_mapping() {
        let fp = sample();
        assert_eq!(fp.num_links(), 2);
        assert_eq!(fp.num_locations(), 6);
        assert_eq!(fp.location_index(1, 2), 5);
        let per = fp.locations_per_link();
        assert_eq!((5 / per, 5 % per), (1, 2));
    }

    #[test]
    fn survey_matches_testbed_geometry() {
        let t = Testbed::new(Environment::library(), 3);
        let fp = FingerprintMatrix::survey(&t, 0.0, 2);
        assert_eq!(fp.num_links(), 6);
        assert_eq!(fp.num_locations(), 72);
        assert_eq!(fp.locations_per_link(), 12);
    }

    #[test]
    fn no_decrease_survey_zeroes_affected_cells() {
        let t = Testbed::new(Environment::office(), 3);
        let xb = FingerprintMatrix::survey_no_decrease(&t, 0.0, 2);
        // A cell on the link's own row is large-decrease: must be zeroed.
        let d = t.deployment();
        assert_eq!(xb[(0, d.location_index(0, 5))], 0.0);
        // A far-away cell is a no-decrease cell: must carry RSS.
        assert!(xb[(0, d.location_index(7, 5))] < -20.0);
    }

    #[test]
    fn with_matrix_keeps_geometry() {
        let fp = sample();
        let replaced = fp.with_matrix(Matrix::zeros(2, 6)).unwrap();
        assert_eq!(replaced.locations_per_link(), 3);
        assert!(fp.with_matrix(Matrix::zeros(3, 6)).is_err());
    }

    #[test]
    fn expected_is_noiseless_and_deterministic() {
        let t = Testbed::new(Environment::hall(), 5);
        let a = FingerprintMatrix::expected(&t, 15.0);
        let b = FingerprintMatrix::expected(&t, 15.0);
        assert_eq!(a, b);
    }
}
