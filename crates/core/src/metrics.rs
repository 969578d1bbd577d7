//! Evaluation metrics (Sec. VI-A): per-element reconstruction error in
//! dB and Euclidean localization error in metres.

use iupdater_linalg::Matrix;
use iupdater_rfsim::Deployment;

use crate::{CoreError, Result};

/// Per-element absolute reconstruction errors `|X̂_ij − X_ij|` in dB,
/// flattened row-major — the sample set behind the paper's
/// reconstruction-error CDFs (Figs. 14, 18).
///
/// # Errors
///
/// Returns [`CoreError::DimensionMismatch`] if shapes differ.
pub fn reconstruction_errors(reconstructed: &Matrix, truth: &Matrix) -> Result<Vec<f64>> {
    if reconstructed.shape() != truth.shape() {
        return Err(CoreError::DimensionMismatch {
            context: "reconstruction_errors",
            expected: format!("{:?}", truth.shape()),
            got: format!("{:?}", reconstructed.shape()),
        });
    }
    Ok(reconstructed
        .iter()
        .zip(truth.iter())
        .map(|(a, b)| (a - b).abs())
        .collect())
}

/// Mean absolute reconstruction error in dB (the bar heights of
/// Figs. 15, 16, 19).
///
/// # Errors
///
/// Returns [`CoreError::DimensionMismatch`] if shapes differ.
pub fn mean_reconstruction_error(reconstructed: &Matrix, truth: &Matrix) -> Result<f64> {
    let errs = reconstruction_errors(reconstructed, truth)?;
    Ok(errs.iter().sum::<f64>() / errs.len() as f64)
}

/// Euclidean distance in metres between the true and estimated grid
/// locations (the paper's localization performance metric).
///
/// # Panics
///
/// Panics if either index is out of range for the deployment.
pub fn localization_error_m(deployment: &Deployment, true_grid: usize, est_grid: usize) -> f64 {
    deployment
        .location(true_grid)
        .distance(deployment.location(est_grid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iupdater_rfsim::{Deployment, Environment};

    #[test]
    fn reconstruction_error_values() {
        let a = Matrix::from_rows(&[&[-60.0, -62.0]]);
        let b = Matrix::from_rows(&[&[-61.0, -60.0]]);
        let errs = reconstruction_errors(&a, &b).unwrap();
        assert_eq!(errs, vec![1.0, 2.0]);
        assert_eq!(mean_reconstruction_error(&a, &b).unwrap(), 1.5);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(reconstruction_errors(&a, &b).is_err());
        assert!(mean_reconstruction_error(&a, &b).is_err());
    }

    #[test]
    fn perfect_reconstruction_zero_error() {
        let a = Matrix::from_fn(3, 4, |i, j| -(i as f64) - j as f64);
        assert_eq!(mean_reconstruction_error(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn localization_error_geometry() {
        let d = Deployment::new(&Environment::office());
        // Same cell: zero error.
        assert_eq!(localization_error_m(&d, 10, 10), 0.0);
        // Adjacent cells on the same link: one grid step.
        let e = localization_error_m(&d, 0, 1);
        assert!((e - d.grid_step()).abs() < 1e-12);
        // Symmetric.
        assert_eq!(
            localization_error_m(&d, 3, 40),
            localization_error_m(&d, 40, 3)
        );
    }
}
