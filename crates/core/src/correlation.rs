//! The inherent correlation matrix `Z` (Eq. 12, Sec. IV-B).
//!
//! `Z` relates the MIC vectors to the whole fingerprint matrix:
//! `X ≈ X_MIC Z`. It is learned once from the original (or latest
//! updated) matrix by low-rank representation — robust to corrupted
//! columns — and then reused at update time: with fresh reference
//! measurements `X_R` at the MIC locations, `X_R Z` predicts the whole
//! fresh matrix (constraint 1 of the self-augmented RSVD).

use iupdater_linalg::lrr::solve_lrr;
use iupdater_linalg::Matrix;

use crate::{CoreError, Result};

/// How `Z` is obtained from `X` and `X_MIC`. Low-rank representation
/// is the only learner; the enum remains because the frozen campaign
/// benchmark harness passes `CorrelationMethod::Lrr` to
/// [`correlation_matrix`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CorrelationMethod {
    /// Low-rank representation solved by inexact ALM (the paper's
    /// choice; robust against column corruption).
    #[default]
    Lrr,
}

/// Computes the correlation matrix `Z` (`rank x N`) by low-rank
/// representation (the only [`CorrelationMethod`]).
///
/// # Errors
///
/// - [`CoreError::DimensionMismatch`] if row counts differ.
/// - Propagates solver errors. If the LRR solver fails to converge the
///   function silently falls back to least squares (the paper's
///   constraint only needs a usable `Z`, and ALM non-convergence on
///   benign data is a budget artefact, not a modelling one).
pub fn correlation_matrix(
    x_mic: &Matrix,
    x: &Matrix,
    _method: CorrelationMethod,
) -> Result<Matrix> {
    if x_mic.rows() != x.rows() {
        return Err(CoreError::DimensionMismatch {
            context: "correlation_matrix",
            expected: format!("{} rows", x.rows()),
            got: format!("{} rows", x_mic.rows()),
        });
    }
    match solve_lrr(x_mic, x) {
        Ok(sol) => Ok(sol.z),
        Err(iupdater_linalg::LinalgError::NonConvergence { .. }) => least_squares_z(x_mic, x),
        Err(e) => Err(e.into()),
    }
}

/// Ridge least-squares fallback: `Z = (AᵀA + δI)⁻¹ Aᵀ X` — fast,
/// not robust to corrupted columns.
fn least_squares_z(a: &Matrix, x: &Matrix) -> Result<Matrix> {
    let mut gram = a.gram();
    let delta = 1e-8 * gram.trace().abs().max(1.0);
    for i in 0..gram.rows() {
        gram[(i, i)] += delta;
    }
    let rhs = a.transpose().matmul(x)?;
    Ok(gram.solve_matrix(&rhs)?)
}

/// Predicts the full matrix from fresh reference columns: `P = X_R Z`
/// (the value constraint 1 pulls `L Rᵀ` toward).
///
/// # Errors
///
/// Returns [`CoreError::DimensionMismatch`] if `x_r.cols() != z.rows()`.
pub fn predict(x_r: &Matrix, z: &Matrix) -> Result<Matrix> {
    if x_r.cols() != z.rows() {
        return Err(CoreError::DimensionMismatch {
            context: "correlation::predict",
            expected: format!("{} reference columns", z.rows()),
            got: format!("{}", x_r.cols()),
        });
    }
    Ok(x_r.matmul(z)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn rank_r_matrix(m: usize, n: usize, r: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = Matrix::from_fn(m, r, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let rt = Matrix::from_fn(r, n, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        (l.matmul(&rt).unwrap(), l)
    }

    #[test]
    fn z_reproduces_x_from_mic_least_squares() {
        let (x, _) = rank_r_matrix(6, 24, 3, 1);
        let mic = crate::mic::extract_mic(&x, Default::default(), 1e-9).unwrap();
        let z = least_squares_z(&mic.vectors, &x).unwrap();
        let recon = predict(&mic.vectors, &z).unwrap();
        assert!(recon.approx_eq(&x, 1e-6));
    }

    #[test]
    fn z_reproduces_x_from_mic_lrr() {
        let (x, _) = rank_r_matrix(6, 24, 3, 2);
        let mic = crate::mic::extract_mic(&x, Default::default(), 1e-9).unwrap();
        let z = correlation_matrix(&mic.vectors, &x, CorrelationMethod::Lrr).unwrap();
        let recon = predict(&mic.vectors, &z).unwrap();
        let rel = (&recon - &x).frobenius_norm() / x.frobenius_norm();
        assert!(rel < 1e-3, "relative error {rel}");
    }

    #[test]
    fn z_transfers_to_shifted_data() {
        // The key updating property: if the matrix at a later time is
        // X' = X + per-link drift (rank-1-ish change preserved through
        // the same column relationships is NOT exact, but a common gain
        // applied per link keeps X' = D X with diagonal D, and then
        // X'_R Z = D X_R Z = D X = X'.)
        let (x, _) = rank_r_matrix(6, 24, 4, 3);
        let mic = crate::mic::extract_mic(&x, Default::default(), 1e-9).unwrap();
        let z = least_squares_z(&mic.vectors, &x).unwrap();
        // Per-link multiplicative drift.
        let d = Matrix::diag(&[1.1, 0.9, 1.05, 0.95, 1.2, 1.0]);
        let x_new = d.matmul(&x).unwrap();
        let x_r_new = x_new.select_cols(&mic.locations);
        let predicted = predict(&x_r_new, &z).unwrap();
        assert!(
            predicted.approx_eq(&x_new, 1e-6),
            "Z must transfer under per-link drift"
        );
    }

    #[test]
    fn lrr_z_robust_to_corrupted_columns() {
        let (x, _) = rank_r_matrix(8, 30, 4, 9);
        let mic = crate::mic::extract_mic(&x, Default::default(), 1e-9).unwrap();
        // Corrupt three non-MIC columns of the training matrix.
        let mut x_bad = x.clone();
        let corrupt: Vec<usize> = (0..30)
            .filter(|j| !mic.locations.contains(j))
            .take(3)
            .collect();
        for &j in &corrupt {
            for i in 0..8 {
                x_bad[(i, j)] += 15.0;
            }
        }
        let z_lrr = correlation_matrix(&mic.vectors, &x_bad, CorrelationMethod::Lrr).unwrap();
        let z_ls = least_squares_z(&mic.vectors, &x_bad).unwrap();
        // Compare predictions against the *clean* X on corrupted columns.
        let err = |z: &Matrix| {
            let p = predict(&mic.vectors, z).unwrap();
            corrupt
                .iter()
                .map(|&j| {
                    (0..8)
                        .map(|i| (p[(i, j)] - x[(i, j)]).powi(2))
                        .sum::<f64>()
                        .sqrt()
                })
                .sum::<f64>()
        };
        let e_lrr = err(&z_lrr);
        let e_ls = err(&z_ls);
        assert!(
            e_lrr < e_ls * 0.8,
            "LRR ({e_lrr}) should resist corruption better than LS ({e_ls})"
        );
    }

    #[test]
    fn shape_mismatches_rejected() {
        let a = Matrix::zeros(3, 2);
        let x = Matrix::zeros(4, 5);
        assert!(correlation_matrix(&a, &x, CorrelationMethod::Lrr).is_err());
        let z = Matrix::zeros(3, 5);
        let xr = Matrix::zeros(4, 2);
        assert!(predict(&xr, &z).is_err());
    }
}
