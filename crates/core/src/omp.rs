//! Orthogonal matching pursuit (Eq. 27, Tropp & Gilbert).
//!
//! Generic greedy sparse recovery over a dictionary: at each step select
//! the atom (column) most correlated with the residual, re-fit all
//! selected atoms by least squares, and stop when the residual energy
//! drops below a threshold or the atom budget is exhausted.

use iupdater_linalg::Matrix;

use crate::{CoreError, Result};

/// Result of an OMP run.
#[derive(Debug, Clone, PartialEq)]
pub struct OmpSolution {
    /// Selected atom indices, in selection order.
    pub support: Vec<usize>,
    /// Least-squares coefficients for the selected atoms (same order).
    pub coefficients: Vec<f64>,
    /// Final squared residual norm `‖X̂ Ŵ − y‖₂²`.
    pub residual_sq: f64,
}

/// Scale-relative dead-atom floor: a column whose norm is at or below
/// `f64::EPSILON` times the largest column norm carries no usable
/// direction and is excluded from atom selection. The floor is
/// relative — an absolute `<= f64::EPSILON` floor silently skipped
/// *every* atom of a uniformly tiny-scaled (e.g. 1e-10) dictionary,
/// the same failure class as the absolute append stop floor fixed in
/// the incremental QR. A zero dictionary yields a zero floor, so
/// all-zero columns stay excluded.
fn dead_atom_floor(col_norms: &[f64]) -> f64 {
    f64::EPSILON * col_norms.iter().fold(0.0_f64, |a, &b| a.max(b))
}

/// Runs OMP: finds a sparse `w` with `dictionary * w ≈ y`.
///
/// `max_atoms` bounds the support size; iteration stops early when the
/// squared residual falls below `residual_threshold`.
///
/// # Errors
///
/// - [`CoreError::DimensionMismatch`] if `y.len() != dictionary.rows()`.
/// - [`CoreError::InvalidArgument`] for an empty dictionary or
///   `max_atoms == 0`.
pub fn orthogonal_matching_pursuit(
    dictionary: &Matrix,
    y: &[f64],
    max_atoms: usize,
    residual_threshold: f64,
) -> Result<OmpSolution> {
    if dictionary.is_empty() {
        return Err(CoreError::InvalidArgument("empty dictionary"));
    }
    if max_atoms == 0 {
        return Err(CoreError::InvalidArgument("max_atoms must be >= 1"));
    }
    if y.len() != dictionary.rows() {
        return Err(CoreError::DimensionMismatch {
            context: "omp",
            expected: format!("{} measurements", dictionary.rows()),
            got: format!("{}", y.len()),
        });
    }
    let m = dictionary.rows();
    let n = dictionary.cols();
    let col_norms = dictionary.col_norms();
    let dead_floor = dead_atom_floor(&col_norms);

    let mut residual = y.to_vec();
    let mut support: Vec<usize> = Vec::new();
    let mut coefficients: Vec<f64> = Vec::new();
    let mut selected = vec![false; n];
    // Running squared residual: kept in sync with `residual` so the
    // final value never needs a second full pass.
    let mut residual_sq: f64 = residual.iter().map(|r| r * r).sum();

    for _ in 0..max_atoms.min(n) {
        // Atom selection: normalised correlation with the residual.
        let mut best = None;
        let mut best_score = 0.0_f64;
        for j in 0..n {
            if selected[j] || col_norms[j] <= dead_floor {
                continue;
            }
            let corr: f64 = (0..m).map(|i| dictionary[(i, j)] * residual[i]).sum();
            let score = corr.abs() / col_norms[j];
            if score > best_score {
                best_score = score;
                best = Some(j);
            }
        }
        let Some(j_star) = best else { break };
        support.push(j_star);
        selected[j_star] = true;

        // Least-squares re-fit on the support.
        let sub = dictionary.select_cols(&support);
        let gram = sub.gram();
        let rhs: Vec<f64> = (0..support.len())
            .map(|k| (0..m).map(|i| sub[(i, k)] * y[i]).sum())
            .collect();
        coefficients = gram.solve(&rhs)?;

        // Update residual.
        for i in 0..m {
            let mut fit = 0.0;
            for (k, &c) in coefficients.iter().enumerate() {
                fit += sub[(i, k)] * c;
            }
            residual[i] = y[i] - fit;
        }
        residual_sq = residual.iter().map(|r| r * r).sum();
        if residual_sq < residual_threshold {
            break;
        }
    }
    Ok(OmpSolution {
        support,
        coefficients,
        residual_sq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn recovers_single_atom() {
        let d = Matrix::from_rows(&[&[1.0, 0.0, 0.5], &[0.0, 1.0, 0.5]]);
        let y = [0.0, 2.0];
        let sol = orthogonal_matching_pursuit(&d, &y, 1, 1e-12).unwrap();
        assert_eq!(sol.support, vec![1]);
        assert!((sol.coefficients[0] - 2.0).abs() < 1e-12);
        assert!(sol.residual_sq < 1e-12);
    }

    #[test]
    fn recovers_two_sparse_combination() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = Matrix::from_fn(10, 20, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        // y = 3 * col4 - 2 * col11.
        let y: Vec<f64> = (0..10)
            .map(|i| 3.0 * d[(i, 4)] - 2.0 * d[(i, 11)])
            .collect();
        let sol = orthogonal_matching_pursuit(&d, &y, 2, 1e-10).unwrap();
        let mut s = sol.support.clone();
        s.sort_unstable();
        assert_eq!(s, vec![4, 11]);
        assert!(sol.residual_sq < 1e-9);
    }

    #[test]
    fn residual_threshold_stops_early() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = Matrix::from_fn(8, 16, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let y: Vec<f64> = (0..8).map(|i| d[(i, 3)] * 2.0).collect();
        // Huge threshold: accepts after the first atom.
        let sol = orthogonal_matching_pursuit(&d, &y, 5, 1e6).unwrap();
        assert_eq!(sol.support.len(), 1);
    }

    #[test]
    fn max_atoms_bounds_support() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = Matrix::from_fn(6, 12, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let y: Vec<f64> = (0..6).map(|_| rng.gen::<f64>()).collect();
        let sol = orthogonal_matching_pursuit(&d, &y, 3, 1e-16).unwrap();
        assert!(sol.support.len() <= 3);
    }

    #[test]
    fn residual_decreases_with_more_atoms() {
        let mut rng = StdRng::seed_from_u64(8);
        let d = Matrix::from_fn(6, 12, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let y: Vec<f64> = (0..6).map(|_| rng.gen::<f64>()).collect();
        let mut prev = f64::INFINITY;
        for k in 1..=4 {
            let sol = orthogonal_matching_pursuit(&d, &y, k, 1e-16).unwrap();
            assert!(sol.residual_sq <= prev + 1e-12);
            prev = sol.residual_sq;
        }
    }

    #[test]
    fn input_validation() {
        let d = Matrix::zeros(2, 3);
        assert!(orthogonal_matching_pursuit(&Matrix::zeros(0, 0), &[], 1, 0.1).is_err());
        assert!(orthogonal_matching_pursuit(&d, &[1.0], 1, 0.1).is_err());
        assert!(orthogonal_matching_pursuit(&d, &[1.0, 2.0], 0, 0.1).is_err());
    }

    #[test]
    fn tiny_scaled_dictionary_still_recovers() {
        // Regression: the dead-atom guard was an absolute
        // `col_norms[j] <= f64::EPSILON` floor, so a uniformly
        // 1e-10-scaled copy of a recoverable instance skipped every
        // atom and returned an empty support. The floor is now
        // relative to the largest column norm.
        let mut rng = StdRng::seed_from_u64(5);
        let d = Matrix::from_fn(10, 20, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let scale = 1e-10;
        let d_tiny = Matrix::from_fn(10, 20, |i, j| d[(i, j)] * scale);
        let y_tiny: Vec<f64> = (0..10)
            .map(|i| 3.0 * d_tiny[(i, 4)] - 2.0 * d_tiny[(i, 11)])
            .collect();
        let sol = orthogonal_matching_pursuit(&d_tiny, &y_tiny, 2, 1e-40).unwrap();
        let mut s = sol.support.clone();
        s.sort_unstable();
        assert_eq!(s, vec![4, 11], "tiny-scaled instance must stay recoverable");
        // Coefficients are scale-invariant (dictionary and target are
        // scaled together).
        let mut coeffs: Vec<f64> = sol.coefficients.clone();
        if sol.support[0] == 11 {
            coeffs.reverse();
        }
        assert!((coeffs[0] - 3.0).abs() < 1e-6);
        assert!((coeffs[1] + 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_dictionary_returns_empty_support() {
        let d = Matrix::zeros(3, 4);
        let sol = orthogonal_matching_pursuit(&d, &[1.0, 1.0, 1.0], 2, 1e-12).unwrap();
        assert!(sol.support.is_empty());
        assert!((sol.residual_sq - 3.0).abs() < 1e-12);
    }
}
