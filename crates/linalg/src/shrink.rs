//! Proximal operators used by the inexact-ALM LRR solver:
//! singular-value thresholding (prox of the nuclear norm) and column-wise
//! l2,1 shrinkage (prox of the l2,1 norm).

use crate::{Matrix, Result};

/// Soft-thresholds a scalar: `sign(x) * max(|x| - tau, 0)`.
#[inline]
fn soft_threshold(x: f64, tau: f64) -> f64 {
    if x > tau {
        x - tau
    } else if x < -tau {
        x + tau
    } else {
        0.0
    }
}

/// Singular-value thresholding: the proximal operator of `tau * ‖·‖_*`.
///
/// Computes the SVD of `a` and soft-thresholds its singular values.
///
/// # Errors
///
/// Propagates SVD errors from [`Matrix::svd`].
pub fn svt(a: &Matrix, tau: f64) -> Result<Matrix> {
    let svd = a.svd()?;
    let mut out = Matrix::zeros(a.rows(), a.cols());
    for (t, &sigma) in svd.singular_values.iter().enumerate() {
        let s = soft_threshold(sigma, tau);
        if s == 0.0 {
            continue;
        }
        for i in 0..a.rows() {
            let ui = svd.u[(i, t)] * s;
            for j in 0..a.cols() {
                out[(i, j)] += ui * svd.v[(j, t)];
            }
        }
    }
    Ok(out)
}

/// Column-wise l2,1 shrinkage: the proximal operator of `tau * ‖·‖_{2,1}`.
///
/// Each column `c` is scaled by `max(1 - tau / ‖c‖₂, 0)` — columns with
/// norm below `tau` are zeroed, the rest shrink toward zero. This is the
/// `E` update of the LRR ALM iteration (Liu et al., ICML'10).
pub fn l21_shrink(a: &Matrix, tau: f64) -> Matrix {
    let mut out = a.clone();
    for j in 0..a.cols() {
        let norm: f64 = (0..a.rows())
            .map(|i| a[(i, j)] * a[(i, j)])
            .sum::<f64>()
            .sqrt();
        let scale = if norm > tau { (norm - tau) / norm } else { 0.0 };
        for i in 0..a.rows() {
            out[(i, j)] *= scale;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(1.0, 1.0), 0.0);
    }

    #[test]
    fn svt_shrinks_singular_values() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let out = svt(&a, 0.5).unwrap();
        let s = out.singular_values().unwrap();
        assert!((s[0] - 2.5).abs() < 1e-9);
        assert!((s[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn svt_zeroes_small_values() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let out = svt(&a, 2.0).unwrap();
        // σ = {3, 1} -> {1, 0}: rank drops to 1.
        assert_eq!(out.pivoted_leading_columns(1e-9).unwrap().len(), 1);
        let s = out.singular_values().unwrap();
        assert!((s[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn svt_with_zero_tau_is_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let out = svt(&a, 0.0).unwrap();
        assert!(out.approx_eq(&a, 1e-9));
    }

    #[test]
    fn l21_shrink_zeroes_small_columns() {
        let a = Matrix::from_rows(&[&[3.0, 0.1], &[4.0, 0.1]]);
        let out = l21_shrink(&a, 1.0);
        // Column 0 has norm 5 -> scaled by 4/5; column 1 has norm ~0.14 -> 0.
        assert!((out[(0, 0)] - 2.4).abs() < 1e-12);
        assert!((out[(1, 0)] - 3.2).abs() < 1e-12);
        assert_eq!(out[(0, 1)], 0.0);
        assert_eq!(out[(1, 1)], 0.0);
    }

    #[test]
    fn l21_shrink_solves_prox_problem() {
        // prox minimises tau*||E||_21 + 0.5*||E - A||_F^2. Check the
        // optimality numerically against small perturbations.
        let a = Matrix::from_rows(&[&[2.0, 0.5], &[1.0, -0.2]]);
        let tau = 0.8;
        let e = l21_shrink(&a, tau);
        let obj = |m: &Matrix| {
            tau * m.col_norms().iter().sum::<f64>() + 0.5 * (m - &a).frobenius_norm_sq()
        };
        let base = obj(&e);
        for di in 0..2 {
            for dj in 0..2 {
                for delta in [-1e-4, 1e-4] {
                    let mut p = e.clone();
                    p[(di, dj)] += delta;
                    assert!(
                        obj(&p) >= base - 1e-9,
                        "perturbation improved prox objective"
                    );
                }
            }
        }
    }
}
