//! Low-rank representation (LRR) by inexact augmented Lagrange multipliers.
//!
//! The paper (Eq. 12, Sec. IV-B) obtains the *inherent correlation matrix*
//! `Z` between the fingerprint matrix `X` and its MIC vectors `X_MIC` by
//! solving the LRR problem of Liu, Lin & Yu (ICML 2010):
//!
//! ```text
//! min_{Z,E}  ||Z||_*  +  eps ||E||_{2,1}    s.t.   X = A Z + E
//! ```
//!
//! with `A = X_MIC`. We solve it with the standard inexact-ALM scheme,
//! introducing an auxiliary `J` with the extra constraint `Z = J`:
//!
//! ```text
//! J    <- SVT_{1/mu}(Z + Y2/mu)
//! Z    <- (I + AᵀA)⁻¹ ( Aᵀ(X - E) + J + (AᵀY1 - Y2)/mu )
//! E    <- l21_shrink(X - AZ + Y1/mu, eps/mu)
//! Y1   <- Y1 + mu (X - AZ - E)
//! Y2   <- Y2 + mu (Z - J)
//! mu   <- min(rho * mu, mu_max)
//! ```
//!
//! `eps`, the `mu` schedule, the tolerance and the iteration budget
//! are private constants: every caller solves the paper's one problem.
//! Before iterating, [`solve_lrr`] tries a closed-form exactness
//! certificate and skips the loop when it proves the minimiser.

use crate::shrink::{l21_shrink, svt};
use crate::{LinalgError, Matrix, Result};

/// Relative representability tolerance of the exactness certificate
/// (see [`solve_lrr`]): the least-squares fit must reproduce `X` to
/// this relative Frobenius accuracy before the closed form is trusted.
const CERT_RESIDUAL_TOL: f64 = 1e-10;

/// Safety margin on the certificate's `sigma_min` condition, so a
/// borderline dictionary falls back to the iterative solver.
const CERT_MARGIN: f64 = 1e-6;

/// Weight of the corruption term (`eps` in Eq. 12).
const EPSILON: f64 = 2.0;

/// Initial ALM penalty parameter `mu`.
const MU_INIT: f64 = 1e-2;

/// Largest ALM penalty parameter.
const MU_MAX: f64 = 1e8;

/// ALM penalty growth factor `rho > 1`.
const RHO: f64 = 1.6;

/// Convergence tolerance on the two constraint residuals (relative to
/// `‖X‖_F`).
const TOL: f64 = 1e-7;

/// ALM iteration budget.
const MAX_ITER: usize = 500;

/// Solution of the LRR problem.
#[derive(Debug, Clone)]
pub struct LrrSolution {
    /// The low-rank representation coefficients (`A.cols() x X.cols()`).
    pub z: Matrix,
    /// The column-sparse corruption estimate (`X.shape()`).
    pub e: Matrix,
    /// Number of ALM iterations performed.
    pub iterations: usize,
    /// Final combined constraint residual (relative).
    pub residual: f64,
}

/// Solves `min ||Z||_* + eps ||E||_{2,1}  s.t.  X = A Z + E` by inexact
/// ALM, with `eps = 2`.
///
/// `a` is the dictionary (`m x k`, the MIC vectors in the paper) and `x`
/// is the data matrix (`m x n`).
///
/// # Exactness certificate
///
/// Before iterating, the solver checks whether the global minimiser is
/// available in closed form. Write `Z0` for the least-squares
/// coefficients and suppose `X = A Z0` holds exactly (relative residual
/// below `1e-10`) with `A` of full column rank `r`. Any feasible pair
/// then satisfies `Z = Z0 − A⁺E`, so
///
/// ```text
/// (‖Z‖_* + eps ‖E‖_{2,1}) − ‖Z0‖_*  >=  (eps − √r / σ_min(A)) ‖E‖_{2,1}
/// ```
///
/// (using `‖A⁺E‖_* <= √r ‖A⁺‖_2 ‖E‖_F` and `‖E‖_F <= ‖E‖_{2,1}`).
/// When `σ_min(A) · eps >= √r`, the right side is non-negative and
/// `(Z0, E = 0)` is the exact global minimiser — returned directly with
/// `iterations = 0`, skipping the ALM loop entirely. This is the common
/// case for reconstructed fingerprint matrices (exactly low rank with a
/// well-conditioned MIC dictionary); genuinely corrupted or
/// ill-conditioned inputs fail the certificate and take the robust
/// iterative path unchanged.
///
/// # Errors
///
/// - [`LinalgError::ShapeMismatch`] if `a.rows() != x.rows()`.
/// - [`LinalgError::InvalidArgument`] for empty inputs.
/// - [`LinalgError::NonConvergence`] if the relative constraint
///   residual does not fall below `1e-7` within 500 iterations.
pub fn solve_lrr(a: &Matrix, x: &Matrix) -> Result<LrrSolution> {
    if a.is_empty() || x.is_empty() {
        return Err(LinalgError::InvalidArgument("lrr inputs must be non-empty"));
    }
    if a.rows() != x.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "lrr",
            lhs: a.shape(),
            rhs: x.shape(),
        });
    }
    match certified_minimizer(a, x) {
        Some(sol) => Ok(sol),
        None => solve_alm(a, x),
    }
}

/// The inexact-ALM iteration (module docs) on validated inputs: the
/// path [`solve_lrr`] takes when the exactness certificate declines.
fn solve_alm(a: &Matrix, x: &Matrix) -> Result<LrrSolution> {
    let k = a.cols();
    let n = x.cols();
    let x_norm = x.frobenius_norm().max(f64::MIN_POSITIVE);

    // Cached factor for the Z update: (I + AᵀA)⁻¹.
    let mut gram = a.gram();
    for i in 0..k {
        gram[(i, i)] += 1.0;
    }
    let gram_inv = gram.inverse()?;
    let at = a.transpose();

    let m = x.rows();
    let mut z = Matrix::zeros(k, n);
    let mut e = Matrix::zeros(m, n);
    let mut y1 = Matrix::zeros(m, n);
    let mut y2 = Matrix::zeros(k, n);
    let mut mu = MU_INIT;

    // Iteration workspaces, allocated once and reused (the ALM loop used
    // to allocate ~a dozen temporaries per iteration).
    let mut j_arg = Matrix::zeros(k, n);
    let mut xe = Matrix::zeros(m, n);
    let mut t1 = Matrix::zeros(k, n);
    let mut t2 = Matrix::zeros(k, n);
    let mut rhs = Matrix::zeros(k, n);
    let mut az = Matrix::zeros(m, n);
    let mut e_arg = Matrix::zeros(m, n);
    let mut r1 = Matrix::zeros(m, n);
    let mut r2 = Matrix::zeros(k, n);

    for iter in 0..MAX_ITER {
        // J update: prox of ||.||_* at Z + Y2/mu.
        j_arg.copy_from(&z)?;
        j_arg.axpy(1.0 / mu, &y2)?;
        let j_mat = svt(&j_arg, 1.0 / mu)?;

        // Z update: least-squares with the cached inverse.
        xe.copy_from(x)?;
        xe.axpy(-1.0, &e)?;
        at.matmul_into(&xe, &mut t1)?;
        at.matmul_into(&y1, &mut t2)?;
        rhs.copy_from(&t1)?;
        rhs.add_assign_matrix(&j_mat)?;
        rhs.axpy(1.0 / mu, &t2)?;
        rhs.axpy(-1.0 / mu, &y2)?;
        gram_inv.matmul_into(&rhs, &mut z)?;

        // E update: prox of eps * ||.||_{2,1}.
        a.matmul_into(&z, &mut az)?;
        e_arg.copy_from(x)?;
        e_arg.axpy(-1.0, &az)?;
        e_arg.axpy(1.0 / mu, &y1)?;
        e = l21_shrink(&e_arg, EPSILON / mu);

        // Multiplier updates and residuals.
        r1.copy_from(x)?;
        r1.axpy(-1.0, &az)?;
        r1.axpy(-1.0, &e)?;
        r2.copy_from(&z)?;
        r2.axpy(-1.0, &j_mat)?;
        y1.axpy(mu, &r1)?;
        y2.axpy(mu, &r2)?;
        mu = (mu * RHO).min(MU_MAX);

        let res = (r1.frobenius_norm() / x_norm).max(r2.frobenius_norm() / x_norm);
        if res < TOL {
            return Ok(LrrSolution {
                z,
                e,
                iterations: iter + 1,
                residual: res,
            });
        }
    }
    Err(LinalgError::NonConvergence {
        iterations: MAX_ITER,
    })
}

/// The closed-form exactness certificate (see [`solve_lrr`]): returns
/// the certified global minimiser `(Z = A⁺X, E = 0)` when the
/// dictionary is well-conditioned enough (`σ_min(A) · eps >= √r` with
/// margin) and the least-squares fit reproduces `X` exactly (relative
/// residual below the representability tolerance). Any failure — rank
/// deficiency, a borderline condition, an inaccurate normal-equation
/// solve — simply declines, and the iterative path runs as before.
fn certified_minimizer(a: &Matrix, x: &Matrix) -> Option<LrrSolution> {
    let k = a.cols();
    let singulars = a.singular_values().ok()?;
    let sigma_min = *singulars.last()?;
    if sigma_min * EPSILON < (k as f64).sqrt() * (1.0 + CERT_MARGIN) {
        return None;
    }
    let rhs = a.transpose().matmul(x).ok()?;
    let z = a.gram().solve_matrix(&rhs).ok()?;
    let recon = a.matmul(&z).ok()?;
    let x_norm = x.frobenius_norm().max(f64::MIN_POSITIVE);
    let residual = (&recon - x).frobenius_norm() / x_norm;
    if residual.is_nan() || residual > CERT_RESIDUAL_TOL {
        return None;
    }
    Some(LrrSolution {
        z,
        e: Matrix::zeros(x.rows(), x.cols()),
        iterations: 0,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_matrix(m: usize, n: usize, rng: &mut StdRng) -> Matrix {
        Matrix::from_fn(m, n, |_, _| rng.gen::<f64>() * 2.0 - 1.0)
    }

    #[test]
    fn exact_representation_recovered() {
        // X = A Z0 exactly (no corruption): the solver must satisfy the
        // constraint X = AZ + E with tiny E.
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_matrix(6, 3, &mut rng);
        let z0 = random_matrix(3, 10, &mut rng);
        let x = a.matmul(&z0).unwrap();
        let sol = solve_lrr(&a, &x).unwrap();
        let recon = a.matmul(&sol.z).unwrap();
        let err = (&recon - &x).frobenius_norm() / x.frobenius_norm();
        assert!(err < 1e-4, "relative error {err}");
        assert!(sol.e.frobenius_norm() / x.frobenius_norm() < 1e-3);
    }

    #[test]
    fn corrupted_columns_absorbed_by_e() {
        // Corrupt two columns heavily; LRR should place the corruption in
        // E (column-sparse) rather than distorting Z.
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_matrix(8, 3, &mut rng);
        let z0 = random_matrix(3, 12, &mut rng);
        let mut x = a.matmul(&z0).unwrap();
        for i in 0..8 {
            x[(i, 4)] += 10.0;
            x[(i, 9)] -= 8.0;
        }
        let sol = solve_lrr(&a, &x).unwrap();
        let e_norms = sol.e.col_norms();
        let corrupted = (e_norms[4] + e_norms[9]) / 2.0;
        let clean_max = e_norms
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != 4 && *j != 9)
            .map(|(_, &v)| v)
            .fold(0.0_f64, f64::max);
        assert!(
            corrupted > 5.0 * clean_max.max(1e-9),
            "corrupted columns should dominate E: {corrupted} vs {clean_max}"
        );
    }

    #[test]
    fn z_has_low_nuclear_norm_structure() {
        // When X's columns live in a rank-2 subspace of span(A), Z should
        // be (approximately) rank 2 even if A has 4 columns.
        let mut rng = StdRng::seed_from_u64(3);
        let basis = random_matrix(8, 2, &mut rng);
        let coeffs = random_matrix(2, 15, &mut rng);
        let x = basis.matmul(&coeffs).unwrap();
        // A: the basis plus two extra independent columns.
        let extra = random_matrix(8, 2, &mut rng);
        let a = Matrix::from_fn(8, 4, |i, j| {
            if j < 2 {
                basis[(i, j)]
            } else {
                extra[(i, j - 2)]
            }
        });
        let sol = solve_lrr(&a, &x).unwrap();
        let s = sol.z.singular_values().unwrap();
        assert!(
            s[2] < 1e-2 * s[0].max(1e-12),
            "sigma3 {} vs sigma1 {}",
            s[2],
            s[0]
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(3, 2);
        let x = Matrix::zeros(4, 5);
        assert!(matches!(
            solve_lrr(&a, &x),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn certificate_matches_iterative_solution_on_exact_data() {
        // A well-conditioned dictionary and exactly representable data:
        // the certificate fires, and its closed form agrees with the
        // (approximate) ALM answer to the ALM's own accuracy.
        let mut rng = StdRng::seed_from_u64(7);
        // Strong diagonal keeps sigma_min comfortably above sqrt(k)/eps.
        let a = Matrix::from_fn(
            6,
            3,
            |i, j| {
                if i == j {
                    8.0
                } else {
                    rng.gen::<f64>() * 0.5
                }
            },
        );
        let z0 = random_matrix(3, 12, &mut rng);
        let x = a.matmul(&z0).unwrap();
        let fast = solve_lrr(&a, &x).unwrap();
        assert_eq!(fast.iterations, 0, "certificate should fire");
        assert!(fast.e.frobenius_norm() == 0.0);
        assert!(fast.z.approx_eq(&z0, 1e-9), "closed form recovers Z0");
        let slow = solve_alm(&a, &x).unwrap();
        assert!(slow.iterations > 0, "the ALM loop iterates");
        let rel = (&slow.z - &fast.z).frobenius_norm() / fast.z.frobenius_norm();
        assert!(
            rel < 1e-4,
            "ALM approximates the certified minimiser: {rel}"
        );
    }

    #[test]
    fn certificate_declines_on_corruption_and_bad_conditioning() {
        let mut rng = StdRng::seed_from_u64(8);
        // Corrupted data outside span(A): not representable.
        let a = Matrix::from_fn(
            8,
            3,
            |i, j| if i == j { 8.0 } else { rng.gen::<f64>() * 0.5 },
        );
        let z0 = random_matrix(3, 10, &mut rng);
        let mut x = a.matmul(&z0).unwrap();
        for i in 0..8 {
            x[(i, 4)] += 10.0;
        }
        let sol = solve_lrr(&a, &x).unwrap();
        assert!(sol.iterations > 0, "corrupted data must take the ALM path");
        // Ill-conditioned dictionary (tiny sigma_min): certificate must
        // decline even though the data is exactly representable.
        let a_bad = Matrix::from_fn(6, 2, |i, j| {
            let base = (i as f64 * 0.7).sin();
            base + j as f64 * 1e-6
        });
        let z0 = random_matrix(2, 9, &mut rng);
        let x = a_bad.matmul(&z0).unwrap();
        let sol = solve_lrr(&a_bad, &x).unwrap();
        assert!(
            sol.iterations > 0,
            "ill-conditioned dictionary must take the ALM path"
        );
    }

    #[test]
    fn identity_dictionary_gives_z_close_to_x() {
        // With A = I and no noise the constraint forces Z + E = X; with a
        // small epsilon the nuclear term prefers putting signal in Z.
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let sol = solve_lrr(&Matrix::identity(2), &x).unwrap();
        let sum = &sol.z + &sol.e;
        assert!(sum.approx_eq(&x, 1e-4));
    }
}
