//! Basic Regularized SVD (Sec. IV-A, Eq. 11).
//!
//! The fingerprint update is posed as regularised matrix factorisation:
//!
//! ```text
//! min  λ(‖L‖_F² + ‖R‖_F²) + ‖B ∘ (L Rᵀ) − X_B‖_F²
//! ```
//!
//! where `B` marks the no-decrease cells that can be measured without a
//! target and `X_B` holds their fresh values. The factorisation
//! `X̂ = L Rᵀ` with `L : M x r`, `R : N x r` enforces `rank(X̂) ≤ r`;
//! the λ-term is the Frobenius relaxation of rank minimisation
//! (`‖L‖² + ‖R‖² ≥ 2‖X̂‖_*`, Recht et al.).
//!
//! This module is a thin, constraint-free entry into the full
//! self-augmented [`crate::solver`], mirroring how the paper presents
//! the basic method before augmenting it.

use iupdater_linalg::Matrix;

use crate::config::UpdaterConfig;
use crate::solver::{SolveReport, Solver, SolverInputs};
use crate::Result;

/// Solves the basic RSVD problem of Eq. (11).
///
/// `x_b` holds the known (no-decrease) values with zeros elsewhere, `b`
/// is the binary mask, `per` is the per-link location count (needed only
/// for shape validation here), and the rank/λ/iteration settings come
/// from `config` (constraints 1 and 2 are ignored).
///
/// # Errors
///
/// Propagates validation and solver errors from [`Solver`].
pub fn basic_rsvd(
    x_b: &Matrix,
    b: &Matrix,
    per: usize,
    config: &UpdaterConfig,
) -> Result<SolveReport> {
    let mut cfg = config.clone();
    cfg.use_constraint1 = false;
    cfg.use_constraint2 = false;
    let inputs = SolverInputs {
        x_b: x_b.clone(),
        b: b.clone(),
        p: None,
        per,
        warm_start: None,
    };
    Solver::new(inputs, cfg)?.solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Builds a random rank-r "fingerprint-like" matrix (negative dBm
    /// values) and a random observation mask.
    fn problem(m: usize, n: usize, r: usize, keep: f64, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = Matrix::from_fn(m, r, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let rt = Matrix::from_fn(r, n, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let mut x = l.matmul(&rt).unwrap();
        for v in x.iter_mut() {
            *v = -65.0 + 5.0 * *v;
        }
        let b = Matrix::from_fn(m, n, |_, _| if rng.gen::<f64>() < keep { 1.0 } else { 0.0 });
        let xb = b.hadamard(&x).unwrap();
        (x, b, xb)
    }

    #[test]
    fn recovers_known_cells() {
        let (x, b, xb) = problem(6, 24, 3, 0.7, 1);
        let cfg = UpdaterConfig {
            rank: Some(6),
            lambda: 1e-6,
            max_iter: 100,
            ..UpdaterConfig::basic_rsvd()
        };
        let report = basic_rsvd(&xb, &b, 4, &cfg).unwrap();
        let xhat = report.reconstruction();
        // Known cells must be fit tightly.
        let mut err = 0.0;
        let mut cnt = 0.0;
        for i in 0..6 {
            for j in 0..24 {
                if b[(i, j)] == 1.0 {
                    err += (xhat[(i, j)] - x[(i, j)]).abs();
                    cnt += 1.0;
                }
            }
        }
        assert!(err / cnt < 0.2, "mean known-cell error {}", err / cnt);
    }

    #[test]
    fn objective_decreases_monotonically() {
        let (_, b, xb) = problem(6, 24, 3, 0.6, 2);
        let cfg = UpdaterConfig {
            rank: Some(4),
            max_iter: 30,
            ..UpdaterConfig::basic_rsvd()
        };
        let report = basic_rsvd(&xb, &b, 4, &cfg).unwrap();
        let trace = report.objective_trace();
        assert!(trace.len() >= 2);
        for w in trace.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-9),
                "objective must not increase: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn rank_bound_respected() {
        let (_, b, xb) = problem(6, 24, 3, 0.8, 3);
        let cfg = UpdaterConfig {
            rank: Some(2),
            ..UpdaterConfig::basic_rsvd()
        };
        let report = basic_rsvd(&xb, &b, 4, &cfg).unwrap();
        let xhat = report.reconstruction();
        assert!(xhat.rank(1e-8).unwrap() <= 2);
    }

    #[test]
    fn completion_of_low_rank_with_dense_mask() {
        // With most entries observed and exact low rank, completion
        // should recover the unknown entries well (the premise of Obs 1).
        // Note the -65 dBm offset adds a rank-1 component, so the data
        // rank is r + 1 = 4.
        let (x, b, xb) = problem(8, 40, 3, 0.85, 5);
        let cfg = UpdaterConfig {
            rank: Some(4),
            lambda: 1e-7,
            max_iter: 200,
            tol: 1e-10,
            ..UpdaterConfig::basic_rsvd()
        };
        let report = basic_rsvd(&xb, &b, 5, &cfg).unwrap();
        let xhat = report.reconstruction();
        let mut unknown_errs: Vec<f64> = Vec::new();
        for i in 0..8 {
            for j in 0..40 {
                if b[(i, j)] == 0.0 {
                    unknown_errs.push((xhat[(i, j)] - x[(i, j)]).abs());
                }
            }
        }
        // Median, not mean: columns with too few observed rows are
        // underdetermined (exactly the paper's "multiple solutions"
        // motivation for constraint 1) and can land far off.
        let med = iupdater_linalg::stats::median(&unknown_errs);
        assert!(med < 1.0, "median unknown-cell error {med} dB");
    }

    #[test]
    fn multiple_solutions_without_constraints() {
        // The paper's motivation for constraint 1: the basic RSVD does
        // not uniquely determine the unknown cells. Two different seeds
        // should produce visibly different unknown-cell estimates when
        // the mask is sparse.
        let (_, b, xb) = problem(6, 30, 4, 0.35, 5);
        let run = |seed: u64| {
            let cfg = UpdaterConfig {
                rank: Some(4),
                seed,
                max_iter: 50,
                ..UpdaterConfig::basic_rsvd()
            };
            basic_rsvd(&xb, &b, 5, &cfg).unwrap().reconstruction()
        };
        let a = run(1);
        let c = run(999);
        let mut max_diff: f64 = 0.0;
        for i in 0..6 {
            for j in 0..30 {
                if b[(i, j)] == 0.0 {
                    max_diff = max_diff.max((a[(i, j)] - c[(i, j)]).abs());
                }
            }
        }
        assert!(
            max_diff > 0.5,
            "sparse-mask RSVD should be seed-dependent (max diff {max_diff})"
        );
    }
}
