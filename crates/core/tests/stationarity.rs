//! Numerical verification of Algorithm 1's closed-form updates: at
//! convergence of the exact-coupling solver, the factors must be a
//! stationary point of the full objective (Eq. 18) — no small
//! perturbation of any entry of `L` or `R` may decrease it.
//!
//! This test recomputes the objective from its published definition,
//! independently of the solver's internal implementation, so it guards
//! against derivation errors in the per-column/per-row normal equations
//! (the exact place the printed paper is loosest).

use iupdater_core::config::{CouplingMode, ScalingMode};
use iupdater_core::solver::{Solver, SolverInputs, TermWeights};
use iupdater_core::{decrease, neighbors, similarity, UpdaterConfig};
use iupdater_linalg::Matrix;

/// Eq. (18), recomputed from scratch.
#[allow(clippy::too_many_arguments)]
fn objective(
    l: &Matrix,
    r: &Matrix,
    x_b: &Matrix,
    b: &Matrix,
    p: &Matrix,
    per: usize,
    lambda: f64,
    w: TermWeights,
) -> f64 {
    let xhat = l.matmul(&r.transpose()).unwrap();
    let mut v = lambda * (l.frobenius_norm_sq() + r.frobenius_norm_sq());
    let fit = b.hadamard(&xhat).unwrap().checked_sub(x_b).unwrap();
    v += w.fit * fit.frobenius_norm_sq();
    v += w.reference * xhat.checked_sub(p).unwrap().frobenius_norm_sq();
    let xd = decrease::extract(&xhat, per).unwrap();
    let g = neighbors::continuity_matrix(per).unwrap();
    let h = similarity::similarity_matrix(xhat.rows()).unwrap();
    v += w.continuity * xd.matmul(&g).unwrap().frobenius_norm_sq();
    v += w.similarity * h.matmul(&xd).unwrap().frobenius_norm_sq();
    v
}

#[test]
fn exact_solver_reaches_a_stationary_point_of_eq18() {
    let (m, per) = (4usize, 6usize);
    let n = m * per;
    // Structured truth with dips, like a fingerprint.
    let x = Matrix::from_fn(m, n, |i, j| {
        let owner = j / per;
        let u = j % per;
        let base = -60.0 - i as f64;
        if owner == i {
            let t = u as f64 / (per - 1) as f64;
            base - 4.0 - 3.0 * (2.0 * t - 1.0).powi(2)
        } else {
            base
        }
    });
    let b = Matrix::from_fn(m, n, |i, j| if j / per == i { 0.0 } else { 1.0 });
    let x_b = b.hadamard(&x).unwrap();
    let p = x.clone();

    let cfg = UpdaterConfig {
        rank: Some(4),
        lambda: 1e-3,
        max_iter: 300,
        tol: 1e-14,
        coupling: CouplingMode::Exact,
        scaling: ScalingMode::Fixed,
        ..UpdaterConfig::default()
    };
    let weights = TermWeights {
        fit: cfg.weight_fit,
        reference: cfg.weight_ref,
        continuity: cfg.weight_continuity,
        similarity: cfg.weight_similarity,
    };
    let inputs = SolverInputs {
        x_b: x_b.clone(),
        b: b.clone(),
        p: Some(p.clone()),
        per,
        warm_start: Some(x.clone()),
    };
    let report = Solver::new(inputs, cfg.clone()).unwrap().solve().unwrap();
    let l = report.l_factor().clone();
    let r = report.r_factor().clone();
    let base = objective(&l, &r, &x_b, &b, &p, per, cfg.lambda, weights);

    // First-order stationarity: central differences of the objective
    // w.r.t. every factor entry must be ~0 relative to the objective
    // scale (the curvature term makes f(x±h) >= f(x) - O(h²)).
    let h = 1e-5;
    let mut worst_grad: f64 = 0.0;
    for i in 0..l.rows() {
        for t in 0..l.cols() {
            let mut lp = l.clone();
            lp[(i, t)] += h;
            let mut lm = l.clone();
            lm[(i, t)] -= h;
            let grad = (objective(&lp, &r, &x_b, &b, &p, per, cfg.lambda, weights)
                - objective(&lm, &r, &x_b, &b, &p, per, cfg.lambda, weights))
                / (2.0 * h);
            worst_grad = worst_grad.max(grad.abs());
        }
    }
    for j in 0..r.rows() {
        for t in 0..r.cols() {
            let mut rp = r.clone();
            rp[(j, t)] += h;
            let mut rm = r.clone();
            rm[(j, t)] -= h;
            let grad = (objective(&l, &rp, &x_b, &b, &p, per, cfg.lambda, weights)
                - objective(&l, &rm, &x_b, &b, &p, per, cfg.lambda, weights))
                / (2.0 * h);
            worst_grad = worst_grad.max(grad.abs());
        }
    }
    // Objective scale: compare against the gradient magnitude a random
    // point exhibits (sanity: the test can actually fail).
    let scale = base.abs().max(1.0);
    assert!(
        worst_grad < 1e-3 * scale,
        "largest |∂f| at the solution: {worst_grad:.3e} (objective {base:.3e}) — \
         the closed-form updates do not reach a stationary point of Eq. 18"
    );
}

#[test]
fn paper_literal_solver_is_not_stationary_for_eq18() {
    // Control: the paper-literal update (C4 = C5 = 0) optimises a
    // *different* per-column surrogate, so it generally does NOT land on
    // a stationary point of the true objective — which is exactly why
    // the exact mode exists. This guards the test above against being
    // vacuously loose.
    let (m, per) = (4usize, 6usize);
    let n = m * per;
    let x = Matrix::from_fn(m, n, |i, j| {
        let owner = j / per;
        let u = j % per;
        let base = -60.0 - i as f64;
        if owner == i {
            let t = u as f64 / (per - 1) as f64;
            base - 4.0 - 3.0 * (2.0 * t - 1.0).powi(2)
        } else {
            base
        }
    });
    let b = Matrix::from_fn(m, n, |i, j| if j / per == i { 0.0 } else { 1.0 });
    let x_b = b.hadamard(&x).unwrap();

    let cfg = UpdaterConfig {
        rank: Some(4),
        lambda: 1e-3,
        max_iter: 300,
        tol: 1e-14,
        coupling: CouplingMode::PaperLiteral,
        scaling: ScalingMode::Fixed,
        // Crank constraint 2 so the dropped cross terms matter.
        weight_continuity: 1.0,
        weight_similarity: 0.5,
        ..UpdaterConfig::default()
    };
    let weights = TermWeights {
        fit: cfg.weight_fit,
        reference: cfg.weight_ref,
        continuity: cfg.weight_continuity,
        similarity: cfg.weight_similarity,
    };
    let inputs = SolverInputs {
        x_b: x_b.clone(),
        b: b.clone(),
        p: Some(x.clone()),
        per,
        warm_start: Some(x.clone()),
    };
    let report = Solver::new(inputs, cfg.clone()).unwrap().solve().unwrap();
    let l = report.l_factor().clone();
    let r = report.r_factor().clone();
    let h = 1e-5;
    let mut worst_grad: f64 = 0.0;
    for j in 0..r.rows() {
        for t in 0..r.cols() {
            let mut rp = r.clone();
            rp[(j, t)] += h;
            let mut rm = r.clone();
            rm[(j, t)] -= h;
            let grad = (objective(&l, &rp, &x_b, &b, &x, per, cfg.lambda, weights)
                - objective(&l, &rm, &x_b, &b, &x, per, cfg.lambda, weights))
                / (2.0 * h);
            worst_grad = worst_grad.max(grad.abs());
        }
    }
    let base = objective(&l, &r, &x_b, &b, &x, per, cfg.lambda, weights);
    assert!(
        worst_grad > 1e-3 * base.abs().max(1.0),
        "paper-literal mode unexpectedly stationary (worst |∂f| {worst_grad:.3e}) — \
         the control would make the main stationarity test vacuous"
    );
}
