//! Convergence tier for the Exact-coupling Gauss–Seidel sweeps.
//!
//! The golden parity tier (`solver_parity.rs`) pins the engine to
//! `solver::reference` bit-for-bit; this tier pins what both must
//! achieve. On every golden configuration the solver must
//!
//! 1. descend monotonically (ALS block updates never increase Eq. 18),
//!    and
//! 2. reach **stationarity** — the worst central-difference gradient of
//!    the *independently recomputed* objective at the fixed point must
//!    vanish relative to the objective scale (the `stationarity.rs`
//!    criterion).
//!
//! The golden configurations are warm-started, like every production
//! solve (`Updater::update_report` always seeds from the prior): that
//! is the regime where a 300-iteration budget genuinely converges.
//!
//! The pool width is pinned to 4 for the whole binary so the parallel
//! phases of each sweep really execute in parallel, even on single-CPU
//! CI.

use iupdater_core::config::{CouplingMode, ScalingMode, UpdaterConfig};
use iupdater_core::solver::{SolveReport, Solver, SolverInputs, TermWeights};
use iupdater_core::{decrease, neighbors, similarity};
use iupdater_linalg::Matrix;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Stationarity threshold: worst |∂f| at the fixed point, relative to
/// the objective scale. Observed values on the golden configs are
/// ≤ ~4e-5; 1e-3 matches the `stationarity.rs` tier.
const STATIONARITY_TOL: f64 = 1e-3;

/// Pins the worker pool to 4 threads (once; every test uses the same
/// value, so tests may run concurrently). Engines cache the width at
/// construction, so this must run before any `Solver::new`.
fn force_pool() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| rayon::set_num_threads_for_tests(4));
}

/// Synthetic fingerprint with the paper's structure (same generator the
/// parity tests use).
fn structured_fingerprint(m: usize, per: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<f64> = (0..m)
        .map(|_| -62.0 + (rng.gen::<f64>() - 0.5) * 4.0)
        .collect();
    Matrix::from_fn(m, m * per, |i, j| {
        let owner = j / per;
        let u = j % per;
        if owner == i {
            let x = u as f64 / (per - 1) as f64;
            base[i] - (4.0 + 5.0 * (2.0 * x - 1.0).powi(2))
        } else if owner.abs_diff(i) == 1 {
            base[i] - 1.0
        } else {
            base[i]
        }
    })
}

fn inputs(m: usize, per: usize, seed: u64, warm: bool) -> SolverInputs {
    let x = structured_fingerprint(m, per, seed);
    let b = Matrix::from_fn(m, m * per, |i, j| {
        if (j / per).abs_diff(i) <= 1 {
            0.0
        } else {
            1.0
        }
    });
    let x_b = b.hadamard(&x).unwrap();
    SolverInputs {
        x_b,
        b,
        p: Some(x.clone()),
        per,
        warm_start: warm.then_some(x),
    }
}

/// The golden configurations: Exact coupling with constraint 2 active
/// (the regime with Gauss–Seidel cross terms), warm-started, spanning
/// the shapes the parity tier covers — default, a larger office, auto
/// scaling, heavy constraint-2 weights, a rank override, and an even
/// `per` (the two-middle-column continuity matrix).
fn golden_configs() -> Vec<(&'static str, SolverInputs, UpdaterConfig)> {
    let base = UpdaterConfig {
        max_iter: 300,
        tol: 1e-14,
        coupling: CouplingMode::Exact,
        ..UpdaterConfig::default()
    };
    vec![
        (
            "office-default",
            inputs(6, 9, 41, true),
            UpdaterConfig {
                rank: Some(6),
                ..base.clone()
            },
        ),
        (
            "larger-office",
            inputs(8, 13, 43, true),
            UpdaterConfig {
                rank: Some(8),
                ..base.clone()
            },
        ),
        (
            "auto-scaling",
            inputs(5, 7, 44, true),
            UpdaterConfig {
                rank: Some(5),
                scaling: ScalingMode::Auto,
                ..base.clone()
            },
        ),
        (
            "heavy-constraint2",
            inputs(6, 9, 45, true),
            UpdaterConfig {
                rank: Some(6),
                weight_continuity: 0.5,
                weight_similarity: 0.3,
                ..base.clone()
            },
        ),
        (
            "rank-limited",
            inputs(6, 9, 46, true),
            UpdaterConfig {
                rank: Some(4),
                ..base.clone()
            },
        ),
        (
            "even-per",
            inputs(6, 8, 47, true),
            UpdaterConfig {
                rank: Some(6),
                ..base
            },
        ),
    ]
}

/// Eq. (18) recomputed from its published definition, independently of
/// the solver internals, at the *effective* (post-scaling) weights.
fn objective(l: &Matrix, r: &Matrix, inp: &SolverInputs, lambda: f64, w: TermWeights) -> f64 {
    let xhat = l.matmul(&r.transpose()).unwrap();
    let mut v = lambda * (l.frobenius_norm_sq() + r.frobenius_norm_sq());
    let fit = inp
        .b
        .hadamard(&xhat)
        .unwrap()
        .checked_sub(&inp.x_b)
        .unwrap();
    v += w.fit * fit.frobenius_norm_sq();
    if let Some(p) = &inp.p {
        v += w.reference * xhat.checked_sub(p).unwrap().frobenius_norm_sq();
    }
    let xd = decrease::extract(&xhat, inp.per).unwrap();
    let g = neighbors::continuity_matrix(inp.per).unwrap();
    let h = similarity::similarity_matrix(xhat.rows()).unwrap();
    v += w.continuity * xd.matmul(&g).unwrap().frobenius_norm_sq();
    v += w.similarity * h.matmul(&xd).unwrap().frobenius_norm_sq();
    v
}

/// Worst central-difference |∂f| over every entry of `L` and `R`.
fn worst_gradient(l: &Matrix, r: &Matrix, inp: &SolverInputs, lambda: f64, w: TermWeights) -> f64 {
    let h = 1e-5;
    let mut worst: f64 = 0.0;
    for i in 0..l.rows() {
        for t in 0..l.cols() {
            let mut lp = l.clone();
            lp[(i, t)] += h;
            let mut lm = l.clone();
            lm[(i, t)] -= h;
            let grad =
                (objective(&lp, r, inp, lambda, w) - objective(&lm, r, inp, lambda, w)) / (2.0 * h);
            worst = worst.max(grad.abs());
        }
    }
    for j in 0..r.rows() {
        for t in 0..r.cols() {
            let mut rp = r.clone();
            rp[(j, t)] += h;
            let mut rm = r.clone();
            rm[(j, t)] -= h;
            let grad =
                (objective(l, &rp, inp, lambda, w) - objective(l, &rm, inp, lambda, w)) / (2.0 * h);
            worst = worst.max(grad.abs());
        }
    }
    worst
}

/// Monotone non-increasing trace, within floating-point slack.
fn assert_descent(label: &str, report: &SolveReport) {
    for (k, w) in report.objective_trace().windows(2).enumerate() {
        assert!(
            w[1] <= w[0] * (1.0 + 1e-8),
            "{label}: objective increased at iteration {k}: {} -> {}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn gauss_seidel_reaches_stationarity_on_all_golden_configs() {
    force_pool();
    for (label, inputs, cfg) in golden_configs() {
        let report = Solver::new(inputs.clone(), cfg.clone())
            .unwrap()
            .solve()
            .unwrap();
        assert_descent(label, &report);
        let f = *report.objective_trace().last().unwrap();
        let grad = worst_gradient(
            report.l_factor(),
            report.r_factor(),
            &inputs,
            cfg.lambda,
            report.weights(),
        );
        assert!(
            grad < STATIONARITY_TOL * f.abs().max(1.0),
            "{label}: not stationary — worst |∂f| = {grad:.3e} at objective {f:.3e}"
        );
    }
}
