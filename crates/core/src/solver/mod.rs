//! The self-augmented RSVD solver — Algorithm 1 of the paper (Sec.
//! IV-D/E) — rebuilt as a layered engine.
//!
//! Minimises the full objective (Eq. 18):
//!
//! ```text
//!   λ(‖L‖² + ‖R‖²)                      (regularised rank surrogate)
//! + w_fit ‖B ∘ (L Rᵀ) − X_B‖²           (no-decrease data fit)
//! + w_ref ‖L Rᵀ − X_R Z‖²               (constraint 1: MIC correlation)
//! + w_g   ‖X_D G‖²                      (constraint 2a: continuity)
//! + w_h   ‖H X_D‖²                      (constraint 2b: link similarity)
//! ```
//!
//! by alternating closed-form per-column updates of `R` and per-row
//! updates of `L` (the paper's `MyInverse`).
//!
//! # Module layout
//!
//! - [`terms`] — the [`terms::PenaltyTerm`] trait and one
//!   implementation per objective term; the paper's
//!   [`CouplingMode`](crate::config::CouplingMode) variants are term
//!   configurations, not solver branches.
//! - `engine` — the generic ALS engine composing the terms, with
//!   phase-split parallel sweeps (see its module docs).
//! - [`mod@reference`] — the original single-threaded monolith, kept as an
//!   executable specification; the golden parity tests assert the
//!   engine reproduces it to ≤ 1e-9.
//!
//! [`Solver`] is the stable entry point.

mod engine;
#[doc(hidden)]
pub mod reference;
pub mod terms;

use iupdater_linalg::Matrix;

use crate::config::UpdaterConfig;
use crate::neighbors::continuity_matrix;
use crate::similarity::similarity_matrix;
use crate::{CoreError, Result};

pub(crate) use engine::warm_factors;
use engine::AlsEngine;

/// Inputs to the solver, all shaped `M x N` unless noted.
#[derive(Debug, Clone)]
pub struct SolverInputs {
    /// Known no-decrease values (zeros elsewhere), Eq. (8)'s `X_B`.
    pub x_b: Matrix,
    /// Binary mask: 1 = known cell.
    pub b: Matrix,
    /// Constraint-1 target `P = X_R Z`, or `None` to disable.
    pub p: Option<Matrix>,
    /// Locations per link `N/M`.
    pub per: usize,
    /// Optional warm start for `X̂` (e.g. the stale fingerprint matrix);
    /// its rank-`r` SVD factors initialise `L`/`R` instead of the random
    /// `L0` of Algorithm 1 line 1.
    pub warm_start: Option<Matrix>,
}

/// The effective (post-scaling) weights used for each objective term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermWeights {
    /// Data-fit weight.
    pub fit: f64,
    /// Constraint-1 weight (0 when disabled).
    pub reference: f64,
    /// Continuity weight (0 when disabled).
    pub continuity: f64,
    /// Similarity weight (0 when disabled).
    pub similarity: f64,
}

/// The outcome of a solve: factors, reconstruction and diagnostics.
#[derive(Debug, Clone)]
pub struct SolveReport {
    l: Matrix,
    r: Matrix,
    objective_trace: Vec<f64>,
    iterations: usize,
    weights: TermWeights,
}

impl SolveReport {
    /// The reconstructed fingerprint matrix `X̂ = L Rᵀ` (Algorithm 1
    /// line 10).
    pub fn reconstruction(&self) -> Matrix {
        self.l
            .matmul(&self.r.transpose())
            // invariants: allow(panic-freedom) — both factors come
            // from the same solve and share the rank dimension, so
            // the shapes always agree.
            .expect("factor shapes are internally consistent")
    }

    /// The left factor `L` (`M x r`).
    // invariants: allow(dead-pub) — test oracle: the convergence
    // and stationarity tiers check the factors themselves.
    pub fn l_factor(&self) -> &Matrix {
        &self.l
    }

    /// The right factor `R` (`N x r`).
    // invariants: allow(dead-pub) — test oracle, as `l_factor`.
    pub fn r_factor(&self) -> &Matrix {
        &self.r
    }

    /// Objective value after each iteration.
    pub fn objective_trace(&self) -> &[f64] {
        &self.objective_trace
    }

    /// Iterations actually performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The effective term weights after auto-scaling.
    pub fn weights(&self) -> TermWeights {
        self.weights
    }
}

/// Validates `(inputs, cfg)` and derives the relationship matrices —
/// the shared construction path of the engine and the reference
/// implementation.
fn validate(
    inputs: &SolverInputs,
    cfg: &UpdaterConfig,
) -> Result<(Option<Matrix>, Option<Matrix>, usize)> {
    cfg.validate().map_err(CoreError::InvalidArgument)?;
    let (m, n) = inputs.x_b.shape();
    if m == 0 || n == 0 {
        return Err(CoreError::InvalidArgument("empty problem"));
    }
    if inputs.b.shape() != (m, n) {
        return Err(CoreError::DimensionMismatch {
            context: "Solver::new (mask)",
            expected: format!("{m}x{n}"),
            got: format!("{}x{}", inputs.b.rows(), inputs.b.cols()),
        });
    }
    if inputs.per == 0 || m * inputs.per != n {
        return Err(CoreError::DimensionMismatch {
            context: "Solver::new (per)",
            expected: format!("N = M * per = {m} * {}", inputs.per),
            got: format!("N = {n}"),
        });
    }
    if let Some(p) = &inputs.p {
        if p.shape() != (m, n) {
            return Err(CoreError::DimensionMismatch {
                context: "Solver::new (P)",
                expected: format!("{m}x{n}"),
                got: format!("{}x{}", p.rows(), p.cols()),
            });
        }
    }
    if let Some(w) = &inputs.warm_start {
        if w.shape() != (m, n) {
            return Err(CoreError::DimensionMismatch {
                context: "Solver::new (warm start)",
                expected: format!("{m}x{n}"),
                got: format!("{}x{}", w.rows(), w.cols()),
            });
        }
    }
    let rank = cfg.rank.unwrap_or(m).min(m).min(n).max(1);
    let (g, h) = if cfg.use_constraint2 {
        (
            Some(continuity_matrix(inputs.per)?),
            Some(similarity_matrix(m)?),
        )
    } else {
        (None, None)
    };
    Ok((g, h, rank))
}

/// The solver: a validated problem bound to the layered ALS engine.
#[derive(Debug)]
pub struct Solver {
    engine: AlsEngine,
}

impl Solver {
    /// Validates inputs and builds a solver.
    ///
    /// # Errors
    ///
    /// - [`CoreError::InvalidArgument`] for invalid config or `per`.
    /// - [`CoreError::DimensionMismatch`] for inconsistent shapes.
    pub fn new(inputs: SolverInputs, cfg: UpdaterConfig) -> Result<Self> {
        let (g, h, rank) = validate(&inputs, &cfg)?;
        Ok(Solver {
            engine: AlsEngine::new(inputs, cfg, g, h, rank),
        })
    }

    /// Runs Algorithm 1 to convergence or the iteration budget.
    ///
    /// # Errors
    ///
    /// Propagates linear-solver failures (singular normal equations can
    /// only arise from degenerate inputs such as an all-zero mask row
    /// with λ = 0).
    pub fn solve(&self) -> Result<SolveReport> {
        self.engine.solve()
    }

    /// [`Solver::solve`] from precomputed warm-start factors
    /// `(L₀, R₀)` — [`warm_factors`] of the warm start at
    /// [`Solver::rank`] — instead of the inputs' own initialisation.
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] unless `L₀` is `M x r` and `R₀`
    /// is `N x r` at this solver's rank, so factors computed at another
    /// rank are refused rather than solved from.
    pub(crate) fn solve_warm(&self, (l0, r0): &(Matrix, Matrix)) -> Result<SolveReport> {
        let (m, n) = self.engine.inputs.x_b.shape();
        let r = self.engine.rank;
        if l0.shape() != (m, r) || r0.shape() != (n, r) {
            return Err(CoreError::DimensionMismatch {
                context: "Solver::solve_warm",
                expected: format!("L0 {m}x{r}, R0 {n}x{r}"),
                got: format!(
                    "L0 {}x{}, R0 {}x{}",
                    l0.rows(),
                    l0.cols(),
                    r0.rows(),
                    r0.cols()
                ),
            });
        }
        self.engine.solve_from(l0.clone(), r0.clone())
    }

    /// The factorisation rank `r` the engine solves at.
    pub(crate) fn rank(&self) -> usize {
        self.engine.rank
    }

    /// The number of distinct column systems the engine assembles and
    /// LU-factors per column sweep: one per class of columns whose
    /// normal matrices are bit-identical (at most `N`). Deterministic —
    /// a function of the mask, `per` and the configuration only.
    pub fn column_systems(&self) -> usize {
        self.engine.column_systems()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CouplingMode, ScalingMode};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A synthetic "fingerprint" with the right structural shape:
    /// smooth per-link dip profiles, similar adjacent links.
    fn structured_fingerprint(m: usize, per: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<f64> = (0..m)
            .map(|_| -62.0 + (rng.gen::<f64>() - 0.5) * 4.0)
            .collect();
        Matrix::from_fn(m, m * per, |i, j| {
            let owner = j / per;
            let u = j % per;
            if owner == i {
                // Dip profile: deep near the ends, shallow at the middle.
                let x = u as f64 / (per - 1) as f64;
                let dip = 4.0 + 5.0 * (2.0 * x - 1.0).powi(2);
                base[i] - dip
            } else if owner.abs_diff(i) == 1 {
                base[i] - 1.0
            } else {
                base[i]
            }
        })
    }

    fn mask_no_decrease(m: usize, per: usize) -> Matrix {
        Matrix::from_fn(m, m * per, |i, j| {
            let owner = j / per;
            if owner.abs_diff(i) <= 1 {
                0.0
            } else {
                1.0
            }
        })
    }

    fn default_cfg() -> UpdaterConfig {
        UpdaterConfig {
            rank: Some(6),
            max_iter: 40,
            ..UpdaterConfig::default()
        }
    }

    #[test]
    fn shapes_validated() {
        let x_b = Matrix::zeros(4, 12);
        let b = Matrix::zeros(4, 12);
        let ok = SolverInputs {
            x_b: x_b.clone(),
            b: b.clone(),
            p: None,
            per: 3,
            warm_start: None,
        };
        assert!(Solver::new(ok, default_cfg()).is_ok());
        let bad_per = SolverInputs {
            x_b: x_b.clone(),
            b: b.clone(),
            p: None,
            per: 5,
            warm_start: None,
        };
        assert!(Solver::new(bad_per, default_cfg()).is_err());
        let bad_mask = SolverInputs {
            x_b: x_b.clone(),
            b: Matrix::zeros(4, 11),
            p: None,
            per: 3,
            warm_start: None,
        };
        assert!(Solver::new(bad_mask, default_cfg()).is_err());
        let bad_p = SolverInputs {
            x_b,
            b,
            p: Some(Matrix::zeros(3, 12)),
            per: 3,
            warm_start: None,
        };
        assert!(Solver::new(bad_p, default_cfg()).is_err());
    }

    #[test]
    fn exact_mode_objective_never_increases() {
        let x = structured_fingerprint(6, 8, 1);
        let b = mask_no_decrease(6, 8);
        let x_b = b.hadamard(&x).unwrap();
        let inputs = SolverInputs {
            x_b,
            b,
            p: Some(x.clone()),
            per: 8,
            warm_start: None,
        };
        let cfg = UpdaterConfig {
            rank: Some(6),
            max_iter: 25,
            scaling: ScalingMode::Fixed,
            coupling: CouplingMode::Exact,
            ..UpdaterConfig::default()
        };
        let report = Solver::new(inputs, cfg).unwrap().solve().unwrap();
        let tr = report.objective_trace();
        for w in tr.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-8),
                "objective increased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn constraint1_pins_down_reconstruction() {
        // With a perfect P = X, the reconstruction must approach X even
        // on unknown cells (constraint 2 off: its smoothing bias is
        // tested separately).
        let x = structured_fingerprint(6, 8, 2);
        let b = mask_no_decrease(6, 8);
        let x_b = b.hadamard(&x).unwrap();
        let inputs = SolverInputs {
            x_b,
            b: b.clone(),
            p: Some(x.clone()),
            per: 8,
            warm_start: None,
        };
        let cfg = UpdaterConfig {
            use_constraint2: false,
            ..default_cfg()
        };
        let report = Solver::new(inputs, cfg).unwrap().solve().unwrap();
        let xhat = report.reconstruction();
        let mut worst: f64 = 0.0;
        for i in 0..6 {
            for j in 0..48 {
                worst = worst.max((xhat[(i, j)] - x[(i, j)]).abs());
            }
        }
        assert!(
            worst < 1.5,
            "worst-cell error {worst} dB with perfect constraint 1"
        );
    }

    #[test]
    fn constraint2_suppresses_outliers() {
        // Truth whose largely-decrease structure satisfies constraint 2
        // exactly (identical links, flat dip => X_D G = 0 and H X_D = 0),
        // with heavy noise injected into P's large-decrease cells: the
        // constraint should then strictly reduce the error (pure noise
        // suppression, zero bias).
        let (m, per) = (6usize, 8usize);
        let x = Matrix::from_fn(m, m * per, |i, j| {
            let owner = j / per;
            if owner == i {
                -68.0
            } else {
                -62.0
            }
        });
        let b = mask_no_decrease(m, per);
        let x_b = b.hadamard(&x).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let mut p_noisy = x.clone();
        for i in 0..m {
            for u in 0..per {
                let j = i * per + u;
                if u % 2 == 0 {
                    p_noisy[(i, j)] += (rng.gen::<f64>() - 0.5) * 12.0;
                }
            }
        }
        let err_with = |use_c2: bool| {
            let cfg = UpdaterConfig {
                rank: Some(6),
                max_iter: 40,
                use_constraint2: use_c2,
                weight_continuity: 0.5,
                weight_similarity: 0.2,
                ..UpdaterConfig::default()
            };
            let inputs = SolverInputs {
                x_b: x_b.clone(),
                b: b.clone(),
                p: Some(p_noisy.clone()),
                per: 8,
                warm_start: None,
            };
            let xhat = Solver::new(inputs, cfg)
                .unwrap()
                .solve()
                .unwrap()
                .reconstruction();
            let mut err = 0.0;
            for i in 0..6 {
                for u in 0..8 {
                    let j = i * 8 + u;
                    err += (xhat[(i, j)] - x[(i, j)]).abs();
                }
            }
            err / 48.0
        };
        let with_c2 = err_with(true);
        let without = err_with(false);
        assert!(
            with_c2 < without,
            "constraint 2 should reduce large-decrease error: {with_c2} vs {without}"
        );
    }

    #[test]
    fn warm_start_reproduces_truth_quickly() {
        let x = structured_fingerprint(8, 12, 4);
        let b = mask_no_decrease(8, 12);
        let x_b = b.hadamard(&x).unwrap();
        let inputs = SolverInputs {
            x_b,
            b,
            p: Some(x.clone()),
            per: 12,
            warm_start: Some(x.clone()),
        };
        let cfg = UpdaterConfig {
            rank: Some(8),
            max_iter: 10,
            ..UpdaterConfig::default()
        };
        let report = Solver::new(inputs, cfg).unwrap().solve().unwrap();
        let xhat = report.reconstruction();
        let rel = (&xhat - &x).frobenius_norm() / x.frobenius_norm();
        assert!(rel < 0.02, "relative error {rel}");
    }

    #[test]
    fn solve_warm_refuses_factors_of_another_rank() {
        let x = structured_fingerprint(8, 12, 4);
        let b = mask_no_decrease(8, 12);
        let inputs = SolverInputs {
            x_b: b.hadamard(&x).unwrap(),
            b,
            p: None,
            per: 12,
            warm_start: None,
        };
        let cfg = UpdaterConfig {
            rank: Some(4),
            max_iter: 3,
            ..UpdaterConfig::default()
        };
        let solver = Solver::new(inputs, cfg).unwrap();
        assert_eq!(solver.rank(), 4);
        for r in [3, 5] {
            let factors = warm_factors(&x, r).unwrap();
            assert!(matches!(
                solver.solve_warm(&factors),
                Err(CoreError::DimensionMismatch { .. })
            ));
        }
        let factors = warm_factors(&x, 4).unwrap();
        assert!(solver.solve_warm(&factors).is_ok());
    }

    #[test]
    fn paper_literal_mode_still_converges() {
        let x = structured_fingerprint(6, 8, 5);
        let b = mask_no_decrease(6, 8);
        let x_b = b.hadamard(&x).unwrap();
        let inputs = SolverInputs {
            x_b,
            b,
            p: Some(x.clone()),
            per: 8,
            warm_start: None,
        };
        let cfg = UpdaterConfig {
            rank: Some(6),
            coupling: CouplingMode::PaperLiteral,
            max_iter: 40,
            ..UpdaterConfig::default()
        };
        let report = Solver::new(inputs, cfg).unwrap().solve().unwrap();
        let xhat = report.reconstruction();
        let rel = (&xhat - &x).frobenius_norm() / x.frobenius_norm();
        assert!(rel < 0.1, "paper-literal relative error {rel}");
    }

    #[test]
    fn deterministic_given_seed() {
        let x = structured_fingerprint(4, 6, 6);
        let b = mask_no_decrease(4, 6);
        let x_b = b.hadamard(&x).unwrap();
        let mk = || SolverInputs {
            x_b: x_b.clone(),
            b: b.clone(),
            p: Some(x.clone()),
            per: 6,
            warm_start: None,
        };
        let cfg = UpdaterConfig {
            rank: Some(4),
            max_iter: 15,
            ..UpdaterConfig::default()
        };
        let a = Solver::new(mk(), cfg.clone()).unwrap().solve().unwrap();
        let b2 = Solver::new(mk(), cfg).unwrap().solve().unwrap();
        assert!(a.reconstruction().approx_eq(&b2.reconstruction(), 1e-12));
    }

    #[test]
    fn column_systems_all_distinct_mask_gives_n() {
        let (m, per) = (6usize, 8usize);
        let n = m * per;
        // Column j's known rows spell j in binary: n distinct sets.
        let b = Matrix::from_fn(m, n, |i, j| ((j >> i) & 1) as f64);
        let inputs = SolverInputs {
            x_b: b.clone(),
            b,
            p: None,
            per,
            warm_start: None,
        };
        let solver = Solver::new(inputs, default_cfg()).unwrap();
        assert_eq!(solver.column_systems(), n);
    }

    #[test]
    fn column_systems_link_constant_mask() {
        let (m, per) = (6usize, 8usize);
        let g = continuity_matrix(per).unwrap();
        let inputs = SolverInputs {
            x_b: Matrix::zeros(m, m * per),
            b: mask_no_decrease(m, per),
            p: None,
            per,
            warm_start: None,
        };
        for coupling in [CouplingMode::Exact, CouplingMode::PaperLiteral] {
            let coefficients: std::collections::BTreeSet<u64> = (0..per)
                .map(|jj| {
                    let v: f64 = match coupling {
                        CouplingMode::Exact => (0..per).map(|p| g[(jj, p)] * g[(jj, p)]).sum(),
                        CouplingMode::PaperLiteral => {
                            (0..per).map(|u| g[(u, jj)] * g[(u, jj)]).sum()
                        }
                    };
                    v.to_bits()
                })
                .collect();
            assert!(coefficients.len() > 1 && coefficients.len() < per);
            let cfg = UpdaterConfig {
                coupling,
                ..default_cfg()
            };
            let solver = Solver::new(inputs.clone(), cfg).unwrap();
            assert_eq!(solver.column_systems(), m * coefficients.len());
        }
        // Without constraint 2 every cell of a link shares one system.
        let cfg = UpdaterConfig {
            use_constraint2: false,
            ..default_cfg()
        };
        assert_eq!(Solver::new(inputs, cfg).unwrap().column_systems(), m);
    }

    #[test]
    fn report_accessors() {
        let x = structured_fingerprint(4, 6, 8);
        let b = mask_no_decrease(4, 6);
        let x_b = b.hadamard(&x).unwrap();
        let inputs = SolverInputs {
            x_b,
            b,
            p: Some(x),
            per: 6,
            warm_start: None,
        };
        let cfg = UpdaterConfig {
            rank: Some(3),
            max_iter: 5,
            ..UpdaterConfig::default()
        };
        let report = Solver::new(inputs, cfg).unwrap().solve().unwrap();
        assert_eq!(report.l_factor().shape(), (4, 3));
        assert_eq!(report.r_factor().shape(), (24, 3));
        assert!(report.iterations() >= 1 && report.iterations() <= 5);
        assert!(report.weights().fit > 0.0);
        assert_eq!(report.objective_trace().len(), report.iterations() + 1);
    }

    /// The basic RSVD of Eq. (11): the solver with both constraints
    /// off (`UpdaterConfig::basic_rsvd()`) and no constraint-1 target.
    fn solve_basic_rsvd(x_b: &Matrix, b: &Matrix, per: usize, cfg: UpdaterConfig) -> SolveReport {
        let inputs = SolverInputs {
            x_b: x_b.clone(),
            b: b.clone(),
            p: None,
            per,
            warm_start: None,
        };
        Solver::new(inputs, cfg).unwrap().solve().unwrap()
    }

    /// Builds a random rank-r "fingerprint-like" matrix (negative dBm
    /// values) and a random observation mask.
    fn rsvd_problem(
        m: usize,
        n: usize,
        r: usize,
        keep: f64,
        seed: u64,
    ) -> (Matrix, Matrix, Matrix) {
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
    fn basic_rsvd_recovers_known_cells() {
        let (x, b, xb) = rsvd_problem(6, 24, 3, 0.7, 1);
        let cfg = UpdaterConfig {
            rank: Some(6),
            lambda: 1e-6,
            max_iter: 100,
            ..UpdaterConfig::basic_rsvd()
        };
        let report = solve_basic_rsvd(&xb, &b, 4, cfg);
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
    fn basic_rsvd_objective_decreases_monotonically() {
        let (_, b, xb) = rsvd_problem(6, 24, 3, 0.6, 2);
        let cfg = UpdaterConfig {
            rank: Some(4),
            max_iter: 30,
            ..UpdaterConfig::basic_rsvd()
        };
        let report = solve_basic_rsvd(&xb, &b, 4, cfg);
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
    fn basic_rsvd_rank_bound_respected() {
        let (_, b, xb) = rsvd_problem(6, 24, 3, 0.8, 3);
        let cfg = UpdaterConfig {
            rank: Some(2),
            ..UpdaterConfig::basic_rsvd()
        };
        let report = solve_basic_rsvd(&xb, &b, 4, cfg);
        let xhat = report.reconstruction();
        assert!(xhat.pivoted_leading_columns(1e-8).unwrap().len() <= 2);
    }

    #[test]
    fn basic_rsvd_completion_of_low_rank_with_dense_mask() {
        // With most entries observed and exact low rank, completion
        // should recover the unknown entries well (the premise of Obs 1).
        // Note the -65 dBm offset adds a rank-1 component, so the data
        // rank is r + 1 = 4.
        let (x, b, xb) = rsvd_problem(8, 40, 3, 0.85, 5);
        let cfg = UpdaterConfig {
            rank: Some(4),
            lambda: 1e-7,
            max_iter: 200,
            tol: 1e-10,
            ..UpdaterConfig::basic_rsvd()
        };
        let report = solve_basic_rsvd(&xb, &b, 5, cfg);
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
    fn basic_rsvd_multiple_solutions_without_constraints() {
        // The paper's motivation for constraint 1: the basic RSVD does
        // not uniquely determine the unknown cells. Two different seeds
        // should produce visibly different unknown-cell estimates when
        // the mask is sparse.
        let (_, b, xb) = rsvd_problem(6, 30, 4, 0.35, 5);
        let run = |seed: u64| {
            let cfg = UpdaterConfig {
                rank: Some(4),
                seed,
                max_iter: 50,
                ..UpdaterConfig::basic_rsvd()
            };
            solve_basic_rsvd(&xb, &b, 5, cfg).reconstruction()
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
