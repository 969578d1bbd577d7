//! The original single-threaded self-augmented solver, kept verbatim
//! as an **executable specification** of Algorithm 1.
//!
//! The production engine (`solver::engine`) restructures these sweeps
//! into phase-split parallel updates; the golden parity tests
//! (`tests/solver_parity.rs`) assert that the engine reproduces this
//! implementation's objective trajectory and reconstruction to
//! <= 1e-9 on every coupling / scaling / warm-start configuration.
//! Not part of the supported API.
//!
//! This implementation *is* the Gauss–Seidel sweep-order
//! specification: it walks updates in ascending order, the one order
//! the engine runs.

use iupdater_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{CouplingMode, ScalingMode, UpdaterConfig};
use crate::solver::{SolveReport, SolverInputs, TermWeights};
use crate::Result;

/// The reference solver state and configuration.
#[derive(Debug)]
pub struct ReferenceSolver {
    inputs: SolverInputs,
    cfg: UpdaterConfig,
    g: Option<Matrix>,
    h: Option<Matrix>,
    rank: usize,
}

impl ReferenceSolver {
    /// Validates inputs and builds a solver.
    ///
    /// # Errors
    ///
    /// - [`CoreError::InvalidArgument`] for invalid config or `per`.
    /// - [`CoreError::DimensionMismatch`] for inconsistent shapes.
    pub fn new(inputs: SolverInputs, cfg: UpdaterConfig) -> Result<Self> {
        let (g, h, rank) = super::validate(&inputs, &cfg)?;
        Ok(ReferenceSolver {
            inputs,
            cfg,
            g,
            h,
            rank,
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
        let (m, n) = self.inputs.x_b.shape();
        let r = self.rank;

        // --- Initialisation (Algorithm 1 line 1) -----------------------
        let (mut l, mut rm) = match &self.inputs.warm_start {
            Some(x0) => {
                let svd = x0.svd()?;
                let mut l = Matrix::zeros(m, r);
                let mut rr = Matrix::zeros(n, r);
                for t in 0..r.min(svd.singular_values.len()) {
                    let s = svd.singular_values[t].sqrt();
                    for i in 0..m {
                        l[(i, t)] = svd.u[(i, t)] * s;
                    }
                    for j in 0..n {
                        rr[(j, t)] = svd.v[(j, t)] * s;
                    }
                }
                (l, rr)
            }
            None => {
                let mut rng = StdRng::seed_from_u64(self.cfg.seed);
                // Random L0; scale so L Rᵀ can reach dBm magnitudes fast.
                let scale = (self.inputs.x_b.max_abs().max(1.0) / r as f64).sqrt();
                let l = Matrix::from_fn(m, r, |_, _| (rng.gen::<f64>() * 2.0 - 1.0) * scale);
                let rm = Matrix::from_fn(n, r, |_, _| (rng.gen::<f64>() * 2.0 - 1.0) * scale);
                (l, rm)
            }
        };

        // --- Term weights (the paper's magnitude scaling) ---------------
        let weights = self.effective_weights(&l, &rm)?;

        // --- Alternating minimisation -----------------------------------
        let mut trace = Vec::with_capacity(self.cfg.max_iter + 1);
        trace.push(self.objective(&l, &rm, &weights)?);
        let mut iterations = 0;
        for _ in 0..self.cfg.max_iter {
            self.update_columns(&l, &mut rm, &weights)?;
            self.update_rows(&mut l, &rm, &weights)?;
            iterations += 1;
            let v = self.objective(&l, &rm, &weights)?;
            // invariants: allow(panic-freedom) — the initial
            // objective is pushed before the loop, so the trace is
            // never empty.
            let prev = *trace.last().expect("trace non-empty");
            trace.push(v);
            // Stop on relative stagnation (plays the role of v_th).
            if (prev - v).abs() <= self.cfg.tol * prev.abs().max(1e-12) {
                break;
            }
        }
        Ok(SolveReport {
            l,
            r: rm,
            objective_trace: trace,
            iterations,
            weights,
        })
    }

    /// Computes effective weights: `Fixed` passes the config through,
    /// `Auto` additionally balances each constraint against the data-fit
    /// magnitude at the initial point.
    fn effective_weights(&self, l: &Matrix, rm: &Matrix) -> Result<TermWeights> {
        let cfg = &self.cfg;
        let base = TermWeights {
            fit: cfg.weight_fit,
            reference: if cfg.use_constraint1 && self.inputs.p.is_some() {
                cfg.weight_ref
            } else {
                0.0
            },
            continuity: if cfg.use_constraint2 {
                cfg.weight_continuity
            } else {
                0.0
            },
            similarity: if cfg.use_constraint2 {
                cfg.weight_similarity
            } else {
                0.0
            },
        };
        if cfg.scaling == ScalingMode::Fixed {
            return Ok(base);
        }
        // Auto: express each term per element and scale to the data-fit
        // per-element magnitude at the initial point.
        let xhat = l.matmul(&rm.transpose())?;
        let fit_resid = self
            .inputs
            .b
            .hadamard(&xhat)?
            .checked_sub(&self.inputs.x_b)?;
        let known = self.inputs.b.iter().filter(|&&v| v != 0.0).count().max(1);
        let fit_mag = (fit_resid.frobenius_norm_sq() / known as f64).max(1e-9);

        let scale_for = |value: f64, count: usize| -> f64 {
            let per_elem = (value / count.max(1) as f64).max(1e-12);
            (fit_mag / per_elem).clamp(0.05, 20.0)
        };

        let mut w = base;
        if w.reference > 0.0 {
            if let Some(p) = &self.inputs.p {
                let resid = xhat.checked_sub(p)?;
                w.reference *= scale_for(resid.frobenius_norm_sq(), p.rows() * p.cols());
            }
        }
        if w.continuity > 0.0 || w.similarity > 0.0 {
            let xd = crate::decrease::extract(&xhat, self.inputs.per)?;
            if let (Some(g), w_g) = (&self.g, w.continuity) {
                if w_g > 0.0 {
                    let v = xd.matmul(g)?.frobenius_norm_sq();
                    w.continuity *= scale_for(v, xd.rows() * xd.cols());
                }
            }
            if let (Some(h), w_h) = (&self.h, w.similarity) {
                if w_h > 0.0 {
                    let v = h.matmul(&xd)?.frobenius_norm_sq();
                    w.similarity *= scale_for(v, xd.rows() * xd.cols());
                }
            }
        }
        Ok(w)
    }

    /// The full objective (Eq. 18) at `(L, R)` under `w`.
    fn objective(&self, l: &Matrix, rm: &Matrix, w: &TermWeights) -> Result<f64> {
        let xhat = l.matmul(&rm.transpose())?;
        let mut v = self.cfg.lambda * (l.frobenius_norm_sq() + rm.frobenius_norm_sq());
        let fit = self
            .inputs
            .b
            .hadamard(&xhat)?
            .checked_sub(&self.inputs.x_b)?;
        v += w.fit * fit.frobenius_norm_sq();
        if w.reference > 0.0 {
            if let Some(p) = &self.inputs.p {
                v += w.reference * xhat.checked_sub(p)?.frobenius_norm_sq();
            }
        }
        if w.continuity > 0.0 || w.similarity > 0.0 {
            let xd = crate::decrease::extract(&xhat, self.inputs.per)?;
            if let Some(g) = &self.g {
                if w.continuity > 0.0 {
                    v += w.continuity * xd.matmul(g)?.frobenius_norm_sq();
                }
            }
            if let Some(h) = &self.h {
                if w.similarity > 0.0 {
                    v += w.similarity * h.matmul(&xd)?.frobenius_norm_sq();
                }
            }
        }
        Ok(v)
    }

    /// One sweep of per-column closed-form updates of `R`
    /// (the `MyInverse(..., L̂, ...)` call of Algorithm 1 line 3).
    fn update_columns(&self, l: &Matrix, rm: &mut Matrix, w: &TermWeights) -> Result<()> {
        let (m, n) = self.inputs.x_b.shape();
        let r = self.rank;
        let per = self.inputs.per;
        // Precompute LᵀL for the reference term (Q3 of Algorithm 1).
        let ltl = if w.reference > 0.0 {
            Some(l.gram())
        } else {
            None
        };

        for j in 0..n {
            let ii = j / per;
            let jj = j % per;
            let lrow = l.row(ii);

            let mut a = Matrix::identity(r).scale(self.cfg.lambda);
            let mut rhs = vec![0.0_f64; r];

            // Data-fit term: Q2/C2 (masked rows only).
            for i in 0..m {
                if self.inputs.b[(i, j)] == 0.0 {
                    continue;
                }
                let li = l.row(i);
                let y = self.inputs.x_b[(i, j)];
                for a_idx in 0..r {
                    rhs[a_idx] += w.fit * y * li[a_idx];
                    let row = a.row_mut(a_idx);
                    for b_idx in 0..r {
                        row[b_idx] += w.fit * li[a_idx] * li[b_idx];
                    }
                }
            }

            // Constraint 1: Q3/C3.
            if let (Some(ltl), Some(p)) = (&ltl, &self.inputs.p) {
                for a_idx in 0..r {
                    let row = a.row_mut(a_idx);
                    for b_idx in 0..r {
                        row[b_idx] += w.reference * ltl[(a_idx, b_idx)];
                    }
                }
                for i in 0..m {
                    let pij = p[(i, j)];
                    if pij == 0.0 {
                        continue;
                    }
                    let li = l.row(i);
                    for a_idx in 0..r {
                        rhs[a_idx] += w.reference * pij * li[a_idx];
                    }
                }
            }

            // Constraint 2: Q4/Q5 (+C4/C5 in Exact mode).
            if let Some(g) = &self.g {
                if w.continuity > 0.0 {
                    let (q4, c4) = match self.cfg.coupling {
                        CouplingMode::PaperLiteral => {
                            // Algorithm 1 line 18: column jj of G.
                            let norm_sq: f64 = (0..per).map(|u| g[(u, jj)] * g[(u, jj)]).sum();
                            (w.continuity * norm_sq, 0.0)
                        }
                        CouplingMode::Exact => {
                            // Row jj of G (the true coefficient of
                            // X_D(ii, jj) in X_D * G) plus the cross term.
                            let norm_sq: f64 = (0..per).map(|p_| g[(jj, p_)] * g[(jj, p_)]).sum();
                            let mut cross = 0.0;
                            for p_ in 0..per {
                                let gjp = g[(jj, p_)];
                                if gjp == 0.0 {
                                    continue;
                                }
                                // c_p = Σ_{u≠jj} X_D(ii, u) G(u, p).
                                let mut c_p = 0.0;
                                for u in 0..per {
                                    if u == jj {
                                        continue;
                                    }
                                    let gup = g[(u, p_)];
                                    if gup == 0.0 {
                                        continue;
                                    }
                                    let col = ii * per + u;
                                    c_p += Matrix::dot(lrow, rm.row(col)) * gup;
                                }
                                cross += c_p * gjp;
                            }
                            (w.continuity * norm_sq, -w.continuity * cross)
                        }
                    };
                    for a_idx in 0..r {
                        rhs[a_idx] += c4 * lrow[a_idx];
                        let row = a.row_mut(a_idx);
                        for b_idx in 0..r {
                            row[b_idx] += q4 * lrow[a_idx] * lrow[b_idx];
                        }
                    }
                }
            }
            if let Some(h) = &self.h {
                if w.similarity > 0.0 {
                    // Column ii of H is the coefficient of X_D(ii, jj) in
                    // H X_D (the dimension-correct reading of Algorithm 1
                    // line 19, whose printed index is a typo).
                    let norm_sq: f64 = (0..m).map(|p_| h[(p_, ii)] * h[(p_, ii)]).sum();
                    let c5 = match self.cfg.coupling {
                        CouplingMode::PaperLiteral => 0.0,
                        CouplingMode::Exact => {
                            let mut cross = 0.0;
                            for p_ in 0..m {
                                let hpi = h[(p_, ii)];
                                if hpi == 0.0 {
                                    continue;
                                }
                                // e_p = Σ_{k≠ii} H(p, k) X_D(k, jj).
                                let mut e_p = 0.0;
                                for k in 0..m {
                                    if k == ii {
                                        continue;
                                    }
                                    let hpk = h[(p_, k)];
                                    if hpk == 0.0 {
                                        continue;
                                    }
                                    let col = k * per + jj;
                                    e_p += Matrix::dot(l.row(k), rm.row(col)) * hpk;
                                }
                                cross += e_p * hpi;
                            }
                            -w.similarity * cross
                        }
                    };
                    let q5 = w.similarity * norm_sq;
                    for a_idx in 0..r {
                        rhs[a_idx] += c5 * lrow[a_idx];
                        let row = a.row_mut(a_idx);
                        for b_idx in 0..r {
                            row[b_idx] += q5 * lrow[a_idx] * lrow[b_idx];
                        }
                    }
                }
            }

            let theta = a.solve(&rhs)?;
            rm.set_row(j, &theta);
        }
        Ok(())
    }

    /// One sweep of per-row closed-form updates of `L`
    /// (the transposed `MyInverse` call of Algorithm 1 line 4).
    fn update_rows(&self, l: &mut Matrix, rm: &Matrix, w: &TermWeights) -> Result<()> {
        let (m, n) = self.inputs.x_b.shape();
        let r = self.rank;
        let per = self.inputs.per;
        let rtr = if w.reference > 0.0 {
            Some(rm.gram())
        } else {
            None
        };

        for i in 0..m {
            let mut a = Matrix::identity(r).scale(self.cfg.lambda);
            let mut rhs = vec![0.0_f64; r];

            // Data-fit.
            for j in 0..n {
                if self.inputs.b[(i, j)] == 0.0 {
                    continue;
                }
                let tj = rm.row(j);
                let y = self.inputs.x_b[(i, j)];
                for a_idx in 0..r {
                    rhs[a_idx] += w.fit * y * tj[a_idx];
                    let row = a.row_mut(a_idx);
                    for b_idx in 0..r {
                        row[b_idx] += w.fit * tj[a_idx] * tj[b_idx];
                    }
                }
            }

            // Constraint 1.
            if let (Some(rtr), Some(p)) = (&rtr, &self.inputs.p) {
                for a_idx in 0..r {
                    let row = a.row_mut(a_idx);
                    for b_idx in 0..r {
                        row[b_idx] += w.reference * rtr[(a_idx, b_idx)];
                    }
                }
                for j in 0..n {
                    let pij = p[(i, j)];
                    if pij == 0.0 {
                        continue;
                    }
                    let tj = rm.row(j);
                    for a_idx in 0..r {
                        rhs[a_idx] += w.reference * pij * tj[a_idx];
                    }
                }
            }

            // Constraint 2a (continuity): row i of X_D is wholly owned by
            // ℓ_i, so the term is a clean quadratic: Σ_p (ℓᵀ m_p)² with
            // m_p = Σ_u G(u, p) θ_{i*per+u}. No cross terms in any mode.
            if let Some(g) = &self.g {
                if w.continuity > 0.0 {
                    for p_ in 0..per {
                        let mut m_p = vec![0.0_f64; r];
                        for u in 0..per {
                            let gup = g[(u, p_)];
                            if gup == 0.0 {
                                continue;
                            }
                            let tj = rm.row(i * per + u);
                            for a_idx in 0..r {
                                m_p[a_idx] += gup * tj[a_idx];
                            }
                        }
                        for a_idx in 0..r {
                            let row = a.row_mut(a_idx);
                            for b_idx in 0..r {
                                row[b_idx] += w.continuity * m_p[a_idx] * m_p[b_idx];
                            }
                        }
                    }
                }
            }

            // Constraint 2b (similarity): ℓ_i appears in H X_D through
            // column i of H; cross terms couple to the other links' rows.
            if let Some(h) = &self.h {
                if w.similarity > 0.0 {
                    let norm_sq: f64 = (0..m).map(|p_| h[(p_, i)] * h[(p_, i)]).sum();
                    for u in 0..per {
                        let tj = rm.row(i * per + u);
                        for a_idx in 0..r {
                            let row = a.row_mut(a_idx);
                            for b_idx in 0..r {
                                row[b_idx] += w.similarity * norm_sq * tj[a_idx] * tj[b_idx];
                            }
                        }
                    }
                    if self.cfg.coupling == CouplingMode::Exact {
                        for u in 0..per {
                            let tj = rm.row(i * per + u);
                            // Σ_p H(p, i) e_{p,u},
                            // e_{p,u} = Σ_{k≠i} H(p, k) X_D(k, u).
                            let mut cross = 0.0;
                            for p_ in 0..m {
                                let hpi = h[(p_, i)];
                                if hpi == 0.0 {
                                    continue;
                                }
                                let mut e_pu = 0.0;
                                for k in 0..m {
                                    if k == i {
                                        continue;
                                    }
                                    let hpk = h[(p_, k)];
                                    if hpk == 0.0 {
                                        continue;
                                    }
                                    e_pu += hpk * Matrix::dot(l.row(k), rm.row(k * per + u));
                                }
                                cross += hpi * e_pu;
                            }
                            for a_idx in 0..r {
                                rhs[a_idx] -= w.similarity * cross * tj[a_idx];
                            }
                        }
                    }
                }
            }

            let ell = a.solve(&rhs)?;
            l.set_row(i, &ell);
        }
        Ok(())
    }
}
