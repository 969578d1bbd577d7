//! The generic ALS engine: alternating closed-form sweeps over an
//! ordered list of [`PenaltyTerm`]s.
//!
//! # Phase-split parallel sweeps
//!
//! A column update of `R` solves `A_j θ_j = c_j` per column (Eq. 24).
//! The key structural fact the engine exploits: **every quadratic
//! coefficient `A_j` depends only on the fixed factor** (`L` during
//! column sweeps), while only the Exact-coupling cross terms of
//! constraint 2 read the factor being updated. Each sweep therefore
//! runs in two phases:
//!
//! 1. **Assemble + factor (parallel)**: build and LU-factor one normal
//!    matrix per *column class*, and the fixed part of every `c_j`.
//!    `A_j` reads `L` only through the inputs each term's
//!    [`PenaltyTerm::column_key`] names — the column's known-row set,
//!    its link and one `G`/`H` coefficient — so columns with equal keys
//!    have bit-identical normal matrices (the trait's "equal key ⇒
//!    identical operation sequence" contract). [`AlsEngine::new`]
//!    partitions the columns into classes once per solver; the 32x1536
//!    Fresnel-zone mask has 96 classes for 1,536 columns. Row sweeps
//!    factor each of their `M` systems. Every quadratic contribution
//!    is one weighted Gram accumulation over a list of factor rows
//!    (`Matrix::add_weighted_gram`, one L1 kernel).
//! 2. **Cross + solve**: add the cross terms and back-substitute. With
//!    no active cross terms (paper-literal mode, or constraint 2 off)
//!    this phase is also parallel; in Exact mode it walks the systems
//!    in the original ascending Gauss–Seidel order, each update reading
//!    the partially-updated factor exactly like the sequential monolith
//!    did. The cross terms read it through the `X_D` table
//!    (`M x per`, `X_D(k, u) = ℓ_kᵀ θ_{k·per+u}`), built once per sweep
//!    only when a cross term is active and refreshed after every solve
//!    — one entry per column, `per` entries per row — with the same dot
//!    products of the same operands the terms used to recompute.
//!
//! Both phases preserve the historical per-element accumulation order,
//! and a shared class factor is bit-identical to the one each column
//! would have built, so the engine reproduces `solver::reference`
//! bit-for-bit — the golden parity tests assert ≤ 1e-9 end to end.
//!
//! # Warm start
//!
//! A warm-started solve begins from [`warm_factors`] of the warm start:
//! its rank-`r` SVD factors `(L₀, R₀)`. A raw
//! [`SolverInputs::warm_start`] is factored on every solve; an
//! [`crate::reconstruct::Updater`], whose warm start is always its
//! prior, factors it once and passes the cached pair to
//! [`AlsEngine::solve_from`].
//!
//! # When sweeps fan out
//!
//! Parallel phases run on the rayon shim's persistent worker pool.
//! A batch of `count` systems — the class factors or right-hand sides
//! of a column sweep, the systems of a row sweep — fans out when
//! `count * r²` reaches [`MIN_PARALLEL_WORK`] and the pool has more
//! than one thread; below that it runs serially. Row and column sweeps
//! share that one skeleton: factor every system through the same
//! dispatch, then solve. The pool width is cached at engine
//! construction ([`AlsEngine::new`]), so the serial/parallel decision
//! is stable for the life of a solver and costs no per-sweep
//! `current_num_threads()` query. Both paths produce bit-identical
//! results — the threshold gates cost only.

use std::collections::BTreeMap;

use iupdater_linalg::solve::Lu;
use iupdater_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::config::{ScalingMode, UpdaterConfig};
use crate::solver::terms::{
    ContinuityTerm, DataFitTerm, PenaltyTerm, ReferenceTerm, SimilarityTerm, SweepCache,
    TermContext,
};
use crate::solver::{SolveReport, SolverInputs, TermWeights};
use crate::Result;

/// Minimum sweep size, measured as `systems x r²` (the dominant
/// assembly cost), before a sweep fans out to the worker pool.
/// Dispatching to the persistent pool costs a few microseconds (a
/// mutex/condvar wake plus chunk bookkeeping — it was ~100 µs of
/// scoped-thread spawns before the pool existed, behind the historical
/// threshold of 16 384), so only genuinely tiny batches — where even
/// microseconds exceed the arithmetic — stay serial. At this threshold
/// the paper-size office (r = 8) fans out the right-hand sides of its
/// 96 columns (6144) while its 24 column classes (1536) and its 8-row
/// sweeps stay serial. Results are identical either way — see the
/// parity tests.
const MIN_PARALLEL_WORK: usize = 4_096;

/// The ALS engine: validated inputs plus derived relationship matrices.
#[derive(Debug)]
pub(crate) struct AlsEngine {
    pub(crate) inputs: SolverInputs,
    pub(crate) cfg: UpdaterConfig,
    pub(crate) g: Option<Matrix>,
    pub(crate) h: Option<Matrix>,
    pub(crate) rank: usize,
    /// Worker-pool width, cached at construction: sweeps consult it on
    /// every serial/parallel decision and must not pay (or observe) a
    /// per-sweep `rayon::current_num_threads()` query. Tests can pin
    /// it process-wide via `rayon::set_num_threads_for_tests` *before*
    /// building the solver, which is how single-CPU CI drives the
    /// parallel paths deterministically.
    threads: usize,
    /// Class of every column: columns of one class have bit-identical
    /// normal matrices in every column sweep.
    col_class: Vec<usize>,
    /// One representative column per class, classes numbered by first
    /// occurrence.
    class_reps: Vec<usize>,
}

impl AlsEngine {
    /// Binds validated inputs to the engine, caching the pool width and
    /// the column classes.
    pub(crate) fn new(
        inputs: SolverInputs,
        cfg: UpdaterConfig,
        g: Option<Matrix>,
        h: Option<Matrix>,
        rank: usize,
    ) -> Self {
        let mut engine = AlsEngine {
            inputs,
            cfg,
            g,
            h,
            rank,
            threads: rayon::current_num_threads(),
            col_class: Vec::new(),
            class_reps: Vec::new(),
        };
        (engine.col_class, engine.class_reps) = engine.column_classes();
        engine
    }

    /// Partitions the columns by the tuple of every term's
    /// [`PenaltyTerm::column_key`], numbering classes by first
    /// occurrence. Keys are taken over all four terms whatever their
    /// weights: a term that turns out inactive can only split a class,
    /// never merge two different systems.
    fn column_classes(&self) -> (Vec<usize>, Vec<usize>) {
        let ctx = self.ctx();
        let n = self.inputs.x_b.cols();
        // Keys never read the weights.
        let terms = self.build_terms(&TermWeights {
            fit: 1.0,
            reference: 1.0,
            continuity: 1.0,
            similarity: 1.0,
        });
        let mut classes: BTreeMap<Vec<Vec<u64>>, usize> = BTreeMap::new();
        let mut col_class = Vec::with_capacity(n);
        let mut reps = Vec::new();
        for j in 0..n {
            let key = terms.iter().map(|t| t.column_key(&ctx, j)).collect();
            let class = *classes.entry(key).or_insert(reps.len());
            if class == reps.len() {
                reps.push(j);
            }
            col_class.push(class);
        }
        (col_class, reps)
    }

    /// The number of distinct column systems factored per column sweep.
    pub(crate) fn column_systems(&self) -> usize {
        self.class_reps.len()
    }

    /// Whether a batch of `count` systems should run serially instead
    /// of on the worker pool.
    fn serial_sweep(&self, count: usize) -> bool {
        self.threads == 1 || count * self.rank * self.rank < MIN_PARALLEL_WORK
    }

    /// Maps `f` over `0..count` in index order, on the worker pool
    /// unless [`AlsEngine::serial_sweep`] says the batch is too small.
    fn sweep_map<T: Send>(&self, count: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        if self.serial_sweep(count) {
            (0..count).map(f).collect()
        } else {
            (0..count).into_par_iter().map(f).collect()
        }
    }

    fn ctx(&self) -> TermContext<'_> {
        TermContext {
            x_b: &self.inputs.x_b,
            b: &self.inputs.b,
            p: self.inputs.p.as_ref(),
            per: self.inputs.per,
            g: self.g.as_ref(),
            h: self.h.as_ref(),
        }
    }

    /// The standard four paper terms for the given effective weights, in
    /// the canonical assembly order (fit, reference, continuity,
    /// similarity — the order the objective lists them).
    fn build_terms(&self, w: &TermWeights) -> Vec<Box<dyn PenaltyTerm>> {
        vec![
            Box::new(DataFitTerm { weight: w.fit }),
            Box::new(ReferenceTerm {
                weight: w.reference,
            }),
            Box::new(ContinuityTerm {
                weight: w.continuity,
                coupling: self.cfg.coupling,
            }),
            Box::new(SimilarityTerm {
                weight: w.similarity,
                coupling: self.cfg.coupling,
            }),
        ]
    }

    /// Algorithm 1 line 1: random or warm-started factors.
    fn init_factors(&self) -> Result<(Matrix, Matrix)> {
        let (m, n) = self.inputs.x_b.shape();
        let r = self.rank;
        Ok(match &self.inputs.warm_start {
            Some(x0) => warm_factors(x0, r)?,
            None => {
                let mut rng = StdRng::seed_from_u64(self.cfg.seed);
                // Random L0; scale so L Rᵀ can reach dBm magnitudes fast.
                let scale = (self.inputs.x_b.max_abs().max(1.0) / r as f64).sqrt();
                let l = Matrix::from_fn(m, r, |_, _| (rng.gen::<f64>() * 2.0 - 1.0) * scale);
                let rm = Matrix::from_fn(n, r, |_, _| (rng.gen::<f64>() * 2.0 - 1.0) * scale);
                (l, rm)
            }
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

    /// The full objective (Eq. 18) at `(L, R)`: ridge plus every term,
    /// evaluated on a reusable `xhat` buffer.
    fn objective(
        &self,
        terms: &[Box<dyn PenaltyTerm>],
        l: &Matrix,
        rm: &Matrix,
        xhat: &mut Matrix,
    ) -> Result<f64> {
        l.matmul_bt_into(rm, xhat)?;
        let mut v = self.cfg.lambda * (l.frobenius_norm_sq() + rm.frobenius_norm_sq());
        let ctx = self.ctx();
        for term in terms {
            if term.active() {
                v += term.objective(&ctx, xhat)?;
            }
        }
        Ok(v)
    }

    /// One sweep of per-column closed-form updates of `R` (the
    /// `MyInverse(..., L̂, ...)` call of Algorithm 1 line 3).
    fn update_columns(
        &self,
        terms: &[Box<dyn PenaltyTerm>],
        l: &Matrix,
        rm: &mut Matrix,
    ) -> Result<()> {
        let n = self.inputs.x_b.cols();
        let r = self.rank;
        let lambda = self.cfg.lambda;
        let ctx = self.ctx();
        let sweep = SweepCache {
            gram: terms
                .iter()
                .any(|t| t.active() && t.wants_gram())
                .then(|| l.gram()),
        };
        let active: Vec<&Box<dyn PenaltyTerm>> = terms.iter().filter(|t| t.active()).collect();
        let cross_terms: Vec<&Box<dyn PenaltyTerm>> = active
            .iter()
            .copied()
            .filter(|t| t.has_column_cross())
            .collect();

        // Phase 1: one LU per column class, one fixed rhs per column.
        let lus = self
            .sweep_map(self.class_reps.len(), |class| {
                let mut a = Matrix::identity(r);
                a.scale_mut(lambda);
                for term in &active {
                    term.column_quadratic(&ctx, self.class_reps[class], l, &sweep, &mut a)?;
                }
                Ok(a.lu()?)
            })
            .into_iter()
            .collect::<Result<Vec<Lu>>>()?;
        let mut rhs = self.sweep_map(n, |j| {
            let mut c = vec![0.0_f64; r];
            for term in &active {
                term.column_linear(&ctx, j, l, &mut c);
            }
            c
        });
        let lu_of = |j: usize| &lus[self.col_class[j]];

        if cross_terms.is_empty() {
            // Fully independent columns: solve and write in parallel.
            let thetas = self.sweep_map(n, |j| lu_of(j).solve(&rhs[j]));
            for (j, theta) in thetas.iter().enumerate() {
                rm.set_row(j, theta);
            }
        } else {
            // Gauss–Seidel: original ascending order, reading the
            // partially updated factor through the X_D table, whose one
            // entry of the solved column is refreshed after each solve.
            let per = self.inputs.per;
            let mut xd = xd_table(l, rm, per);
            for (j, c) in rhs.iter_mut().enumerate() {
                for term in &cross_terms {
                    term.column_cross(&ctx, j, l, &xd, c);
                }
                rm.set_row(j, &lu_of(j).solve(c));
                xd[(j / per, j % per)] = Matrix::dot(l.row(j / per), rm.row(j));
            }
        }
        Ok(())
    }

    /// One sweep of per-row closed-form updates of `L` (the transposed
    /// `MyInverse` call of Algorithm 1 line 4).
    fn update_rows(
        &self,
        terms: &[Box<dyn PenaltyTerm>],
        l: &mut Matrix,
        rm: &Matrix,
    ) -> Result<()> {
        let m = self.inputs.x_b.rows();
        let r = self.rank;
        let lambda = self.cfg.lambda;
        let ctx = self.ctx();
        let sweep = SweepCache {
            gram: terms
                .iter()
                .any(|t| t.active() && t.wants_gram())
                .then(|| rm.gram()),
        };
        let active: Vec<&Box<dyn PenaltyTerm>> = terms.iter().filter(|t| t.active()).collect();
        let cross_terms: Vec<&Box<dyn PenaltyTerm>> = active
            .iter()
            .copied()
            .filter(|t| t.has_row_cross())
            .collect();

        // Phase 1: one LU and fixed rhs per row.
        let plans = self
            .sweep_map(m, |i| {
                let mut a = Matrix::identity(r);
                a.scale_mut(lambda);
                let mut rhs = vec![0.0_f64; r];
                for term in &active {
                    term.assemble_row(&ctx, i, rm, &sweep, &mut a, &mut rhs)?;
                }
                Ok((a.lu()?, rhs))
            })
            .into_iter()
            .collect::<Result<Vec<(Lu, Vec<f64>)>>>()?;

        if cross_terms.is_empty() {
            let rows = self.sweep_map(m, |i| plans[i].0.solve(&plans[i].1));
            for (i, ell) in rows.iter().enumerate() {
                l.set_row(i, ell);
            }
        } else {
            // Gauss–Seidel, as for the columns; a solved row refreshes
            // its `per` entries of the X_D table.
            let per = self.inputs.per;
            let mut xd = xd_table(l, rm, per);
            for (i, (lu, mut rhs)) in plans.into_iter().enumerate() {
                for term in &cross_terms {
                    term.row_cross(&ctx, i, rm, &xd, &mut rhs);
                }
                l.set_row(i, &lu.solve(&rhs));
                for (u, x) in xd.row_mut(i).iter_mut().enumerate() {
                    *x = Matrix::dot(l.row(i), rm.row(i * per + u));
                }
            }
        }
        Ok(())
    }

    /// Runs Algorithm 1 to convergence or the iteration budget.
    pub(crate) fn solve(&self) -> Result<SolveReport> {
        let (l, rm) = self.init_factors()?;
        self.solve_from(l, rm)
    }

    /// Runs Algorithm 1 from the initial factors `(L₀, R₀)`.
    pub(crate) fn solve_from(&self, mut l: Matrix, mut rm: Matrix) -> Result<SolveReport> {
        let (m, n) = self.inputs.x_b.shape();
        let weights = self.effective_weights(&l, &rm)?;
        let terms = self.build_terms(&weights);

        let mut xhat = Matrix::zeros(m, n);
        let mut trace = Vec::with_capacity(self.cfg.max_iter + 1);
        trace.push(self.objective(&terms, &l, &rm, &mut xhat)?);
        let mut iterations = 0;
        for _ in 0..self.cfg.max_iter {
            self.update_columns(&terms, &l, &mut rm)?;
            self.update_rows(&terms, &mut l, &rm)?;
            iterations += 1;
            let v = self.objective(&terms, &l, &rm, &mut xhat)?;
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
}

/// The rank-`r` warm-start factors of `x0`: `L₀ = U_r Σ_r^{1/2}` and
/// `R₀ = V_r Σ_r^{1/2}` from its SVD, so `L₀ R₀ᵀ` is the best rank-`r`
/// approximation of `x0`.
pub(crate) fn warm_factors(x0: &Matrix, r: usize) -> Result<(Matrix, Matrix)> {
    let (m, n) = x0.shape();
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
    Ok((l, rr))
}

/// The Gauss–Seidel `X_D` table at `(L, R)`: `M x per`, entry
/// `(k, u) = ℓ_kᵀ θ_{k·per+u}`, the same dot product the cross terms
/// would otherwise recompute per system.
fn xd_table(l: &Matrix, rm: &Matrix, per: usize) -> Matrix {
    Matrix::from_fn(l.rows(), per, |k, u| {
        Matrix::dot(l.row(k), rm.row(k * per + u))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CouplingMode;
    use crate::solver::validate;

    /// A no-decrease mask that varies *within* links: besides the cells
    /// near its own link, each column randomly also hides each of the
    /// two rows two links away, so two cells of one link can have different
    /// known-row sets.
    fn varying_mask(m: usize, per: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let hide: Vec<[bool; 2]> = (0..m * per)
            .map(|_| [rng.gen::<f64>() < 0.5, rng.gen::<f64>() < 0.5])
            .collect();
        Matrix::from_fn(m, m * per, |i, j| {
            let owner = j / per;
            if owner.abs_diff(i) <= 1
                || (hide[j][0] && i == (owner + 2) % m)
                || (hide[j][1] && i == (owner + m - 2) % m)
            {
                0.0
            } else {
                1.0
            }
        })
    }

    fn engine(b: Matrix, per: usize, coupling: CouplingMode) -> AlsEngine {
        let (m, n) = b.shape();
        let inputs = SolverInputs {
            x_b: Matrix::from_fn(m, n, |i, j| b[(i, j)] * -(60.0 + (i + j) as f64 * 0.1)),
            b,
            p: Some(Matrix::from_fn(m, n, |i, j| {
                -(61.0 + (i * j) as f64 * 0.01)
            })),
            per,
            warm_start: None,
        };
        let cfg = UpdaterConfig {
            rank: Some(4),
            coupling,
            ..UpdaterConfig::default()
        };
        let (g, h, rank) = validate(&inputs, &cfg).unwrap();
        AlsEngine::new(inputs, cfg, g, h, rank)
    }

    /// `λI` plus every term's quadratic for column `j`, from scratch.
    fn normal_matrix(
        e: &AlsEngine,
        terms: &[Box<dyn PenaltyTerm>],
        j: usize,
        l: &Matrix,
        sweep: &SweepCache,
    ) -> Vec<u64> {
        let mut a = Matrix::identity(e.rank);
        a.scale_mut(e.cfg.lambda);
        for term in terms {
            term.column_quadratic(&e.ctx(), j, l, sweep, &mut a)
                .unwrap();
        }
        a.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_column_matches_its_class_representative_bitwise() {
        let (m, per) = (6usize, 9usize);
        let mut rng = StdRng::seed_from_u64(71);
        let l = Matrix::from_fn(m, 4, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let weights = TermWeights {
            fit: 1.3,
            reference: 0.7,
            continuity: 0.45,
            similarity: 0.2,
        };
        for coupling in [CouplingMode::Exact, CouplingMode::PaperLiteral] {
            let e = engine(varying_mask(m, per, 72), per, coupling);
            let terms = e.build_terms(&weights);
            let sweep = SweepCache {
                gram: Some(l.gram()),
            };
            let reps: Vec<Vec<u64>> = e
                .class_reps
                .iter()
                .map(|&j| normal_matrix(&e, &terms, j, &l, &sweep))
                .collect();
            let n = m * per;
            let k = e.column_systems();
            assert!(k > m && k < n, "{coupling:?}: {k} classes is degenerate");
            for j in 0..n {
                assert_eq!(
                    normal_matrix(&e, &terms, j, &l, &sweep),
                    reps[e.col_class[j]],
                    "{coupling:?}: column {j} differs from its class representative"
                );
            }
            // The mask really varies within links: some same-link,
            // same-coefficient columns build different matrices, so a
            // key that ignored the known-row set would fail above.
            let split = (0..n).any(|j| {
                (0..n).any(|j2| {
                    j / per == j2 / per
                        && e.col_class[j] != e.col_class[j2]
                        && terms[2].column_key(&e.ctx(), j) == terms[2].column_key(&e.ctx(), j2)
                        && normal_matrix(&e, &terms, j, &l, &sweep)
                            != normal_matrix(&e, &terms, j2, &l, &sweep)
                })
            });
            assert!(split, "{coupling:?}: the mask never splits a link");
        }
    }

    #[test]
    fn classes_are_numbered_by_first_occurrence() {
        let per = 9;
        let e = engine(varying_mask(6, per, 73), per, CouplingMode::Exact);
        for (class, &rep) in e.class_reps.iter().enumerate() {
            assert_eq!(e.col_class[rep], class);
            assert!(e.col_class[..rep].iter().all(|&c| c < class));
        }
    }
}
