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
//!    matrix per *column class*, and the fixed part of every `c_j` in
//!    one product ("Right-hand sides" below).
//!    `A_j` reads `L` only through the inputs each term's
//!    [`PenaltyTerm::column_key`] names — the column's known-row set,
//!    its link and one `G`/`H` coefficient — so columns with equal keys
//!    have bit-identical normal matrices (the trait's "equal key ⇒
//!    identical operation sequence" contract). [`AlsEngine::new`]
//!    partitions the columns into classes once per solver; the 32x1536
//!    Fresnel-zone mask has 96 classes for 1,536 columns. Row sweeps
//!    factor each of their `M` systems, their data-fit quadratics built
//!    from shared prefixes (below). Every quadratic contribution
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
//! # Shared row prefixes
//!
//! A row's data-fit quadratic is one rank-1 update `θ_jθ_jᵀ` per known
//! column, in ascending order, and rows of a typical mask share long
//! prefixes of that order: on the 32x1536 storm layout, where row `i`
//! hides exactly link `i`'s 48 cells, a row sweep does 47,616 updates
//! of which only 25,296 are distinct prefix-tree nodes.
//! [`AlsEngine::new`] picks the *spine* row (the largest total longest
//! common prefix with the other rows, ties to the lowest index) and
//! caches every row's known list as a prefix depth on the spine's plus
//! its own suffix. A row sweep then folds `λI + w_fit Σ θ_jθ_jᵀ` along
//! the spine once, keeping a checkpoint at each distinct depth, and
//! every row clones its checkpoint, folds its own suffix and adds the
//! other terms in the canonical order. `Matrix::add_weighted_gram` seeds
//! every slab from its output, so a fold split at any position runs
//! the same operation sequence: the result is bit-identical to a
//! from-scratch fold per row.
//!
//! # Right-hand sides
//!
//! Only the data-fit and reference terms have an `R`-independent
//! linear part (`R`'s for row sweeps): column `j`'s is
//! `Σ_{i known} (w_fit·x_b(i, j))·ℓ_i`, then `Σ_i (w_ref·p(i, j))·ℓ_i`,
//! each in ascending `i`. The engine builds every system's of a sweep as
//! one product through `kernels::gather_matmul`: the coefficient of
//! position `t` is gathered as `w_fit·x_b` (zero where the mask is zero,
//! whatever `x_b` holds there) for the first block of positions and
//! `w_ref·p` for the second, and the factor row of position `t` is
//! fetched by index, so neither a coefficient matrix nor a stacked
//! `[L; L]` is ever stored. The historical per-system loop made one
//! `axpy` per coefficient and skipped zero ones; the product adds them.
//! With finite factors that is bit-identical: each accumulator starts at
//! `+0.0`, so it can never hold `-0.0`, and adding a `±0.0` product
//! leaves its bits unchanged. The output's rows fan out across the pool
//! in contiguous chunks; each row is computed the same way in any chunk.
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
//! A batch of `count` systems — the class factors or solves of a column
//! sweep, the systems of a row sweep — fans out when `count * r²`
//! reaches [`MIN_PARALLEL_WORK`] and the pool has more than one thread;
//! below that it runs serially. A right-hand-side product fans out when
//! its coefficient count does. Row and column sweeps
//! share that one skeleton: factor every system through the same
//! dispatch, then solve. The pool width is cached at engine
//! construction ([`AlsEngine::new`]), so the serial/parallel decision
//! is stable for the life of a solver and costs no per-sweep
//! `current_num_threads()` query. Both paths produce bit-identical
//! results — the threshold gates cost only.

use std::collections::BTreeMap;

use iupdater_linalg::kernels::gather_matmul;
use iupdater_linalg::solve::Lu;
use iupdater_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::config::{ScalingMode, UpdaterConfig};
use crate::solver::terms::{
    ContinuityTerm, DataFitTerm, Nonzeros, PenaltyTerm, ReferenceTerm, SimilarityTerm, SweepCache,
    TermContext,
};
use crate::solver::{SolveReport, SolverInputs, TermWeights};
use crate::Result;

/// Minimum sweep size, measured as `systems x r²` (the dominant
/// assembly cost), before a sweep fans out to the worker pool. A
/// sweep's right-hand-side product is measured as its coefficient
/// count, `systems x positions`.
/// Dispatching to the persistent pool costs a few microseconds (a
/// mutex/condvar wake plus chunk bookkeeping — it was ~100 µs of
/// scoped-thread spawns before the pool existed, behind the historical
/// threshold of 16 384), so only genuinely tiny batches — where even
/// microseconds exceed the arithmetic — stay serial. At this threshold
/// the paper-size office (r = 8) keeps its 24 column classes (1536),
/// its 8-row sweeps (512) and both right-hand-side products (1536
/// coefficients each) serial, while the 32x1536 storm site fans out
/// every phase. Results are identical either way — see the parity
/// tests.
const MIN_PARALLEL_WORK: usize = 4_096;

/// The ALS engine: validated inputs plus derived relationship matrices.
#[derive(Debug)]
pub(crate) struct AlsEngine {
    pub(crate) inputs: SolverInputs,
    pub(crate) cfg: UpdaterConfig,
    pub(crate) g: Option<Matrix>,
    pub(crate) h: Option<Matrix>,
    /// The nonzero lists of `G` and `H`, for the cross terms.
    g_nz: Option<Nonzeros>,
    h_nz: Option<Nonzeros>,
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
    /// Every row's known-column list, split into the spine's shared
    /// prefix and the row's own suffix.
    rows: RowPrefixes,
}

/// The shared-prefix plan of the data-fit row Gram (see the module
/// docs). Row `i`'s known-column list, ascending — the data-fit row
/// quadratic folds one rank-1 update per entry, in this order — is
/// `spine[..depths[depth[i]]]` followed by `suffix[i]`.
#[derive(Debug, Default)]
struct RowPrefixes {
    /// The spine row's known-column list: the row whose list shares the
    /// most prefix with the others' in total (ties to the lowest index).
    spine: Vec<usize>,
    /// The distinct depths, ascending, at which some row's list leaves
    /// the spine's: the checkpoints of the spine fold.
    depths: Vec<usize>,
    /// Per row, the index into `depths` of its longest common prefix
    /// with the spine.
    depth: Vec<usize>,
    /// Per row, its known columns past that prefix.
    suffix: Vec<Vec<usize>>,
}

impl RowPrefixes {
    /// Plans the fold for mask `b`: each row's known list, the spine,
    /// and each row's prefix depth with the spine.
    fn new(b: &Matrix) -> Self {
        let known: Vec<Vec<usize>> = (0..b.rows())
            .map(|i| (0..b.cols()).filter(|&j| b[(i, j)] != 0.0).collect())
            .collect();
        let lcp = |i: usize, k: usize| {
            known[i]
                .iter()
                .zip(&known[k])
                .take_while(|(a, b)| a == b)
                .count()
        };
        let m = known.len();
        let mut shared = vec![0_usize; m];
        for i in 0..m {
            for k in i + 1..m {
                let d = lcp(i, k);
                shared[i] += d;
                shared[k] += d;
            }
        }
        // `max_by_key` keeps the last maximum; scanning in reverse
        // makes that the lowest index.
        let Some(spine) = (0..m).rev().max_by_key(|&i| shared[i]) else {
            return RowPrefixes::default();
        };
        let row_lcp: Vec<usize> = (0..m).map(|i| lcp(spine, i)).collect();
        let mut depths = row_lcp.clone();
        depths.sort_unstable();
        depths.dedup();
        RowPrefixes {
            depth: row_lcp
                .iter()
                .map(|d| depths.partition_point(|x| x < d))
                .collect(),
            suffix: known
                .iter()
                .zip(&row_lcp)
                .map(|(list, &d)| list[d..].to_vec())
                .collect(),
            spine: known[spine].clone(),
            depths,
        }
    }
}

impl AlsEngine {
    /// Binds validated inputs to the engine, caching the pool width, the
    /// column classes, the row prefix plan and the nonzero lists of `G`
    /// and `H`.
    pub(crate) fn new(
        inputs: SolverInputs,
        cfg: UpdaterConfig,
        g: Option<Matrix>,
        h: Option<Matrix>,
        rank: usize,
    ) -> Self {
        let rows = RowPrefixes::new(&inputs.b);
        let mut engine = AlsEngine {
            inputs,
            cfg,
            g_nz: g.as_ref().map(Nonzeros::new),
            h_nz: h.as_ref().map(Nonzeros::new),
            g,
            h,
            rank,
            threads: rayon::current_num_threads(),
            col_class: Vec::new(),
            class_reps: Vec::new(),
            rows,
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

    /// Stage 1 of the data-fit row Gram: `λI + w_fit Σ θ_jθ_jᵀ` folded
    /// along the spine's known list once, one checkpoint per prefix
    /// depth. With the data-fit term inactive every checkpoint is `λI`.
    fn fit_checkpoints(&self, fit: f64, rm: &Matrix) -> Result<Vec<Matrix>> {
        let mut a = Matrix::identity(self.rank);
        a.scale_mut(self.cfg.lambda);
        let mut done = 0;
        let mut checkpoints = Vec::with_capacity(self.rows.depths.len());
        for &d in &self.rows.depths {
            if fit > 0.0 {
                a.add_weighted_gram(fit, rm, &self.rows.spine[done..d])?;
            }
            done = d;
            checkpoints.push(a.clone());
        }
        Ok(checkpoints)
    }

    /// Stage 2: row `i`'s `λI + w_fit Σ_{j known} θ_jθ_jᵀ`, its
    /// checkpoint plus its own suffix. `add_weighted_gram` seeds every
    /// slab from its output, so a fold split at any position runs the
    /// same operation sequence: this equals one from-scratch call over
    /// the whole known list, bit for bit.
    fn fit_row_normal(
        &self,
        checkpoints: &[Matrix],
        fit: f64,
        i: usize,
        rm: &Matrix,
    ) -> Result<Matrix> {
        let mut a = checkpoints[self.rows.depth[i]].clone();
        if fit > 0.0 {
            a.add_weighted_gram(fit, rm, &self.rows.suffix[i])?;
        }
        Ok(a)
    }

    /// The number of distinct column systems factored per column sweep.
    pub(crate) fn column_systems(&self) -> usize {
        self.class_reps.len()
    }

    /// Whether a batch of `count` systems should run serially instead
    /// of on the worker pool.
    fn serial_sweep(&self, count: usize) -> bool {
        self.serial(count * self.rank * self.rank)
    }

    /// Whether `work` (in [`MIN_PARALLEL_WORK`]'s units) is too little
    /// to fan out, or the pool has one thread.
    fn serial(&self, work: usize) -> bool {
        self.threads == 1 || work < MIN_PARALLEL_WORK
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
            g_nz: self.g_nz.as_ref(),
            h_nz: self.h_nz.as_ref(),
        }
    }

    /// Every `R`-independent right-hand side of one sweep (see "Right-hand
    /// sides" in the module docs): row `s` of the result (`systems x r`)
    /// is system `s`'s, the products of the gathered data-fit and
    /// reference coefficients with the rows of the fixed `factor`. A
    /// column sweep (`columns`, `factor = L`) reads the targets at
    /// `(t, s)`, a row sweep (`factor = R`) at `(s, t)`. An inactive
    /// term contributes no block of positions.
    fn linear_rhs(&self, w: &TermWeights, factor: &Matrix, columns: bool) -> Matrix {
        let (m, n) = self.inputs.x_b.shape();
        let positions = factor.rows();
        let (systems, s_stride, t_stride) = if columns { (n, 1, n) } else { (m, n, 1) };
        let (b, x_b) = (self.inputs.b.as_slice(), self.inputs.x_b.as_slice());
        let fit_len = if w.fit > 0.0 { positions } else { 0 };
        let (p, ref_len) = match &self.inputs.p {
            Some(p) if w.reference > 0.0 => (p.as_slice(), positions),
            _ => (&[][..], 0),
        };
        // Positions `from..from + file.len()` of system `s`: the
        // data-fit block's share, then the reference block's.
        let coefficients = |s: usize, from: usize, file: &mut [f64]| {
            let (fit, reference) = file.split_at_mut(fit_len.saturating_sub(from).min(file.len()));
            let at = |t: usize| s * s_stride + t * t_stride;
            let known = b.iter().zip(x_b).skip(at(from)).step_by(t_stride);
            for (c, (&bv, &xv)) in fit.iter_mut().zip(known) {
                *c = if bv != 0.0 { w.fit * xv } else { 0.0 };
            }
            let first = (from + fit.len()).saturating_sub(fit_len);
            for (c, &pv) in reference
                .iter_mut()
                .zip(p.iter().skip(at(first)).step_by(t_stride))
            {
                *c = w.reference * pv;
            }
        };
        let factor_row = |t: usize| factor.row(if t < fit_len { t } else { t - fit_len });
        let r = self.rank;
        let mut out = Matrix::zeros(systems, r);
        let product = |first: usize, chunk: &mut [f64]| {
            gather_matmul(
                &|s, from, file: &mut [f64]| coefficients(first + s, from, file),
                &factor_row,
                fit_len + ref_len,
                chunk,
                r,
            );
        };
        // One coefficient is one `r`-long axpy of the per-system loop,
        // about what one `r²` unit of assembly costs at the ranks served.
        if self.serial(systems * (fit_len + ref_len)) {
            product(0, out.as_mut_slice());
        } else {
            let rows_per_chunk = systems.div_ceil(self.threads);
            out.as_mut_slice()
                .par_chunks_mut(rows_per_chunk * r)
                .enumerate()
                .for_each(|(c, chunk)| product(c * rows_per_chunk, chunk));
        }
        out
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
        weights: &TermWeights,
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

        // Phase 1: one LU per column class, and every column's fixed rhs
        // from one product.
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
        let mut rhs = self.linear_rhs(weights, l, true);
        let lu_of = |j: usize| &lus[self.col_class[j]];

        if cross_terms.is_empty() {
            // Fully independent columns: solve and write in parallel.
            let thetas = self.sweep_map(n, |j| lu_of(j).solve(rhs.row(j)));
            for (j, theta) in thetas.iter().enumerate() {
                rm.set_row(j, theta);
            }
        } else {
            // Gauss–Seidel: original ascending order, reading the
            // partially updated factor through the X_D table, whose one
            // entry of the solved column is refreshed after each solve.
            let per = self.inputs.per;
            let mut xd = xd_table(l, rm, per);
            for j in 0..n {
                let c = rhs.row_mut(j);
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
        weights: &TermWeights,
        l: &mut Matrix,
        rm: &Matrix,
    ) -> Result<()> {
        let m = self.inputs.x_b.rows();
        let fit = weights.fit;
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

        // Phase 1: one LU per row, and every row's fixed rhs from one
        // product. The data-fit quadratic comes first, from the shared
        // spine checkpoints.
        let checkpoints = self.fit_checkpoints(fit, rm)?;
        let lus = self
            .sweep_map(m, |i| {
                let mut a = self.fit_row_normal(&checkpoints, fit, i, rm)?;
                for term in &active {
                    term.row_quadratic(&ctx, i, rm, &sweep, &mut a)?;
                }
                Ok(a.lu()?)
            })
            .into_iter()
            .collect::<Result<Vec<Lu>>>()?;
        let mut rhs = self.linear_rhs(weights, rm, false);

        if cross_terms.is_empty() {
            let rows = self.sweep_map(m, |i| lus[i].solve(rhs.row(i)));
            for (i, ell) in rows.iter().enumerate() {
                l.set_row(i, ell);
            }
        } else {
            // Gauss–Seidel, as for the columns; a solved row refreshes
            // its `per` entries of the X_D table.
            let per = self.inputs.per;
            let mut xd = xd_table(l, rm, per);
            for (i, lu) in lus.iter().enumerate() {
                let c = rhs.row_mut(i);
                for term in &cross_terms {
                    term.row_cross(&ctx, i, rm, &xd, c);
                }
                l.set_row(i, &lu.solve(c));
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
            self.update_columns(&terms, &weights, &l, &mut rm)?;
            self.update_rows(&terms, &weights, &mut l, &rm)?;
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
    use iupdater_linalg::axpy_slice;

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

    /// The storm layout: row `i` hides exactly link `i`'s own cells,
    /// so row lists share prefixes of `per · min(i, k)` entries.
    fn own_link_mask(m: usize, per: usize) -> Matrix {
        Matrix::from_fn(m, m * per, |i, j| if j / per == i { 0.0 } else { 1.0 })
    }

    #[test]
    fn shared_prefix_row_normals_match_per_row_folds_bitwise() {
        let per = 9;
        let base = own_link_mask(6, per);
        let n = base.cols();
        let mut full_row = base.clone();
        full_row.set_row(2, &vec![1.0; n]);
        let mut empty_row = base.clone();
        empty_row.set_row(3, &vec![0.0; n]);
        let mut duplicates = varying_mask(6, per, 75);
        let row1 = duplicates.row(1).to_vec();
        duplicates.set_row(4, &row1);
        let mut rng = StdRng::seed_from_u64(76);
        let single = Matrix::from_fn(1, per, |_, _| f64::from(rng.gen::<f64>() < 0.7));
        let masks = [
            ("own-link", base),
            ("varying", varying_mask(6, per, 74)),
            ("full row", full_row),
            ("empty row", empty_row),
            ("duplicate rows", duplicates),
            ("m = 1", single),
        ];
        let bits = |a: &Matrix| -> Vec<u64> { a.as_slice().iter().map(|v| v.to_bits()).collect() };
        for (name, b) in masks {
            let e = engine(b.clone(), per, CouplingMode::Exact);
            let (m, n) = b.shape();
            let rm = Matrix::from_fn(n, e.rank, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
            for fit in [1.3, 0.0] {
                let checkpoints = e.fit_checkpoints(fit, &rm).unwrap();
                for i in 0..m {
                    let known: Vec<usize> = (0..n).filter(|&j| b[(i, j)] != 0.0).collect();
                    let mut want = Matrix::identity(e.rank);
                    want.scale_mut(e.cfg.lambda);
                    if fit > 0.0 {
                        want.add_weighted_gram(fit, &rm, &known).unwrap();
                    }
                    let got = e.fit_row_normal(&checkpoints, fit, i, &rm).unwrap();
                    assert_eq!(bits(&got), bits(&want), "{name}, fit {fit}: row {i}");
                }
            }
        }
    }

    #[test]
    fn spine_shares_the_longest_prefixes_lowest_index_first() {
        let per = 9;
        let b = own_link_mask(6, per);
        let e = engine(b.clone(), per, CouplingMode::Exact);
        // Rows 4 and 5 tie on total shared prefix; the lower wins.
        let row4: Vec<usize> = (0..b.cols()).filter(|&j| b[(4, j)] != 0.0).collect();
        assert_eq!(e.rows.spine, row4);
        assert_eq!(e.rows.depths, [0, 9, 18, 27, 36, 45]);
        assert_eq!(e.rows.depth, [0, 1, 2, 3, 5, 4]);
        assert!(e.rows.suffix[4].is_empty());
        assert_eq!(e.rows.suffix[5], (36..45).collect::<Vec<_>>());
    }

    /// Rank-1 updates one row sweep folds on the storm layout: 32 rows
    /// of 1,488 known cells, of which 25,296 are distinct prefix-tree
    /// nodes.
    #[test]
    fn storm_mask_folds_each_prefix_once() {
        let (m, per) = (32, 48);
        let e = engine(own_link_mask(m, per), per, CouplingMode::Exact);
        let rows = &e.rows;
        let total: usize = (0..m)
            .map(|i| rows.depths[rows.depth[i]] + rows.suffix[i].len())
            .sum();
        let folded = rows.spine.len() + rows.suffix.iter().map(Vec::len).sum::<usize>();
        assert_eq!(total, 47_616);
        assert_eq!(folded, 25_296);
    }

    /// System `s`'s right-hand side as the per-system loop built it: one
    /// `axpy_slice` per nonzero coefficient, the data fit's over the
    /// known positions first, then the reference's.
    fn axpy_chain(
        e: &AlsEngine,
        w: &TermWeights,
        factor: &Matrix,
        s: usize,
        columns: bool,
    ) -> Vec<f64> {
        let at = |a: &Matrix, t: usize| if columns { a[(t, s)] } else { a[(s, t)] };
        let mut c = vec![0.0; e.rank];
        for t in (0..factor.rows()).filter(|_| w.fit > 0.0) {
            if at(&e.inputs.b, t) != 0.0 {
                axpy_slice(w.fit * at(&e.inputs.x_b, t), factor.row(t), &mut c);
            }
        }
        if let Some(p) = e.inputs.p.as_ref().filter(|_| w.reference > 0.0) {
            for t in 0..factor.rows() {
                if at(p, t) != 0.0 {
                    axpy_slice(w.reference * at(p, t), factor.row(t), &mut c);
                }
            }
        }
        c
    }

    #[test]
    fn sweep_rhs_product_matches_per_system_axpy_chains_bitwise() {
        // Both products fan out (at least MIN_PARALLEL_WORK
        // coefficients): 320 columns of 16 positions, and 8 rows of 640
        // positions, which walk 40 slabs.
        let (m, per) = (8usize, 40usize);
        let mut e = engine(varying_mask(m, per, 78), per, CouplingMode::Exact);
        let n = m * per;
        // `x_b` holds values where the mask hides the cell, and the
        // reference target has exact zeros: neither may reach the sum.
        let (b, x_b) = (e.inputs.b.clone(), e.inputs.x_b.clone());
        e.inputs.x_b = Matrix::from_fn(m, n, |i, j| {
            if b[(i, j)] == 0.0 {
                37.5 + (i * j) as f64
            } else {
                x_b[(i, j)]
            }
        });
        let p = e.inputs.p.take().unwrap();
        let p = Matrix::from_fn(m, n, |i, j| if (i + j) % 5 == 0 { 0.0 } else { p[(i, j)] });
        let mut rng = StdRng::seed_from_u64(79);
        let l = Matrix::from_fn(m, e.rank, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let rm = Matrix::from_fn(n, e.rank, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        for (fit, reference, with_p) in [
            (1.3, 0.7, true),
            (0.0, 0.7, true),  // fit weight 0
            (1.3, 0.0, true),  // zero-weight reference
            (1.3, 0.7, false), // no reference target
            (0.0, 0.0, true),  // nothing: a zero right-hand side
        ] {
            e.inputs.p = with_p.then(|| p.clone());
            let w = TermWeights {
                fit,
                reference,
                continuity: 0.45,
                similarity: 0.2,
            };
            for threads in [1, 3] {
                e.threads = threads;
                let case =
                    format!("fit {fit}, reference {reference} (P: {with_p}), {threads} threads");
                let cols = e.linear_rhs(&w, &l, true);
                for j in 0..n {
                    let want = axpy_chain(&e, &w, &l, j, true);
                    assert_eq!(bits(cols.row(j)), bits(&want), "{case}: column {j}");
                }
                let rows = e.linear_rhs(&w, &rm, false);
                for i in 0..m {
                    let want = axpy_chain(&e, &w, &rm, i, false);
                    assert_eq!(bits(rows.row(i)), bits(&want), "{case}: row {i}");
                }
            }
        }
    }

    #[test]
    fn nonzero_lists_follow_the_dense_scan_order() {
        let g = Matrix::from_fn(5, 4, |i, j| match (i + 2 * j) % 4 {
            0 => 0.0,
            1 => -0.0,
            2 => -1.0 - i as f64,
            _ => 0.5 + j as f64,
        });
        let nz = Nonzeros::new(&g);
        for i in 0..5 {
            let want: Vec<(usize, f64)> = (0..4)
                .filter(|&j| g[(i, j)] != 0.0)
                .map(|j| (j, g[(i, j)]))
                .collect();
            assert_eq!(nz.rows[i], want, "row {i}");
        }
        for j in 0..4 {
            let want: Vec<(usize, f64)> = (0..5)
                .filter(|&i| g[(i, j)] != 0.0)
                .map(|i| (i, g[(i, j)]))
                .collect();
            assert_eq!(nz.cols[j], want, "column {j}");
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
