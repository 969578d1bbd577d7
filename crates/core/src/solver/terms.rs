//! Pluggable penalty terms of the self-augmented objective (Eq. 18).
//!
//! Each additive term of the objective is a [`PenaltyTerm`]: it knows
//! how to evaluate itself and how to contribute to the per-column /
//! per-row normal equations the ALS engine solves (`MyInverse` in
//! Algorithm 1). The engine composes an ordered list of terms, so the
//! paper's constraints are configuration, not control flow:
//!
//! - [`DataFitTerm`] — `w_fit ‖B ∘ (L Rᵀ) − X_B‖²` (Eq. 8),
//! - [`ReferenceTerm`] — `w_ref ‖L Rᵀ − X_R Z‖²` (constraint 1),
//! - [`ContinuityTerm`] — `w_g ‖X_D G‖²` (constraint 2a),
//! - [`SimilarityTerm`] — `w_h ‖H X_D‖²` (constraint 2b).
//!
//! A term's contribution to a column update of `R` splits three ways:
//!
//! - the **quadratic** part ([`PenaltyTerm::column_quadratic`]) adds to
//!   the normal matrix `A_j` and reads only the fixed factor `L`;
//! - the **linear** part ([`PenaltyTerm::column_linear`]) adds the
//!   `R`-independent right-hand side `c_j`;
//! - for [`CouplingMode::Exact`], a linear **cross** part reads the
//!   current `R` ([`PenaltyTerm::column_cross`]) through the engine's
//!   `X_D` table.
//!
//! The engine exploits the split twice. The quadratic part of a column
//! reads `L` only through the few inputs its [`PenaltyTerm::column_key`]
//! names (the column's known-row set, its link, one `G`/`H`
//! coefficient), so columns whose keys agree share one normal matrix,
//! which the engine assembles and factors once per sweep. And the
//! `R`-independent systems are factored in parallel, while the
//! Gauss–Seidel cross terms run in the original sequential order — so
//! parallel solves are bit-identical to the historical monolith (see
//! `solver::reference`).
//!
//! Every quadratic contribution is one weighted Gram accumulation over
//! a list of factor rows ([`Matrix::add_weighted_gram`]), so all
//! normal-matrix assembly runs on one L1 kernel. The one quadratic no
//! term adds itself is the data-fit row quadratic: rows share long
//! prefixes of their known-column lists, so the engine folds it once
//! per shared prefix and hands each row's normal matrix to the terms
//! with it already added; [`DataFitTerm`]'s `assemble_row` adds only
//! the right-hand side.

use iupdater_linalg::{axpy_slice, Matrix};

use crate::config::CouplingMode;
use crate::Result;

/// Borrowed problem data shared by every term.
#[derive(Debug, Clone, Copy)]
pub struct TermContext<'a> {
    /// Known no-decrease values (zeros elsewhere), Eq. (8)'s `X_B`.
    pub x_b: &'a Matrix,
    /// Binary mask: 1 = known cell.
    pub b: &'a Matrix,
    /// Constraint-1 target `P = X_R Z` (when constraint 1 is active).
    pub p: Option<&'a Matrix>,
    /// Locations per link `N/M`.
    pub per: usize,
    /// Continuity relationship matrix `G` (when constraint 2 is active).
    pub g: Option<&'a Matrix>,
    /// Similarity relationship matrix `H` (when constraint 2 is active).
    pub h: Option<&'a Matrix>,
}

/// Per-sweep shared precomputation (currently the Gram matrix `FᵀF` of
/// the fixed factor, requested via [`PenaltyTerm::wants_gram`]). It is
/// read-only while the sweep's systems are assembled in parallel. The
/// Gauss–Seidel `X_D` table is deliberately not part of it: the engine
/// refreshes that table after every solved system and hands it to the
/// `*_cross` hooks directly.
#[derive(Debug, Default)]
pub struct SweepCache {
    /// `LᵀL` during column sweeps, `RᵀR` during row sweeps.
    pub gram: Option<Matrix>,
}

/// One additive penalty of the solver objective.
///
/// Implementations must keep four contracts:
///
/// 1. `column_quadratic`, `column_linear` and `assemble_row` may depend
///    on the *fixed* factor of the sweep only (`L` for columns, `R` for
///    rows) — never on the factor being updated. Everything that reads
///    the updated factor goes into the `*_cross` hook, reads it only
///    through the engine's `X_D` table (`M x per`,
///    `X_D(k, u) = ℓ_kᵀ θ_{k·per+u}` at the current Gauss–Seidel
///    point), and must be flagged by `has_*_cross`.
/// 2. **Equal key ⇒ identical operation sequence.** If two columns have
///    equal [`PenaltyTerm::column_key`]s, `column_quadratic` performs
///    the same floating-point operations, in the same order, on the
///    same operands for both (given the same `L`, sweep cache and
///    weight), so their contributions to `a` are bit-identical. The
///    engine factors one normal matrix per class of equal keys on this
///    certificate alone.
/// 3. Contributions add into `a` / `rhs`; they never overwrite.
/// 4. Implementations are `Send + Sync` so sweeps can fan out.
pub trait PenaltyTerm: Send + Sync {
    /// Short identifier used in diagnostics.
    fn name(&self) -> &'static str;

    /// Effective (post-scaling) weight of the term.
    fn weight(&self) -> f64;

    /// Whether the term contributes at all.
    fn active(&self) -> bool {
        self.weight() > 0.0
    }

    /// Whether the engine should provide [`SweepCache::gram`].
    fn wants_gram(&self) -> bool {
        false
    }

    /// The term's value at `(L, R)`; `xhat` is the precomputed `L Rᵀ`.
    fn objective(&self, ctx: &TermContext<'_>, xhat: &Matrix) -> Result<f64>;

    /// Names exactly the inputs, besides `L`, the sweep cache and the
    /// weight, that [`PenaltyTerm::column_quadratic`] reads for column
    /// `j`: equal keys must mean a bit-identical contribution (contract
    /// 2 above).
    fn column_key(&self, ctx: &TermContext<'_>, j: usize) -> Vec<u64>;

    /// Adds the term's contribution to the normal matrix `a` (`r x r`)
    /// of column `j`: fixed factor only, no right-hand side.
    fn column_quadratic(
        &self,
        ctx: &TermContext<'_>,
        j: usize,
        l: &Matrix,
        sweep: &SweepCache,
        a: &mut Matrix,
    ) -> Result<()>;

    /// Adds the `R`-independent part of the right-hand side (length `r`)
    /// of column `j`'s normal equations.
    fn column_linear(&self, _ctx: &TermContext<'_>, _j: usize, _l: &Matrix, _rhs: &mut [f64]) {}

    /// Whether [`PenaltyTerm::column_cross`] contributes.
    fn has_column_cross(&self) -> bool {
        false
    }

    /// Adds the `R`-dependent linear cross contribution for column `j`
    /// (Gauss–Seidel: reads the current, partially updated `R` through
    /// the `X_D` table `xd`).
    fn column_cross(
        &self,
        _ctx: &TermContext<'_>,
        _j: usize,
        _l: &Matrix,
        _xd: &Matrix,
        _rhs: &mut [f64],
    ) {
    }

    /// Adds the `L`-independent part of the term's contribution to the
    /// normal equations of row `i`.
    fn assemble_row(
        &self,
        ctx: &TermContext<'_>,
        i: usize,
        rm: &Matrix,
        sweep: &SweepCache,
        a: &mut Matrix,
        rhs: &mut [f64],
    ) -> Result<()>;

    /// Whether [`PenaltyTerm::row_cross`] contributes.
    fn has_row_cross(&self) -> bool {
        false
    }

    /// Adds the `L`-dependent linear cross contribution for row `i`
    /// (Gauss–Seidel: reads the current, partially updated `L` through
    /// the `X_D` table `xd`).
    fn row_cross(
        &self,
        _ctx: &TermContext<'_>,
        _i: usize,
        _rm: &Matrix,
        _xd: &Matrix,
        _rhs: &mut [f64],
    ) {
    }
}

/// The masked data-fit term `w ‖B ∘ (L Rᵀ) − X_B‖²` (Q2/C2).
#[derive(Debug, Clone, Copy)]
pub struct DataFitTerm {
    /// Effective weight.
    pub weight: f64,
}

impl PenaltyTerm for DataFitTerm {
    fn name(&self) -> &'static str {
        "data-fit"
    }

    fn weight(&self) -> f64 {
        self.weight
    }

    fn objective(&self, ctx: &TermContext<'_>, xhat: &Matrix) -> Result<f64> {
        // Row-major elementwise pass: same accumulation order as
        // `hadamard` + `checked_sub` + `frobenius_norm_sq`, no allocs.
        let mut sum = 0.0;
        for ((&bv, &xv), &tv) in ctx
            .b
            .as_slice()
            .iter()
            .zip(xhat.as_slice())
            .zip(ctx.x_b.as_slice())
        {
            let d = bv * xv - tv;
            sum += d * d;
        }
        Ok(self.weight * sum)
    }

    fn column_key(&self, ctx: &TermContext<'_>, j: usize) -> Vec<u64> {
        // The known-row set: the quadratic adds one outer product per
        // known row, in ascending row order.
        (0..ctx.b.rows())
            .filter(|&i| ctx.b[(i, j)] != 0.0)
            .map(|i| i as u64)
            .collect()
    }

    fn column_quadratic(
        &self,
        ctx: &TermContext<'_>,
        j: usize,
        l: &Matrix,
        _sweep: &SweepCache,
        a: &mut Matrix,
    ) -> Result<()> {
        let known: Vec<usize> = (0..ctx.b.rows())
            .filter(|&i| ctx.b[(i, j)] != 0.0)
            .collect();
        a.add_weighted_gram(self.weight, l, &known)?;
        Ok(())
    }

    fn column_linear(&self, ctx: &TermContext<'_>, j: usize, l: &Matrix, rhs: &mut [f64]) {
        for i in 0..ctx.b.rows() {
            if ctx.b[(i, j)] != 0.0 {
                axpy_slice(self.weight * ctx.x_b[(i, j)], l.row(i), rhs);
            }
        }
    }

    /// The right-hand side only: the engine assembles the row
    /// quadratic `w Σ_{j known} θ_jθ_jᵀ` itself, from prefixes shared
    /// across rows, before any term's `assemble_row`.
    fn assemble_row(
        &self,
        ctx: &TermContext<'_>,
        i: usize,
        rm: &Matrix,
        _sweep: &SweepCache,
        _a: &mut Matrix,
        rhs: &mut [f64],
    ) -> Result<()> {
        for j in 0..ctx.b.cols() {
            if ctx.b[(i, j)] != 0.0 {
                axpy_slice(self.weight * ctx.x_b[(i, j)], rm.row(j), rhs);
            }
        }
        Ok(())
    }
}

/// Constraint 1: `w ‖L Rᵀ − P‖²` with `P = X_R Z` (Q3/C3).
#[derive(Debug, Clone, Copy)]
pub struct ReferenceTerm {
    /// Effective weight.
    pub weight: f64,
}

impl PenaltyTerm for ReferenceTerm {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn weight(&self) -> f64 {
        self.weight
    }

    fn wants_gram(&self) -> bool {
        true
    }

    fn objective(&self, ctx: &TermContext<'_>, xhat: &Matrix) -> Result<f64> {
        let Some(p) = ctx.p else { return Ok(0.0) };
        let mut sum = 0.0;
        for (&xv, &pv) in xhat.as_slice().iter().zip(p.as_slice()) {
            let d = xv - pv;
            sum += d * d;
        }
        Ok(self.weight * sum)
    }

    fn column_key(&self, _ctx: &TermContext<'_>, _j: usize) -> Vec<u64> {
        // The quadratic is the shared sweep Gram, the same for every
        // column.
        Vec::new()
    }

    fn column_quadratic(
        &self,
        ctx: &TermContext<'_>,
        _j: usize,
        _l: &Matrix,
        sweep: &SweepCache,
        a: &mut Matrix,
    ) -> Result<()> {
        if ctx.p.is_none() {
            return Ok(());
        }
        let gram = sweep
            .gram
            .as_ref()
            // invariants: allow(panic-freedom) — the engine builds
            // the sweep Gram whenever a reference term is active;
            // TermContext::p is Some only in that configuration.
            .expect("reference term requires the sweep Gram");
        a.axpy(self.weight, gram)?;
        Ok(())
    }

    fn column_linear(&self, ctx: &TermContext<'_>, j: usize, l: &Matrix, rhs: &mut [f64]) {
        let Some(p) = ctx.p else { return };
        for i in 0..l.rows() {
            let pij = p[(i, j)];
            if pij == 0.0 {
                continue;
            }
            axpy_slice(self.weight * pij, l.row(i), rhs);
        }
    }

    fn assemble_row(
        &self,
        ctx: &TermContext<'_>,
        i: usize,
        rm: &Matrix,
        sweep: &SweepCache,
        a: &mut Matrix,
        rhs: &mut [f64],
    ) -> Result<()> {
        let Some(p) = ctx.p else { return Ok(()) };
        let gram = sweep
            .gram
            .as_ref()
            // invariants: allow(panic-freedom) — the engine builds
            // the sweep Gram whenever a reference term is active;
            // TermContext::p is Some only in that configuration.
            .expect("reference term requires the sweep Gram");
        a.axpy(self.weight, gram)?;
        for j in 0..rm.rows() {
            let pij = p[(i, j)];
            if pij == 0.0 {
                continue;
            }
            axpy_slice(self.weight * pij, rm.row(j), rhs);
        }
        Ok(())
    }
}

/// Constraint 2a: neighbouring-location continuity `w ‖X_D G‖²`
/// (Q4/C4). [`CouplingMode`] is a *term configuration* here: it picks
/// the quadratic coefficient (paper-literal column of `G` vs the exact
/// row) and whether the cross term contributes.
#[derive(Debug, Clone, Copy)]
pub struct ContinuityTerm {
    /// Effective weight.
    pub weight: f64,
    /// Cross-term handling.
    pub coupling: CouplingMode,
}

impl ContinuityTerm {
    /// The quadratic coefficient of cell `jj` of a link under the
    /// configured coupling mode.
    fn coefficient(&self, g: &Matrix, jj: usize) -> f64 {
        let per = g.rows();
        match self.coupling {
            // Algorithm 1 line 18: column jj of G.
            CouplingMode::PaperLiteral => (0..per).map(|u| g[(u, jj)] * g[(u, jj)]).sum(),
            // Row jj of G: the true coefficient of X_D(ii, jj) in X_D G.
            CouplingMode::Exact => (0..per).map(|p_| g[(jj, p_)] * g[(jj, p_)]).sum(),
        }
    }
}

impl PenaltyTerm for ContinuityTerm {
    fn name(&self) -> &'static str {
        "continuity"
    }

    fn weight(&self) -> f64 {
        self.weight
    }

    fn objective(&self, ctx: &TermContext<'_>, xhat: &Matrix) -> Result<f64> {
        let Some(g) = ctx.g else { return Ok(0.0) };
        let xd = crate::decrease::extract(xhat, ctx.per)?;
        Ok(self.weight * xd.matmul(g)?.frobenius_norm_sq())
    }

    fn column_key(&self, ctx: &TermContext<'_>, j: usize) -> Vec<u64> {
        let Some(g) = ctx.g else { return Vec::new() };
        let per = ctx.per;
        vec![(j / per) as u64, self.coefficient(g, j % per).to_bits()]
    }

    fn column_quadratic(
        &self,
        ctx: &TermContext<'_>,
        j: usize,
        l: &Matrix,
        _sweep: &SweepCache,
        a: &mut Matrix,
    ) -> Result<()> {
        let Some(g) = ctx.g else { return Ok(()) };
        let per = ctx.per;
        a.add_weighted_gram(self.weight * self.coefficient(g, j % per), l, &[j / per])?;
        Ok(())
    }

    fn has_column_cross(&self) -> bool {
        self.coupling == CouplingMode::Exact
    }

    fn column_cross(
        &self,
        ctx: &TermContext<'_>,
        j: usize,
        l: &Matrix,
        xd: &Matrix,
        rhs: &mut [f64],
    ) {
        let Some(g) = ctx.g else { return };
        let per = ctx.per;
        let (ii, jj) = (j / per, j % per);
        let xd_row = xd.row(ii);
        let mut cross = 0.0;
        for p_ in 0..per {
            let gjp = g[(jj, p_)];
            if gjp == 0.0 {
                continue;
            }
            // c_p = Σ_{u≠jj} X_D(ii, u) G(u, p).
            let mut c_p = 0.0;
            for (u, &xdu) in xd_row.iter().enumerate() {
                if u == jj {
                    continue;
                }
                let gup = g[(u, p_)];
                if gup == 0.0 {
                    continue;
                }
                c_p += xdu * gup;
            }
            cross += c_p * gjp;
        }
        axpy_slice(-self.weight * cross, l.row(ii), rhs);
    }

    fn assemble_row(
        &self,
        ctx: &TermContext<'_>,
        i: usize,
        rm: &Matrix,
        _sweep: &SweepCache,
        a: &mut Matrix,
        _rhs: &mut [f64],
    ) -> Result<()> {
        // Row i of X_D is wholly owned by ℓ_i, so the term is a clean
        // quadratic Σ_p (ℓᵀ m_p)² with m_p = Σ_u G(u, p) θ_{i*per+u}:
        // no cross terms in any mode. The m_p are gathered as the rows
        // of one per x r slab.
        let Some(g) = ctx.g else { return Ok(()) };
        let per = ctx.per;
        let mut slab = Matrix::zeros(per, a.rows());
        for p_ in 0..per {
            let m_p = slab.row_mut(p_);
            for u in 0..per {
                let gup = g[(u, p_)];
                if gup == 0.0 {
                    continue;
                }
                axpy_slice(gup, rm.row(i * per + u), m_p);
            }
        }
        let rows: Vec<usize> = (0..per).collect();
        a.add_weighted_gram(self.weight, &slab, &rows)?;
        Ok(())
    }
}

/// Constraint 2b: adjacent-link similarity `w ‖H X_D‖²` (Q5/C5).
#[derive(Debug, Clone, Copy)]
pub struct SimilarityTerm {
    /// Effective weight.
    pub weight: f64,
    /// Cross-term handling.
    pub coupling: CouplingMode,
}

impl PenaltyTerm for SimilarityTerm {
    fn name(&self) -> &'static str {
        "similarity"
    }

    fn weight(&self) -> f64 {
        self.weight
    }

    fn objective(&self, ctx: &TermContext<'_>, xhat: &Matrix) -> Result<f64> {
        let Some(h) = ctx.h else { return Ok(0.0) };
        let xd = crate::decrease::extract(xhat, ctx.per)?;
        Ok(self.weight * h.matmul(&xd)?.frobenius_norm_sq())
    }

    fn column_key(&self, ctx: &TermContext<'_>, j: usize) -> Vec<u64> {
        let Some(h) = ctx.h else { return Vec::new() };
        let ii = j / ctx.per;
        vec![ii as u64, column_norm_sq(h, ii).to_bits()]
    }

    fn column_quadratic(
        &self,
        ctx: &TermContext<'_>,
        j: usize,
        l: &Matrix,
        _sweep: &SweepCache,
        a: &mut Matrix,
    ) -> Result<()> {
        let Some(h) = ctx.h else { return Ok(()) };
        let ii = j / ctx.per;
        // Column ii of H is the coefficient of X_D(ii, jj) in H X_D
        // (the dimension-correct reading of Algorithm 1 line 19, whose
        // printed index is a typo).
        a.add_weighted_gram(self.weight * column_norm_sq(h, ii), l, &[ii])?;
        Ok(())
    }

    fn has_column_cross(&self) -> bool {
        self.coupling == CouplingMode::Exact
    }

    fn column_cross(
        &self,
        ctx: &TermContext<'_>,
        j: usize,
        l: &Matrix,
        xd: &Matrix,
        rhs: &mut [f64],
    ) {
        let Some(h) = ctx.h else { return };
        let per = ctx.per;
        let (ii, jj) = (j / per, j % per);
        let m = h.rows();
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
                e_p += xd[(k, jj)] * hpk;
            }
            cross += e_p * hpi;
        }
        axpy_slice(-self.weight * cross, l.row(ii), rhs);
    }

    fn assemble_row(
        &self,
        ctx: &TermContext<'_>,
        i: usize,
        rm: &Matrix,
        _sweep: &SweepCache,
        a: &mut Matrix,
        _rhs: &mut [f64],
    ) -> Result<()> {
        let Some(h) = ctx.h else { return Ok(()) };
        let per = ctx.per;
        let rows: Vec<usize> = (i * per..(i + 1) * per).collect();
        a.add_weighted_gram(self.weight * column_norm_sq(h, i), rm, &rows)?;
        Ok(())
    }

    fn has_row_cross(&self) -> bool {
        self.coupling == CouplingMode::Exact
    }

    fn row_cross(
        &self,
        ctx: &TermContext<'_>,
        i: usize,
        rm: &Matrix,
        xd: &Matrix,
        rhs: &mut [f64],
    ) {
        let Some(h) = ctx.h else { return };
        let per = ctx.per;
        let m = h.rows();
        for u in 0..per {
            // Σ_p H(p, i) e_{p,u},  e_{p,u} = Σ_{k≠i} H(p, k) X_D(k, u).
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
                    e_pu += hpk * xd[(k, u)];
                }
                cross += hpi * e_pu;
            }
            axpy_slice(-self.weight * cross, rm.row(i * per + u), rhs);
        }
    }
}

/// `Σ_p H(p, i)²`: the squared norm of column `i` of `H`.
fn column_norm_sq(h: &Matrix, i: usize) -> f64 {
    (0..h.rows()).map(|p_| h[(p_, i)] * h[(p_, i)]).sum()
}
