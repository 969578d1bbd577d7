//! Householder QR and rank-revealing column-pivoted QR, plus an
//! *updatable* pivoted factorisation.
//!
//! Column-pivoted QR is the numerically robust way to find a maximal set
//! of linearly independent columns — the paper's "maximum independent
//! column (MIC) vectors" (Sec. IV-B) — on approximately-low-rank noisy
//! matrices.
//!
//! # Incremental updates
//!
//! [`PivotedQr`] retains the matrix it factored, which makes three
//! incremental operations possible without refactoring from scratch:
//!
//! - [`PivotedQr::append_columns`] extends the factorisation to cover
//!   new trailing columns by orthogonalising them against the existing
//!   `Q` — valid only when the greedy pivot order provably survives;
//! - [`PivotedQr::remove_columns`] drops columns; removing a non-pivot
//!   column is *exactly* equivalent to a fresh factorisation (the
//!   greedy never looked at it), so the factor is edited in place;
//! - [`PivotedQr::refactor_if_drifted`] is the safety valve: it
//!   measures the factor residual `‖A P − Q R‖_F / ‖A‖_F` and falls
//!   back to a full refactorisation past a tolerance.
//!
//! Each incremental operation *certifies* that greedy column-pivoted
//! MGS on the updated matrix would make the same selections up to
//! *tie-set equivalence*: every pivot must either dominate every
//! competitor with a relative margin of at least [`PIVOT_DRIFT_TOL`]
//! (the drift-tolerance fallback rule), or the competitor must belong
//! to the pivot's *tie-set* — greedy-competitive within
//! [`PIVOT_TIE_TOL`] and contained in the certified subspace within
//! [`PIVOT_TIE_SPAN_TOL`] — so that whichever member the fresh greedy
//! picks, it selects the same rank and spans the same certified
//! subspace. When neither holds — the decision has drifted into
//! genuine ambiguity — the operation silently performs the full
//! refactorisation instead and reports it in its return value, so the
//! fast path can never produce a factor that disagrees with
//! [`Matrix::pivoted_qr`] on rank or on the certified subspace.
//!
//! [`Matrix::certify_pivot_seed`] exposes the same certification for a
//! caller-proposed pivot *set* (used by the core layer to re-pivot a
//! fresh fingerprint matrix against the previous MIC locations); its
//! rustdoc carries the written dominance argument for the tie-set
//! generalisation.

use crate::norms::{vec_norm, vec_norm_sq};
use crate::{LinalgError, Matrix, Result};

/// Relative dominance margin below which the incremental pivoted-QR
/// paths refuse to certify a pivot decision as *unambiguous* and
/// consult the tie-set rule (see the module docs) before falling back
/// to a full refactorisation.
///
/// The greedy reference implementation tracks residual column norms by
/// *downdating* while the certification paths recompute them from
/// projection coefficients; the two agree to roughly
/// `machine epsilon x condition number`, so any comparison decided by
/// less than this margin is treated as ambiguous.
pub const PIVOT_DRIFT_TOL: f64 = 1e-8;

/// Tie-set width: a competitor that fails strict dominance still
/// belongs to the step's tie-set while its squared residual exceeds
/// the step winner's by at most this relative excess (`1.0` = within a
/// factor of two in squared norm, `√2` in norm) *at the first step
/// where dominance fails*. Beyond the window the competitor outclasses
/// the proposed pivot outright and certification falls back.
///
/// The window also strengthens the rank certificate: from the first
/// tied step onward every certified diagonal must clear the rank
/// threshold by the extra `(1 + PIVOT_TIE_TOL)` factor, so a tie-set
/// member selected in place of a seed column still clears it.
pub const PIVOT_TIE_TOL: f64 = 1.0;

/// Span-containment bound for tie-set membership: a tied competitor
/// must leave at most this fraction of its squared norm outside the
/// certified subspace (`1e-12` squared-relative = `1e-6` of its norm).
/// Tied columns may be *selected* by the fresh greedy in place of a
/// seed column, so — unlike dominated columns, which only need to fall
/// below the rank threshold — they must lie in the certified subspace
/// essentially exactly, or the selected subspace would no longer be
/// the certified one.
pub const PIVOT_TIE_SPAN_TOL: f64 = 1e-12;

/// Thin QR factorisation `A = Q R` with `Q` of shape `m x k`,
/// `R` of shape `k x n`, `k = min(m, n)`.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Orthonormal factor (`m x k`).
    pub q: Matrix,
    /// Upper-triangular factor (`k x n`).
    pub r: Matrix,
}

/// Column-pivoted QR factorisation `A P = Q R`.
///
/// Retains the factored matrix so the incremental operations
/// ([`PivotedQr::append_columns`], [`PivotedQr::remove_columns`],
/// [`PivotedQr::refactor_if_drifted`]) are self-contained.
#[derive(Debug, Clone)]
pub struct PivotedQr {
    /// Orthonormal factor (`m x k`).
    pub q: Matrix,
    /// Upper-triangular factor (`k x n`), columns permuted by `perm`.
    pub r: Matrix,
    /// Column permutation: `perm[j]` is the original column index of
    /// permuted column `j`. The first `rank` entries name the
    /// most-independent columns, in decreasing pivot magnitude.
    pub perm: Vec<usize>,
    /// The factored matrix, in original column order.
    a: Matrix,
    /// Number of pivot steps the greedy loop completed before running
    /// out of residual mass (`<= min(m, n)`; rows of `r` beyond `chain`
    /// are zero).
    chain: usize,
}

impl Matrix {
    /// Thin Householder QR factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] for an empty matrix.
    pub fn qr(&self) -> Result<Qr> {
        if self.is_empty() {
            return Err(LinalgError::InvalidArgument("qr of empty matrix"));
        }
        let (m, n) = self.shape();
        let k = m.min(n);
        // Work on Rᵀ so each Householder reflection touches contiguous
        // row slices instead of stride-n column walks (same numbers).
        let mut rt = self.transpose(); // n x m; row j = column j of R
                                       // Q accumulated explicitly (m x m truncated to m x k at the end).
        let mut q = Matrix::identity(m);
        let mut v = vec![0.0; m];

        for col in 0..k {
            // Householder vector for column `col`, rows col..m.
            let pivot_col = rt.row(col);
            let norm = vec_norm(&pivot_col[col..]);
            if norm < f64::EPSILON {
                continue;
            }
            let head = pivot_col[col];
            let alpha = if head >= 0.0 { -norm } else { norm };
            v[..col].fill(0.0);
            v[col] = head - alpha;
            v[col + 1..m].copy_from_slice(&pivot_col[col + 1..m]);
            let v_norm_sq = vec_norm_sq(&v[col..]);
            if v_norm_sq < f64::EPSILON * f64::EPSILON {
                continue;
            }
            // Apply H = I - 2 v vᵀ / (vᵀv) to R (left) and accumulate into Q.
            for j in col..n {
                let row = rt.row_mut(j);
                let dot = Matrix::dot(&v[col..m], &row[col..m]);
                let f = 2.0 * dot / v_norm_sq;
                crate::view::axpy_slice(-f, &v[col..m], &mut row[col..m]);
            }
            for j in 0..m {
                let row = q.row_mut(j);
                let dot = Matrix::dot(&v[col..m], &row[col..m]);
                let f = 2.0 * dot / v_norm_sq;
                crate::view::axpy_slice(-f, &v[col..m], &mut row[col..m]);
            }
        }
        // Thin factors; the strictly-lower triangle of R is numerical
        // noise and is dropped during the transpose-back.
        let q_thin = q.select_cols(&(0..k).collect::<Vec<_>>());
        let r_thin = Matrix::from_fn(k, n, |i, j| if j < i { 0.0 } else { rt[(j, i)] });
        Ok(Qr {
            q: q_thin,
            r: r_thin,
        })
    }

    /// Column-pivoted (rank-revealing) QR via modified Gram-Schmidt with
    /// greedy pivoting on residual column norms.
    ///
    /// The returned factorisation retains a copy of `self` so the
    /// incremental operations ([`PivotedQr::append_columns`] and
    /// friends) are self-contained — one-shot callers pay one `m x n`
    /// copy. Rank queries that need no factor go through
    /// [`Matrix::rank`], which skips the copy.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] for an empty matrix.
    pub fn pivoted_qr(&self) -> Result<PivotedQr> {
        let (qt, r, perm, chain) = self.pivoted_qr_parts()?;
        Ok(PivotedQr {
            q: qt.transpose(),
            r,
            perm,
            a: self.clone(),
            chain,
        })
    }

    /// The factorisation loop of [`Matrix::pivoted_qr`], returning the
    /// raw `(Qᵀ, R, perm, chain)` parts without cloning `self` or
    /// transposing `Qᵀ` — for internal callers that only need part of
    /// the result.
    fn pivoted_qr_parts(&self) -> Result<(Matrix, Matrix, Vec<usize>, usize)> {
        if self.is_empty() {
            return Err(LinalgError::InvalidArgument("pivoted_qr of empty matrix"));
        }
        let (m, n) = self.shape();
        let k = m.min(n);
        // Work on Aᵀ: column j of A is the contiguous row j of `workt`,
        // so pivot swaps, normalisation and Gram-Schmidt updates are all
        // slice operations (same numbers, cache-friendly layout).
        let mut workt = self.transpose(); // n x m
        let mut perm: Vec<usize> = (0..n).collect();
        let mut qt = Matrix::zeros(k, m); // row s = q_s
        let mut r = Matrix::zeros(k, n);
        let mut chain = 0;

        // Residual squared norms of each (permuted) column.
        let mut res: Vec<f64> = (0..n).map(|j| vec_norm_sq(workt.row(j))).collect();

        for step in 0..k {
            // Pivot: column with the largest residual norm.
            let (pivot, &pivot_norm) = res
                .iter()
                .enumerate()
                .skip(step)
                .max_by(|a, b| a.1.total_cmp(b.1))
                // invariants: allow(panic-freedom) — `skip(step)` of
                // a k-length list with step < k is never empty.
                .expect("non-empty residual list");
            if pivot_norm <= 0.0 {
                break;
            }
            // Swap columns `step` and `pivot` in work, perm, res, and R.
            if pivot != step {
                let (a, b) = workt.rows_pair_mut(step, pivot);
                a.swap_with_slice(b);
                perm.swap(step, pivot);
                res.swap(step, pivot);
                for i in 0..step {
                    let tmp = r[(i, step)];
                    r[(i, step)] = r[(i, pivot)];
                    r[(i, pivot)] = tmp;
                }
            }
            // Normalise the pivot column -> q_step.
            let pivot_col = workt.row(step);
            let norm = vec_norm(pivot_col);
            // Chain-stop: absolute at step 0 (guards degenerate
            // normalisation), relative to `R[0,0]` afterwards so a
            // uniformly scaled matrix keeps the same chain — the rank
            // decisions downstream are all scale-relative too.
            let stop = if step == 0 {
                f64::EPSILON
            } else {
                f64::EPSILON * r[(0, 0)]
            };
            if norm < stop {
                break;
            }
            for (qi, &wi) in qt.row_mut(step).iter_mut().zip(pivot_col) {
                *qi = wi / norm;
            }
            r[(step, step)] = norm;
            chain = step + 1;
            // Orthogonalise remaining columns against q_step.
            for j in (step + 1)..n {
                let q_step = qt.row(step);
                let col_j = workt.row_mut(j);
                let dot = Matrix::dot(q_step, col_j);
                r[(step, j)] = dot;
                crate::view::axpy_slice(-dot, q_step, col_j);
                res[j] = (res[j] - dot * dot).max(0.0);
            }
        }
        Ok((qt, r, perm, chain))
    }

    /// The leading (most linearly independent) columns of `self` at
    /// relative tolerance `rank_tol`, in greedy pivot order — the
    /// first `rank` pivots of [`Matrix::pivoted_qr`], where `rank`
    /// counts diagonal entries above `rank_tol * |R[0,0]|`. Returns an
    /// empty list for a numerically zero matrix.
    ///
    /// Unlike `pivoted_qr().leading_columns(..)`, this one-shot query
    /// materialises no factorisation and retains no matrix copy — it
    /// is the cheap entry point for MIC-style selection.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] for an empty matrix or
    /// a `rank_tol` outside `(0, 1)`.
    pub fn pivoted_leading_columns(&self, rank_tol: f64) -> Result<Vec<usize>> {
        if rank_tol.is_nan() || rank_tol <= 0.0 || rank_tol >= 1.0 {
            return Err(LinalgError::InvalidArgument("rank_tol must be in (0, 1)"));
        }
        let (_, r, perm, _) = self.pivoted_qr_parts()?;
        let k = r.rows().min(r.cols());
        let r00 = r[(0, 0)].abs();
        if r00 == 0.0 {
            return Ok(Vec::new());
        }
        let rank = (0..k)
            .take_while(|&i| r[(i, i)].abs() > rank_tol * r00)
            .count();
        Ok(perm[..rank].to_vec())
    }

    /// Certifies that greedy column-pivoted QR on `self` would select
    /// the columns in `seed` — or a *tie-equivalent* set — as its
    /// rank-revealing leading columns at relative tolerance `rank_tol`.
    ///
    /// On success, returns the certified pivot chain (the `seed`
    /// columns in the order the restricted greedy picks them). When no
    /// non-seed column ties any step, that chain is exactly
    /// `self.pivoted_qr()?.leading_columns(rank)` for the rank implied
    /// by `rank_tol`. When some steps are tied, the fresh greedy may
    /// pick tie-set members in place of seed columns, but the
    /// certificate still guarantees it selects exactly `seed.len()`
    /// columns spanning the same certified subspace (see the dominance
    /// argument below). Returns `Ok(None)` when the seed cannot be
    /// certified — it is rank-deficient on `self`, some non-seed
    /// column would outclass a pivot step beyond the [`PIVOT_TIE_TOL`]
    /// window, a tied column leaves the certified subspace by more
    /// than [`PIVOT_TIE_SPAN_TOL`], or the implied rank differs.
    ///
    /// # Dominance argument (tie-set certificate)
    ///
    /// Let `T = span(q_0 … q_{k-1})` be the subspace of the certified
    /// chain, `sel_res[s]` the squared residual the step-`s` pivot was
    /// selected at, and `threshold = rank_tol · R[0,0]`. The
    /// certificate establishes three facts about *every* non-seed
    /// column `a_j` with residual `r_j(s)` before step `s`:
    ///
    /// 1. **Containment.** After the chain, `r_j(k) < threshold²`
    ///    (with margin): every column of the matrix lies within the
    ///    rank threshold of `T`, so no greedy run — whatever it picked
    ///    — can extend the rank beyond `k` while the selected subspace
    ///    stays within `T`'s threshold ball.
    /// 2. **Window.** At the first step `s*` where `a_j` fails strict
    ///    dominance (`sel_res[s*] ≤ r_j(s*)·(1+margin)`), it holds
    ///    `r_j(s*) ≤ sel_res[s*]·(1 + PIVOT_TIE_TOL)`. Model the tie
    ///    exactly: if the fresh greedy selects `a_j` at some step
    ///    instead of the seed pivot, its pick is selected at a squared
    ///    residual within the window of the seed pivot's, so the
    ///    picked diagonal satisfies
    ///    `R'[s,s]² ≥ sel_res[s] / (1 + PIVOT_TIE_TOL)`. (Only the
    ///    *first* failing step is window-checked: once the restricted
    ///    and fresh orders diverge, later residual comparisons are
    ///    order artifacts, while the first divergence point is
    ///    computed on the shared prefix and is therefore meaningful.)
    /// 3. **Span.** A tied column additionally satisfies
    ///    `r_j(k) ≤ PIVOT_TIE_SPAN_TOL · ‖a_j‖²` — it lies in `T`
    ///    essentially exactly, not merely within the threshold ball.
    ///    Hence swapping it for a seed column does not rotate the
    ///    selected subspace: any selection mixing seed columns and
    ///    tie-set members spans the same `T` (to `√PIVOT_TIE_SPAN_TOL`
    ///    relative accuracy, far below `rank_tol`).
    ///
    /// Together: the fresh greedy, run to completion, picks columns
    /// from `seed ∪ {tie-set members}` for its first `k` steps (a
    /// column outside that union would need to win a step, i.e. fail
    /// dominance outside the window, which returns `None`); each pick
    /// clears the rank threshold because when any step is tied the
    /// rank certificate is strengthened to
    /// `R[s,s]² > threshold²·(1 + PIVOT_TIE_TOL)·(1+margin)` from the
    /// earliest tied step onward, which by the window bound transfers
    /// to the fresh pick's diagonal; and step `k+1` stops below
    /// `threshold` by containment. So the fresh rank is exactly `k`
    /// and the fresh selection spans `T` — the certified invariants —
    /// even though the selected *indices* may flicker among tie-set
    /// members. This mirrors the LRR exactness certificate: a cheap
    /// closed-form condition under which the fast path provably agrees
    /// with the reference computation on everything downstream
    /// consumers observe.
    ///
    /// Cost is one `k x n` projection (`QᵀA`) plus an `m k²` restricted
    /// factorisation — it avoids the full greedy sweep that updates
    /// every column at every step, and on rank-deficient matrices it
    /// performs `k = seed.len()` steps instead of `min(m, n)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] for an empty matrix, a
    /// `rank_tol` outside `(0, 1)`, a negative `margin`, or a seed that
    /// is empty, out of range, duplicated, or larger than `min(m, n)`.
    pub fn certify_pivot_seed(
        &self,
        seed: &[usize],
        rank_tol: f64,
        margin: f64,
    ) -> Result<Option<Vec<usize>>> {
        if self.is_empty() {
            return Err(LinalgError::InvalidArgument(
                "certify_pivot_seed of empty matrix",
            ));
        }
        if !(0.0..1.0).contains(&rank_tol) || rank_tol == 0.0 {
            return Err(LinalgError::InvalidArgument("rank_tol must be in (0, 1)"));
        }
        if !margin.is_finite() || margin < 0.0 {
            return Err(LinalgError::InvalidArgument(
                "margin must be finite and >= 0",
            ));
        }
        let (m, n) = self.shape();
        let k = seed.len();
        if k == 0 || k > m.min(n) {
            return Err(LinalgError::InvalidArgument(
                "seed must name between 1 and min(m, n) columns",
            ));
        }
        let mut sorted = seed.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != k || sorted.last().is_some_and(|&c| c >= n) {
            return Err(LinalgError::InvalidArgument(
                "seed columns must be unique and in range",
            ));
        }

        // Greedy pivoted MGS restricted to the seed columns. The
        // operations mirror `pivoted_qr` exactly, so for the seed
        // columns the residuals and q vectors are bit-identical to what
        // the full greedy would compute once the chain is certified.
        let mut workt = Matrix::zeros(k, m);
        for (s, &j) in seed.iter().enumerate() {
            for i in 0..m {
                workt[(s, i)] = self[(i, j)];
            }
        }
        let mut order: Vec<usize> = seed.to_vec();
        let mut res: Vec<f64> = (0..k).map(|s| vec_norm_sq(workt.row(s))).collect();
        let mut qt = Matrix::zeros(k, m);
        // `sel_res[s]`: the (downdated) residual squared norm the step-s
        // pivot was selected at; `diag[s]`: its vector norm `R[s,s]`.
        let mut sel_res = vec![0.0; k];
        let mut diag = vec![0.0; k];
        for step in 0..k {
            let (pivot, &pivot_res) = res
                .iter()
                .enumerate()
                .skip(step)
                .max_by(|a, b| a.1.total_cmp(b.1))
                // invariants: allow(panic-freedom) — `skip(step)` of
                // a k-length list with step < k is never empty.
                .expect("non-empty residual list");
            if pivot != step {
                let (a, b) = workt.rows_pair_mut(step, pivot);
                a.swap_with_slice(b);
                order.swap(step, pivot);
                res.swap(step, pivot);
            }
            let pivot_col = workt.row(step);
            let norm = vec_norm(pivot_col);
            // Scale-relative rank-deficiency stop (absolute at step 0,
            // relative to `R[0,0]` afterwards, matching the greedy).
            let stop = if step == 0 {
                f64::EPSILON
            } else {
                f64::EPSILON * diag[0]
            };
            if norm < stop {
                // The seed is numerically rank-deficient on this matrix.
                return Ok(None);
            }
            for (qi, &wi) in qt.row_mut(step).iter_mut().zip(pivot_col) {
                *qi = wi / norm;
            }
            sel_res[step] = pivot_res;
            diag[step] = norm;
            for (s, res_s) in res.iter_mut().enumerate().skip(step + 1) {
                let q_step = qt.row(step);
                let col = workt.row_mut(s);
                let dot = Matrix::dot(q_step, col);
                crate::view::axpy_slice(-dot, q_step, col);
                *res_s = (*res_s - dot * dot).max(0.0);
            }
        }
        // Rank certification: every seed diagonal must clear the
        // rank-tolerance threshold with margin, so the implied rank is
        // exactly k on the fresh factorisation too.
        let threshold = rank_tol * diag[0];
        if diag.iter().any(|&d| d <= threshold * (1.0 + margin)) {
            return Ok(None);
        }

        // Project every non-seed column onto the certified basis
        // (classical Gram-Schmidt via one blocked matmul) and check
        // per-step dominance — with the tie-set escape hatch — plus
        // the final below-threshold condition.
        let coeff = qt.matmul(self)?; // k x n
        let mut in_seed = vec![false; n];
        for &j in seed {
            in_seed[j] = true;
        }
        let col_sq = self.col_norms_sq();
        let mut earliest_tie: Option<usize> = None;
        for j in (0..n).filter(|&j| !in_seed[j]) {
            let mut r_j = col_sq[j];
            let mut tie_step: Option<usize> = None;
            for s in 0..k {
                // Dominance before step s: the chosen pivot must beat
                // this column's residual with margin — or the column
                // must fall inside the tie window at its first beat
                // (later beats are restricted-order artifacts; see the
                // dominance argument in the rustdoc).
                if tie_step.is_none() && sel_res[s] <= r_j * (1.0 + margin) {
                    if r_j > sel_res[s] * (1.0 + PIVOT_TIE_TOL) {
                        // Outclasses the pivot beyond the window: the
                        // fresh greedy genuinely selects differently.
                        return Ok(None);
                    }
                    tie_step = Some(s);
                }
                let c = coeff[(s, j)];
                r_j = (r_j - c * c).max(0.0);
            }
            // After the chain, the column must fall below the rank
            // threshold with margin, or the fresh rank would exceed k.
            if r_j * (1.0 + margin) >= threshold * threshold {
                return Ok(None);
            }
            if let Some(s) = tie_step {
                // A tied column may be *selected* in place of a seed
                // column, so it must lie in the certified subspace
                // essentially exactly, not merely below threshold.
                if r_j > PIVOT_TIE_SPAN_TOL * col_sq[j] {
                    return Ok(None);
                }
                earliest_tie = Some(earliest_tie.map_or(s, |e| e.min(s)));
            }
        }
        if let Some(s0) = earliest_tie {
            // Strengthened rank certificate from the earliest tied
            // step onward: a tie-set member picked in place of a seed
            // column has diagonal within the window of the seed's, so
            // it must still clear the threshold after losing up to a
            // `(1 + PIVOT_TIE_TOL)` factor in squared norm.
            let strengthened = threshold * threshold * (1.0 + PIVOT_TIE_TOL) * (1.0 + margin);
            if diag[s0..].iter().any(|&d| d * d <= strengthened) {
                return Ok(None);
            }
        }
        Ok(Some(order))
    }

    /// Numerical rank: the number of diagonal entries of the pivoted-QR
    /// `R` factor larger than `tol * |R[0,0]|`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] for an empty matrix or a
    /// non-positive tolerance.
    pub fn rank(&self, tol: f64) -> Result<usize> {
        if tol <= 0.0 {
            return Err(LinalgError::InvalidArgument("rank tolerance must be > 0"));
        }
        // Only the diagonal of R is needed: skip the matrix retention
        // and Q transposition of the full `pivoted_qr`.
        let (_, r, _, _) = self.pivoted_qr_parts()?;
        let k = r.rows();
        let r00 = r[(0, 0)].abs();
        if r00 == 0.0 {
            return Ok(0);
        }
        Ok((0..k).take_while(|&i| r[(i, i)].abs() > tol * r00).count())
    }
}

impl PivotedQr {
    /// The indices of the `count` most linearly independent columns of the
    /// original matrix, in pivot order.
    ///
    /// # Panics
    ///
    /// Panics if `count > perm.len()`.
    pub fn leading_columns(&self, count: usize) -> Vec<usize> {
        assert!(count <= self.perm.len(), "count exceeds column count");
        self.perm[..count].to_vec()
    }

    /// The matrix this factorisation covers, in original column order
    /// (kept in sync by the incremental operations).
    pub fn matrix(&self) -> &Matrix {
        &self.a
    }

    /// Number of pivot steps the greedy loop completed (rows of `r`
    /// beyond this are zero; the numerical rank is at most this).
    #[cfg(test)]
    fn chain_len(&self) -> usize {
        self.chain
    }

    /// Numerical rank at relative tolerance `tol`: the number of
    /// diagonal entries of `r` larger than `tol * |R[0,0]|`, exactly as
    /// [`Matrix::rank`] counts them.
    pub fn rank_at(&self, tol: f64) -> usize {
        let k = self.r.rows().min(self.r.cols());
        let r00 = self.r[(0, 0)].abs();
        if r00 == 0.0 {
            return 0;
        }
        (0..k)
            .take_while(|&i| self.r[(i, i)].abs() > tol * r00)
            .count()
    }

    /// Replaces this factorisation with a fresh greedy one of `self.a`.
    fn refactor(&mut self) -> Result<()> {
        // Via the parts constructor: the retained matrix is already in
        // `self.a`, so no clone is needed (unlike `a.pivoted_qr()`).
        let (qt, r, perm, chain) = self.a.pivoted_qr_parts()?;
        self.q = qt.transpose();
        self.r = r;
        self.perm = perm;
        self.chain = chain;
        Ok(())
    }

    /// Extends the factorisation to cover `[A | new_cols]`.
    ///
    /// Fast path: each new column is orthogonalised against the
    /// existing `Q` (one blocked `Qᵀ C` projection) and appended as a
    /// trailing non-pivot column — valid only when every existing pivot
    /// still dominates every new column with the [`PIVOT_DRIFT_TOL`]
    /// margin *and*, for a factorisation whose pivot chain ended early,
    /// the new columns provably add no residual mass (so the greedy
    /// would still stop where it stopped). Otherwise the whole extended
    /// matrix is refactored from scratch.
    ///
    /// Returns `true` when the fast path applied, `false` when a full
    /// refactorisation was needed. Either way the factor afterwards
    /// agrees with `[A | new_cols].pivoted_qr()` on rank and leading
    /// columns.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] for an empty `new_cols`
    /// and [`LinalgError::ShapeMismatch`] for a row-count mismatch.
    pub fn append_columns(&mut self, new_cols: &Matrix) -> Result<bool> {
        if new_cols.is_empty() {
            return Err(LinalgError::InvalidArgument(
                "append_columns requires at least one column",
            ));
        }
        let (m, n_old) = self.a.shape();
        if new_cols.rows() != m {
            return Err(LinalgError::ShapeMismatch {
                op: "append_columns",
                lhs: self.a.shape(),
                rhs: new_cols.shape(),
            });
        }
        let extra = new_cols.cols();
        let a_new = self.a.hcat(new_cols)?;
        let n_new = n_old + extra;
        let k_new = m.min(n_new);

        let certified = self.certify_append(new_cols, k_new);
        match certified {
            Some(coeff) => {
                // Assemble: R gains `extra` trailing columns (and zero
                // rows up to the new k), Q gains zero columns likewise,
                // perm gains the new original indices at the tail.
                let k_old = self.r.rows();
                let mut r = Matrix::zeros(k_new, n_new);
                for i in 0..k_old {
                    r.row_mut(i)[..n_old].copy_from_slice(self.r.row(i));
                }
                for (s, row) in coeff.iter().enumerate().take(self.chain.min(k_new)) {
                    r.row_mut(s)[n_old..].copy_from_slice(row);
                }
                let mut q = Matrix::zeros(m, k_new);
                for i in 0..m {
                    q.row_mut(i)[..k_old].copy_from_slice(self.q.row(i));
                }
                self.q = q;
                self.r = r;
                self.perm.extend(n_old..n_new);
                self.a = a_new;
                Ok(true)
            }
            None => {
                self.a = a_new;
                self.refactor()?;
                Ok(false)
            }
        }
    }

    /// The certification half of [`PivotedQr::append_columns`]: returns
    /// the per-chain-step projection coefficients of the new columns
    /// (`chain` rows of `extra` entries) when the existing pivot chain
    /// provably survives the append *up to tie-set equivalence*,
    /// `None` otherwise.
    ///
    /// A new column that fails strict dominance at some chain step is
    /// admitted when it satisfies the same tie-set conditions as
    /// [`Matrix::certify_pivot_seed`]: at its first beat it is within
    /// the [`PIVOT_TIE_TOL`] window of that step's diagonal, and after
    /// the chain it lies in the chain's span within
    /// [`PIVOT_TIE_SPAN_TOL`] of its own squared norm — so a fresh
    /// greedy that picked it instead of the incumbent pivot would
    /// select the same rank and span the same subspace.
    fn certify_append(&self, new_cols: &Matrix, k_new: usize) -> Option<Vec<Vec<f64>>> {
        if self.chain == 0 {
            // Degenerate factor (zero matrix): anything could pivot.
            return None;
        }
        let margin = PIVOT_DRIFT_TOL;
        let extra = new_cols.cols();
        // The greedy selects on downdated residuals; for the pivot
        // itself that value is `R[s,s]^2` (its vector norm at pivot
        // time), which is exact — later-step comparisons against other
        // columns used values at least this large.
        let coeff_mat = {
            // Qᵀ C as one blocked matmul (classical Gram-Schmidt
            // coefficients; the margin absorbs the CGS/MGS difference).
            let qt = self.q.transpose();
            // invariants: allow(panic-freedom) — `new_cols.rows() == m`
            // was checked at the top of this method, and `qt` has m
            // columns by construction.
            qt.matmul(new_cols).expect("shapes checked by caller")
        };
        let col_sq = new_cols.col_norms_sq();
        let mut coeff: Vec<Vec<f64>> = vec![vec![0.0; extra]; self.chain];
        for j in 0..extra {
            let mut r_j = col_sq[j];
            let mut tied = false;
            for s in 0..self.chain {
                let d = self.r[(s, s)];
                if !tied && d * d <= r_j * (1.0 + margin) {
                    if r_j > d * d * (1.0 + PIVOT_TIE_TOL) {
                        // This new column would have outclassed pivot
                        // step s beyond the tie window: the existing
                        // chain is not certified.
                        return None;
                    }
                    tied = true;
                }
                let c = coeff_mat[(s, j)];
                coeff[s][j] = c;
                r_j = (r_j - c * c).max(0.0);
            }
            if tied && r_j > PIVOT_TIE_SPAN_TOL * col_sq[j] {
                // Tied but not contained in the chain's span: a fresh
                // greedy picking it would rotate the selected subspace.
                return None;
            }
            if self.chain < k_new {
                // The fresh greedy would run further steps: it stops at
                // `chain` only if no column retains residual mass above
                // the floor (existing columns already satisfy this —
                // their residuals are untouched by an append). The
                // floor is scale-relative to `R[0,0]`, matching the
                // greedy's own relative rank decisions, so a uniformly
                // tiny-scaled matrix is judged by its own magnitude
                // rather than certified vacuously.
                let eps_scaled = f64::EPSILON * self.r[(0, 0)].abs();
                let floor = eps_scaled * eps_scaled;
                if r_j * (1.0 + margin) >= floor {
                    return None;
                }
            }
        }
        Some(coeff)
    }

    /// Shrinks the factorisation by removing the columns whose
    /// *original* indices are listed in `removed` (remaining columns
    /// keep their relative order; `perm` is remapped).
    ///
    /// Fast path: when no removed column is a chain pivot, the greedy
    /// never selected any of them, so dropping them leaves every pivot
    /// decision — and every numerical value of `Q` and `R` — exactly
    /// as a fresh factorisation of the smaller matrix would compute
    /// them; the factor is edited in place. Removing a pivot column
    /// triggers a full refactorisation instead.
    ///
    /// Returns `true` when the fast path applied, `false` when a full
    /// refactorisation was needed.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] when `removed` is
    /// empty, out of range, duplicated, or names every column.
    pub fn remove_columns(&mut self, removed: &[usize]) -> Result<bool> {
        let n_old = self.a.cols();
        let mut sorted = removed.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != removed.len() || removed.is_empty() {
            return Err(LinalgError::InvalidArgument(
                "removed columns must be non-empty and unique",
            ));
        }
        if sorted.last().is_some_and(|&c| c >= n_old) {
            return Err(LinalgError::InvalidArgument("removed column out of range"));
        }
        if sorted.len() == n_old {
            return Err(LinalgError::InvalidArgument("cannot remove every column"));
        }
        let mut is_removed = vec![false; n_old];
        for &j in &sorted {
            is_removed[j] = true;
        }
        let kept: Vec<usize> = (0..n_old).filter(|&j| !is_removed[j]).collect();
        let touches_pivot = self.perm[..self.chain].iter().any(|&j| is_removed[j]);
        self.a = self.a.select_cols(&kept);
        if touches_pivot {
            self.refactor()?;
            return Ok(false);
        }
        // Original index -> new index after the removals.
        let mut remap = vec![usize::MAX; n_old];
        for (new_j, &old_j) in kept.iter().enumerate() {
            remap[old_j] = new_j;
        }
        let kept_positions: Vec<usize> = (0..self.perm.len())
            .filter(|&p| !is_removed[self.perm[p]])
            .collect();
        let n_new = kept.len();
        let m = self.a.rows();
        // The chain pivots are all kept, so `chain <= min(m, n_new)`
        // and trimming to the fresh factor's row count is safe.
        let k_new = m.min(n_new);
        let mut r = Matrix::zeros(k_new, n_new);
        for i in 0..k_new {
            for (new_p, &old_p) in kept_positions.iter().enumerate() {
                r[(i, new_p)] = self.r[(i, old_p)];
            }
        }
        let mut q = Matrix::zeros(m, k_new);
        for i in 0..m {
            q.row_mut(i).copy_from_slice(&self.q.row(i)[..k_new]);
        }
        self.perm = kept_positions
            .into_iter()
            .map(|p| remap[self.perm[p]])
            .collect();
        self.q = q;
        self.r = r;
        Ok(true)
    }

    /// Measures the factor residual `‖A P − Q R‖_F / ‖A‖_F` and, when
    /// it exceeds `tol`, refactors from scratch — the safety valve that
    /// bounds error accumulation over long append/remove sequences.
    ///
    /// Returns `true` when a refactorisation happened.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] for a non-positive
    /// `tol`.
    pub fn refactor_if_drifted(&mut self, tol: f64) -> Result<bool> {
        if tol.is_nan() || tol <= 0.0 {
            return Err(LinalgError::InvalidArgument("drift tolerance must be > 0"));
        }
        let permuted = self.a.select_cols(&self.perm);
        let product = self.q.matmul(&self.r)?;
        let denom = self.a.frobenius_norm().max(f64::MIN_POSITIVE);
        let drift = (&product - &permuted).frobenius_norm() / denom;
        if drift > tol {
            self.refactor()?;
            return Ok(true);
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(m, n, |_, _| rng.gen::<f64>() * 2.0 - 1.0)
    }

    #[test]
    fn qr_reconstructs_input() {
        let a = random_matrix(6, 4, 1);
        let qr = a.qr().unwrap();
        let prod = qr.q.matmul(&qr.r).unwrap();
        assert!(prod.approx_eq(&a, 1e-10));
    }

    #[test]
    fn qr_q_has_orthonormal_columns() {
        let a = random_matrix(5, 5, 2);
        let qr = a.qr().unwrap();
        let qtq = qr.q.transpose().matmul(&qr.q).unwrap();
        assert!(qtq.approx_eq(&Matrix::identity(5), 1e-10));
    }

    #[test]
    fn qr_r_is_upper_triangular() {
        let a = random_matrix(4, 4, 3);
        let qr = a.qr().unwrap();
        for i in 0..4 {
            for j in 0..i {
                assert!(qr.r[(i, j)].abs() < 1e-10);
            }
        }
    }

    #[test]
    fn pivoted_qr_reconstructs_with_permutation() {
        let a = random_matrix(5, 7, 4);
        let pqr = a.pivoted_qr().unwrap();
        let qr_prod = pqr.q.matmul(&pqr.r).unwrap();
        // qr_prod should equal A with columns permuted by perm.
        let a_perm = a.select_cols(&pqr.perm);
        assert!(qr_prod.approx_eq(&a_perm, 1e-10));
    }

    #[test]
    fn pivoted_qr_diagonal_decreasing() {
        let a = random_matrix(6, 6, 5);
        let pqr = a.pivoted_qr().unwrap();
        for i in 1..6 {
            assert!(
                pqr.r[(i, i)].abs() <= pqr.r[(i - 1, i - 1)].abs() + 1e-10,
                "pivoted QR diagonal must be non-increasing"
            );
        }
    }

    #[test]
    fn rank_of_low_rank_matrix() {
        // rank-2 matrix: outer products.
        let u1 = [1.0, 2.0, 3.0, 4.0];
        let u2 = [0.5, -1.0, 2.0, 1.0];
        let v1 = [1.0, 0.0, 2.0, -1.0, 3.0];
        let v2 = [2.0, 1.0, 0.0, 1.0, -1.0];
        let a = &Matrix::outer(&u1, &v1) + &Matrix::outer(&u2, &v2);
        assert_eq!(a.rank(1e-10).unwrap(), 2);
    }

    #[test]
    fn rank_of_identity_and_zero() {
        assert_eq!(Matrix::identity(4).rank(1e-12).unwrap(), 4);
        assert_eq!(Matrix::zeros(3, 3).rank(1e-12).unwrap(), 0);
    }

    #[test]
    fn leading_columns_identify_independent_set() {
        // Columns 0 and 2 independent; column 1 = 2 * column 0.
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 0.0, 1.0], &[1.0, 2.0, 1.0]]);
        let pqr = a.pivoted_qr().unwrap();
        let lead = pqr.leading_columns(2);
        // The chosen two columns must span the column space: col 1 is
        // dependent on col 0 so {0 or 1} plus {2}.
        assert!(lead.contains(&2));
        assert!(lead.contains(&0) || lead.contains(&1));
    }

    #[test]
    fn empty_matrix_rejected() {
        assert!(Matrix::zeros(0, 0).qr().is_err());
        assert!(Matrix::zeros(0, 0).pivoted_qr().is_err());
    }

    #[test]
    fn rank_tolerance_validated() {
        assert!(Matrix::identity(2).rank(0.0).is_err());
        assert!(Matrix::identity(2).rank(-1.0).is_err());
    }

    #[test]
    fn qr_tall_matrix_shapes() {
        let a = random_matrix(8, 3, 6);
        let qr = a.qr().unwrap();
        assert_eq!(qr.q.shape(), (8, 3));
        assert_eq!(qr.r.shape(), (3, 3));
    }

    #[test]
    fn qr_wide_matrix_shapes() {
        let a = random_matrix(3, 8, 7);
        let qr = a.qr().unwrap();
        assert_eq!(qr.q.shape(), (3, 3));
        assert_eq!(qr.r.shape(), (3, 8));
        assert!(qr.q.matmul(&qr.r).unwrap().approx_eq(&a, 1e-10));
    }

    /// `pqr` and a fresh factorisation of its matrix agree on rank and
    /// leading columns, and `pqr` reconstructs its matrix.
    fn assert_matches_fresh(pqr: &PivotedQr, tol: f64) {
        let fresh = pqr.matrix().pivoted_qr().unwrap();
        let rank = fresh.rank_at(tol);
        assert_eq!(pqr.rank_at(tol), rank, "rank mismatch vs fresh");
        assert_eq!(
            pqr.leading_columns(rank),
            fresh.leading_columns(rank),
            "leading columns mismatch vs fresh"
        );
        let recon = pqr.q.matmul(&pqr.r).unwrap();
        let permuted = pqr.matrix().select_cols(&pqr.perm);
        let scale = pqr.matrix().frobenius_norm().max(1.0);
        assert!(
            (&recon - &permuted).frobenius_norm() <= 1e-9 * scale,
            "factor residual too large"
        );
    }

    /// A wide matrix whose trailing columns are correlated mixes of the
    /// leading ones plus a small perturbation — the shape where the
    /// incremental paths certify.
    fn correlated_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let basis = Matrix::from_fn(m, m, |i, j| {
            if i == j {
                10.0
            } else {
                rng.gen::<f64>() * 2.0 - 1.0
            }
        });
        let mix = Matrix::from_fn(m, n, |_, _| rng.gen::<f64>() * 0.2 - 0.1);
        let mut x = basis.matmul(&mix).unwrap();
        for i in 0..m {
            for j in 0..m.min(n) {
                x[(i, j)] += basis[(i, j)] * 3.0;
            }
        }
        x
    }

    #[test]
    fn append_dominated_columns_keeps_factor() {
        let a = correlated_matrix(6, 18, 11);
        let mut pqr = a.pivoted_qr().unwrap();
        let chain_before = pqr.chain_len();
        // New columns that are mixes of existing ones: dominated.
        let mix = Matrix::from_fn(18, 3, |i, j| ((i + 2 * j) as f64 * 0.37).sin() * 0.05);
        let new_cols = a.matmul(&mix).unwrap();
        let fast = pqr.append_columns(&new_cols).unwrap();
        assert!(fast, "dominated append should take the fast path");
        assert_eq!(
            pqr.chain_len(),
            chain_before,
            "append must not extend the chain"
        );
        assert_eq!(pqr.matrix().shape(), (6, 21));
        assert_matches_fresh(&pqr, 1e-9);
    }

    #[test]
    fn append_dominant_column_falls_back() {
        let a = correlated_matrix(5, 12, 12);
        let mut pqr = a.pivoted_qr().unwrap();
        // A new column 100x stronger than anything present must become
        // the first pivot: the fast path cannot certify that.
        let strong = a.select_cols(&[0]).scale(100.0);
        let fast = pqr.append_columns(&strong).unwrap();
        assert!(!fast, "dominant append must refactor");
        assert_eq!(pqr.leading_columns(1), vec![12]);
        assert_matches_fresh(&pqr, 1e-9);
    }

    #[test]
    fn remove_non_pivot_is_bit_identical_to_fresh() {
        let a = correlated_matrix(5, 14, 13);
        let mut pqr = a.pivoted_qr().unwrap();
        let rank = pqr.rank_at(1e-9);
        let lead = pqr.leading_columns(rank);
        // Remove two columns that are not leading pivots.
        let victims: Vec<usize> = (0..14).filter(|j| !lead.contains(j)).take(2).collect();
        let fast = pqr.remove_columns(&victims).unwrap();
        assert!(fast, "non-pivot removal should be in-place");
        let fresh = pqr.matrix().pivoted_qr().unwrap();
        // Exact parity, not approximate: the greedy never looked at the
        // removed columns, so every surviving number is unchanged.
        assert_eq!(pqr.perm, fresh.perm);
        assert!(pqr.q.approx_eq(&fresh.q, 0.0));
        assert!(pqr.r.approx_eq(&fresh.r, 0.0));
    }

    #[test]
    fn remove_pivot_column_refactors() {
        let a = correlated_matrix(5, 12, 14);
        let mut pqr = a.pivoted_qr().unwrap();
        let first_pivot = pqr.leading_columns(1)[0];
        let fast = pqr.remove_columns(&[first_pivot]).unwrap();
        assert!(!fast, "pivot removal must refactor");
        assert_eq!(pqr.matrix().cols(), 11);
        assert_matches_fresh(&pqr, 1e-9);
    }

    #[test]
    fn incremental_ops_validate_arguments() {
        let a = correlated_matrix(4, 8, 15);
        let mut pqr = a.pivoted_qr().unwrap();
        assert!(pqr.append_columns(&Matrix::zeros(3, 1)).is_err()); // row mismatch
        assert!(pqr.remove_columns(&[]).is_err());
        assert!(pqr.remove_columns(&[99]).is_err());
        assert!(pqr.remove_columns(&[1, 1]).is_err());
        assert!(pqr.remove_columns(&(0..8).collect::<Vec<_>>()).is_err());
        assert!(pqr.refactor_if_drifted(0.0).is_err());
    }

    #[test]
    fn refactor_if_drifted_repairs_a_tampered_factor() {
        let a = correlated_matrix(4, 9, 16);
        let mut pqr = a.pivoted_qr().unwrap();
        assert!(
            !pqr.refactor_if_drifted(1e-9).unwrap(),
            "fresh factor is clean"
        );
        // Corrupt an R entry: the drift check must notice and repair.
        pqr.r[(0, 3)] += 5.0;
        assert!(pqr.refactor_if_drifted(1e-9).unwrap());
        assert_matches_fresh(&pqr, 1e-9);
    }

    #[test]
    fn certify_pivot_seed_accepts_the_true_leading_set() {
        let a = correlated_matrix(6, 20, 17);
        let fresh = a.pivoted_qr().unwrap();
        let rank = fresh.rank_at(1e-6);
        let lead = fresh.leading_columns(rank);
        // Hand the certified path the set in sorted (non-pivot) order:
        // it must recover the greedy chain order itself.
        let mut seed = lead.clone();
        seed.sort_unstable();
        let chain = a
            .certify_pivot_seed(&seed, 1e-6, PIVOT_DRIFT_TOL)
            .unwrap()
            .expect("true leading set must certify");
        assert_eq!(chain, lead);
    }

    #[test]
    fn certify_pivot_seed_rejects_wrong_or_deficient_seeds() {
        let a = correlated_matrix(6, 20, 18);
        let fresh = a.pivoted_qr().unwrap();
        let rank = fresh.rank_at(1e-6);
        let lead = fresh.leading_columns(rank);
        // A seed missing the strongest pivot cannot be certified.
        let mut wrong: Vec<usize> = (0..20).filter(|j| !lead.contains(j)).take(rank).collect();
        wrong.sort_unstable();
        assert!(a
            .certify_pivot_seed(&wrong, 1e-6, PIVOT_DRIFT_TOL)
            .unwrap()
            .is_none());
        // A duplicated column in the matrix makes the seed dependent.
        let mut doubled = a.clone();
        let c0 = doubled.col(lead[0]);
        doubled.set_col(lead[1], &c0);
        let dep_seed = vec![lead[0].min(lead[1]), lead[0].max(lead[1])];
        assert!(doubled
            .certify_pivot_seed(&dep_seed, 1e-6, PIVOT_DRIFT_TOL)
            .unwrap()
            .is_none());
        // Argument validation.
        assert!(a.certify_pivot_seed(&[], 1e-6, 1e-8).is_err());
        assert!(a.certify_pivot_seed(&[0, 0], 1e-6, 1e-8).is_err());
        assert!(a.certify_pivot_seed(&[99], 1e-6, 1e-8).is_err());
        assert!(a.certify_pivot_seed(&[0], 0.0, 1e-8).is_err());
        assert!(a.certify_pivot_seed(&[0], 1e-6, -1.0).is_err());
    }

    #[test]
    fn certify_pivot_seed_accepts_tie_set_members() {
        let a = correlated_matrix(6, 20, 21);
        let fresh = a.pivoted_qr().unwrap();
        let rank = fresh.rank_at(1e-6);
        let lead = fresh.leading_columns(rank);
        // Duplicate the strongest pivot into a non-seed column: an
        // exact k-way tie at that pivot's step.
        let mut tied = a.clone();
        let dup: usize = (0..20).find(|j| !lead.contains(j)).unwrap();
        let c0 = tied.col(lead[0]);
        tied.set_col(dup, &c0);
        // The original seed certifies despite the tied challenger…
        let mut seed = lead.clone();
        seed.sort_unstable();
        assert!(
            tied.certify_pivot_seed(&seed, 1e-6, PIVOT_DRIFT_TOL)
                .unwrap()
                .is_some(),
            "seed must certify against an exact-duplicate tie"
        );
        // …and so does the tie-equivalent seed with the duplicate
        // swapped in for the original.
        let mut swapped: Vec<usize> = lead
            .iter()
            .map(|&j| if j == lead[0] { dup } else { j })
            .collect();
        swapped.sort_unstable();
        assert!(
            tied.certify_pivot_seed(&swapped, 1e-6, PIVOT_DRIFT_TOL)
                .unwrap()
                .is_some(),
            "the tie-set member must certify in the original's place"
        );
    }

    #[test]
    fn certify_pivot_seed_rejects_outclassing_challengers() {
        let a = correlated_matrix(6, 20, 22);
        let fresh = a.pivoted_qr().unwrap();
        let rank = fresh.rank_at(1e-6);
        let lead = fresh.leading_columns(rank);
        let mut seed = lead.clone();
        seed.sort_unstable();
        // A challenger far beyond the tie window must force fallback.
        let victim: usize = (0..20).find(|j| !lead.contains(j)).unwrap();
        let mut outclassed = a.clone();
        let boosted: Vec<f64> = a.col(lead[0]).iter().map(|&x| x * 10.0).collect();
        outclassed.set_col(victim, &boosted);
        assert!(
            outclassed
                .certify_pivot_seed(&seed, 1e-6, PIVOT_DRIFT_TOL)
                .unwrap()
                .is_none(),
            "a challenger outside the window must not certify"
        );
    }

    /// Rank-3 base supported on rows 0..3 (so the certified subspace
    /// has a genuine orthogonal complement), with column 10 an exact
    /// copy of the strongest column plus an off-span leak of relative
    /// size `leak` in row 4.
    fn tied_with_leak(leak: f64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(24);
        let mut x = Matrix::zeros(6, 12);
        for j in 0..12 {
            for i in 0..3 {
                x[(i, j)] = rng.gen::<f64>() * 0.2 - 0.1;
            }
        }
        for i in 0..3 {
            x[(i, i)] += 10.0 - i as f64; // column 0 strongest
        }
        let d0 = vec_norm(&x.col(0));
        for i in 0..3 {
            x[(i, 10)] = x[(i, 0)];
        }
        x[(4, 10)] = leak * d0;
        x
    }

    #[test]
    fn certify_pivot_seed_polices_tie_span_containment() {
        let seed = [0usize, 1, 2];
        // Leak at 1e-4 of the pivot scale: ~1e-8 of squared norm ends
        // up outside the certified span — far above PIVOT_TIE_SPAN_TOL
        // yet below the rank_tol = 1e-3 threshold, so only the span
        // condition can catch it.
        assert!(
            tied_with_leak(1e-4)
                .certify_pivot_seed(&seed, 1e-3, PIVOT_DRIFT_TOL)
                .unwrap()
                .is_none(),
            "a tied challenger outside the certified span must not certify"
        );
        // An ε-perturbed duplicate (leak within PIVOT_TIE_SPAN_TOL)
        // is a genuine tie-set member and certifies.
        assert!(
            tied_with_leak(1e-10)
                .certify_pivot_seed(&seed, 1e-3, PIVOT_DRIFT_TOL)
                .unwrap()
                .is_some(),
            "an in-span tied duplicate must certify"
        );
    }

    #[test]
    fn append_tied_duplicate_column_keeps_factor() {
        let a = correlated_matrix(6, 18, 23);
        let mut pqr = a.pivoted_qr().unwrap();
        let rank = pqr.rank_at(1e-6);
        let first = pqr.leading_columns(1)[0];
        // Appending an exact copy of the strongest pivot creates an
        // exact tie at step 0: certifiable under the tie-set rule.
        let dup = a.select_cols(&[first]);
        let fast = pqr.append_columns(&dup).unwrap();
        assert!(fast, "an exact-duplicate append is tie-certified");
        assert_eq!(pqr.rank_at(1e-6), rank, "tie must not change the rank");
        // The kept selection is tie-equivalent to a fresh greedy's:
        // it certifies as a pivot seed on the extended matrix.
        let mut kept = pqr.leading_columns(rank);
        kept.sort_unstable();
        assert!(
            pqr.matrix()
                .certify_pivot_seed(&kept, 1e-6, PIVOT_DRIFT_TOL)
                .unwrap()
                .is_some(),
            "kept selection must stay certified on the extended matrix"
        );
    }

    #[test]
    fn append_floor_is_scale_relative() {
        // A uniformly tiny-scaled matrix: two orthogonal directions at
        // 1e-10 plus dead columns, so the pivot chain stops early.
        let s = 1e-10;
        let mut a = Matrix::zeros(4, 4);
        a[(0, 0)] = s;
        a[(1, 1)] = s;
        let mut pqr = a.pivoted_qr().unwrap();
        assert_eq!(pqr.chain_len(), 2);
        // An appended column mixing the base with a genuinely new
        // direction that is large relative to the matrix scale but far
        // below the old absolute `EPSILON²` floor — the old check
        // certified "no chain extension" here and silently dropped the
        // new direction from the factor.
        let mut c = Matrix::zeros(4, 1);
        c[(0, 0)] = 0.5 * s;
        c[(2, 0)] = 1e-18;
        let fast = pqr.append_columns(&c).unwrap();
        assert!(!fast, "tiny-scale independent column must force a refactor");
        assert_eq!(
            pqr.chain_len(),
            3,
            "the chain must extend to the new direction"
        );
        assert_eq!(pqr.rank_at(1e-9), 3);
        assert_matches_fresh(&pqr, 1e-9);
    }

    #[test]
    fn pivoted_leading_columns_matches_full_factorisation() {
        let a = correlated_matrix(6, 20, 20);
        let pqr = a.pivoted_qr().unwrap();
        let rank = pqr.rank_at(1e-6);
        assert_eq!(
            a.pivoted_leading_columns(1e-6).unwrap(),
            pqr.leading_columns(rank)
        );
        assert_eq!(
            Matrix::zeros(3, 5).pivoted_leading_columns(0.5).unwrap(),
            Vec::<usize>::new()
        );
        assert!(a.pivoted_leading_columns(0.0).is_err());
        assert!(a.pivoted_leading_columns(1.0).is_err());
        assert!(Matrix::zeros(0, 0).pivoted_leading_columns(0.5).is_err());
    }

    #[test]
    fn chain_len_reflects_rank_deficiency() {
        let full = correlated_matrix(4, 10, 19);
        assert_eq!(full.pivoted_qr().unwrap().chain_len(), 4);
        let u = [1.0, 2.0, 3.0, 4.0];
        let v = [1.0, 0.5, -1.0, 2.0, 0.25];
        let rank1 = Matrix::outer(&u, &v);
        let pqr = rank1.pivoted_qr().unwrap();
        assert!(pqr.chain_len() >= 1);
        assert_eq!(pqr.rank_at(1e-9), 1);
    }
}
