//! The prepared read path: publish-once dictionary structures and
//! batch-OMP for localization queries (Sec. V, Eq. 26–27).
//!
//! Every structure OMP needs per query — the centred dictionary, its
//! column norms, the per-atom contiguous rows, and (for correlation
//! refits) the Gram matrix `DᵀD` — depends only on the published
//! fingerprint database, so [`PreparedDictionary`] computes them once
//! per publish and every query after that runs allocation-free against
//! a reusable [`QueryScratch`].
//!
//! # The bit-identity contract
//!
//! The fast paths here are pinned to the unprepared scalar pursuit
//! (`Localizer::localize_unprepared`) by the `query_parity` tier:
//! identical supports and grid estimates, coefficients within 1e-12.
//! Three mechanisms make that hold:
//!
//! 1. **Kernel-routed correlation.** Atom selection's `Dᵀr` product
//!    runs as one `(1 x m) · (m x n)` multiply through the shape
//!    dispatcher in `iupdater_linalg::kernels` (the short-fat /
//!    tiny-inner arms), whose accumulation-order contract computes
//!    every output element as the same ascending-index sum as the
//!    scalar per-column loop — bit-identical selection scores.
//! 2. **Cached Gram gathers.** The support Gram and right-hand side
//!    are *gathered* from `DᵀD` and `α⁰ = Dᵀy` instead of recomputed
//!    with `select_cols`/`gram` per step; every gathered entry is the
//!    same ascending-row sum the per-step rebuild produces, so the
//!    fallback solve below sees bit-identical inputs.
//! 3. **Drift-rule fallback.** The per-step least-squares re-fit
//!    extends a Cholesky factor of the support Gram by one rank
//!    instead of refactoring; any extension whose relative pivot falls
//!    at or below [`QUERY_CHOL_TOL`] abandons the factor and falls
//!    back to the existing from-scratch LU solve on the gathered Gram
//!    — bit-identical to the unprepared step. Fast paths change cost,
//!    never answers.
//!
//! One deliberate non-normalisation: atoms are stored *unnormalised*
//! with their norms alongside, because the selection score must stay
//! the exact expression `|⟨r, x⟩| / ‖x‖` of the scalar path — scoring
//! against pre-normalised atoms (`⟨r, x/‖x‖⟩`) rounds differently and
//! would break bit-identical selection.
//!
//! The binary-residual mode (the default, Eq. 26's `W ∈ {0,1}`
//! model) has no least-squares step: each step is one squared-distance
//! scan `‖r − x_j‖²` over every atom, run by the L1 distance kernels
//! (`kernels::sq_dist_row` for one query over the links x cells
//! dictionary, `kernels::sq_dist_block` for [`BINARY_LANES`]
//! lane-interleaved queries over the contiguous atom rows). Both
//! compute every distance as the same ascending-link chain as the
//! strided column walk of the unprepared path, so the pursuit keeps
//! only the argmin, the selected mask and the residual guard — and
//! changes no bit.

use iupdater_linalg::kernels::{sq_dist_block, sq_dist_row, BINARY_LANES};
use iupdater_linalg::Matrix;

use crate::config::{AtomSelection, LocalizerConfig};
use crate::omp::{dead_atom_floor, OmpSolution};
use crate::{CoreError, Result};

/// Relative-pivot tolerance of the incremental Cholesky update: an
/// extension whose Schur pivot `d` satisfies
/// `d <= QUERY_CHOL_TOL * G[j,j]` is ill-conditioned, and the re-fit
/// falls back to the from-scratch LU solve on the gathered support
/// Gram for the rest of the query. Same drift-rule family as
/// `iupdater_linalg::qr::PIVOT_DRIFT_TOL`.
pub const QUERY_CHOL_TOL: f64 = 1e-8;

/// Queries per scratch in [`crate::Localizer::localize_batch`]: the
/// slab is split into fixed chunks of this many queries, one reusable
/// [`QueryScratch`] per chunk, fanned across the persistent worker
/// pool. Fixed chunk boundaries plus the pool's input-order
/// reassembly keep batch results identical at any worker count.
pub const QUERY_CHUNK: usize = 64;

/// Publish-once query structures over one fingerprint database.
#[derive(Debug, Clone)]
pub struct PreparedDictionary {
    /// The (possibly centred) dictionary, links x locations.
    dictionary: Matrix,
    /// Transposed dictionary: row `j` is atom `j`, contiguous.
    atoms: Matrix,
    /// Per-link means subtracted from dictionary and queries when
    /// centring is enabled (empty means centring is off).
    row_means: Vec<f64>,
    /// Column norms `‖x_j‖` (the selection-score denominators).
    col_norms: Vec<f64>,
    /// Scale-relative dead-atom floor shared with the unprepared path.
    dead_floor: f64,
    /// Cached Gram `DᵀD`, built when correlation re-fits will gather
    /// from it (multi-atom correlation mode). Single-atom supports
    /// touch only diagonal entries, gathered on demand instead.
    gram: Option<Matrix>,
}

impl PreparedDictionary {
    /// Prepares the query structures for one published database under
    /// `config`: centres the dictionary, transposes it into contiguous
    /// atom rows, computes column norms and the dead-atom floor, and
    /// caches the Gram when the configured pursuit will gather support
    /// Grams from it.
    pub fn prepare(x: &Matrix, config: &LocalizerConfig) -> Self {
        let row_means: Vec<f64> = if config.center {
            (0..x.rows())
                .map(|i| x.row(i).iter().sum::<f64>() / x.cols() as f64)
                .collect()
        } else {
            Vec::new()
        };
        let dictionary = if config.center {
            Matrix::from_fn(x.rows(), x.cols(), |i, j| x[(i, j)] - row_means[i])
        } else {
            x.clone()
        };
        let atoms = dictionary.transpose();
        let col_norms = dictionary.col_norms();
        let dead_floor = dead_atom_floor(&col_norms);
        let gram = (config.selection == AtomSelection::Correlation && config.max_atoms > 1)
            .then(|| dictionary.gram());
        PreparedDictionary {
            dictionary,
            atoms,
            row_means,
            col_norms,
            dead_floor,
            gram,
        }
    }

    /// The (possibly centred) dictionary, links x locations.
    pub fn dictionary(&self) -> &Matrix {
        &self.dictionary
    }

    /// The transposed dictionary: row `j` is atom `j`, contiguous.
    pub fn atoms(&self) -> &Matrix {
        &self.atoms
    }

    /// Column norms of the dictionary.
    pub fn col_norms(&self) -> &[f64] {
        &self.col_norms
    }

    /// The cached Gram `DᵀD`, when built at publish time.
    pub fn gram(&self) -> Option<&Matrix> {
        self.gram.as_ref()
    }

    /// Centres one raw query, allocating — the unprepared oracle's
    /// entry point, so both paths share one centring expression.
    pub fn center_query(&self, y: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(y.len());
        self.center_into(y, &mut out);
        out
    }

    /// Centres a raw query into `out` (or copies it when centring is
    /// off). The arithmetic is the exact per-element subtraction of
    /// the unprepared path.
    fn center_into(&self, y: &[f64], out: &mut Vec<f64>) {
        out.clear();
        if self.row_means.is_empty() {
            out.extend_from_slice(y);
        } else {
            out.extend(y.iter().zip(&self.row_means).map(|(v, m)| v - m));
        }
    }

    /// One support-Gram entry `⟨x_a, x_b⟩`: gathered from the cached
    /// Gram when present, otherwise the same ascending-index dot over
    /// the contiguous atom rows — identical bits either way.
    fn gram_entry(&self, a: usize, b: usize) -> f64 {
        match &self.gram {
            Some(g) => g[(a, b)],
            None => Matrix::dot(self.atoms.row(a), self.atoms.row(b)),
        }
    }

    /// Runs the configured pursuit for one raw query against the
    /// prepared structures, reusing `scratch` so the hot path performs
    /// no intermediate allocations.
    ///
    /// # Errors
    ///
    /// Mirrors `orthogonal_matching_pursuit`: dimension mismatch,
    /// empty dictionary, `max_atoms == 0`, or a singular support Gram
    /// on the fallback solve.
    pub fn pursue(
        &self,
        y: &[f64],
        config: &LocalizerConfig,
        scratch: &mut QueryScratch,
    ) -> Result<OmpSolution> {
        if y.len() != self.dictionary.rows() {
            return Err(CoreError::DimensionMismatch {
                context: "query",
                expected: format!("{} measurements", self.dictionary.rows()),
                got: format!("{}", y.len()),
            });
        }
        scratch.ensure(self.dictionary.rows(), self.dictionary.cols(), config);
        self.center_into(y, &mut scratch.centered);
        match config.selection {
            AtomSelection::BinaryResidual => Ok(self.binary_pursuit(config, scratch)),
            AtomSelection::Correlation => self.batch_omp(config, scratch),
        }
    }

    /// [`BINARY_LANES`] binary pursuits advanced in lockstep: each step
    /// is one [`sq_dist_block`] pass over the atom rows into an
    /// `n x BINARY_LANES` distance table, then a per-lane argmin.
    /// Every table entry is the exact ascending-link chain of
    /// [`Self::binary_pursuit`], so each query's selections, support
    /// and residual are bit-identical to its single-query run.
    ///
    /// `ys` must hold exactly [`BINARY_LANES`] queries of dictionary
    /// row length (the caller validates lengths).
    pub(crate) fn binary_pursuit_block(
        &self,
        ys: &[Vec<f64>],
        config: &LocalizerConfig,
        scratch: &mut QueryScratch,
    ) -> Vec<OmpSolution> {
        const L: usize = BINARY_LANES;
        debug_assert_eq!(ys.len(), L);
        let m = self.dictionary.rows();
        let n = self.dictionary.cols();
        let QueryScratch {
            block_residual,
            block_selected,
            dist,
            ..
        } = scratch;
        block_residual.resize(m * L, 0.0);
        block_selected.clear();
        block_selected.resize(n * L, false);
        dist.resize(n * L, 0.0);
        let (residual, selected) = (&mut block_residual[..], &mut block_selected[..]);
        // Centre straight into the interleaved layout — the same
        // per-element subtraction as the scalar path.
        for i in 0..m {
            let base = i * L;
            for (l, y) in ys.iter().enumerate() {
                residual[base + l] = if self.row_means.is_empty() {
                    y[i]
                } else {
                    y[i] - self.row_means[i]
                };
            }
        }
        let lane_sq = |residual: &[f64], l: usize| -> f64 {
            (0..m)
                .map(|i| {
                    let r = residual[i * L + l];
                    r * r
                })
                .sum()
        };
        let mut support: Vec<Vec<usize>> = vec![Vec::new(); L];
        let mut residual_sq: Vec<f64> = (0..L).map(|l| lane_sq(residual, l)).collect();
        let mut active = [true; L];
        for _ in 0..config.max_atoms.min(n) {
            if !active.iter().any(|&a| a) {
                break;
            }
            sq_dist_block(residual, self.atoms.as_slice(), dist);
            let mut best_dist = [f64::INFINITY; L];
            let mut best_j = [usize::MAX; L];
            for (j, (d, sel)) in dist
                .chunks_exact(L)
                .zip(selected.chunks_exact(L))
                .enumerate()
            {
                for l in 0..L {
                    if active[l] && !sel[l] && d[l] < best_dist[l] {
                        best_dist[l] = d[l];
                        best_j[l] = j;
                    }
                }
            }
            for l in 0..L {
                if !active[l] {
                    continue;
                }
                let j_star = best_j[l];
                // Stop when nothing is selectable, or when the best
                // atom does not reduce the residual (the unprepared
                // guard; `residual_sq[l]` is its `Σ r²` bit for bit).
                if j_star == usize::MAX
                    || (best_dist[l] >= residual_sq[l] && !support[l].is_empty())
                {
                    active[l] = false;
                    continue;
                }
                support[l].push(j_star);
                selected[j_star * L + l] = true;
                for (i, &a) in self.atoms.row(j_star).iter().enumerate() {
                    residual[i * L + l] -= a;
                }
                residual_sq[l] = lane_sq(residual, l);
                if residual_sq[l] < config.residual_threshold {
                    active[l] = false;
                }
            }
        }
        support
            .into_iter()
            .zip(residual_sq)
            .map(|(s, rsq)| {
                let coefficients = vec![1.0; s.len()];
                OmpSolution {
                    support: s,
                    coefficients,
                    residual_sq: rsq,
                }
            })
            .collect()
    }

    /// Greedy binary pursuit (Eq. 26's unit-coefficient model): each
    /// step is one [`sq_dist_row`] pass over the links x cells
    /// dictionary — `‖r − x_j‖₂²` for every atom in the ascending-link
    /// order of the unprepared path's column walk — then the argmin
    /// over unselected atoms. Bit-identical selections.
    fn binary_pursuit(&self, config: &LocalizerConfig, scratch: &mut QueryScratch) -> OmpSolution {
        let n = self.dictionary.cols();
        let QueryScratch {
            centered,
            residual_row: residual,
            selected,
            dist,
            ..
        } = scratch;
        residual.as_mut_slice().copy_from_slice(centered);
        selected[..n].fill(false);
        let mut support = Vec::new();
        let mut residual_sq: f64 = residual.as_slice().iter().map(|r| r * r).sum();
        for _ in 0..config.max_atoms.min(n) {
            sq_dist_row(
                residual.as_slice(),
                self.dictionary.as_slice(),
                &mut dist[..n],
            );
            let mut best = None;
            let mut best_dist = f64::INFINITY;
            for (j, (&d, &sel)) in dist[..n].iter().zip(&selected[..n]).enumerate() {
                if !sel && d < best_dist {
                    best_dist = d;
                    best = Some(j);
                }
            }
            let Some(j_star) = best else { break };
            // Only keep the atom if it actually reduces the residual:
            // the unprepared guard, whose `Σ r²` over the current
            // residual is bitwise `residual_sq`.
            if best_dist >= residual_sq && !support.is_empty() {
                break;
            }
            support.push(j_star);
            selected[j_star] = true;
            let rm = residual.as_mut_slice();
            for (r, &a) in rm.iter_mut().zip(self.atoms.row(j_star)) {
                *r -= a;
            }
            residual_sq = rm.iter().map(|r| r * r).sum();
            if residual_sq < config.residual_threshold {
                break;
            }
        }
        let coefficients = vec![1.0; support.len()];
        OmpSolution {
            support,
            coefficients,
            residual_sq,
        }
    }

    /// Batch-OMP (classic correlation selection): kernel-routed `Dᵀr`
    /// selection, rhs gathered from the `α⁰ = Dᵀy` cache, and the
    /// support solve driven by an incrementally extended Cholesky
    /// factor with the [`QUERY_CHOL_TOL`] fallback.
    fn batch_omp(
        &self,
        config: &LocalizerConfig,
        scratch: &mut QueryScratch,
    ) -> Result<OmpSolution> {
        if self.dictionary.is_empty() {
            return Err(CoreError::InvalidArgument("empty dictionary"));
        }
        if config.max_atoms == 0 {
            return Err(CoreError::InvalidArgument("max_atoms must be >= 1"));
        }
        let m = self.dictionary.rows();
        let n = self.dictionary.cols();
        let kmax = config.max_atoms.min(n);
        let QueryScratch {
            centered,
            residual_row,
            corr,
            alpha0,
            selected,
            chol,
            rhs,
            solve_buf,
            coeffs,
            fit,
            chol_fallbacks,
            ..
        } = scratch;
        residual_row.as_mut_slice().copy_from_slice(centered);
        selected[..n].fill(false);
        // α⁰ = Dᵀy: one kernel-routed product; it is also the first
        // iteration's correlation vector (the residual starts at y).
        residual_row
            .matmul_into(&self.dictionary, corr)
            .map_err(CoreError::from)?;
        alpha0[..n].copy_from_slice(corr.as_slice());

        let mut support: Vec<usize> = Vec::new();
        let mut residual_sq: f64 = residual_row.as_slice().iter().map(|r| r * r).sum();
        let mut chol_ok = true;
        for step in 0..kmax {
            // Selection: normalised correlation with the residual,
            // recomputed through the kernel dispatcher after step 0.
            if step > 0 {
                residual_row
                    .matmul_into(&self.dictionary, corr)
                    .map_err(CoreError::from)?;
            }
            let scores = corr.as_slice();
            let mut best = None;
            let mut best_score = 0.0_f64;
            for j in 0..n {
                if selected[j] || self.col_norms[j] <= self.dead_floor {
                    continue;
                }
                let score = scores[j].abs() / self.col_norms[j];
                if score > best_score {
                    best_score = score;
                    best = Some(j);
                }
            }
            let Some(j_star) = best else { break };
            support.push(j_star);
            selected[j_star] = true;
            let k = support.len();
            rhs[k - 1] = alpha0[j_star];

            // Extend the Cholesky factor of the support Gram by one
            // rank: solve L w = g_cross, pivot d = G[j*,j*] − ‖w‖².
            if chol_ok {
                let q = k - 1;
                for (i, &s) in support[..q].iter().enumerate() {
                    let g = self.gram_entry(s, j_star);
                    let mut sum = g;
                    for p in 0..i {
                        sum -= chol[q * kmax + p] * chol[i * kmax + p];
                    }
                    chol[q * kmax + i] = sum / chol[i * kmax + i];
                }
                let g_diag = self.gram_entry(j_star, j_star);
                let mut d = g_diag;
                for p in 0..q {
                    let w = chol[q * kmax + p];
                    d -= w * w;
                }
                if d <= QUERY_CHOL_TOL * g_diag {
                    // Ill-conditioned extension: abandon the factor
                    // for the rest of this query (drift rule).
                    chol_ok = false;
                    *chol_fallbacks += 1;
                } else {
                    chol[q * kmax + q] = d.sqrt();
                }
            }
            if chol_ok {
                // Solve L Lᵀ w = rhs with the extended factor.
                for i in 0..k {
                    let mut s = rhs[i];
                    for p in 0..i {
                        s -= chol[i * kmax + p] * solve_buf[p];
                    }
                    solve_buf[i] = s / chol[i * kmax + i];
                }
                for i in (0..k).rev() {
                    let mut s = solve_buf[i];
                    for p in i + 1..k {
                        s -= chol[p * kmax + i] * coeffs[p];
                    }
                    coeffs[i] = s / chol[i * kmax + i];
                }
            } else {
                // From-scratch fallback: LU on the gathered support
                // Gram — bit-identical inputs, hence bit-identical
                // coefficients, to the unprepared per-step rebuild.
                let g = Matrix::from_fn(k, k, |a, b| self.gram_entry(support[a], support[b]));
                let solved = g.solve(&rhs[..k])?;
                coeffs[..k].copy_from_slice(&solved);
            }

            // Residual update r = y − Σ_k x_{s_k} w_k, accumulated in
            // ascending selection order per element (the unprepared
            // expression, swept as cache-friendly axpy passes).
            fit[..m].fill(0.0);
            for (k2, &s) in support.iter().enumerate() {
                let c = coeffs[k2];
                let row = self.atoms.row(s);
                for i in 0..m {
                    fit[i] += row[i] * c;
                }
            }
            let rm = residual_row.as_mut_slice();
            for i in 0..m {
                rm[i] = centered[i] - fit[i];
            }
            residual_sq = rm.iter().map(|r| r * r).sum();
            if residual_sq < config.residual_threshold {
                break;
            }
        }
        let coefficients = coeffs[..support.len()].to_vec();
        Ok(OmpSolution {
            support,
            coefficients,
            residual_sq,
        })
    }
}

/// Reusable per-query working memory: sized once (per batch chunk),
/// reused across every query after that, so the pursuit hot paths
/// allocate nothing but their output.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// Centred query (length m).
    centered: Vec<f64>,
    /// Residual as a 1 x m matrix — the left operand of the
    /// kernel-routed correlation product.
    residual_row: Matrix,
    /// Correlation row `rᵀD` (1 x n).
    corr: Matrix,
    /// `α⁰ = Dᵀy` cache (length n).
    alpha0: Vec<f64>,
    /// Selected-atom mask (length n).
    selected: Vec<bool>,
    /// Lower Cholesky factor of the support Gram, row-major with
    /// stride `max_atoms`.
    chol: Vec<f64>,
    /// Gathered right-hand side `α⁰[support]`.
    rhs: Vec<f64>,
    /// Forward-substitution workspace.
    solve_buf: Vec<f64>,
    /// Working coefficients over the support.
    coeffs: Vec<f64>,
    /// Fitted signal Σ x_{s_k} w_k (length m).
    fit: Vec<f64>,
    /// Lane-interleaved residuals for the blocked binary pursuit
    /// (`m * BINARY_LANES`, element `[i * LANES + l]`).
    block_residual: Vec<f64>,
    /// Lane-interleaved selected-atom masks (`n * BINARY_LANES`).
    block_selected: Vec<bool>,
    /// Squared distances of one binary scan: `n` for the single-query
    /// pursuit, the `n x BINARY_LANES` table for the blocked one.
    dist: Vec<f64>,
    /// How many ill-conditioned Cholesky extensions fell back to the
    /// from-scratch solve through this scratch (observability for the
    /// `query_parity` tier: the fallback must demonstrably fire).
    chol_fallbacks: usize,
}

impl QueryScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        QueryScratch::default()
    }

    /// How many queries through this scratch hit the ill-conditioned
    /// Cholesky extension and fell back to the from-scratch solve.
    pub fn chol_fallbacks(&self) -> usize {
        self.chol_fallbacks
    }

    /// Sizes every buffer for an `m x n` dictionary under `config`.
    /// Growing is the only reallocation; repeat queries at the same
    /// shape reuse the buffers untouched.
    fn ensure(&mut self, m: usize, n: usize, config: &LocalizerConfig) {
        let kmax = config.max_atoms.min(n).max(1);
        if self.residual_row.shape() != (1, m) {
            self.residual_row = Matrix::zeros(1, m);
        }
        if self.corr.shape() != (1, n) {
            self.corr = Matrix::zeros(1, n);
        }
        if self.alpha0.len() < n {
            self.alpha0.resize(n, 0.0);
        }
        if self.selected.len() < n {
            self.selected.resize(n, false);
        }
        if self.dist.len() < n {
            self.dist.resize(n, 0.0);
        }
        if self.chol.len() < kmax * kmax {
            self.chol.resize(kmax * kmax, 0.0);
        }
        if self.rhs.len() < kmax {
            self.rhs.resize(kmax, 0.0);
            self.solve_buf.resize(kmax, 0.0);
            self.coeffs.resize(kmax, 0.0);
        }
        if self.fit.len() < m {
            self.fit.resize(m, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omp::orthogonal_matching_pursuit;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn corr_config(max_atoms: usize) -> LocalizerConfig {
        LocalizerConfig {
            selection: AtomSelection::Correlation,
            max_atoms,
            residual_threshold: 1e-12,
            center: false,
        }
    }

    #[test]
    fn gram_cached_only_for_multi_atom_correlation() {
        let x = Matrix::from_fn(4, 6, |i, j| (i * 7 + j) as f64 * 0.1);
        assert!(PreparedDictionary::prepare(&x, &corr_config(3))
            .gram()
            .is_some());
        assert!(PreparedDictionary::prepare(&x, &corr_config(1))
            .gram()
            .is_none());
        assert!(
            PreparedDictionary::prepare(&x, &LocalizerConfig::default())
                .gram()
                .is_none(),
            "binary-residual mode never needs the Gram cache"
        );
    }

    #[test]
    fn gram_entry_identical_with_and_without_cache() {
        let mut rng = StdRng::seed_from_u64(41);
        let x = Matrix::from_fn(7, 9, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let cached = PreparedDictionary::prepare(&x, &corr_config(3));
        let lazy = PreparedDictionary::prepare(&x, &corr_config(1));
        for a in 0..9 {
            for b in 0..9 {
                assert_eq!(
                    cached.gram_entry(a, b).to_bits(),
                    lazy.gram_entry(a, b).to_bits(),
                    "({a},{b})"
                );
            }
        }
    }

    #[test]
    fn batch_omp_matches_scalar_omp_bitwise() {
        let mut rng = StdRng::seed_from_u64(42);
        let x = Matrix::from_fn(12, 30, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let config = corr_config(4);
        let prep = PreparedDictionary::prepare(&x, &config);
        let mut scratch = QueryScratch::new();
        for q in 0..16u64 {
            let mut qr = StdRng::seed_from_u64(100 + q);
            let y: Vec<f64> = (0..12).map(|_| qr.gen::<f64>() * 2.0 - 1.0).collect();
            let fast = prep.pursue(&y, &config, &mut scratch).unwrap();
            let slow = orthogonal_matching_pursuit(&x, &y, 4, 1e-12).unwrap();
            assert_eq!(fast.support, slow.support, "query {q}");
            for (a, b) in fast.coefficients.iter().zip(&slow.coefficients) {
                assert!((a - b).abs() <= 1e-12, "query {q}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn scratch_survives_shape_changes() {
        let mut rng = StdRng::seed_from_u64(43);
        let small = Matrix::from_fn(5, 8, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let large = Matrix::from_fn(11, 40, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let config = corr_config(2);
        let ps = PreparedDictionary::prepare(&small, &config);
        let pl = PreparedDictionary::prepare(&large, &config);
        let mut scratch = QueryScratch::new();
        for (prep, m) in [(&ps, 5usize), (&pl, 11), (&ps, 5)] {
            let y: Vec<f64> = (0..m).map(|_| rng.gen::<f64>()).collect();
            let fast = prep.pursue(&y, &config, &mut scratch).unwrap();
            let slow =
                orthogonal_matching_pursuit(if m == 5 { &small } else { &large }, &y, 2, 1e-12)
                    .unwrap();
            assert_eq!(fast.support, slow.support);
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let x = Matrix::from_fn(4, 6, |i, j| (i + j) as f64);
        let config = corr_config(2);
        let prep = PreparedDictionary::prepare(&x, &config);
        let mut scratch = QueryScratch::new();
        assert!(prep.pursue(&[1.0; 3], &config, &mut scratch).is_err());
    }
}
