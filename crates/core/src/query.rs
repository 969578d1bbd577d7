//! The prepared read path: publish-once dictionary structures for
//! localization queries (Sec. V, Eq. 26–27).
//!
//! Every structure a query needs — the centred dictionary and its
//! per-atom contiguous rows — depends only on the published fingerprint
//! database, so [`PreparedDictionary`] computes them once per publish
//! and every query after that runs against a reusable [`QueryScratch`].
//!
//! # The bit-identity contract
//!
//! The prepared pursuits are pinned to the unprepared scalar pursuit
//! (`Localizer::localize_unprepared`) by the `query_parity` tier:
//! identical estimates, residual bits included.
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
//!
//! Classic correlation matching (`AtomSelection::Correlation`) has no
//! prepared twin: [`PreparedDictionary::pursue`] centres the query and
//! hands it to `orthogonal_matching_pursuit`, the oracle itself, so it
//! answers identically by construction.

use iupdater_linalg::kernels::{sq_dist_block, sq_dist_row, BINARY_LANES};
use iupdater_linalg::Matrix;

use crate::config::{AtomSelection, LocalizerConfig};
use crate::omp::{orthogonal_matching_pursuit, OmpSolution};
use crate::{CoreError, Result};

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
}

impl PreparedDictionary {
    /// Prepares the query structures for one published database under
    /// `config`: centres the dictionary and transposes it into
    /// contiguous atom rows.
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
        PreparedDictionary {
            dictionary,
            atoms,
            row_means,
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

    /// Runs the configured pursuit for one raw query against the
    /// prepared structures, reusing `scratch` so the binary hot path
    /// performs no intermediate allocations. Correlation matching runs
    /// `orthogonal_matching_pursuit` on the centred query.
    ///
    /// # Errors
    ///
    /// A dimension mismatch; under correlation matching, whatever
    /// `orthogonal_matching_pursuit` returns (empty dictionary,
    /// `max_atoms == 0`, a singular support Gram).
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
        scratch.ensure(self.dictionary.cols());
        self.center_into(y, &mut scratch.centered);
        match config.selection {
            AtomSelection::BinaryResidual => Ok(self.binary_pursuit(config, scratch)),
            AtomSelection::Correlation => orthogonal_matching_pursuit(
                &self.dictionary,
                &scratch.centered,
                config.max_atoms,
                config.residual_threshold,
            ),
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
            residual,
            selected,
            dist,
            ..
        } = scratch;
        residual.clone_from(centered);
        selected[..n].fill(false);
        let mut support = Vec::new();
        let mut residual_sq: f64 = residual.iter().map(|r| r * r).sum();
        for _ in 0..config.max_atoms.min(n) {
            sq_dist_row(residual, self.dictionary.as_slice(), &mut dist[..n]);
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
            for (r, &a) in residual.iter_mut().zip(self.atoms.row(j_star)) {
                *r -= a;
            }
            residual_sq = residual.iter().map(|r| r * r).sum();
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
}

/// Reusable per-query working memory: sized once (per batch chunk),
/// reused across every query after that, so the binary pursuits
/// allocate nothing but their output.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// Centred query (length m).
    centered: Vec<f64>,
    /// Residual of the single-query binary pursuit (length m).
    residual: Vec<f64>,
    /// Selected-atom mask (length n).
    selected: Vec<bool>,
    /// Lane-interleaved residuals for the blocked binary pursuit
    /// (`m * BINARY_LANES`, element `[i * LANES + l]`).
    block_residual: Vec<f64>,
    /// Lane-interleaved selected-atom masks (`n * BINARY_LANES`).
    block_selected: Vec<bool>,
    /// Squared distances of one binary scan: `n` for the single-query
    /// pursuit, the `n x BINARY_LANES` table for the blocked one.
    dist: Vec<f64>,
}

impl QueryScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        QueryScratch::default()
    }

    /// Always `0`: no pursuit has a Cholesky step to fall back from.
    /// The binary pursuits solve nothing, and correlation matching
    /// runs `orthogonal_matching_pursuit`'s from-scratch solve. Kept
    /// so callers that report the count still compile.
    pub fn chol_fallbacks(&self) -> usize {
        0
    }

    /// Sizes the per-atom buffers for an `n`-atom dictionary. Growing
    /// is the only reallocation; repeat queries at the same shape
    /// reuse the buffers untouched.
    fn ensure(&mut self, n: usize) {
        if self.selected.len() < n {
            self.selected.resize(n, false);
        }
        if self.dist.len() < n {
            self.dist.resize(n, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn correlation_pursuit_is_scalar_omp() {
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
            assert_eq!(fast, slow, "query {q}");
        }
        assert_eq!(scratch.chol_fallbacks(), 0);
    }

    #[test]
    fn scratch_survives_shape_changes() {
        let mut rng = StdRng::seed_from_u64(43);
        let small = Matrix::from_fn(5, 8, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let large = Matrix::from_fn(11, 40, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        for config in [
            corr_config(2),
            LocalizerConfig {
                max_atoms: 3,
                ..LocalizerConfig::default()
            },
        ] {
            let ps = PreparedDictionary::prepare(&small, &config);
            let pl = PreparedDictionary::prepare(&large, &config);
            let mut scratch = QueryScratch::new();
            for (prep, m) in [(&ps, 5usize), (&pl, 11), (&ps, 5)] {
                let y: Vec<f64> = (0..m).map(|_| rng.gen::<f64>()).collect();
                let reused = prep.pursue(&y, &config, &mut scratch).unwrap();
                let fresh = prep.pursue(&y, &config, &mut QueryScratch::new()).unwrap();
                assert_eq!(reused, fresh, "{:?} at m = {m}", config.selection);
            }
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
