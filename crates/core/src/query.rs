//! The prepared read path: publish-once dictionary structures for
//! localization queries (Sec. V, Eq. 26–27).
//!
//! Every structure a query needs — the centred dictionary and the
//! certified scan's f32 filter input — depends only on the published
//! fingerprint database, so [`PreparedDictionary`] computes them once
//! per publish and every query after that runs against a reusable
//! [`QueryScratch`].
//!
//! # The bit-identity contract
//!
//! The prepared pursuits are pinned to the unprepared scalar pursuit
//! (`Localizer::localize_unprepared`) by the `query_parity` tier:
//! identical estimates, residual bits included.
//!
//! The binary-residual mode (the default, Eq. 26's `W ∈ {0,1}`
//! model) has no least-squares step: each step is one nearest-atom
//! scan `‖r − x_j‖²` over every atom of the links x cells dictionary,
//! run by the L1 kernels. One query takes `kernels::sq_dist_row`, the
//! one exact distance kernel, then an argmin over the distances.
//! [`BINARY_LANES`] lane-interleaved queries take
//! `kernels::nearest_block`, a certified single-precision dot-product
//! filter that returns each lane's first minimum directly: it proves
//! its winner with a rounding-error bound, recomputes that one
//! distance as the exact chain, and answers a lane whose certificate
//! fails with `sq_dist_row`. Both return the ascending-link chain of the
//! unprepared path's strided column walk and its first strict-`<`
//! minimum, so the pursuit keeps only the selected masks and the
//! residual guard — and changes no bit.
//!
//! Classic correlation matching (`AtomSelection::Correlation`) has no
//! prepared twin: [`PreparedDictionary::pursue`] centres the query and
//! hands it to `orthogonal_matching_pursuit`, the oracle itself, so it
//! answers identically by construction.

use std::cell::Cell;

use iupdater_linalg::kernels::{nearest_block, sq_dist_row, FilterAtoms, BINARY_LANES};
use iupdater_linalg::Matrix;

use crate::config::{AtomSelection, LocalizerConfig};
use crate::localize::{LocationEstimate, NO_ATOM_SELECTED};
use crate::omp::{orthogonal_matching_pursuit, OmpSolution};
use crate::{CoreError, Result};

/// Queries per scratch in [`crate::Localizer::localize_batch`]: the
/// slab is split into fixed chunks of this many queries, one reusable
/// [`QueryScratch`] per chunk, fanned across the persistent worker
/// pool. Fixed chunk boundaries plus the pool's input-order
/// reassembly keep batch results identical at any worker count.
pub const QUERY_CHUNK: usize = 64;

/// The per-link centring of one fingerprint database: the row means
/// and the centred dictionary. Raw RSS vectors share a large common
/// negative level; centring makes the matching step discriminative.
/// The localizer's [`PreparedDictionary`] and the tracker's emission
/// scores share it; only the localizer builds the certified scan's
/// filter input on top.
#[derive(Debug, Clone)]
pub(crate) struct CenteredDictionary {
    /// The centred dictionary, links x locations.
    dictionary: Matrix,
    /// Per-link means subtracted from dictionary and queries.
    row_means: Vec<f64>,
}

impl CenteredDictionary {
    /// Centres every link (row) of `x` on its mean over the locations.
    pub(crate) fn new(x: &Matrix) -> Self {
        let row_means: Vec<f64> = (0..x.rows())
            .map(|i| x.row(i).iter().sum::<f64>() / x.cols() as f64)
            .collect();
        let dictionary = Matrix::from_fn(x.rows(), x.cols(), |i, j| x[(i, j)] - row_means[i]);
        CenteredDictionary {
            dictionary,
            row_means,
        }
    }

    /// The centred dictionary, links x locations.
    pub(crate) fn dictionary(&self) -> &Matrix {
        &self.dictionary
    }

    /// Centres one raw query, allocating.
    pub(crate) fn center_query(&self, y: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(y.len());
        self.center_into(y, &mut out);
        out
    }

    /// Centres a raw query into `out`: the one per-element subtraction
    /// every read path and the tracker share.
    fn center_into(&self, y: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(y.iter().zip(&self.row_means).map(|(v, m)| v - m));
    }
}

/// Publish-once query structures over one fingerprint database.
#[derive(Debug, Clone)]
pub struct PreparedDictionary {
    /// The centred dictionary and its row means.
    centered: CenteredDictionary,
    /// The f32 copy of the centred dictionary, its squared norms and
    /// the largest f64 atom norm: the certified scan's filter input,
    /// built once per publish.
    filter: FilterAtoms,
}

impl PreparedDictionary {
    /// Prepares the query structures for one published database:
    /// centres the dictionary and builds its f32 filter input.
    pub fn prepare(x: &Matrix) -> Self {
        let centered = CenteredDictionary::new(x);
        let filter = FilterAtoms::new(centered.dictionary.as_slice(), x.cols());
        PreparedDictionary { centered, filter }
    }

    /// The centred dictionary, links x locations.
    pub fn dictionary(&self) -> &Matrix {
        self.centered.dictionary()
    }

    /// Centres one raw query, allocating — the unprepared oracle's
    /// entry point, so both paths share one centring expression.
    pub fn center_query(&self, y: &[f64]) -> Vec<f64> {
        self.centered.center_query(y)
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
        let dictionary = self.dictionary();
        if y.len() != dictionary.rows() {
            return Err(CoreError::DimensionMismatch {
                context: "query",
                expected: format!("{} measurements", dictionary.rows()),
                got: format!("{}", y.len()),
            });
        }
        scratch.ensure(dictionary.cols());
        self.centered.center_into(y, &mut scratch.centered);
        match config.selection {
            AtomSelection::BinaryResidual => Ok(self.binary_pursuit(config, scratch)),
            AtomSelection::Correlation => orthogonal_matching_pursuit(
                dictionary,
                &scratch.centered,
                config.max_atoms,
                config.residual_threshold,
            ),
        }
    }

    /// [`BINARY_LANES`] binary pursuits advanced in lockstep, each
    /// lane's estimate appended to `out` in lane order: each step is
    /// one [`nearest_block`] pass over the dictionary, which returns
    /// every lane's nearest atom not yet selected by that lane (bit
    /// `l` of `block_excluded[j]`). Every distance is the exact
    /// ascending-link chain of [`Self::binary_pursuit`] and the minimum
    /// is its first strict-`<` one, so each query's selections, support
    /// and residual are bit-identical to its single-query run. A lane
    /// that has stopped is excluded from every atom before the next
    /// pass, so that pass neither certifies nor rescans it; the lanes
    /// whose certificate failed are added to the scratch's count.
    ///
    /// The lanes' state is fixed-size: their `Σ r²` (the residual
    /// guard's, which is also what the certificate reads; after a step
    /// it is the winner's distance, the same chain over the new
    /// residual) and their supports, each allocated once at its final
    /// capacity and moved into its estimate.
    ///
    /// `ys` must hold exactly [`BINARY_LANES`] queries of dictionary
    /// row length (the caller validates lengths).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for the first lane that selected
    /// no atom (nothing selectable), as `Localizer::localize` reports
    /// it; the lanes before it are already in `out`.
    pub(crate) fn binary_pursuit_block(
        &self,
        ys: &[Vec<f64>],
        config: &LocalizerConfig,
        scratch: &mut QueryScratch,
        out: &mut Vec<LocationEstimate>,
    ) -> Result<()> {
        const L: usize = BINARY_LANES;
        debug_assert_eq!(ys.len(), L);
        let CenteredDictionary {
            dictionary,
            row_means,
        } = &self.centered;
        let (m, n) = dictionary.shape();
        let dictionary = dictionary.as_slice();
        let QueryScratch {
            block_residual,
            block_excluded,
            dist,
            uncertified,
            ..
        } = scratch;
        block_residual.resize(m * L, 0.0);
        block_excluded.clear();
        block_excluded.resize(n, 0);
        let (residual, excluded) = (&mut block_residual[..], &mut block_excluded[..]);
        // Centre straight into the interleaved layout — the same
        // per-element subtraction as the scalar path.
        for (i, &mean) in row_means.iter().enumerate() {
            let base = i * L;
            for (l, y) in ys.iter().enumerate() {
                residual[base + l] = y[i] - mean;
            }
        }
        // A lane's `Σ r²` as the distance kernels' chain, seeded at +0.0.
        let lane_sq = |residual: &[f64], l: usize| -> f64 {
            (0..m).fold(0.0, |s, i| {
                let r = residual[i * L + l];
                s + r * r
            })
        };
        let steps = config.max_atoms.min(n);
        let mut support: [Vec<usize>; L] = core::array::from_fn(|_| Vec::with_capacity(steps));
        let mut residual_sq: [f64; L] = core::array::from_fn(|l| lane_sq(residual, l));
        let mut active = [true; L];
        let mut stopped = 0_u8;
        for _ in 0..steps {
            if !active.iter().any(|&a| a) {
                break;
            }
            if stopped != 0 {
                for ex in excluded.iter_mut() {
                    *ex |= stopped;
                }
                stopped = 0;
            }
            let ((best_dist, best_j), fell_back) = nearest_block(
                residual,
                &residual_sq,
                dictionary,
                &self.filter,
                excluded,
                dist,
            );
            *uncertified += fell_back.count_ones() as usize;
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
                    stopped |= 1 << l;
                    continue;
                }
                support[l].push(j_star);
                excluded[j_star] |= 1 << l;
                for i in 0..m {
                    residual[i * L + l] -= dictionary[i * n + j_star];
                }
                // The winner's distance is the chain `t = r − x; s += t·t`
                // over the subtraction just stored: the new `Σ r²`, bit
                // for bit.
                residual_sq[l] = best_dist[l];
                debug_assert_eq!(residual_sq[l].to_bits(), lane_sq(residual, l).to_bits());
                if residual_sq[l] < config.residual_threshold {
                    active[l] = false;
                    stopped |= 1 << l;
                }
            }
        }
        for (support, residual_sq) in support.into_iter().zip(residual_sq) {
            let grid = *support
                .first()
                .ok_or(CoreError::InvalidArgument(NO_ATOM_SELECTED))?;
            out.push(LocationEstimate {
                grid,
                coefficients: vec![1.0; support.len()],
                support,
                residual_sq,
            });
        }
        Ok(())
    }

    /// Greedy binary pursuit (Eq. 26's unit-coefficient model): each
    /// step is one [`sq_dist_row`] pass over the links x cells
    /// dictionary — `‖r − x_j‖₂²` for every atom in the ascending-link
    /// order of the unprepared path's column walk — then the argmin
    /// over unselected atoms. Bit-identical selections; the winner's
    /// distance is the next residual's `Σ r²`, so it is not re-summed.
    fn binary_pursuit(&self, config: &LocalizerConfig, scratch: &mut QueryScratch) -> OmpSolution {
        let dictionary = self.dictionary();
        let n = dictionary.cols();
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
            sq_dist_row(residual, dictionary.as_slice(), &mut dist[..n]);
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
            for (i, r) in residual.iter_mut().enumerate() {
                *r -= dictionary[(i, j_star)];
            }
            // The winner's distance is the new residual's `Σ r²` chain.
            residual_sq = best_dist;
            debug_assert_eq!(
                residual_sq.to_bits(),
                residual.iter().fold(0.0, |s, r| s + r * r).to_bits()
            );
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
    /// Per-atom lane masks of the blocked binary pursuit (length n):
    /// bit `l` is set once lane `l` has selected that atom.
    block_excluded: Vec<u8>,
    /// Squared distances of one single-query binary scan (length n);
    /// the blocked pursuit's fallback buffer (length m + n).
    dist: Vec<f64>,
    /// Lanes of the blocked pursuit whose nearest-atom certificate
    /// failed, so the exact fallback scan answered them.
    uncertified: usize,
}

impl QueryScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        QueryScratch::default()
    }

    /// Runs `f` on this thread's scratch: the single reads
    /// (`Localizer::localize`, `Localizer::localize_multi`) share one
    /// per thread, so a read allocates only its output. The scratch is
    /// taken out for the call and put back after it, so no borrow is
    /// held across the pursuit; a thread whose locals are being torn
    /// down runs `f` on a fresh one.
    pub(crate) fn with_thread_scratch<T>(mut f: impl FnMut(&mut QueryScratch) -> T) -> T {
        thread_local! {
            static SCRATCH: Cell<QueryScratch> = Cell::new(QueryScratch::new());
        }
        SCRATCH
            .try_with(|cell| {
                let mut scratch = cell.take();
                let out = f(&mut scratch);
                cell.set(scratch);
                out
            })
            .unwrap_or_else(|_| f(&mut QueryScratch::new()))
    }

    /// Lanes of the blocked binary pursuit, over every pass this
    /// scratch served, whose nearest-atom certificate failed (a
    /// near-tie between two atoms, or non-finite data) and which the
    /// exact fallback scan answered instead. The answers are the same
    /// either way; the count says how often the fast path missed.
    pub fn uncertified_lanes(&self) -> usize {
        self.uncertified
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
        }
    }

    #[test]
    fn correlation_pursuit_is_scalar_omp() {
        let mut rng = StdRng::seed_from_u64(42);
        let x = Matrix::from_fn(12, 30, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let config = corr_config(4);
        let prep = PreparedDictionary::prepare(&x);
        let mut scratch = QueryScratch::new();
        for q in 0..16u64 {
            let mut qr = StdRng::seed_from_u64(100 + q);
            let y: Vec<f64> = (0..12).map(|_| qr.gen::<f64>() * 2.0 - 1.0).collect();
            let fast = prep.pursue(&y, &config, &mut scratch).unwrap();
            let slow =
                orthogonal_matching_pursuit(prep.dictionary(), &prep.center_query(&y), 4, 1e-12)
                    .unwrap();
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
            let ps = PreparedDictionary::prepare(&small);
            let pl = PreparedDictionary::prepare(&large);
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
        let prep = PreparedDictionary::prepare(&x);
        let mut scratch = QueryScratch::new();
        assert!(prep.pursue(&[1.0; 3], &config, &mut scratch).is_err());
    }
}
