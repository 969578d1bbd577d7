//! Target localization via nonlinear optimisation with OMP (Sec. V).
//!
//! The online measurement model is `y = X̂ W + N` (Eq. 26) with a
//! {0,1}-sparse location vector `W`; the estimate solves
//! `min ‖X̂ Ŵ − y‖₂²` greedily by OMP (Eq. 27). The strongest selected
//! atom's column index is the estimated grid location.
//!
//! The serving path runs against a [`PreparedDictionary`] built once at
//! construction ([`Localizer::new`], hence once per database publish):
//! [`Localizer::localize`] / [`Localizer::localize_with_scratch`] for
//! single queries and [`Localizer::localize_batch`] to fan a query slab
//! across the persistent worker pool. The original per-query scalar
//! path is kept verbatim as [`Localizer::localize_unprepared`] — the
//! golden oracle the `query_parity` tier pins every fast path against.

use iupdater_linalg::kernels::BINARY_LANES;
use iupdater_linalg::Matrix;
use rayon::prelude::*;

use crate::config::{AtomSelection, LocalizerConfig};
use crate::fingerprint::{FingerprintMatrix, RSS_DBM_RANGE};
use crate::omp::{orthogonal_matching_pursuit, OmpSolution};
use crate::query::{PreparedDictionary, QueryScratch, QUERY_CHUNK};
use crate::{CoreError, Result};

/// The error message of a pursuit that selected no atom.
pub(crate) const NO_ATOM_SELECTED: &str =
    "matching selected no atom (degenerate fingerprint matrix)";

/// A grid-location estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationEstimate {
    /// Estimated grid index (column of the fingerprint matrix).
    pub grid: usize,
    /// Full OMP support (useful for multi-target extensions).
    pub support: Vec<usize>,
    /// OMP coefficients over the support.
    pub coefficients: Vec<f64>,
    /// Final squared residual.
    pub residual_sq: f64,
}

/// Matches online RSS vectors against a fingerprint matrix.
#[derive(Debug, Clone)]
pub struct Localizer {
    fingerprint: FingerprintMatrix,
    config: LocalizerConfig,
    /// Publish-time query structures (centred dictionary, atom norms).
    prepared: PreparedDictionary,
}

impl Localizer {
    /// Builds a localizer over a fingerprint matrix, preparing the
    /// query structures once so every subsequent query pays only the
    /// pursuit itself.
    pub fn new(fingerprint: FingerprintMatrix, config: LocalizerConfig) -> Self {
        let prepared = PreparedDictionary::prepare(fingerprint.matrix());
        Localizer {
            fingerprint,
            config,
            prepared,
        }
    }

    /// Estimates the grid location for an online measurement `y`
    /// (one RSS value per link, Eq. 25).
    ///
    /// Runs [`Self::localize_with_scratch`] on a per-thread scratch, so
    /// a single read allocates only its output. A thread that served a
    /// read keeps that scratch, `9n + 16m` bytes at the largest
    /// `m` links x `n` cells it served. Answers do not depend on what
    /// the scratch served before (pinned by `query_parity`).
    ///
    /// # Errors
    ///
    /// - [`CoreError::DimensionMismatch`] if `y.len()` differs from the
    ///   link count.
    /// - [`CoreError::InvalidArgument`] if a reading lies outside
    ///   [`RSS_DBM_RANGE`] (NaN and ±∞ included), or if OMP selects no
    ///   atom (zero dictionary).
    pub fn localize(&self, y: &[f64]) -> Result<LocationEstimate> {
        QueryScratch::with_thread_scratch(|scratch| self.localize_with_scratch(y, scratch))
    }

    /// [`Self::localize`] against caller-held working memory: after the
    /// first call at a given database shape the pursuit allocates only
    /// its output. Answers are identical to [`Self::localize`] and to
    /// [`Self::localize_unprepared`] (pinned by `query_parity`).
    ///
    /// # Errors
    ///
    /// As for [`Self::localize`].
    pub fn localize_with_scratch(
        &self,
        y: &[f64],
        scratch: &mut QueryScratch,
    ) -> Result<LocationEstimate> {
        self.check_query(y)?;
        let sol = self.prepared.pursue(y, &self.config, scratch)?;
        self.estimate_from(sol)
    }

    /// Localizes a slab of queries across the persistent worker pool.
    ///
    /// The slab is split into fixed [`QUERY_CHUNK`]-sized chunks, one
    /// reusable scratch per chunk; chunk boundaries depend only on the
    /// slab length and results are reassembled in input order, so the
    /// output is identical at any worker count — and element-for-element
    /// identical to calling [`Self::localize`] in a loop. Under the
    /// binary-residual model, each chunk additionally advances
    /// `BINARY_LANES` queries per pass of the certified nearest-atom
    /// scan over the dictionary (same bits, vectorised cost).
    ///
    /// # Errors
    ///
    /// A per-query error (dimension mismatch, out-of-range reading or
    /// degenerate selection), as for [`Self::localize`], if any query
    /// in the slab fails.
    pub fn localize_batch(&self, queries: &[Vec<f64>]) -> Result<Vec<LocationEstimate>> {
        self.localize_batch_counted(queries).map(|(out, _)| out)
    }

    /// [`Self::localize_batch`], also returning how many lanes of the
    /// lane-blocked pursuit failed their nearest-atom certificate and
    /// took the exact fallback scan (the sum of every chunk's
    /// [`QueryScratch::uncertified_lanes`]). Chunking is fixed, so the
    /// count is identical at any worker count.
    ///
    /// # Errors
    ///
    /// As for [`Self::localize_batch`].
    // invariants: allow(dead-pub) — the parity tiers read
    // the fallback-lane count through it.
    pub fn localize_batch_counted(
        &self,
        queries: &[Vec<f64>],
    ) -> Result<(Vec<LocationEstimate>, usize)> {
        let n_chunks = queries.len().div_ceil(QUERY_CHUNK);
        let per_chunk: Vec<Result<(Vec<LocationEstimate>, usize)>> = (0..n_chunks)
            .into_par_iter()
            .map(|ci| {
                let start = ci * QUERY_CHUNK;
                let end = (start + QUERY_CHUNK).min(queries.len());
                let mut scratch = QueryScratch::new();
                let chunk = self.localize_chunk(&queries[start..end], &mut scratch)?;
                Ok((chunk, scratch.uncertified_lanes()))
            })
            .collect();
        let (mut out, mut uncertified) = (Vec::with_capacity(queries.len()), 0);
        for chunk in per_chunk {
            let (estimates, count) = chunk?;
            out.extend(estimates);
            uncertified += count;
        }
        Ok((out, uncertified))
    }

    /// One batch chunk: blocked lane-interleaved pursuit for the
    /// binary model, the per-query prepared path otherwise. Answers
    /// are identical to a [`Self::localize_with_scratch`] loop.
    fn localize_chunk(
        &self,
        queries: &[Vec<f64>],
        scratch: &mut QueryScratch,
    ) -> Result<Vec<LocationEstimate>> {
        if self.config.selection != AtomSelection::BinaryResidual {
            return queries
                .iter()
                .map(|y| self.localize_with_scratch(y, scratch))
                .collect();
        }
        let mut out = Vec::with_capacity(queries.len());
        let mut blocks = queries.chunks_exact(BINARY_LANES);
        for block in blocks.by_ref() {
            for y in block {
                self.check_query(y)?;
            }
            self.prepared
                .binary_pursuit_block(block, &self.config, scratch, &mut out)?;
        }
        for y in blocks.remainder() {
            out.push(self.localize_with_scratch(y, scratch)?);
        }
        Ok(out)
    }

    /// The original per-query scalar path, kept verbatim as the golden
    /// oracle for the prepared fast paths (the read-path analogue of
    /// `solver/reference.rs`): centres `y`, runs the configured pursuit
    /// with per-step `select_cols`/`gram`/`solve` rebuilds, extracts
    /// the grid estimate. `query_parity` asserts the prepared paths
    /// match this bit-for-bit on supports and grids.
    ///
    /// # Errors
    ///
    /// As for [`Self::localize`].
    pub fn localize_unprepared(&self, y: &[f64]) -> Result<LocationEstimate> {
        self.check_query(y)?;
        let centered = self.prepared.center_query(y);
        let sol = match self.config.selection {
            AtomSelection::Correlation => orthogonal_matching_pursuit(
                self.prepared.dictionary(),
                &centered,
                self.config.max_atoms,
                self.config.residual_threshold,
            )?,
            AtomSelection::BinaryResidual => self.binary_pursuit(&centered),
        };
        self.estimate_from(sol)
    }

    /// The read boundary shared by every localization entry point: one
    /// reading per link, each inside [`RSS_DBM_RANGE`]. A non-finite or
    /// absurd reading is the query's fault, so it is refused here
    /// rather than surfacing from the pursuit as an error about the
    /// database.
    pub(crate) fn check_query(&self, y: &[f64]) -> Result<()> {
        if y.len() != self.fingerprint.num_links() {
            return Err(CoreError::DimensionMismatch {
                context: "Localizer::localize",
                expected: format!("{} link measurements", self.fingerprint.num_links()),
                got: format!("{}", y.len()),
            });
        }
        if y.iter().any(|v| !RSS_DBM_RANGE.contains(v)) {
            return Err(CoreError::InvalidArgument(
                "localization query contains an RSS reading outside the physical dBm range",
            ));
        }
        Ok(())
    }

    /// The location estimate from a pursuit solution: the first atom
    /// under the binary model (greedy order = match quality), the
    /// strongest coefficient under classic OMP.
    fn estimate_from(&self, sol: OmpSolution) -> Result<LocationEstimate> {
        let grid = match self.config.selection {
            AtomSelection::BinaryResidual => sol.support.first().copied(),
            AtomSelection::Correlation => sol
                .support
                .iter()
                .zip(&sol.coefficients)
                .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
                .map(|(&j, _)| j),
        }
        .ok_or(CoreError::InvalidArgument(NO_ATOM_SELECTED))?;
        Ok(LocationEstimate {
            grid,
            support: sol.support,
            coefficients: sol.coefficients,
            residual_sq: sol.residual_sq,
        })
    }

    /// Greedy pursuit under the binary location model of Eq. (26):
    /// coefficients are fixed at 1, so each step picks the column that
    /// minimises the residual `‖r − x_j‖₂²` and subtracts it. This is
    /// the oracle-side loop (strided column walks, `support.contains`);
    /// the prepared twins return the same ascending-link chains and the
    /// same first strict-`<` minimum, so both produce identical bits.
    fn binary_pursuit(&self, y: &[f64]) -> OmpSolution {
        let dictionary: &Matrix = self.prepared.dictionary();
        let m = dictionary.rows();
        let n = dictionary.cols();
        let mut residual = y.to_vec();
        let mut support = Vec::new();
        for _ in 0..self.config.max_atoms.min(n) {
            let mut best = None;
            let mut best_dist = f64::INFINITY;
            for j in 0..n {
                if support.contains(&j) {
                    continue;
                }
                let dist: f64 = (0..m)
                    .map(|i| {
                        let d = residual[i] - dictionary[(i, j)];
                        d * d
                    })
                    .sum();
                if dist < best_dist {
                    best_dist = dist;
                    best = Some(j);
                }
            }
            let Some(j_star) = best else { break };
            // Only keep the atom if it actually reduces the residual.
            let current: f64 = residual.iter().map(|r| r * r).sum();
            if best_dist >= current && !support.is_empty() {
                break;
            }
            support.push(j_star);
            for (i, r) in residual.iter_mut().enumerate().take(m) {
                *r -= dictionary[(i, j_star)];
            }
            let res_sq: f64 = residual.iter().map(|r| r * r).sum();
            if res_sq < self.config.residual_threshold {
                break;
            }
        }
        let residual_sq = residual.iter().map(|r| r * r).sum();
        let coefficients = vec![1.0; support.len()];
        OmpSolution {
            support,
            coefficients,
            residual_sq,
        }
    }

    /// The fingerprint database in use.
    pub fn fingerprint(&self) -> &FingerprintMatrix {
        &self.fingerprint
    }

    /// The configuration in use.
    pub fn config(&self) -> &LocalizerConfig {
        &self.config
    }

    /// The prepared query structures in use.
    pub fn prepared(&self) -> &PreparedDictionary {
        &self.prepared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iupdater_rfsim::{Environment, Testbed};

    fn office_localizer(seed: u64) -> (Testbed, Localizer) {
        let t = Testbed::new(Environment::office(), seed);
        let fp = FingerprintMatrix::survey(&t, 0.0, 20);
        (t, Localizer::new(fp, LocalizerConfig::default()))
    }

    #[test]
    fn localizes_clean_measurements_accurately() {
        let (t, loc) = office_localizer(11);
        let d = t.deployment();
        // Noise-free vector straight from the expected matrix.
        let truth = t.expected_fingerprint_matrix(0.0);
        let mut hits = 0;
        let mut total_err = 0.0;
        let total = 24;
        for j in (0..96).step_by(4) {
            let y = truth.col(j);
            let est = loc.localize(&y).unwrap();
            if est.grid == j {
                hits += 1;
            }
            total_err += d.location(j).distance(d.location(est.grid));
        }
        // Occasional flips between cells with near-identical signatures
        // are expected (mirror positions share the same direct-path
        // obstruction); the distance metric is what matters.
        assert!(hits >= total / 2, "clean localization hits {hits}/{total}");
        let mean_err = total_err / total as f64;
        assert!(mean_err < 1.2, "clean mean error {mean_err} m");
    }

    #[test]
    fn localizes_noisy_measurements_nearby() {
        // Average over several deployments: single fields can be locally
        // degenerate (weak multipath signature over part of the room).
        let mut total_err = 0.0;
        let mut count = 0;
        for seed in [12u64, 17, 18] {
            let (t, loc) = office_localizer(seed);
            let d = t.deployment();
            for j in (0..96).step_by(3) {
                let y = t.online_measurement(j, 0.0, 1000 + j as u64);
                let est = loc.localize(&y).unwrap();
                total_err += d.location(j).distance(d.location(est.grid));
                count += 1;
            }
        }
        let mean_err = total_err / count as f64;
        assert!(
            mean_err < 2.2,
            "mean day-0 localization error {mean_err} m too large"
        );
    }

    #[test]
    fn stale_fingerprints_degrade_accuracy() {
        // The motivating failure (Fig. 21's "OMP w/o rec."): matching
        // day-45 measurements against day-0 fingerprints is worse than
        // matching against day-45 fingerprints. A single seed can flip
        // (the degradation is stochastic), so average over several.
        let mut err_stale = 0.0;
        let mut err_fresh = 0.0;
        let mut count = 0;
        for seed in [13u64, 14, 15, 16] {
            let t = Testbed::new(Environment::office(), seed);
            let d = t.deployment();
            let stale = Localizer::new(
                FingerprintMatrix::survey(&t, 0.0, 20),
                LocalizerConfig::default(),
            );
            let fresh = Localizer::new(
                FingerprintMatrix::survey(&t, 45.0, 20),
                LocalizerConfig::default(),
            );
            for j in (0..96).step_by(3) {
                let y = t.online_measurement(j, 45.0, 50 + j as u64);
                err_stale += d
                    .location(j)
                    .distance(d.location(stale.localize(&y).unwrap().grid));
                err_fresh += d
                    .location(j)
                    .distance(d.location(fresh.localize(&y).unwrap().grid));
                count += 1;
            }
        }
        err_stale /= count as f64;
        err_fresh /= count as f64;
        assert!(
            err_stale > err_fresh,
            "stale ({err_stale} m) must be worse than fresh ({err_fresh} m)"
        );
    }

    #[test]
    fn wrong_measurement_length_rejected() {
        let (_, loc) = office_localizer(14);
        assert!(loc.localize(&[0.0; 5]).is_err());
        assert!(loc.localize_unprepared(&[0.0; 5]).is_err());
        assert!(loc.localize_batch(&[vec![0.0; 5]]).is_err());
    }

    fn is_query_error<T>(r: Result<T>) -> bool {
        matches!(r, Err(CoreError::InvalidArgument(msg)) if msg.contains("query"))
    }

    /// Every entry point refuses a query with one bad reading, with an
    /// error that blames the query; the range's edges are accepted.
    fn assert_bad_readings_rejected(config: LocalizerConfig) {
        let t = Testbed::new(Environment::office(), 14);
        let loc = Localizer::new(FingerprintMatrix::survey(&t, 0.0, 20), config);
        let good = t.online_measurement(40, 0.0, 7);
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e200,
            1e300,
            -1e300,
            30.5,
            -150.5,
        ] {
            let mut y = good.clone();
            y[3] = bad;
            assert!(is_query_error(loc.localize(&y)), "localize({bad})");
            assert!(
                is_query_error(loc.localize_unprepared(&y)),
                "localize_unprepared({bad})"
            );
            assert!(
                is_query_error(loc.localize_batch(&[y])),
                "localize_batch({bad})"
            );
        }
        for edge in [*RSS_DBM_RANGE.start(), *RSS_DBM_RANGE.end()] {
            let mut y = good.clone();
            y[3] = edge;
            assert_eq!(
                loc.localize(&y).unwrap(),
                loc.localize_unprepared(&y).unwrap()
            );
        }
    }

    #[test]
    fn out_of_range_reading_rejected_binary() {
        assert_bad_readings_rejected(LocalizerConfig::default());
    }

    #[test]
    fn out_of_range_reading_rejected_correlation() {
        assert_bad_readings_rejected(LocalizerConfig {
            selection: AtomSelection::Correlation,
            max_atoms: 3,
            ..LocalizerConfig::default()
        });
    }

    #[test]
    fn batch_with_one_bad_query_rejected() {
        // 19 queries: two 8-lane blocks and a 3-query tail. The bad
        // query sits inside a block, then in the tail.
        let (t, loc) = office_localizer(21);
        let queries: Vec<Vec<f64>> = (0..19)
            .map(|j| t.online_measurement(j * 5, 0.0, 300 + j as u64))
            .collect();
        assert!(loc.localize_batch(&queries).is_ok());
        for at in [5, 17] {
            let mut slab = queries.clone();
            slab[at][0] = f64::NAN;
            assert!(
                is_query_error(loc.localize_batch(&slab)),
                "bad query at {at}"
            );
        }
    }

    #[test]
    fn prepared_path_matches_unprepared_oracle() {
        // Element-for-element: prepared single, prepared batch, and
        // the unprepared oracle agree exactly on live testbed queries.
        let (t, loc) = office_localizer(19);
        let queries: Vec<Vec<f64>> = (0..96)
            .map(|j| t.online_measurement(j, 0.0, 400 + j as u64))
            .collect();
        let batch = loc.localize_batch(&queries).unwrap();
        assert_eq!(batch.len(), queries.len());
        let mut scratch = QueryScratch::new();
        for (y, b) in queries.iter().zip(&batch) {
            let oracle = loc.localize_unprepared(y).unwrap();
            let single = loc.localize_with_scratch(y, &mut scratch).unwrap();
            assert_eq!(&oracle, b);
            assert_eq!(&oracle, &single);
            assert!(b.residual_sq.to_bits() == oracle.residual_sq.to_bits());
        }
    }

    #[test]
    fn batch_is_deterministic_across_calls() {
        let (t, loc) = office_localizer(20);
        let queries: Vec<Vec<f64>> = (0..150)
            .map(|j| t.online_measurement(j % 96, 0.0, 700 + j as u64))
            .collect();
        let a = loc.localize_batch(&queries).unwrap();
        let b = loc.localize_batch(&queries).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn accessors() {
        let (_, loc) = office_localizer(16);
        assert_eq!(loc.fingerprint().num_links(), 8);
        assert_eq!(loc.config().max_atoms, 1);
        assert_eq!(loc.prepared().dictionary().shape(), (8, 96));
    }
}
