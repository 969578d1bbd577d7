//! The high-level [`Updater`]: the paper's full pipeline (Fig. 10).
//!
//! Built once from the original (or latest updated) fingerprint matrix,
//! the updater extracts the MIC reference locations and the inherent
//! correlation matrix `Z` (Inherent Correlation Acquisition Module).
//! Each update cycle then takes fresh reference-column measurements
//! `X_R` and the freely collectable no-decrease matrix `X_B`
//! (Reconstruction Data Collection Module) and reconstructs the whole
//! matrix with the self-augmented RSVD (Fingerprint Matrix
//! Reconstruction Module).

use std::sync::OnceLock;

use iupdater_linalg::Matrix;

use crate::classify::CellClassification;
use crate::config::UpdaterConfig;
use crate::correlation::{correlation_matrix, predict, CorrelationMethod};
use crate::fingerprint::FingerprintMatrix;
use crate::mic::{extract_mic, update_selection, MicMethod, MicSelection};
use crate::solver::{warm_factors, SolveReport, Solver, SolverInputs};
use crate::{CoreError, Result};

/// The iUpdater reconstruction pipeline.
#[derive(Debug, Clone)]
pub struct Updater {
    prior: FingerprintMatrix,
    config: UpdaterConfig,
    mic: MicSelection,
    z: Matrix,
    /// The full (pre-`config.rank`-truncation) MIC locations, kept as
    /// the seed for [`Updater::warm_start`] re-pivoting.
    seed_locations: Vec<usize>,
    /// The solver's rank-`r` warm-start factors `(L₀, R₀)` of `prior`,
    /// computed on the first solve. `prior` and `config` never change
    /// after construction, so the factors cannot go stale.
    warm: OnceLock<(Matrix, Matrix)>,
}

impl Updater {
    /// Builds the updater from the prior fingerprint database: extracts
    /// the MIC vectors and learns the correlation matrix `Z` by LRR.
    ///
    /// # Errors
    ///
    /// Propagates config validation, MIC extraction and LRR errors.
    pub fn new(prior: FingerprintMatrix, config: UpdaterConfig) -> Result<Self> {
        config.validate().map_err(CoreError::InvalidArgument)?;
        let mic = extract_mic(prior.matrix(), MicMethod::default(), config.rank_tol)?;
        Self::assemble(prior, config, mic)
    }

    /// The shared tail of every constructor that has a fresh MIC
    /// selection in hand: applies the configured rank override, learns
    /// `Z`, and assembles the updater. Both the cold and the
    /// warm-start paths funnel through here, which is what makes them
    /// numerically identical.
    fn assemble(
        prior: FingerprintMatrix,
        config: UpdaterConfig,
        mut mic: MicSelection,
    ) -> Result<Self> {
        let seed_locations = mic.locations.clone();
        // If a rank override is configured, honour it (take the leading
        // MIC columns or extend greedily via a looser tolerance).
        if let Some(r) = config.rank {
            if r < mic.rank() {
                mic.locations.truncate(r);
                mic.vectors = prior.matrix().select_cols(&mic.locations);
            }
        }
        let z = correlation_matrix(&mic.vectors, prior.matrix(), CorrelationMethod::default())?;
        Ok(Updater {
            prior,
            config,
            mic,
            z,
            seed_locations,
            warm: OnceLock::new(),
        })
    }

    /// Builds an updater for `new_prior` by warm-starting from `prev`:
    /// instead of the full greedy MIC sweep, the previous pivot set is
    /// re-certified against the new matrix
    /// (`mic::update_selection`'s fast path), falling back to a full
    /// extraction when the selection genuinely changed. The
    /// correlation matrix is then learned from `new_prior` exactly as
    /// [`Updater::new`] would, through the same constructor tail.
    /// When `new_prior` equals `prev`'s prior bit-for-bit, everything
    /// (including `Z`) is reused outright.
    ///
    /// # Parity contract
    ///
    /// When no reference column is near-tied, the result is
    /// *identical* to a from-scratch construction on `new_prior` — the
    /// warm start only changes cost. When columns tie (adjacent-cell
    /// columns flickering between reconstructions), the certificate
    /// keeps the *previous* reference set, which is tie-equivalent to
    /// the cold selection: same rank, same certified subspace, and the
    /// construction is identical to a from-scratch one *given that
    /// selection*. Keeping the incumbent set is deliberate — reference
    /// locations stay stable for surveyors instead of flickering among
    /// interchangeable near-duplicates, and the warm path no longer
    /// pays a failed certification sweep before falling back.
    ///
    /// This is what [`crate::service::UpdateService::rebase`] runs.
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] when `new_prior`'s geometry
    /// differs from `prev`'s; otherwise the same errors as
    /// [`Updater::new`].
    ///
    /// # Examples
    ///
    /// Warm-starting from the previous engine selects a reference set
    /// of the same rank as a cold construction on the new prior (and
    /// the identical set whenever no columns are near-tied):
    ///
    /// ```
    /// use iupdater_core::prelude::*;
    /// use iupdater_rfsim::{Environment, Testbed};
    ///
    /// let testbed = Testbed::new(Environment::office(), 7);
    /// let day0 = FingerprintMatrix::survey(&testbed, 0.0, 3);
    /// let engine = Updater::new(day0, UpdaterConfig::default())?;
    /// let fresh = engine.update_from_testbed(&testbed, 45.0, 2)?;
    ///
    /// let warm = Updater::warm_start(&engine, fresh.clone())?;
    /// let cold = Updater::new(fresh.clone(), engine.config().clone())?;
    /// assert_eq!(
    ///     warm.reference_locations().len(),
    ///     cold.reference_locations().len(),
    /// );
    /// // Whatever path was taken, the warm selection certifies
    /// // against the new prior under the tie-set rule.
    /// assert!(fresh
    ///     .matrix()
    ///     .certify_pivot_seed(
    ///         warm.seed_locations(),
    ///         engine.config().rank_tol,
    ///         iupdater_linalg::qr::PIVOT_DRIFT_TOL,
    ///     )?
    ///     .is_some());
    /// # Ok::<(), iupdater_core::CoreError>(())
    /// ```
    pub fn warm_start(prev: &Updater, new_prior: FingerprintMatrix) -> Result<Self> {
        if new_prior.num_links() != prev.prior.num_links()
            || new_prior.num_locations() != prev.prior.num_locations()
            || new_prior.locations_per_link() != prev.prior.locations_per_link()
        {
            return Err(CoreError::DimensionMismatch {
                context: "Updater::warm_start",
                expected: format!("{}x{}", prev.prior.num_links(), prev.prior.num_locations()),
                got: format!("{}x{}", new_prior.num_links(), new_prior.num_locations()),
            });
        }
        if new_prior == prev.prior {
            return Ok(prev.clone());
        }
        let upd = update_selection(
            &prev.seed_locations,
            new_prior.matrix(),
            prev.config.rank_tol,
        )?;
        Self::assemble(new_prior, prev.config.clone(), upd.selection)
    }

    /// Rebuilds an updater from a *recorded* warm-start basis — the
    /// reference locations, correlation matrix and (pre-truncation)
    /// warm-start seed a service snapshot carries — without re-running
    /// MIC extraction or correlation learning. Because the basis is
    /// stored at full precision, the rebuilt engine reconstructs
    /// bit-identically to the engine that was snapshotted; this is
    /// restore's fast path.
    ///
    /// `seed_locations` is the full MIC set before any `config.rank`
    /// truncation — the seed future [`Updater::warm_start`] calls
    /// re-certify against. It equals `locations` unless a rank
    /// override truncated the reference set, and `locations` must be
    /// its prefix (truncation keeps the leading sorted locations).
    ///
    /// Trust model: the basis is validated structurally (sorted unique
    /// in-range locations consistent with `config.rank` and the seed,
    /// a `Z` of matching shape with finite entries that roughly spans
    /// the prior) but is otherwise trusted — the point is to *skip*
    /// the expensive re-derivation. Snapshots without a recorded basis
    /// take the slow path through [`Updater::new`] instead.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for a structurally inconsistent
    /// basis; propagates config validation errors.
    ///
    /// # Examples
    ///
    /// Rebuilding from an engine's own recorded basis skips MIC and
    /// LRR and reproduces the engine exactly (what v3-snapshot restore
    /// does per deployment):
    ///
    /// ```
    /// use iupdater_core::prelude::*;
    /// use iupdater_rfsim::{Environment, Testbed};
    ///
    /// let testbed = Testbed::new(Environment::office(), 7);
    /// let day0 = FingerprintMatrix::survey(&testbed, 0.0, 3);
    /// let engine = Updater::new(day0, UpdaterConfig::default())?;
    ///
    /// let rebuilt = Updater::from_basis(
    ///     engine.prior().clone(),
    ///     engine.config().clone(),
    ///     engine.reference_locations().to_vec(),
    ///     engine.correlation().clone(),
    ///     engine.seed_locations().to_vec(),
    /// )?;
    /// assert_eq!(rebuilt.reference_locations(), engine.reference_locations());
    /// # Ok::<(), iupdater_core::CoreError>(())
    /// ```
    pub fn from_basis(
        prior: FingerprintMatrix,
        config: UpdaterConfig,
        locations: Vec<usize>,
        z: Matrix,
        seed_locations: Vec<usize>,
    ) -> Result<Self> {
        config.validate().map_err(CoreError::InvalidArgument)?;
        let x = prior.matrix();
        let (m, n) = x.shape();
        for locs in [&locations, &seed_locations] {
            if locs.is_empty()
                || locs.len() > m.min(n)
                || locs.windows(2).any(|w| w[0] >= w[1])
                || locs.last().is_some_and(|&l| l >= n)
            {
                return Err(CoreError::InvalidArgument(
                    "warm-start basis locations must be sorted, unique and in range",
                ));
            }
        }
        if locations.len() > seed_locations.len()
            || locations[..] != seed_locations[..locations.len()]
        {
            return Err(CoreError::InvalidArgument(
                "warm-start basis locations must be a prefix of the recorded seed",
            ));
        }
        if let Some(r) = config.rank {
            if locations.len() > r {
                return Err(CoreError::InvalidArgument(
                    "warm-start basis exceeds the configured rank",
                ));
            }
        }
        if z.shape() != (locations.len(), n) {
            return Err(CoreError::InvalidArgument(
                "warm-start basis correlation shape does not match its locations",
            ));
        }
        if z.iter().any(|v| !v.is_finite()) {
            return Err(CoreError::InvalidArgument(
                "warm-start basis correlation must be finite",
            ));
        }
        let vectors = x.select_cols(&locations);
        // Loose span sanity check: the recorded correlation must
        // broadly reproduce the prior it claims to describe (LRR fits
        // are approximate, so this is an integrity check, not a parity
        // check). A rank-truncated basis is exempt — with fewer
        // columns than the prior's rank, a large residual is the
        // *expected* shape of a legitimate fit, so the bound would
        // reject valid checkpoints.
        if locations.len() == seed_locations.len() {
            let recon = vectors.matmul(&z)?;
            let denom = x.frobenius_norm().max(f64::MIN_POSITIVE);
            let rel = (&recon - x).frobenius_norm() / denom;
            if rel.is_nan() || rel > 0.75 {
                return Err(CoreError::InvalidArgument(
                    "warm-start basis correlation does not describe the prior",
                ));
            }
        }
        Ok(Updater {
            prior,
            config,
            mic: MicSelection { locations, vectors },
            z,
            seed_locations,
            warm: OnceLock::new(),
        })
    }

    /// The grid locations a surveyor must re-visit (the MIC locations).
    pub fn reference_locations(&self) -> &[usize] {
        &self.mic.locations
    }

    /// The learned correlation matrix `Z` (`rank x N`).
    pub fn correlation(&self) -> &Matrix {
        &self.z
    }

    /// The prior fingerprint database.
    pub fn prior(&self) -> &FingerprintMatrix {
        &self.prior
    }

    /// The configuration.
    pub fn config(&self) -> &UpdaterConfig {
        &self.config
    }

    /// The full (pre-`config.rank`-truncation) MIC locations — the
    /// seed [`Updater::warm_start`] re-certifies against, and the part
    /// of the warm-start basis snapshots record so the fast path
    /// survives a restore. Equals
    /// [`Updater::reference_locations`] unless a rank override
    /// truncated the reference set.
    pub fn seed_locations(&self) -> &[usize] {
        &self.seed_locations
    }

    /// Reconstructs the up-to-date fingerprint matrix from fresh
    /// reference columns `x_r` (`M x rank`, columns ordered like
    /// [`Updater::reference_locations`]) and the no-decrease matrix
    /// `x_b` (`M x N`, zeros at affected cells).
    ///
    /// The mask `B` is inferred from `x_b`: a cell is "known" iff its
    /// entry is non-zero (RSS readings are strictly negative dBm, so 0
    /// is an unambiguous sentinel). Use [`Updater::update_with_mask`] to
    /// pass an explicit mask.
    ///
    /// # Errors
    ///
    /// Propagates shape and solver errors.
    pub fn update(&self, x_r: &Matrix, x_b: &Matrix) -> Result<FingerprintMatrix> {
        let b = Matrix::from_fn(x_b.rows(), x_b.cols(), |i, j| {
            if x_b[(i, j)] != 0.0 {
                1.0
            } else {
                0.0
            }
        });
        self.update_with_mask(x_r, x_b, &b)
    }

    /// [`Updater::update`] with an explicit known-cell mask
    /// (e.g. from [`CellClassification::index_matrix`]).
    ///
    /// # Errors
    ///
    /// Propagates shape and solver errors.
    // invariants: allow(dead-pub) — updater API: `update` with a
    // caller-built known-cell mask; the failure drills drive it directly.
    pub fn update_with_mask(
        &self,
        x_r: &Matrix,
        x_b: &Matrix,
        b: &Matrix,
    ) -> Result<FingerprintMatrix> {
        let report = self.update_report(x_r, x_b, b)?;
        self.prior.with_matrix(report.reconstruction())
    }

    /// Full-diagnostics variant of [`Updater::update_with_mask`].
    ///
    /// # Errors
    ///
    /// Propagates shape and solver errors.
    pub fn update_report(&self, x_r: &Matrix, x_b: &Matrix, b: &Matrix) -> Result<SolveReport> {
        let (m, n) = self.prior.matrix().shape();
        if x_b.shape() != (m, n) || b.shape() != (m, n) {
            return Err(CoreError::DimensionMismatch {
                context: "Updater::update (x_b / b)",
                expected: format!("{m}x{n}"),
                got: format!("{}x{} / {}x{}", x_b.rows(), x_b.cols(), b.rows(), b.cols()),
            });
        }
        if x_r.rows() != m || x_r.cols() != self.mic.rank() {
            return Err(CoreError::DimensionMismatch {
                context: "Updater::update (x_r)",
                expected: format!("{m}x{}", self.mic.rank()),
                got: format!("{}x{}", x_r.rows(), x_r.cols()),
            });
        }
        let p = if self.config.use_constraint1 {
            Some(predict(x_r, &self.z)?)
        } else {
            None
        };
        // The warm start is the prior, whose factors are cached.
        let inputs = SolverInputs {
            x_b: x_b.clone(),
            b: b.clone(),
            p,
            per: self.prior.locations_per_link(),
            warm_start: None,
        };
        let solver = Solver::new(inputs, self.config.clone())?;
        solver.solve_warm(self.warm_factors(solver.rank())?)
    }

    /// The rank-`r` warm-start factors of the prior, computed once.
    /// `rank` is fixed per `Updater` (it derives from `config` and the
    /// prior's shape); a cached pair of another rank is refused by
    /// [`Solver::solve_warm`]'s shape check, never solved from.
    fn warm_factors(&self, rank: usize) -> Result<&(Matrix, Matrix)> {
        if let Some(factors) = self.warm.get() {
            debug_assert_eq!(factors.0.cols(), rank, "warm-start rank changed");
            return Ok(factors);
        }
        let factors = warm_factors(self.prior.matrix(), rank)?;
        Ok(self.warm.get_or_init(|| factors))
    }

    /// Convenience: runs a full update cycle against a simulated testbed
    /// at day offset `day` with `samples` readings per surveyed cell.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn update_from_testbed(
        &self,
        testbed: &iupdater_rfsim::Testbed,
        day: f64,
        samples: usize,
    ) -> Result<FingerprintMatrix> {
        let x_r = testbed.measure_columns(self.reference_locations(), day, samples);
        let x_b_full = testbed.fingerprint_matrix(day, samples);
        let b = CellClassification::from_testbed(testbed).index_matrix();
        let x_b = b.hadamard(&x_b_full)?;
        self.update_with_mask(&x_r, &x_b, &b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iupdater_rfsim::{Environment, Testbed};

    fn setup(seed: u64) -> (Testbed, Updater) {
        let t = Testbed::new(Environment::office(), seed);
        let prior = FingerprintMatrix::survey(&t, 0.0, 20);
        let updater = Updater::new(prior, UpdaterConfig::default()).unwrap();
        (t, updater)
    }

    #[test]
    fn reference_count_is_small() {
        let (_, updater) = setup(21);
        let n_refs = updater.reference_locations().len();
        // Rank ≈ M = 8 ≪ N = 96 (the labor-saving claim).
        assert!(n_refs <= 8, "reference count {n_refs} exceeds link count");
        assert!(n_refs >= 4, "reference count {n_refs} suspiciously small");
    }

    #[test]
    fn update_recovers_drifted_matrix() {
        let (t, updater) = setup(22);
        let reconstructed = updater.update_from_testbed(&t, 45.0, 5).unwrap();
        let truth = t.expected_fingerprint_matrix(45.0);
        let stale = updater.prior().matrix();
        let err_recon =
            crate::metrics::mean_reconstruction_error(reconstructed.matrix(), &truth).unwrap();
        let err_stale = crate::metrics::mean_reconstruction_error(stale, &truth).unwrap();
        assert!(
            err_recon < err_stale * 0.7,
            "reconstruction ({err_recon} dB) must beat the stale matrix ({err_stale} dB)"
        );
        assert!(
            err_recon < 3.5,
            "absolute reconstruction error {err_recon} dB"
        );
    }

    #[test]
    fn update_shapes_validated() {
        let (t, updater) = setup(23);
        let x_b = t.fingerprint_matrix(5.0, 2);
        let bad_xr = Matrix::zeros(8, 3);
        assert!(updater.update(&bad_xr, &x_b).is_err());
        let n_refs = updater.reference_locations().len();
        let xr = Matrix::zeros(8, n_refs);
        let bad_xb = Matrix::zeros(8, 90);
        assert!(updater.update(&xr, &bad_xb).is_err());
    }

    #[test]
    fn rank_override_truncates_references() {
        let t = Testbed::new(Environment::office(), 24);
        let prior = FingerprintMatrix::survey(&t, 0.0, 20);
        let cfg = UpdaterConfig {
            rank: Some(4),
            ..UpdaterConfig::default()
        };
        let updater = Updater::new(prior, cfg).unwrap();
        assert!(updater.reference_locations().len() <= 4);
    }

    #[test]
    fn constraint1_improves_over_basic_rsvd() {
        // The essence of Fig. 16: adding constraint 1 reduces error.
        let t = Testbed::new(Environment::office(), 25);
        let prior = FingerprintMatrix::survey(&t, 0.0, 20);
        let truth = t.expected_fingerprint_matrix(45.0);
        let run = |cfg: UpdaterConfig| {
            let u = Updater::new(prior.clone(), cfg).unwrap();
            let rec = u.update_from_testbed(&t, 45.0, 5).unwrap();
            crate::metrics::mean_reconstruction_error(rec.matrix(), &truth).unwrap()
        };
        let basic = run(UpdaterConfig::basic_rsvd());
        let with_c1 = run(UpdaterConfig::with_constraint1_only());
        assert!(
            with_c1 < basic,
            "constraint 1 ({with_c1} dB) must improve on basic RSVD ({basic} dB)"
        );
    }

    #[test]
    fn deterministic_updates() {
        let (t, updater) = setup(26);
        let a = updater.update_from_testbed(&t, 15.0, 5).unwrap();
        let b = updater.update_from_testbed(&t, 15.0, 5).unwrap();
        assert!(a.matrix().approx_eq(b.matrix(), 1e-12));
    }

    #[test]
    fn cached_warm_start_matches_the_raw_warm_start_bitwise() {
        // The prior's factors are computed on the first solve and
        // reused by the second; both must equal a solver warm-started
        // from the raw prior, with and without a rank override.
        let t = Testbed::new(Environment::office(), 27);
        let prior = FingerprintMatrix::survey(&t, 0.0, 20);
        let b = CellClassification::from_testbed(&t).index_matrix();
        let x_b = b.hadamard(&t.fingerprint_matrix(30.0, 3)).unwrap();
        for rank in [None, Some(5)] {
            let cfg = UpdaterConfig {
                rank,
                ..UpdaterConfig::default()
            };
            let updater = Updater::new(prior.clone(), cfg.clone()).unwrap();
            let x_r = t.measure_columns(updater.reference_locations(), 30.0, 3);
            let inputs = SolverInputs {
                x_b: x_b.clone(),
                b: b.clone(),
                p: cfg
                    .use_constraint1
                    .then(|| predict(&x_r, updater.correlation()).unwrap()),
                per: prior.locations_per_link(),
                warm_start: Some(prior.matrix().clone()),
            };
            let raw = Solver::new(inputs, cfg).unwrap().solve().unwrap();
            for _ in 0..2 {
                let got = updater.update_report(&x_r, &x_b, &b).unwrap();
                assert_eq!(got.reconstruction(), raw.reconstruction());
                assert_eq!(got.objective_trace(), raw.objective_trace());
            }
        }
    }

    #[test]
    fn accessors() {
        let (_, updater) = setup(27);
        assert_eq!(
            updater.correlation().rows(),
            updater.reference_locations().len()
        );
        assert_eq!(updater.correlation().cols(), 96);
        assert_eq!(updater.prior().num_links(), 8);
        assert!(updater.config().use_constraint1);
    }

    /// Warm-start parity at the engine level: when pivots are
    /// unambiguous the warm-built updater is numerically identical to
    /// a from-scratch one; when reference columns tie, the kept
    /// selection must be the previous engine's, certified against the
    /// new prior, with the construction identical to a from-scratch
    /// one given that selection.
    #[test]
    fn warm_start_equals_from_scratch() {
        let (t, updater) = setup(28);
        let current = updater.update_from_testbed(&t, 45.0, 5).unwrap();
        let warm = Updater::warm_start(&updater, current.clone()).unwrap();
        let cold = Updater::new(current.clone(), updater.config().clone()).unwrap();
        assert_eq!(
            warm.reference_locations().len(),
            cold.reference_locations().len(),
            "warm and cold must agree on rank"
        );
        if warm.reference_locations() == cold.reference_locations() {
            // Unambiguous pivots: the engines are numerically identical.
            assert!(warm.correlation().approx_eq(cold.correlation(), 0.0));
            let w = warm.update_from_testbed(&t, 90.0, 5).unwrap();
            let c = cold.update_from_testbed(&t, 90.0, 5).unwrap();
            assert!(w.matrix().approx_eq(c.matrix(), 0.0));
        } else {
            // Tie-kept selection: the previous reference set, certified
            // against the new prior.
            assert_eq!(warm.reference_locations(), updater.reference_locations());
            assert!(current
                .matrix()
                .certify_pivot_seed(
                    warm.seed_locations(),
                    updater.config().rank_tol,
                    iupdater_linalg::qr::PIVOT_DRIFT_TOL,
                )
                .unwrap()
                .is_some());
            // From-scratch-given-the-selection parity: the correlation
            // must be exactly what a cold construction pinned to the
            // same locations would learn.
            let vectors = current.matrix().select_cols(warm.reference_locations());
            let z = correlation_matrix(&vectors, current.matrix(), CorrelationMethod::default())
                .unwrap();
            assert!(warm.correlation().approx_eq(&z, 0.0));
        }
    }

    #[test]
    fn warm_start_on_identical_prior_reuses_everything() {
        let (_, updater) = setup(29);
        let warm = Updater::warm_start(&updater, updater.prior().clone()).unwrap();
        assert_eq!(warm.reference_locations(), updater.reference_locations());
        assert!(warm.correlation().approx_eq(updater.correlation(), 0.0));
    }

    #[test]
    fn warm_start_rejects_geometry_changes() {
        let (_, updater) = setup(30);
        let other = Testbed::new(Environment::library(), 1);
        let foreign = FingerprintMatrix::survey(&other, 0.0, 2);
        assert!(Updater::warm_start(&updater, foreign).is_err());
    }

    #[test]
    fn from_basis_reproduces_the_recorded_engine() {
        let (t, updater) = setup(31);
        let rebuilt = Updater::from_basis(
            updater.prior().clone(),
            updater.config().clone(),
            updater.reference_locations().to_vec(),
            updater.correlation().clone(),
            updater.seed_locations().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt.reference_locations(), updater.reference_locations());
        let a = rebuilt.update_from_testbed(&t, 45.0, 5).unwrap();
        let b = updater.update_from_testbed(&t, 45.0, 5).unwrap();
        assert!(a.matrix().approx_eq(b.matrix(), 0.0));
    }

    #[test]
    fn from_basis_rejects_inconsistent_bases() {
        let (_, updater) = setup(32);
        let prior = updater.prior().clone();
        let cfg = updater.config().clone();
        let locs = updater.reference_locations().to_vec();
        let z = updater.correlation().clone();

        // Locations / correlation shape mismatch.
        assert!(Updater::from_basis(
            prior.clone(),
            cfg.clone(),
            vec![0, 1],
            z.clone(),
            vec![0, 1]
        )
        .is_err());
        // Unsorted locations.
        let mut reversed = locs.clone();
        reversed.reverse();
        assert!(Updater::from_basis(
            prior.clone(),
            cfg.clone(),
            reversed.clone(),
            z.clone(),
            reversed
        )
        .is_err());
        // Out-of-range location.
        let mut oob = locs.clone();
        *oob.last_mut().unwrap() = 9_999;
        assert!(
            Updater::from_basis(prior.clone(), cfg.clone(), oob.clone(), z.clone(), oob).is_err()
        );
        // Non-finite correlation.
        let mut bad_z = z.clone();
        bad_z[(0, 0)] = f64::NAN;
        assert!(Updater::from_basis(
            prior.clone(),
            cfg.clone(),
            locs.clone(),
            bad_z,
            locs.clone()
        )
        .is_err());
        // A correlation that does not describe the prior at all.
        let junk = iupdater_linalg::Matrix::zeros(locs.len(), prior.num_locations());
        assert!(
            Updater::from_basis(prior.clone(), cfg.clone(), locs.clone(), junk, locs.clone())
                .is_err()
        );
        // More locations than the configured rank.
        let tight = UpdaterConfig {
            rank: Some(2),
            ..cfg
        };
        assert!(
            Updater::from_basis(prior.clone(), tight, locs.clone(), z.clone(), locs.clone())
                .is_err()
        );
        // Locations not a prefix of the recorded seed.
        let mut alien_seed = locs.clone();
        alien_seed[0] = alien_seed[0].wrapping_add(1).min(prior.num_locations() - 1);
        alien_seed.sort_unstable();
        alien_seed.dedup();
        if alien_seed != locs {
            assert!(Updater::from_basis(prior, cfg, locs, z, alien_seed).is_err());
        }
    }
}
