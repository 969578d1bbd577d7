//! # iupdater-core
//!
//! The core of the iUpdater reproduction (Chang et al., ICDCS 2017):
//! low-cost RSS fingerprint-database updating for device-free
//! localization.
//!
//! The system keeps a *fingerprint matrix* `X` (links x locations,
//! [`fingerprint`]) that maps "target stands at grid `j`" to the RSS
//! vector the `M` links observe. RSS drifts over days, so the matrix
//! goes stale. iUpdater re-surveys only a handful of *reference
//! locations* (the maximum-independent-column locations, [`mic`]) and
//! reconstructs the entire matrix by a *self-augmented regularized SVD*
//! ([`solver`]) that combines:
//!
//! 1. the basic RSVD data-fit on the no-decrease cells that can be
//!    measured without a target ([`solver`], [`classify`]); Eq. 11
//!    alone is [`UpdaterConfig::basic_rsvd`];
//! 2. **Constraint 1**: the historical correlation `Z` between the MIC
//!    columns and the whole matrix ([`correlation`]);
//! 3. **Constraint 2**: neighbouring-location continuity ([`neighbors`])
//!    and adjacent-link similarity ([`similarity`]) of the
//!    largely-decrease submatrix ([`decrease`]).
//!
//! Localization matches an online RSS vector against the reconstructed
//! matrix with orthogonal matching pursuit ([`omp`], [`localize`]).
//!
//! # Architecture: solver layers
//!
//! The numeric stack is three explicit layers:
//!
//! 1. `iupdater_linalg` supplies the zero-copy substrate: borrowed
//!    matrix views and in-place kernels (`matmul_into`, `axpy`,
//!    `gram_into`, `add_weighted_gram`) that the hot paths run on.
//! 2. [`solver`] is the reconstruction engine. Each additive term of
//!    Eq. 18 is a [`solver::terms::PenaltyTerm`] implementation; the
//!    ALS engine composes them and runs *phase-split* sweeps — the
//!    per-column/per-row systems are assembled and factored in
//!    parallel, and the Exact-coupling cross terms run in the original
//!    ascending Gauss–Seidel order, making parallel solves
//!    bit-identical to the retired monolith (`solver::reference`, kept
//!    as the golden-parity oracle). Sweeps execute on the rayon
//!    facade's persistent, work-stealing worker pool and are
//!    deterministic at any worker count.
//! 3. [`service`] batches many deployments behind one API:
//!    [`service::UpdateService`] runs update cycles across its fleet
//!    in parallel and owns each deployment's live database.
//!
//! Above the service sits the read/write-separated serving layer:
//! [`gateway::FleetGateway`] moves the service onto a detached drive
//! loop and publishes each deployment's committed database + prepared
//! localizer in an epoch-swapped [`gateway::PublishedSnapshot`], so
//! localization queries never contend with an in-flight update cycle
//! (see the [`gateway`] module docs for the epoch-publication
//! invariant and the ingest backpressure policy).
//!
//! # Architecture: incremental updater construction
//!
//! Building an update engine ([`Updater::new`]) means extracting the
//! MIC reference locations (pivoted QR) and learning the correlation
//! matrix `Z` (LRR) — after [`service::UpdateService::rebase`] this
//! was the fleet's dominant fixed cost. Two mechanisms make
//! (re)construction incremental, and a pivot certificate guards the
//! warm path; every fast path stays *numerically identical* to the
//! from-scratch one (pinned to `<= 1e-9` by
//! `tests/warm_start_parity.rs`):
//!
//! 1. **LRR exactness certificate** (`iupdater_linalg::lrr`): when the
//!    prior is exactly representable by its MIC columns and the
//!    dictionary satisfies `sigma_min(A) * eps >= sqrt(r)`, the LRR
//!    minimiser is provably the least-squares solution and the ALM
//!    loop is skipped. Rebased priors are exact low-rank products, so
//!    re-anchoring no longer pays the iterative solve — on *either*
//!    construction path, which is why parity is preserved.
//! 2. **Warm-start constructors** ([`Updater::warm_start`],
//!    [`Updater::from_basis`]): `rebase` re-certifies the previous MIC
//!    pivot set instead of re-running the greedy sweep, and restore
//!    rebuilds engines directly from the *warm-start basis* (reference
//!    locations + full-precision `Z`) recorded in v3 service snapshots
//!    ([`persist`]), skipping MIC and LRR entirely.
//!
//! The re-certification is `Matrix::certify_pivot_seed`
//! (`iupdater_linalg::qr`): it proves that greedy pivoting on a new
//! matrix would re-select a previous pivot set. *Drift-tolerance
//! fallback rule:* every pivot decision must hold with a relative
//! dominance margin of at least `iupdater_linalg::qr::PIVOT_DRIFT_TOL`
//! (`1e-8`); a decision inside the margin — or a genuinely changed
//! selection — falls back to the full greedy sweep, so the fast path
//! can change cost but never the answer.
//!
//! The system-wide map — the three layers, the parallelism model, the
//! drift-tolerance fallback rule, the parity-tier test strategy and
//! the v1→v3 snapshot lineage — is written down
//! in `ARCHITECTURE.md` at the repository root; change it when you
//! change one of those invariants. Its § "Static analysis" is
//! machine-checked: `cargo run -p invariants` enforces, among others,
//! this crate's panic-freedom contract (library paths return
//! [`CoreError`], never panic) and its determinism contract (no
//! hash-order- or wall-clock-dependent results).
//!
//! # Quickstart
//!
//! ```
//! use iupdater_core::prelude::*;
//! use iupdater_rfsim::{Environment, Testbed};
//!
//! // Simulated deployment standing in for the paper's office testbed.
//! let testbed = Testbed::new(Environment::office(), 42);
//! let day0 = FingerprintMatrix::survey(&testbed, 0.0, 5);
//!
//! // Build the updater from the day-0 database.
//! let updater = Updater::new(day0, UpdaterConfig::default()).unwrap();
//!
//! // 45 days later: fresh readings at the few reference locations only.
//! let refs = updater.reference_locations().to_vec();
//! let x_r = testbed.measure_columns(&refs, 45.0, 5);
//! let x_b = FingerprintMatrix::survey_no_decrease(&testbed, 45.0, 5);
//! let reconstructed = updater.update(&x_r, &x_b).unwrap();
//!
//! // Localize an online measurement against the fresh matrix.
//! let localizer = Localizer::new(reconstructed, LocalizerConfig::default());
//! let y = testbed.online_measurement(17, 45.0, 7);
//! let est = localizer.localize(&y).unwrap();
//! assert!(est.grid < testbed.deployment().num_locations());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod config;
pub mod correlation;
pub mod decrease;
mod error;
pub mod fingerprint;
pub mod gateway;
pub mod localize;
pub mod metrics;
pub mod mic;
pub mod multi_target;
pub mod neighbors;
pub mod omp;
pub mod persist;
pub mod query;
pub mod reconstruct;
pub mod service;
pub mod similarity;
pub mod solver;
pub mod tracking;

pub use config::{CouplingMode, LocalizerConfig, ScalingMode, UpdaterConfig};
pub use error::CoreError;
pub use fingerprint::FingerprintMatrix;
pub use gateway::{CycleTicket, FleetGateway, PublishedSnapshot, ShutdownReport};
pub use localize::{Localizer, LocationEstimate};
pub use query::{PreparedDictionary, QueryScratch};
pub use reconstruct::Updater;
pub use service::{DeploymentId, MeasurementBatch, UpdateOutcome, UpdateService};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::config::{CouplingMode, LocalizerConfig, ScalingMode, UpdaterConfig};
    pub use crate::fingerprint::FingerprintMatrix;
    pub use crate::gateway::{CycleTicket, FleetGateway, PublishedSnapshot, ShutdownReport};
    pub use crate::localize::{Localizer, LocationEstimate};
    pub use crate::query::{PreparedDictionary, QueryScratch};
    pub use crate::reconstruct::Updater;
    pub use crate::service::{
        DeploymentId, MeasurementBatch, ServiceSnapshot, UpdateOutcome, UpdateService,
    };
    pub use crate::CoreError;
}
