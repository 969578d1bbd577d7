//! # iupdater
//!
//! A from-scratch Rust reproduction of **iUpdater** (Chang, Xiong, Wang,
//! Chen, Hu, Fang — IEEE ICDCS 2017): low-cost RSS fingerprint updating
//! for device-free localization.
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`core`] — the paper's contribution: the self-augmented RSVD
//!   fingerprint updater and the OMP localizer;
//! - [`linalg`] — the dense linear-algebra substrate (SVD, RRQR,
//!   LRR/ALM, proximal operators) built for it;
//! - [`rfsim`] — the physics-based RF testbed simulator standing in for
//!   the paper's three-room, three-month hardware deployment;
//! - [`baselines`] — RASS (ε-SVR/SMO) and the traditional full
//!   resurvey;
//! - [`eval`] — the experiment harness regenerating every figure and
//!   table of the paper's evaluation.
//!
//! # Architecture: the three numeric layers
//!
//! The reconstruction stack is deliberately layered; each layer only
//! talks to the one below it:
//!
//! 1. **Zero-copy linear algebra** (`linalg`): the dense row-major
//!    [`linalg::Matrix`] plus borrowed [`linalg::MatrixView`]
//!    row/column blocks, in-place kernels
//!    (`matmul_into`, `matmul_bt_into`, `axpy`, `gram_into`,
//!    `add_weighted_gram`) and a cache-blocked multiply. SVD, QR and LU run on
//!    row-contiguous working storage instead of strided column walks.
//! 2. **The solver engine** (`core::solver`): the self-augmented RSVD
//!    objective is an ordered list of pluggable
//!    [`core::solver::terms::PenaltyTerm`]s (data fit, MIC
//!    correlation, continuity, link similarity) composed by a generic
//!    ALS engine. Per-column/per-row normal equations are assembled
//!    and LU-factored in parallel (phase 1); the Exact-coupling cross
//!    terms (phase 2) run in the historical ascending Gauss–Seidel
//!    order — bit-identical to the monolith kept in
//!    `core::solver::reference` and asserted by the golden parity
//!    tests.
//! 3. **The batched update service** (`core::service`): an
//!    [`core::service::UpdateService`] owns N deployments (engine +
//!    fingerprint store each) and runs update cycles across them in
//!    parallel — the API the `iupdater batch` CLI subcommand, the
//!    `ext-fleet` evaluation and the `update_campaign` example drive.
//!
//! All parallelism runs on the `rayon` facade's **persistent worker
//! pool** with chunked work stealing: results are deterministic at any
//! worker count, skewed fleets balance, and nested parallelism (solver
//! sweeps inside the service's deployment fan-out) cannot deadlock.
//!
//! The full map — including the drift-tolerance fallback rule, the
//! parity-tier test strategy and the v1→v3 snapshot lineage — lives
//! in `ARCHITECTURE.md` at the repository root. Its § "Static
//! analysis" is machine-checked: `cargo run -p invariants` lints the
//! tree against the book's invariants (unsafe confinement,
//! determinism, panic freedom, kernel routing, doc drift, parity
//! coverage) and CI fails on any violation.
//!
//! # Quickstart
//!
//! ```
//! use iupdater::core::prelude::*;
//! use iupdater::rfsim::{Environment, Testbed};
//!
//! // A simulated office deployment (8 links x 96 grid cells).
//! let testbed = Testbed::new(Environment::office(), 42);
//!
//! // Day 0: build the fingerprint database by a full site survey.
//! let day0 = FingerprintMatrix::survey(&testbed, 0.0, 50);
//! let updater = Updater::new(day0, UpdaterConfig::default())?;
//!
//! // 45 days later: fresh readings at ~8 reference locations only.
//! let reconstructed = updater.update_from_testbed(&testbed, 45.0, 5)?;
//!
//! // Localize an online measurement against the fresh database.
//! let localizer = Localizer::new(reconstructed, LocalizerConfig::default());
//! let y = testbed.online_measurement(17, 45.0, 7);
//! let estimate = localizer.localize(&y)?;
//! assert!(estimate.grid < 96);
//! # Ok::<(), iupdater::core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use iupdater_baselines as baselines;
pub use iupdater_core as core;
pub use iupdater_eval as eval;
pub use iupdater_linalg as linalg;
pub use iupdater_rfsim as rfsim;
