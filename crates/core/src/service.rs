//! The batched update service: many deployments, one API.
//!
//! The paper evaluates one room at a time; a production system serves
//! *fleets* of deployments (every floor of every site) whose update
//! cycles are independent — exactly the shape the phase-split solver
//! engine was built for. [`UpdateService`] owns N deployments (one
//! [`Updater`] engine + fingerprint store each) and runs update cycles
//! across them in parallel (via the rayon facade), exposing a batched
//! API the CLI, the evaluation scenarios and the examples drive.
//!
//! # Asynchronous measurement ingest
//!
//! Field gateways do not collect measurements at the instant a cycle
//! runs: surveyors upload reference-column readings whenever they
//! finish a walk, while the solve runs on a timer. The ingest layer
//! decouples the two. A [`MeasurementBatch`] carries everything one
//! cycle needs (`day`, reference columns `X_R`, no-decrease matrix
//! `X_B`, mask `B`); [`UpdateService::ingest`] validates it against the
//! deployment and appends it to that deployment's [`IngestQueue`].
//! [`UpdateService::run_cycle`] then *drains* each queue — one solve
//! and one commit per queued batch, oldest first — and only falls back
//! to a synchronous testbed pull for deployments whose queue is empty,
//! so a timer-driven cycle makes progress whether or not fresh field
//! data arrived. Batch days are validated to be non-decreasing at
//! ingest time, and cycles reject a `day` earlier than a deployment's
//! last committed update.
//!
//! # Durability
//!
//! The fleet state is checkpointable: [`UpdateService::snapshot`]
//! captures every deployment (name, environment + seed, config,
//! counters, reference set, the engine's prior and the live database)
//! as a [`ServiceSnapshot`], and [`UpdateService::restore`] rebuilds a
//! service from one — reconstructing each update engine from its
//! snapshotted prior — or, faster, from the recorded *warm-start
//! basis* (reference locations, pre-truncation seed and full-precision
//! correlation matrix) — so post-restore cycles are bit-identical to
//! an uninterrupted run. [`crate::persist::write_service`] /
//! [`crate::persist::read_service`] serialise snapshots to the
//! versioned v3 text format (legacy v2 files stay readable). A
//! checkpoint-on-commit loop is a [`UpdateService::run_cycle`] followed
//! by a snapshot (the [`crate::gateway::FleetGateway`] drive loop
//! serves the same role behind its command channel). Pending ingest
//! queues are deliberately *not* part of a snapshot: batches are
//! transient gateway input and are re-ingested from the upload spool
//! after a restart.
//!
//! ```
//! use iupdater_core::service::UpdateService;
//! use iupdater_core::UpdaterConfig;
//! use iupdater_rfsim::{Environment, Testbed};
//!
//! let mut service = UpdateService::new();
//! for (i, env) in Environment::all_presets().into_iter().enumerate() {
//!     let name = format!("site-{i}");
//!     service.register(name, Testbed::new(env, 7), UpdaterConfig::default(), 10)?;
//! }
//! let outcomes = service.run_cycle(45.0, 5)?;
//! assert_eq!(outcomes.len(), 3);
//! // Checkpoint, "crash", resume.
//! let snapshot = service.snapshot();
//! let restored = UpdateService::restore(&snapshot)?;
//! assert_eq!(restored.len(), 3);
//! # Ok::<(), iupdater_core::CoreError>(())
//! ```

use std::collections::VecDeque;
use std::sync::Arc;

use rayon::prelude::*;

use iupdater_linalg::Matrix;
use iupdater_rfsim::{Environment, Testbed};

use crate::config::{LocalizerConfig, UpdaterConfig};
use crate::fingerprint::{FingerprintMatrix, RSS_DBM_RANGE};
use crate::localize::{Localizer, LocationEstimate};
use crate::reconstruct::Updater;
use crate::solver::SolveReport;
use crate::{CoreError, Result};

/// Opaque handle to a deployment registered with the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeploymentId(usize);

/// One cycle's worth of field measurements for a single deployment:
/// the inputs [`Updater::update_with_mask`] consumes, stamped with the
/// day they were collected.
#[derive(Debug, Clone)]
pub struct MeasurementBatch {
    day: f64,
    x_r: Matrix,
    x_b: Matrix,
    b: Matrix,
}

impl MeasurementBatch {
    /// Wraps raw measurements. `x_r` columns must be ordered like the
    /// target deployment's [`Updater::reference_locations`]; `x_b` and
    /// `b` are the no-decrease matrix and known-cell mask.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for a non-finite `day`, any
    /// non-finite matrix entry (a NaN reading would survive the solve
    /// and poison the committed database, which could then never be
    /// checkpointed again), or an `x_r` / `x_b` reading outside
    /// [`RSS_DBM_RANGE`]; [`CoreError::DimensionMismatch`] when
    /// `x_b`, `b` and `x_r` disagree on the link count or `x_b` / `b`
    /// on shape.
    pub fn new(day: f64, x_r: Matrix, x_b: Matrix, b: Matrix) -> Result<Self> {
        if !day.is_finite() {
            return Err(CoreError::InvalidArgument(
                "measurement batch day must be finite",
            ));
        }
        for m in [&x_r, &x_b, &b] {
            if m.iter().any(|v| !v.is_finite()) {
                return Err(CoreError::InvalidArgument(
                    "measurement batch contains a non-finite value",
                ));
            }
        }
        for m in [&x_r, &x_b] {
            if m.iter().any(|v| !RSS_DBM_RANGE.contains(v)) {
                return Err(CoreError::InvalidArgument(
                    "measurement batch contains an RSS reading outside the physical dBm range",
                ));
            }
        }
        if x_b.shape() != b.shape() {
            return Err(CoreError::DimensionMismatch {
                context: "MeasurementBatch::new (x_b / b)",
                expected: format!("{:?}", x_b.shape()),
                got: format!("{:?}", b.shape()),
            });
        }
        if x_r.rows() != x_b.rows() {
            return Err(CoreError::DimensionMismatch {
                context: "MeasurementBatch::new (x_r rows)",
                expected: format!("{} rows", x_b.rows()),
                got: format!("{} rows", x_r.rows()),
            });
        }
        Ok(MeasurementBatch { day, x_r, x_b, b })
    }

    /// Collects a batch from a simulated testbed: fresh reference
    /// columns at `reference_locations`, the no-decrease survey, and
    /// the classification mask — exactly what the synchronous fallback
    /// inside [`UpdateService::run_cycle`] gathers.
    pub fn collect(
        testbed: &Testbed,
        reference_locations: &[usize],
        day: f64,
        samples: usize,
    ) -> Result<Self> {
        let samples = samples.max(1);
        let x_r = testbed.measure_columns(reference_locations, day, samples);
        let x_b_full = testbed.fingerprint_matrix(day, samples);
        let b = crate::classify::CellClassification::from_testbed(testbed).index_matrix();
        let x_b = b.hadamard(&x_b_full)?;
        MeasurementBatch::new(day, x_r, x_b, b)
    }

    /// Day offset the measurements were collected at.
    pub fn day(&self) -> f64 {
        self.day
    }

    /// The fresh reference columns `X_R`.
    pub fn reference_columns(&self) -> &Matrix {
        &self.x_r
    }

    /// The no-decrease matrix `X_B`.
    pub fn no_decrease(&self) -> &Matrix {
        &self.x_b
    }

    /// The known-cell mask `B`.
    pub fn mask(&self) -> &Matrix {
        &self.b
    }
}

/// FIFO of pending [`MeasurementBatch`]es for one deployment. Batches
/// enter through [`UpdateService::ingest`] (which enforces
/// non-decreasing days) and leave when a cycle drains them, oldest
/// first.
#[derive(Debug, Clone, Default)]
pub struct IngestQueue {
    batches: VecDeque<MeasurementBatch>,
}

impl IngestQueue {
    /// Number of pending batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Day stamp of the most recently queued batch.
    pub fn last_day(&self) -> Option<f64> {
        self.batches.back().map(MeasurementBatch::day)
    }

    fn push(&mut self, batch: MeasurementBatch) {
        self.batches.push_back(batch);
    }

    fn drain_all(&mut self) -> Vec<MeasurementBatch> {
        self.batches.drain(..).collect()
    }

    fn requeue(&mut self, batches: Vec<MeasurementBatch>) {
        for b in batches.into_iter().rev() {
            self.batches.push_front(b);
        }
    }
}

/// One managed deployment: simulator, engine, and the live database.
#[derive(Debug)]
struct ManagedDeployment {
    name: String,
    testbed: Testbed,
    updater: Updater,
    /// The committed state: a default-config localizer that owns the
    /// live database, with its prepared query structures (centred
    /// dictionary, atom rows, column norms) built once at every publish
    /// point — register, cycle commit, restore — so the first online
    /// query after a database swap pays no rebuild. Shared by `Arc`
    /// with the gateway's published snapshots.
    localizer: Arc<Localizer>,
    queue: IngestQueue,
    cycles_run: usize,
    last_update_day: f64,
}

/// Diagnostics of one deployment's update cycle.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// Which deployment.
    pub id: DeploymentId,
    /// Its registered name.
    pub name: String,
    /// Day offset of the cycle.
    pub day: f64,
    /// ALS iterations the solver performed.
    pub iterations: usize,
    /// Final objective value.
    pub final_objective: f64,
    /// Number of reference locations re-surveyed.
    pub reference_count: usize,
}

/// Everything needed to rebuild one deployment after a restart (see the
/// module docs and [`UpdateService::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentSnapshot {
    /// Registered name.
    pub name: String,
    /// The simulated environment (the v2 text format only accepts the
    /// office / library / hall presets).
    pub env: Environment,
    /// The testbed's constructor seed.
    pub seed: u64,
    /// The update engine's configuration.
    pub config: UpdaterConfig,
    /// Update cycles committed so far.
    pub cycles_run: usize,
    /// Day offset of the last committed cycle (0 if none).
    pub last_update_day: f64,
    /// The engine's MIC reference locations. With a recorded
    /// [`DeploymentSnapshot::correlation`] they form the warm-start
    /// basis restore rebuilds the engine from directly; without one
    /// they are an integrity check — restore re-derives them from
    /// `prior` and rejects a snapshot whose recorded set disagrees.
    pub reference_locations: Vec<usize>,
    /// The engine's correlation matrix `Z` (the expensive-to-relearn
    /// half of the warm-start basis), recorded at full precision so
    /// [`UpdateService::restore`] can rebuild the engine via
    /// [`Updater::from_basis`] without re-running MIC extraction or
    /// LRR. `None` for snapshots read from the legacy v2 format, which
    /// take the slow re-derivation path.
    pub correlation: Option<Matrix>,
    /// The engine's full pre-`config.rank`-truncation MIC set
    /// ([`Updater::seed_locations`]) — recorded so a restored engine's
    /// future warm-start rebases re-certify against the same seed as
    /// the original (equals `reference_locations` unless a rank
    /// override truncated the reference set).
    pub seed_locations: Vec<usize>,
    /// The database the update engine was built from (needed to rebuild
    /// the engine — MIC + correlation learning — bit-identically).
    pub prior: FingerprintMatrix,
    /// The live (latest reconstructed) database.
    pub current: FingerprintMatrix,
}

/// A point-in-time capture of a whole fleet.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceSnapshot {
    /// One entry per deployment, in registration order.
    pub deployments: Vec<DeploymentSnapshot>,
}

/// A fleet of independently updating deployments (see module docs).
#[derive(Debug, Default)]
pub struct UpdateService {
    deployments: Vec<ManagedDeployment>,
}

/// Checks that a deployment name is a single non-empty line without
/// surrounding whitespace — the domain both [`UpdateService::register`]
/// and the v2 text format accept, enforced at the earliest boundary.
pub(crate) fn validate_name(name: &str) -> Result<()> {
    if name.is_empty() || name.trim() != name || name.lines().count() != 1 {
        return Err(CoreError::InvalidArgument(
            "deployment name must be a single non-empty line without surrounding whitespace",
        ));
    }
    Ok(())
}

impl UpdateService {
    /// An empty service.
    pub fn new() -> Self {
        UpdateService::default()
    }

    /// Registers a deployment: runs the day-0 site survey at
    /// `survey_samples` readings per cell and builds its update engine
    /// (MIC extraction + correlation learning).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for a name the snapshot format
    /// could not serialise later (empty, padded, or multi-line — caught
    /// here, before any cycle work is done); otherwise propagates
    /// config validation and engine construction errors.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        testbed: Testbed,
        config: UpdaterConfig,
        survey_samples: usize,
    ) -> Result<DeploymentId> {
        let name = name.into();
        validate_name(&name)?;
        let prior = FingerprintMatrix::survey(&testbed, 0.0, survey_samples.max(1));
        let updater = Updater::new(prior.clone(), config)?;
        let id = DeploymentId(self.deployments.len());
        self.deployments.push(ManagedDeployment {
            name,
            testbed,
            updater,
            localizer: committed_state(prior),
            queue: IngestQueue::default(),
            cycles_run: 0,
            last_update_day: 0.0,
        });
        Ok(id)
    }

    /// Number of managed deployments.
    pub fn len(&self) -> usize {
        self.deployments.len()
    }

    /// `true` when no deployment is registered.
    pub fn is_empty(&self) -> bool {
        self.deployments.is_empty()
    }

    /// Handles of all managed deployments.
    pub fn ids(&self) -> Vec<DeploymentId> {
        (0..self.deployments.len()).map(DeploymentId).collect()
    }

    fn get(&self, id: DeploymentId) -> Result<&ManagedDeployment> {
        self.deployments
            .get(id.0)
            .ok_or(CoreError::InvalidArgument("unknown deployment id"))
    }

    /// Wraps `e` with the identity of deployment `idx`.
    fn dep_err(&self, idx: usize, e: CoreError) -> CoreError {
        CoreError::Deployment {
            name: self.deployments[idx].name.clone(),
            id: idx,
            source: Box::new(e),
        }
    }

    /// The deployment's registered name.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id.
    pub fn name(&self, id: DeploymentId) -> Result<&str> {
        Ok(&self.get(id)?.name)
    }

    /// The deployment's current (latest reconstructed) database.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id.
    pub fn fingerprint(&self, id: DeploymentId) -> Result<&FingerprintMatrix> {
        Ok(self.get(id)?.localizer.fingerprint())
    }

    /// The deployment's update engine.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id.
    pub fn updater(&self, id: DeploymentId) -> Result<&Updater> {
        Ok(&self.get(id)?.updater)
    }

    /// The deployment's simulated testbed.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id.
    pub fn testbed(&self, id: DeploymentId) -> Result<&Testbed> {
        Ok(&self.get(id)?.testbed)
    }

    /// Update cycles completed for the deployment.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id.
    pub fn cycles_run(&self, id: DeploymentId) -> Result<usize> {
        Ok(self.get(id)?.cycles_run)
    }

    /// Day offset of the deployment's last committed update cycle
    /// (0 before any cycle has run).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id.
    pub fn last_update_day(&self, id: DeploymentId) -> Result<f64> {
        Ok(self.get(id)?.last_update_day)
    }

    /// The deployment's pending ingest queue.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id.
    pub fn ingest_queue(&self, id: DeploymentId) -> Result<&IngestQueue> {
        Ok(&self.get(id)?.queue)
    }

    /// Removes and returns every pending batch for the deployment, in
    /// queue (day) order. The batches are handed back, not discarded —
    /// this is what lets a shutting-down gateway *drain* its
    /// accepted-but-uncommitted ingest instead of silently dropping it
    /// (see [`crate::gateway::FleetGateway::shutdown`]). Dropping the
    /// returned batches is the operator's escape hatch for a poison
    /// batch: [`UpdateService::run_cycle`] requeues drained batches on
    /// failure (atomicity), so a batch whose solve fails
    /// deterministically would otherwise wedge every subsequent cycle.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id.
    pub fn drain_ingest_queue(&mut self, id: DeploymentId) -> Result<Vec<MeasurementBatch>> {
        self.deployments
            .get_mut(id.0)
            .ok_or(CoreError::InvalidArgument("unknown deployment id"))
            .map(|dep| dep.queue.drain_all())
    }

    /// The deployment's committed state: the default-config localizer
    /// over its current database, with the prepared query structures
    /// that were built at the last publish point (register / commit /
    /// restore). The gateway publishes this same `Arc` — no copy — as
    /// an immutable snapshot, so queries never pay a rebuild.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id.
    pub fn localizer(&self, id: DeploymentId) -> Result<&Arc<Localizer>> {
        Ok(&self.get(id)?.localizer)
    }

    /// Queues a measurement batch for the deployment; the next
    /// [`UpdateService::run_cycle`] will solve and commit it.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id; otherwise a
    /// [`CoreError::Deployment`]-wrapped error when the batch's shapes
    /// do not match the deployment or its day precedes the last queued
    /// (or last committed) day.
    pub fn ingest(&mut self, id: DeploymentId, batch: MeasurementBatch) -> Result<()> {
        let dep = self.get(id)?;
        let idx = id.0;
        let (m, n) = dep.updater.prior().matrix().shape();
        if batch.x_b.shape() != (m, n) {
            let e = CoreError::DimensionMismatch {
                context: "UpdateService::ingest (x_b / b)",
                expected: format!("{m}x{n}"),
                got: format!("{}x{}", batch.x_b.rows(), batch.x_b.cols()),
            };
            return Err(self.dep_err(idx, e));
        }
        let refs = dep.updater.reference_locations().len();
        if batch.x_r.cols() != refs {
            let e = CoreError::DimensionMismatch {
                context: "UpdateService::ingest (x_r)",
                expected: format!("{m}x{refs}"),
                got: format!("{}x{}", batch.x_r.rows(), batch.x_r.cols()),
            };
            return Err(self.dep_err(idx, e));
        }
        let floor = dep.queue.last_day().unwrap_or(dep.last_update_day);
        if batch.day < floor {
            let e = CoreError::InvalidArgument("measurement batch day moves backwards");
            return Err(self.dep_err(idx, e));
        }
        self.deployments[idx].queue.push(batch);
        Ok(())
    }

    /// Runs one update cycle on **every** deployment, in parallel
    /// across deployments. A deployment with queued measurement batches
    /// drains them — one solve + commit per batch, oldest first, each
    /// at its own `batch.day()` — while a deployment with an empty
    /// queue falls back to a synchronous testbed pull at day offset
    /// `day` with `samples` readings per surveyed cell. Outcomes are
    /// ordered by deployment, then by batch within a deployment.
    ///
    /// # Errors
    ///
    /// Fails atomically: if any deployment's solve fails (the error is
    /// wrapped in [`CoreError::Deployment`] naming the culprit), no
    /// database is replaced and every drained batch returns to its
    /// queue. A reconstruction with a non-finite entry counts as a
    /// failed solve. Also rejects a non-finite `day`, or a `day`
    /// earlier than the last committed cycle of any deployment that
    /// would fall back to a pull.
    pub fn run_cycle(&mut self, day: f64, samples: usize) -> Result<Vec<UpdateOutcome>> {
        if !day.is_finite() {
            return Err(CoreError::InvalidArgument("update day must be finite"));
        }
        for idx in 0..self.deployments.len() {
            self.guard_day(idx, day)?;
        }
        let plans: Vec<Vec<MeasurementBatch>> = self
            .deployments
            .iter_mut()
            .map(|d| d.queue.drain_all())
            .collect();
        // Parallel phase: solve every deployment's work list.
        let work: Vec<(&ManagedDeployment, &[MeasurementBatch])> = self
            .deployments
            .iter()
            .zip(plans.iter().map(Vec::as_slice))
            .collect();
        let results: Vec<Result<Vec<(f64, FingerprintMatrix, SolveReport)>>> = work
            .par_iter()
            .map(|&(dep, plan)| run_deployment_cycle(dep, plan, day, samples))
            .collect();
        drop(work);
        // Commit phase: sequential, atomic on success of all. A single
        // pass splits successes from the first error, so no
        // second-look `expect` is needed.
        let mut fresh: Vec<Vec<(f64, FingerprintMatrix, SolveReport)>> =
            Vec::with_capacity(results.len());
        let mut first_err = None;
        for (idx, r) in results.into_iter().enumerate() {
            match r {
                Ok(list) => fresh.push(list),
                Err(e) => {
                    first_err = Some((idx, e));
                    break;
                }
            }
        }
        if let Some((idx, e)) = first_err {
            // Undo the drain so a retry sees the same queues.
            for (dep, plan) in self.deployments.iter_mut().zip(plans) {
                dep.queue.requeue(plan);
            }
            return Err(self.dep_err(idx, e));
        }
        let mut outcomes = Vec::with_capacity(fresh.len());
        for (idx, committed) in fresh.into_iter().enumerate() {
            self.commit_deployment(idx, committed, &mut outcomes);
        }
        Ok(outcomes)
    }

    /// Rejects a cycle `day` that would move deployment `idx`'s
    /// `last_update_day` backwards through a fallback pull (queued
    /// batches were already day-ordered at ingest). Called before
    /// anything is drained so failures leave queues untouched.
    fn guard_day(&self, idx: usize, day: f64) -> Result<()> {
        let dep = &self.deployments[idx];
        if dep.queue.is_empty() && day < dep.last_update_day {
            return Err(self.dep_err(
                idx,
                CoreError::InvalidArgument("update day moves backwards"),
            ));
        }
        Ok(())
    }

    /// Applies one deployment's solved work list in batch order: bumps
    /// the counters and appends one [`UpdateOutcome`] per batch, then
    /// commits the last batch's database as the new committed state.
    /// Only that last database is ever readable, so the localizer is
    /// built once per cycle, not once per batch.
    fn commit_deployment(
        &mut self,
        idx: usize,
        committed: Vec<(f64, FingerprintMatrix, SolveReport)>,
        outcomes: &mut Vec<UpdateOutcome>,
    ) {
        let dep = &mut self.deployments[idx];
        let mut last_db = None;
        for (batch_day, db, report) in committed {
            last_db = Some(db);
            dep.cycles_run += 1;
            dep.last_update_day = batch_day;
            outcomes.push(UpdateOutcome {
                id: DeploymentId(idx),
                name: dep.name.clone(),
                day: batch_day,
                iterations: report.iterations(),
                final_objective: *report
                    .objective_trace()
                    .last()
                    // invariants: allow(panic-freedom) — both solver
                    // backends push the initial objective before the
                    // iteration loop (engine.rs / reference.rs), so
                    // the trace is non-empty by construction.
                    .expect("trace is never empty"),
                reference_count: dep.updater.reference_locations().len(),
            });
        }
        if let Some(db) = last_db {
            dep.localizer = committed_state(db);
        }
    }

    /// Captures the whole fleet as a [`ServiceSnapshot`] (pending
    /// ingest queues are transient and not included — see module docs).
    ///
    /// # Examples
    ///
    /// Checkpoint a fleet and serialise it with
    /// [`crate::persist::write_service`]:
    ///
    /// ```
    /// use iupdater_core::prelude::*;
    /// use iupdater_core::persist;
    /// use iupdater_rfsim::{Environment, Testbed};
    ///
    /// let mut fleet = UpdateService::new();
    /// fleet.register(
    ///     "office",
    ///     Testbed::new(Environment::office(), 7),
    ///     UpdaterConfig::default(),
    ///     3,
    /// )?;
    /// fleet.run_cycle(5.0, 2)?;
    ///
    /// let mut bytes = Vec::new();
    /// persist::write_service(&fleet.snapshot(), &mut bytes)?;
    /// assert!(bytes.starts_with(b"iupdater-service v3"));
    /// # Ok::<(), iupdater_core::CoreError>(())
    /// ```
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            deployments: self
                .deployments
                .iter()
                .map(|dep| DeploymentSnapshot {
                    name: dep.name.clone(),
                    env: dep.testbed.environment().clone(),
                    seed: dep.testbed.seed(),
                    config: dep.updater.config().clone(),
                    cycles_run: dep.cycles_run,
                    last_update_day: dep.last_update_day,
                    reference_locations: dep.updater.reference_locations().to_vec(),
                    correlation: Some(dep.updater.correlation().clone()),
                    seed_locations: dep.updater.seed_locations().to_vec(),
                    prior: dep.updater.prior().clone(),
                    current: dep.localizer.fingerprint().clone(),
                })
                .collect(),
        }
    }

    /// Rebuilds a service from a snapshot: reconstructs each testbed
    /// from its environment + seed and each update engine from its
    /// snapshotted prior database, so subsequent cycles reproduce an
    /// uninterrupted run bit-for-bit.
    ///
    /// # Errors
    ///
    /// A [`CoreError::Deployment`]-wrapped error when a deployment's
    /// database geometry does not match its environment, its recorded
    /// reference set disagrees with the engine rebuilt from `prior`,
    /// its `last_update_day` is non-finite, or engine construction
    /// fails.
    ///
    /// # Examples
    ///
    /// A restored fleet continues **bit-identically** to the one that
    /// was snapshotted:
    ///
    /// ```
    /// use iupdater_core::prelude::*;
    /// use iupdater_rfsim::{Environment, Testbed};
    ///
    /// let mut fleet = UpdateService::new();
    /// fleet.register(
    ///     "office",
    ///     Testbed::new(Environment::office(), 7),
    ///     UpdaterConfig::default(),
    ///     3,
    /// )?;
    /// fleet.run_cycle(5.0, 2)?;
    ///
    /// let snap = fleet.snapshot();
    /// let mut resumed = UpdateService::restore(&snap)?;
    ///
    /// let original = fleet.run_cycle(15.0, 2)?;
    /// let restored = resumed.run_cycle(15.0, 2)?;
    /// assert_eq!(original[0].final_objective, restored[0].final_objective);
    /// # Ok::<(), iupdater_core::CoreError>(())
    /// ```
    pub fn restore(snapshot: &ServiceSnapshot) -> Result<UpdateService> {
        let mut deployments = Vec::with_capacity(snapshot.deployments.len());
        for (idx, s) in snapshot.deployments.iter().enumerate() {
            let wrap = |e: CoreError| CoreError::Deployment {
                name: s.name.clone(),
                id: idx,
                source: Box::new(e),
            };
            if !s.last_update_day.is_finite() {
                return Err(wrap(CoreError::InvalidArgument(
                    "snapshot last_update_day must be finite",
                )));
            }
            let testbed = Testbed::new(s.env.clone(), s.seed);
            let d = testbed.deployment();
            if s.prior.num_links() != d.num_links() || s.prior.num_locations() != d.num_locations()
            {
                return Err(wrap(CoreError::InvalidArgument(
                    "snapshot database does not match its environment geometry",
                )));
            }
            if s.current.num_links() != s.prior.num_links()
                || s.current.num_locations() != s.prior.num_locations()
                || s.current.locations_per_link() != s.prior.locations_per_link()
            {
                return Err(wrap(CoreError::InvalidArgument(
                    "snapshot current database does not match the prior's geometry",
                )));
            }
            // Slow path: re-derive the engine from the prior and check
            // the recorded reference set against it — used for legacy
            // v2 snapshots (no recorded basis) and as the fallback when
            // a recorded basis fails its structural checks, so any
            // checkpoint the writer accepted is always restorable.
            let rederive = || -> Result<Updater> {
                let updater = Updater::new(s.prior.clone(), s.config.clone()).map_err(&wrap)?;
                if updater.reference_locations() != &s.reference_locations[..] {
                    return Err(wrap(CoreError::InvalidArgument(
                        "snapshot reference set does not match the rebuilt engine",
                    )));
                }
                Ok(updater)
            };
            let updater = match &s.correlation {
                // Fast path: the snapshot carries the warm-start basis,
                // so the engine is rebuilt directly from it — no MIC
                // extraction, no correlation learning. The basis was
                // recorded at full precision, so the rebuilt engine is
                // bit-identical to the snapshotted one.
                Some(z) => match Updater::from_basis(
                    s.prior.clone(),
                    s.config.clone(),
                    s.reference_locations.clone(),
                    z.clone(),
                    s.seed_locations.clone(),
                ) {
                    Ok(updater) => updater,
                    // An inconsistent basis (e.g. bit rot in the file)
                    // falls back to re-derivation: the engine is then
                    // the legitimate one for the recorded prior, and
                    // the reference-set check still rejects tampering.
                    Err(CoreError::InvalidArgument(_)) => rederive()?,
                    Err(e) => return Err(wrap(e)),
                },
                None => rederive()?,
            };
            deployments.push(ManagedDeployment {
                name: s.name.clone(),
                testbed,
                updater,
                localizer: committed_state(s.current.clone()),
                queue: IngestQueue::default(),
                cycles_run: s.cycles_run,
                last_update_day: s.last_update_day,
            });
        }
        Ok(UpdateService { deployments })
    }

    /// Localizes an online measurement against the deployment's current
    /// database, using the default-config localizer whose prepared
    /// query structures were built when the database was published
    /// (register / commit / restore).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id; otherwise
    /// propagates matching errors.
    pub fn localize(&self, id: DeploymentId, y: &[f64]) -> Result<LocationEstimate> {
        self.get(id)?.localizer.localize(y)
    }

    /// Localizes a slab of online measurements against the
    /// deployment's current database, fanning fixed-size chunks across
    /// the persistent worker pool ([`Localizer::localize_batch`]).
    /// Results are in slab order and identical to calling
    /// [`UpdateService::localize`] per query, at any worker count.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id; otherwise the
    /// first per-query matching error in slab order.
    pub fn localize_batch(
        &self,
        id: DeploymentId,
        queries: &[Vec<f64>],
    ) -> Result<Vec<LocationEstimate>> {
        self.get(id)?.localizer.localize_batch(queries)
    }

    /// Re-learns the deployment's correlation engine from its *current*
    /// database (periodic re-anchoring after many update cycles),
    /// warm-starting from the existing engine
    /// ([`Updater::warm_start`]): the previous MIC pivot set is
    /// re-certified against the new prior instead of re-running the
    /// full greedy sweep, with an automatic fallback when the selection
    /// genuinely changed. When pivots are unambiguous the result is
    /// identical to a from-scratch `Updater::new` on the current
    /// database; when reference columns are near-tied the *previous*
    /// set is kept — certified tie-equivalent to the cold selection
    /// (same rank, same certified subspace; see
    /// [`Updater::warm_start`]'s parity contract).
    ///
    /// Queued measurement batches survive a rebase untouched: their
    /// reference columns are ordered by the engine's reference set, so
    /// a rebase that would *change* that set while batches are pending
    /// is rejected (it would silently misinterpret every queued `X_R`).
    /// Drain the queue with a cycle — or discard it with
    /// [`UpdateService::drain_ingest_queue`] — and rebase again.
    /// Tie-keeping makes this refusal rarer: a selection that would
    /// previously have flickered among near-duplicate columns (and so
    /// blocked the rebase) now certifies with the set unchanged.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id or for a
    /// reference-set-changing rebase with a non-empty ingest queue;
    /// otherwise propagates engine construction errors.
    ///
    /// # Examples
    ///
    /// Re-anchor a deployment's engine on its freshest database after
    /// a cycle (the warm-start path; identical numbers, lower cost):
    ///
    /// ```
    /// use iupdater_core::prelude::*;
    /// use iupdater_rfsim::{Environment, Testbed};
    ///
    /// let mut fleet = UpdateService::new();
    /// let id = fleet.register(
    ///     "office",
    ///     Testbed::new(Environment::office(), 7),
    ///     UpdaterConfig::default(),
    ///     3,
    /// )?;
    /// fleet.run_cycle(5.0, 2)?;
    ///
    /// fleet.rebase(id)?;
    /// // The engine is now anchored on the day-5 reconstruction.
    /// assert_eq!(
    ///     fleet.updater(id)?.prior().matrix(),
    ///     fleet.fingerprint(id)?.matrix(),
    /// );
    /// # Ok::<(), iupdater_core::CoreError>(())
    /// ```
    pub fn rebase(&mut self, id: DeploymentId) -> Result<()> {
        let dep = self
            .deployments
            .get(id.0)
            .ok_or(CoreError::InvalidArgument("unknown deployment id"))?;
        let refuse = || {
            CoreError::InvalidArgument(
                "rebase would change the reference set while measurement batches are \
                 queued; run a cycle to drain them (or clear the queue) first",
            )
        };
        let current = dep.localizer.fingerprint();
        if !dep.queue.is_empty() && current != dep.updater.prior() {
            // Pre-check the refusal condition on the *selection* alone
            // before paying full engine construction (correlation
            // learning dominates a rebase): compute what the warm
            // start would select and bail out early on a change. The
            // post-construction check below stays authoritative.
            let cfg = dep.updater.config();
            let upd = crate::mic::update_selection(
                dep.updater.seed_locations(),
                current.matrix(),
                crate::mic::MicMethod::default(),
                cfg.rank_tol,
            )
            .map_err(|e| self.dep_err(id.0, e))?;
            let mut locations = upd.selection.locations;
            if let Some(r) = cfg.rank {
                if r < locations.len() {
                    locations.truncate(r);
                }
            }
            if locations != dep.updater.reference_locations() {
                return Err(self.dep_err(id.0, refuse()));
            }
        }
        let updater = Updater::warm_start(&dep.updater, current.clone())
            .map_err(|e| self.dep_err(id.0, e))?;
        if !dep.queue.is_empty()
            && updater.reference_locations() != dep.updater.reference_locations()
        {
            return Err(self.dep_err(id.0, refuse()));
        }
        self.deployments[id.0].updater = updater;
        Ok(())
    }
}

/// Builds a deployment's committed state over `db`: the default-config
/// localizer with its prepared query structures, ready to share.
fn committed_state(db: FingerprintMatrix) -> Arc<Localizer> {
    Arc::new(Localizer::new(db, LocalizerConfig::default()))
}

/// One deployment's work for a cycle (the parallel body of
/// [`UpdateService::run_cycle`]): every queued batch in order, or a
/// synchronous testbed pull at `day` when none is queued. Returns the
/// `(day, database, report)` triple per solve.
fn run_deployment_cycle(
    dep: &ManagedDeployment,
    plan: &[MeasurementBatch],
    day: f64,
    samples: usize,
) -> Result<Vec<(f64, FingerprintMatrix, SolveReport)>> {
    let pulled;
    let batches: &[MeasurementBatch] = if plan.is_empty() {
        pulled = [MeasurementBatch::collect(
            &dep.testbed,
            dep.updater.reference_locations(),
            day,
            samples,
        )?];
        &pulled
    } else {
        plan
    };
    let mut out = Vec::with_capacity(batches.len());
    for batch in batches {
        let report = dep
            .updater
            .update_report(&batch.x_r, &batch.x_b, &batch.b)?;
        let reconstruction = report.reconstruction();
        guard_committable(&reconstruction)?;
        let db = dep.updater.prior().with_matrix(reconstruction)?;
        out.push((batch.day, db, report));
    }
    Ok(out)
}

/// The commit-time guard: a reconstructed database with any
/// non-finite entry fails its deployment's solve, so
/// [`UpdateService::run_cycle`] returns the error through its atomic
/// path (nothing commits, every drained batch is requeued) and the
/// database never reaches a committed state or a reader.
fn guard_committable(reconstruction: &Matrix) -> Result<()> {
    if reconstruction.iter().any(|v| !v.is_finite()) {
        return Err(CoreError::InvalidArgument(
            "reconstructed database contains a non-finite value",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mean_reconstruction_error;
    use iupdater_rfsim::Environment;

    fn fleet() -> UpdateService {
        let mut s = UpdateService::new();
        for (i, env) in Environment::all_presets().into_iter().enumerate() {
            s.register(
                format!("site-{i}"),
                Testbed::new(env, 11 + i as u64),
                UpdaterConfig::default(),
                10,
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn register_and_accessors() {
        let s = fleet();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        let ids = s.ids();
        assert_eq!(s.name(ids[1]).unwrap(), "site-1");
        assert!(s.fingerprint(ids[0]).unwrap().num_links() > 0);
        assert_eq!(s.cycles_run(ids[2]).unwrap(), 0);
        assert_eq!(s.last_update_day(ids[2]).unwrap(), 0.0);
        assert!(s.ingest_queue(ids[0]).unwrap().is_empty());
        assert!(s.name(DeploymentId(99)).is_err());
        assert!(s.last_update_day(DeploymentId(99)).is_err());
    }

    #[test]
    fn run_cycle_updates_all_deployments() {
        let mut s = fleet();
        let outcomes = s.run_cycle(45.0, 5).unwrap();
        assert_eq!(outcomes.len(), 3);
        for (o, id) in outcomes.iter().zip(s.ids()) {
            assert_eq!(o.id, id);
            assert!(o.iterations >= 1);
            assert!(o.final_objective.is_finite());
            assert!(o.reference_count >= 1);
            assert_eq!(s.cycles_run(id).unwrap(), 1);
            assert_eq!(s.last_update_day(id).unwrap(), 45.0);
        }
        // Every reconstructed database beats its stale prior.
        for id in s.ids() {
            let truth = s.testbed(id).unwrap().expected_fingerprint_matrix(45.0);
            let stale = s.updater(id).unwrap().prior().matrix().clone();
            let fresh = s.fingerprint(id).unwrap().matrix();
            let e_fresh = mean_reconstruction_error(fresh, &truth).unwrap();
            let e_stale = mean_reconstruction_error(&stale, &truth).unwrap();
            assert!(
                e_fresh < e_stale,
                "{}: fresh {e_fresh} vs stale {e_stale}",
                s.name(id).unwrap()
            );
        }
    }

    #[test]
    fn localize_against_live_database() {
        let mut s = fleet();
        s.run_cycle(30.0, 5).unwrap();
        let id = s.ids()[0];
        let n = s.testbed(id).unwrap().deployment().num_locations();
        let y = s.testbed(id).unwrap().online_measurement(7, 30.0, 99);
        let est = s.localize(id, &y).unwrap();
        assert!(est.grid < n);
    }

    #[test]
    fn localize_batch_matches_per_query_calls() {
        let mut s = fleet();
        s.run_cycle(30.0, 5).unwrap();
        let id = s.ids()[0];
        let n = s.testbed(id).unwrap().deployment().num_locations();
        let queries: Vec<Vec<f64>> = (0..n)
            .map(|j| {
                s.testbed(id)
                    .unwrap()
                    .online_measurement(j, 30.0, 200 + j as u64)
            })
            .collect();
        let batch = s.localize_batch(id, &queries).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (y, b) in queries.iter().zip(&batch) {
            assert_eq!(s.localize(id, y).unwrap(), *b);
        }
        assert!(s.localize_batch(DeploymentId(99), &queries).is_err());
    }

    #[test]
    fn rebase_relearns_from_current() {
        let mut s = fleet();
        let id = s.ids()[0];
        s.run_cycle(60.0, 5).unwrap();
        let before_prior = s.updater(id).unwrap().prior().clone();
        s.rebase(id).unwrap();
        let after_prior = s.updater(id).unwrap().prior().clone();
        // After rebasing, the engine's prior is the updated database,
        // not the day-0 survey.
        assert_ne!(before_prior, after_prior);
        assert_eq!(after_prior, *s.fingerprint(id).unwrap());
        // The warm-started engine is identical to a from-scratch one.
        let cold = Updater::new(
            s.fingerprint(id).unwrap().clone(),
            s.updater(id).unwrap().config().clone(),
        )
        .unwrap();
        assert_eq!(
            s.updater(id).unwrap().reference_locations(),
            cold.reference_locations()
        );
        assert!(s
            .updater(id)
            .unwrap()
            .correlation()
            .approx_eq(cold.correlation(), 0.0));
    }

    #[test]
    fn rebase_preserves_queue_and_counters() {
        let mut s = fleet();
        let id = s.ids()[0];
        s.run_cycle(30.0, 5).unwrap();
        // First rebase drains nothing and re-anchors the engine; the
        // second one below exercises the stable-reference-set path with
        // batches queued.
        s.rebase(id).unwrap();
        let refs = s.updater(id).unwrap().reference_locations().to_vec();
        let batch = MeasurementBatch::collect(s.testbed(id).unwrap(), &refs, 40.0, 3).unwrap();
        s.ingest(id, batch).unwrap();
        let day_before = s.last_update_day(id).unwrap();
        let cycles_before = s.cycles_run(id).unwrap();

        // The prior already equals the current database, so this rebase
        // cannot change the reference set: the queue must survive.
        s.rebase(id).unwrap();
        assert_eq!(s.ingest_queue(id).unwrap().len(), 1);
        assert_eq!(s.ingest_queue(id).unwrap().last_day(), Some(40.0));
        assert_eq!(s.last_update_day(id).unwrap(), day_before);
        assert_eq!(s.cycles_run(id).unwrap(), cycles_before);
        assert_eq!(s.updater(id).unwrap().reference_locations(), &refs[..]);
        // …and the queued batch still drains into a committed cycle.
        let outcomes = s.run_cycle(40.0, 3).unwrap();
        assert!(outcomes.iter().any(|o| o.id == id && o.day == 40.0));
        assert!(s.ingest_queue(id).unwrap().is_empty());
    }

    #[test]
    fn rebase_refuses_to_invalidate_queued_batches() {
        // Office seed 5 with a rank override: one update cycle is
        // known to change the rank of the reconstructed database, so
        // the old seed fails certification on the new prior — a
        // *genuine* fallback (not a near-tie, which would now certify
        // with the set kept) that changes the reference set (the
        // precondition is asserted below).
        let cfg = UpdaterConfig {
            rank: Some(6),
            ..UpdaterConfig::default()
        };
        let mut s = UpdateService::new();
        let id = s
            .register(
                "office-drifty",
                Testbed::new(Environment::office(), 5),
                cfg.clone(),
                20,
            )
            .unwrap();
        s.run_cycle(15.0, 5).unwrap();
        let old_refs = s.updater(id).unwrap().reference_locations().to_vec();
        let cold = Updater::new(s.fingerprint(id).unwrap().clone(), cfg).unwrap();
        assert_ne!(
            cold.reference_locations(),
            &old_refs[..],
            "precondition: this scenario must shift the reference set"
        );

        // A batch collected for the *old* reference set is queued: the
        // rebase must refuse rather than silently reinterpret its X_R
        // columns against the new set.
        let batch = MeasurementBatch::collect(s.testbed(id).unwrap(), &old_refs, 60.0, 3).unwrap();
        s.ingest(id, batch).unwrap();
        let err = s.rebase(id).unwrap_err();
        assert!(matches!(err, CoreError::Deployment { id: 0, .. }));
        // Refusal left everything intact: same engine, same queue.
        assert_eq!(s.updater(id).unwrap().reference_locations(), &old_refs[..]);
        assert_eq!(s.ingest_queue(id).unwrap().len(), 1);

        // Draining the queue unblocks the rebase.
        s.run_cycle(60.0, 3).unwrap();
        s.rebase(id).unwrap();
        assert_ne!(s.updater(id).unwrap().reference_locations(), &old_refs[..]);
    }

    #[test]
    fn single_cycle_failure_is_isolated() {
        let mut s = UpdateService::new();
        assert!(s.run_cycle(1.0, 1).unwrap().is_empty());
    }

    #[test]
    fn day_cannot_move_backwards() {
        let mut s = fleet();
        s.run_cycle(30.0, 2).unwrap();
        let err = s.run_cycle(15.0, 2).unwrap_err();
        match err {
            CoreError::Deployment { name, id, .. } => {
                assert_eq!(name, "site-0");
                assert_eq!(id, 0);
            }
            other => panic!("expected a deployment-wrapped error, got {other:?}"),
        }
        // State untouched by the rejected cycle.
        for id in s.ids() {
            assert_eq!(s.cycles_run(id).unwrap(), 1);
            assert_eq!(s.last_update_day(id).unwrap(), 30.0);
        }
        assert!(s.run_cycle(f64::NAN, 2).is_err());
        // Re-running at the same day is allowed (idempotent re-survey).
        s.run_cycle(30.0, 2).unwrap();
    }

    #[test]
    fn ingest_feeds_cycles_and_falls_back_to_pull() {
        let mut queued = fleet();
        let mut pulled = fleet();
        let ids = queued.ids();

        // Queue two batches on site-0, one on site-1, none on site-2.
        for (k, &id) in ids.iter().enumerate() {
            let days: &[f64] = match k {
                0 => &[5.0, 15.0],
                1 => &[15.0],
                _ => &[],
            };
            for &d in days {
                let b = MeasurementBatch::collect(
                    queued.testbed(id).unwrap(),
                    queued.updater(id).unwrap().reference_locations(),
                    d,
                    5,
                )
                .unwrap();
                queued.ingest(id, b).unwrap();
            }
        }
        assert_eq!(queued.ingest_queue(ids[0]).unwrap().len(), 2);
        assert_eq!(queued.ingest_queue(ids[0]).unwrap().last_day(), Some(15.0));

        let outcomes = queued.run_cycle(15.0, 5).unwrap();
        // 2 (queued) + 1 (queued) + 1 (fallback pull) outcomes.
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0].day, 5.0);
        assert_eq!(outcomes[1].day, 15.0);
        for id in queued.ids() {
            assert!(queued.ingest_queue(id).unwrap().is_empty());
        }
        assert_eq!(queued.cycles_run(ids[0]).unwrap(), 2);
        assert_eq!(queued.cycles_run(ids[2]).unwrap(), 1);

        // Queue-fed and pull-fed cycles commit identical databases.
        pulled.run_cycle(15.0, 5).unwrap();
        for id in queued.ids() {
            assert!(queued
                .fingerprint(id)
                .unwrap()
                .matrix()
                .approx_eq(pulled.fingerprint(id).unwrap().matrix(), 0.0));
        }
    }

    #[test]
    fn ingest_validates_shape_and_day_order() {
        let mut s = fleet();
        let id = s.ids()[0];
        let good = MeasurementBatch::collect(
            s.testbed(id).unwrap(),
            s.updater(id).unwrap().reference_locations(),
            10.0,
            2,
        )
        .unwrap();

        // Wrong deployment: library has 6 links, office 8.
        let lib = s
            .ids()
            .into_iter()
            .find(|&i| s.testbed(i).unwrap().deployment().num_links() != 8)
            .unwrap();
        assert!(matches!(
            s.ingest(lib, good.clone()),
            Err(CoreError::Deployment { .. })
        ));

        s.ingest(id, good.clone()).unwrap();
        // Day earlier than the last queued batch.
        let earlier = MeasurementBatch::new(
            5.0,
            good.reference_columns().clone(),
            good.no_decrease().clone(),
            good.mask().clone(),
        )
        .unwrap();
        assert!(s.ingest(id, earlier).is_err());
        assert_eq!(s.ingest_queue(id).unwrap().len(), 1);

        assert!(MeasurementBatch::new(
            f64::NAN,
            good.reference_columns().clone(),
            good.no_decrease().clone(),
            good.mask().clone(),
        )
        .is_err());

        // A NaN reading must be rejected at the ingest boundary: it
        // would survive the solve, poison the committed database, and
        // make every later snapshot fail.
        let mut poisoned = good.no_decrease().clone();
        poisoned[(0, 0)] = f64::NAN;
        assert!(matches!(
            MeasurementBatch::new(
                10.0,
                good.reference_columns().clone(),
                poisoned,
                good.mask().clone()
            ),
            Err(CoreError::InvalidArgument(_))
        ));
    }

    #[test]
    fn ingest_rejects_implausible_rss() {
        // Every x_r / x_b entry at -v with an all-ones mask: finite, but
        // -1e150 used to commit a database with |RSS| ≈ 1e150 dBm and
        // -1.7e308 a non-finite one.
        let (m, n, refs) = (8, 96, 4);
        let batch = |x_r: f64, x_b: f64| {
            MeasurementBatch::new(
                10.0,
                Matrix::filled(m, refs, x_r),
                Matrix::filled(m, n, x_b),
                Matrix::filled(m, n, 1.0),
            )
        };
        for v in [1e150, 1.7e308, 150.5] {
            assert!(matches!(
                batch(-v, -60.0),
                Err(CoreError::InvalidArgument(_))
            ));
            assert!(matches!(
                batch(-60.0, -v),
                Err(CoreError::InvalidArgument(_))
            ));
        }
        assert!(matches!(
            batch(-60.0, 30.5),
            Err(CoreError::InvalidArgument(_))
        ));
        for (lo, hi) in [(*RSS_DBM_RANGE.start(), *RSS_DBM_RANGE.end()), (-60.0, 0.0)] {
            assert!(batch(lo, hi).is_ok());
            assert!(batch(hi, lo).is_ok());
        }
    }

    #[test]
    fn commit_guard_refuses_non_finite_reconstructions() {
        let finite = Matrix::from_fn(3, 4, |i, j| -60.0 - (i * 4 + j) as f64);
        assert!(guard_committable(&finite).is_ok());
        assert!(guard_committable(&Matrix::zeros(0, 0)).is_ok());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [(0, 0), (1, 2), (2, 3)] {
                let mut db = finite.clone();
                db[at] = bad;
                assert!(
                    matches!(guard_committable(&db), Err(CoreError::InvalidArgument(_))),
                    "{bad} at {at:?} must not commit"
                );
            }
        }
    }

    #[test]
    fn drain_ingest_queue_hands_back_pending_batches() {
        let mut s = fleet();
        let id = s.ids()[0];
        for day in [5.0, 10.0] {
            let b = MeasurementBatch::collect(
                s.testbed(id).unwrap(),
                s.updater(id).unwrap().reference_locations(),
                day,
                2,
            )
            .unwrap();
            s.ingest(id, b).unwrap();
        }
        let days: Vec<f64> = s
            .drain_ingest_queue(id)
            .unwrap()
            .iter()
            .map(MeasurementBatch::day)
            .collect();
        assert_eq!(days, [5.0, 10.0]);
        assert!(s.ingest_queue(id).unwrap().is_empty());
        assert!(s.drain_ingest_queue(id).unwrap().is_empty());
        assert!(s.drain_ingest_queue(DeploymentId(99)).is_err());
    }

    #[test]
    fn register_rejects_unserialisable_names() {
        let mut s = UpdateService::new();
        for bad in ["", " padded", "padded ", "two\nlines"] {
            assert!(
                s.register(
                    bad,
                    Testbed::new(Environment::office(), 1),
                    UpdaterConfig::default(),
                    2,
                )
                .is_err(),
                "name {bad:?} must be rejected at registration time"
            );
        }
        assert!(s.is_empty());
        // Internal spaces stay fine.
        s.register(
            "site 0",
            Testbed::new(Environment::office(), 1),
            UpdaterConfig::default(),
            2,
        )
        .unwrap();
    }

    #[test]
    fn snapshot_restore_roundtrips_fleet_state() {
        let mut s = fleet();
        s.run_cycle(15.0, 5).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.deployments.len(), 3);

        let restored = UpdateService::restore(&snap).unwrap();
        assert_eq!(restored.len(), s.len());
        for (a, b) in s.ids().into_iter().zip(restored.ids()) {
            assert_eq!(s.name(a).unwrap(), restored.name(b).unwrap());
            assert_eq!(s.cycles_run(a).unwrap(), restored.cycles_run(b).unwrap());
            assert_eq!(
                s.last_update_day(a).unwrap(),
                restored.last_update_day(b).unwrap()
            );
            assert_eq!(s.fingerprint(a).unwrap(), restored.fingerprint(b).unwrap());
            assert_eq!(
                s.updater(a).unwrap().reference_locations(),
                restored.updater(b).unwrap().reference_locations()
            );
        }
        // A second snapshot of the restored service is identical.
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn restore_continues_bit_identically() {
        let mut uninterrupted = fleet();
        let mut crashed = fleet();
        for day in [5.0, 15.0] {
            uninterrupted.run_cycle(day, 5).unwrap();
            crashed.run_cycle(day, 5).unwrap();
        }
        let snap = crashed.snapshot();
        drop(crashed);
        let mut resumed = UpdateService::restore(&snap).unwrap();
        for day in [45.0, 90.0] {
            uninterrupted.run_cycle(day, 5).unwrap();
            resumed.run_cycle(day, 5).unwrap();
        }
        for (a, b) in uninterrupted.ids().into_iter().zip(resumed.ids()) {
            assert!(uninterrupted
                .fingerprint(a)
                .unwrap()
                .matrix()
                .approx_eq(resumed.fingerprint(b).unwrap().matrix(), 0.0));
            assert_eq!(
                uninterrupted.cycles_run(a).unwrap(),
                resumed.cycles_run(b).unwrap()
            );
        }
    }

    #[test]
    fn restore_rejects_tampered_snapshots() {
        let mut s = fleet();
        s.run_cycle(5.0, 2).unwrap();
        let snap = s.snapshot();

        let mut bad_refs = snap.clone();
        bad_refs.deployments[0].reference_locations = vec![0, 1];
        assert!(matches!(
            UpdateService::restore(&bad_refs),
            Err(CoreError::Deployment { id: 0, .. })
        ));

        let mut bad_day = snap.clone();
        bad_day.deployments[1].last_update_day = f64::NAN;
        assert!(matches!(
            UpdateService::restore(&bad_day),
            Err(CoreError::Deployment { id: 1, .. })
        ));

        let mut bad_geom = snap.clone();
        bad_geom.deployments[0].prior = bad_geom.deployments[1].prior.clone();
        assert!(UpdateService::restore(&bad_geom).is_err());
    }

    #[test]
    fn restore_falls_back_to_rederivation_on_a_corrupted_basis() {
        // A basis that fails its structural checks (here: a zero Z that
        // cannot describe the prior) must not make the checkpoint
        // unrestorable: restore falls back to re-deriving the engine
        // from the prior, and the untampered reference set still
        // matches, so the fleet comes back with the legitimate engine.
        let mut s = fleet();
        s.run_cycle(5.0, 2).unwrap();
        let mut snap = s.snapshot();
        let d0 = &mut snap.deployments[0];
        let zero_z = Matrix::zeros(d0.reference_locations.len(), d0.prior.num_locations());
        d0.correlation = Some(zero_z);
        let restored = UpdateService::restore(&snap).unwrap();
        let rid = restored.ids()[0];
        assert_eq!(
            restored.updater(rid).unwrap().reference_locations(),
            s.updater(s.ids()[0]).unwrap().reference_locations()
        );
        // The re-derived correlation is the legitimate one for the
        // recorded prior, not the corrupted zeros.
        assert!(restored
            .updater(rid)
            .unwrap()
            .correlation()
            .approx_eq(s.updater(s.ids()[0]).unwrap().correlation(), 0.0));
    }
}
