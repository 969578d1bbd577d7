//! Async fleet gateway: read/write separation over the batched
//! [`UpdateService`] via epoch-swapped published snapshots.
//!
//! The paper's workload is extremely read-heavy: fingerprint updates
//! are rare and batched (the five campaign timestamps), while
//! localization queries arrive constantly. The plain service couples
//! the two — `run_cycle` is a `&mut self` method on the caller's
//! loop, so a query issued during a cycle contends with the solve.
//! The [`FleetGateway`] breaks that coupling:
//!
//! - **Writes** (ingest, cycles, rebase, snapshot) travel over a
//!   bounded command channel to a `drive` loop running on the rayon
//!   shim's detached task executor ([`rayon::spawn`]). The loop owns
//!   the [`UpdateService`]; commands are processed strictly in arrival
//!   order.
//! - **Reads** ([`FleetGateway::localize`] /
//!   [`FleetGateway::localize_batch`]) never touch the channel. Each
//!   deployment's prepared localizer (which owns its committed
//!   database) is built once per cycle by the service and shared by
//!   `Arc` into an epoch-swapped [`PublishedSnapshot`] behind an
//!   [`EpochCell`]: the drive loop publishes a fresh snapshot after
//!   every committed cycle, readers grab the current epoch with one
//!   `Arc` clone under a read lock, and queries then run entirely on
//!   the caller's thread against immutable data — zero contention with
//!   an in-flight cycle.
//!
//! # The epoch-publication invariant
//!
//! Readers observe exactly one committed epoch: a query never sees a
//! half-committed database, because a commit builds the complete
//! [`PublishedSnapshot`] *before* swapping it in, and the swap is one
//! pointer exchange under the cell's write lock. A reader that pinned
//! a snapshot keeps answering against its original epoch for as long
//! as it holds the `Arc` — an old epoch is retired (freed) at the next
//! commit once no reader pins it. `core/tests/gateway_parity.rs`
//! proves both properties under concurrent query storms at pool widths
//! 1/2/4/7.
//!
//! # Backpressure policy
//!
//! The command channel is bounded at [`GATEWAY_CHANNEL_CAPACITY`]
//! commands. [`FleetGateway::ingest`] *blocks* when the drive loop
//! has that many commands outstanding (producers are paced to the
//! solve rate); [`FleetGateway::try_ingest`] instead hands the batch
//! straight back so the producer can apply its own policy. Acceptance
//! is explicit either way: once `ingest` returns `Ok`, the batch has
//! passed day-order validation and is queued — and
//! [`FleetGateway::shutdown`] *drains* instead of dropping, so every
//! accepted batch is either committed by a cycle or returned in the
//! [`ShutdownReport`]. No acknowledged batch is ever silently lost.
//!
//! ```
//! use iupdater_core::prelude::*;
//! use iupdater_rfsim::{Environment, Testbed};
//!
//! let mut fleet = UpdateService::new();
//! let id = fleet.register(
//!     "office",
//!     Testbed::new(Environment::office(), 7),
//!     UpdaterConfig::default(),
//!     3,
//! )?;
//! let gateway = FleetGateway::launch(fleet)?;
//!
//! gateway.run_cycle(5.0, 2)?; // solved on the drive loop
//! let snap = gateway.published(id)?; // pinned: epoch 2
//! assert_eq!(snap.epoch(), 2);
//! let report = gateway.shutdown()?;
//! assert!(report.pending.is_empty());
//! # Ok::<(), iupdater_core::CoreError>(())
//! ```

use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, RwLock};

use crate::fingerprint::FingerprintMatrix;
use crate::localize::{Localizer, LocationEstimate};
use crate::service::{
    DeploymentId, MeasurementBatch, ServiceSnapshot, UpdateOutcome, UpdateService,
};
use crate::{CoreError, Result};

/// Bound of the gateway's command channel: how many write-side
/// commands (ingest / cycle / snapshot / …) may be outstanding before
/// [`FleetGateway::ingest`] blocks and [`FleetGateway::try_ingest`]
/// returns the batch. Small enough that a stalled drive loop surfaces
/// as backpressure quickly, large enough that a burst of per-day
/// batches for a whole fleet queues without pacing.
pub const GATEWAY_CHANNEL_CAPACITY: usize = 64;

/// The error every gateway call maps a dead drive loop to.
fn gateway_down() -> CoreError {
    CoreError::InvalidArgument("the fleet gateway's drive loop is no longer running")
}

/// Recovers a lock guard even if a reader panicked while holding it:
/// published data is swapped atomically (never mutated in place), so a
/// poisoned lock cannot guard torn state.
fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poison| poison.into_inner())
}

/// Writer-side counterpart of [`read_lock`].
fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|poison| poison.into_inner())
}

// ---------------------------------------------------------------------------
// Epoch-swapped publication cell.
// ---------------------------------------------------------------------------

/// An epoch-swapped publication cell: one writer publishes immutable
/// values, any number of readers grab the current one without ever
/// observing a half-finished publish.
///
/// The cell is a single `RwLock<(epoch, Arc<T>)>`. A publish bumps the
/// epoch and swaps the value in one write-locked transaction, and a
/// read clones the pair under the read lock, so readers see either the
/// old epoch with the old value or the new epoch with the new value —
/// never a mix. Both critical sections are a pointer swap or an `Arc`
/// clone; the value itself is built before the lock is taken.
/// Retirement is reference counting: a replaced value is freed at the
/// next publish once no reader pins it — a reader pinned across a
/// commit keeps its original epoch alive.
pub struct EpochCell<T> {
    /// The current epoch and the value it published.
    current: RwLock<(u64, Arc<T>)>,
}

impl<T> EpochCell<T> {
    /// Seeds the cell at epoch 1 with `initial`.
    pub fn new(initial: Arc<T>) -> Self {
        EpochCell {
            current: RwLock::new((1, initial)),
        }
    }

    /// The current epoch (monotonically non-decreasing).
    pub fn epoch(&self) -> u64 {
        read_lock(&self.current).0
    }

    /// Grabs the currently published `(epoch, value)`. The read lock
    /// is held only for an `Arc` clone.
    pub fn read(&self) -> (u64, Arc<T>) {
        let guard = read_lock(&self.current);
        (guard.0, Arc::clone(&guard.1))
    }

    /// Publishes `value` as the next epoch and returns that epoch. The
    /// epoch bump and the swap happen under one write lock, so a
    /// concurrent [`EpochCell::read`] observes the old epoch or the
    /// new one — never an intermediate state.
    pub fn publish(&self, value: Arc<T>) -> u64 {
        let (next, old) = {
            let mut guard = write_lock(&self.current);
            guard.0 += 1;
            (guard.0, std::mem::replace(&mut guard.1, value))
        };
        // The superseded value is released outside the lock, so a
        // retirement that frees it never stalls readers.
        drop(old);
        next
    }
}

impl<T> std::fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCell")
            .field("epoch", &self.epoch())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Published snapshots.
// ---------------------------------------------------------------------------

/// One deployment's immutable published state: the prepared localizer
/// (which owns the committed database) built at its commit point,
/// stamped with the epoch that published it. The localizer is the
/// service's own `Arc`, shared rather than copied. Queries against a
/// pinned snapshot keep answering bit-identically no matter how many
/// commits land after the pin.
#[derive(Debug, Clone)]
pub struct PublishedSnapshot {
    epoch: u64,
    name: String,
    localizer: Arc<Localizer>,
    cycles_run: usize,
    last_update_day: f64,
}

impl PublishedSnapshot {
    /// The epoch this snapshot was published at (1 = launch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The deployment's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The committed fingerprint database this snapshot serves. The
    /// parity tiers evaluate the unprepared oracle on exactly this
    /// matrix to prove the read path answered from one committed
    /// epoch.
    pub fn fingerprint(&self) -> &FingerprintMatrix {
        self.localizer.fingerprint()
    }

    /// The prepared default-config localizer over
    /// [`PublishedSnapshot::fingerprint`].
    pub fn localizer(&self) -> &Localizer {
        &self.localizer
    }

    /// Committed cycles at publish time.
    pub fn cycles_run(&self) -> usize {
        self.cycles_run
    }

    /// Day offset of the last committed update at publish time.
    pub fn last_update_day(&self) -> f64 {
        self.last_update_day
    }

    /// Localizes one online measurement against this snapshot's
    /// database (the prepared path; bit-identical to the unprepared
    /// oracle on the same database).
    ///
    /// # Errors
    ///
    /// Propagates matching errors ([`CoreError::DimensionMismatch`]
    /// for a wrong-length measurement).
    pub fn localize(&self, y: &[f64]) -> Result<LocationEstimate> {
        self.localizer.localize(y)
    }

    /// Localizes a slab of measurements against this snapshot's
    /// database, fanning chunks across the worker pool
    /// ([`Localizer::localize_batch`]). Safe to call while an update
    /// cycle is in flight: the cycle commits to a *new* snapshot and
    /// never touches this one.
    ///
    /// # Errors
    ///
    /// The first per-query matching error in slab order.
    pub fn localize_batch(&self, queries: &[Vec<f64>]) -> Result<Vec<LocationEstimate>> {
        self.localizer.localize_batch(queries)
    }
}

// ---------------------------------------------------------------------------
// The gateway.
// ---------------------------------------------------------------------------

/// Write-side command, processed strictly in arrival order by the
/// drive loop.
enum Command {
    Ingest {
        id: DeploymentId,
        batch: MeasurementBatch,
        reply: Sender<Result<()>>,
    },
    RunCycle {
        day: f64,
        samples: usize,
        reply: Sender<Result<Vec<UpdateOutcome>>>,
    },
    Rebase {
        id: DeploymentId,
        reply: Sender<Result<()>>,
    },
    Snapshot {
        reply: Sender<ServiceSnapshot>,
    },
    Shutdown {
        reply: Sender<ShutdownReport>,
    },
}

/// What an orderly [`FleetGateway::shutdown`] hands back: the service
/// itself (for relaunch or inspection) and every accepted-but-not-yet
/// committed [`MeasurementBatch`], drained in day order per
/// deployment. A [`ServiceSnapshot`] deliberately excludes pending
/// queues, so without this drain a shutdown would silently lose
/// acknowledged data.
pub struct ShutdownReport {
    /// The update service the drive loop owned, queues drained.
    pub service: UpdateService,
    /// Accepted batches no cycle committed, ready to re-ingest after a
    /// relaunch.
    pub pending: Vec<(DeploymentId, MeasurementBatch)>,
}

/// In-flight update cycle handle (see [`FleetGateway::begin_cycle`]).
/// Dropping the ticket abandons the *wait*, not the cycle: the drive
/// loop still finishes and publishes it.
#[derive(Debug)]
pub struct CycleTicket {
    rx: Receiver<Result<Vec<UpdateOutcome>>>,
}

impl CycleTicket {
    /// Blocks until the cycle commits (or fails atomically) and
    /// returns its outcomes.
    ///
    /// # Errors
    ///
    /// The cycle's own error, or the gateway-down error if the drive
    /// loop died before replying.
    pub fn wait(self) -> Result<Vec<UpdateOutcome>> {
        self.rx.recv().unwrap_or_else(|_| Err(gateway_down()))
    }
}

/// Read/write-separated front of an [`UpdateService`]: writes travel
/// over a bounded channel to a drive loop on the detached task
/// executor, reads go straight to per-deployment epoch-swapped
/// [`PublishedSnapshot`]s. See the [module docs](self) for the
/// epoch-publication invariant and the backpressure policy.
///
/// Dropping the gateway without [`FleetGateway::shutdown`] "kills" it:
/// the drive loop finishes the command in flight (a running cycle
/// still commits and publishes) and exits, discarding the service and
/// any queued batches — the crash the failure-injection drill
/// restores from a checkpoint.
pub struct FleetGateway {
    cmd: SyncSender<Command>,
    ids: Vec<DeploymentId>,
    cells: Arc<Vec<EpochCell<PublishedSnapshot>>>,
}

impl std::fmt::Debug for FleetGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetGateway")
            .field("deployments", &self.ids.len())
            .finish()
    }
}

impl FleetGateway {
    /// Takes ownership of `service`, publishes every deployment's
    /// current state at epoch 1, and starts the drive loop on the
    /// detached task executor. Deployments must be registered before
    /// launch; the fleet roster is fixed for the gateway's lifetime.
    ///
    /// # Errors
    ///
    /// Currently infallible for any well-formed service; the
    /// signature reserves the right to validate more at launch.
    pub fn launch(service: UpdateService) -> Result<FleetGateway> {
        let ids = service.ids();
        let mut cells = Vec::with_capacity(ids.len());
        for &id in &ids {
            let snap = snapshot_deployment(&service, id, 1)?;
            cells.push(EpochCell::new(Arc::new(snap)));
        }
        let cells = Arc::new(cells);
        let (cmd, rx) = mpsc::sync_channel(GATEWAY_CHANNEL_CAPACITY);
        let drive_ids = ids.clone();
        let drive_cells = Arc::clone(&cells);
        rayon::spawn(move || drive(service, rx, drive_ids, drive_cells));
        Ok(FleetGateway { cmd, ids, cells })
    }

    /// [`UpdateService::restore`] followed by [`FleetGateway::launch`]:
    /// brings a checkpointed fleet back up behind a fresh gateway,
    /// published at epoch 1.
    ///
    /// # Errors
    ///
    /// Propagates restore errors (tampered snapshot, malformed
    /// fields).
    pub fn restore(snapshot: &ServiceSnapshot) -> Result<FleetGateway> {
        FleetGateway::launch(UpdateService::restore(snapshot)?)
    }

    /// Handles of every deployment, in registration order.
    pub fn ids(&self) -> Vec<DeploymentId> {
        self.ids.clone()
    }

    /// Number of deployments behind the gateway.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the gateway fronts an empty fleet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Maps a deployment id to its cell index.
    fn index_of(&self, id: DeploymentId) -> Result<usize> {
        self.ids
            .iter()
            .position(|&x| x == id)
            .ok_or(CoreError::InvalidArgument("unknown deployment id"))
    }

    /// The deployment's current published epoch (1 = launch, +1 per
    /// committed cycle batch set). Non-decreasing over the gateway's
    /// lifetime.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id.
    pub fn epoch(&self, id: DeploymentId) -> Result<u64> {
        Ok(self.cells[self.index_of(id)?].epoch())
    }

    /// Pins the deployment's currently published snapshot. The pin is
    /// an `Arc`: queries against it stay on the pinned epoch even as
    /// later cycles commit, and the epoch's memory is retired once the
    /// last pin drops.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id.
    pub fn published(&self, id: DeploymentId) -> Result<Arc<PublishedSnapshot>> {
        let (_, snap) = self.cells[self.index_of(id)?].read();
        Ok(snap)
    }

    /// Localizes one online measurement against the deployment's
    /// currently published snapshot, entirely on the calling thread —
    /// never blocked by, and never observing, an in-flight cycle.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an unknown id; otherwise
    /// matching errors.
    pub fn localize(&self, id: DeploymentId, y: &[f64]) -> Result<LocationEstimate> {
        self.published(id)?.localize(y)
    }

    /// Localizes a slab of measurements against the deployment's
    /// currently published snapshot (one epoch for the whole slab),
    /// fanning chunks across the worker pool.
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
        self.published(id)?.localize_batch(queries)
    }

    /// Queues a measurement batch through the ingest channel and waits
    /// for the drive loop's acknowledgement (day-order validation runs
    /// on the loop, against the authoritative queue state). **Blocks**
    /// while the command channel is full — the backpressure half of
    /// the policy; see [`FleetGateway::try_ingest`] for the
    /// non-blocking half. An `Ok` return is an acceptance guarantee:
    /// the batch will be committed by a later cycle or returned by
    /// [`FleetGateway::shutdown`].
    ///
    /// # Errors
    ///
    /// The service's ingest errors (unknown id, shape mismatch,
    /// day-order violation), or the gateway-down error.
    pub fn ingest(&self, id: DeploymentId, batch: MeasurementBatch) -> Result<()> {
        self.index_of(id)?;
        let (reply, rx) = mpsc::channel();
        self.cmd
            .send(Command::Ingest { id, batch, reply })
            .map_err(|_| gateway_down())?;
        rx.recv().unwrap_or_else(|_| Err(gateway_down()))
    }

    /// Non-blocking [`FleetGateway::ingest`]: when the command channel
    /// is full, the batch is handed straight back as `Ok(Some(batch))`
    /// — the caller owns the overflow policy (retry, spill, drop).
    /// `Ok(None)` is the same acceptance guarantee as `ingest`'s `Ok`.
    ///
    /// # Errors
    ///
    /// As [`FleetGateway::ingest`].
    pub fn try_ingest(
        &self,
        id: DeploymentId,
        batch: MeasurementBatch,
    ) -> Result<Option<MeasurementBatch>> {
        self.index_of(id)?;
        let (reply, rx) = mpsc::channel();
        match self.cmd.try_send(Command::Ingest { id, batch, reply }) {
            Ok(()) => {
                rx.recv().unwrap_or_else(|_| Err(gateway_down()))?;
                Ok(None)
            }
            Err(TrySendError::Full(Command::Ingest { batch, .. })) => Ok(Some(batch)),
            Err(_) => Err(gateway_down()),
        }
    }

    /// Submits one update cycle (every deployment, queued batches
    /// drained oldest-first or a testbed pull at `day`) and returns a
    /// ticket without waiting. The cycle runs on the drive loop;
    /// queries keep flowing against the previous epoch until it
    /// commits and publishes.
    ///
    /// # Errors
    ///
    /// The gateway-down error when the drive loop is gone.
    pub fn begin_cycle(&self, day: f64, samples: usize) -> Result<CycleTicket> {
        let (reply, rx) = mpsc::channel();
        self.cmd
            .send(Command::RunCycle {
                day,
                samples,
                reply,
            })
            .map_err(|_| gateway_down())?;
        Ok(CycleTicket { rx })
    }

    /// [`FleetGateway::begin_cycle`] + [`CycleTicket::wait`]: runs one
    /// update cycle to completion. On success every deployment's fresh
    /// database is already published when this returns.
    ///
    /// # Errors
    ///
    /// The cycle's atomic failure (wrapped per deployment), or the
    /// gateway-down error.
    pub fn run_cycle(&self, day: f64, samples: usize) -> Result<Vec<UpdateOutcome>> {
        self.begin_cycle(day, samples)?.wait()
    }

    /// Re-anchors one deployment's correlation engine on its current
    /// database ([`UpdateService::rebase`]), on the drive loop.
    /// Published snapshots are unaffected — a rebase changes the
    /// engine, not the committed database.
    ///
    /// # Errors
    ///
    /// The service's rebase errors, or the gateway-down error.
    pub fn rebase(&self, id: DeploymentId) -> Result<()> {
        self.index_of(id)?;
        let (reply, rx) = mpsc::channel();
        self.cmd
            .send(Command::Rebase { id, reply })
            .map_err(|_| gateway_down())?;
        rx.recv().unwrap_or_else(|_| Err(gateway_down()))
    }

    /// Checkpoints the live fleet: the drive loop captures a
    /// [`ServiceSnapshot`] between commands, so the checkpoint is
    /// always a committed state — never mid-cycle. Ready for
    /// [`crate::persist::write_service`] and a later
    /// [`FleetGateway::restore`].
    ///
    /// # Errors
    ///
    /// The gateway-down error when the drive loop is gone.
    pub fn snapshot(&self) -> Result<ServiceSnapshot> {
        let (reply, rx) = mpsc::channel();
        self.cmd
            .send(Command::Snapshot { reply })
            .map_err(|_| gateway_down())?;
        rx.recv().map_err(|_| gateway_down())
    }

    /// Orderly shutdown: every command already accepted into the
    /// channel (including queued ingests) is processed first — the
    /// channel is a FIFO and this consumes the gateway, so nothing can
    /// be enqueued after — then the drive loop drains all pending
    /// ingest queues and hands back the service plus the drained
    /// batches. Drain, not drop: see [`ShutdownReport`].
    ///
    /// # Errors
    ///
    /// The gateway-down error when the drive loop died earlier.
    pub fn shutdown(self) -> Result<ShutdownReport> {
        let (reply, rx) = mpsc::channel();
        self.cmd
            .send(Command::Shutdown { reply })
            .map_err(|_| gateway_down())?;
        rx.recv().map_err(|_| gateway_down())
    }
}

/// Builds one deployment's [`PublishedSnapshot`] at `epoch` from the
/// service's committed state: the prepared localizer built at the
/// commit point is shared by `Arc`, so publishing copies no matrix and
/// the read path never rebuilds.
fn snapshot_deployment(
    service: &UpdateService,
    id: DeploymentId,
    epoch: u64,
) -> Result<PublishedSnapshot> {
    Ok(PublishedSnapshot {
        epoch,
        name: service.name(id)?.to_string(),
        localizer: Arc::clone(service.localizer(id)?),
        cycles_run: service.cycles_run(id)?,
        last_update_day: service.last_update_day(id)?,
    })
}

/// Publishes every deployment's freshly committed state: the complete
/// snapshot is built first, then swapped in with a single epoch
/// advance per deployment (the epoch-publication invariant).
fn publish_fleet(
    service: &UpdateService,
    ids: &[DeploymentId],
    cells: &[EpochCell<PublishedSnapshot>],
) {
    for (cell, &id) in cells.iter().zip(ids) {
        let next = cell.epoch() + 1;
        // `ids` came from the service itself and the roster is fixed,
        // so this cannot fail; stay panic-free regardless.
        let Ok(snap) = snapshot_deployment(service, id, next) else {
            continue;
        };
        cell.publish(Arc::new(snap));
    }
}

/// The gateway's drive loop (runs detached on the task executor): owns
/// the service, processes commands in arrival order, republishes after
/// every committed cycle, and exits on shutdown — or when every sender
/// is gone (the gateway was dropped mid-flight; the kill path).
fn drive(
    mut service: UpdateService,
    rx: Receiver<Command>,
    ids: Vec<DeploymentId>,
    cells: Arc<Vec<EpochCell<PublishedSnapshot>>>,
) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Ingest { id, batch, reply } => {
                let _ = reply.send(service.ingest(id, batch));
            }
            Command::RunCycle {
                day,
                samples,
                reply,
            } => {
                let outcome = service.run_cycle(day, samples);
                if outcome.is_ok() {
                    publish_fleet(&service, &ids, &cells);
                }
                let _ = reply.send(outcome);
            }
            Command::Rebase { id, reply } => {
                let _ = reply.send(service.rebase(id));
            }
            Command::Snapshot { reply } => {
                let _ = reply.send(service.snapshot());
            }
            Command::Shutdown { reply } => {
                let mut pending = Vec::new();
                for &id in &ids {
                    if let Ok(batches) = service.drain_ingest_queue(id) {
                        pending.extend(batches.into_iter().map(|b| (id, b)));
                    }
                }
                let _ = reply.send(ShutdownReport { service, pending });
                return;
            }
        }
    }
    // Channel closed without a Shutdown: the gateway was dropped.
    // The service (and any pending queues) dies here — recovery is
    // FleetGateway::restore from the last checkpoint.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UpdaterConfig;
    use iupdater_rfsim::{Environment, Testbed};

    fn office_gateway() -> (FleetGateway, DeploymentId) {
        let mut fleet = UpdateService::new();
        let id = fleet
            .register(
                "office",
                Testbed::new(Environment::office(), 7),
                UpdaterConfig::default(),
                3,
            )
            .expect("register");
        (FleetGateway::launch(fleet).expect("launch"), id)
    }

    #[test]
    fn gateway_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FleetGateway>();
        assert_send_sync::<PublishedSnapshot>();
        assert_send_sync::<EpochCell<PublishedSnapshot>>();
    }

    #[test]
    fn epoch_cell_swaps_and_validates() {
        let cell = EpochCell::new(Arc::new(10usize));
        assert_eq!(cell.read(), (1, Arc::new(10usize)));
        assert_eq!(cell.publish(Arc::new(20usize)), 2);
        assert_eq!(cell.publish(Arc::new(30usize)), 3);
        let (e, v) = cell.read();
        assert_eq!((e, *v), (3, 30));
        assert_eq!(cell.epoch(), 3);
    }

    #[test]
    fn retirement_frees_unreferenced_epochs() {
        let cell = EpochCell::new(Arc::new(1usize));
        let (_, pinned) = cell.read();
        let weak = Arc::downgrade(&pinned);
        // The publish drops the cell's reference; only the pin keeps
        // the original alive.
        cell.publish(Arc::new(2));
        assert!(weak.upgrade().is_some(), "pin must keep the epoch alive");
        drop(pinned);
        assert!(
            weak.upgrade().is_none(),
            "unreferenced epoch must be retired"
        );
        // Unpinned, a superseded value is freed by the very next
        // publish.
        let weak = Arc::downgrade(&cell.read().1);
        cell.publish(Arc::new(3));
        assert!(
            weak.upgrade().is_none(),
            "superseded epoch must be freed at the next publish"
        );
    }

    #[test]
    fn publish_shares_the_committed_localizer() {
        let (gw, id) = office_gateway();
        gw.run_cycle(5.0, 2).unwrap();
        let snap = gw.published(id).unwrap();
        // Two reads of one epoch hand out the same snapshot.
        assert!(Arc::ptr_eq(&snap, &gw.published(id).unwrap()));
        let report = gw.shutdown().unwrap();
        // The snapshot serves the service's own localizer, not a copy.
        assert!(std::ptr::eq(
            snap.localizer(),
            &**report.service.localizer(id).unwrap()
        ));
    }

    #[test]
    fn launch_publishes_epoch_one_and_cycle_advances_it() {
        let (gw, id) = office_gateway();
        assert_eq!(gw.epoch(id).unwrap(), 1);
        let snap = gw.published(id).unwrap();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.name(), "office");
        assert_eq!(snap.cycles_run(), 0);

        gw.run_cycle(5.0, 2).unwrap();
        assert_eq!(gw.epoch(id).unwrap(), 2);
        let snap = gw.published(id).unwrap();
        assert_eq!(snap.cycles_run(), 1);
        assert_eq!(snap.last_update_day(), 5.0);
        gw.shutdown().unwrap();
    }

    #[test]
    fn failed_cycle_publishes_nothing() {
        let (gw, id) = office_gateway();
        gw.run_cycle(5.0, 2).unwrap();
        // Day moves backwards: the cycle fails atomically…
        assert!(gw.run_cycle(1.0, 2).is_err());
        // …and the published epoch is untouched.
        assert_eq!(gw.epoch(id).unwrap(), 2);
        gw.shutdown().unwrap();
    }

    #[test]
    fn unknown_id_and_bad_query_are_rejected_on_the_read_path() {
        let (gw, id) = office_gateway();
        // An id from a larger fleet is outside this gateway's roster.
        let mut other_fleet = UpdateService::new();
        for (k, env) in [Environment::office(), Environment::library()]
            .into_iter()
            .enumerate()
        {
            other_fleet
                .register(
                    format!("d{k}"),
                    Testbed::new(env, 8),
                    UpdaterConfig::default(),
                    3,
                )
                .expect("register");
        }
        let foreign = other_fleet.ids()[1];
        assert!(gw.published(foreign).is_err());
        assert!(gw.epoch(foreign).is_err());
        // A wrong-length measurement is a matching error.
        let bogus_query = vec![0.0; 4];
        assert!(gw.localize(id, &bogus_query).is_err());
        gw.shutdown().unwrap();
    }

    #[test]
    fn shutdown_returns_service_with_drained_queues() {
        let (gw, id) = office_gateway();
        gw.run_cycle(5.0, 2).unwrap();
        let batch = MeasurementBatch::collect(
            // A twin testbed generates a valid batch without reaching
            // into the gateway-owned service.
            &Testbed::new(Environment::office(), 7),
            &office_reference_locations(),
            10.0,
            2,
        )
        .expect("collect");
        gw.ingest(id, batch).unwrap();
        let report = gw.shutdown().unwrap();
        assert_eq!(report.pending.len(), 1);
        assert_eq!(report.pending[0].0, id);
        assert_eq!(report.pending[0].1.day(), 10.0);
        // The queues were drained into `pending`, not left behind.
        assert!(report.service.ingest_queue(id).unwrap().is_empty());
    }

    /// The reference set the gateway's office deployment uses, derived
    /// from a twin registration (tests only; a real producer knows its
    /// deployment's reference set).
    fn office_reference_locations() -> Vec<usize> {
        let mut fleet = UpdateService::new();
        let id = fleet
            .register(
                "office",
                Testbed::new(Environment::office(), 7),
                UpdaterConfig::default(),
                3,
            )
            .expect("register");
        fleet
            .updater(id)
            .expect("registered")
            .reference_locations()
            .to_vec()
    }
}
