//! The serving drill: one update campaign run through a
//! [`FleetGateway`], with every published epoch stormed by queries
//! and every answer checked against the unprepared oracle.
//!
//! The drill is the paper's system end to end as a service runs it:
//! measurement batches arrive over the gateway's ingest channel, each
//! cycle (MIC reference columns, then the self-augmented RSVD) commits
//! and publishes a new epoch per deployment, and localization queries
//! are served from that epoch while the drive loop owns the fleet. The
//! prepared read path may change cost, never answers: every batched
//! estimate must equal `Localizer::localize_unprepared` over the same
//! epoch's database — grid, support, coefficients and residual bits.

use iupdater_core::prelude::*;

/// One deployment's query storm against one published epoch.
#[derive(Debug, Clone)]
pub struct Storm {
    /// The deployment's registered name.
    pub name: String,
    /// The epoch the storm was served from.
    pub epoch: u64,
    /// Queries served (`queries_per_cell` per grid cell).
    pub queries: usize,
    /// Mean localization error of the served estimates, in metres.
    pub mean_error_m: f64,
}

/// What one cycle day of the drill produced.
#[derive(Debug, Clone)]
pub struct DrillDay {
    /// The cycle's day offset.
    pub day: f64,
    /// The committed cycle's outcomes, one per deployment.
    pub outcomes: Vec<UpdateOutcome>,
    /// The storms against the epoch the cycle published, one per
    /// deployment in registration order.
    pub storms: Vec<Storm>,
}

/// The finished drill.
pub struct DrillReport {
    /// One entry per cycle day, in order.
    pub days: Vec<DrillDay>,
    /// The live gateway's durable snapshot, taken after the last day.
    pub snapshot: ServiceSnapshot,
    /// The fleet as the drained shutdown handed it back.
    pub service: UpdateService,
}

/// Runs the drill over a registered `service`: for each of `days`, one
/// [`MeasurementBatch::collect`] per deployment is ingested through the
/// gateway, the cycle runs, and the published epoch answers
/// `queries_per_cell` queries per grid cell (query `q` of a day is
/// seeded `day * 100_000 + q`). Ends with a snapshot of the live
/// gateway and an orderly shutdown.
///
/// The gateway owns the fleet's simulators on its drive loop, so the
/// batches and queries come from clones of each deployment's testbed,
/// taken before launch together with its reference set.
///
/// # Errors
///
/// A message naming the failure: a core error, an epoch that is not
/// one publication per committed cycle, an estimate that deviates from
/// the oracle (with deployment, epoch and query), or acknowledged
/// batches still pending at shutdown.
pub fn run_drill(
    service: UpdateService,
    days: &[f64],
    samples: usize,
    queries_per_cell: usize,
) -> Result<DrillReport, String> {
    let core = |e: CoreError| e.to_string();
    let samples = samples.max(1);
    let per_cell = queries_per_cell.max(1);
    let ids = service.ids();
    let mut twins = Vec::with_capacity(ids.len());
    for &id in &ids {
        twins.push((
            service.name(id).map_err(core)?.to_string(),
            service.testbed(id).map_err(core)?.clone(),
            service
                .updater(id)
                .map_err(core)?
                .reference_locations()
                .to_vec(),
        ));
    }

    let gw = FleetGateway::launch(service).map_err(core)?;
    let mut report_days = Vec::with_capacity(days.len());
    for (cycle, &day) in days.iter().enumerate() {
        for (&id, (_, twin, refs)) in ids.iter().zip(&twins) {
            let batch = MeasurementBatch::collect(twin, refs, day, samples).map_err(core)?;
            gw.ingest(id, batch).map_err(core)?;
        }
        let outcomes = gw.run_cycle(day, samples).map_err(core)?;

        let mut storms = Vec::with_capacity(ids.len());
        for (&id, (name, twin, _)) in ids.iter().zip(&twins) {
            let snap = gw.published(id).map_err(core)?;
            let epoch = snap.epoch();
            if epoch != 2 + cycle as u64 {
                return Err(format!(
                    "{name} serves epoch {epoch} after {} committed cycle(s) — \
                     expected one publication per cycle",
                    cycle + 1
                ));
            }
            let d = twin.deployment();
            let n = d.num_locations();
            let queries: Vec<Vec<f64>> = (0..n * per_cell)
                .map(|q| twin.online_measurement(q % n, day, (day as u64) * 100_000 + q as u64))
                .collect();
            let served = snap.localize_batch(&queries).map_err(core)?;
            let oracle = Localizer::new(snap.fingerprint().clone(), LocalizerConfig::default());
            let mut err_sum = 0.0;
            for (q, (y, est)) in queries.iter().zip(&served).enumerate() {
                let truth = oracle.localize_unprepared(y).map_err(core)?;
                if est != &truth || est.residual_sq.to_bits() != truth.residual_sq.to_bits() {
                    return Err(format!(
                        "{name}, epoch {epoch}, day {day}: served estimate for query {q} \
                         deviates from the unprepared oracle — epoch-publication parity violation"
                    ));
                }
                err_sum += d.location(q % n).distance(d.location(est.grid));
            }
            storms.push(Storm {
                name: name.clone(),
                epoch,
                queries: queries.len(),
                mean_error_m: err_sum / queries.len() as f64,
            });
        }
        report_days.push(DrillDay {
            day,
            outcomes,
            storms,
        });
    }

    let snapshot = gw.snapshot().map_err(core)?;
    let shutdown = gw.shutdown().map_err(core)?;
    if !shutdown.pending.is_empty() {
        return Err(format!(
            "{} acknowledged batch(es) still pending at shutdown — every ingested \
             day should have been committed by its cycle",
            shutdown.pending.len()
        ));
    }
    Ok(DrillReport {
        days: report_days,
        snapshot,
        service: shutdown.service,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext_fleet::standard_fleet;

    #[test]
    fn drill_serves_every_epoch_exactly() {
        let report = run_drill(standard_fleet(3), &[5.0, 15.0], 2, 2).unwrap();
        assert_eq!(report.days.len(), 2);
        for (cycle, day) in report.days.iter().enumerate() {
            assert_eq!(day.outcomes.len(), 3);
            assert_eq!(day.storms.len(), 3);
            for storm in &day.storms {
                assert_eq!(storm.epoch, 2 + cycle as u64);
                assert!(storm.mean_error_m.is_finite() && storm.mean_error_m < 8.0);
            }
        }
        // 2 queries per cell over hall (120), office (96), library (72).
        let served: Vec<usize> = report.days[0].storms.iter().map(|s| s.queries).collect();
        assert_eq!(served, [240, 192, 144]);
        for id in report.service.ids() {
            assert_eq!(report.service.cycles_run(id).unwrap(), 2);
        }
        assert_eq!(report.snapshot.deployments.len(), 3);
    }
}
