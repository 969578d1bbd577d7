//! A durable, queue-fed fleet gateway in miniature.
//!
//! A production gateway runs update cycles on a timer, takes field
//! measurements whenever surveyors upload them, and must survive a
//! process restart without losing a single reconstructed database.
//! This example walks that lifecycle end to end:
//!
//! 1. register three deployments and run a checkpoint-on-commit
//!    schedule, writing a snapshot to disk after every cycle;
//! 2. "crash" (drop the service) and restore the fleet from the last
//!    checkpoint on disk;
//! 3. feed the restored fleet *asynchronously*: queue measurement
//!    batches through the ingest API, then run a timer cycle that
//!    drains them;
//! 4. verify the resumed fleet is bit-identical to a control fleet
//!    that never crashed.
//!
//! ```text
//! cargo run --release --example durable_fleet
//! ```

use iupdater::core::persist;
use iupdater::core::prelude::*;
use iupdater::core::service::MeasurementBatch;
use iupdater::rfsim::{Environment, Testbed};

const SEED: u64 = 2017;
const SURVEY_SAMPLES: usize = 20;
const UPDATE_SAMPLES: usize = 5;

fn build_fleet() -> Result<UpdateService, CoreError> {
    let mut service = UpdateService::new();
    for (i, env) in Environment::all_presets().into_iter().enumerate() {
        let name = format!("{}", env.kind);
        service.register(
            name,
            Testbed::new(env, SEED.wrapping_add(i as u64)),
            UpdaterConfig::default(),
            SURVEY_SAMPLES,
        )?;
    }
    Ok(service)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let checkpoint =
        std::env::temp_dir().join(format!("durable-fleet-{}.snap", std::process::id()));

    // --- Phase 1: a scheduled campaign with checkpoint-on-commit. ---
    let mut service = build_fleet()?;
    println!("fleet up: {} deployments", service.len());
    for (k, day) in [5.0, 15.0].into_iter().enumerate() {
        service.run_cycle(day, UPDATE_SAMPLES)?;
        // Atomic replace: the previous checkpoint stays intact if the
        // gateway dies mid-write.
        persist::write_service_to_path(&service.snapshot(), &checkpoint)?;
        println!(
            "cycle {k} committed, checkpoint at {}",
            checkpoint.display()
        );
    }

    // --- Phase 2: crash, then restore from the last checkpoint. ---
    drop(service);
    println!("gateway 'crashed'; restoring from {}", checkpoint.display());
    let text = std::fs::read(&checkpoint)?;
    let snapshot = persist::read_service(text.as_slice())?;
    let mut service = UpdateService::restore(&snapshot)?;
    for id in service.ids() {
        println!(
            "  restored {:<8} cycles={} last_update_day={}",
            service.name(id)?,
            service.cycles_run(id)?,
            service.last_update_day(id)?,
        );
    }

    // --- Phase 3: asynchronous ingest. Surveyors upload day-45 walks
    // whenever they finish; the solve happens later, on the timer. ---
    for id in service.ids() {
        let batch = MeasurementBatch::collect(
            service.testbed(id)?,
            service.updater(id)?.reference_locations(),
            45.0,
            UPDATE_SAMPLES,
        )?;
        service.ingest(id, batch)?;
        println!(
            "  queued day-45 batch for {} (queue depth {})",
            service.name(id)?,
            service.ingest_queue(id)?.len()
        );
    }
    // The timer fires: every deployment drains its queue (none needs
    // the synchronous testbed fallback).
    let outcomes = service.run_cycle(45.0, UPDATE_SAMPLES)?;
    for o in &outcomes {
        println!(
            "  day {:>4.1}  {:<8} iters={:<3} objective={:.3e}",
            o.day, o.name, o.iterations, o.final_objective
        );
    }

    // --- Phase 4: the crash was invisible. ---
    let mut control = build_fleet()?;
    for day in [5.0, 15.0, 45.0] {
        control.run_cycle(day, UPDATE_SAMPLES)?;
    }
    for (a, b) in control.ids().into_iter().zip(service.ids()) {
        assert!(
            control
                .fingerprint(a)?
                .matrix()
                .approx_eq(service.fingerprint(b)?.matrix(), 0.0),
            "restored fleet diverged from the control"
        );
    }
    println!("restored fleet is bit-identical to the never-crashed control");

    // A localization query against the freshly reconstructed database.
    let id = service.ids()[0];
    let y = service.testbed(id)?.online_measurement(17, 45.0, 7);
    let est = service.localize(id, &y)?;
    println!(
        "online query on {}: estimated grid cell {} (residual {:.2})",
        service.name(id)?,
        est.grid,
        est.residual_sq
    );

    std::fs::remove_file(&checkpoint).ok();
    Ok(())
}
