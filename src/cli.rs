//! Implementation of the `iupdater` command-line tool: survey, update,
//! localize and inspect fingerprint databases on a simulated deployment.
//! The binary (`src/bin/iupdater.rs`) is a thin argument parser over
//! these functions, which are unit-tested directly.

use std::fmt::Write as _;
use std::path::Path;

use crate::core::persist;
use crate::core::prelude::*;
use crate::eval::drill::run_drill;
use crate::rfsim::{Environment, Testbed};

/// CLI-level errors: argument problems or pipeline failures.
#[derive(Debug)]
pub enum CliError {
    /// Bad or missing argument.
    Usage(String),
    /// An underlying operation failed.
    Pipeline(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Pipeline(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parses an environment preset by name.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown names.
pub fn parse_environment(name: &str) -> Result<Environment, CliError> {
    match name {
        "office" => Ok(Environment::office()),
        "library" => Ok(Environment::library()),
        "hall" => Ok(Environment::hall()),
        other => Err(CliError::Usage(format!(
            "unknown environment '{other}' (expected office|library|hall)"
        ))),
    }
}

/// `survey`: full site survey at `day`, serialised to the persistence
/// format.
///
/// # Errors
///
/// Returns [`CliError`] on serialisation failure.
pub fn cmd_survey(env: &str, seed: u64, day: f64, samples: usize) -> Result<String, CliError> {
    let testbed = Testbed::new(parse_environment(env)?, seed);
    let fp = FingerprintMatrix::survey(&testbed, day, samples.max(1));
    let mut buf = Vec::new();
    persist::write_fingerprint(&fp, &mut buf).map_err(|e| CliError::Pipeline(e.to_string()))?;
    String::from_utf8(buf).map_err(|e| CliError::Pipeline(e.to_string()))
}

/// `update`: low-cost iUpdater update of a prior database at `day`.
/// Returns the reconstructed database in the persistence format plus a
/// summary line.
///
/// # Errors
///
/// Returns [`CliError`] on malformed input or solver failure.
pub fn cmd_update(
    env: &str,
    seed: u64,
    prior_text: &str,
    day: f64,
    samples: usize,
) -> Result<(String, String), CliError> {
    let testbed = Testbed::new(parse_environment(env)?, seed);
    let prior = persist::read_fingerprint(prior_text.as_bytes())
        .map_err(|e| CliError::Pipeline(format!("cannot read prior database: {e}")))?;
    if prior.num_links() != testbed.deployment().num_links() {
        return Err(CliError::Usage(format!(
            "database has {} links but environment '{env}' has {}",
            prior.num_links(),
            testbed.deployment().num_links()
        )));
    }
    let updater = Updater::new(prior, UpdaterConfig::default())
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    let fresh = updater
        .update_from_testbed(&testbed, day, samples.max(1))
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    let mut buf = Vec::new();
    persist::write_fingerprint(&fresh, &mut buf).map_err(|e| CliError::Pipeline(e.to_string()))?;
    let summary = format!(
        "updated at day {day} from {} reference locations {:?}",
        updater.reference_locations().len(),
        updater.reference_locations()
    );
    Ok((
        String::from_utf8(buf).map_err(|e| CliError::Pipeline(e.to_string()))?,
        summary,
    ))
}

/// `localize`: one online measurement with a target at `cell`, matched
/// against a serialised database. Returns a human-readable report.
///
/// # Errors
///
/// Returns [`CliError`] on malformed input or matching failure.
pub fn cmd_localize(
    env: &str,
    seed: u64,
    db_text: &str,
    cell: usize,
    day: f64,
) -> Result<String, CliError> {
    let testbed = Testbed::new(parse_environment(env)?, seed);
    let db = persist::read_fingerprint(db_text.as_bytes())
        .map_err(|e| CliError::Pipeline(format!("cannot read database: {e}")))?;
    let d = testbed.deployment();
    if cell >= d.num_locations() {
        return Err(CliError::Usage(format!(
            "cell {cell} out of range (0..{})",
            d.num_locations()
        )));
    }
    let localizer = Localizer::new(db, LocalizerConfig::default());
    let y = testbed.online_measurement(cell, day, 0xc11);
    let est = localizer
        .localize(&y)
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    let err = d.location(cell).distance(d.location(est.grid));
    let mut out = String::new();
    let _ = writeln!(out, "true cell: {cell} at {:?}", d.location(cell));
    let _ = writeln!(out, "estimated: {} at {:?}", est.grid, d.location(est.grid));
    let _ = writeln!(out, "error: {err:.2} m (residual {:.2})", est.residual_sq);
    Ok(out)
}

/// `info`: summarises a serialised database.
///
/// # Errors
///
/// Returns [`CliError`] on malformed input.
pub fn cmd_info(db_text: &str) -> Result<String, CliError> {
    let db = persist::read_fingerprint(db_text.as_bytes())
        .map_err(|e| CliError::Pipeline(format!("cannot read database: {e}")))?;
    let x = db.matrix();
    let svd = x.svd().map_err(|e| CliError::Pipeline(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fingerprint database: {} links x {} locations ({} per link)",
        db.num_links(),
        db.num_locations(),
        db.locations_per_link()
    );
    let _ = writeln!(out, "RSS range: {:.1} .. {:.1} dBm", x.min(), x.max());
    let _ = writeln!(
        out,
        "sigma_1 energy fraction: {:.3} (approximately low rank)",
        svd.energy_fraction(1)
    );
    Ok(out)
}

/// Parses a comma-separated day list; empty input yields an empty list.
fn parse_day_list(days: &str) -> Result<Vec<f64>, CliError> {
    days.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<f64>()
                .map_err(|_| CliError::Usage(format!("bad day value '{s}'")))
        })
        .collect()
}

/// Registers one deployment per listed environment (comma-separated)
/// with a fresh [`UpdateService`], each running `config`.
fn build_fleet(envs: &str, seed: u64, config: &UpdaterConfig) -> Result<UpdateService, CliError> {
    let env_list: Vec<&str> = envs
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if env_list.is_empty() {
        return Err(CliError::Usage("at least one environment required".into()));
    }
    let mut service = UpdateService::new();
    for (k, name) in env_list.iter().enumerate() {
        let env = parse_environment(name)?;
        let testbed = Testbed::new(env, seed.wrapping_add(k as u64));
        service
            .register(format!("{name}-{k}"), testbed, config.clone(), 20)
            .map_err(|e| CliError::Pipeline(e.to_string()))?;
    }
    Ok(service)
}

/// Per-deployment summary lines: name, committed cycles, last update day.
fn fleet_summary(service: &UpdateService, out: &mut String) -> Result<(), CliError> {
    let err = |e: iupdater_core::CoreError| CliError::Pipeline(e.to_string());
    for id in service.ids() {
        let _ = writeln!(
            out,
            "{}: {} cycle(s) completed, last update day {}",
            service.name(id).map_err(err)?,
            service.cycles_run(id).map_err(err)?,
            service.last_update_day(id).map_err(err)?,
        );
    }
    Ok(())
}

/// One report line per committed cycle outcome.
fn outcome_line(out: &mut String, o: &UpdateOutcome) {
    let _ = writeln!(
        out,
        "day {:>5.1}  {:<12} refs={:<2} iters={:<3} objective={:.3e}",
        o.day, o.name, o.reference_count, o.iterations, o.final_objective
    );
}

/// Serialises a service snapshot to the v3 text format.
fn render_snapshot(snapshot: &ServiceSnapshot) -> Result<String, CliError> {
    let mut buf = Vec::new();
    persist::write_service(snapshot, &mut buf).map_err(|e| CliError::Pipeline(e.to_string()))?;
    String::from_utf8(buf).map_err(|e| CliError::Pipeline(e.to_string()))
}

/// `batch`: registers one deployment per listed environment with the
/// [`UpdateService`] and runs parallel update cycles at each listed
/// day, printing a per-deployment/per-day report. `envs` and `days`
/// are comma-separated lists. With `snapshot_dir`, the fleet is
/// checkpointed to `<dir>/fleet.snap` after every committed cycle, so
/// a killed batch can be resumed with `restore`. With
/// `rebase_every = Some(n)`, every deployment's correlation engine is
/// re-anchored on its freshest database after every `n`-th cycle — the
/// warm-start rebase path, numerically identical to rebuilding each
/// engine from scratch.
///
/// # Errors
///
/// Returns [`CliError`] on malformed lists, a zero `rebase_every`,
/// pipeline failure, or an unwritable snapshot directory.
pub fn cmd_batch(
    envs: &str,
    seed: u64,
    days: &str,
    samples: usize,
    snapshot_dir: Option<&Path>,
    rebase_every: Option<usize>,
) -> Result<String, CliError> {
    let day_list = parse_day_list(days)?;
    if day_list.is_empty() {
        return Err(CliError::Usage(
            "batch requires at least one --days value".into(),
        ));
    }
    if rebase_every == Some(0) {
        return Err(CliError::Usage("--rebase-every must be >= 1".into()));
    }
    let mut service = build_fleet(envs, seed, &UpdaterConfig::default())?;
    let snap_path = match snapshot_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| CliError::Pipeline(format!("cannot create {}: {e}", dir.display())))?;
            Some(dir.join("fleet.snap"))
        }
        None => None,
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "update service: {} deployment(s), {} cycle day(s)",
        service.len(),
        day_list.len()
    );
    for (cycle, &day) in day_list.iter().enumerate() {
        let outcomes = service
            .run_cycle(day, samples.max(1))
            .map_err(|e| CliError::Pipeline(e.to_string()))?;
        for o in &outcomes {
            outcome_line(&mut out, o);
        }
        if rebase_every.is_some_and(|n| (cycle + 1) % n == 0) {
            for id in service.ids() {
                service
                    .rebase(id)
                    .map_err(|e| CliError::Pipeline(e.to_string()))?;
            }
            let _ = writeln!(
                out,
                "day {day:>5.1}  rebased {} deployment(s) (warm start)",
                service.len()
            );
        }
        if let Some(path) = &snap_path {
            persist::write_service_to_path(&service.snapshot(), path)
                .map_err(|e| CliError::Pipeline(format!("cannot write {}: {e}", path.display())))?;
            let _ = writeln!(out, "checkpoint written: {}", path.display());
        }
    }
    fleet_summary(&service, &mut out)?;
    Ok(out)
}

/// `snapshot`: builds a fleet (one deployment per environment), runs
/// an optional sequence of update cycles, and returns the v3 service
/// snapshot — the durable form of the fleet, restorable with
/// [`cmd_restore`].
///
/// # Errors
///
/// Returns [`CliError`] on malformed lists or pipeline failure.
pub fn cmd_snapshot(envs: &str, seed: u64, days: &str, samples: usize) -> Result<String, CliError> {
    let day_list = parse_day_list(days)?;
    let mut service = build_fleet(envs, seed, &UpdaterConfig::default())?;
    for &day in &day_list {
        service
            .run_cycle(day, samples.max(1))
            .map_err(|e| CliError::Pipeline(e.to_string()))?;
    }
    render_snapshot(&service.snapshot())
}

/// `restore`: rebuilds a fleet from a serialised v3 snapshot, runs
/// update cycles at each listed day (the list may be empty to just
/// inspect), and returns the updated snapshot plus a human-readable
/// report of the fleet's state.
///
/// # Errors
///
/// Returns [`CliError`] on a malformed snapshot or pipeline failure.
pub fn cmd_restore(
    snapshot_text: &str,
    days: &str,
    samples: usize,
) -> Result<(String, String), CliError> {
    let day_list = parse_day_list(days)?;
    let snap = persist::read_service(snapshot_text.as_bytes())
        .map_err(|e| CliError::Pipeline(format!("cannot read snapshot: {e}")))?;
    let mut service = UpdateService::restore(&snap)
        .map_err(|e| CliError::Pipeline(format!("cannot restore fleet: {e}")))?;
    let mut report = String::new();
    let _ = writeln!(report, "restored fleet: {} deployment(s)", service.len());
    for &day in &day_list {
        let outcomes = service
            .run_cycle(day, samples.max(1))
            .map_err(|e| CliError::Pipeline(e.to_string()))?;
        for o in &outcomes {
            outcome_line(&mut report, o);
        }
    }
    fleet_summary(&service, &mut report)?;
    Ok((render_snapshot(&service.snapshot())?, report))
}

/// `serve`: the fleet-gateway drill ([`crate::eval::drill::run_drill`]).
/// Builds a fleet (one deployment per listed environment) and hands it
/// to a [`FleetGateway`]: for each listed day a fresh batch per
/// deployment arrives over the bounded ingest channel, the cycle
/// commits and publishes a new epoch, and `queries_per_cell` queries
/// per grid cell are served from it, each checked against the
/// unprepared oracle on that epoch's database. Ends with a
/// drain-checked shutdown and returns the durable fleet snapshot plus
/// the human-readable report.
///
/// # Errors
///
/// Returns [`CliError`] on malformed lists, pipeline failure, a read
/// that deviates from the oracle, or acknowledged ingest surviving
/// uncommitted to shutdown.
pub fn cmd_serve(
    envs: &str,
    seed: u64,
    days: &str,
    samples: usize,
    queries_per_cell: usize,
) -> Result<(String, String), CliError> {
    let day_list = parse_day_list(days)?;
    if day_list.is_empty() {
        return Err(CliError::Usage(
            "serve requires at least one --days value".into(),
        ));
    }
    let service = build_fleet(envs, seed, &UpdaterConfig::default())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet gateway: {} deployment(s) behind the epoch-swapped read path, {} cycle day(s)",
        service.len(),
        day_list.len()
    );
    let drill =
        run_drill(service, &day_list, samples, queries_per_cell).map_err(CliError::Pipeline)?;
    for day in &drill.days {
        for o in &day.outcomes {
            outcome_line(&mut out, o);
        }
        for storm in &day.storms {
            let _ = writeln!(
                out,
                "day {:>5.1}  {:<12} epoch {}: {} queries served, exact oracle parity, \
                 mean error {:.2} m",
                day.day, storm.name, storm.epoch, storm.queries, storm.mean_error_m
            );
        }
    }
    let _ = writeln!(
        out,
        "shutdown: drain report empty — every acknowledged batch committed"
    );
    fleet_summary(&drill.service, &mut out)?;
    Ok((render_snapshot(&drill.snapshot)?, out))
}

/// Top-level usage text for the binary.
pub fn usage() -> &'static str {
    "iupdater — device-free localization with low-cost fingerprint updating\n\
     \n\
     USAGE:\n\
       iupdater survey   --env <office|library|hall> [--seed N] [--day D] [--samples S]\n\
       iupdater update   --env <...> --prior <db file> [--seed N] [--day D] [--samples S]\n\
       iupdater localize --env <...> --db <db file> --cell J [--seed N] [--day D]\n\
       iupdater info     --db <db file>\n\
       iupdater batch    --envs <e1,e2,...> --days <d1,d2,...> [--seed N] [--samples S]\n\
                         [--snapshot-dir DIR] [--rebase-every N]\n\
       iupdater serve    --envs <e1,e2,...> --days <d1,d2,...> [--seed N] [--samples S]\n\
                         [--queries-per-cell Q]\n\
       iupdater snapshot --envs <e1,e2,...> [--days <d1,...>] [--seed N] [--samples S]\n\
       iupdater restore  --snapshot <snap file> [--days <d1,...>] [--samples S]\n\
     \n\
     `survey` and `update` print the database to stdout (redirect to a file).\n\
     `batch` runs an update-service fleet: one deployment per environment,\n\
     update cycles across all deployments in parallel at each listed day;\n\
     with --snapshot-dir the fleet is checkpointed to DIR/fleet.snap after\n\
     every cycle, and with --rebase-every N every engine is re-anchored on\n\
     its freshest database after every N-th cycle (warm-start rebase).\n\
     `serve` drills the fleet gateway: the fleet runs on a detached drive\n\
     loop, batches arrive over the bounded ingest channel, each committed\n\
     cycle atomically publishes an epoch-swapped snapshot, and a query storm\n\
     cross-checks every served estimate against the unprepared oracle on the\n\
     observed epoch; it ends with a drain-checked shutdown and prints the\n\
     durable snapshot to stdout (report goes to stderr).\n\
     `snapshot` prints a durable fleet snapshot to stdout;\n\
     `restore` resumes one, runs more cycles, and prints the updated\n\
     snapshot (fleet report goes to stderr)."
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survey_then_info_roundtrip() {
        let db = cmd_survey("office", 1, 0.0, 3).unwrap();
        assert!(db.starts_with("iupdater-fingerprint v1"));
        let info = cmd_info(&db).unwrap();
        assert!(info.contains("8 links x 96 locations"));
        assert!(info.contains("approximately low rank"));
    }

    #[test]
    fn survey_update_localize_pipeline() {
        let db = cmd_survey("library", 5, 0.0, 5).unwrap();
        let (updated, summary) = cmd_update("library", 5, &db, 45.0, 5).unwrap();
        assert!(summary.contains("reference locations"));
        let report = cmd_localize("library", 5, &updated, 30, 45.0).unwrap();
        assert!(report.contains("estimated:"));
        assert!(report.contains("error:"));
    }

    #[test]
    fn rejects_unknown_environment_and_bad_cell() {
        assert!(matches!(parse_environment("mall"), Err(CliError::Usage(_))));
        let db = cmd_survey("hall", 2, 0.0, 2).unwrap();
        assert!(matches!(
            cmd_localize("hall", 2, &db, 10_000, 0.0),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn batch_runs_fleet_cycles() {
        let report = cmd_batch("office,library", 3, "5, 15", 2, None, None).unwrap();
        assert!(
            report.contains("2 deployment(s), 2 cycle day(s)"),
            "{report}"
        );
        assert!(report.contains("office-0"));
        assert!(report.contains("library-1"));
        assert!(report.contains("day   5.0"));
        assert!(report.contains("day  15.0"));
        assert!(report.contains("office-0: 2 cycle(s) completed"));
        assert!(report.contains("last update day 15"));
    }

    #[test]
    fn batch_rebases_on_schedule() {
        let report = cmd_batch("office,library", 3, "5,15,30", 2, None, Some(2)).unwrap();
        // Three cycles, rebase after every second: exactly one rebase
        // line (after day 15), naming both deployments.
        assert_eq!(
            report
                .matches("rebased 2 deployment(s) (warm start)")
                .count(),
            1,
            "{report}"
        );
        assert!(report.contains("day  15.0  rebased"), "{report}");
        assert!(report.contains("office-0: 3 cycle(s) completed"));
        // Rebasing every cycle also works.
        let every = cmd_batch("office", 7, "5,15", 2, None, Some(1)).unwrap();
        assert_eq!(
            every
                .matches("rebased 1 deployment(s) (warm start)")
                .count(),
            2,
            "{every}"
        );
        // A zero interval is a usage error.
        assert!(matches!(
            cmd_batch("office", 1, "5", 2, None, Some(0)),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn batch_rejects_bad_lists() {
        assert!(matches!(
            cmd_batch("", 1, "5", 2, None, None),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_batch("office", 1, "abc", 2, None, None),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_batch("office", 1, "", 2, None, None),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_batch("mall", 1, "5", 2, None, None),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_drills_the_gateway_end_to_end() {
        let (snap, report) = cmd_serve("office,library", 3, "5, 15", 2, 2).unwrap();
        assert!(snap.starts_with("iupdater-service v3"), "{snap}");
        assert!(
            report.contains("2 deployment(s) behind the epoch-swapped read path"),
            "{report}"
        );
        // One publication per committed cycle, observed by the storm.
        assert!(report.contains("epoch 2: 192 queries served"), "{report}");
        assert!(report.contains("epoch 3:"), "{report}");
        assert!(report.contains("exact oracle parity"), "{report}");
        assert!(
            report.contains("drain report empty — every acknowledged batch committed"),
            "{report}"
        );
        assert!(
            report.contains("office-0: 2 cycle(s) completed"),
            "{report}"
        );
        assert!(report.contains("last update day 15"), "{report}");
        // The gateway path persists the same durable form the plain
        // service produces for the same campaign: the same bytes as
        // `snapshot`, and `restore` accepts it.
        assert_eq!(snap, cmd_snapshot("office,library", 3, "5, 15", 2).unwrap());
        let (_, restored) = cmd_restore(&snap, "", 2).unwrap();
        assert!(restored.contains("restored fleet: 2 deployment(s)"));
    }

    #[test]
    fn serve_rejects_bad_lists() {
        assert!(matches!(
            cmd_serve("office", 1, "", 2, 2),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_serve("mall", 1, "5", 2, 2),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_serve("office", 1, "abc", 2, 2),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn snapshot_restore_roundtrip_continues_fleet() {
        // Snapshot a two-environment fleet after one cycle…
        let snap = cmd_snapshot("office,library", 7, "5", 2).unwrap();
        assert!(snap.starts_with("iupdater-service v3"));
        // …restore it and run a later cycle.
        let (snap2, report) = cmd_restore(&snap, "15", 2).unwrap();
        assert!(
            report.contains("restored fleet: 2 deployment(s)"),
            "{report}"
        );
        assert!(report.contains("office-0: 2 cycle(s) completed"));
        assert!(report.contains("last update day 15"));
        // The continued run matches an uninterrupted one exactly.
        let uninterrupted = cmd_snapshot("office,library", 7, "5,15", 2).unwrap();
        assert_eq!(snap2, uninterrupted);
        // Restoring without days just reports the fleet.
        let (unchanged, report) = cmd_restore(&snap, "", 2).unwrap();
        assert_eq!(unchanged, snap);
        assert!(report.contains("1 cycle(s) completed"));
    }

    #[test]
    fn restore_rejects_garbage_and_stale_days() {
        assert!(matches!(
            cmd_restore("not a snapshot", "5", 2),
            Err(CliError::Pipeline(_))
        ));
        let snap = cmd_snapshot("office", 7, "15", 2).unwrap();
        // A cycle day earlier than the snapshot's last update must fail.
        assert!(matches!(
            cmd_restore(&snap, "5", 2),
            Err(CliError::Pipeline(_))
        ));
    }

    #[test]
    fn batch_checkpoints_to_snapshot_dir() {
        let dir = std::env::temp_dir().join(format!(
            "iupdater-cli-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let report = cmd_batch("office", 3, "5,15", 2, Some(&dir), None).unwrap();
        let path = dir.join("fleet.snap");
        assert!(
            report.contains(&format!("checkpoint written: {}", path.display())),
            "{report}"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        // The final checkpoint restores to the finished fleet.
        let (_, restored_report) = cmd_restore(&text, "", 2).unwrap();
        assert!(restored_report.contains("2 cycle(s) completed"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_mismatched_database() {
        let db = cmd_survey("library", 5, 0.0, 2).unwrap(); // 6 links
        assert!(matches!(
            cmd_update("office", 5, &db, 3.0, 2),
            Err(CliError::Usage(_))
        ));
        assert!(cmd_info("garbage").is_err());
    }
}
