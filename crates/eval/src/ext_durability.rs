//! Extension experiment (not in the paper): durability of the batched
//! [`UpdateService`] — a fleet is **killed mid-campaign**, serialised
//! through the v3 snapshot format, restored, and driven to the end of
//! the paper's update schedule. The experiment asserts the restored
//! fleet's databases and cycle counters are *identical* (`approx_eq`
//! at tolerance 0.0) to an uninterrupted control fleet at every
//! remaining timestamp: checkpoint/restore must be invisible to the
//! reconstruction pipeline, or a gateway restart would silently fork a
//! deployment's database history.

use crate::ext_fleet::standard_fleet;
use crate::report::{FigureResult, Series};
use crate::scenario::{TIMESTAMPS, UPDATE_SAMPLES};
use iupdater_core::metrics::mean_reconstruction_error;
use iupdater_core::persist;
use iupdater_core::prelude::*;

/// Number of update cycles run before the fleet is killed.
pub const KILL_AFTER: usize = 2;

/// Runs the kill/restore campaign (see module docs): reconstruction
/// error per deployment across all timestamps, with the fleet
/// serialised to bytes and restored after [`KILL_AFTER`] cycles.
///
/// # Panics
///
/// Panics if the restored fleet diverges from the uninterrupted
/// control in any database entry or cycle counter.
pub fn run() -> FigureResult {
    let mut control = standard_fleet(crate::scenario::DEFAULT_SEED);
    let mut survivor = standard_fleet(crate::scenario::DEFAULT_SEED);
    let ids = control.ids();
    let mut errs: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];

    for &(_, day) in TIMESTAMPS.iter().take(KILL_AFTER) {
        control
            .run_cycle(day, UPDATE_SAMPLES)
            .expect("control cycle");
        survivor
            .run_cycle(day, UPDATE_SAMPLES)
            .expect("fleet cycle");
        record_errors(&survivor, day, &mut errs);
    }

    // Kill: checkpoint through the on-disk format, drop the live fleet.
    let mut bytes = Vec::new();
    persist::write_service(&survivor.snapshot(), &mut bytes).expect("serialise snapshot");
    drop(survivor);

    // Resume and finish the campaign.
    let snap = persist::read_service(bytes.as_slice()).expect("parse snapshot");
    let mut resumed = UpdateService::restore(&snap).expect("restore fleet");
    for &(_, day) in TIMESTAMPS.iter().skip(KILL_AFTER) {
        control
            .run_cycle(day, UPDATE_SAMPLES)
            .expect("control cycle");
        resumed
            .run_cycle(day, UPDATE_SAMPLES)
            .expect("resumed cycle");
        record_errors(&resumed, day, &mut errs);

        // Parity at every post-restore timestamp, not just the end.
        for (&a, &b) in control.ids().iter().zip(resumed.ids().iter()) {
            assert!(
                control
                    .fingerprint(a)
                    .expect("registered id")
                    .matrix()
                    .approx_eq(resumed.fingerprint(b).expect("registered id").matrix(), 0.0),
                "restored fleet diverged from the uninterrupted control at day {day}"
            );
            assert_eq!(
                control.cycles_run(a).expect("registered id"),
                resumed.cycles_run(b).expect("registered id"),
            );
            assert_eq!(
                control.last_update_day(a).expect("registered id"),
                resumed.last_update_day(b).expect("registered id"),
            );
        }
    }

    let mut result = FigureResult {
        id: "ext-durability".into(),
        title: "Durable fleet: kill/restore parity across the update campaign".into(),
        axes: (
            "update timestamp".into(),
            "mean reconstruction error [dB]".into(),
        ),
        x_labels: TIMESTAMPS.iter().map(|(l, _)| (*l).to_string()).collect(),
        series: Vec::new(),
        notes: Vec::new(),
    };
    for (k, &id) in resumed.ids().iter().enumerate() {
        let name = resumed.name(id).expect("registered id").to_string();
        result.series.push(Series::from_ys(name, &errs[k]));
    }
    result.notes.push(format!(
        "fleet killed after {KILL_AFTER} cycles, serialised to {} bytes (v3 snapshot), \
         restored, and verified bit-identical to an uninterrupted control at every \
         remaining timestamp",
        bytes.len()
    ));
    result
}

/// Appends each deployment's reconstruction error at `day` to `errs`.
fn record_errors(service: &UpdateService, day: f64, errs: &mut [Vec<f64>]) {
    for (k, id) in service.ids().into_iter().enumerate() {
        let truth = service
            .testbed(id)
            .expect("registered id")
            .expected_fingerprint_matrix(day);
        let err = mean_reconstruction_error(
            service.fingerprint(id).expect("registered id").matrix(),
            &truth,
        )
        .expect("shape");
        errs[k].push(err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_restore_campaign_matches_uninterrupted_run() {
        // run() panics internally if the restored fleet diverges; the
        // shape checks here pin the reported series.
        let result = run();
        assert_eq!(result.series.len(), 3);
        for s in &result.series {
            assert_eq!(s.points.len(), TIMESTAMPS.len());
            for &(_, y) in &s.points {
                assert!(
                    y.is_finite() && (0.0..6.0).contains(&y),
                    "{}: {y} dB",
                    s.label
                );
            }
        }
        assert!(result.notes[0].contains("bit-identical"));
    }
}
