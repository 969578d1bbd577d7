//! Extension experiment (not in the paper): a heavy-traffic read-path
//! day over the fleet — hundreds of thousands of localization queries
//! served from the [`FleetGateway`]'s epoch-swapped published
//! snapshots, interleaved with the paper's update cycles.
//!
//! The point of the scenario is *exactness at scale*: the
//! [`crate::drill`] checks every served estimate against a freshly
//! built unprepared-path oracle over the **same epoch's** database.
//! The prepared structures, the lane-blocked pursuit, the chunked pool
//! fan-out, and the read/write-separated gateway path may only change
//! cost, never answers — this replay asserts it over the whole fleet
//! and the whole campaign, at every one of the paper's update
//! timestamps.
//!
//! [`FleetGateway`]: iupdater_core::FleetGateway

use crate::drill::run_drill;
use crate::ext_fleet::standard_fleet;
use crate::report::{FigureResult, Series};
use crate::scenario::{TIMESTAMPS, UPDATE_SAMPLES};

/// Queries replayed per grid cell per timestamp in the heavy [`run`]:
/// with the three-environment fleet and the five paper timestamps this
/// lands in the hundreds of thousands of localizations.
const HEAVY_QUERIES_PER_CELL: usize = 140;

/// Runs the heavy-traffic replay (see `run_with`).
pub fn run() -> FigureResult {
    run_with(HEAVY_QUERIES_PER_CELL)
}

/// Drills the standard fleet through the paper's timestamps with
/// `queries_per_cell` queries per grid cell per deployment and cycle,
/// and plots each deployment's mean localization error per timestamp.
///
/// # Panics
///
/// Panics if the drill fails: a cycle error, or a served estimate
/// deviating from the unprepared path (that would be a parity bug;
/// the read path must never trade accuracy for speed).
fn run_with(queries_per_cell: usize) -> FigureResult {
    let days: Vec<f64> = TIMESTAMPS.iter().map(|&(_, day)| day).collect();
    let report = run_drill(
        standard_fleet(crate::scenario::DEFAULT_SEED),
        &days,
        UPDATE_SAMPLES,
        queries_per_cell,
    )
    .unwrap_or_else(|e| panic!("ext-qps drill failed: {e}"));

    let mut result = FigureResult {
        id: "ext-qps".into(),
        title: "Heavy-traffic read path: gateway snapshots vs unprepared oracle".into(),
        axes: (
            "update timestamp".into(),
            "mean localization error [m]".into(),
        ),
        x_labels: TIMESTAMPS.iter().map(|(l, _)| (*l).to_string()).collect(),
        series: Vec::new(),
        notes: Vec::new(),
    };
    for (k, storm) in report.days[0].storms.iter().enumerate() {
        let errs: Vec<f64> = report
            .days
            .iter()
            .map(|d| d.storms[k].mean_error_m)
            .collect();
        result
            .series
            .push(Series::from_ys(storm.name.clone(), &errs));
    }
    let total_queries: usize = report
        .days
        .iter()
        .flat_map(|d| &d.storms)
        .map(|s| s.queries)
        .sum();
    result.notes.push(format!(
        "{total_queries} localizations served from epoch-swapped gateway \
         snapshots, interleaved with {} update cycles on the drive loop; \
         every estimate equals the unprepared scalar path exactly \
         (bit-identical residuals) on the epoch the reader observed",
        TIMESTAMPS.len()
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_exact_and_errors_bounded() {
        // Small per-cell load to stay affordable in the debug tier;
        // the exactness checks inside the drill are the test.
        let result = run_with(2);
        assert_eq!(result.series.len(), 3);
        for s in &result.series {
            assert_eq!(s.points.len(), TIMESTAMPS.len());
            for &(_, y) in &s.points {
                assert!(
                    y.is_finite() && (0.0..8.0).contains(&y),
                    "{}: {y} m",
                    s.label
                );
            }
        }
        assert!(result.notes[0].contains("unprepared scalar path exactly"));
        assert!(result.notes[0].contains("epoch-swapped gateway"));
    }
}
