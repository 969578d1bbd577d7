//! Extension experiment (not in the paper): the batched
//! [`UpdateService`] serving a fleet of deployments — one per
//! environment preset — through the paper's five update timestamps.
//!
//! This is the evaluation-side port onto the Layer-3 batched API: the
//! same campaign `Scenario` runs one deployment at a time, the service
//! runs all of them per cycle (in parallel across deployments on
//! multi-core hosts) and keeps each fleet member's database live
//! between cycles.

use crate::report::{FigureResult, Series};
use crate::scenario::{INITIAL_SURVEY_SAMPLES, TIMESTAMPS, UPDATE_SAMPLES};
use iupdater_core::metrics::mean_reconstruction_error;
use iupdater_core::prelude::*;
use iupdater_rfsim::{Environment, Testbed};

/// Builds the standard three-environment fleet.
pub fn standard_fleet(seed: u64) -> UpdateService {
    let mut service = UpdateService::new();
    for (i, env) in Environment::all_presets().into_iter().enumerate() {
        let name = format!("{:?}", env.kind).to_lowercase();
        service
            .register(
                name,
                Testbed::new(env, seed.wrapping_add(i as u64)),
                UpdaterConfig::default(),
                INITIAL_SURVEY_SAMPLES,
            )
            .expect("fleet registration");
    }
    service
}

/// Runs the fleet campaign: one update cycle per paper timestamp, one
/// reconstruction-error series per deployment.
pub fn run() -> FigureResult {
    let mut service = standard_fleet(crate::scenario::DEFAULT_SEED);
    let ids = service.ids();
    let mut errs: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];

    for &(_, day) in TIMESTAMPS.iter() {
        let outcomes = service.run_cycle(day, UPDATE_SAMPLES).expect("fleet cycle");
        assert_eq!(outcomes.len(), ids.len());
        for (k, &id) in ids.iter().enumerate() {
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

    let mut result = FigureResult {
        id: "ext-fleet".into(),
        title: "Batched update service: per-deployment reconstruction error".into(),
        axes: (
            "update timestamp".into(),
            "mean reconstruction error [dB]".into(),
        ),
        x_labels: TIMESTAMPS.iter().map(|(l, _)| (*l).to_string()).collect(),
        series: Vec::new(),
        notes: Vec::new(),
    };
    for (k, &id) in ids.iter().enumerate() {
        let name = service.name(id).expect("registered id").to_string();
        result.series.push(Series::from_ys(name, &errs[k]));
    }
    result.notes.push(format!(
        "{} deployments updated per cycle through the batched service",
        ids.len()
    ));
    result
}

/// Runs the rebase-heavy variant of the fleet campaign: after every
/// committed cycle, each deployment's correlation engine is re-anchored
/// on its freshest database via [`UpdateService::rebase`] — the
/// warm-start path (certified MIC re-pivoting plus the LRR exactness
/// certificate on the exactly-low-rank rebased prior), which stays
/// within 1e-9 of from-scratch engine construction (see
/// `core/tests/warm_start_parity.rs`). The long-campaign shape this
/// models: with periodic re-anchoring, the correlation `Z` tracks slow
/// environment change instead of staying pinned to the day-0 survey.
pub fn run_rebase_heavy() -> FigureResult {
    let mut service = standard_fleet(crate::scenario::DEFAULT_SEED);
    let ids = service.ids();
    let mut errs: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
    let mut rebases = 0usize;

    for &(_, day) in TIMESTAMPS.iter() {
        let outcomes = service.run_cycle(day, UPDATE_SAMPLES).expect("fleet cycle");
        assert_eq!(outcomes.len(), ids.len());
        for (k, &id) in ids.iter().enumerate() {
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
            service.rebase(id).expect("warm rebase");
            rebases += 1;
        }
    }

    let mut result = FigureResult {
        id: "ext-fleet-rebase".into(),
        title: "Rebase-heavy fleet: error with per-cycle engine re-anchoring".into(),
        axes: (
            "update timestamp".into(),
            "mean reconstruction error [dB]".into(),
        ),
        x_labels: TIMESTAMPS.iter().map(|(l, _)| (*l).to_string()).collect(),
        series: Vec::new(),
        notes: Vec::new(),
    };
    for (k, &id) in ids.iter().enumerate() {
        let name = service.name(id).expect("registered id").to_string();
        result.series.push(Series::from_ys(name, &errs[k]));
    }
    result.notes.push(format!(
        "{rebases} warm-start rebases ({} deployments x {} timestamps); each \
         engine re-anchored on its freshest database after every cycle",
        ids.len(),
        TIMESTAMPS.len()
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_campaign_produces_bounded_errors() {
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
    }

    #[test]
    fn rebase_heavy_campaign_produces_bounded_errors() {
        let result = run_rebase_heavy();
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
        assert!(result.notes[0].contains("warm-start rebases"));
    }

    #[test]
    fn rebase_heavy_rebases_match_from_scratch_engines() {
        // The eval-level echo of the golden parity tier: after a
        // service rebase, the engine equals a hand-built from-scratch
        // Updater on the same database — exactly when the pivots are
        // unambiguous, or as a tie-certified keep of the incumbent
        // selection (same rank, certified seed, from-scratch LRR fit
        // on the kept locations) when the from-scratch greedy flickers.
        use iupdater_core::correlation::{correlation_matrix, CorrelationMethod};
        use iupdater_linalg::qr::PIVOT_DRIFT_TOL;

        let mut service = standard_fleet(crate::scenario::DEFAULT_SEED);
        service.run_cycle(45.0, UPDATE_SAMPLES).unwrap();
        for id in service.ids() {
            let prior = service.fingerprint(id).unwrap().clone();
            let cold = iupdater_core::Updater::new(
                prior.clone(),
                service.updater(id).unwrap().config().clone(),
            )
            .unwrap();
            let prev_refs = service.updater(id).unwrap().reference_locations().to_vec();
            service.rebase(id).unwrap();
            let warm = service.updater(id).unwrap();
            assert_eq!(
                warm.reference_locations().len(),
                cold.reference_locations().len()
            );
            if warm.reference_locations() == cold.reference_locations() {
                assert!(warm.correlation().approx_eq(cold.correlation(), 0.0));
            } else {
                assert_eq!(warm.reference_locations(), &prev_refs[..]);
                assert!(prior
                    .matrix()
                    .certify_pivot_seed(
                        warm.seed_locations(),
                        warm.config().rank_tol,
                        PIVOT_DRIFT_TOL,
                    )
                    .unwrap()
                    .is_some());
                let vectors = prior.matrix().select_cols(warm.reference_locations());
                let z = correlation_matrix(&vectors, prior.matrix(), CorrelationMethod::default())
                    .unwrap();
                assert!(warm.correlation().approx_eq(&z, 0.0));
            }
        }
    }

    #[test]
    fn fleet_matches_single_deployment_updater() {
        // The service's office deployment must reconstruct exactly what
        // a hand-driven Updater produces from the same testbed state.
        let mut service = standard_fleet(crate::scenario::DEFAULT_SEED);
        let id = service
            .ids()
            .into_iter()
            .find(|&id| service.name(id).unwrap() == "office")
            .expect("office in fleet");
        service.run_cycle(45.0, UPDATE_SAMPLES).unwrap();

        let manual = service
            .updater(id)
            .unwrap()
            .update_from_testbed(service.testbed(id).unwrap(), 45.0, UPDATE_SAMPLES)
            .unwrap();
        assert!(service
            .fingerprint(id)
            .unwrap()
            .matrix()
            .approx_eq(manual.matrix(), 0.0));
    }
}
