//! Shared experiment setup: the simulated deployments, the six-timestamp
//! survey campaign, and the standard evaluation protocols.

use iupdater_baselines::rass::{default_rass_params, Rass};
use iupdater_core::classify::CellClassification;
use iupdater_core::metrics::localization_error_m;
use iupdater_core::prelude::*;
use iupdater_linalg::Matrix;
use iupdater_rfsim::{Environment, EnvironmentKind, Testbed};

/// The paper's update timestamps (label, day offset): 3 d, 5 d, 15 d,
/// 45 d, 3 months.
pub const TIMESTAMPS: [(&str, f64); 5] = [
    ("3 days", 3.0),
    ("5 days", 5.0),
    ("15 days", 15.0),
    ("45 days", 45.0),
    ("3 months", 90.0),
];

/// Samples per cell for the initial (ground-truth quality) survey.
pub const INITIAL_SURVEY_SAMPLES: usize = 50;
/// Samples per cell iUpdater collects at reference locations.
pub const UPDATE_SAMPLES: usize = 5;
/// Default deterministic scenario seed.
pub const DEFAULT_SEED: u64 = 20170605; // ICDCS'17 opening day

/// A ready-to-run experiment scenario: a testbed plus the day-0 database
/// and a configured updater.
#[derive(Debug)]
pub struct Scenario {
    testbed: Testbed,
    prior: FingerprintMatrix,
    updater: Updater,
    classification: CellClassification,
}

impl Scenario {
    /// Builds the scenario for an environment with the default seed.
    pub fn new(env: Environment) -> Self {
        let testbed = Testbed::new(env, DEFAULT_SEED);
        let prior = FingerprintMatrix::survey(&testbed, 0.0, INITIAL_SURVEY_SAMPLES);
        let updater = Updater::new(prior.clone(), UpdaterConfig::default())
            .expect("default updater construction");
        let classification = CellClassification::from_testbed(&testbed);
        Scenario {
            testbed,
            prior,
            updater,
            classification,
        }
    }

    /// The office scenario used by most figures.
    pub fn office() -> Self {
        Scenario::new(Environment::office())
    }

    /// The simulated testbed.
    pub fn testbed(&self) -> &Testbed {
        &self.testbed
    }

    /// The day-0 database.
    pub fn prior(&self) -> &FingerprintMatrix {
        &self.prior
    }

    /// The configured updater.
    pub fn updater(&self) -> &Updater {
        &self.updater
    }

    /// Noiseless ground-truth matrix at `day`.
    pub fn ground_truth(&self, day: f64) -> Matrix {
        self.testbed.expected_fingerprint_matrix(day)
    }

    /// iUpdater reconstruction at `day` (reference columns + free
    /// no-decrease readings, 5 samples each).
    pub fn reconstruct(&self, day: f64) -> FingerprintMatrix {
        self.reconstruct_with(self.updater(), day)
    }

    /// Reconstruction with a custom updater (ablations).
    pub fn reconstruct_with(&self, updater: &Updater, day: f64) -> FingerprintMatrix {
        updater
            .update_from_testbed(&self.testbed, day, UPDATE_SAMPLES)
            .expect("reconstruction")
    }

    /// Reconstruction from an arbitrary reference-location set (Fig. 14's
    /// arms). Builds a one-off updater whose correlation matrix is
    /// learned for exactly those columns.
    pub fn reconstruct_with_references(&self, refs: &[usize], day: f64) -> FingerprintMatrix {
        let x = self.prior.matrix();
        let mic_vectors = x.select_cols(refs);
        let z = iupdater_core::correlation::correlation_matrix(
            &mic_vectors,
            x,
            iupdater_core::correlation::CorrelationMethod::Lrr,
        )
        .expect("correlation");
        let p = iupdater_core::correlation::predict(
            &self.testbed.measure_columns(refs, day, UPDATE_SAMPLES),
            &z,
        )
        .expect("prediction shape");
        let b = self.classification.index_matrix();
        let x_b = b
            .hadamard(&no_decrease_matrix(&self.testbed, day))
            .expect("mask shape");
        let inputs = iupdater_core::solver::SolverInputs {
            x_b,
            b,
            p: Some(p),
            per: self.prior.locations_per_link(),
            warm_start: Some(x.clone()),
        };
        let report = iupdater_core::solver::Solver::new(inputs, UpdaterConfig::default())
            .expect("solver construction")
            .solve()
            .expect("solve");
        self.prior
            .with_matrix(report.reconstruction())
            .expect("shape preserved")
    }

    /// Per-location localization errors (metres) when matching online
    /// day-`day` measurements against `database`. Evaluates every
    /// `stride`-th grid location.
    pub fn localization_errors(
        &self,
        database: &FingerprintMatrix,
        day: f64,
        stride: usize,
        probe_salt: u64,
    ) -> Vec<f64> {
        let localizer = Localizer::new(database.clone(), LocalizerConfig::default());
        let d = self.testbed.deployment();
        (0..d.num_locations())
            .step_by(stride.max(1))
            .map(|j| {
                let y = self
                    .testbed
                    .online_measurement(j, day, probe_salt.wrapping_add(j as u64));
                let est = localizer.localize(&y).expect("localization");
                localization_error_m(d, j, est.grid)
            })
            .collect()
    }

    /// Per-location RASS errors (metres) with RASS trained on `database`.
    pub fn rass_errors(
        &self,
        database: &FingerprintMatrix,
        day: f64,
        stride: usize,
        probe_salt: u64,
    ) -> Vec<f64> {
        let d = self.testbed.deployment();
        let rass = Rass::train(database, d, default_rass_params());
        (0..d.num_locations())
            .step_by(stride.max(1))
            .map(|j| {
                let y = self
                    .testbed
                    .online_measurement(j, day, probe_salt.wrapping_add(j as u64));
                rass.error_m(&y, d, j)
            })
            .collect()
    }

    /// All three environment scenarios in Fig. 19/22 order
    /// (hall, office, library).
    pub fn all_environments() -> Vec<(EnvironmentKind, Scenario)> {
        Environment::all_presets()
            .into_iter()
            .map(|e| (e.kind, Scenario::new(e)))
            .collect()
    }
}

/// The freely collectable no-decrease matrix `X_B` at `day`.
fn no_decrease_matrix(testbed: &Testbed, day: f64) -> Matrix {
    FingerprintMatrix::survey_no_decrease(testbed, day, UPDATE_SAMPLES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn office_scenario_builds() {
        let s = Scenario::office();
        assert_eq!(s.prior().num_links(), 8);
        assert_eq!(s.prior().num_locations(), 96);
        assert!(s.updater().reference_locations().len() <= 8);
    }

    #[test]
    fn reconstruction_beats_stale_at_45_days() {
        let s = Scenario::office();
        let truth = s.ground_truth(45.0);
        let rec = s.reconstruct(45.0);
        let err_rec =
            iupdater_core::metrics::mean_reconstruction_error(rec.matrix(), &truth).unwrap();
        let err_stale =
            iupdater_core::metrics::mean_reconstruction_error(s.prior().matrix(), &truth).unwrap();
        assert!(err_rec < err_stale, "{err_rec} vs stale {err_stale}");
    }

    #[test]
    fn localization_protocol_returns_errors() {
        let s = Scenario::office();
        let errs = s.localization_errors(s.prior(), 0.0, 8, 1);
        assert_eq!(errs.len(), 12);
        assert!(errs.iter().all(|&e| (0.0..15.0).contains(&e)));
    }

    #[test]
    fn custom_reference_reconstruction_runs() {
        let s = Scenario::office();
        let refs: Vec<usize> = s.updater().reference_locations().to_vec();
        let rec = s.reconstruct_with_references(&refs, 15.0);
        assert_eq!(rec.num_locations(), 96);
    }
}
