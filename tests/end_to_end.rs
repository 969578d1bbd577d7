//! End-to-end integration tests spanning all crates: the full
//! survey → update → localize loop on each environment, and the paper's
//! headline acceptance criteria.

use iupdater::baselines::rass::{default_rass_params, Rass};
use iupdater::core::metrics::{
    localization_error_m, mean_reconstruction_error, reconstruction_errors,
};
use iupdater::core::prelude::*;
use iupdater::linalg::stats::{mean, median};
use iupdater::rfsim::labor::LaborModel;
use iupdater::rfsim::{Environment, Testbed};

const SEED: u64 = 20170605;

fn localization_errors(
    testbed: &Testbed,
    database: &FingerprintMatrix,
    day: f64,
    salt: u64,
) -> Vec<f64> {
    let localizer = Localizer::new(database.clone(), LocalizerConfig::default());
    let d = testbed.deployment();
    (0..d.num_locations())
        .step_by(2)
        .map(|j| {
            let y = testbed.online_measurement(j, day, salt + j as u64);
            localization_error_m(d, j, localizer.localize(&y).expect("localize").grid)
        })
        .collect()
}

#[test]
fn full_loop_works_in_every_environment() {
    for env in Environment::all_presets() {
        let kind = env.kind;
        let testbed = Testbed::new(env, SEED);
        let day0 = FingerprintMatrix::survey(&testbed, 0.0, 50);
        let updater = Updater::new(day0.clone(), UpdaterConfig::default()).expect("updater");

        // Few reference locations (rank == link count).
        assert!(
            updater.reference_locations().len() <= testbed.deployment().num_links(),
            "{kind}: reference count exceeds link count"
        );

        let fresh = updater
            .update_from_testbed(&testbed, 45.0, 5)
            .expect("update");
        let truth = testbed.expected_fingerprint_matrix(45.0);
        let err_fresh = mean_reconstruction_error(fresh.matrix(), &truth).unwrap();
        let err_stale = mean_reconstruction_error(day0.matrix(), &truth).unwrap();
        assert!(
            err_fresh < err_stale * 0.75,
            "{kind}: reconstruction ({err_fresh:.2} dB) must clearly beat stale ({err_stale:.2} dB)"
        );

        let loc_fresh = mean(&localization_errors(&testbed, &fresh, 45.0, 10_000));
        let loc_stale = mean(&localization_errors(&testbed, &day0, 45.0, 10_000));
        assert!(
            loc_fresh <= loc_stale,
            "{kind}: updated database must localize at least as well ({loc_fresh:.2} vs {loc_stale:.2} m)"
        );
    }
}

#[test]
fn headline_labor_saving_holds() {
    // Paper: 92.1 % saving vs a 5-sample traditional survey, 97.9 % vs
    // the 50-sample one.
    let labor = LaborModel::default();
    let iu = labor.survey_time_s(8, 5);
    assert!(1.0 - iu / labor.survey_time_s(94, 50) > 0.975);
    assert!(1.0 - iu / labor.survey_time_s(94, 5) > 0.92);
}

#[test]
fn reconstruction_median_errors_bounded_over_three_months() {
    // Fig. 18's shape: medians stay in the low single digits of dB
    // across the whole campaign.
    let testbed = Testbed::new(Environment::office(), SEED);
    let day0 = FingerprintMatrix::survey(&testbed, 0.0, 50);
    let updater = Updater::new(day0, UpdaterConfig::default()).unwrap();
    for day in [3.0, 5.0, 15.0, 45.0, 90.0] {
        let fresh = updater.update_from_testbed(&testbed, day, 5).unwrap();
        let truth = testbed.expected_fingerprint_matrix(day);
        let med = median(&reconstruction_errors(fresh.matrix(), &truth).unwrap());
        assert!(
            med < 5.0,
            "day {day}: median reconstruction error {med:.2} dB exceeds the paper-scale bound"
        );
    }
}

#[test]
fn iupdater_beats_rass_at_45_days() {
    // Fig. 23's ordering: iUpdater <= RASS w/ rec < RASS w/o rec.
    let testbed = Testbed::new(Environment::office(), SEED);
    let d = testbed.deployment();
    let day0 = FingerprintMatrix::survey(&testbed, 0.0, 50);
    let updater = Updater::new(day0.clone(), UpdaterConfig::default()).unwrap();
    let fresh = updater.update_from_testbed(&testbed, 45.0, 5).unwrap();

    let iu_errs = localization_errors(&testbed, &fresh, 45.0, 20_000);

    let rass_err = |db: &FingerprintMatrix| {
        let rass = Rass::train(db, d, default_rass_params());
        let errs: Vec<f64> = (0..d.num_locations())
            .step_by(2)
            .map(|j| {
                let y = testbed.online_measurement(j, 45.0, 20_000 + j as u64);
                rass.error_m(&y, d, j)
            })
            .collect();
        median(&errs)
    };
    let m_iu = median(&iu_errs);
    let m_rass_rec = rass_err(&fresh);
    let m_rass_stale = rass_err(&day0);
    assert!(
        m_iu <= m_rass_rec * 1.1,
        "iUpdater ({m_iu:.2} m) should lead RASS w/ rec ({m_rass_rec:.2} m)"
    );
    assert!(
        m_rass_rec < m_rass_stale,
        "reconstruction must help RASS ({m_rass_rec:.2} vs {m_rass_stale:.2} m)"
    );
}

#[test]
fn updater_is_reusable_across_updates() {
    // One updater instance serves the whole campaign (Z is learned once).
    let testbed = Testbed::new(Environment::library(), SEED);
    let day0 = FingerprintMatrix::survey(&testbed, 0.0, 50);
    let updater = Updater::new(day0, UpdaterConfig::default()).unwrap();
    let mut last_err = None;
    for day in [3.0, 45.0, 90.0] {
        let fresh = updater.update_from_testbed(&testbed, day, 5).unwrap();
        let truth = testbed.expected_fingerprint_matrix(day);
        let err = mean_reconstruction_error(fresh.matrix(), &truth).unwrap();
        assert!(err < 4.0, "day {day}: error {err:.2} dB");
        last_err = Some(err);
    }
    assert!(last_err.is_some());
}

#[test]
fn facade_reexports_compile_and_interoperate() {
    // Touch every re-exported crate through the facade paths.
    let m = iupdater::linalg::Matrix::identity(3);
    assert_eq!(m.pivoted_leading_columns(1e-9).unwrap().len(), 3);
    let env = iupdater::rfsim::Environment::hall();
    assert_eq!(env.num_locations(), 120);
    let cfg = iupdater::core::UpdaterConfig::default();
    assert!(cfg.validate().is_ok());
    let labor = iupdater::rfsim::labor::LaborModel::default();
    assert!(labor.survey_time_s(8, 5) > 0.0);
    let fig = iupdater::eval::table_labor::run();
    assert_eq!(fig.id, "table-labor");
}
