//! Cross-crate property-based tests: invariants of the full pipeline
//! under randomised environments, seeds and update days.

use iupdater::core::metrics::mean_reconstruction_error;
use iupdater::core::prelude::*;
use iupdater::linalg::Matrix;
use iupdater::rfsim::{Environment, Testbed};
use proptest::prelude::*;

fn any_environment() -> impl Strategy<Value = Environment> {
    prop_oneof![
        Just(Environment::office()),
        Just(Environment::library()),
        Just(Environment::hall()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case builds a full testbed; keep the budget sane
        ..ProptestConfig::default()
    })]

    #[test]
    fn fingerprints_are_plausible_dbm(env in any_environment(), seed in 0u64..1000) {
        let t = Testbed::new(env, seed);
        let fp = t.fingerprint_matrix(0.0, 3);
        for &v in fp.iter() {
            prop_assert!((-110.0..-20.0).contains(&v), "implausible RSS {v}");
        }
    }

    #[test]
    fn mic_reference_count_never_exceeds_links(env in any_environment(), seed in 0u64..1000) {
        let t = Testbed::new(env.clone(), seed);
        let day0 = FingerprintMatrix::survey(&t, 0.0, 10);
        let updater = Updater::new(day0, UpdaterConfig::default()).unwrap();
        prop_assert!(updater.reference_locations().len() <= env.num_links);
        prop_assert!(!updater.reference_locations().is_empty());
        // All reference locations are valid grid indices.
        for &j in updater.reference_locations() {
            prop_assert!(j < env.num_locations());
        }
    }

    #[test]
    fn reconstruction_is_finite_and_rank_bounded(seed in 0u64..1000, day in 1.0f64..90.0) {
        let t = Testbed::new(Environment::office(), seed);
        let day0 = FingerprintMatrix::survey(&t, 0.0, 10);
        let updater = Updater::new(day0, UpdaterConfig::default()).unwrap();
        let rec = updater.update_from_testbed(&t, day, 3).unwrap();
        for &v in rec.matrix().iter() {
            prop_assert!(v.is_finite());
        }
        prop_assert!(rec.matrix().pivoted_leading_columns(1e-9).unwrap().len() <= 8);
    }

    #[test]
    fn update_never_much_worse_than_stale(seed in 0u64..200, day in 10.0f64..90.0) {
        let t = Testbed::new(Environment::office(), seed);
        let day0 = FingerprintMatrix::survey(&t, 0.0, 20);
        let updater = Updater::new(day0.clone(), UpdaterConfig::default()).unwrap();
        let rec = updater.update_from_testbed(&t, day, 5).unwrap();
        let truth = t.expected_fingerprint_matrix(day);
        let err_rec = mean_reconstruction_error(rec.matrix(), &truth).unwrap();
        let err_stale = mean_reconstruction_error(day0.matrix(), &truth).unwrap();
        // Robustness invariant: the update never costs accuracy.
        prop_assert!(
            err_rec <= err_stale + 0.5,
            "update ({err_rec:.2} dB) should never be much worse than stale ({err_stale:.2} dB)"
        );
    }

    #[test]
    fn localization_estimates_always_in_range(seed in 0u64..1000, cell_frac in 0.0f64..1.0) {
        let t = Testbed::new(Environment::hall(), seed);
        let n = t.deployment().num_locations();
        let day0 = FingerprintMatrix::survey(&t, 0.0, 5);
        let localizer = Localizer::new(day0, LocalizerConfig::default());
        let j = ((cell_frac * n as f64) as usize).min(n - 1);
        let y = t.online_measurement(j, 0.0, seed);
        let est = localizer.localize(&y).unwrap();
        prop_assert!(est.grid < n);
        prop_assert!(est.residual_sq >= 0.0);
    }

    #[test]
    fn index_matrix_binary_and_majority_free(env in any_environment(), seed in 0u64..1000) {
        let t = Testbed::new(env, seed);
        let b = iupdater::core::classify::index_matrix(&t);
        let mut free = 0usize;
        for &v in b.iter() {
            prop_assert!(v == 0.0 || v == 1.0);
            free += (v == 1.0) as usize;
        }
        let frac = free as f64 / (b.rows() * b.cols()) as f64;
        prop_assert!(frac > 0.4, "free fraction {frac}");
    }
}

#[test]
fn survey_determinism_across_equal_testbeds() {
    let a = Testbed::new(Environment::library(), 5);
    let b = Testbed::new(Environment::library(), 5);
    assert_eq!(a.fingerprint_matrix(12.0, 4), b.fingerprint_matrix(12.0, 4));
}

#[test]
fn masked_cells_equal_survey_on_known_entries() {
    let t = Testbed::new(Environment::office(), 9);
    let b = iupdater::core::classify::index_matrix(&t);
    let full = t.fingerprint_matrix(0.0, 3);
    let masked = b.hadamard(&full).unwrap();
    for i in 0..b.rows() {
        for j in 0..b.cols() {
            let expect = if b[(i, j)] == 1.0 { full[(i, j)] } else { 0.0 };
            assert_eq!(masked[(i, j)], expect);
        }
    }
    // And the masked matrix is what update consumes without error.
    let day0 = FingerprintMatrix::survey(&t, 0.0, 10);
    let updater = Updater::new(day0, UpdaterConfig::default()).unwrap();
    let x_r = t.measure_columns(updater.reference_locations(), 0.0, 3);
    assert!(updater.update_with_mask(&x_r, &masked, &b).is_ok());
    let _ = Matrix::zeros(1, 1);
}
