//! Failure-injection integration tests: corrupted reference
//! measurements, missing data, degenerate inputs and adversarial
//! conditions across the crate boundaries.

use iupdater::core::classify::CellClassification;
use iupdater::core::metrics::mean_reconstruction_error;
use iupdater::core::prelude::*;
use iupdater::linalg::Matrix;
use iupdater::rfsim::{Environment, Testbed};

const SEED: u64 = 7777;

fn setup() -> (Testbed, Updater) {
    let testbed = Testbed::new(Environment::office(), SEED);
    let day0 = FingerprintMatrix::survey(&testbed, 0.0, 50);
    let updater = Updater::new(day0, UpdaterConfig::default()).unwrap();
    (testbed, updater)
}

#[test]
fn corrupted_reference_column_degrades_gracefully() {
    let (testbed, updater) = setup();
    let day = 45.0;
    let refs = updater.reference_locations().to_vec();
    let mut x_r = testbed.measure_columns(&refs, day, 5);
    // One reference column is garbage (e.g. the surveyor stood in the
    // wrong place or the NIC glitched): +15 dB on every link.
    for i in 0..x_r.rows() {
        x_r[(i, 2)] += 15.0;
    }
    let b = CellClassification::from_testbed(&testbed).index_matrix();
    let x_b_full = testbed.fingerprint_matrix(day, 5);
    let x_b = b.hadamard(&x_b_full).unwrap();
    let rec = updater.update_with_mask(&x_r, &x_b, &b).unwrap();
    let truth = testbed.expected_fingerprint_matrix(day);
    let err = mean_reconstruction_error(rec.matrix(), &truth).unwrap();
    // Degraded but not catastrophic: still beats doing nothing.
    let stale = mean_reconstruction_error(updater.prior().matrix(), &truth).unwrap();
    assert!(
        err < stale * 1.5,
        "corrupted reference should degrade gracefully ({err:.2} vs stale {stale:.2} dB)"
    );
}

#[test]
fn missing_no_decrease_data_still_reconstructs() {
    // The free no-decrease collection fails entirely (empty mask): the
    // reconstruction must fall back on constraint 1 alone and stay sane.
    let (testbed, updater) = setup();
    let day = 15.0;
    let refs = updater.reference_locations().to_vec();
    let x_r = testbed.measure_columns(&refs, day, 5);
    let (m, n) = updater.prior().matrix().shape();
    let empty_b = Matrix::zeros(m, n);
    let empty_xb = Matrix::zeros(m, n);
    let rec = updater.update_with_mask(&x_r, &empty_xb, &empty_b).unwrap();
    let truth = testbed.expected_fingerprint_matrix(day);
    let err = mean_reconstruction_error(rec.matrix(), &truth).unwrap();
    assert!(err < 6.0, "no-mask reconstruction error {err:.2} dB");
}

#[test]
fn zero_samples_panics_cleanly() {
    let testbed = Testbed::new(Environment::hall(), SEED);
    let result = std::panic::catch_unwind(|| testbed.fingerprint_matrix(0.0, 0));
    assert!(
        result.is_err(),
        "zero-sample survey must panic with a clear message"
    );
}

#[test]
fn localizer_rejects_malformed_measurements() {
    let (testbed, updater) = setup();
    let fresh = updater.update_from_testbed(&testbed, 3.0, 5).unwrap();
    let localizer = Localizer::new(fresh, LocalizerConfig::default());
    assert!(localizer.localize(&[]).is_err());
    assert!(localizer.localize(&[0.0; 7]).is_err());
    assert!(localizer.localize(&[0.0; 9]).is_err());
}

#[test]
fn updater_rejects_mismatched_shapes() {
    let (testbed, updater) = setup();
    let day = 3.0;
    let refs = updater.reference_locations().to_vec();
    let x_r = testbed.measure_columns(&refs, day, 5);
    let b = CellClassification::from_testbed(&testbed).index_matrix();
    let x_b = b.hadamard(&testbed.fingerprint_matrix(day, 5)).unwrap();
    // Wrong reference count.
    let bad_xr = x_r.select_cols(&[0, 1]);
    assert!(updater.update_with_mask(&bad_xr, &x_b, &b).is_err());
    // Wrong X_B shape.
    let bad_xb = Matrix::zeros(8, 90);
    assert!(updater.update_with_mask(&x_r, &bad_xb, &b).is_err());
}

#[test]
fn extreme_online_measurements_do_not_crash() {
    let (testbed, updater) = setup();
    let fresh = updater.update_from_testbed(&testbed, 3.0, 5).unwrap();
    let localizer = Localizer::new(fresh, LocalizerConfig::default());
    // Extreme readings at or inside the physical dBm range localize.
    for y in [
        vec![0.0; 8],
        vec![-150.0; 8],
        vec![30.0; 8],
        vec![f64::MIN_POSITIVE; 8],
        vec![-60.0, -61.0, -62.0, -63.0, -64.0, -65.0, -66.0, -67.0],
    ] {
        let est = localizer.localize(&y).unwrap();
        assert!(est.grid < testbed.deployment().num_locations());
    }
    // Readings beyond it are refused cleanly as a bad query.
    for y in [vec![-200.0; 8], vec![f64::NAN; 8], vec![1e300; 8]] {
        assert!(matches!(
            localizer.localize(&y),
            Err(CoreError::InvalidArgument(msg)) if msg.contains("query")
        ));
    }
}

#[test]
fn heavily_noisy_update_day_still_converges() {
    // Update on a day where we inject extra burst noise into every
    // reference measurement: Algorithm 1 must still converge and return
    // a finite matrix.
    let (testbed, updater) = setup();
    let day = 45.0;
    let refs = updater.reference_locations().to_vec();
    let mut x_r = testbed.measure_columns(&refs, day, 1); // single noisy sample
    for v in x_r.iter_mut() {
        *v -= 2.0; // systematic interference during the survey
    }
    let b = CellClassification::from_testbed(&testbed).index_matrix();
    let x_b = b.hadamard(&testbed.fingerprint_matrix(day, 1)).unwrap();
    let rec = updater.update_with_mask(&x_r, &x_b, &b).unwrap();
    assert!(rec.matrix().iter().all(|v| v.is_finite()));
    let truth = testbed.expected_fingerprint_matrix(day);
    let err = mean_reconstruction_error(rec.matrix(), &truth).unwrap();
    assert!(err < 8.0, "noisy-day reconstruction error {err:.2} dB");
}

#[test]
fn gateway_killed_mid_cycle_restores_bit_identically_from_checkpoint() {
    // The PR-2 durability drill, replayed through the serving layer: a
    // gateway is killed while an update cycle is in flight, restored
    // from its last checkpoint, and must thereafter serve queries
    // bit-identically to an uninterrupted control gateway.
    use iupdater::core::persist::{read_service, write_service};

    fn build() -> UpdateService {
        let mut service = UpdateService::new();
        let testbed = Testbed::new(Environment::office(), SEED);
        service
            .register("office", testbed, UpdaterConfig::default(), 3)
            .unwrap();
        service
    }

    // Control: uninterrupted cycles on days 5 and 15.
    let control = FleetGateway::launch(build()).unwrap();
    let cid = control.ids()[0];
    control.run_cycle(5.0, 2).unwrap();
    control.run_cycle(15.0, 2).unwrap();

    // Victim: cycle 5, checkpoint, then killed mid-cycle on day 15 —
    // the gateway is dropped with the ticket still unresolved, which
    // closes the command channel out from under the drive loop.
    let victim = FleetGateway::launch(build()).unwrap();
    victim.run_cycle(5.0, 2).unwrap();
    let mut checkpoint = Vec::new();
    write_service(&victim.snapshot().unwrap(), &mut checkpoint).unwrap();
    let ticket = victim.begin_cycle(15.0, 2).unwrap();
    drop(victim);
    // Whatever the in-flight cycle reports (completion or a dead
    // gateway), the checkpoint predates it and is all that survives.
    let _ = ticket.wait();

    // Restore from the last checkpoint and replay the lost day.
    let snapshot = read_service(&checkpoint[..]).unwrap();
    let restored = FleetGateway::restore(&snapshot).unwrap();
    let rid = restored.ids()[0];
    restored.run_cycle(15.0, 2).unwrap();

    // Published snapshots now serve bit-identically to the control.
    let a = restored.published(rid).unwrap();
    let b = control.published(cid).unwrap();
    assert_eq!(a.cycles_run(), b.cycles_run());
    assert_eq!(a.last_update_day(), b.last_update_day());
    assert!(
        a.fingerprint()
            .matrix()
            .approx_eq(b.fingerprint().matrix(), 0.0),
        "restored database must be bit-identical to the control"
    );
    let testbed = Testbed::new(Environment::office(), SEED);
    let n = testbed.deployment().num_locations();
    for q in 0..12u64 {
        let y = testbed.online_measurement(q as usize % n, 15.0, SEED + q);
        let ea = a.localize(&y).unwrap();
        let eb = b.localize(&y).unwrap();
        assert_eq!(ea, eb);
        assert_eq!(ea.residual_sq.to_bits(), eb.residual_sq.to_bits());
    }
    restored.shutdown().unwrap();
    control.shutdown().unwrap();
}

#[test]
fn single_sample_updates_remain_useful() {
    // The paper collects 5 samples; even 1 sample per reference cell
    // should beat the stale matrix (differences do the stabilising).
    let (testbed, updater) = setup();
    let day = 45.0;
    let rec = updater.update_from_testbed(&testbed, day, 1).unwrap();
    let truth = testbed.expected_fingerprint_matrix(day);
    let err = mean_reconstruction_error(rec.matrix(), &truth).unwrap();
    let stale = mean_reconstruction_error(updater.prior().matrix(), &truth).unwrap();
    assert!(
        err < stale,
        "1-sample update ({err:.2} dB) should still beat stale ({stale:.2} dB)"
    );
}
