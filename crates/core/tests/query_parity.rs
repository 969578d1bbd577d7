//! **query_parity** — the read-path golden-parity tier.
//!
//! Pins every prepared path (prepared dictionaries, the single-query
//! and lane-blocked binary pursuits, the correlation routing through
//! `orthogonal_matching_pursuit`, chunked batch fan-out) to the
//! unprepared scalar path (`Localizer::localize_unprepared`):
//! bit-identical estimates, coefficients and residuals included — on
//! degenerate dictionaries too (zero columns, rank-deficient supports,
//! near-tied correlations, two nearly parallel atoms).

use iupdater_core::config::{AtomSelection, LocalizerConfig};
use iupdater_core::omp::{orthogonal_matching_pursuit, OmpSolution};
use iupdater_core::query::{PreparedDictionary, QueryScratch};
use iupdater_core::{FingerprintMatrix, Localizer, Result};
use iupdater_linalg::Matrix;
use proptest::prelude::*;

fn corr_config(max_atoms: usize, center: bool) -> LocalizerConfig {
    LocalizerConfig {
        selection: AtomSelection::Correlation,
        max_atoms,
        residual_threshold: 1e-12,
        center,
    }
}

/// Both paths may legitimately error (e.g. a singular support Gram on
/// a rank-deficient dictionary) — but they must error *together*, and
/// otherwise agree in every bit.
fn assert_result_parity(fast: Result<OmpSolution>, slow: Result<OmpSolution>) {
    match (fast, slow) {
        (Ok(f), Ok(s)) => {
            assert_eq!(f.support, s.support, "support must be bit-identical");
            let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&f.coefficients), bits(&s.coefficients));
            assert_eq!(f.residual_sq.to_bits(), s.residual_sq.to_bits());
        }
        (Err(_), Err(_)) => {}
        (f, s) => panic!("path divergence: fast={f:?} slow={s:?}"),
    }
}

/// A fingerprint-like dictionary (m links, m*per locations, dBm-ish
/// values with per-link dips) plus one noisy query.
fn fingerprint_and_query() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (
        3usize..7,
        4usize..8,
        prop::collection::vec(-1.0f64..1.0, 96),
    )
        .prop_map(|(m, per, noise)| {
            let x = Matrix::from_fn(m, m * per, |i, j| {
                let owner = j / per;
                let base = -60.0 - (i as f64) * 1.7;
                let dip = if owner == i { 6.0 } else { 0.0 };
                base - dip + noise[(i * 11 + j * 5) % noise.len()]
            });
            let target = noise[0].abs().mul_add(((m * per) as f64) - 1.0, 0.0) as usize;
            let y: Vec<f64> = (0..m)
                .map(|i| x[(i, target.min(m * per - 1))] + noise[(i * 3 + 1) % noise.len()] * 0.8)
                .collect();
            (x, y)
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    #[test]
    fn correlation_pursuit_matches_scalar_omp((x, y) in fingerprint_and_query(), k in 1usize..5) {
        let config = corr_config(k, false);
        let prep = PreparedDictionary::prepare(&x, &config);
        let mut scratch = QueryScratch::new();
        let fast = prep.pursue(&y, &config, &mut scratch);
        let slow = orthogonal_matching_pursuit(&x, &y, k, 1e-12);
        assert_result_parity(fast, slow);
    }

    #[test]
    fn binary_localizer_is_bit_identical((x, y) in fingerprint_and_query()) {
        // The default (binary-residual) mode has no re-fit: the
        // prepared path must match the oracle in every bit.
        let per = x.cols() / x.rows();
        let fp = FingerprintMatrix::new(x, per).unwrap();
        let loc = Localizer::new(fp, LocalizerConfig::default());
        let fast = loc.localize(&y).unwrap();
        let slow = loc.localize_unprepared(&y).unwrap();
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(fast.residual_sq.to_bits(), slow.residual_sq.to_bits());
    }

    #[test]
    fn correlation_localizer_grid_parity((x, y) in fingerprint_and_query(), k in 1usize..4) {
        let per = x.cols() / x.rows();
        let fp = FingerprintMatrix::new(x, per).unwrap();
        let loc = Localizer::new(fp, corr_config(k, true));
        match (loc.localize(&y), loc.localize_unprepared(&y)) {
            (Ok(fast), Ok(slow)) => {
                prop_assert_eq!(&fast, &slow);
                prop_assert_eq!(fast.residual_sq.to_bits(), slow.residual_sq.to_bits());
            }
            (Err(_), Err(_)) => {}
            (f, s) => panic!("path divergence: fast={f:?} slow={s:?}"),
        }
    }

    #[test]
    fn batch_matches_per_query_loop((x, y) in fingerprint_and_query(), seed_step in 1usize..5) {
        // A slab larger than one QUERY_CHUNK exercises chunked
        // fan-out and scratch reuse across many queries.
        let per = x.cols() / x.rows();
        let m = x.rows();
        let fp = FingerprintMatrix::new(x, per).unwrap();
        let loc = Localizer::new(fp, LocalizerConfig::default());
        let queries: Vec<Vec<f64>> = (0..70usize)
            .map(|q| {
                (0..m)
                    .map(|i| y[i] + ((q * seed_step + i) % 13) as f64 * 0.37 - 2.0)
                    .collect()
            })
            .collect();
        let batch = loc.localize_batch(&queries).unwrap();
        prop_assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(&batch) {
            let oracle = loc.localize_unprepared(q).unwrap();
            prop_assert_eq!(b, &oracle);
        }
    }
}

#[test]
fn zero_columns_are_skipped_identically() {
    // Dead atoms (all-zero columns) must be excluded by both paths via
    // the same scale-relative floor.
    let x = Matrix::from_fn(4, 8, |i, j| {
        if j % 3 == 0 {
            0.0
        } else {
            ((i * 5 + j * 7) % 11) as f64 - 5.0
        }
    });
    let y = vec![1.0, -2.0, 3.0, -4.0];
    for k in 1..4 {
        let config = corr_config(k, false);
        let prep = PreparedDictionary::prepare(&x, &config);
        let mut scratch = QueryScratch::new();
        let fast = prep.pursue(&y, &config, &mut scratch);
        let slow = orthogonal_matching_pursuit(&x, &y, k, 1e-12);
        if let Ok(sol) = &fast {
            assert!(
                sol.support.iter().all(|&j| j % 3 != 0),
                "dead atom selected"
            );
        }
        assert_result_parity(fast, slow);
    }
}

#[test]
fn duplicate_columns_stay_in_lockstep() {
    // A rank-deficient dictionary (exact duplicate columns): both
    // paths run the same LU on the same singular support Gram,
    // succeeding or failing together.
    let u = [2.0, -1.0, 0.5, 3.0];
    let x = Matrix::from_fn(4, 2, |i, _| u[i]);
    // y = u + w with w orthogonal to u (w = [1, 2, 0, 0] projected out).
    let uu: f64 = u.iter().map(|v| v * v).sum();
    let uw = 2.0 * u[0] + 1.0 * u[1];
    let w: Vec<f64> = (0..4)
        .map(|i| [2.0, 1.0, 0.0, 0.0][i] - uw / uu * u[i])
        .collect();
    let y: Vec<f64> = (0..4).map(|i| u[i] + w[i]).collect();
    let config = corr_config(2, false);
    let prep = PreparedDictionary::prepare(&x, &config);
    let mut scratch = QueryScratch::new();
    let fast = prep.pursue(&y, &config, &mut scratch);
    let slow = orthogonal_matching_pursuit(&x, &y, 2, 1e-12);
    assert_result_parity(fast, slow);
}

#[test]
fn near_tied_scores_break_ties_identically() {
    // col1 = 3 * col0: the normalised scores are computed by the same
    // expression in both paths, so however rounding lands, the strict
    // `>` tie-break selects the same atom.
    let x = Matrix::from_fn(4, 3, |i, j| {
        let u = [1.0, 2.0, -1.5, 0.5][i];
        match j {
            0 => u,
            1 => 3.0 * u,
            _ => [0.3, -0.9, 1.1, 0.7][i],
        }
    });
    let y = vec![1.1, 2.2, -1.6, 0.4];
    for k in 1..3 {
        let config = corr_config(k, false);
        let prep = PreparedDictionary::prepare(&x, &config);
        let mut scratch = QueryScratch::new();
        assert_result_parity(
            prep.pursue(&y, &config, &mut scratch),
            orthogonal_matching_pursuit(&x, &y, k, 1e-12),
        );
    }

    // Binary mode: two identical columns tie on distance; `<` keeps
    // the first in both paths.
    let xb = Matrix::from_fn(4, 3, |i, j| {
        let u = [1.0, 2.0, -1.5, 0.5][i];
        if j < 2 {
            u
        } else {
            [0.3, -0.9, 1.1, 0.7][i]
        }
    });
    let fp = FingerprintMatrix::new(
        Matrix::from_fn(4, 12, |i, j| {
            if j < 3 {
                xb[(i, j)]
            } else {
                ((i * 3 + j) % 7) as f64 - 3.0
            }
        }),
        3,
    )
    .unwrap();
    let loc = Localizer::new(fp, LocalizerConfig::default());
    let fast = loc.localize(&[1.0, 2.0, -1.5, 0.5]).unwrap();
    let slow = loc.localize_unprepared(&[1.0, 2.0, -1.5, 0.5]).unwrap();
    assert_eq!(fast, slow);
    assert_eq!(fast.grid, 0, "tie must break to the first column");
}

#[test]
fn ill_conditioned_two_atom_dictionary_matches_oracle() {
    // Two nearly parallel atoms (relative Schur pivot ~1e-10) beside
    // two dead columns: OMP selects both live atoms, and the
    // from-scratch LU (pivot 1e-10, far above its scale-relative
    // floor) recovers the coefficients 2 and 1. The served read must
    // equal the unprepared oracle in every bit.
    let eps = 1e-5;
    let x = Matrix::from_fn(4, 4, |i, j| match (i, j) {
        (0, 0) => 1.0,
        (0, 1) => 1.0,
        (1, 1) => eps,
        _ => 0.0,
    });
    let loc = Localizer::new(FingerprintMatrix::new(x, 1).unwrap(), corr_config(2, false));
    let y = [3.0, eps, 0.0, 0.0];
    let fast = loc.localize(&y).unwrap();
    let slow = loc.localize_unprepared(&y).unwrap();
    assert_eq!(fast, slow);
    assert_eq!(fast.residual_sq.to_bits(), slow.residual_sq.to_bits());
    assert_eq!(fast.support, vec![0, 1]);
    assert_eq!(fast.grid, 0);
    assert!((fast.coefficients[0] - 2.0).abs() < 1e-6);
    assert!((fast.coefficients[1] - 1.0).abs() < 1e-6);
}

#[test]
fn service_batch_equals_unprepared_oracle_after_update() {
    // End-to-end through the service: after an update cycle commits
    // (the publish-time rebuild point), batched answers equal a fresh
    // oracle localizer over the same published database.
    use iupdater_core::prelude::*;
    use iupdater_rfsim::{Environment, Testbed};

    let mut service = UpdateService::new();
    let id = service
        .register(
            "office",
            Testbed::new(Environment::office(), 77),
            UpdaterConfig::default(),
            10,
        )
        .unwrap();
    service.run_cycle(15.0, 5).unwrap();

    let oracle = Localizer::new(
        service.fingerprint(id).unwrap().clone(),
        LocalizerConfig::default(),
    );
    let t = service.testbed(id).unwrap();
    let queries: Vec<Vec<f64>> = (0..96)
        .map(|j| t.online_measurement(j, 15.0, 500 + j as u64))
        .collect();
    let batch = service.localize_batch(id, &queries).unwrap();
    for (q, b) in queries.iter().zip(&batch) {
        let o = oracle.localize_unprepared(q).unwrap();
        assert_eq!(*b, o);
        assert_eq!(b.residual_sq.to_bits(), o.residual_sq.to_bits());
    }
}
