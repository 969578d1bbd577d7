//! **query_parity** — the read-path golden-parity tier.
//!
//! Pins every prepared path (prepared dictionaries, the single-query
//! and lane-blocked binary pursuits, the correlation routing through
//! `orthogonal_matching_pursuit`, chunked batch fan-out) to the
//! unprepared scalar path (`Localizer::localize_unprepared`):
//! bit-identical estimates, coefficients and residuals included — on
//! degenerate dictionaries too (zero columns, rank-deficient supports,
//! near-tied correlations, two nearly parallel atoms). The lane-blocked
//! pursuit's nearest-atom certificate must fail on the tie families
//! (duplicate atoms, atoms one ulp apart, a query equidistant from two
//! atoms, an all-zero dictionary), and its fallback must still give
//! the oracle's answer.

use iupdater_core::config::{AtomSelection, LocalizerConfig};
use iupdater_core::omp::{orthogonal_matching_pursuit, OmpSolution};
use iupdater_core::query::{PreparedDictionary, QueryScratch};
use iupdater_core::{FingerprintMatrix, Localizer, LocationEstimate, Result};
use iupdater_linalg::Matrix;
use proptest::prelude::*;

fn corr_config(max_atoms: usize) -> LocalizerConfig {
    LocalizerConfig {
        selection: AtomSelection::Correlation,
        max_atoms,
        residual_threshold: 1e-12,
    }
}

/// The scalar oracle for a prepared correlation pursuit: OMP on the
/// centred dictionary and the centred query.
fn omp_oracle(prep: &PreparedDictionary, y: &[f64], k: usize) -> Result<OmpSolution> {
    orthogonal_matching_pursuit(prep.dictionary(), &prep.center_query(y), k, 1e-12)
}

/// Appends one column per row holding minus the row's sum, so every
/// row of the result sums to exactly zero: centring then subtracts
/// `0.0` and leaves the constructed dictionary unchanged bit for bit.
fn zero_mean_rows(x: &Matrix) -> Matrix {
    let n = x.cols();
    Matrix::from_fn(x.rows(), n + 1, |i, j| {
        if j < n {
            x[(i, j)]
        } else {
            -x.row(i).iter().sum::<f64>()
        }
    })
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
        let config = corr_config(k);
        let prep = PreparedDictionary::prepare(&x);
        let mut scratch = QueryScratch::new();
        let fast = prep.pursue(&y, &config, &mut scratch);
        assert_result_parity(fast, omp_oracle(&prep, &y, k));
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
        let loc = Localizer::new(fp, corr_config(k));
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
        batch_against_oracle(x, &y, seed_step, 1);
    }

    #[test]
    fn multi_atom_batch_matches_oracle(
        (x, y) in fingerprint_and_query(),
        seed_step in 1usize..5,
        max_atoms in 2usize..=4,
    ) {
        // Steps 2 and later of the lane-blocked pursuit: each lane's
        // exclusion of the atoms it already selected, and its residual
        // guard, against the oracle's `support.contains` and guard.
        let batch = batch_against_oracle(x, &y, seed_step, max_atoms);
        prop_assert!(batch.iter().any(|b| b.support.len() > 1), "no lane took a second step");
    }
}

/// Answers a 70-query slab around `y` through `localize_batch` under
/// the binary model with `max_atoms`, asserts every answer equals the
/// unprepared oracle's bit for bit, and returns the batch. 70 queries
/// are eight full 8-lane blocks in the first `QUERY_CHUNK` and a
/// 6-query single-path tail in the second.
fn batch_against_oracle(
    x: Matrix,
    y: &[f64],
    seed_step: usize,
    max_atoms: usize,
) -> Vec<LocationEstimate> {
    let per = x.cols() / x.rows();
    let m = x.rows();
    let fp = FingerprintMatrix::new(x, per).unwrap();
    let config = LocalizerConfig {
        max_atoms,
        ..LocalizerConfig::default()
    };
    let loc = Localizer::new(fp, config);
    let queries: Vec<Vec<f64>> = (0..70usize)
        .map(|q| {
            (0..m)
                .map(|i| y[i] + ((q * seed_step + i) % 13) as f64 * 0.37 - 2.0)
                .collect()
        })
        .collect();
    let batch = loc.localize_batch(&queries).unwrap();
    assert_eq!(batch.len(), queries.len());
    for (q, b) in queries.iter().zip(&batch) {
        let oracle = loc.localize_unprepared(q).unwrap();
        assert_eq!(b, &oracle);
        assert_eq!(b.residual_sq.to_bits(), oracle.residual_sq.to_bits());
    }
    batch
}

#[test]
fn zero_columns_are_skipped_identically() {
    // Dead atoms (all-zero columns) must be excluded by both paths via
    // the same scale-relative floor. Zero-sum rows keep them dead
    // through centring.
    let x = zero_mean_rows(&Matrix::from_fn(4, 8, |i, j| {
        if j % 3 == 0 {
            0.0
        } else {
            ((i * 5 + j * 7) % 11) as f64 - 5.0
        }
    }));
    let y = vec![1.0, -2.0, 3.0, -4.0];
    for k in 1..4 {
        let config = corr_config(k);
        let prep = PreparedDictionary::prepare(&x);
        assert_eq!(prep.dictionary(), &x, "centring must be exact");
        let mut scratch = QueryScratch::new();
        let fast = prep.pursue(&y, &config, &mut scratch);
        let slow = omp_oracle(&prep, &y, k);
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
    // A rank-deficient dictionary (exact duplicate columns, plus the
    // parallel zero-sum column): both paths run the same LU on the
    // same singular support Gram, succeeding or failing together.
    let u = [2.0, -1.0, 0.5, 3.0];
    let x = zero_mean_rows(&Matrix::from_fn(4, 2, |i, _| u[i]));
    // y = u + w with w orthogonal to u (w = [1, 2, 0, 0] projected out).
    let uu: f64 = u.iter().map(|v| v * v).sum();
    let uw = 2.0 * u[0] + 1.0 * u[1];
    let w: Vec<f64> = (0..4)
        .map(|i| [2.0, 1.0, 0.0, 0.0][i] - uw / uu * u[i])
        .collect();
    let y: Vec<f64> = (0..4).map(|i| u[i] + w[i]).collect();
    let config = corr_config(2);
    let prep = PreparedDictionary::prepare(&x);
    assert_eq!(prep.dictionary(), &x, "centring must be exact");
    let mut scratch = QueryScratch::new();
    let fast = prep.pursue(&y, &config, &mut scratch);
    assert_result_parity(fast, omp_oracle(&prep, &y, 2));
}

#[test]
fn near_tied_scores_break_ties_identically() {
    // col1 = 3 * col0: the normalised scores are computed by the same
    // expression in both paths, so however rounding lands, the strict
    // `>` tie-break selects the same atom. Zero-sum rows keep the pair
    // parallel through centring.
    let x = zero_mean_rows(&Matrix::from_fn(4, 3, |i, j| {
        let u = [1.0, 2.0, -1.5, 0.5][i];
        match j {
            0 => u,
            1 => 3.0 * u,
            _ => [0.3, -0.9, 1.1, 0.7][i],
        }
    }));
    let y = vec![1.1, 2.2, -1.6, 0.4];
    for k in 1..3 {
        let config = corr_config(k);
        let prep = PreparedDictionary::prepare(&x);
        assert_eq!(prep.dictionary(), &x, "centring must be exact");
        let mut scratch = QueryScratch::new();
        assert_result_parity(
            prep.pursue(&y, &config, &mut scratch),
            omp_oracle(&prep, &y, k),
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
    // Two nearly parallel atoms (relative Schur pivot ~1e-10), their
    // negations (so every row sums to zero and centring is exact) and
    // four dead columns: OMP selects both atoms (each negation only
    // ties its atom, and the strict `>` keeps the first), and the
    // from-scratch LU (pivot 1e-10, far above its scale-relative
    // floor) recovers the coefficients 2 and 1. The served read must
    // equal the unprepared oracle in every bit.
    let eps = 1e-5;
    let x = Matrix::from_fn(4, 8, |i, j| match (i, j) {
        (0, 0) | (0, 1) => 1.0,
        (0, 2) | (0, 3) => -1.0,
        (1, 1) => eps,
        (1, 3) => -eps,
        _ => 0.0,
    });
    let loc = Localizer::new(FingerprintMatrix::new(x, 2).unwrap(), corr_config(2));
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

/// A 4-link, 24-cell fingerprint on a 1/8 dB grid, with a dip under
/// each link's own cells.
fn tie_base() -> Matrix {
    Matrix::from_fn(4, 24, |i, j| {
        let dip = if j / 6 == i { 6.0 } else { 0.0 };
        -60.0 - 1.75 * i as f64 - dip - ((i * 7 + j * 5) % 11) as f64 * 0.625
    })
}

/// Answers `queries` (two full 8-lane blocks) through
/// `localize_batch_counted` at one and three atoms, asserts every
/// answer equals the unprepared oracle bit for bit, and asserts that
/// some lane's nearest-atom certificate failed at each setting.
fn assert_tie_family(name: &str, x: Matrix, queries: &[Vec<f64>]) {
    assert_eq!(queries.len(), 16);
    for max_atoms in [1, 3] {
        let config = LocalizerConfig {
            max_atoms,
            ..LocalizerConfig::default()
        };
        let loc = Localizer::new(FingerprintMatrix::new(x.clone(), 6).unwrap(), config);
        let (batch, uncertified) = loc.localize_batch_counted(queries).unwrap();
        for (q, (y, b)) in queries.iter().zip(&batch).enumerate() {
            let oracle = loc.localize_unprepared(y).unwrap();
            assert_eq!(b, &oracle, "{name}, {max_atoms} atoms: query {q}");
            assert_eq!(b.residual_sq.to_bits(), oracle.residual_sq.to_bits());
        }
        assert!(
            uncertified > 0,
            "{name}, {max_atoms} atoms: no certificate failed"
        );
    }
}

/// Sixteen queries near `centre`, moved only on the links in `free`.
fn queries_near(centre: &[f64], free: &[usize]) -> Vec<Vec<f64>> {
    (0..16)
        .map(|q| {
            let mut y = centre.to_vec();
            for &i in free {
                y[i] += ((q * 3 + i) % 7) as f64 * 0.0625 - 0.1875;
            }
            y
        })
        .collect()
}

#[test]
fn certificate_ties_fall_back_to_the_oracle_answer() {
    let column = |x: &Matrix, j: usize| (0..x.rows()).map(|i| x[(i, j)]).collect::<Vec<_>>();

    // Duplicate atoms: cell 13 repeats cell 5.
    let mut x = tie_base();
    for i in 0..4 {
        x[(i, 13)] = x[(i, 5)];
    }
    let near = queries_near(&column(&x, 5), &[0, 1, 2, 3]);
    assert_tie_family("duplicate atoms", x.clone(), &near);

    // Atoms one ulp apart: cell 13 is cell 5 but one ulp up on link 2.
    x[(2, 13)] = x[(2, 5)].next_up();
    assert_tie_family("one ulp apart", x, &near);

    // A query equidistant from two atoms: cell 13 is cell 5 moved
    // 1 dB on link 0, and every query sits halfway on that link.
    let mut x = tie_base();
    for i in 0..4 {
        x[(i, 13)] = x[(i, 5)] + if i == 0 { 1.0 } else { 0.0 };
    }
    let mut centre = column(&x, 5);
    centre[0] += 0.5;
    assert_tie_family("equidistant", x, &queries_near(&centre, &[1, 2, 3]));

    // An all-zero dictionary: every atom ties with every other.
    assert_tie_family(
        "all-zero dictionary",
        Matrix::zeros(4, 24),
        &queries_near(&[-60.0, -61.0, -62.0, -63.0], &[0, 1, 2, 3]),
    );
}

/// The certificate's hit rate on storm-shaped traffic. The answers are
/// exact either way, so only this count notices a filter change that
/// quietly sends most lanes to the exact fallback scan. The fixture is
/// the storm site (`Environment::office()` scaled ×4: 32 links, 1,536
/// cells, as `ext_scale::scaled_office(4)` builds it), testbed seed
/// 20170605 and a 5-sample day-0 survey, read by 4,096
/// `online_measurement` queries spread over the five storm days. The
/// filter left 3 of the 4,096 lanes uncertified when this test was
/// written; the pin allows 1 %.
#[test]
fn storm_traffic_certifies_nearly_every_lane() {
    use iupdater_rfsim::{Environment, EnvironmentKind, Testbed};

    let office = Environment::office();
    let site = Environment {
        kind: EnvironmentKind::Custom,
        width_m: office.width_m * 4.0,
        height_m: office.height_m * 4.0,
        num_links: office.num_links * 4,
        locations_per_link: office.locations_per_link * 4,
        ..office
    };
    let testbed = Testbed::new(site, 20_170_605);
    let loc = Localizer::new(
        FingerprintMatrix::survey(&testbed, 0.0, 5),
        LocalizerConfig::default(),
    );
    let cells = testbed.deployment().num_locations();
    assert_eq!((testbed.deployment().num_links(), cells), (32, 1536));
    let days = [3.0, 5.0, 15.0, 45.0, 90.0];
    let queries: Vec<Vec<f64>> = (0..4096usize)
        .map(|q| testbed.online_measurement((q * 7919) % cells, days[q % 5], 900 + q as u64))
        .collect();
    let (batch, uncertified) = loc.localize_batch_counted(&queries).unwrap();
    for (q, b) in queries.iter().zip(&batch) {
        let oracle = loc.localize_unprepared(q).unwrap();
        assert_eq!(*b, oracle);
        assert_eq!(b.residual_sq.to_bits(), oracle.residual_sq.to_bits());
    }
    assert!(
        uncertified * 100 <= queries.len(),
        "{uncertified} of {} lanes fell back to the exact scan",
        queries.len()
    );
}
