//! Property-based tests for the core algorithm invariants.

use iupdater_core::config::{CouplingMode, ScalingMode};
use iupdater_core::solver::{Solver, SolverInputs};
use iupdater_core::{decrease, neighbors, omp, similarity, UpdaterConfig};
use iupdater_linalg::Matrix;
use proptest::prelude::*;

/// Strategy: a structured "fingerprint-like" matrix M x (M*per) with
/// negative dBm values, smooth per-link dips and mild noise.
fn fingerprint_strategy() -> impl Strategy<Value = (Matrix, usize)> {
    (
        3usize..6,
        4usize..8,
        prop::collection::vec(-1.0f64..1.0, 64),
    )
        .prop_map(|(m, per, noise)| {
            let x = Matrix::from_fn(m, m * per, |i, j| {
                let owner = j / per;
                let u = j % per;
                let base = -62.0 - (i as f64) * 1.5;
                let dip = if owner == i {
                    let t = u as f64 / (per - 1) as f64;
                    5.0 + 4.0 * (2.0 * t - 1.0).powi(2)
                } else {
                    0.0
                };
                let n = noise[(i * 7 + j * 3) % noise.len()] * 0.5;
                base - dip + n
            });
            (x, per)
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    #[test]
    fn continuity_matrix_annihilates_constants(per in 3usize..16) {
        let g = neighbors::continuity_matrix(per).unwrap();
        let ones = Matrix::filled(1, per, 1.0);
        let prod = ones.matmul(&g).unwrap();
        prop_assert!(prod.max_abs() < 1e-9, "constants must be in G's left null space");
    }

    #[test]
    fn similarity_matrix_annihilates_equal_rows(m in 2usize..12, per in 2usize..8) {
        let h = similarity::similarity_matrix(m).unwrap();
        let xd = Matrix::from_fn(m, per, |_, u| -(60.0 + u as f64));
        prop_assert!(h.matmul(&xd).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn xd_roundtrip((x, per) in fingerprint_strategy()) {
        let xd = decrease::extract(&x, per).unwrap();
        let mut x2 = x.clone();
        decrease::write_back(&mut x2, &xd).unwrap();
        prop_assert_eq!(x2, x);
    }

    #[test]
    fn solver_objective_monotone_exact((x, per) in fingerprint_strategy()) {
        let (m, n) = x.shape();
        let b = Matrix::from_fn(m, n, |i, j| if (j / per) == i { 0.0 } else { 1.0 });
        let x_b = b.hadamard(&x).unwrap();
        let inputs = SolverInputs {
            x_b,
            b,
            p: Some(x.clone()),
            per,
            warm_start: None,
        };
        let cfg = UpdaterConfig {
            rank: Some(m.min(4)),
            max_iter: 12,
            coupling: CouplingMode::Exact,
            scaling: ScalingMode::Fixed,
            ..UpdaterConfig::default()
        };
        let report = Solver::new(inputs, cfg).unwrap().solve().unwrap();
        let tr = report.objective_trace();
        for w in tr.windows(2) {
            prop_assert!(w[1] <= w[0] * (1.0 + 1e-8), "objective rose: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn solver_reconstruction_finite_any_mode(
        (x, per) in fingerprint_strategy(),
        paper_mode in any::<bool>(),
        auto_scale in any::<bool>(),
    ) {
        let (m, n) = x.shape();
        let b = Matrix::from_fn(m, n, |i, j| if (j / per) == i { 0.0 } else { 1.0 });
        let x_b = b.hadamard(&x).unwrap();
        let inputs = SolverInputs {
            x_b,
            b,
            p: Some(x.clone()),
            per,
            warm_start: Some(x.clone()),
        };
        let cfg = UpdaterConfig {
            rank: Some(m),
            max_iter: 8,
            coupling: if paper_mode { CouplingMode::PaperLiteral } else { CouplingMode::Exact },
            scaling: if auto_scale { ScalingMode::Auto } else { ScalingMode::Fixed },
            ..UpdaterConfig::default()
        };
        let rec = Solver::new(inputs, cfg).unwrap().solve().unwrap().reconstruction();
        for &v in rec.iter() {
            prop_assert!(v.is_finite());
        }
        // Stays near dBm scale (no blow-up).
        prop_assert!(rec.max_abs() < 200.0, "reconstruction magnitude {}", rec.max_abs());
    }

    #[test]
    fn omp_residual_never_negative_and_decreasing_support(
        rows in 3usize..8,
        cols in 4usize..16,
        data in prop::collection::vec(-1.0f64..1.0, 8 * 16 + 8),
    ) {
        let d = Matrix::from_fn(rows, cols, |i, j| data[(i * cols + j) % data.len()]);
        let y: Vec<f64> = (0..rows).map(|i| data[(i * 13 + 5) % data.len()]).collect();
        let mut prev = f64::INFINITY;
        for k in 1..=3 {
            let sol = omp::orthogonal_matching_pursuit(&d, &y, k, 1e-15).unwrap();
            prop_assert!(sol.residual_sq >= -1e-12);
            prop_assert!(sol.residual_sq <= prev + 1e-9);
            prop_assert!(sol.support.len() <= k);
            prev = sol.residual_sq;
        }
    }

    #[test]
    fn nlc_als_values_normalised((x, per) in fingerprint_strategy()) {
        let xd = decrease::extract(&x, per).unwrap();
        if let Ok(vals) = neighbors::nlc_values(&xd) {
            for v in vals {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&v));
            }
        }
        if let Ok(vals) = similarity::als_values(&xd) {
            for v in vals {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&v));
            }
        }
    }

    #[test]
    fn relationship_matrix_symmetric(per in 1usize..20) {
        let t = neighbors::relationship_matrix(per).unwrap();
        prop_assert_eq!(t.transpose(), t);
    }
}
