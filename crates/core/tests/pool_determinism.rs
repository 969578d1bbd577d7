//! Thread-count independence of the engine, exercised *actively*: the
//! solver is run under pool widths 1, 2, 4 and 7 (via the rayon shim's
//! test-only override) and must produce bit-identical results each
//! time, for both the link-constant and the within-link-varying mask.
//!
//! `solver_parity.rs` already proves this passively (exact equality
//! against the single-threaded reference under whatever pool the test
//! process has); this tier drives the width directly so the parallel
//! code paths — persistent pool, chunked stealing scheduler, parallel
//! factor and solve phases — run even on single-CPU CI.
//!
//! The override is process-global, so this file contains exactly ONE
//! test: widths are varied sequentially with no concurrent test able
//! to observe an intermediate value. (Engines cache the width at
//! construction; each solve below is built *after* its width is set.)

use iupdater_core::config::{CouplingMode, UpdaterConfig};
use iupdater_core::solver::{Solver, SolverInputs};
use iupdater_linalg::Matrix;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn structured_fingerprint(m: usize, per: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<f64> = (0..m)
        .map(|_| -62.0 + (rng.gen::<f64>() - 0.5) * 4.0)
        .collect();
    Matrix::from_fn(m, m * per, |i, j| {
        let owner = j / per;
        let u = j % per;
        if owner == i {
            let x = u as f64 / (per - 1) as f64;
            base[i] - (4.0 + 5.0 * (2.0 * x - 1.0).powi(2))
        } else if owner.abs_diff(i) == 1 {
            base[i] - 1.0
        } else {
            base[i]
        }
    })
}

/// The `solver_parity` mask that varies within links: each column
/// randomly also hides each of the rows two links away.
fn mask_varying_within_links(m: usize, per: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let hide: Vec<[bool; 2]> = (0..m * per)
        .map(|_| [rng.gen::<f64>() < 0.5, rng.gen::<f64>() < 0.5])
        .collect();
    Matrix::from_fn(m, m * per, |i, j| {
        let owner = j / per;
        if owner.abs_diff(i) <= 1
            || (hide[j][0] && i == (owner + 2) % m)
            || (hide[j][1] && i == (owner + m - 2) % m)
        {
            0.0
        } else {
            1.0
        }
    })
}

#[test]
fn results_are_bit_identical_at_every_pool_width() {
    // 8 links x 96 cells at rank 8: the column right-hand sides
    // (96 * 64 = 6144) clear MIN_PARALLEL_WORK, so widths > 1 really
    // take the parallel path. The link-constant mask shares its column
    // systems among 24 classes; the varying mask has enough classes
    // that their factoring (classes * 64 >= MIN_PARALLEL_WORK) fans out
    // too.
    let (m, per) = (8usize, 12usize);
    let x = structured_fingerprint(m, per, 51);
    let link_constant = Matrix::from_fn(m, m * per, |i, j| {
        if (j / per).abs_diff(i) <= 1 {
            0.0
        } else {
            1.0
        }
    });
    for (mask, b) in [
        ("link-constant", link_constant),
        ("varying", mask_varying_within_links(m, per, 52)),
    ] {
        let x_b = b.hadamard(&x).unwrap();
        let inputs = SolverInputs {
            x_b,
            b,
            p: Some(x.clone()),
            per,
            warm_start: Some(x.clone()),
        };

        let solve = |width: usize| {
            rayon::set_num_threads_for_tests(width);
            let cfg = UpdaterConfig {
                rank: Some(8),
                max_iter: 20,
                coupling: CouplingMode::Exact,
                ..UpdaterConfig::default()
            };
            let report = Solver::new(inputs.clone(), cfg).unwrap().solve().unwrap();
            (
                report.reconstruction(),
                report.objective_trace().to_vec(),
                report.iterations(),
            )
        };

        if mask == "varying" {
            let classes = Solver::new(inputs.clone(), UpdaterConfig::default())
                .unwrap()
                .column_systems();
            assert!(
                classes * 64 >= 4_096,
                "{classes} classes no longer fan out their factoring"
            );
        }

        let (recon_1, trace_1, iters_1) = solve(1);
        for width in [2usize, 4, 7] {
            let (recon_w, trace_w, iters_w) = solve(width);
            assert_eq!(
                iters_w, iters_1,
                "{mask}: iteration count changed at width {width}"
            );
            assert_eq!(
                trace_w, trace_1,
                "{mask}: objective trace changed at width {width}"
            );
            assert!(
                recon_w.approx_eq(&recon_1, 0.0),
                "{mask}: reconstruction changed at width {width} (max |Δ| = {})",
                (&recon_w - &recon_1).max_abs()
            );
        }
    }
    rayon::set_num_threads_for_tests(0);
}
