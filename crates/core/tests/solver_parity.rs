//! Golden parity tests: the layered, phase-split parallel ALS engine
//! must reproduce the original single-threaded monolith
//! (`solver::reference`) on the objective trajectory AND the
//! reconstruction, to ≤ 1e-9, on every solver configuration the system
//! uses.

use iupdater_core::config::{CouplingMode, ScalingMode, UpdaterConfig};
use iupdater_core::solver::reference::ReferenceSolver;
use iupdater_core::solver::{Solver, SolverInputs};
use iupdater_linalg::Matrix;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Synthetic fingerprint with the paper's structure (same generator the
/// solver unit tests use).
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

fn mask_no_decrease(m: usize, per: usize) -> Matrix {
    Matrix::from_fn(m, m * per, |i, j| {
        if (j / per).abs_diff(i) <= 1 {
            0.0
        } else {
            1.0
        }
    })
}

/// A no-decrease mask that varies *within* links: each column randomly
/// also hides each of the rows two links away, so cells of one link can have
/// different known-row sets (and hence different normal matrices).
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

fn inputs(m: usize, per: usize, seed: u64, warm: bool) -> SolverInputs {
    inputs_with_mask(m, per, seed, warm, mask_no_decrease(m, per))
}

fn inputs_with_mask(m: usize, per: usize, seed: u64, warm: bool, b: Matrix) -> SolverInputs {
    let x = structured_fingerprint(m, per, seed);
    let x_b = b.hadamard(&x).unwrap();
    SolverInputs {
        x_b,
        b,
        p: Some(x.clone()),
        per,
        warm_start: warm.then_some(x),
    }
}

/// Asserts engine/reference parity on one configuration.
fn assert_parity(inputs: SolverInputs, cfg: UpdaterConfig, label: &str) {
    let engine = Solver::new(inputs.clone(), cfg.clone())
        .unwrap()
        .solve()
        .unwrap();
    let reference = ReferenceSolver::new(inputs, cfg).unwrap().solve().unwrap();

    assert_eq!(
        engine.iterations(),
        reference.iterations(),
        "{label}: iteration counts diverge"
    );
    assert_eq!(
        engine.objective_trace().len(),
        reference.objective_trace().len(),
        "{label}: trace lengths diverge"
    );
    for (k, (a, b)) in engine
        .objective_trace()
        .iter()
        .zip(reference.objective_trace())
        .enumerate()
    {
        let tol = 1e-9 * b.abs().max(1.0);
        assert!(
            (a - b).abs() <= tol,
            "{label}: objective diverges at iteration {k}: {a} vs {b}"
        );
    }
    let (er, rr) = (engine.reconstruction(), reference.reconstruction());
    assert!(
        er.approx_eq(&rr, 1e-9),
        "{label}: reconstructions diverge (max |Δ| = {})",
        (&er - &rr).max_abs()
    );
    assert_eq!(
        engine.weights(),
        reference.weights(),
        "{label}: weights diverge"
    );
}

#[test]
fn parity_exact_coupling_default() {
    let cfg = UpdaterConfig {
        rank: Some(6),
        max_iter: 30,
        coupling: CouplingMode::Exact,
        ..UpdaterConfig::default()
    };
    assert_parity(inputs(6, 8, 41, false), cfg, "exact");
}

#[test]
fn parity_paper_literal_coupling() {
    let cfg = UpdaterConfig {
        rank: Some(6),
        max_iter: 30,
        coupling: CouplingMode::PaperLiteral,
        ..UpdaterConfig::default()
    };
    assert_parity(inputs(6, 8, 42, false), cfg, "paper-literal");
}

#[test]
fn parity_warm_start() {
    let cfg = UpdaterConfig {
        rank: Some(8),
        max_iter: 15,
        ..UpdaterConfig::default()
    };
    assert_parity(inputs(8, 12, 43, true), cfg, "warm-start");
}

#[test]
fn parity_auto_scaling() {
    let cfg = UpdaterConfig {
        rank: Some(5),
        max_iter: 20,
        scaling: ScalingMode::Auto,
        ..UpdaterConfig::default()
    };
    assert_parity(inputs(5, 7, 44, false), cfg, "auto-scaling");
}

#[test]
fn parity_basic_rsvd_no_constraints() {
    let cfg = UpdaterConfig {
        rank: Some(4),
        max_iter: 25,
        ..UpdaterConfig::basic_rsvd()
    };
    assert_parity(inputs(5, 6, 45, false), cfg, "basic-rsvd");
}

#[test]
fn parity_constraint1_only() {
    let cfg = UpdaterConfig {
        rank: Some(5),
        max_iter: 25,
        ..UpdaterConfig::with_constraint1_only()
    };
    assert_parity(inputs(6, 6, 46, false), cfg, "constraint1-only");
}

#[test]
fn parity_mask_varying_within_links() {
    for coupling in [CouplingMode::Exact, CouplingMode::PaperLiteral] {
        let cfg = UpdaterConfig {
            rank: Some(6),
            max_iter: 30,
            coupling,
            ..UpdaterConfig::default()
        };
        let inputs = inputs_with_mask(6, 9, 48, false, mask_varying_within_links(6, 9, 49));
        assert_parity(inputs, cfg, &format!("varying-mask {coupling:?}"));
    }
}

#[test]
fn engine_bit_identical_to_sequential_reference() {
    // Thread-count independence, without mutating the process
    // environment (setenv during a threaded test run is UB): the
    // reference solver is single-threaded by construction, so exact
    // (tolerance 0) equality against it under whatever worker pool
    // this process has proves the engine's output does not depend on
    // the thread count.
    let cfg = UpdaterConfig {
        rank: Some(6),
        max_iter: 15,
        ..UpdaterConfig::default()
    };
    let engine = Solver::new(inputs(6, 8, 47, false), cfg.clone())
        .unwrap()
        .solve()
        .unwrap();
    let reference = ReferenceSolver::new(inputs(6, 8, 47, false), cfg)
        .unwrap()
        .solve()
        .unwrap();
    assert!(engine
        .reconstruction()
        .approx_eq(&reference.reconstruction(), 0.0));
    assert_eq!(engine.objective_trace(), reference.objective_trace());
}
