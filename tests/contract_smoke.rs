//! Contract smoke: each path's headline parity assertion at a small
//! configuration, so the plain `cargo test -q` exercises the solver
//! engine, the prepared pursuits, their squared-distance kernels and
//! the correlation routing.
//!
//! Write path: on the smallest within-link-varying mask (6 links x 9
//! cells, so the engine's column classes and shared row prefixes both
//! split), the layered ALS engine under Exact coupling must equal the
//! frozen single-threaded `ReferenceSolver` at tolerance 0: the same
//! iteration count, objective trace and reconstruction, bit for bit.
//! The full tier lives in `crates/core/tests/solver_parity.rs`.
//!
//! Read path: over a 16x384 site (`ext_scale::scaled_office(2)`), every
//! query is answered three ways — the single-query prepared path
//! (`Localizer::localize`), the chunked batch path
//! (`Localizer::localize_batch`, lane-blocked under the binary model)
//! and the unprepared scalar oracle (`Localizer::localize_unprepared`)
//! — and the three estimates must agree bit for bit, the residual's
//! bits included. That holds for the default binary model, for the
//! binary model with three atoms (so the lane-blocked pursuit's
//! per-lane exclusion and residual guard run) and for classic
//! correlation OMP with three atoms. The lane-blocked pursuit's
//! certified nearest-atom scan must also fall back on a duplicate-atom
//! dictionary and answer a small random slab by certificate, agreeing
//! with the oracle both ways. The full tier lives in
//! `crates/core/tests/query_parity.rs`.
//!
//! Survey path: the simulator evaluates the noiseless field once per
//! cell and `FingerprintMatrix::survey` fans the links across the
//! worker pool; the office field and pooled survey must hash to the
//! digests recorded when every reading re-evaluated the whole field.
//! The full tier lives in `crates/rfsim/tests/survey_parity.rs`.

use iupdater::core::config::{AtomSelection, CouplingMode};
use iupdater::core::prelude::*;
use iupdater::core::query::QUERY_CHUNK;
use iupdater::core::solver::reference::ReferenceSolver;
use iupdater::core::solver::{Solver, SolverInputs};
use iupdater::eval::ext_scale::scaled_office;
use iupdater::linalg::kernels::BINARY_LANES;
use iupdater::linalg::Matrix;
use iupdater::rfsim::{Environment, Testbed};
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn engine_equals_reference_solver_bitwise() {
    let (m, per) = (6, 9);
    let mut rng = StdRng::seed_from_u64(48);
    let base: Vec<f64> = (0..m)
        .map(|_| -62.0 + (rng.gen::<f64>() - 0.5) * 4.0)
        .collect();
    // Each link dips over its own cells; neighbours see a 1 dB shadow.
    let x = Matrix::from_fn(m, m * per, |i, j| {
        let (owner, u) = (j / per, (j % per) as f64 / (per - 1) as f64);
        match owner.abs_diff(i) {
            0 => base[i] - (4.0 + 5.0 * (2.0 * u - 1.0).powi(2)),
            1 => base[i] - 1.0,
            _ => base[i],
        }
    });
    // Beyond the cells near its own link, each column randomly hides
    // each of the rows two links away.
    let hide: Vec<[bool; 2]> = (0..m * per).map(|_| [rng.gen(), rng.gen()]).collect();
    let b = Matrix::from_fn(m, m * per, |i, j| {
        let owner = j / per;
        let hidden = owner.abs_diff(i) <= 1
            || (hide[j][0] && i == (owner + 2) % m)
            || (hide[j][1] && i == (owner + m - 2) % m);
        if hidden {
            0.0
        } else {
            1.0
        }
    });
    let inputs = SolverInputs {
        x_b: b.hadamard(&x).unwrap(),
        b,
        p: Some(x),
        per,
        warm_start: None,
    };
    let cfg = UpdaterConfig {
        rank: Some(6),
        max_iter: 30,
        coupling: CouplingMode::Exact,
        ..UpdaterConfig::default()
    };
    let engine = Solver::new(inputs.clone(), cfg.clone()).unwrap();
    assert!(engine.column_systems() > m, "the mask must split links");
    let engine = engine.solve().unwrap();
    let reference = ReferenceSolver::new(inputs, cfg).unwrap().solve().unwrap();
    assert_eq!(engine.iterations(), reference.iterations());
    let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(engine.objective_trace()),
        bits(reference.objective_trace())
    );
    assert_eq!(
        bits(engine.reconstruction().as_slice()),
        bits(reference.reconstruction().as_slice())
    );
}

fn assert_same_bits(got: &LocationEstimate, want: &LocationEstimate, what: &str, q: usize) {
    assert_eq!(got.grid, want.grid, "{what}: query {q} grid");
    assert_eq!(got.support, want.support, "{what}: query {q} support");
    let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.coefficients),
        bits(&want.coefficients),
        "{what}: query {q} coefficients"
    );
    assert_eq!(
        got.residual_sq.to_bits(),
        want.residual_sq.to_bits(),
        "{what}: query {q} residual_sq"
    );
}

/// Answers a 16x384 slab through all three read paths under `config`
/// and asserts they agree bit for bit.
fn assert_reads_agree(config: LocalizerConfig) {
    let testbed = Testbed::new(scaled_office(2), 2);
    let fp = FingerprintMatrix::survey(&testbed, 0.0, 3);
    let (links, cells) = (fp.num_links(), fp.num_locations());
    assert_eq!((links, cells), (16, 384));
    let loc = Localizer::new(fp, config);

    // Two full chunks plus a tail of one 8-lane block and three
    // single-query leftovers: not a multiple of 8 or of QUERY_CHUNK.
    let slab_len = 2 * QUERY_CHUNK + BINARY_LANES + 3;
    assert_ne!(slab_len % BINARY_LANES, 0);
    assert_ne!(slab_len % QUERY_CHUNK, 0);
    let queries: Vec<Vec<f64>> = (0..slab_len)
        .map(|q| testbed.online_measurement((q * 37) % cells, 30.0, 500 + q as u64))
        .collect();

    let batch = loc.localize_batch(&queries).unwrap();
    assert_eq!(batch.len(), slab_len);
    for (q, (y, b)) in queries.iter().zip(&batch).enumerate() {
        let oracle = loc.localize_unprepared(y).unwrap();
        assert_same_bits(&loc.localize(y).unwrap(), &oracle, "localize", q);
        assert_same_bits(b, &oracle, "localize_batch", q);
    }
}

#[test]
fn single_batch_and_unprepared_reads_agree_bitwise() {
    assert_reads_agree(LocalizerConfig::default());
}

#[test]
fn multi_atom_binary_reads_agree_bitwise() {
    assert_reads_agree(LocalizerConfig {
        max_atoms: 3,
        ..LocalizerConfig::default()
    });
}

#[test]
fn correlation_reads_agree_bitwise() {
    assert_reads_agree(LocalizerConfig {
        selection: AtomSelection::Correlation,
        max_atoms: 3,
        ..LocalizerConfig::default()
    });
}

/// The lane-blocked pursuit's certified nearest-atom scan: on a
/// dictionary whose cell 9 repeats cell 2, lanes sitting on that pair
/// must fail the certificate, and on a random slab the scan answers by
/// certificate; either way every answer is the oracle's, bit for bit.
#[test]
fn certified_scan_falls_back_on_ties_and_agrees_bitwise() {
    let mut rng = StdRng::seed_from_u64(23);
    let (m, per) = (6, 8);
    let mut x = Matrix::from_fn(m, m * per, |_, _| -70.0 + 20.0 * rng.gen::<f64>());
    let random = x.clone();
    for i in 0..m {
        x[(i, 9)] = x[(i, 2)];
    }
    let on_pair: Vec<Vec<f64>> = (0..2 * BINARY_LANES)
        .map(|q| (0..m).map(|i| x[(i, 2)] + 0.01 * (q + i) as f64).collect())
        .collect();
    let random_slab: Vec<Vec<f64>> = (0..3 * BINARY_LANES)
        .map(|_| (0..m).map(|_| -70.0 + 20.0 * rng.gen::<f64>()).collect())
        .collect();
    for (name, dictionary, queries, must_fall_back) in [
        ("duplicate atoms", x, on_pair, true),
        ("random slab", random, random_slab, false),
    ] {
        let loc = Localizer::new(
            FingerprintMatrix::new(dictionary, per).unwrap(),
            LocalizerConfig::default(),
        );
        let (batch, uncertified) = loc.localize_batch_counted(&queries).unwrap();
        for (q, (y, b)) in queries.iter().zip(&batch).enumerate() {
            assert_same_bits(b, &loc.localize_unprepared(y).unwrap(), name, q);
        }
        assert_eq!(
            uncertified > 0,
            must_fall_back,
            "{name}: {uncertified} lanes fell back"
        );
    }
}

#[test]
fn pooled_survey_matches_the_recorded_per_reading_digests() {
    // FNV-1a over the little-endian bits of every entry.
    let fnv1a = |m: &Matrix| {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for v in m.as_slice() {
            for byte in v.to_bits().to_le_bytes() {
                digest ^= u64::from(byte);
                digest = digest.wrapping_mul(0x0100_0000_01b3);
            }
        }
        digest
    };
    let testbed = Testbed::new(Environment::office(), 7);
    let field = FingerprintMatrix::expected(&testbed, 45.0);
    assert_eq!(fnv1a(field.matrix()), 0xc9bc_5293_b1e0_1dd4, "field moved");
    let survey = FingerprintMatrix::survey(&testbed, 45.0, 5);
    assert_eq!(
        fnv1a(survey.matrix()),
        0xf0e9_0291_e389_5b47,
        "survey moved"
    );
}
