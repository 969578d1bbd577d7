//! Microbenchmarks of the numerical primitives: SVD, rank-revealing QR,
//! LRR/ALM, the self-augmented solver, OMP matching and RASS training,
//! all at the paper's problem sizes (8 x 96 office matrix).

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use iupdater_baselines::rass::{default_rass_params, Rass};
use iupdater_core::prelude::*;
use iupdater_core::query::QUERY_CHUNK;
use iupdater_core::{correlation, mic};
use iupdater_linalg::kernels::{nearest_block_on, sq_dist_row, FilterAtoms, ScanArm, BINARY_LANES};
use iupdater_linalg::lrr::solve_lrr;
use iupdater_linalg::Matrix;
use iupdater_rfsim::{Environment, Testbed};

fn office_matrix() -> Matrix {
    let t = Testbed::new(Environment::office(), 1);
    t.fingerprint_matrix(0.0, 5)
}

fn bench_linalg(c: &mut Criterion) {
    let x = office_matrix();
    let mut group = c.benchmark_group("linalg");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("svd_8x96", |b| b.iter(|| black_box(&x).svd().unwrap()));
    group.bench_function("pivoted_leading_columns_8x96", |b| {
        b.iter(|| black_box(&x).pivoted_leading_columns(0.02).unwrap())
    });
    group.bench_function("matmul_96x8_8x96", |b| {
        let xt = x.transpose();
        b.iter(|| black_box(&xt).matmul(black_box(&x)).unwrap())
    });
    let mic_sel = mic::extract_mic(&x, Default::default(), 0.02).unwrap();
    // The iterative ALM path: a dictionary one MIC vector short leaves
    // the dropped reference column outside its span, so the exactness
    // certificate declines (the setup asserts this).
    let k = mic_sel.rank();
    let short = mic_sel.vectors.select_cols(&(0..k - 1).collect::<Vec<_>>());
    let alm = solve_lrr(&short, &x).unwrap();
    assert!(
        alm.iterations > 0,
        "the short dictionary must take the ALM path"
    );
    group.bench_function("lrr_alm_short_dict_8x96", |b| {
        b.iter(|| solve_lrr(black_box(&short), black_box(&x)))
    });
    // The default path: the exactness certificate short-circuits to the
    // closed form on representable, well-conditioned inputs like this.
    group.bench_function("lrr_certified_8x96", |b| {
        b.iter(|| solve_lrr(black_box(&mic_sel.vectors), black_box(&x)))
    });
    // One normal-matrix factor of the 32x1536 solver (rank 32): a
    // diagonally dominant system, so partial pivoting never swaps and
    // the row passes time elimination plus the singularity floor.
    let normal = Matrix::from_fn(32, 32, |i, j| {
        if i == j {
            40.0
        } else {
            ((i * 32 + j) as f64 * 0.37).sin()
        }
    });
    group.bench_function("lu_32x32", |b| b.iter(|| black_box(&normal).lu().unwrap()));
    // One storm row's data-fit Gram (1,488 known cells of rank 32)
    // through the widest Gram arm, and the storm objective's
    // reconstruction `L Rᵀ` (k = 32 walked in two 16-deep slabs).
    let factor = Matrix::from_fn(1536, 32, |i, j| ((i * 32 + j) as f64 * 0.29).sin());
    let known: Vec<usize> = (48..1536).collect();
    let mut gram = Matrix::zeros(32, 32);
    group.bench_function("weighted_gram_1488x32", |b| {
        b.iter(|| {
            gram.add_weighted_gram(0.7, black_box(&factor), black_box(&known))
                .unwrap()
        })
    });
    let l = Matrix::from_fn(32, 32, |i, j| ((i * 32 + j) as f64 * 0.53).cos());
    let mut xhat = Matrix::zeros(32, 1536);
    group.bench_function("matmul_bt_32x32x1536", |b| {
        b.iter(|| {
            black_box(&l)
                .matmul_bt_into(black_box(&factor), &mut xhat)
                .unwrap()
        })
    });
    group.bench_function("certify_pivot_seed_8x96", |b| {
        b.iter(|| {
            black_box(&x)
                .certify_pivot_seed(
                    black_box(&mic_sel.locations),
                    0.02,
                    iupdater_linalg::qr::PIVOT_DRIFT_TOL,
                )
                .unwrap()
        })
    });
    // The MIC selection at the storm size (the 4x-scaled office).
    let big =
        Testbed::new(iupdater_eval::ext_scale::scaled_office(4), 2).fingerprint_matrix(0.0, 1);
    group.bench_function("pivoted_leading_columns_32x1536", |b| {
        b.iter(|| black_box(&big).pivoted_leading_columns(0.02).unwrap())
    });
    group.finish();
}

/// The dense-multiply kernel family at every dispatcher shape class
/// (see `iupdater_linalg::kernels`): tiny shared dimension, short-fat,
/// tall-thin and general, plus the Gram and `A·Bᵀ` entry points. All
/// benchmarks reuse a preallocated output so they time the kernel, not
/// the allocator. Names are stable: BENCH_PR6.json tracks them.
fn bench_matmul(c: &mut Criterion) {
    fn mat(rows: usize, cols: usize, phase: f64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            ((i * cols + j) as f64 * 0.37 + phase).sin() * 2.0
        })
    }
    let mut group = c.benchmark_group("matmul");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    // Tiny shared dimension (k = 8): the shape BENCH_PR1 showed the
    // blocked kernel losing at (0.88x).
    let a = mat(96, 8, 0.0);
    let b = mat(8, 96, 1.0);
    let mut out = Matrix::zeros(96, 96);
    group.bench_function("96x8_8x96", |bch| {
        bch.iter(|| black_box(&a).matmul_into(black_box(&b), &mut out).unwrap())
    });

    // Tiny shared dimension at the scaled-office width (k = 16 is the
    // dispatch threshold boundary).
    let a = mat(32, 16, 0.2);
    let b = mat(16, 1536, 1.2);
    let mut out = Matrix::zeros(32, 1536);
    group.bench_function("32x16_16x1536", |bch| {
        bch.iter(|| black_box(&a).matmul_into(black_box(&b), &mut out).unwrap())
    });

    // Short-fat: few output rows, long shared dimension.
    let a = mat(8, 96, 0.4);
    let b = mat(96, 96, 1.4);
    let mut out = Matrix::zeros(8, 96);
    group.bench_function("8x96_96x96", |bch| {
        bch.iter(|| black_box(&a).matmul_into(black_box(&b), &mut out).unwrap())
    });

    // Tall-thin: few output columns (a 96x96 block times 8 columns).
    let a = mat(96, 96, 0.6);
    let b = mat(96, 8, 1.6);
    let mut out = Matrix::zeros(96, 8);
    group.bench_function("96x96_96x8", |bch| {
        bch.iter(|| black_box(&a).matmul_into(black_box(&b), &mut out).unwrap())
    });

    // General: everything big enough for cache blocking to matter.
    let a = mat(96, 96, 0.8);
    let b = mat(96, 96, 1.8);
    let mut out = Matrix::zeros(96, 96);
    group.bench_function("96x96_96x96", |bch| {
        bch.iter(|| black_box(&a).matmul_into(black_box(&b), &mut out).unwrap())
    });

    // A·Bᵀ, tiny shared dimension: the solver engine's per-sweep
    // reconstruction `X̂ = L Rᵀ` at the paper's office size (rank 8).
    let l = mat(8, 8, 0.1);
    let r = mat(96, 8, 1.1);
    let mut out = Matrix::zeros(8, 96);
    group.bench_function("bt_8x8_96x8", |bch| {
        bch.iter(|| {
            black_box(&l)
                .matmul_bt_into(black_box(&r), &mut out)
                .unwrap()
        })
    });

    // A·Bᵀ, large shared dimension (row-dot shape).
    let l = mat(96, 96, 0.3);
    let r = mat(96, 96, 1.3);
    let mut out = Matrix::zeros(96, 96);
    group.bench_function("bt_96x96_96x96", |bch| {
        bch.iter(|| {
            black_box(&l)
                .matmul_bt_into(black_box(&r), &mut out)
                .unwrap()
        })
    });

    // Gram of the office matrix (8 links x 96 cells): 96x96 output
    // with the rank-8 inner dimension.
    let x = mat(8, 96, 0.5);
    let mut out = Matrix::zeros(96, 96);
    group.bench_function("gram_8x96", |bch| {
        bch.iter(|| black_box(&x).gram_into(&mut out).unwrap())
    });

    // Gram of a tall rank-8 factor: the LRR dictionary normal matrix.
    let x = mat(96, 8, 0.7);
    let mut out = Matrix::zeros(8, 8);
    group.bench_function("gram_96x8", |bch| {
        bch.iter(|| black_box(&x).gram_into(&mut out).unwrap())
    });

    // Weighted Gram over a row list: the data-fit normal matrix of one
    // row of the 32x1536 solver (rank 32, ~1,400 known cells), seeded
    // from a non-zero accumulator.
    let src = mat(1536, 32, 0.9);
    let rows: Vec<usize> = (0..1536).filter(|j| j % 12 != 0).take(1400).collect();
    let seed = mat(32, 32, 1.9);
    let mut acc = seed.clone();
    group.bench_function("weighted_gram_1400x32", |bch| {
        bch.iter(|| {
            acc.copy_from(&seed).unwrap();
            acc.add_weighted_gram(0.7, black_box(&src), black_box(&rows))
                .unwrap();
            black_box(&acc);
        })
    });

    group.finish();
}

fn bench_core(c: &mut Criterion) {
    let t = Testbed::new(Environment::office(), 1);
    let day0 = FingerprintMatrix::survey(&t, 0.0, 20);
    let updater = Updater::new(day0.clone(), UpdaterConfig::default()).unwrap();
    let mut group = c.benchmark_group("core");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(20);
    group.bench_function("updater_construction", |b| {
        b.iter(|| Updater::new(day0.clone(), UpdaterConfig::default()).unwrap())
    });
    group.bench_function("full_update_45d", |b| {
        b.iter(|| updater.update_from_testbed(&t, 45.0, 5).unwrap())
    });
    let fresh = updater.update_from_testbed(&t, 45.0, 5).unwrap();
    let localizer = Localizer::new(fresh.clone(), LocalizerConfig::default());
    let y = t.online_measurement(17, 45.0, 7);
    group.bench_function("omp_localize", |b| {
        b.iter(|| localizer.localize(black_box(&y)).unwrap())
    });
    group.bench_function("correlation_z_lrr", |b| {
        let mic_sel = mic::extract_mic(day0.matrix(), Default::default(), 0.02).unwrap();
        b.iter(|| {
            correlation::correlation_matrix(
                &mic_sel.vectors,
                day0.matrix(),
                correlation::CorrelationMethod::Lrr,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let t = Testbed::new(Environment::office(), 1);
    let day0 = FingerprintMatrix::survey(&t, 0.0, 20);
    let mut group = c.benchmark_group("baselines");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    group.bench_function("rass_train", |b| {
        b.iter(|| Rass::train(&day0, t.deployment(), default_rass_params()))
    });
    let rass = Rass::train(&day0, t.deployment(), default_rass_params());
    let y = t.online_measurement(17, 0.0, 7);
    group.bench_function("rass_predict", |b| b.iter(|| rass.predict(black_box(&y))));
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let t = Testbed::new(Environment::office(), 1);
    let mut group = c.benchmark_group("rfsim");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(20);
    group.bench_function("survey_5_samples", |b| {
        b.iter(|| t.fingerprint_matrix(0.0, 5))
    });
    group.bench_function("online_measurement", |b| {
        b.iter(|| t.online_measurement(17, 45.0, 7))
    });
    // The pooled site survey `UpdateService::register` runs: the storm
    // site at iUpdater's 5 readings, the office at a traditional 50.
    let big = Testbed::new(iupdater_eval::ext_scale::scaled_office(4), 1);
    group.bench_function("survey_32x1536_s5", |b| {
        b.iter(|| FingerprintMatrix::survey(&big, 0.0, 5))
    });
    group.bench_function("survey_office_s50", |b| {
        b.iter(|| FingerprintMatrix::survey(&t, 0.0, 50))
    });
    group.finish();
}

fn bench_extensions(c: &mut Criterion) {
    use iupdater_core::persist;
    use iupdater_core::tracking::{Tracker, TrackerConfig};
    use iupdater_rfsim::trajectory::Trajectory;

    let t = Testbed::new(Environment::office(), 1);
    let day0 = FingerprintMatrix::survey(&t, 0.0, 20);
    let mut group = c.benchmark_group("extensions");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);

    // Full SVD at a large-deployment size (32 x 1536).
    let big_env = iupdater_eval::ext_scale::scaled_office(4);
    let big = Testbed::new(big_env, 2).fingerprint_matrix(0.0, 1);
    group.bench_function("full_svd_32x1536", |b| b.iter(|| big.svd().unwrap()));

    // Viterbi tracking over a 60-epoch walk.
    let d = t.deployment();
    let walk = Trajectory::random_walk(d, 40, 60, 5);
    let measurements = walk.measurements(&t, 0.0, 9);
    let tracker = Tracker::new(&day0, d, TrackerConfig::default()).unwrap();
    group.bench_function("viterbi_track_60_epochs", |b| {
        b.iter(|| tracker.track(black_box(&measurements)).unwrap())
    });

    // Persistence round trip.
    group.bench_function("persist_roundtrip", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            persist::write_fingerprint(&day0, &mut buf).unwrap();
            persist::read_fingerprint(buf.as_slice()).unwrap()
        })
    });
    group.finish();
}

fn bench_solver(c: &mut Criterion) {
    use iupdater_core::solver::reference::ReferenceSolver;
    use iupdater_core::solver::{Solver, SolverInputs};
    use iupdater_core::{correlation, mic};

    // The reconstruction hot path at the paper's office size, isolated
    // from measurement collection: engine (refactored, phase-split)
    // vs reference (the original monolith) on identical inputs.
    let t = Testbed::new(Environment::office(), 1);
    let day0 = t.fingerprint_matrix(0.0, 20);
    let per = t.deployment().locations_per_link();
    let mic_sel = mic::extract_mic(&day0, Default::default(), 0.02).unwrap();
    let z = correlation::correlation_matrix(
        &mic_sel.vectors,
        &day0,
        correlation::CorrelationMethod::Lrr,
    )
    .unwrap();
    let x_r = t.measure_columns(&mic_sel.locations, 45.0, 5);
    let p = correlation::predict(&x_r, &z).unwrap();
    let x_b_full = t.fingerprint_matrix(45.0, 5);
    let b = iupdater_core::classify::CellClassification::from_testbed(&t).index_matrix();
    let x_b = b.hadamard(&x_b_full).unwrap();
    let inputs = SolverInputs {
        x_b,
        b,
        p: Some(p),
        per,
        warm_start: Some(day0),
    };
    let cfg = UpdaterConfig::default();

    let mut group = c.benchmark_group("solver");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(20);
    group.bench_function("engine_exact_8x96", |bch| {
        let solver = Solver::new(inputs.clone(), cfg.clone()).unwrap();
        bch.iter(|| black_box(&solver).solve().unwrap())
    });
    group.bench_function("reference_exact_8x96", |bch| {
        let solver = ReferenceSolver::new(inputs.clone(), cfg.clone()).unwrap();
        bch.iter(|| black_box(&solver).solve().unwrap())
    });
    let literal = UpdaterConfig {
        coupling: CouplingMode::PaperLiteral,
        ..cfg.clone()
    };
    group.bench_function("engine_paper_literal_8x96", |bch| {
        let solver = Solver::new(inputs.clone(), literal.clone()).unwrap();
        bch.iter(|| black_box(&solver).solve().unwrap())
    });
    group.bench_function("reference_paper_literal_8x96", |bch| {
        let solver = ReferenceSolver::new(inputs.clone(), literal.clone()).unwrap();
        bch.iter(|| black_box(&solver).solve().unwrap())
    });
    group.finish();
}

fn bench_solver_scale(c: &mut Criterion) {
    use iupdater_core::solver::reference::ReferenceSolver;
    use iupdater_core::solver::{Solver, SolverInputs};
    use iupdater_core::{correlation, mic};

    // Engine vs reference at the 32x1536 scaled office (the ROADMAP
    // large-deployment solver item): this is the scale where the
    // phase-split sweeps clear MIN_PARALLEL_WORK by a wide margin, so
    // on a multicore host the engine rows show the worker-pool win
    // while the reference row stays single-threaded by construction.
    // On a single-CPU host the engine matches the reference instead —
    // both honest numbers are worth tracking. The iteration budget is
    // capped so one bench iteration stays bounded; both variants run
    // the same budget.
    let big_env = iupdater_eval::ext_scale::scaled_office(4);
    let t = Testbed::new(big_env, 2);
    let day0 = t.fingerprint_matrix(0.0, 1);
    let per = t.deployment().locations_per_link();
    let mic_sel = mic::extract_mic(&day0, Default::default(), 0.02).unwrap();
    let z = correlation::correlation_matrix(
        &mic_sel.vectors,
        &day0,
        correlation::CorrelationMethod::Lrr,
    )
    .unwrap();
    let x_r = t.measure_columns(&mic_sel.locations, 45.0, 1);
    let p = correlation::predict(&x_r, &z).unwrap();
    let x_b_full = t.fingerprint_matrix(45.0, 1);
    let b = iupdater_core::classify::CellClassification::from_testbed(&t).index_matrix();
    let x_b = b.hadamard(&x_b_full).unwrap();
    let inputs = SolverInputs {
        x_b,
        b,
        p: Some(p),
        per,
        warm_start: Some(day0),
    };
    let cfg = UpdaterConfig {
        max_iter: 4,
        ..UpdaterConfig::default()
    };

    let mut group = c.benchmark_group("solver");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    group.bench_function("engine_exact_32x1536", |bch| {
        let solver = Solver::new(inputs.clone(), cfg.clone()).unwrap();
        bch.iter(|| black_box(&solver).solve().unwrap())
    });
    group.bench_function("reference_exact_32x1536", |bch| {
        let solver = ReferenceSolver::new(inputs.clone(), cfg.clone()).unwrap();
        bch.iter(|| black_box(&solver).solve().unwrap())
    });
    group.finish();
}

fn bench_warm_start(c: &mut Criterion) {
    use iupdater_core::persist;
    use iupdater_core::service::UpdateService;

    let mut group = c.benchmark_group("warm_start");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);

    // Rebase at the paper's 8x96 scale, in the two shapes a campaign
    // produces. "Stable": the engine is already anchored on a
    // reconstruction and the next reconstruction keeps the same MIC
    // selection — the certified fast path re-pivots without the greedy
    // sweep (the setup asserts this scenario really certifies).
    // "Shifted": the day-0-anchored engine is re-anchored on the first
    // reconstruction, where near-tied columns make the from-scratch
    // greedy flicker. The tie-set certificate recognises the incumbent
    // selection as a tie-set member and keeps it (the setup asserts
    // this), so the warm path stays fast where it previously paid a
    // failed sweep and fell back.
    let t = Testbed::new(Environment::office(), 1);
    let day0 = FingerprintMatrix::survey(&t, 0.0, 20);
    let e0 = Updater::new(day0.clone(), UpdaterConfig::default()).unwrap();
    let c1 = e0.update_from_testbed(&t, 5.0, 5).unwrap();
    let e1 = Updater::new(c1.clone(), UpdaterConfig::default()).unwrap();
    let c2 = e1.update_from_testbed(&t, 10.0, 5).unwrap();
    {
        // The warm start's own fast-path test: does the engine's
        // selection certify against the next prior?
        let certifies = |engine: &Updater, next: &FingerprintMatrix| {
            next.matrix()
                .certify_pivot_seed(
                    engine.seed_locations(),
                    engine.config().rank_tol,
                    iupdater_linalg::qr::PIVOT_DRIFT_TOL,
                )
                .unwrap()
                .is_some()
        };
        assert!(
            certifies(&e1, &c2),
            "stable scenario must take the certified path"
        );
        assert!(
            certifies(&e0, &c1),
            "shifted scenario must tie-certify the incumbent selection"
        );
    }
    group.bench_function("rebase_cold_stable_8x96", |b| {
        b.iter(|| Updater::new(c2.clone(), UpdaterConfig::default()).unwrap())
    });
    group.bench_function("rebase_warm_stable_8x96", |b| {
        b.iter(|| Updater::warm_start(black_box(&e1), c2.clone()).unwrap())
    });
    group.bench_function("rebase_cold_shifted_8x96", |b| {
        b.iter(|| Updater::new(c1.clone(), UpdaterConfig::default()).unwrap())
    });
    group.bench_function("rebase_warm_shifted_8x96", |b| {
        b.iter(|| Updater::warm_start(black_box(&e0), c1.clone()).unwrap())
    });

    // The 32x1536 scaled office (ROADMAP item): day-0 construction and
    // the natural rebase transition. At this size a few locations are
    // near-tied and used to flicker, making the warm start pay a failed
    // certification sweep and fall back (the PR3-era ~20% regression);
    // the tie-set certificate now keeps the incumbent selection, so the
    // warm path must come in no slower than from-scratch here.
    let big_env = iupdater_eval::ext_scale::scaled_office(4);
    let bt = Testbed::new(big_env, 2);
    let big0 = FingerprintMatrix::survey(&bt, 0.0, 5);
    let big_prev = Updater::new(big0.clone(), UpdaterConfig::default()).unwrap();
    let big_current = big_prev.update_from_testbed(&bt, 5.0, 3).unwrap();
    group.bench_function("updater_construction_32x1536", |b| {
        b.iter(|| Updater::new(big0.clone(), UpdaterConfig::default()).unwrap())
    });
    group.bench_function("rebase_from_scratch_32x1536", |b| {
        b.iter(|| Updater::new(big_current.clone(), UpdaterConfig::default()).unwrap())
    });
    group.bench_function("rebase_warm_start_32x1536", |b| {
        b.iter(|| Updater::warm_start(black_box(&big_prev), big_current.clone()).unwrap())
    });

    // Restore with and without the recorded warm-start basis (`basis
    // none` takes the re-derivation path): the basis skips MIC + LRR
    // per deployment.
    let mut s = UpdateService::new();
    for (i, env) in Environment::all_presets().into_iter().enumerate() {
        s.register(
            format!("site-{i}"),
            Testbed::new(env, 11 + i as u64),
            UpdaterConfig::default(),
            10,
        )
        .unwrap();
    }
    s.run_cycle(15.0, 5).unwrap();
    let snap = s.snapshot();
    let mut legacy = snap.clone();
    for d in &mut legacy.deployments {
        d.correlation = None;
    }
    group.bench_function("restore_with_basis_3deps", |b| {
        b.iter(|| UpdateService::restore(black_box(&snap)).unwrap())
    });
    group.bench_function("restore_without_basis_3deps", |b| {
        b.iter(|| UpdateService::restore(black_box(&legacy)).unwrap())
    });
    let mut buf = Vec::new();
    persist::write_service(&snap, &mut buf).unwrap();
    group.bench_function("read_service_v3_3deps", |b| {
        b.iter(|| persist::read_service(black_box(buf.as_slice())).unwrap())
    });
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    // The read path (PR 9): single-query latency (with p99 from the
    // harness line), a 256-query serial loop through the unprepared
    // oracle vs the prepared scratch path, and the chunked batch
    // fan-out — at the paper size and the 2x/4x scaled offices.
    let mut group = c.benchmark_group("query");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(40);

    let setups = [
        (Environment::office(), 1u64, 20usize, "8x96"),
        (iupdater_eval::ext_scale::scaled_office(2), 2, 5, "16x384"),
        (iupdater_eval::ext_scale::scaled_office(4), 3, 1, "32x1536"),
    ];
    for (env, seed, samples, tag) in setups {
        let t = Testbed::new(env, seed);
        let fp = FingerprintMatrix::survey(&t, 0.0, samples);
        let n = fp.num_locations();
        let loc = Localizer::new(fp, LocalizerConfig::default());
        let queries: Vec<Vec<f64>> = (0..256)
            .map(|q| t.online_measurement(q % n, 0.0, 900 + q as u64))
            .collect();
        // Fast paths change cost, never answers: assert exact parity
        // with the unprepared oracle on the whole slab before timing.
        let batch = loc.localize_batch(&queries).unwrap();
        for (y, b) in queries.iter().zip(&batch) {
            assert_eq!(
                loc.localize_unprepared(y).unwrap(),
                *b,
                "query bench slab must match the unprepared oracle"
            );
        }

        group.bench_function(&format!("unprepared_loop_256_{tag}"), |b| {
            b.iter(|| {
                let mut last = 0usize;
                for y in &queries {
                    last = loc.localize_unprepared(black_box(y)).unwrap().grid;
                }
                last
            })
        });
        let mut scratch = QueryScratch::new();
        group.bench_function(&format!("prepared_loop_256_{tag}"), |b| {
            b.iter(|| {
                let mut last = 0usize;
                for y in &queries {
                    last = loc
                        .localize_with_scratch(black_box(y), &mut scratch)
                        .unwrap()
                        .grid;
                }
                last
            })
        });
        group.bench_function(&format!("batch_256_{tag}"), |b| {
            b.iter(|| loc.localize_batch(black_box(&queries)).unwrap())
        });
        let mut single_scratch = QueryScratch::new();
        group.bench_function(&format!("single_{tag}"), |b| {
            b.iter(|| {
                loc.localize_with_scratch(black_box(&queries[17]), &mut single_scratch)
                    .unwrap()
            })
        });
        // One binary scan per call (the default `max_atoms = 1`): the
        // single-query pursuit on its distance row, and one
        // BINARY_LANES-query block (an 8-query slab is one serial
        // chunk) on the fused nearest-atom kernel.
        if tag != "16x384" {
            let mut scan_scratch = QueryScratch::new();
            group.bench_function(&format!("binary_scan_row_{tag}"), |b| {
                b.iter(|| {
                    loc.prepared()
                        .pursue(black_box(&queries[17]), loc.config(), &mut scan_scratch)
                        .unwrap()
                })
            });
        }
        if tag == "32x1536" {
            group.bench_function("binary_scan_block_32x1536", |b| {
                b.iter(|| loc.localize_batch(black_box(&queries[..8])).unwrap())
            });
            // One QUERY_CHUNK slab is one serial chunk (no pool
            // hand-off): the filter plus the pursuit's bookkeeping per
            // query, eight 8-lane blocks.
            group.bench_function("localize_chunk_64_32x1536", |b| {
                b.iter(|| {
                    loc.localize_batch(black_box(&queries[..QUERY_CHUNK]))
                        .unwrap()
                })
            });
            bench_nearest_block_arms(&mut group, loc.prepared(), &queries[..BINARY_LANES]);
        }
    }
    group.finish();
}

/// One certified nearest-atom pass per call on every filter arm the
/// host runs: the first step of a pursuit (nothing excluded) over one
/// `BINARY_LANES`-query block of centred storm queries. Each arm's
/// answer is checked against `sq_dist_row` plus the strict-`<` argmin
/// before timing.
fn bench_nearest_block_arms(
    group: &mut criterion::BenchmarkGroup<'_>,
    prepared: &PreparedDictionary,
    queries: &[Vec<f64>],
) {
    const L: usize = BINARY_LANES;
    let dictionary = prepared.dictionary();
    let (m, n) = dictionary.shape();
    let mut residuals = vec![0.0; m * L];
    let mut residual_sq = [0.0; L];
    let mut want = ([f64::INFINITY; L], [usize::MAX; L]);
    let mut row = vec![0.0; n];
    for (l, y) in queries.iter().enumerate() {
        let centered = prepared.center_query(y);
        for (i, &r) in centered.iter().enumerate() {
            residuals[i * L + l] = r;
        }
        residual_sq[l] = centered.iter().map(|r| r * r).sum();
        sq_dist_row(&centered, dictionary.as_slice(), &mut row);
        for (j, &d) in row.iter().enumerate() {
            if d < want.0[l] {
                (want.0[l], want.1[l]) = (d, j);
            }
        }
    }
    let atoms = FilterAtoms::new(dictionary.as_slice(), n);
    let excluded = vec![0_u8; n];
    let mut fallback = Vec::new();
    for arm in ScanArm::available() {
        let scan = |fallback: &mut Vec<f64>| {
            nearest_block_on(
                arm,
                black_box(&residuals),
                &residual_sq,
                dictionary.as_slice(),
                &atoms,
                &excluded,
                fallback,
            )
        };
        let (got, _) = scan(&mut fallback);
        assert_eq!(
            (got.0.map(f64::to_bits), got.1),
            (want.0.map(f64::to_bits), want.1),
            "{arm:?} nearest_block must match sq_dist_row and argmin"
        );
        let name = match arm {
            ScanArm::Scalar => "scalar",
            ScanArm::AvxFma => "avx_fma",
            ScanArm::Avx512f => "avx512f",
        };
        group.bench_function(&format!("nearest_block_{name}_{m}x{n}"), |b| {
            b.iter(|| scan(&mut fallback))
        });
    }
}

fn bench_gateway(c: &mut Criterion) {
    // The serving layer (PR 10): query latency through the gateway's
    // epoch-swapped published snapshots while the drive loop is idle
    // vs while update cycles commit concurrently. The epoch swap must
    // keep the read path contention-free — the contended p99 (from the
    // harness line) is the headline number.
    let mut group = c.benchmark_group("gateway");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(40);

    let twin = Testbed::new(Environment::office(), 1);
    let mut service = UpdateService::new();
    service
        .register(
            "office",
            Testbed::new(Environment::office(), 1),
            UpdaterConfig::default(),
            20,
        )
        .unwrap();
    let gw = FleetGateway::launch(service).unwrap();
    let id = gw.ids()[0];
    let n = twin.deployment().num_locations();
    let queries: Vec<Vec<f64>> = (0..256)
        .map(|q| twin.online_measurement(q % n, 0.0, 900 + q as u64))
        .collect();

    // The gateway path changes cost, never answers: assert exact
    // parity with the unprepared oracle on the published epoch before
    // timing anything.
    let snap = gw.published(id).unwrap();
    let oracle = Localizer::new(snap.fingerprint().clone(), LocalizerConfig::default());
    for (y, b) in queries.iter().zip(&snap.localize_batch(&queries).unwrap()) {
        assert_eq!(
            oracle.localize_unprepared(y).unwrap(),
            *b,
            "gateway bench slab must match the unprepared oracle"
        );
    }
    drop(snap);

    group.bench_function("single_idle_8x96", |b| {
        b.iter(|| gw.localize(id, black_box(&queries[17])).unwrap())
    });
    group.bench_function("batch_256_idle_8x96", |b| {
        b.iter(|| gw.localize_batch(id, black_box(&queries)).unwrap())
    });

    // Same reads while the drive loop commits cycle after cycle: the
    // writer may only steal throughput, never block a reader.
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let (gw, stop) = (&gw, &stop);
        let driver = s.spawn(move || {
            let mut day = 5.0;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                gw.run_cycle(day, 2).unwrap();
                day += 5.0;
            }
        });
        group.bench_function("single_contended_8x96", |b| {
            b.iter(|| gw.localize(id, black_box(&queries[17])).unwrap())
        });
        group.bench_function("batch_256_contended_8x96", |b| {
            b.iter(|| gw.localize_batch(id, black_box(&queries)).unwrap())
        });
        stop.store(true, std::sync::atomic::Ordering::Release);
        driver.join().unwrap();
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_linalg,
    bench_matmul,
    bench_core,
    bench_baselines,
    bench_simulator,
    bench_extensions,
    bench_solver,
    bench_solver_scale,
    bench_warm_start,
    bench_query,
    bench_gateway
);
criterion_main!(benches);
