//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! exact vs paper-literal coupling, fixed vs auto scaling, warm vs
//! random initialisation, and binary-residual vs correlation atom
//! selection.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use iupdater_core::config::AtomSelection;
use iupdater_core::prelude::*;
use iupdater_core::{CouplingMode, ScalingMode};
use iupdater_rfsim::{Environment, Testbed};

fn update_with(cfg: UpdaterConfig, t: &Testbed, day0: &FingerprintMatrix) -> FingerprintMatrix {
    let updater = Updater::new(day0.clone(), cfg).unwrap();
    updater.update_from_testbed(t, 45.0, 5).unwrap()
}

fn bench_coupling(c: &mut Criterion) {
    let t = Testbed::new(Environment::office(), 1);
    let day0 = FingerprintMatrix::survey(&t, 0.0, 20);
    let mut group = c.benchmark_group("ablation_coupling");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    group.bench_function("exact", |b| {
        b.iter(|| {
            update_with(
                UpdaterConfig {
                    coupling: CouplingMode::Exact,
                    ..UpdaterConfig::default()
                },
                &t,
                &day0,
            )
        })
    });
    group.bench_function("paper_literal", |b| {
        b.iter(|| {
            update_with(
                UpdaterConfig {
                    coupling: CouplingMode::PaperLiteral,
                    ..UpdaterConfig::default()
                },
                &t,
                &day0,
            )
        })
    });
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    let t = Testbed::new(Environment::office(), 1);
    let day0 = FingerprintMatrix::survey(&t, 0.0, 20);
    let mut group = c.benchmark_group("ablation_scaling");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    for (name, mode) in [("fixed", ScalingMode::Fixed), ("auto", ScalingMode::Auto)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                update_with(
                    UpdaterConfig {
                        scaling: mode,
                        ..UpdaterConfig::default()
                    },
                    &t,
                    &day0,
                )
            })
        });
    }
    group.finish();
}

fn bench_atom_selection(c: &mut Criterion) {
    let t = Testbed::new(Environment::office(), 1);
    let day0 = FingerprintMatrix::survey(&t, 0.0, 20);
    let y = t.online_measurement(30, 0.0, 7);
    let mut group = c.benchmark_group("ablation_atom_selection");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for (name, sel) in [
        ("binary_residual", AtomSelection::BinaryResidual),
        ("correlation", AtomSelection::Correlation),
    ] {
        let localizer = Localizer::new(
            day0.clone(),
            LocalizerConfig {
                selection: sel,
                ..LocalizerConfig::default()
            },
        );
        group.bench_function(name, |b| {
            b.iter(|| localizer.localize(black_box(&y)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_coupling, bench_scaling, bench_atom_selection);
criterion_main!(benches);
