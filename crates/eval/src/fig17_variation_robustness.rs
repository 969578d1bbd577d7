//! Fig. 17: constraint 2 beats raw measurement. Reconstructing from 80 %
//! of the cells *with* the continuity/similarity constraint localizes
//! better than the 100 %-measured (ground-truth survey) matrix, because
//! the constraint removes short-term outliers; 50 % + constraint matches
//! the 100 % survey at half the labor.

use crate::report::{FigureResult, Series};
use crate::scenario::{Scenario, TIMESTAMPS, UPDATE_SAMPLES};
use iupdater_core::solver::{Solver, SolverInputs};
use iupdater_core::{FingerprintMatrix, UpdaterConfig};
use iupdater_linalg::stats::mean;
use iupdater_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reconstructs from a random `fraction` of the surveyed cells with
/// constraint 2 enabled (no constraint 1: this figure isolates the
/// variation-robustness mechanism).
fn reconstruct_fraction(
    surveyed: &FingerprintMatrix,
    fraction: f64,
    seed: u64,
) -> FingerprintMatrix {
    let x = surveyed.matrix();
    let (m, n) = x.shape();
    let mut rng = StdRng::seed_from_u64(seed);
    let b = Matrix::from_fn(m, n, |_, _| {
        if rng.gen::<f64>() < fraction {
            1.0
        } else {
            0.0
        }
    });
    let x_b = b.hadamard(x).expect("shape");
    let cfg = UpdaterConfig {
        use_constraint1: false,
        use_constraint2: true,
        ..UpdaterConfig::default()
    };
    let inputs = SolverInputs {
        x_b,
        b,
        p: None,
        per: surveyed.locations_per_link(),
        warm_start: Some(x.clone()),
    };
    let report = Solver::new(inputs, cfg)
        .expect("solver")
        .solve()
        .expect("solve");
    surveyed
        .with_matrix(report.reconstruction())
        .expect("shape")
}

/// Regenerates Fig. 17: mean localization error of 80 % + C2, 50 % + C2
/// and the fully measured matrix, per timestamp.
pub fn run() -> FigureResult {
    let s = Scenario::office();
    let mut fig = FigureResult::new(
        "fig17",
        "Constraint 2 vs fully measured fingerprints (localization error)",
        "timestamp",
        "localization error [m]",
    );
    fig.x_labels = TIMESTAMPS
        .iter()
        .map(|&(l, _)| format!("{l} later"))
        .collect();
    let mut y80 = Vec::new();
    let mut y50 = Vec::new();
    let mut y100 = Vec::new();
    for (k, &(_, day)) in TIMESTAMPS.iter().enumerate() {
        // The fully measured survey at this day, collected with the
        // cheap 5-sample protocol the figure is about — this is the
        // survey whose residual noise/outliers constraint 2 removes.
        let surveyed = FingerprintMatrix::survey(s.testbed(), day, UPDATE_SAMPLES);
        let rec80 = reconstruct_fraction(&surveyed, 0.8, 100 + k as u64);
        let rec50 = reconstruct_fraction(&surveyed, 0.5, 200 + k as u64);
        let salt = 9000 + (k as u64) * 97;
        y80.push(mean(&s.localization_errors(&rec80, day, 2, salt)));
        y50.push(mean(&s.localization_errors(&rec50, day, 2, salt)));
        y100.push(mean(&s.localization_errors(&surveyed, day, 2, salt)));
    }
    fig.series
        .push(Series::from_ys("80% data + Constraint 2", &y80));
    fig.series
        .push(Series::from_ys("50% data + Constraint 2", &y50));
    fig.series
        .push(Series::from_ys("Measured (ground truth)", &y100));
    fig.notes.push(
        "paper: 80 % + constraint even beats 100 % measured; 50 % + constraint matches it".into(),
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_data_with_constraint_competitive_with_full_survey() {
        let fig = run();
        let avg = |label: &str| {
            let s = fig.series_by_label(label).expect("series");
            s.points.iter().map(|p| p.1).sum::<f64>() / s.points.len() as f64
        };
        let m80 = avg("80% data + Constraint 2");
        let m50 = avg("50% data + Constraint 2");
        let m100 = avg("Measured (ground truth)");
        // 80 % + C2 must at least match the full survey (paper: beats it).
        assert!(
            m80 <= m100 * 1.1,
            "80 % + C2 ({m80} m) should be competitive with measured ({m100} m)"
        );
        // 50 % + C2 stays close (paper: "as good performance").
        assert!(
            m50 <= m100 * 1.35,
            "50 % + C2 ({m50} m) should stay close to measured ({m100} m)"
        );
    }

    #[test]
    fn errors_in_plausible_range() {
        let fig = run();
        for s in &fig.series {
            for p in &s.points {
                assert!((0.0..4.0).contains(&p.1), "{}: {} m", s.label, p.1);
            }
        }
    }
}
