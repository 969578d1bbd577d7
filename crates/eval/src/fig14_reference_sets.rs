//! Fig. 14: reconstruction-error CDFs at 45 days for four reference-set
//! choices: 7 of the 8 MIC locations, the 8 MIC locations (iUpdater),
//! 8 MIC + 1 random, and 11 random locations. In the paper, 7 locations
//! degrade the median by ~27 %, 8+1 matches 8, and 11 random degrades
//! by ~47 % — i.e. the MIC set is minimal *and* sufficient.

use crate::report::{FigureResult, Series};
use crate::scenario::Scenario;
use iupdater_baselines::random_ref::{add_random, drop_references, random_locations};
use iupdater_core::metrics::reconstruction_errors;
use iupdater_linalg::stats::{median, Ecdf};

/// The evaluation day (the paper uses the 45-day update).
pub const EVAL_DAY: f64 = 45.0;

/// Regenerates Fig. 14.
pub fn run() -> FigureResult {
    run_at(EVAL_DAY)
}

/// Fig. 14 at an arbitrary day offset.
fn run_at(day: f64) -> FigureResult {
    let s = Scenario::office();
    let truth = s.ground_truth(day);
    let refs = s.updater().reference_locations().to_vec();
    let n = s.prior().num_locations();

    let arms: Vec<(String, Vec<usize>)> = vec![
        ("7 reference locations".into(), drop_references(&refs, 1, 7)),
        ("8 reference locations (iUpdater)".into(), refs.clone()),
        (
            "(8 reference + 1 random) locations".into(),
            add_random(&refs, n, 1, 11),
        ),
        ("11 random locations".into(), random_locations(n, 11, 13)),
    ];

    let mut fig = FigureResult::new(
        "fig14",
        "Fingerprint reconstruction errors vs reference-set choice (45 days)",
        "reconstruction error [dB]",
        "CDF",
    );
    for (label, locations) in arms {
        let rec = s.reconstruct_with_references(&locations, day);
        let errs = reconstruction_errors(rec.matrix(), &truth).expect("shapes match");
        let ecdf = Ecdf::new(&errs);
        fig.series
            .push(Series::from_points(label.clone(), ecdf.curve(60)));
        fig.notes
            .push(format!("{label}: median error {:.2} dB", median(&errs)));
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean reconstruction error for each of the four arms (the figure
    /// itself is the CDF).
    fn arm_means(day: f64) -> [f64; 4] {
        let s = Scenario::office();
        let truth = s.ground_truth(day);
        let refs = s.updater().reference_locations().to_vec();
        let n = s.prior().num_locations();
        let arms = [
            drop_references(&refs, 1, 7),
            refs.clone(),
            add_random(&refs, n, 1, 11),
            random_locations(n, 11, 13),
        ];
        let mut out = [0.0; 4];
        for (k, locations) in arms.iter().enumerate() {
            let rec = s.reconstruct_with_references(locations, day);
            let errs = reconstruction_errors(rec.matrix(), &truth).expect("shapes");
            out[k] = errs.iter().sum::<f64>() / errs.len() as f64;
        }
        out
    }

    #[test]
    fn mic_set_is_minimal_and_sufficient() {
        let [seven, eight, eight_plus, random11] = arm_means(EVAL_DAY);
        // Dropping a reference hurts (paper: ~27 % worse at the median).
        assert!(
            seven > eight * 1.05,
            "7 refs ({seven} dB) should be clearly worse than 8 ({eight} dB)"
        );
        // Adding a random extra barely changes it (paper: "more or less
        // the same").
        assert!(
            eight_plus < eight * 1.15 && eight_plus > eight * 0.6,
            "8+1 ({eight_plus} dB) should be comparable to 8 ({eight} dB)"
        );
        // Random selection is much worse (paper: ~47 % worse).
        assert!(
            random11 > eight * 1.3,
            "11 random ({random11} dB) should be much worse than 8 MIC ({eight} dB)"
        );
    }

    #[test]
    fn figure_has_four_cdfs() {
        let fig = run();
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-9, "CDF must be monotone");
            }
        }
    }
}
