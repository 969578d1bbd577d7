//! Fig. 21: localization-error CDFs at 45 days for three databases:
//! the fresh ground-truth survey (paper median 0.78 m), the iUpdater
//! reconstruction (1.1 m), and the stale original matrix ("OMP w/o
//! rec.", ~54 % worse than iUpdater).

use crate::report::{FigureResult, Series};
use crate::scenario::{Scenario, INITIAL_SURVEY_SAMPLES};
use iupdater_core::FingerprintMatrix;
use iupdater_linalg::stats::{median, Ecdf};

/// Evaluation day.
pub const EVAL_DAY: f64 = 45.0;
/// Probe-noise salt for reproducibility.
const SALT: u64 = 2101;

/// Runs the three arms and returns their error samples
/// `(groundtruth, iupdater, stale)`.
fn arm_errors() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let s = Scenario::office();
    let fresh = FingerprintMatrix::survey(s.testbed(), EVAL_DAY, INITIAL_SURVEY_SAMPLES);
    let reconstructed = s.reconstruct(EVAL_DAY);
    let stale = s.prior().clone();
    (
        s.localization_errors(&fresh, EVAL_DAY, 1, SALT),
        s.localization_errors(&reconstructed, EVAL_DAY, 1, SALT),
        s.localization_errors(&stale, EVAL_DAY, 1, SALT),
    )
}

/// Regenerates Fig. 21.
pub fn run() -> FigureResult {
    let (gt, iu, stale) = arm_errors();
    let mut fig = FigureResult::new(
        "fig21",
        "Localization error CDFs at 45 days",
        "localization error [m]",
        "CDF",
    );
    for (label, errs) in [
        ("Groundtruth", &gt),
        ("iUpdater", &iu),
        ("OMP w/o rec.", &stale),
    ] {
        let ecdf = Ecdf::new(errs);
        fig.series.push(Series::from_points(label, ecdf.curve(60)));
        fig.notes
            .push(format!("{label}: median {:.2} m", median(errs)));
    }
    fig.notes
        .push("paper medians: 0.78 m / 1.1 m / (iUpdater ~54 % better than stale)".into());
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_paper() {
        let (gt, iu, stale) = arm_errors();
        let m_gt = median(&gt);
        let m_iu = median(&iu);
        let m_stale = median(&stale);
        // Ground truth is the best; iUpdater close behind; stale worst.
        assert!(
            m_iu <= m_stale,
            "iUpdater ({m_iu} m) must beat the stale matrix ({m_stale} m)"
        );
        assert!(
            m_gt <= m_iu * 1.35,
            "ground truth ({m_gt} m) should lead iUpdater ({m_iu} m)"
        );
        // Absolute scale: sub-2 m medians for GT and iUpdater, like the
        // paper's 0.78/1.1 m.
        assert!(m_gt < 2.0, "ground-truth median {m_gt} m");
        assert!(m_iu < 2.5, "iUpdater median {m_iu} m");
    }

    #[test]
    fn mean_improvement_is_substantial() {
        let (_, iu, stale) = arm_errors();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let gain = 1.0 - mean(&iu) / mean(&stale);
        // Paper: ~54 % improvement in the office. Demand a robust gain.
        assert!(
            gain > 0.15,
            "iUpdater should clearly improve on the stale matrix (gain {:.1} %)",
            gain * 100.0
        );
    }
}
