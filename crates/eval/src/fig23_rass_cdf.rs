//! Fig. 23: localization-error CDFs at 45 days against the
//! state-of-the-art RASS tracker. Paper medians: iUpdater 1.1 m, RASS
//! with the reconstructed matrix 1.6 m, RASS with the stale matrix
//! 3.3 m — the reconstruction helps RASS by ~50 %, and iUpdater's OMP
//! matcher beats RASS's SVR regardless.

use crate::report::{FigureResult, Series};
use crate::scenario::Scenario;
use iupdater_linalg::stats::{median, Ecdf};

/// Evaluation day.
pub const EVAL_DAY: f64 = 45.0;
const SALT: u64 = 2301;

/// Runs the three arms and returns their error samples
/// `(iupdater, rass_with_rec, rass_without_rec)`.
fn arm_errors() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let s = Scenario::office();
    let reconstructed = s.reconstruct(EVAL_DAY);
    (
        s.localization_errors(&reconstructed, EVAL_DAY, 1, SALT),
        s.rass_errors(&reconstructed, EVAL_DAY, 1, SALT),
        s.rass_errors(s.prior(), EVAL_DAY, 1, SALT),
    )
}

/// Regenerates Fig. 23.
pub fn run() -> FigureResult {
    let (iu, rass_rec, rass_stale) = arm_errors();
    let mut fig = FigureResult::new(
        "fig23",
        "Comparison with RASS at 45 days (CDF)",
        "localization error [m]",
        "CDF",
    );
    for (label, errs) in [
        ("iUpdater", &iu),
        ("RASS w/ rec.", &rass_rec),
        ("RASS w/o rec.", &rass_stale),
    ] {
        let ecdf = Ecdf::new(errs);
        fig.series.push(Series::from_points(label, ecdf.curve(60)));
        fig.notes
            .push(format!("{label}: median {:.2} m", median(errs)));
    }
    fig.notes.push("paper medians: 1.1 / 1.6 / 3.3 m".into());
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_paper() {
        let (iu, rass_rec, rass_stale) = arm_errors();
        let m_iu = median(&iu);
        let m_rec = median(&rass_rec);
        let m_stale = median(&rass_stale);
        // iUpdater <= RASS w/ rec < RASS w/o rec.
        assert!(
            m_iu <= m_rec * 1.05,
            "iUpdater ({m_iu} m) should lead RASS w/ rec ({m_rec} m)"
        );
        assert!(
            m_rec < m_stale,
            "reconstruction must help RASS: {m_rec} vs {m_stale} m"
        );
    }

    #[test]
    fn reconstruction_gain_for_rass_is_large() {
        let (_, rass_rec, rass_stale) = arm_errors();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let gain = 1.0 - mean(&rass_rec) / mean(&rass_stale);
        // Paper: ~50 % improvement for RASS from the reconstruction.
        assert!(
            gain > 0.1,
            "reconstructed database should clearly help RASS (gain {:.1} %)",
            gain * 100.0
        );
    }
}
