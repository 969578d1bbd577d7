//! Fig. 18: reconstruction-error CDFs of the full iUpdater method at the
//! five update timestamps (paper medians in the office: 2.7, 2.5, 3.3,
//! 3.6 and 4.1 dB — errors grow mildly with elapsed time).

use crate::report::{FigureResult, Series};
use crate::scenario::{Scenario, TIMESTAMPS};
use iupdater_core::metrics::reconstruction_errors;
use iupdater_linalg::stats::{median, Ecdf};

/// Regenerates Fig. 18.
pub fn run() -> FigureResult {
    let s = Scenario::office();
    let mut fig = FigureResult::new(
        "fig18",
        "Fingerprint reconstruction error CDFs at five timestamps",
        "reconstruction error [dB]",
        "CDF",
    );
    for &(label, day) in TIMESTAMPS.iter() {
        let rec = s.reconstruct(day);
        let errs = reconstruction_errors(rec.matrix(), &s.ground_truth(day)).expect("shapes");
        let ecdf = Ecdf::new(&errs);
        fig.series.push(Series::from_points(
            format!("{label} later"),
            ecdf.curve(60),
        ));
        fig.notes
            .push(format!("{label} later: median {:.2} dB", median(&errs)));
    }
    fig.notes
        .push("paper medians: 2.7 / 2.5 / 3.3 / 3.6 / 4.1 dB".into());
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Median reconstruction error at each timestamp.
    fn medians() -> Vec<f64> {
        let s = Scenario::office();
        TIMESTAMPS
            .iter()
            .map(|&(_, day)| {
                let rec = s.reconstruct(day);
                let errs =
                    reconstruction_errors(rec.matrix(), &s.ground_truth(day)).expect("shapes");
                median(&errs)
            })
            .collect()
    }

    #[test]
    fn medians_in_paper_ballpark_and_growing() {
        let meds = medians();
        assert_eq!(meds.len(), 5);
        // Absolute scale: low single-digit dB, like the paper's 2.5-4.1.
        for (k, m) in meds.iter().enumerate() {
            assert!((0.2..6.0).contains(m), "timestamp {k}: median {m} dB");
        }
        // Long-horizon errors exceed short-horizon ones (mild growth).
        let early = (meds[0] + meds[1]) / 2.0;
        let late = (meds[3] + meds[4]) / 2.0;
        assert!(
            late >= early * 0.8,
            "errors should not collapse over time: early {early}, late {late}"
        );
    }

    #[test]
    fn cdfs_monotone() {
        let fig = run();
        assert_eq!(fig.series.len(), 5);
        for s in &fig.series {
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-9);
            }
        }
    }
}
