//! The traditional full-database resurvey updater (Sec. VI-C's cost
//! baseline): a surveyor re-measures *every* grid location, typically
//! averaging ~50 samples per cell to beat the short-term noise.

use iupdater_core::FingerprintMatrix;
use iupdater_rfsim::Testbed;

/// The traditional updater: re-survey all `N` locations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FullResurvey {
    /// Samples collected per location (the paper cites ~50 for
    /// traditional systems, 5 for iUpdater).
    pub samples_per_location: usize,
}

impl FullResurvey {
    /// The paper's traditional setting: 50 samples per cell.
    pub fn traditional() -> Self {
        FullResurvey {
            samples_per_location: 50,
        }
    }

    /// A reduced-cost traditional arm: 5 samples per cell (the paper's
    /// "92.1 % saving" comparison point, where traditional accuracy
    /// starts dropping).
    pub fn quick() -> Self {
        FullResurvey {
            samples_per_location: 5,
        }
    }

    /// Runs the full resurvey at day offset `day`.
    pub fn update(&self, testbed: &Testbed, day: f64) -> FingerprintMatrix {
        FingerprintMatrix::survey(testbed, day, self.samples_per_location)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iupdater_core::metrics::mean_reconstruction_error;
    use iupdater_rfsim::labor::LaborModel;
    use iupdater_rfsim::Environment;

    #[test]
    fn resurvey_tracks_drift() {
        let t = Testbed::new(Environment::office(), 51);
        let fresh = FullResurvey::traditional().update(&t, 45.0);
        let truth = t.expected_fingerprint_matrix(45.0);
        let err = mean_reconstruction_error(fresh.matrix(), &truth).unwrap();
        assert!(err < 1.0, "50-sample resurvey error {err} dB");
    }

    #[test]
    fn more_samples_cost_more_and_measure_better() {
        let t = Testbed::new(Environment::office(), 52);
        let labor = LaborModel::default();
        let trad = FullResurvey::traditional();
        let quick = FullResurvey::quick();
        let cost = |s: FullResurvey| labor.survey_time_s(94, s.samples_per_location);
        assert!(cost(trad) > cost(quick), "50-sample survey must cost more");
        let truth = t.expected_fingerprint_matrix(10.0);
        // Average over a few runs to avoid seed luck.
        let err_of = |s: FullResurvey, salt: u64| {
            let tb = Testbed::new(Environment::office(), 52 ^ salt);
            let truth2 = tb.expected_fingerprint_matrix(10.0);
            mean_reconstruction_error(s.update(&tb, 10.0).matrix(), &truth2).unwrap()
        };
        let _ = truth;
        let e_trad: f64 = (0..4).map(|k| err_of(trad, k)).sum::<f64>() / 4.0;
        let e_quick: f64 = (0..4).map(|k| err_of(quick, k)).sum::<f64>() / 4.0;
        assert!(
            e_trad < e_quick,
            "traditional ({e_trad} dB) should measure cleaner than quick ({e_quick} dB)"
        );
    }
}
