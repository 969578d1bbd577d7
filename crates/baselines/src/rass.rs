//! RASS (Zhang et al., TPDS 2013): device-free localization by support
//! vector regression, the paper's state-of-the-art comparison system
//! (Figs. 23-24).
//!
//! RASS trains one regressor per coordinate axis on the fingerprint
//! database (feature = the M-link RSS vector of a location, label = the
//! location's metric coordinates) and predicts a continuous position for
//! an online measurement. The paper runs it in two arms: on the original
//! stale database ("RASS w/o rec.") and on the iUpdater-reconstructed
//! database ("RASS w/ rec.").

use iupdater_core::FingerprintMatrix;
use iupdater_linalg::Matrix;
use iupdater_rfsim::{Deployment, Point};

use crate::svr::{SvrModel, SvrParams};

/// A trained RASS localizer.
#[derive(Debug, Clone)]
pub struct Rass {
    model_x: SvrModel,
    model_y: SvrModel,
    /// Per-link feature means used for centring.
    feature_means: Vec<f64>,
}

impl Rass {
    /// Trains RASS from a fingerprint database and the deployment's grid
    /// coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the deployment's location count differs from the
    /// fingerprint's.
    pub fn train(
        fingerprint: &FingerprintMatrix,
        deployment: &Deployment,
        params: SvrParams,
    ) -> Self {
        assert_eq!(
            deployment.num_locations(),
            fingerprint.num_locations(),
            "deployment/fingerprint size mismatch"
        );
        let x = fingerprint.matrix();
        let m = x.rows();
        let n = x.cols();
        // Features: centred RSS columns (one sample per location).
        let feature_means: Vec<f64> = (0..m)
            .map(|i| x.row(i).iter().sum::<f64>() / n as f64)
            .collect();
        let features = Matrix::from_fn(n, m, |j, i| x[(i, j)] - feature_means[i]);
        let labels_x: Vec<f64> = (0..n).map(|j| deployment.location(j).x).collect();
        let labels_y: Vec<f64> = (0..n).map(|j| deployment.location(j).y).collect();
        let model_x = SvrModel::train(&features, &labels_x, params);
        let model_y = SvrModel::train(&features, &labels_y, params);
        Rass {
            model_x,
            model_y,
            feature_means,
        }
    }

    /// Predicts the target's continuous position from an online RSS
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the trained link count.
    pub fn predict(&self, y: &[f64]) -> Point {
        assert_eq!(
            y.len(),
            self.feature_means.len(),
            "measurement length mismatch"
        );
        let centered: Vec<f64> = y
            .iter()
            .zip(&self.feature_means)
            .map(|(v, m)| v - m)
            .collect();
        Point::new(
            self.model_x.predict(&centered),
            self.model_y.predict(&centered),
        )
    }

    /// Localization error in metres against a known true grid location.
    pub fn error_m(&self, y: &[f64], deployment: &Deployment, true_grid: usize) -> f64 {
        self.predict(y).distance(deployment.location(true_grid))
    }
}

/// Default SVR hyper-parameters tuned for RSS-vector features
/// (magnitudes of a few dB after centring).
pub fn default_rass_params() -> SvrParams {
    SvrParams {
        c: 50.0,
        epsilon: 0.1,
        gamma: 0.02,
        max_passes: 25,
        tol: 1e-3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iupdater_rfsim::{Environment, Testbed};

    fn setup(seed: u64) -> (Testbed, Rass) {
        let t = Testbed::new(Environment::office(), seed);
        let fp = FingerprintMatrix::survey(&t, 0.0, 20);
        let rass = Rass::train(&fp, t.deployment(), default_rass_params());
        (t, rass)
    }

    #[test]
    fn predicts_inside_the_area() {
        let (t, rass) = setup(31);
        for j in (0..96).step_by(9) {
            let y = t.online_measurement(j, 0.0, 400 + j as u64);
            // SVR extrapolates mildly past the walls on noisy inputs;
            // allow a margin around the 9 m x 12 m office.
            let p = rass.predict(&y);
            assert!(p.x > -4.0 && p.x < 13.0, "x = {}", p.x);
            assert!(p.y > -4.0 && p.y < 16.0, "y = {}", p.y);
        }
    }

    #[test]
    fn mean_error_reasonable_on_fresh_data() {
        let (t, rass) = setup(32);
        let d = t.deployment();
        let mut err = 0.0;
        let mut cnt = 0;
        for j in (0..96).step_by(5) {
            let y = t.online_measurement(j, 0.0, 500 + j as u64);
            err += rass.error_m(&y, d, j);
            cnt += 1;
        }
        let mean = err / cnt as f64;
        assert!(mean < 3.0, "RASS day-0 mean error {mean} m");
    }

    #[test]
    fn stale_training_data_degrades() {
        let t = Testbed::new(Environment::office(), 33);
        let d = t.deployment();
        let stale = Rass::train(
            &FingerprintMatrix::survey(&t, 0.0, 20),
            d,
            default_rass_params(),
        );
        let fresh = Rass::train(
            &FingerprintMatrix::survey(&t, 45.0, 20),
            d,
            default_rass_params(),
        );
        let mut err_stale = 0.0;
        let mut err_fresh = 0.0;
        for j in (0..96).step_by(4) {
            let y = t.online_measurement(j, 45.0, 600 + j as u64);
            err_stale += stale.error_m(&y, d, j);
            err_fresh += fresh.error_m(&y, d, j);
        }
        assert!(
            err_stale > err_fresh,
            "stale RASS ({err_stale}) must be worse than fresh ({err_fresh})"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn measurement_length_checked() {
        let (_, rass) = setup(34);
        let _ = rass.predict(&[0.0; 3]);
    }
}
