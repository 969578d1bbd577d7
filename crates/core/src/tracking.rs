//! Device-free target tracking: sequence-aware localization over a
//! stream of online measurements.
//!
//! Single-shot matching (Sec. V) treats every epoch independently; a
//! walking target, however, can only move to nearby cells between
//! epochs. This module adds a Viterbi decoder over the grid: emission
//! scores come from the (centred) fingerprint match quality, transition
//! scores penalise physically impossible jumps. This is the tracking
//! setting of the paper's comparison system RASS ("tracking
//! transceiver-free objects") built on top of iUpdater's reconstructed
//! database.

use iupdater_linalg::kernels::sq_dist_row;
use iupdater_linalg::Matrix;
use iupdater_rfsim::Deployment;

use crate::fingerprint::FingerprintMatrix;
use crate::query::CenteredDictionary;
use crate::{CoreError, Result};

/// Tracker configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerConfig {
    /// Maximum plausible movement between consecutive epochs, metres.
    pub max_step_m: f64,
    /// Weight of the squared movement distance in the path cost
    /// (trade-off between trusting the fingerprint match and trusting
    /// motion continuity).
    pub motion_weight: f64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            max_step_m: 2.5,
            motion_weight: 0.35,
        }
    }
}

/// A Viterbi tracker over the fingerprint grid.
#[derive(Debug, Clone)]
pub struct Tracker {
    /// The centred dictionary, the localizer's read-path centring
    /// without its filter input: raw RSS shares a large common level,
    /// so every epoch is centred through it before matching.
    centered: CenteredDictionary,
    config: TrackerConfig,
    /// Pairwise squared distances between grid cells (metres²).
    dist_sq: Matrix,
}

impl Tracker {
    /// Builds a tracker from a fingerprint database and its deployment
    /// geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the deployment's
    /// location count differs from the fingerprint's.
    pub fn new(
        fingerprint: &FingerprintMatrix,
        deployment: &Deployment,
        config: TrackerConfig,
    ) -> Result<Self> {
        if deployment.num_locations() != fingerprint.num_locations() {
            return Err(CoreError::DimensionMismatch {
                context: "Tracker::new",
                expected: format!("{} locations", fingerprint.num_locations()),
                got: format!("{}", deployment.num_locations()),
            });
        }
        let centered = CenteredDictionary::new(fingerprint.matrix());
        let n = fingerprint.num_locations();
        let dist_sq = Matrix::from_fn(n, n, |a, b| {
            let d = deployment.distance_between(a, b);
            d * d
        });
        Ok(Tracker {
            centered,
            config,
            dist_sq,
        })
    }

    /// Emission costs of every cell for raw measurement `y`: the
    /// centred squared distance to each atom in dB², one
    /// [`sq_dist_row`] pass written into `out`.
    fn emission_row(&self, y: &[f64], out: &mut [f64]) {
        let centered = self.centered.center_query(y);
        sq_dist_row(&centered, self.centered.dictionary().as_slice(), out);
    }

    /// Decodes the most likely cell sequence for a measurement stream
    /// (one epoch per row of `measurements`).
    ///
    /// # Errors
    ///
    /// - [`CoreError::InvalidArgument`] for an empty stream.
    /// - [`CoreError::DimensionMismatch`] if the measurement width does
    ///   not match the link count.
    pub fn track(&self, measurements: &Matrix) -> Result<Vec<usize>> {
        if measurements.rows() == 0 {
            return Err(CoreError::InvalidArgument("empty measurement stream"));
        }
        let (m, n) = self.centered.dictionary().shape();
        if measurements.cols() != m {
            return Err(CoreError::DimensionMismatch {
                context: "Tracker::track",
                expected: format!("{m} link measurements"),
                got: format!("{}", measurements.cols()),
            });
        }
        let max_step_sq = self.config.max_step_m * self.config.max_step_m;
        // Viterbi forward pass.
        let mut cost = vec![0.0; n];
        self.emission_row(measurements.row(0), &mut cost);
        let mut emit = vec![0.0; n];
        let mut back: Vec<Vec<usize>> = Vec::with_capacity(measurements.rows());
        for epoch in 1..measurements.rows() {
            self.emission_row(measurements.row(epoch), &mut emit);
            let mut new_cost = vec![f64::INFINITY; n];
            let mut back_row = vec![0usize; n];
            for j in 0..n {
                let mut best = f64::INFINITY;
                let mut best_prev = 0usize;
                for (prev, &prev_cost) in cost.iter().enumerate() {
                    let step_sq = self.dist_sq[(prev, j)];
                    // Hard gate on impossible jumps, soft penalty below.
                    if step_sq > max_step_sq {
                        continue;
                    }
                    let c = prev_cost + self.config.motion_weight * step_sq;
                    if c < best {
                        best = c;
                        best_prev = prev;
                    }
                }
                if best.is_infinite() {
                    // No reachable predecessor (max_step too tight):
                    // allow a teleport with a stiff penalty so decoding
                    // always succeeds.
                    let (prev_idx, prev_cost) = cost
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.total_cmp(b.1))
                        // invariants: allow(panic-freedom) — this
                        // runs inside `for j in 0..n`, so `cost`
                        // (one entry per grid cell, length n) is
                        // non-empty.
                        .expect("non-empty");
                    best = prev_cost + self.config.motion_weight * max_step_sq * 4.0;
                    best_prev = prev_idx;
                }
                new_cost[j] = best + emit[j];
                back_row[j] = best_prev;
            }
            back.push(back_row);
            cost = new_cost;
        }

        // Backtrack.
        let mut path = Vec::with_capacity(measurements.rows());
        let mut cur = cost
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(j, _)| j)
            .ok_or(CoreError::InvalidArgument("tracking grid is empty"))?;
        path.push(cur);
        for row in back.iter().rev() {
            cur = row[cur];
            path.push(cur);
        }
        path.reverse();
        Ok(path)
    }

    /// The tracker configuration.
    pub fn config(&self) -> &TrackerConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LocalizerConfig;
    use crate::localize::Localizer;
    use iupdater_linalg::stats::mean;
    use iupdater_rfsim::trajectory::Trajectory;
    use iupdater_rfsim::{Environment, Testbed};

    fn setup() -> (Testbed, FingerprintMatrix) {
        let t = Testbed::new(Environment::office(), 71);
        let fp = FingerprintMatrix::survey(&t, 0.0, 20);
        (t, fp)
    }

    fn per_epoch_errors(d: &Deployment, truth: &[usize], est: &[usize]) -> Vec<f64> {
        truth
            .iter()
            .zip(est)
            .map(|(&a, &b)| d.location(a).distance(d.location(b)))
            .collect()
    }

    #[test]
    fn tracking_beats_independent_matching() {
        let (t, fp) = setup();
        let d = t.deployment();
        let traj = Trajectory::random_walk(d, 40, 60, 5);
        let measurements = traj.measurements(&t, 0.0, 123);

        let tracker = Tracker::new(&fp, d, TrackerConfig::default()).unwrap();
        let tracked = tracker.track(&measurements).unwrap();
        let track_err = mean(&per_epoch_errors(d, traj.cells(), &tracked));

        let localizer = Localizer::new(fp.clone(), LocalizerConfig::default());
        let independent: Vec<usize> = (0..measurements.rows())
            .map(|k| localizer.localize(measurements.row(k)).unwrap().grid)
            .collect();
        let indep_err = mean(&per_epoch_errors(d, traj.cells(), &independent));

        assert!(
            track_err <= indep_err,
            "Viterbi tracking ({track_err:.2} m) must not lose to independent matching ({indep_err:.2} m)"
        );
        assert!(track_err < 1.5, "tracking error {track_err:.2} m");
    }

    #[test]
    fn path_is_physically_continuous() {
        let (t, fp) = setup();
        let d = t.deployment();
        let traj = Trajectory::random_walk(d, 10, 40, 9);
        let tracker = Tracker::new(&fp, d, TrackerConfig::default()).unwrap();
        let tracked = tracker.track(&traj.measurements(&t, 0.0, 321)).unwrap();
        assert_eq!(tracked.len(), traj.len());
        for w in tracked.windows(2) {
            let step = d.location(w[0]).distance(d.location(w[1]));
            assert!(
                step <= TrackerConfig::default().max_step_m + 1e-9,
                "decoded path jumps {step} m"
            );
        }
    }

    #[test]
    fn single_epoch_equals_nearest_match() {
        let (t, fp) = setup();
        let d = t.deployment();
        let tracker = Tracker::new(&fp, d, TrackerConfig::default()).unwrap();
        let y = t.online_measurement(25, 0.0, 55);
        let single = Matrix::from_rows(&[&y]);
        let path = tracker.track(&single).unwrap();
        let localizer = Localizer::new(fp, LocalizerConfig::default());
        assert_eq!(path, vec![localizer.localize(&y).unwrap().grid]);
    }

    #[test]
    fn input_validation() {
        let (t, fp) = setup();
        let d = t.deployment();
        let tracker = Tracker::new(&fp, d, TrackerConfig::default()).unwrap();
        assert!(tracker.track(&Matrix::zeros(0, 8)).is_err());
        assert!(tracker.track(&Matrix::zeros(1, 3)).is_err());
        // Mismatched deployment rejected at construction.
        let lib = Testbed::new(Environment::library(), 1);
        assert!(Tracker::new(&fp, lib.deployment(), TrackerConfig::default()).is_err());
    }

    #[test]
    fn tight_max_step_still_decodes() {
        let (t, fp) = setup();
        let d = t.deployment();
        let cfg = TrackerConfig {
            max_step_m: 0.1, // tighter than the grid step: forces the
            // teleport fallback
            ..TrackerConfig::default()
        };
        let tracker = Tracker::new(&fp, d, cfg).unwrap();
        let traj = Trajectory::random_walk(d, 0, 3, 77);
        assert!(
            traj.cells().windows(2).any(|w| w[0] != w[1]),
            "walk must move"
        );
        let path = tracker.track(&traj.measurements(&t, 0.0, 77)).unwrap();
        assert_eq!(path.len(), 4);
    }
}
