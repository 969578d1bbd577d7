//! Long-term RSS drift: slow environmental change over days to months
//! (paper Fig. 2: ~2.5 dB shift after 5 days, ~6 dB after 45 days).
//!
//! Drift is decomposed into a **global** (environment-wide) component and
//! a small **per-link** component. This decomposition is the physical
//! reason the paper's Observations 2 and 3 hold: RSS *differences*
//! between neighbouring locations on the same link cancel the entire
//! drift, and differences between adjacent links cancel the global part.

use iupdater_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::noise::gaussian;

/// Long-term drift model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftModel {
    /// Standard deviation of the *global* daily random-walk increment (dB).
    pub global_daily_sigma: f64,
    /// Standard deviation of the *per-link* daily random-walk increment (dB).
    pub link_daily_sigma: f64,
    /// Amplitude of a slow global seasonal oscillation (dB).
    pub seasonal_amp_db: f64,
    /// Period of the seasonal oscillation in days.
    pub seasonal_period_days: f64,
}

impl Default for DriftModel {
    /// Calibrated so the mean absolute shift is ~2.5 dB after 5 days and
    /// ~6 dB after 45 days (paper Fig. 2).
    fn default() -> Self {
        DriftModel {
            global_daily_sigma: 0.95,
            link_daily_sigma: 0.05,
            seasonal_amp_db: 1.5,
            seasonal_period_days: 60.0,
        }
    }
}

/// A realised drift trajectory for `num_links` links, sampled daily.
///
/// The trajectory is generated once (deterministically from a seed) and
/// then queried at arbitrary day offsets; queries interpolate linearly
/// between daily knots.
#[derive(Debug, Clone)]
pub struct DriftProcess {
    model: DriftModel,
    /// `global[d]` = global drift at day `d`.
    global: Vec<f64>,
    /// Row `l`, column `d` = per-link drift of link `l` at day `d`.
    per_link: Matrix,
}

impl DriftProcess {
    /// Generates a trajectory covering `0..=horizon_days` for
    /// `num_links` links.
    ///
    /// # Panics
    ///
    /// Panics if `num_links == 0` or `horizon_days == 0`.
    pub fn generate(model: DriftModel, num_links: usize, horizon_days: usize, seed: u64) -> Self {
        assert!(num_links > 0, "need at least one link");
        assert!(horizon_days > 0, "need a positive horizon");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut global = Vec::with_capacity(horizon_days + 1);
        let mut acc = 0.0;
        global.push(0.0);
        for _ in 0..horizon_days {
            acc += gaussian(&mut rng) * model.global_daily_sigma;
            global.push(acc);
        }
        let mut per_link = Matrix::zeros(num_links, horizon_days + 1);
        for l in 0..num_links {
            let mut acc = 0.0;
            let row = per_link.row_mut(l);
            for knot in row.iter_mut().skip(1) {
                acc += gaussian(&mut rng) * model.link_daily_sigma;
                *knot = acc;
            }
        }
        DriftProcess {
            model,
            global,
            per_link,
        }
    }

    /// Number of links the trajectory covers.
    pub fn num_links(&self) -> usize {
        self.per_link.rows()
    }

    /// Total drift (dB) applied to link `link` at continuous day offset
    /// `day` (clamped to the generated horizon).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn drift_db(&self, link: usize, day: f64) -> f64 {
        assert!(link < self.per_link.rows(), "link {link} out of range");
        let seasonal = self.model.seasonal_amp_db
            * (2.0 * std::f64::consts::PI * day / self.model.seasonal_period_days).sin();
        self.interp(&self.global, day) + self.interp(self.per_link.row(link), day) + seasonal
    }

    fn interp(&self, knots: &[f64], day: f64) -> f64 {
        let max_day = (knots.len() - 1) as f64;
        let d = day.clamp(0.0, max_day);
        let lo = d.floor() as usize;
        let hi = d.ceil() as usize;
        if lo == hi {
            knots[lo]
        } else {
            let frac = d - lo as f64;
            knots[lo] * (1.0 - frac) + knots[hi] * frac
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_zero_at_day_zero() {
        let p = DriftProcess::generate(DriftModel::default(), 8, 90, 1);
        for l in 0..8 {
            assert_eq!(p.drift_db(l, 0.0), 0.0);
        }
    }

    #[test]
    fn drift_magnitudes_match_paper_scale() {
        // Average |drift| over many seeds: ~2-3 dB at 5 days, ~4-8 dB at
        // 45 days (Fig. 2 reports 2.5 and 6 dB for one deployment).
        let mut d5 = 0.0;
        let mut d45 = 0.0;
        let trials = 200;
        for seed in 0..trials {
            let p = DriftProcess::generate(DriftModel::default(), 1, 90, seed);
            d5 += p.drift_db(0, 5.0).abs();
            d45 += p.drift_db(0, 45.0).abs();
        }
        d5 /= trials as f64;
        d45 /= trials as f64;
        assert!((1.5..4.0).contains(&d5), "mean |drift@5d| = {d5}");
        assert!((4.0..9.0).contains(&d45), "mean |drift@45d| = {d45}");
        assert!(d45 > d5, "drift must grow with time");
    }

    #[test]
    fn per_link_component_small_relative_to_global() {
        // Adjacent-link similarity (Obs. 3) requires the per-link part to
        // be a minor fraction of the total drift.
        let trials = 100;
        let mut global_mag = 0.0;
        let mut link_spread = 0.0;
        for seed in 0..trials {
            let p = DriftProcess::generate(DriftModel::default(), 2, 45, seed);
            let (a, b) = (p.drift_db(0, 45.0), p.drift_db(1, 45.0));
            // The two links share the global component, so their mean
            // carries it and their difference only the per-link parts.
            global_mag += ((a + b) / 2.0).abs();
            link_spread += (a - b).abs();
        }
        assert!(
            link_spread < global_mag,
            "per-link spread {link_spread} should stay below global magnitude {global_mag}"
        );
    }

    #[test]
    fn interpolation_between_days() {
        let p = DriftProcess::generate(DriftModel::default(), 1, 10, 3);
        let a = p.drift_db(0, 2.0);
        let b = p.drift_db(0, 3.0);
        let mid = p.drift_db(0, 2.5);
        // Seasonal term is smooth, random walk is linear between knots:
        // mid must sit between a and b up to the seasonal curvature.
        let lo = a.min(b) - 0.2;
        let hi = a.max(b) + 0.2;
        assert!((lo..=hi).contains(&mid), "mid {mid} outside [{lo}, {hi}]");
    }

    #[test]
    fn clamps_beyond_horizon() {
        let p = DriftProcess::generate(DriftModel::default(), 1, 10, 4);
        // Seasonal component continues but random walk clamps; just check
        // no panic and finite values.
        assert!(p.drift_db(0, 500.0).is_finite());
        assert!(p.drift_db(0, -5.0).is_finite());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = DriftProcess::generate(DriftModel::default(), 3, 30, 9);
        let b = DriftProcess::generate(DriftModel::default(), 3, 30, 9);
        assert_eq!(a.drift_db(2, 17.3), b.drift_db(2, 17.3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn link_out_of_range_panics() {
        let p = DriftProcess::generate(DriftModel::default(), 2, 10, 1);
        let _ = p.drift_db(2, 1.0);
    }
}
