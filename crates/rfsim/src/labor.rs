//! The human-labor cost model of Sec. VI-C and Fig. 20.
//!
//! A surveyor walks between locations (Δt_m per hop) and collects RSS
//! samples at each location (Δt_c per sample). The paper's accounting:
//!
//! - traditional resurvey of `N` locations with `s` samples each costs
//!   `(N-1) Δt_m + s N Δt_c`;
//! - iUpdater resurvey of `n` reference locations with `s'` samples each
//!   costs `(n-1) Δt_m + s' n Δt_c`.
//!
//! With the paper's defaults (Δt_m = 5 s, Δt_c = 0.5 s, N = 94, n = 8,
//! s = 50, s' = 5) this yields 46.9 min vs 55 s — a 97.9 % saving, or
//! 92.1 % against a 5-sample traditional survey.

/// Labor cost model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaborModel {
    /// Average walking time between two survey locations, seconds.
    pub move_time_s: f64,
    /// RSS sample collection interval, seconds (a beacon interval).
    pub sample_time_s: f64,
}

impl Default for LaborModel {
    /// The paper's measured values: Δt_m = 5 s, Δt_c = 0.5 s.
    fn default() -> Self {
        LaborModel {
            move_time_s: 5.0,
            sample_time_s: 0.5,
        }
    }
}

impl LaborModel {
    /// Total survey time in seconds for `locations` spots with
    /// `samples_per_location` readings each.
    ///
    /// Returns 0 for zero locations.
    pub fn survey_time_s(&self, locations: usize, samples_per_location: usize) -> f64 {
        if locations == 0 {
            return 0.0;
        }
        (locations - 1) as f64 * self.move_time_s
            + (locations * samples_per_location) as f64 * self.sample_time_s
    }

    /// Survey time in hours (Fig. 20's y-axis).
    pub fn survey_time_hours(&self, locations: usize, samples_per_location: usize) -> f64 {
        self.survey_time_s(locations, samples_per_location) / 3600.0
    }
}

/// Scales a deployment to `k` times the paper's office edge length
/// (Fig. 20's x-axis): locations grow with area (`k²`), links with the
/// edge (`k`), and the per-survey reference count stays at the link count
/// (the fingerprint rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaScaling {
    /// Baseline location count (paper office: 94).
    pub base_locations: usize,
    /// Baseline link count (paper office: 8).
    pub base_links: usize,
}

impl Default for AreaScaling {
    fn default() -> Self {
        AreaScaling {
            base_locations: 94,
            base_links: 8,
        }
    }
}

impl AreaScaling {
    /// Location count at `k` times the edge length.
    pub fn locations_at(&self, k: usize) -> usize {
        self.base_locations * k * k
    }

    /// Link count (= iUpdater reference-location count) at `k` times the
    /// edge length.
    pub fn links_at(&self, k: usize) -> usize {
        self.base_links * k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative saving of survey `a` (locations, samples) versus survey
    /// `b`: `1 - cost(a)/cost(b)`.
    fn saving(m: &LaborModel, a: (usize, usize), b: (usize, usize)) -> f64 {
        1.0 - m.survey_time_s(a.0, a.1) / m.survey_time_s(b.0, b.1)
    }

    #[test]
    fn paper_traditional_cost() {
        // 93 * 5 s + 50 * 0.5 s * 94 = 465 + 2350 = 2815 s = 46.9 min.
        let m = LaborModel::default();
        let t = m.survey_time_s(94, 50);
        assert!((t - 2815.0).abs() < 1e-9);
        assert!((t / 60.0 - 46.9).abs() < 0.05);
    }

    #[test]
    fn paper_iupdater_cost() {
        // 7 * 5 s + 5 * 0.5 s * 8 = 35 + 20 = 55 s.
        let m = LaborModel::default();
        assert!((m.survey_time_s(8, 5) - 55.0).abs() < 1e-9);
    }

    #[test]
    fn paper_savings() {
        let m = LaborModel::default();
        // 97.9 % vs the 50-sample traditional survey.
        let s50 = saving(&m, (8, 5), (94, 50));
        assert!((s50 - 0.979).abs() < 5e-3, "saving {s50}");
        // 92.1 % vs a 5-sample traditional survey.
        let s5 = saving(&m, (8, 5), (94, 5));
        assert!((s5 - 0.921).abs() < 5e-3, "saving {s5}");
    }

    #[test]
    fn zero_locations_cost_nothing() {
        let m = LaborModel::default();
        assert_eq!(m.survey_time_s(0, 50), 0.0);
        assert_eq!(m.survey_time_s(1, 0), 0.0);
    }

    #[test]
    fn scaling_growth_rates() {
        let s = AreaScaling::default();
        assert_eq!(s.locations_at(1), 94);
        assert_eq!(s.locations_at(2), 376);
        assert_eq!(s.links_at(2), 16);
        // iUpdater's advantage grows with area: saving at k=10 exceeds
        // saving at k=2.
        let m = LaborModel::default();
        let saving_at = |k: usize| saving(&m, (s.links_at(k), 5), (s.locations_at(k), 50));
        assert!(saving_at(10) > saving_at(2));
        assert!(saving_at(10) > 0.99);
    }

    #[test]
    fn hours_conversion() {
        let m = LaborModel::default();
        assert!((m.survey_time_hours(94, 50) - 2815.0 / 3600.0).abs() < 1e-12);
    }
}
