//! Multi-target localization: a natural extension of the paper's OMP
//! formulation (the location vector `W` of Eq. 26 is `{0,1}`-valued and
//! can carry `k > 1` ones), motivated by the paper's own related work on
//! multi-target device-free systems (E-HIPA, FitLoc).
//!
//! Because multiple bodies superpose their attenuations, the dictionary
//! model stays linear to first order: `y ≈ Σ_k x_{j_k}` in *centred*
//! coordinates. The greedy binary pursuit of [`crate::localize`] handles
//! this directly; this module adds the multi-estimate API, assignment
//! metrics and tests.

use crate::config::{AtomSelection, LocalizerConfig};
use crate::localize::{Localizer, NO_ATOM_SELECTED};
use crate::query::QueryScratch;
use crate::{CoreError, Result};
use iupdater_rfsim::Deployment;

/// A multi-target estimate: one grid cell per detected target, in
/// greedy match order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiTargetEstimate {
    /// Estimated grid cells.
    pub grids: Vec<usize>,
}

impl Localizer {
    /// Estimates up to `max_targets` target locations from one online
    /// measurement. Uses the binary-residual greedy pursuit regardless
    /// of the configured selection rule (the `{0,1}` model is what makes
    /// superposed targets separable). It runs on this localizer's
    /// prepared dictionary, which depends only on the database and on
    /// centring, so it answers exactly as a binary localizer built with
    /// `max_atoms = max_targets` would. It reads on the same per-thread
    /// scratch as [`Localizer::localize`], so it allocates only its
    /// output.
    ///
    /// # Errors
    ///
    /// The [`Localizer::localize`] errors: a malformed query, or no
    /// atom selected (`max_targets == 0`, degenerate dictionary).
    pub fn localize_multi(&self, y: &[f64], max_targets: usize) -> Result<MultiTargetEstimate> {
        self.check_query(y)?;
        let cfg = LocalizerConfig {
            residual_threshold: self.config().residual_threshold,
            max_atoms: max_targets,
            selection: AtomSelection::BinaryResidual,
        };
        let sol =
            QueryScratch::with_thread_scratch(|scratch| self.prepared().pursue(y, &cfg, scratch))?;
        if sol.support.is_empty() {
            return Err(CoreError::InvalidArgument(NO_ATOM_SELECTED));
        }
        Ok(MultiTargetEstimate { grids: sol.support })
    }
}

/// Greedy minimum-distance assignment between true and estimated cells;
/// returns per-target errors in metres (unmatched truths get the
/// distance to the farthest corner as a penalty).
pub fn assignment_errors(
    deployment: &Deployment,
    truth: &[usize],
    estimated: &[usize],
) -> Vec<f64> {
    let mut remaining: Vec<usize> = estimated.to_vec();
    let mut errors = Vec::with_capacity(truth.len());
    for &t in truth {
        if remaining.is_empty() {
            // Penalty: half the room diagonal (a miss).
            errors.push(6.0);
            continue;
        }
        let (idx, err) = remaining
            .iter()
            .enumerate()
            .map(|(k, &e)| (k, deployment.location(t).distance(deployment.location(e))))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            // invariants: allow(panic-freedom) — `remaining` is
            // non-empty here: the is_empty() branch above `continue`s.
            .expect("non-empty");
        errors.push(err);
        remaining.swap_remove(idx);
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FingerprintMatrix;
    use iupdater_linalg::stats::mean;
    use iupdater_rfsim::{Environment, Testbed};

    fn setup() -> (Testbed, Localizer) {
        let t = Testbed::new(Environment::office(), 61);
        let fp = FingerprintMatrix::survey(&t, 0.0, 20);
        (t, Localizer::new(fp, LocalizerConfig::default()))
    }

    #[test]
    fn two_well_separated_targets_recovered() {
        let t = Testbed::new(Environment::office(), 9);
        let fp = FingerprintMatrix::survey(&t, 0.0, 20);
        let loc = Localizer::new(fp, LocalizerConfig::default());
        let d = t.deployment();
        // Targets on different links, far apart.
        let truth = [d.location_index(1, 3), d.location_index(6, 9)];
        let mut errs = Vec::new();
        for salt in 0..6 {
            let y = t.online_measurement_multi(&truth, 0.0, 4000 + salt);
            let est = loc.localize_multi(&y, 2).unwrap();
            assert!(est.grids.len() <= 2);
            errs.extend(assignment_errors(d, &truth, &est.grids));
        }
        let m = mean(&errs);
        // Superposed targets violate the single-target dictionary model
        // slightly; room-scale (9 x 12 m) accuracy of ~3 m for two
        // simultaneous device-free targets is the expected regime.
        assert!(m < 3.0, "two-target mean assignment error {m} m");
    }

    #[test]
    fn single_target_multi_api_matches_single_api() {
        let (t, loc) = setup();
        let y = t.online_measurement(30, 0.0, 77);
        let single = loc.localize(&y).unwrap().grid;
        let multi = loc.localize_multi(&y, 1).unwrap();
        assert_eq!(multi.grids, vec![single]);
    }

    #[test]
    fn greedy_stops_when_residual_exhausted() {
        let (t, loc) = setup();
        // One target but allow up to 4: the pursuit should not hallucinate
        // many extra targets (the residual check stops it).
        let y = t.online_measurement(20, 0.0, 99);
        let est = loc.localize_multi(&y, 4).unwrap();
        assert!(!est.grids.is_empty());
        assert!(est.grids.len() <= 4);
        assert_eq!(
            est.grids[0] / 12,
            20 / 12,
            "first atom should find the right link row"
        );
    }

    #[test]
    fn multi_matches_a_fresh_binary_oracle() {
        // Under either configured selection rule, every target count
        // answers exactly as a freshly built binary localizer's oracle,
        // and zero targets is still the "selected no atom" error.
        let t = Testbed::new(Environment::office(), 61);
        let fp = FingerprintMatrix::survey(&t, 0.0, 20);
        let y = t.online_measurement_multi(&[14, 70], 0.0, 5);
        for base in [
            LocalizerConfig::default(),
            LocalizerConfig {
                selection: AtomSelection::Correlation,
                max_atoms: 3,
                ..LocalizerConfig::default()
            },
        ] {
            let loc = Localizer::new(fp.clone(), base.clone());
            for k in 0..=4 {
                let fresh = Localizer::new(
                    fp.clone(),
                    LocalizerConfig {
                        selection: AtomSelection::BinaryResidual,
                        max_atoms: k,
                        ..base.clone()
                    },
                );
                match (loc.localize_multi(&y, k), fresh.localize_unprepared(&y)) {
                    (Ok(multi), Ok(oracle)) => assert_eq!(multi.grids, oracle.support, "k = {k}"),
                    (Err(CoreError::InvalidArgument(a)), Err(CoreError::InvalidArgument(b))) => {
                        assert_eq!(k, 0);
                        assert_eq!(a, b);
                        assert!(a.contains("selected no atom"), "{a}");
                    }
                    (multi, oracle) => panic!("k = {k}: {multi:?} vs {oracle:?}"),
                }
            }
        }
    }

    #[test]
    fn assignment_metric_basics() {
        let t = Testbed::new(Environment::office(), 2);
        let d = t.deployment();
        // Perfect match.
        let e = assignment_errors(d, &[5, 50], &[50, 5]);
        assert_eq!(e, vec![0.0, 0.0]);
        // Miss penalised.
        let e = assignment_errors(d, &[5, 50], &[5]);
        assert_eq!(e[0], 0.0);
        assert!(e[1] > 0.0);
    }
}
