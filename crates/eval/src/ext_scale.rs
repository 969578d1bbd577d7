//! Extension experiment (not in the paper): end-to-end behaviour as the
//! deployment area scales — the computational companion to Fig. 20's
//! labor argument. Fig. 20 shows the *human* cost scales gently; this
//! experiment confirms the *algorithmic* cost and the reconstruction
//! accuracy also behave at multiples of the office size.

use std::time::Instant;

use crate::report::{FigureResult, Series};
use iupdater_core::metrics::mean_reconstruction_error;
use iupdater_core::prelude::*;
use iupdater_rfsim::{Environment, EnvironmentKind, Testbed};

/// Builds an office-like environment at `k` times the edge length
/// (`k²` times the area, `k` times the links).
pub fn scaled_office(k: usize) -> Environment {
    let base = Environment::office();
    Environment {
        kind: EnvironmentKind::Custom,
        width_m: base.width_m * k as f64,
        height_m: base.height_m * k as f64,
        num_links: base.num_links * k,
        locations_per_link: base.locations_per_link * k,
        ..base
    }
}

/// One scale point: reconstruction error (dB) and wall time (ms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// Edge multiple.
    pub k: usize,
    /// Grid locations `N`.
    pub locations: usize,
    /// Mean reconstruction error at 45 days, dB.
    pub error_db: f64,
    /// Updater construction + one update, milliseconds.
    pub update_ms: f64,
}

/// Measures one scale point.
fn measure(k: usize) -> ScalePoint {
    let env = scaled_office(k);
    let locations = env.num_locations();
    let testbed = Testbed::new(env, 31_000 + k as u64);
    let day0 = FingerprintMatrix::survey(&testbed, 0.0, 10);
    let start = Instant::now();
    let updater = Updater::new(day0, UpdaterConfig::default()).expect("updater");
    let rec = updater
        .update_from_testbed(&testbed, 45.0, 5)
        .expect("update");
    let update_ms = start.elapsed().as_secs_f64() * 1e3;
    let truth = testbed.expected_fingerprint_matrix(45.0);
    let error_db = mean_reconstruction_error(rec.matrix(), &truth).expect("shapes");
    ScalePoint {
        k,
        locations,
        error_db,
        update_ms,
    }
}

/// Runs the scale sweep (k = 1, 2, 3).
pub fn run() -> FigureResult {
    let mut fig = FigureResult::new(
        "ext-scale",
        "Scaling extension: accuracy and compute vs area size",
        "times the office edge length",
        "error [dB] / time [ms]",
    );
    let points: Vec<ScalePoint> = [1usize, 2, 3].iter().map(|&k| measure(k)).collect();
    fig.series.push(Series::from_points(
        "reconstruction error [dB]",
        points.iter().map(|p| (p.k as f64, p.error_db)).collect(),
    ));
    fig.series.push(Series::from_points(
        "update wall time [ms]",
        points.iter().map(|p| (p.k as f64, p.update_ms)).collect(),
    ));
    for p in &points {
        fig.notes.push(format!(
            "k = {}: N = {} locations, error {:.2} dB, update {:.0} ms",
            p.k, p.locations, p.error_db, p.update_ms
        ));
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_stays_bounded_as_area_grows() {
        let p1 = measure(1);
        let p2 = measure(2);
        assert_eq!(p2.locations, p1.locations * 4);
        // The method's accuracy must not fall apart with scale.
        assert!(
            p2.error_db < p1.error_db * 3.0 + 1.0,
            "error at 2x edge ({:.2} dB) blew up vs 1x ({:.2} dB)",
            p2.error_db,
            p1.error_db
        );
        assert!(p2.error_db < 5.0, "absolute error {:.2} dB", p2.error_db);
    }

    #[test]
    fn reference_count_scales_with_links_not_area() {
        let env = scaled_office(2);
        let links = env.num_links;
        let testbed = Testbed::new(env, 9);
        let day0 = FingerprintMatrix::survey(&testbed, 0.0, 5);
        let updater = Updater::new(day0, UpdaterConfig::default()).unwrap();
        // The labor scales with rank = M = 16 at 2x, not with N = 384.
        assert!(updater.reference_locations().len() <= links);
    }

    #[test]
    fn scaled_environment_consistent() {
        let env = scaled_office(3);
        assert_eq!(env.num_links, 24);
        assert_eq!(env.num_locations(), 24 * 36);
        assert!((env.grid_step_m() - Environment::office().grid_step_m()).abs() < 1e-12);
    }
}
