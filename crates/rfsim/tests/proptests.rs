//! Property-based tests for the RF simulator's physical invariants.

use iupdater_rfsim::fresnel::{first_zone_radius, knife_edge_loss_db, knife_edge_v};
use iupdater_rfsim::geometry::{Point, Segment};
use iupdater_rfsim::labor::LaborModel;
use iupdater_rfsim::pathloss::LogDistanceModel;
use iupdater_rfsim::target::Target;
use iupdater_rfsim::{Environment, Testbed};
use proptest::prelude::*;

proptest! {
    #[test]
    fn pathloss_monotone_in_distance(d1 in 1.0f64..50.0, d2 in 1.0f64..50.0) {
        let m = LogDistanceModel::default();
        let (near, far) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(m.rss_dbm(0.0, near) >= m.rss_dbm(0.0, far));
    }

    #[test]
    fn fresnel_radius_symmetric_and_bounded(
        lambda in 0.05f64..0.5,
        d1 in 0.1f64..20.0,
        d2 in 0.1f64..20.0,
    ) {
        let r12 = first_zone_radius(lambda, d1, d2);
        let r21 = first_zone_radius(lambda, d2, d1);
        prop_assert!((r12 - r21).abs() < 1e-12, "radius must be symmetric");
        // Bounded by the radius at the midpoint of an equal-length link.
        let total = d1 + d2;
        let mid = first_zone_radius(lambda, total / 2.0, total / 2.0);
        prop_assert!(r12 <= mid + 1e-12);
    }

    #[test]
    fn knife_edge_v_sign_follows_clearance(h in -2.0f64..2.0, d1 in 0.5f64..10.0, d2 in 0.5f64..10.0) {
        let v = knife_edge_v(h, 0.125, d1, d2);
        if h > 0.0 {
            prop_assert!(v > 0.0);
        } else if h < 0.0 {
            prop_assert!(v < 0.0);
        }
    }

    #[test]
    fn knife_edge_loss_bounded(v in -5.0f64..10.0) {
        let loss = knife_edge_loss_db(v);
        prop_assert!(loss.is_finite());
        prop_assert!(loss > -2.0, "oscillation gain bounded");
        prop_assert!(loss < 40.0, "plausible single-edge loss");
    }

    #[test]
    fn target_attenuation_nonnegative_and_bounded(
        x in 0.0f64..10.0,
        y in -3.0f64..3.0,
    ) {
        let link = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let t = Target::person();
        let a = t.attenuation_db(link, Point::new(x, y), 0.125);
        prop_assert!(a >= 0.0);
        prop_assert!(a < 40.0, "attenuation {a} dB implausible");
    }

    #[test]
    fn segment_projection_clamped(ax in -5.0f64..5.0, ay in -5.0f64..5.0, px in -10.0f64..20.0, py in -10.0f64..10.0) {
        let s = Segment::new(Point::new(ax, ay), Point::new(ax + 10.0, ay));
        let (d1, d2) = s.split_distances(Point::new(px, py));
        // The projection parameter is clamped to the segment.
        prop_assert!(d1 >= 0.0 && d2 >= 0.0);
        prop_assert!((d1 + d2 - s.length()).abs() < 1e-9);
    }

    #[test]
    fn labor_cost_monotone(locations in 1usize..500, samples in 1usize..100) {
        let m = LaborModel::default();
        let base = m.survey_time_s(locations, samples);
        prop_assert!(m.survey_time_s(locations + 1, samples) > base);
        prop_assert!(m.survey_time_s(locations, samples + 1) > base);
        prop_assert!(base > 0.0);
    }

    #[test]
    fn expected_rss_continuous_in_day(seed in 0u64..300, day in 0.5f64..89.0) {
        // No jumps on the sub-day scale: drift interpolates, multipath is
        // smooth in time.
        let t = Testbed::new(Environment::office(), seed);
        let a = t.expected_fingerprint_matrix(day)[(3, 40)];
        let b = t.expected_fingerprint_matrix(day + 0.01)[(3, 40)];
        prop_assert!((a - b).abs() < 0.6, "sub-day RSS jump {} dB", (a - b).abs());
    }

    #[test]
    fn own_row_attenuation_dominates(seed in 0u64..300) {
        // A target on link i's own row attenuates link i more than any
        // other link (the fingerprint's block structure).
        let t = Testbed::new(Environment::office(), seed);
        let d = t.deployment();
        let j = d.location_index(4, 6);
        let empty: Vec<f64> = (0..8).map(|i| t.expected_rss_empty(i, 0.0)).collect();
        let truth = t.expected_fingerprint_matrix(0.0);
        let dips: Vec<f64> = (0..8).map(|i| empty[i] - truth[(i, j)]).collect();
        let own = dips[4];
        for (i, &dip) in dips.iter().enumerate() {
            if i != 4 {
                prop_assert!(own > dip, "own-row dip {own} vs link {i} dip {dip}");
            }
        }
    }

}
