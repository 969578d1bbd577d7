//! First-Fresnel-zone geometry and knife-edge diffraction loss.
//!
//! The paper's fingerprint structure (Fig. 3/4) is entirely a Fresnel-zone
//! story: a target blocking the direct path causes a large RSS decrease,
//! a target inside the first Fresnel zone (FFZ) but off the path a small
//! decrease, and a target outside the FFZ essentially none. We model the
//! target as a knife-edge obstruction and use the standard approximation
//! of the diffraction integral for the loss.

/// Radius of the first Fresnel zone at a point splitting the link into
/// distances `d1`, `d2` (metres), for wavelength `lambda` (metres):
/// `r1 = sqrt(lambda d1 d2 / (d1 + d2))`.
///
/// Returns 0.0 when either distance is non-positive (at the endpoints the
/// zone closes).
pub fn first_zone_radius(lambda: f64, d1: f64, d2: f64) -> f64 {
    if d1 <= 0.0 || d2 <= 0.0 {
        return 0.0;
    }
    (lambda * d1 * d2 / (d1 + d2)).sqrt()
}

/// Fresnel-Kirchhoff diffraction parameter
/// `v = h sqrt(2 (d1 + d2) / (lambda d1 d2))`, where `h` is the
/// *clearance* of the obstruction edge relative to the line of sight
/// (negative `h` = the edge is below the LoS = partial clearance;
/// positive `h` = the edge protrudes above the LoS = obstruction).
///
/// Returns `-inf`-safe 0.0-clearance behaviour: when either distance is
/// non-positive, returns a very large negative value (no obstruction
/// possible at the endpoints).
pub fn knife_edge_v(h: f64, lambda: f64, d1: f64, d2: f64) -> f64 {
    if d1 <= 0.0 || d2 <= 0.0 {
        return -20.0;
    }
    h * (2.0 * (d1 + d2) / (lambda * d1 * d2)).sqrt()
}

/// Knife-edge diffraction loss in dB for parameter `v`, using the
/// standard piecewise approximation of the Fresnel integral
/// (ITU-R P.526 / Lee). Loss is 0 dB for `v <= -1` (full clearance) and
/// grows with `v`; in the partial-clearance band `-1 < v < -0.8` the
/// approximation can return slightly *negative* values (up to ~-1 dB),
/// reflecting the real Fresnel oscillation gain.
pub fn knife_edge_loss_db(v: f64) -> f64 {
    if v <= -1.0 {
        0.0
    } else if v <= 0.0 {
        -20.0 * (0.5 - 0.62 * v).log10()
    } else if v <= 1.0 {
        -20.0 * (0.5 * (-0.95 * v).exp()).log10()
    } else if v <= 2.4 {
        -20.0 * (0.4 - (0.1184 - (0.38 - 0.1 * v).powi(2)).sqrt()).log10()
    } else {
        -20.0 * (0.225 / v).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathloss::{wavelength, WIFI_24_GHZ};

    fn lambda() -> f64 {
        wavelength(WIFI_24_GHZ)
    }

    #[test]
    fn zone_radius_maximal_at_midpoint() {
        let l = lambda();
        let mid = first_zone_radius(l, 5.0, 5.0);
        let quarter = first_zone_radius(l, 2.5, 7.5);
        let near_end = first_zone_radius(l, 0.5, 9.5);
        assert!(mid > quarter && quarter > near_end);
    }

    #[test]
    fn zone_radius_known_value() {
        // r1 = sqrt(lambda * d1 d2 / d) with lambda ~ 0.1243, d1=d2=5:
        // sqrt(0.1243 * 25 / 10) = sqrt(0.3108) ~ 0.557 m.
        let r = first_zone_radius(lambda(), 5.0, 5.0);
        assert!((r - 0.557).abs() < 5e-3, "r = {r}");
    }

    #[test]
    fn zone_radius_zero_at_endpoints() {
        assert_eq!(first_zone_radius(lambda(), 0.0, 10.0), 0.0);
        assert_eq!(first_zone_radius(lambda(), 10.0, 0.0), 0.0);
    }

    #[test]
    fn knife_edge_loss_monotone_in_v() {
        let mut prev = knife_edge_loss_db(-1.5);
        for i in 0..100 {
            let v = -1.5 + i as f64 * 0.05;
            let loss = knife_edge_loss_db(v);
            // Allow the ~1 dB Fresnel-oscillation dip near v = -1.
            assert!(
                loss >= prev - 1.0,
                "loss should be (approximately) monotone: v={v}, {loss} < {prev}"
            );
            prev = loss;
        }
    }

    #[test]
    fn knife_edge_loss_reference_points() {
        // v = 0 (grazing): 6 dB.
        assert!((knife_edge_loss_db(0.0) - 6.0).abs() < 0.1);
        // Full clearance: 0 dB.
        assert_eq!(knife_edge_loss_db(-2.0), 0.0);
        // Deep shadow v = 2.4: ~21 dB.
        let deep = knife_edge_loss_db(2.4);
        assert!(deep > 18.0 && deep < 22.0, "deep = {deep}");
    }

    #[test]
    fn loss_larger_near_transceivers_for_fixed_clearance() {
        // The paper (Sec. IV-C1) notes the RSS decrease is larger near the
        // transceivers and smaller at the link midpoint. For a fixed
        // physical protrusion h, v grows as d1*d2 shrinks, so the
        // knife-edge model reproduces exactly this.
        let l = lambda();
        let h = 0.25;
        let near_tx = knife_edge_loss_db(knife_edge_v(h, l, 1.0, 9.0));
        let mid = knife_edge_loss_db(knife_edge_v(h, l, 5.0, 5.0));
        assert!(
            near_tx > mid,
            "near-transceiver loss {near_tx} should exceed midpoint loss {mid}"
        );
    }

    #[test]
    fn v_sign_convention() {
        let l = lambda();
        assert!(knife_edge_v(0.5, l, 5.0, 5.0) > 0.0);
        assert!(knife_edge_v(-0.5, l, 5.0, 5.0) < 0.0);
        // Endpoint guard.
        assert_eq!(knife_edge_v(0.5, l, 0.0, 5.0), -20.0);
    }
}
