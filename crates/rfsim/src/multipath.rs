//! Static multipath field: a per-environment set of scatterers that
//! shapes the RSS two ways.
//!
//! 1. **Ambient field**: each scatterer adds a link-dependent
//!    perturbation to the empty-room RSS, with a slow temporal component
//!    (furniture shifts, doors, humidity on reflectors).
//! 2. **Target coupling**: a person standing at a grid location perturbs
//!    the reflection paths of every scatterer near them, leaving a
//!    *multi-link, position-dependent signature* of a dB or two. This is what makes real RSS
//!    fingerprints unique per location (and is why fingerprinting works
//!    at all): the direct-path obstruction alone is symmetric along a
//!    link and single-link, but the multipath signature breaks both
//!    degeneracies.
//!
//! Scatterer density and strength differ per environment, producing the
//! hall < office < library error ordering of the paper's Fig. 19.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::geometry::{Point, Segment};
use crate::noise::gaussian;

/// Multipath field parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultipathModel {
    /// Number of scatterers in the field.
    pub num_scatterers: usize,
    /// RMS amplitude (dB) of a single scatterer's ambient contribution.
    pub amp_db: f64,
    /// Spatial decay length (metres) of a scatterer's influence on a
    /// link.
    pub link_decay_m: f64,
    /// Gain of the target-coupling term relative to the ambient
    /// amplitude.
    pub target_gain: f64,
    /// Spatial decay length (metres) of the target-scatterer coupling.
    pub target_decay_m: f64,
    /// Spatial ripple frequency (rad/m) of the target signature — how
    /// fast the signature changes as the target moves.
    pub ripple_rad_per_m: f64,
    /// Fraction of each scatterer's contribution that drifts over time.
    pub temporal_fraction: f64,
    /// Time scale (days) of the temporal component.
    pub temporal_period_days: f64,
}

impl MultipathModel {
    /// Low-multipath (empty hall) preset.
    pub fn low() -> Self {
        MultipathModel {
            num_scatterers: 8,
            amp_db: 0.7,
            link_decay_m: 3.2,
            target_gain: 2.6,
            target_decay_m: 3.2,
            ripple_rad_per_m: 2.0,
            temporal_fraction: 0.15,
            temporal_period_days: 37.0,
        }
    }

    /// Medium-multipath (office with desks and cubicles) preset.
    pub fn medium() -> Self {
        MultipathModel {
            num_scatterers: 18,
            amp_db: 1.1,
            link_decay_m: 3.0,
            target_gain: 2.8,
            target_decay_m: 3.4,
            ripple_rad_per_m: 2.0,
            temporal_fraction: 0.25,
            temporal_period_days: 29.0,
        }
    }

    /// High-multipath (library with metal shelves) preset.
    pub fn high() -> Self {
        MultipathModel {
            num_scatterers: 34,
            amp_db: 1.7,
            link_decay_m: 2.8,
            target_gain: 3.0,
            target_decay_m: 3.6,
            ripple_rad_per_m: 3.0,
            temporal_fraction: 0.32,
            temporal_period_days: 23.0,
        }
    }
}

#[derive(Debug, Clone)]
struct Scatterer {
    pos: Point,
    amp_db: f64,
    phase: f64,
    target_phase: f64,
}

/// A realised multipath field over a `width x height` area.
#[derive(Debug, Clone)]
pub struct MultipathField {
    model: MultipathModel,
    scatterers: Vec<Scatterer>,
    /// Phase of the environment-wide temporal modulation. Temperature
    /// and humidity drive all reflectors together, so the temporal
    /// factor is shared by the whole field — which is why adjacent-link
    /// differences stay stable over months (Obs. 3).
    temporal_phase: f64,
}

/// The part of a [`MultipathField`] that depends only on one link and
/// one day (see [`MultipathField::link_field`]).
pub(crate) struct LinkMultipath {
    /// Ambient (empty-room) perturbation of the link, dB.
    pub(crate) ambient_db: f64,
    /// Each scatterer's link weight `exp(-d_link / link_decay_m)`.
    weights: Vec<f64>,
    /// The environment-wide temporal factor of the day.
    temporal: f64,
}

impl MultipathField {
    /// Generates a field for the given area dimensions (metres).
    pub fn generate(model: MultipathModel, width: f64, height: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let scatterers = (0..model.num_scatterers)
            .map(|_| Scatterer {
                pos: Point::new(rng.gen::<f64>() * width, rng.gen::<f64>() * height),
                amp_db: gaussian(&mut rng) * model.amp_db,
                phase: rng.gen::<f64>() * 2.0 * std::f64::consts::PI,
                target_phase: rng.gen::<f64>() * 2.0 * std::f64::consts::PI,
            })
            .collect();
        let temporal_phase = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
        MultipathField {
            model,
            scatterers,
            temporal_phase,
        }
    }

    /// The link- and day-only part of the field for `link` at day
    /// offset `day`: every scatterer's link weight, the day's temporal
    /// factor and the ambient perturbation. A survey builds it once per
    /// link, so each cell then costs one `exp`/`sin` pair per scatterer.
    pub(crate) fn link_field(&self, link: Segment, day: f64) -> LinkMultipath {
        let m = &self.model;
        // Temperature and humidity drive all reflectors together, so the
        // temporal factor is one value per day.
        let temporal =
            (self.temporal_phase + 2.0 * std::f64::consts::PI * day / m.temporal_period_days).sin();
        let mut weights = Vec::with_capacity(self.scatterers.len());
        let mut ambient_db = 0.0;
        for s in &self.scatterers {
            let d_link = link.distance_to(s.pos);
            let weight = (-d_link / m.link_decay_m).exp();
            weights.push(weight);
            if weight < 1e-6 {
                continue;
            }
            let spatial = (s.phase + 3.1 * d_link).sin();
            let mix =
                (1.0 - m.temporal_fraction) * spatial + m.temporal_fraction * spatial * temporal;
            ambient_db += s.amp_db * weight * mix;
        }
        LinkMultipath {
            ambient_db,
            weights,
            temporal,
        }
    }

    /// Additional perturbation (dB) a target standing at `target`
    /// imposes, through the scatterer field, on the link `field` was
    /// built for. Stable over time except for the temporal fraction;
    /// rapidly varying in the target position (the fingerprint
    /// signature).
    pub(crate) fn target_db(&self, field: &LinkMultipath, target: Point) -> f64 {
        let m = &self.model;
        let mut total = 0.0;
        for (s, &w_link) in self.scatterers.iter().zip(&field.weights) {
            let d_target = s.pos.distance(target);
            let weight = w_link * (-d_target / m.target_decay_m).exp();
            if weight < 1e-6 {
                continue;
            }
            let signature = (s.target_phase + m.ripple_rad_per_m * d_target).sin();
            let mix = (1.0 - m.temporal_fraction) * signature
                + m.temporal_fraction * signature * field.temporal;
            total += s.amp_db * m.target_gain * weight * mix;
        }
        total
    }

    /// The model parameters.
    pub fn model(&self) -> &MultipathModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ambient_db(f: &MultipathField, link: Segment, day: f64) -> f64 {
        f.link_field(link, day).ambient_db
    }

    fn target_db(f: &MultipathField, link: Segment, target: Point, day: f64) -> f64 {
        f.target_db(&f.link_field(link, day), target)
    }

    fn with_target_db(f: &MultipathField, link: Segment, target: Point, day: f64) -> f64 {
        ambient_db(f, link, day) + target_db(f, link, target, day)
    }

    fn link() -> Segment {
        Segment::new(Point::new(0.0, 3.0), Point::new(10.0, 3.0))
    }

    fn far_link() -> Segment {
        Segment::new(Point::new(0.0, 9.0), Point::new(10.0, 9.0))
    }

    #[test]
    fn richer_environments_perturb_more() {
        let probe = Point::new(5.0, 3.0);
        let rms = |model: MultipathModel| {
            let mut acc = 0.0;
            let trials = 60;
            for seed in 0..trials {
                let f = MultipathField::generate(model, 10.0, 12.0, seed);
                let v = with_target_db(&f, link(), probe, 0.0);
                acc += v * v;
            }
            (acc / trials as f64).sqrt()
        };
        let low = rms(MultipathModel::low());
        let med = rms(MultipathModel::medium());
        let high = rms(MultipathModel::high());
        assert!(low < med && med < high, "low {low}, med {med}, high {high}");
    }

    #[test]
    fn target_signature_is_multi_link() {
        // A target near one link must still leave a visible signature on
        // a distant link — the property that makes columns unique.
        let f = MultipathField::generate(MultipathModel::medium(), 10.0, 12.0, 3);
        let probe = Point::new(5.0, 3.0);
        let sig_far = target_db(&f, far_link(), probe, 0.0);
        assert!(
            sig_far.abs() > 1e-4,
            "target signature should reach distant links, got {sig_far}"
        );
    }

    #[test]
    fn signature_discriminates_mirror_positions() {
        // Positions mirrored about the link midpoint have identical
        // direct-path obstruction; the multipath signature must differ.
        let mut distinct = 0;
        let trials = 40;
        for seed in 0..trials {
            let f = MultipathField::generate(MultipathModel::medium(), 10.0, 12.0, seed);
            let a: f64 = (0..4)
                .map(|k| {
                    let l = Segment::new(
                        Point::new(0.0, 1.5 * k as f64),
                        Point::new(10.0, 1.5 * k as f64),
                    );
                    (target_db(&f, l, Point::new(2.0, 3.0), 0.0)
                        - target_db(&f, l, Point::new(8.0, 3.0), 0.0))
                    .abs()
                })
                .sum();
            if a > 0.8 {
                distinct += 1;
            }
        }
        assert!(
            distinct > trials * 3 / 4,
            "mirror positions distinguished in only {distinct}/{trials} fields"
        );
    }

    #[test]
    fn signature_varies_between_neighboring_cells() {
        let f = MultipathField::generate(MultipathModel::medium(), 10.0, 12.0, 5);
        let a = target_db(&f, link(), Point::new(4.25, 3.0), 0.0);
        let b = target_db(&f, link(), Point::new(5.0, 3.0), 0.0);
        assert!((a - b).abs() > 1e-3, "neighbouring cells should differ");
    }

    #[test]
    fn ambient_varies_slowly_with_time() {
        let f = MultipathField::generate(MultipathModel::medium(), 10.0, 12.0, 4);
        let day0 = ambient_db(&f, link(), 0.0);
        let hour_later = ambient_db(&f, link(), 1.0 / 24.0);
        assert!(
            (day0 - hour_later).abs() < 0.2,
            "hours-scale change too fast"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = MultipathField::generate(MultipathModel::medium(), 10.0, 12.0, 9);
        let b = MultipathField::generate(MultipathModel::medium(), 10.0, 12.0, 9);
        let p = Point::new(4.0, 2.0);
        assert_eq!(
            with_target_db(&a, link(), p, 3.0),
            with_target_db(&b, link(), p, 3.0)
        );
    }

    #[test]
    fn bounded_magnitude() {
        let f = MultipathField::generate(MultipathModel::high(), 10.0, 12.0, 11);
        for i in 0..50 {
            let p = Point::new(i as f64 * 0.2, (i % 12) as f64);
            let v = with_target_db(&f, link(), p, i as f64);
            assert!(v.abs() < 15.0, "implausible multipath magnitude {v}");
        }
    }
}
