//! The [`Testbed`]: the top-level simulator that synthesises fingerprint
//! matrices (the paper's manual site surveys) and online RSS measurement
//! vectors (the localization inputs).

use iupdater_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::deployment::Deployment;
use crate::drift::DriftProcess;
use crate::environment::Environment;
use crate::geometry::Segment;
use crate::multipath::{LinkMultipath, MultipathField};
use crate::noise::{quantize, NoiseModel, NoiseProcess};
use crate::pathloss::wavelength;
use crate::target::ObstructionEffect;

/// Horizon (days) over which the drift trajectory is generated: covers
/// the paper's 3-month campaign with margin.
const DRIFT_HORIZON_DAYS: usize = 120;

/// A simulated deployment: environment + realised random fields.
///
/// All randomness is derived deterministically from the constructor seed,
/// so any experiment is reproducible bit-for-bit.
#[derive(Debug, Clone)]
pub struct Testbed {
    env: Environment,
    deployment: Deployment,
    drift: DriftProcess,
    multipath: MultipathField,
    lambda: f64,
    /// Clean (noise-free, drift-free) baseline RSS per link (empty room).
    baseline_rss: Vec<f64>,
    /// Per-link static hardware gain offsets (NIC/antenna spread).
    link_gain_db: Vec<f64>,
    seed: u64,
}

impl Testbed {
    /// Creates a testbed for `env` with all random fields derived from
    /// `seed`.
    pub fn new(env: Environment, seed: u64) -> Self {
        let deployment = Deployment::new(&env);
        let drift = DriftProcess::generate(
            env.drift,
            env.num_links,
            DRIFT_HORIZON_DAYS,
            seed ^ 0x5eed_d41f,
        );
        let multipath =
            MultipathField::generate(env.multipath, env.width_m, env.height_m, seed ^ 0x0b5e55ed);
        let lambda = wavelength(env.pathloss.freq_hz);
        let mut gain_rng = StdRng::seed_from_u64(seed ^ 0x6a1b_5a1e);
        let link_gain_db: Vec<f64> = (0..env.num_links)
            .map(|_| (gain_rng.gen::<f64>() - 0.5) * 3.0)
            .collect();
        // Per-link static clutter loss: links cross different furniture
        // and obstructions. Modelled as a slowly varying profile across
        // link index (adjacent links cross similar clutter — the physical
        // basis of Obs. 3) plus one structural jump where a partition or
        // shelf row starts, which stretches the across-room RSS span to
        // many dB (the normaliser of the NLC/ALS statistics).
        let mut clutter_rng = StdRng::seed_from_u64(seed ^ 0xc1u64.rotate_left(17));
        let jump_at = 1 + (clutter_rng.gen::<f64>() * (env.num_links.max(2) - 1) as f64) as usize;
        let jump_mag = (0.55 + 0.35 * clutter_rng.gen::<f64>()) * env.link_clutter_db;
        let mut walk = clutter_rng.gen::<f64>() * env.link_clutter_db * 0.2;
        let baseline_rss: Vec<f64> = (0..env.num_links)
            .map(|i| {
                let d = deployment.link(i).length();
                walk += (clutter_rng.gen::<f64>() - 0.5) * 1.4;
                let clutter = (walk.abs() + if i >= jump_at { jump_mag } else { 0.0 })
                    .clamp(0.0, 1.5 * env.link_clutter_db);
                env.pathloss.rss_dbm(env.tx_power_dbm, d) - clutter
            })
            .collect();
        Testbed {
            env,
            deployment,
            drift,
            multipath,
            lambda,
            baseline_rss,
            link_gain_db,
            seed,
        }
    }

    /// The environment this testbed simulates.
    pub fn environment(&self) -> &Environment {
        &self.env
    }

    /// The constructor seed. All testbed randomness derives from it, so
    /// `Testbed::new(env.clone(), seed)` rebuilds this exact testbed —
    /// which is what service snapshots persist.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The link/grid geometry.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Carrier wavelength in metres.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The noiseless, *expected* RSS of link `i` with a target at grid
    /// location `j`, at day offset `day`. This is the ground-truth mean
    /// the fingerprint tries to capture.
    fn expected_rss(&self, i: usize, j: usize, day: f64) -> f64 {
        self.field_rss(&self.link_field(i, day), j)
    }

    /// The noiseless empty-room RSS of link `i` at day `day` (no target).
    pub fn expected_rss_empty(&self, i: usize, day: f64) -> f64 {
        self.link_field(i, day).empty_rss()
    }

    /// Collects a full fingerprint matrix at day offset `day`, averaging
    /// `samples` noisy readings per element (the paper's site survey:
    /// traditional systems use ~50 samples, iUpdater 5).
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn fingerprint_matrix(&self, day: f64, samples: usize) -> Matrix {
        assert!(samples > 0, "need at least one sample per element");
        let m = self.deployment.num_links();
        let n = self.deployment.num_locations();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            self.survey_row(i, day, samples, out.row_mut(i));
        }
        out
    }

    /// Surveys link `i`'s row of the fingerprint matrix at `day` into
    /// `out`, one averaged entry per grid location — row `i` of
    /// [`Self::fingerprint_matrix`]. Each link draws from its own seeded
    /// noise process, so rows can be surveyed in any order or in
    /// parallel with identical results.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0` or `out` is not one entry per grid
    /// location.
    pub fn survey_row(&self, i: usize, day: f64, samples: usize, out: &mut [f64]) {
        assert!(samples > 0, "need at least one sample per element");
        assert_eq!(
            out.len(),
            self.deployment.num_locations(),
            "survey row length"
        );
        let field = self.link_field(i, day);
        // Independent noise process per link, re-seeded per survey so
        // different days see different noise.
        let mut noise = self.noise_process(i, day);
        for (j, x) in out.iter_mut().enumerate() {
            *x = mean_reading(self.field_rss(&field, j), samples, &mut noise);
        }
    }

    /// The noiseless expected fingerprint matrix at `day` (used as the
    /// reconstruction ground truth).
    pub fn expected_fingerprint_matrix(&self, day: f64) -> Matrix {
        let m = self.deployment.num_links();
        let n = self.deployment.num_locations();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let field = self.link_field(i, day);
            for (j, x) in out.row_mut(i).iter_mut().enumerate() {
                *x = self.field_rss(&field, j);
            }
        }
        out
    }

    /// Collects fresh measurement columns for the given grid locations at
    /// `day`, averaging `samples` readings — the paper's *reference
    /// matrix* `X_R` (Eq. 13).
    pub fn measure_columns(&self, locations: &[usize], day: f64, samples: usize) -> Matrix {
        assert!(samples > 0, "need at least one sample per element");
        let m = self.deployment.num_links();
        let mut out = Matrix::zeros(m, locations.len());
        for i in 0..m {
            let field = self.link_field(i, day);
            let mut noise = self.noise_process(i, day);
            for (x, &j) in out.row_mut(i).iter_mut().zip(locations) {
                *x = mean_reading(self.field_rss(&field, j), samples, &mut noise);
            }
        }
        out
    }

    /// Measures link `i`'s empty-room RSS at `day`, averaging `samples`
    /// noisy readings — the labor-free collection behind the
    /// no-decrease matrix `X_B` (the target need not be present).
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn measure_empty(&self, i: usize, day: f64, samples: usize) -> f64 {
        assert!(samples > 0, "need at least one sample");
        let mut noise = self.noise_process(i, day + 0.003); // offset: separate survey pass
        mean_reading(self.expected_rss_empty(i, day), samples, &mut noise)
    }

    /// A single online measurement vector `y` with a target at grid `j`
    /// at `day` (Eq. 25): one noisy sample per link, as a real-time
    /// localization would see.
    pub fn online_measurement(&self, j: usize, day: f64, probe_seed: u64) -> Vec<f64> {
        (0..self.deployment.num_links())
            .map(|i| {
                let mut noise = NoiseProcess::new(
                    self.env.noise,
                    self.seed
                        ^ probe_seed
                            .wrapping_add((i as u64) << 32)
                            .wrapping_add(j as u64),
                );
                // Warm the AR(1) state so the sample is stationary.
                for _ in 0..8 {
                    noise.next_sample();
                }
                let clean = self.expected_rss(i, j, day);
                let sample = clean + noise.next_sample();
                noise.quantize(sample)
            })
            .collect()
    }

    /// The noiseless expected RSS of link `i` with *several* targets
    /// present (an extension beyond the paper's single-target model, in
    /// the spirit of its multi-target related work): obstruction
    /// attenuations and multipath signatures superpose in dB — the
    /// standard first-order approximation for well-separated bodies.
    fn expected_rss_multi(&self, i: usize, targets: &[usize], day: f64) -> f64 {
        let field = self.link_field(i, day);
        let mut rss = field.empty_rss();
        for &j in targets {
            let pos = self.deployment.location(j);
            rss -= self.env.target.attenuation_db(field.link, pos, self.lambda);
            rss += self.multipath.target_db(&field.multipath, pos);
        }
        rss
    }

    /// One noisy online measurement vector with several targets present.
    pub fn online_measurement_multi(
        &self,
        targets: &[usize],
        day: f64,
        probe_seed: u64,
    ) -> Vec<f64> {
        (0..self.deployment.num_links())
            .map(|i| {
                let mut noise = NoiseProcess::new(
                    self.env.noise,
                    self.seed ^ probe_seed.wrapping_add((i as u64) << 32),
                );
                for _ in 0..8 {
                    noise.next_sample();
                }
                let clean = self.expected_rss_multi(i, targets, day);
                let sample = clean + noise.next_sample();
                noise.quantize(sample)
            })
            .collect()
    }

    /// Classifies the effect of a target at grid `j` on link `i`
    /// (Fig. 4's large/small/no-decrease cell colouring).
    pub fn obstruction_effect(&self, i: usize, j: usize) -> ObstructionEffect {
        let link = self.deployment.link(i);
        let pos = self.deployment.location(j);
        self.env.target.effect(link, pos, self.lambda)
    }

    /// Samples several (link, grid) cells at the *same* instants for `n`
    /// ticks: per-link AR(1) jitter plus an interference-burst process
    /// shared across links (RF interference is broadcast, which is why
    /// adjacent-link RSS *differences* stay stable — Obs. 3 / Fig. 6).
    ///
    /// Returns one trace per requested cell, as the rows of a
    /// `cells.len() x n` matrix.
    pub fn synced_traces(&self, cells: &[(usize, usize)], day: f64, n: usize) -> Matrix {
        // BTreeMap keeps per-link iteration in link order, so trace
        // generation is deterministic across runs and platforms.
        let mut link_noise: std::collections::BTreeMap<usize, NoiseProcess> = cells
            .iter()
            .map(|&(i, _)| {
                // Jitter-only process (bursts are handled shared, below).
                let model = NoiseModel {
                    burst_prob: 0.0,
                    ..self.env.noise
                };
                (
                    i,
                    NoiseProcess::new(
                        model,
                        self.seed
                            .wrapping_mul(0x2545_f491_4f6c_dd1d)
                            .wrapping_add(i as u64),
                    ),
                )
            })
            .collect();
        let mut burst_rng =
            StdRng::seed_from_u64(self.seed ^ 0xb0b5_7ead ^ ((day * 64.0).round() as i64 as u64));
        let clean: Vec<f64> = cells
            .iter()
            .map(|&(i, j)| self.expected_rss(i, j, day))
            .collect();
        let mut traces = Matrix::zeros(cells.len(), n);
        for tick in 0..n {
            // Shared burst for this instant.
            let burst = if burst_rng.gen::<f64>() < self.env.noise.burst_prob * 2.0 {
                -(0.5 + burst_rng.gen::<f64>() * (self.env.noise.burst_max_db - 0.5).max(0.0))
            } else {
                0.0
            };
            for (k, &(i, _)) in cells.iter().enumerate() {
                let jitter = link_noise
                    .get_mut(&i)
                    .expect("process inserted above")
                    .next_sample();
                traces[(k, tick)] = quantize(clean[k] + jitter + burst, self.env.noise.quantize_db);
            }
        }
        traces
    }

    fn noise_process(&self, link: usize, day: f64) -> NoiseProcess {
        let day_key = (day * 64.0).round() as i64 as u64;
        NoiseProcess::new(
            self.env.noise,
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((link as u64) << 40)
                .wrapping_add(day_key),
        )
    }

    /// Link `i`'s field at `day`: every term of the expected RSS that
    /// does not depend on where the target stands.
    fn link_field(&self, i: usize, day: f64) -> LinkField {
        let link = self.deployment.link(i);
        LinkField {
            link,
            base_db: self.baseline_rss[i] + self.link_gain_db[i],
            multipath: self.multipath.link_field(link, day),
            drift_db: self.drift.drift_db(i, day),
        }
    }

    /// The expected RSS on `field`'s link with a target at grid `j`:
    /// the one formula behind every survey and measurement.
    fn field_rss(&self, field: &LinkField, j: usize) -> f64 {
        let pos = self.deployment.location(j);
        let attenuation = self.env.target.attenuation_db(field.link, pos, self.lambda);
        let multipath =
            field.multipath.ambient_db + self.multipath.target_db(&field.multipath, pos);
        field.base_db - attenuation + multipath + field.drift_db
    }
}

/// The part of the noiseless field that depends only on one link and
/// one day, built once per link so a survey evaluates it once rather
/// than once per reading.
struct LinkField {
    link: Segment,
    /// `baseline_rss[i] + link_gain_db[i]`.
    base_db: f64,
    multipath: LinkMultipath,
    drift_db: f64,
}

impl LinkField {
    /// The noiseless empty-room RSS of the link.
    fn empty_rss(&self) -> f64 {
        self.base_db + self.multipath.ambient_db + self.drift_db
    }
}

/// The mean of `samples` quantized readings of the noiseless value
/// `clean`, drawing the noise from `noise` in order.
fn mean_reading(clean: f64, samples: usize, noise: &mut NoiseProcess) -> f64 {
    let mut acc = 0.0;
    for _ in 0..samples {
        let sample = clean + noise.next_sample();
        acc += noise.quantize(sample);
    }
    acc / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Environment;

    fn bed() -> Testbed {
        Testbed::new(Environment::office(), 7)
    }

    #[test]
    fn fingerprint_shape() {
        let t = bed();
        let fp = t.fingerprint_matrix(0.0, 3);
        assert_eq!(fp.shape(), (8, 96));
        // RSS should be plausible dBm values.
        for &v in fp.iter() {
            assert!((-100.0..-20.0).contains(&v), "implausible RSS {v}");
        }
    }

    #[test]
    fn blocking_cells_have_lower_rss() {
        let t = bed();
        // Target on link 0's own row at cell 5 vs a far-away location on
        // link 7's row.
        let on_path = t.expected_rss(0, t.deployment().location_index(0, 5), 0.0);
        let far = t.expected_rss(0, t.deployment().location_index(7, 5), 0.0);
        assert!(
            far - on_path > 4.0,
            "blocked RSS {on_path} should be well below unblocked {far}"
        );
    }

    #[test]
    fn multi_target_superposition_consistent() {
        for seed in 0..200 {
            // With a single target the multi form equals the single one.
            let t = Testbed::new(Environment::office(), seed);
            let single = t.expected_rss(2, 30, 5.0);
            let multi = t.expected_rss_multi(2, &[30], 5.0);
            assert!((single - multi).abs() < 1e-9);
            // Two targets attenuate at least as much as the stronger one
            // on any link (dB superposition).
            let both = t.expected_rss_multi(2, &[30, 70], 5.0);
            let other = t.expected_rss_multi(2, &[70], 5.0);
            assert!(both <= single.max(other) + 3.0);
        }
    }

    #[test]
    fn far_cells_match_empty_room() {
        let t = bed();
        // A target on link 7's row has no measurable effect on link 0.
        let with_target = t.expected_rss(0, t.deployment().location_index(7, 3), 0.0);
        let empty = t.expected_rss_empty(0, 0.0);
        // Multipath probe differs slightly; tolerance covers it.
        assert!(
            (with_target - empty).abs() < 2.0,
            "far target {with_target} vs empty {empty}"
        );
    }

    #[test]
    fn averaging_reduces_survey_noise() {
        let t = bed();
        let truth = t.expected_fingerprint_matrix(0.0);
        let err = |samples: usize, salt: u64| {
            let tb = Testbed::new(Environment::office(), 7 ^ salt);
            let fp = tb.fingerprint_matrix(0.0, samples);
            let truth2 = tb.expected_fingerprint_matrix(0.0);
            (&fp - &truth2).frobenius_norm() / (truth2.rows() * truth2.cols()) as f64
        };
        let _ = truth;
        let e1: f64 = (0..5).map(|s| err(1, s)).sum::<f64>() / 5.0;
        let e50: f64 = (0..5).map(|s| err(50, s)).sum::<f64>() / 5.0;
        assert!(
            e50 < e1 * 0.6,
            "50-sample survey ({e50}) should be much cleaner than 1-sample ({e1})"
        );
    }

    #[test]
    fn drift_shifts_fingerprints_over_time() {
        let t = bed();
        let day0 = t.expected_fingerprint_matrix(0.0);
        let day45 = t.expected_fingerprint_matrix(45.0);
        let mean_shift = (0..day0.rows())
            .map(|i| {
                (0..day0.cols())
                    .map(|j| (day45[(i, j)] - day0[(i, j)]).abs())
                    .sum::<f64>()
                    / day0.cols() as f64
            })
            .sum::<f64>()
            / day0.rows() as f64;
        assert!(
            mean_shift > 1.0,
            "45-day drift should be visible, got {mean_shift} dB"
        );
    }

    #[test]
    fn differences_more_stable_than_rss_over_time() {
        // The core Observation 2/3 check at the simulator level: the
        // *change over 45 days* of neighbouring-location differences is
        // much smaller than the change of raw RSS.
        let t = bed();
        let day0 = t.expected_fingerprint_matrix(0.0);
        let day45 = t.expected_fingerprint_matrix(45.0);
        let d = t.deployment();
        let mut raw_change = 0.0;
        let mut diff_change = 0.0;
        let mut count = 0;
        for i in 0..d.num_links() {
            for u in 0..d.locations_per_link() - 1 {
                let j1 = d.location_index(i, u);
                let j2 = d.location_index(i, u + 1);
                raw_change += (day45[(i, j1)] - day0[(i, j1)]).abs();
                let diff0 = day0[(i, j1)] - day0[(i, j2)];
                let diff45 = day45[(i, j1)] - day45[(i, j2)];
                diff_change += (diff45 - diff0).abs();
                count += 1;
            }
        }
        raw_change /= count as f64;
        diff_change /= count as f64;
        assert!(
            diff_change < raw_change * 0.5,
            "neighbour differences (Δ={diff_change}) must be stabler than raw RSS (Δ={raw_change})"
        );
    }

    #[test]
    fn online_measurement_length_and_determinism() {
        let t = bed();
        let y1 = t.online_measurement(10, 3.0, 77);
        let y2 = t.online_measurement(10, 3.0, 77);
        assert_eq!(y1.len(), 8);
        assert_eq!(y1, y2);
        let y3 = t.online_measurement(10, 3.0, 78);
        assert_ne!(y1, y3);
    }

    #[test]
    fn measure_columns_matches_fingerprint_scale() {
        let t = bed();
        let cols = t.measure_columns(&[0, 5, 90], 0.0, 5);
        assert_eq!(cols.shape(), (8, 3));
        let truth = t.expected_fingerprint_matrix(0.0);
        for (k, &j) in [0usize, 5, 90].iter().enumerate() {
            for i in 0..8 {
                assert!(
                    (cols[(i, k)] - truth[(i, j)]).abs() < 5.0,
                    "measured column deviates wildly from truth"
                );
            }
        }
    }

    #[test]
    fn trace_has_short_term_variation() {
        let t = bed();
        let traces = t.synced_traces(&[(0, 5)], 0.0, 200);
        let trace = traces.row(0);
        let max = trace.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = trace.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            (2.0..10.0).contains(&(max - min)),
            "trace peak-to-peak {} outside Fig.1-like range",
            max - min
        );
    }

    #[test]
    fn obstruction_effect_blocked_on_own_row() {
        let t = bed();
        let d = t.deployment();
        assert_eq!(
            t.obstruction_effect(3, d.location_index(3, 6)),
            ObstructionEffect::LargeDecrease
        );
        assert_eq!(
            t.obstruction_effect(0, d.location_index(7, 6)),
            ObstructionEffect::NoDecrease
        );
    }
}
