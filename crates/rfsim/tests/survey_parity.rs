//! Survey parity: every survey and measurement entry point of
//! [`Testbed`] must equal, bit for bit, the per-reading formula it
//! replaced — the full noiseless field (Fresnel attenuation, ambient
//! multipath, target coupling, drift) re-evaluated for every single
//! reading.
//!
//! The oracle below rebuilds the testbed's random fields from its seed
//! and evaluates that formula verbatim: `ambient_db + target_db` over
//! the scatterers for each reading, summed as
//! `b + g - attenuation + multipath + drift`, with the same per-link
//! noise processes drawn in the same order. `Testbed` instead evaluates
//! the link- and day-only terms once per link and the cell terms once
//! per cell, so any change in operation order, in the scatterer loop or
//! in the noise draws shows up here as a differing bit.
//!
//! Coverage: the three paper presets and the 16x384 scaled office, at
//! days 0, 2.5, 45, 90 and 150 (past the 120-day drift horizon, where
//! the random walk clamps) and 1, 5 and 50 readings per cell. FNV-1a
//! digests additionally pin one office field and survey to the values
//! recorded before the per-link field existed.

use iupdater_linalg::Matrix;
use iupdater_rfsim::drift::DriftProcess;
use iupdater_rfsim::geometry::{Point, Segment};
use iupdater_rfsim::noise::{quantize, NoiseProcess};
use iupdater_rfsim::pathloss::wavelength;
use iupdater_rfsim::{Environment, EnvironmentKind, Testbed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DAYS: [f64; 5] = [0.0, 2.5, 45.0, 90.0, 150.0];
const SAMPLES: [usize; 3] = [1, 5, 50];
const SEED: u64 = 7;

/// The office scaled to twice its edge: 16 links x 24 cells.
fn scaled_office_2() -> Environment {
    let base = Environment::office();
    Environment {
        kind: EnvironmentKind::Custom,
        width_m: base.width_m * 2.0,
        height_m: base.height_m * 2.0,
        num_links: base.num_links * 2,
        locations_per_link: base.locations_per_link * 2,
        ..base
    }
}

struct Scatterer {
    pos: Point,
    amp_db: f64,
    phase: f64,
    target_phase: f64,
}

/// The per-reading testbed formula, rebuilt from the seed.
struct Oracle {
    tb: Testbed,
    drift: DriftProcess,
    scatterers: Vec<Scatterer>,
    temporal_phase: f64,
    lambda: f64,
    baseline_rss: Vec<f64>,
    link_gain_db: Vec<f64>,
}

fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl Oracle {
    fn new(env: Environment, seed: u64) -> Self {
        let tb = Testbed::new(env.clone(), seed);
        let deployment = tb.deployment();
        let drift = DriftProcess::generate(env.drift, env.num_links, 120, seed ^ 0x5eed_d41f);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0b5e55ed);
        let scatterers = (0..env.multipath.num_scatterers)
            .map(|_| Scatterer {
                pos: Point::new(
                    rng.gen::<f64>() * env.width_m,
                    rng.gen::<f64>() * env.height_m,
                ),
                amp_db: gaussian(&mut rng) * env.multipath.amp_db,
                phase: rng.gen::<f64>() * 2.0 * std::f64::consts::PI,
                target_phase: rng.gen::<f64>() * 2.0 * std::f64::consts::PI,
            })
            .collect();
        let temporal_phase = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
        let lambda = wavelength(env.pathloss.freq_hz);
        let mut gain_rng = StdRng::seed_from_u64(seed ^ 0x6a1b_5a1e);
        let link_gain_db: Vec<f64> = (0..env.num_links)
            .map(|_| (gain_rng.gen::<f64>() - 0.5) * 3.0)
            .collect();
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
        Oracle {
            tb,
            drift,
            scatterers,
            temporal_phase,
            lambda,
            baseline_rss,
            link_gain_db,
        }
    }

    fn ambient_db(&self, link: Segment, day: f64) -> f64 {
        let m = &self.tb.environment().multipath;
        let mut total = 0.0;
        for s in &self.scatterers {
            let d_link = link.distance_to(s.pos);
            let weight = (-d_link / m.link_decay_m).exp();
            if weight < 1e-6 {
                continue;
            }
            let spatial = (s.phase + 3.1 * d_link).sin();
            let temporal = (self.temporal_phase
                + 2.0 * std::f64::consts::PI * day / m.temporal_period_days)
                .sin();
            let mix =
                (1.0 - m.temporal_fraction) * spatial + m.temporal_fraction * spatial * temporal;
            total += s.amp_db * weight * mix;
        }
        total
    }

    fn target_db(&self, link: Segment, target: Point, day: f64) -> f64 {
        let m = &self.tb.environment().multipath;
        let mut total = 0.0;
        for s in &self.scatterers {
            let d_link = link.distance_to(s.pos);
            let d_target = s.pos.distance(target);
            let weight = (-d_link / m.link_decay_m).exp() * (-d_target / m.target_decay_m).exp();
            if weight < 1e-6 {
                continue;
            }
            let signature = (s.target_phase + m.ripple_rad_per_m * d_target).sin();
            let temporal = (self.temporal_phase
                + 2.0 * std::f64::consts::PI * day / m.temporal_period_days)
                .sin();
            let mix = (1.0 - m.temporal_fraction) * signature
                + m.temporal_fraction * signature * temporal;
            total += s.amp_db * m.target_gain * weight * mix;
        }
        total
    }

    fn expected_rss(&self, i: usize, j: usize, day: f64) -> f64 {
        let link = self.tb.deployment().link(i);
        let pos = self.tb.deployment().location(j);
        let attenuation = self
            .tb
            .environment()
            .target
            .attenuation_db(link, pos, self.lambda);
        let multipath = self.ambient_db(link, day) + self.target_db(link, pos, day);
        self.baseline_rss[i] + self.link_gain_db[i] - attenuation
            + multipath
            + self.drift.drift_db(i, day)
    }

    fn expected_rss_empty(&self, i: usize, day: f64) -> f64 {
        let link = self.tb.deployment().link(i);
        let multipath = self.ambient_db(link, day);
        self.baseline_rss[i] + self.link_gain_db[i] + multipath + self.drift.drift_db(i, day)
    }

    fn sample_rss(&self, i: usize, j: usize, day: f64, noise: &mut NoiseProcess) -> f64 {
        let clean = self.expected_rss(i, j, day);
        let sample = clean + noise.next_sample();
        noise.quantize(sample)
    }

    fn noise_process(&self, link: usize, day: f64) -> NoiseProcess {
        let day_key = (day * 64.0).round() as i64 as u64;
        NoiseProcess::new(
            self.tb.environment().noise,
            self.tb
                .seed()
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((link as u64) << 40)
                .wrapping_add(day_key),
        )
    }

    fn fingerprint_matrix(&self, day: f64, samples: usize) -> Matrix {
        let m = self.tb.deployment().num_links();
        let n = self.tb.deployment().num_locations();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let mut noise = self.noise_process(i, day);
            for j in 0..n {
                let mut acc = 0.0;
                for _ in 0..samples {
                    acc += self.sample_rss(i, j, day, &mut noise);
                }
                out[(i, j)] = quantize(acc / samples as f64, 0.0);
            }
        }
        out
    }

    fn expected_fingerprint_matrix(&self, day: f64) -> Matrix {
        let m = self.tb.deployment().num_links();
        let n = self.tb.deployment().num_locations();
        Matrix::from_fn(m, n, |i, j| self.expected_rss(i, j, day))
    }

    fn measure_columns(&self, locations: &[usize], day: f64, samples: usize) -> Matrix {
        let m = self.tb.deployment().num_links();
        let mut out = Matrix::zeros(m, locations.len());
        for i in 0..m {
            let mut noise = self.noise_process(i, day);
            for (k, &j) in locations.iter().enumerate() {
                let mut acc = 0.0;
                for _ in 0..samples {
                    acc += self.sample_rss(i, j, day, &mut noise);
                }
                out[(i, k)] = acc / samples as f64;
            }
        }
        out
    }

    fn measure_empty(&self, i: usize, day: f64, samples: usize) -> f64 {
        let mut noise = self.noise_process(i, day + 0.003);
        let clean = self.expected_rss_empty(i, day);
        let mut acc = 0.0;
        for _ in 0..samples {
            let s = clean + noise.next_sample();
            acc += noise.quantize(s);
        }
        acc / samples as f64
    }

    fn online_measurement(&self, j: usize, day: f64, probe_seed: u64) -> Vec<f64> {
        (0..self.tb.deployment().num_links())
            .map(|i| {
                let mut noise = NoiseProcess::new(
                    self.tb.environment().noise,
                    self.tb.seed()
                        ^ probe_seed
                            .wrapping_add((i as u64) << 32)
                            .wrapping_add(j as u64),
                );
                for _ in 0..8 {
                    noise.next_sample();
                }
                self.sample_rss(i, j, day, &mut noise)
            })
            .collect()
    }
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: entry {k}: {g} vs {w}");
    }
}

/// FNV-1a over the little-endian bits of every entry.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every entry point against the oracle at every day and sample count.
fn assert_surveys_match(name: &str, env: Environment) {
    let oracle = Oracle::new(env, SEED);
    let tb = &oracle.tb;
    let n = tb.deployment().num_locations();
    let columns = [0, n / 3, n / 2, n - 1];
    for day in DAYS {
        let what = format!("{name} day {day}");
        assert_bits(
            tb.expected_fingerprint_matrix(day).as_slice(),
            oracle.expected_fingerprint_matrix(day).as_slice(),
            &format!("{what} expected_fingerprint_matrix"),
        );
        for samples in SAMPLES {
            let what = format!("{what} samples {samples}");
            assert_bits(
                tb.fingerprint_matrix(day, samples).as_slice(),
                oracle.fingerprint_matrix(day, samples).as_slice(),
                &format!("{what} fingerprint_matrix"),
            );
            assert_bits(
                tb.measure_columns(&columns, day, samples).as_slice(),
                oracle.measure_columns(&columns, day, samples).as_slice(),
                &format!("{what} measure_columns"),
            );
            let empty: Vec<f64> = (0..tb.deployment().num_links())
                .map(|i| tb.measure_empty(i, day, samples))
                .collect();
            let want: Vec<f64> = (0..tb.deployment().num_links())
                .map(|i| oracle.measure_empty(i, day, samples))
                .collect();
            assert_bits(&empty, &want, &format!("{what} measure_empty"));
        }
        for j in columns {
            assert_bits(
                &tb.online_measurement(j, day, 77),
                &oracle.online_measurement(j, day, 77),
                &format!("{what} online_measurement cell {j}"),
            );
        }
    }
}

#[test]
fn hall_surveys_equal_the_per_reading_formula() {
    assert_surveys_match("hall", Environment::hall());
}

#[test]
fn office_surveys_equal_the_per_reading_formula() {
    assert_surveys_match("office", Environment::office());
}

#[test]
fn library_surveys_equal_the_per_reading_formula() {
    assert_surveys_match("library", Environment::library());
}

#[test]
fn scaled_office_surveys_equal_the_per_reading_formula() {
    assert_surveys_match("office-x2", scaled_office_2());
}

#[test]
fn survey_rows_equal_the_matrix_rows() {
    let tb = Testbed::new(scaled_office_2(), SEED);
    let fp = tb.fingerprint_matrix(45.0, 5);
    let mut row = vec![0.0; tb.deployment().num_locations()];
    for i in (0..tb.deployment().num_links()).rev() {
        tb.survey_row(i, 45.0, 5, &mut row);
        assert_bits(&row, fp.row(i), &format!("survey_row {i}"));
    }
}

#[test]
fn office_digests_are_pinned() {
    let tb = Testbed::new(Environment::office(), SEED);
    // Readings are quantized to 0.5 dB before averaging, which absorbs
    // most last-bit changes of the field; the noiseless matrix pins the
    // field itself.
    assert_eq!(
        fnv1a(tb.expected_fingerprint_matrix(45.0).as_slice()),
        OFFICE_FIELD_DIGEST,
        "office noiseless field (seed 7, day 45) moved"
    );
    assert_eq!(
        fnv1a(tb.fingerprint_matrix(45.0, 5).as_slice()),
        OFFICE_SURVEY_DIGEST,
        "office survey (seed 7, day 45, 5 samples) moved"
    );
}

/// FNV-1a digests of `Testbed::new(office, 7)`'s
/// `expected_fingerprint_matrix(45.0)` and `fingerprint_matrix(45.0,
/// 5)`, recorded with the per-reading implementation.
const OFFICE_FIELD_DIGEST: u64 = 0xc9bc_5293_b1e0_1dd4;
const OFFICE_SURVEY_DIGEST: u64 = 0xf0e9_0291_e389_5b47;
