//! The benchmark's workloads and the seeded inputs they feed the
//! program. Sizes and rates are constants of each workload, never
//! calibrated at run time, so a faster program is given the same work.

use std::time::Instant;

use iupdater_core::prelude::*;
use iupdater_eval::ext_scale::scaled_office;
use iupdater_rfsim::{Environment, Testbed};

/// Readings per surveyed cell in every ingested batch (the paper's
/// update survey).
pub const BATCH_SAMPLES: usize = 5;

/// Testbed seed of deployment 0; deployment `k` uses this plus `k`.
/// The sites, and so every batch and every solve, are constants of the
/// workload like its sizes: the run's seed draws the query traffic.
/// Seeding the sites from the run's seed would make the solver's
/// iteration counts, and with them every write-side timing, differ
/// from seed to seed.
pub const SITE_SEED: u64 = 20_170_605;

/// Seed of the accuracy slabs. Like the sites they are constants of
/// the workload, so `loc_err_m` and `recon_err_db` are the same on
/// every run of the same code, whatever its seed.
pub const ACCURACY_SEED: u64 = 0x1cdc_2017;

/// Workload names. `BENCHMARK.json` lists the first two; the open loop
/// of `mixed-32x1536` spreads too much from run to run on a shared host
/// to gate a change, so it is run by hand.
pub const NAMES: [&str; 3] = ["fleet-8x96", "storm-32x1536", "mixed-32x1536"];

/// How a workload reads. The two closed loops run on the driving
/// thread after each commit and submit the next read when the previous
/// one has answered; the open loop runs on a reader thread of its own,
/// beside the cycles.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// A burst of this many single `FleetGateway::localize` calls,
    /// round-robin across deployments.
    Burst { queries: usize },
    /// `slabs` fixed-size `FleetGateway::localize_batch` slabs
    /// replaying the query pool.
    Storm { slab: usize, slabs: usize },
    /// Single `FleetGateway::localize` calls due at a constant rate for
    /// the whole write phase, round-robin across deployments.
    OpenLoop { rate_qps: f64 },
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Name and environment of each deployment; testbed `k` is seeded
    /// with [`SITE_SEED`] plus `k`.
    pub deployments: Vec<(String, Environment)>,
    /// Readings per cell of the day-0 survey.
    pub survey_samples: usize,
    /// One cycle per day, fed one ingested batch per deployment.
    pub days: Vec<f64>,
    pub traffic: Traffic,
    /// Distinct pre-generated traffic queries per deployment.
    pub pool: usize,
    /// Checkpoint the fleet (snapshot plus text persist) after every
    /// commit.
    pub checkpoint: bool,
}

impl Workload {
    /// The named workload, or `None` for an unknown name.
    pub fn named(name: &str) -> Option<Workload> {
        let office_x4 = || vec![("office-x4".to_string(), scaled_office(4))];
        Some(match name {
            // Tiny solves: the per-cycle fixed costs (channel round
            // trip, localizer rebuild, publish clone, text checkpoint)
            // and per-call read overhead dominate.
            "fleet-8x96" => Workload {
                name: "fleet-8x96",
                deployments: Environment::all_presets()
                    .into_iter()
                    .map(|env| (format!("{:?}", env.kind).to_lowercase(), env))
                    .collect(),
                survey_samples: 50,
                // Daily updates over the simulator's drift horizon.
                days: (1..=120).map(f64::from).collect(),
                traffic: Traffic::Burst { queries: 2000 },
                pool: 1024,
                checkpoint: true,
            },
            // One 32x1536 site (`ext_scale::scaled_office(4)`). Pursuit
            // arithmetic dominates the reads; the cycles run alone, so
            // the parallel solver shows in the publish lag. Replaying
            // the pool is valid only while the program has no answer
            // cache.
            "storm-32x1536" => Workload {
                name: "storm-32x1536",
                deployments: office_x4(),
                survey_samples: 5,
                // The paper's five update timestamps.
                days: vec![3.0, 5.0, 15.0, 45.0, 90.0],
                // Three repetitions give 1,200 slabs, enough for a p99
                // over slabs.
                traffic: Traffic::Storm {
                    slab: 1024,
                    slabs: 80,
                },
                pool: 4096,
                checkpoint: false,
            },
            // The same site, written back to back while a reader thread
            // queries it: the serial solver and the reads share the
            // host, so a change that speeds one by taking CPU from the
            // other shows here.
            "mixed-32x1536" => Workload {
                name: "mixed-32x1536",
                deployments: office_x4(),
                survey_samples: 5,
                days: vec![3.0, 5.0, 10.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0, 120.0],
                traffic: Traffic::OpenLoop { rate_qps: 2000.0 },
                pool: 4096,
                checkpoint: false,
            },
            _ => return None,
        })
    }

    /// Width of the program's worker pool on a host with `nproc` CPUs,
    /// so that program threads plus benchmark threads fit the host. A
    /// cycle occupies the whole pool, the driving thread waits while
    /// it runs, and the pool idles while the driving thread reads; the
    /// open loop's reader thread needs a CPU of its own.
    pub fn pool_width(&self, nproc: usize) -> usize {
        match self.traffic {
            Traffic::OpenLoop { .. } => nproc.saturating_sub(1).max(1),
            Traffic::Burst { .. } | Traffic::Storm { .. } => nproc,
        }
    }
}

/// Everything a run feeds the program, built before any clock starts.
pub struct Inputs {
    /// Testbeds of the gateway's fleet, cloned for every repetition.
    pub testbeds: Vec<Testbed>,
    /// Ingested batches, `[cycle][deployment]`.
    pub batches: Vec<Vec<MeasurementBatch>>,
    /// Accuracy slabs, `[cycle][deployment][cell]`: query `j` has its
    /// target at cell `j`.
    pub slabs: Vec<Vec<Vec<Vec<f64>>>>,
    /// Traffic query pools, `[deployment]`.
    pub pool: Vec<Vec<Vec<f64>>>,
    /// Ground truth at the last cycle's day, `[deployment]`.
    pub truth: Vec<FingerprintMatrix>,
    /// Wall time of building all of the above, in seconds.
    pub gen_s: f64,
}

/// Probe seed of query `i` in stream `stream`: distinct per seed,
/// stream and query.
fn probe_seed(seed: u64, stream: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (stream << 32) ^ i as u64
}

/// Builds every input of `w`, the query traffic from `seed`, together
/// with the twin fleet the batches come from: registered exactly like
/// the gateway's fleet, it supplies each deployment's reference set
/// and, driven later with the same batches, the databases the gateway
/// must commit.
pub fn generate(w: &Workload, seed: u64) -> (Inputs, UpdateService) {
    let start = Instant::now();
    let testbeds: Vec<Testbed> = w
        .deployments
        .iter()
        .zip(0u64..)
        .map(|((_, env), k)| Testbed::new(env.clone(), SITE_SEED + k))
        .collect();
    let mut twin = UpdateService::new();
    for ((name, _), tb) in w.deployments.iter().zip(&testbeds) {
        twin.register(
            name.clone(),
            tb.clone(),
            UpdaterConfig::default(),
            w.survey_samples,
        )
        .expect("twin registration");
    }
    let refs: Vec<Vec<usize>> = twin
        .ids()
        .into_iter()
        .map(|id| {
            twin.updater(id)
                .expect("registered id")
                .reference_locations()
                .to_vec()
        })
        .collect();
    let batches = w
        .days
        .iter()
        .map(|&day| {
            testbeds
                .iter()
                .zip(&refs)
                .map(|(tb, r)| {
                    MeasurementBatch::collect(tb, r, day, BATCH_SAMPLES).expect("batch collection")
                })
                .collect()
        })
        .collect();
    let slabs = w
        .days
        .iter()
        .zip(0u64..)
        .map(|(&day, c)| {
            testbeds
                .iter()
                .zip(0u64..)
                .map(|(tb, k)| {
                    (0..tb.deployment().num_locations())
                        .map(|j| {
                            tb.online_measurement(j, day, probe_seed(ACCURACY_SEED, k << 16 | c, j))
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let pool = testbeds
        .iter()
        .zip(0u64..)
        .map(|(tb, k)| {
            let cells = tb.deployment().num_locations();
            (0..w.pool)
                .map(|i| {
                    let day = w.days[i % w.days.len()];
                    let cell = (i * 7919) % cells;
                    tb.online_measurement(cell, day, probe_seed(seed, k << 16 | 0xffff, i))
                })
                .collect()
        })
        .collect();
    let last_day = *w.days.last().expect("a workload has cycles");
    let truth = testbeds
        .iter()
        .map(|tb| FingerprintMatrix::expected(tb, last_day))
        .collect();
    let inputs = Inputs {
        testbeds,
        batches,
        slabs,
        pool,
        truth,
        gen_s: start.elapsed().as_secs_f64(),
    };
    (inputs, twin)
}
