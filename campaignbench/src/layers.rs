//! Probes of single layers, run from the benchmark's own code around
//! public calls into each one, and the twin service that both checks
//! the gateway's commits and times the service layer.

use std::hint::black_box;
use std::time::Instant;

use iupdater_core::correlation::{correlation_matrix, CorrelationMethod};
use iupdater_core::mic::{extract_mic, MicMethod};
use iupdater_core::prelude::*;

use crate::campaign::{ms_since, us_since};
use crate::stats::median;
use crate::workload::{Inputs, Workload, BATCH_SAMPLES};

/// Times each set-up probe is repeated; the median is kept.
const SETUP_PROBES: usize = 5;

/// Set-up's engine construction, summed over the deployments as
/// set-up pays it; each term is the median of [`SETUP_PROBES`] runs.
#[derive(Debug, Default)]
pub struct Setup {
    pub mic_ms: f64,
    pub lrr_ms: f64,
    pub updater_new_ms: f64,
}

/// Times MIC extraction, LRR and the whole `Updater::new` on each
/// deployment's day-0 survey.
pub fn probe_setup(w: &Workload, inputs: &Inputs) -> Setup {
    let mut s = Setup::default();
    let config = UpdaterConfig::default();
    let p50 = |v: &[f64]| median(v).expect("set-up probes ran").value;
    for tb in &inputs.testbeds {
        let prior = FingerprintMatrix::survey(tb, 0.0, w.survey_samples);
        let (mut mic_ms, mut lrr_ms, mut new_ms) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..SETUP_PROBES {
            let t = Instant::now();
            let mic = extract_mic(prior.matrix(), MicMethod::default(), config.rank_tol)
                .expect("MIC extraction");
            mic_ms.push(ms_since(t));
            let t = Instant::now();
            black_box(
                correlation_matrix(&mic.vectors, prior.matrix(), CorrelationMethod::Lrr)
                    .expect("LRR"),
            );
            lrr_ms.push(ms_since(t));
            let t = Instant::now();
            black_box(Updater::new(prior.clone(), config.clone()).expect("updater"));
            new_ms.push(ms_since(t));
        }
        s.mic_ms += p50(&mic_ms);
        s.lrr_ms += p50(&lrr_ms);
        s.updater_new_ms += p50(&new_ms);
    }
    s
}

/// Slabs timed for the batched read probe.
const PROBE_SLABS: usize = 8;
/// Queries per slab, as in the storm workload.
const PROBE_SLAB: usize = 1024;
/// Queries timed one by one in the single-read probe.
const PROBE_SINGLES: usize = 2048;

/// The read path, probed on one committed database.
#[derive(Debug, Default)]
pub struct Reads {
    pub batch_us_per_query: Vec<f64>,
    pub scratch_us: Vec<f64>,
    pub plain_us: Vec<f64>,
    /// Cholesky fallbacks per thousand single reads.
    pub chol_fallbacks_per_1k: f64,
}

/// Times `Localizer::localize_batch` on 1,024-query slabs, and
/// `localize_with_scratch` (one reused scratch) against `localize` on
/// the same queries.
pub fn probe_reads(db: &FingerprintMatrix, pool: &[Vec<f64>]) -> Reads {
    let mut r = Reads::default();
    let loc = Localizer::new(db.clone(), LocalizerConfig::default());
    let slab: Vec<Vec<f64>> = pool.iter().cycle().take(PROBE_SLAB).cloned().collect();
    for _ in 0..PROBE_SLABS {
        let t = Instant::now();
        black_box(loc.localize_batch(&slab).expect("batched read"));
        r.batch_us_per_query.push(us_since(t) / PROBE_SLAB as f64);
    }
    let mut scratch = QueryScratch::new();
    for y in pool.iter().cycle().take(PROBE_SINGLES) {
        let t = Instant::now();
        black_box(loc.localize_with_scratch(y, &mut scratch).expect("read"));
        r.scratch_us.push(us_since(t));
        let t = Instant::now();
        black_box(loc.localize(y).expect("read"));
        r.plain_us.push(us_since(t));
    }
    r.chol_fallbacks_per_1k = scratch.chol_fallbacks() as f64 * 1000.0 / PROBE_SINGLES as f64;
    r
}

/// The solver and the localizer build, timed on every batch.
#[derive(Debug, Default)]
pub struct Solves {
    /// Per solve, in cycle order.
    pub solve_ms: Vec<f64>,
    pub iterations: usize,
    /// Per `Localizer::new` on a solved database.
    pub prepare_ms: Vec<f64>,
    /// Per cycle, summed over its deployments.
    pub cycle_solve_ms: Vec<f64>,
    pub cycle_prepare_ms: Vec<f64>,
}

/// The twin fleet driven directly with the campaign's batches.
#[derive(Debug, Default)]
pub struct Twin {
    pub ingest_us: Vec<f64>,
    pub cycle_ms: Vec<f64>,
    pub finals: Vec<FingerprintMatrix>,
    pub solves: Solves,
}

/// Ingests every batch into the twin `UpdateService` and runs its
/// cycles, timing both: the databases it commits are the ones the
/// gateway must publish. With `probe`, each cycle is preceded by the
/// same solves run through `Updater::update_report` on the twin's
/// engines (which cycles never change) and the localizer built on each
/// result, so the layer timings and the cycle they belong to are taken
/// side by side.
pub fn drive_twin(w: &Workload, inputs: &Inputs, mut twin: UpdateService, probe: bool) -> Twin {
    let mut out = Twin::default();
    let ids = twin.ids();
    for (day_batches, &day) in inputs.batches.iter().zip(&w.days) {
        if probe {
            let s = &mut out.solves;
            let (mut solve, mut prepare) = (0.0, 0.0);
            for (&id, batch) in ids.iter().zip(day_batches) {
                let updater = twin.updater(id).expect("registered id");
                let t = Instant::now();
                let report = updater
                    .update_report(batch.reference_columns(), batch.no_decrease(), batch.mask())
                    .expect("solve");
                let ms = ms_since(t);
                s.solve_ms.push(ms);
                solve += ms;
                s.iterations += report.iterations();
                let db = updater
                    .prior()
                    .with_matrix(report.reconstruction())
                    .expect("shape");
                let t = Instant::now();
                black_box(Localizer::new(db, LocalizerConfig::default()));
                let ms = ms_since(t);
                s.prepare_ms.push(ms);
                prepare += ms;
            }
            s.cycle_solve_ms.push(solve);
            s.cycle_prepare_ms.push(prepare);
        }
        for (&id, batch) in ids.iter().zip(day_batches) {
            let batch = batch.clone();
            let t = Instant::now();
            twin.ingest(id, batch).expect("twin ingest");
            out.ingest_us.push(us_since(t));
        }
        let t = Instant::now();
        twin.run_cycle(day, BATCH_SAMPLES).expect("twin cycle");
        out.cycle_ms.push(ms_since(t));
    }
    out.finals = ids
        .iter()
        .map(|&id| twin.fingerprint(id).expect("registered id").clone())
        .collect();
    out
}
