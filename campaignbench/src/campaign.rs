//! One repetition of a workload through the fleet gateway: set-up, the
//! timed campaign, and the correctness gate, which runs after the clock
//! stops.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use iupdater_core::metrics::{localization_error_m, mean_reconstruction_error};
use iupdater_core::persist;
use iupdater_core::prelude::*;
use iupdater_rfsim::Testbed;

use crate::reader::{open_loop, OpenLoopLog};
use crate::speed;
use crate::stats::median;
use crate::workload::{Inputs, Traffic, Workload, BATCH_SAMPLES};

/// One served answer in this many is kept for the oracle check.
const ORACLE_STRIDE: usize = 61;

/// Host-speed probes spread over a campaign (plus one before set-up).
const PROBES_PER_CAMPAIGN: usize = 12;

/// Failure reasons kept for the report; the count covers the rest.
const MAX_REASONS: usize = 8;

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Operations attempted and failed. Errors and oracle mismatches both
/// count as failures.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, n: usize, why: impl Into<String>) {
        self.failed += n;
        if self.reasons.len() < MAX_REASONS {
            self.reasons.push(why.into());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in other.reasons {
            if self.reasons.len() < MAX_REASONS {
                self.reasons.push(why);
            }
        }
    }
}

/// Answers served on one published epoch of one deployment, kept with
/// that epoch's database for the oracle check.
struct EpochSample {
    epoch: u64,
    deployment: usize,
    database: FingerprintMatrix,
    answers: Vec<(Vec<f64>, LocationEstimate)>,
}

impl EpochSample {
    fn of(snap: &PublishedSnapshot, deployment: usize) -> EpochSample {
        EpochSample {
            epoch: snap.epoch(),
            deployment,
            database: snap.fingerprint().clone(),
            answers: Vec::new(),
        }
    }
}

/// Spans the traced repetition records around gateway and persist calls.
#[derive(Debug, Default)]
pub struct Spans {
    pub ingest_us: Vec<f64>,
    pub pin_ns: Vec<f64>,
    pub gateway_read_us: Vec<f64>,
    pub direct_read_us: Vec<f64>,
    pub persist_ms: Vec<f64>,
    pub persist_bytes: usize,
}

/// What one repetition measured. Times are raw; [`Rep::at_nominal`]
/// scales them to the nominal host speed.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    /// The timed phase, host-speed probes excluded.
    pub campaign_s: f64,
    /// Per cycle: first ingest until `run_cycle` returned, epoch
    /// published on every deployment.
    pub publish_lag_ms: Vec<f64>,
    /// Per read call (one query, or one whole slab whose queries all
    /// share its duration): submission (in the open loop, due time) to
    /// answer.
    pub query_us: Vec<f64>,
    /// Time the traffic ran.
    pub read_s: f64,
    pub answered: usize,
    /// Load-generator health: in the closed loops, the gap from one
    /// answer to the next submission; in the open loop, how late each
    /// query was sent.
    pub gen_late_ms: Vec<f64>,
    /// Host-speed reference times taken before set-up and through the
    /// campaign, and their median.
    pub probe_ms: Vec<f64>,
    pub speed_ms: f64,
    pub loc_err_m: f64,
    pub recon_err_db: f64,
    /// Each deployment's final published database.
    pub finals: Vec<FingerprintMatrix>,
    pub tally: Tally,
    pub spans: Option<Spans>,
}

impl Rep {
    /// `t`, measured during this repetition, at the nominal host speed
    /// (unchanged where the workload takes no probes).
    pub fn at_nominal(&self, t: f64) -> f64 {
        t * speed::scale(self.speed_ms)
    }
}

/// Bit-for-bit equality of two databases.
pub fn same_bits(a: &FingerprintMatrix, b: &FingerprintMatrix) -> bool {
    a.matrix().shape() == b.matrix().shape()
        && a.matrix()
            .as_slice()
            .iter()
            .zip(b.matrix().as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Threads the host-speed probe runs on: as many as the work it stands
/// for. `None` for the open loop, which takes no probes and is reported
/// raw: its queries fall due on a wall-clock schedule, so a slower host
/// sees a busier program, not a uniformly slower one.
fn probe_threads(w: &Workload) -> Option<usize> {
    match w.traffic {
        Traffic::Storm { .. } => {
            Some(w.pool_width(std::thread::available_parallelism().map_or(1, |n| n.get())))
        }
        Traffic::Burst { .. } => Some(1),
        Traffic::OpenLoop { .. } => None,
    }
}

/// Takes one host-speed probe, unless the workload is reported raw.
fn probe(w: &Workload, probe_ms: &mut Vec<f64>) {
    if let Some(threads) = probe_threads(w) {
        probe_ms.push(speed::probe_ms(threads));
    }
}

/// Set-up as `setup_s` times it: registers every deployment (day-0
/// survey, MIC, LRR, localizer prepare) and launches the gateway.
fn set_up(w: &Workload, testbeds: Vec<Testbed>) -> FleetGateway {
    let mut service = UpdateService::new();
    for ((name, _), tb) in w.deployments.iter().zip(testbeds) {
        service
            .register(name.clone(), tb, UpdaterConfig::default(), w.survey_samples)
            .expect("registration");
    }
    FleetGateway::launch(service).expect("gateway launch")
}

/// The time of one set-up alone, in seconds.
pub fn setup_alone_s(w: &Workload, inputs: &Inputs) -> f64 {
    let testbeds = inputs.testbeds.clone();
    let start = Instant::now();
    let gw = set_up(w, testbeds);
    let setup_s = start.elapsed().as_secs_f64();
    // The fleet is of no further use; a failed shutdown would show in
    // the repetitions' own checks.
    let _ = gw.shutdown();
    setup_s
}

/// Sets up the fleet, runs the campaign, and checks what it served.
/// With `traced`, spans are recorded around gateway calls and the
/// gateway and persist layers are probed after the clock stops.
pub fn run_rep(w: &Workload, inputs: &Inputs, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let mut spans = traced.then(Spans::default);
    let testbeds = inputs.testbeds.clone();
    let batches = inputs.batches.clone();

    probe(w, &mut rep.probe_ms);
    let start = Instant::now();
    let gw = set_up(w, testbeds);
    rep.setup_s = start.elapsed().as_secs_f64();

    // The launch epoch: open-loop reads may land on it.
    let mut samples: Vec<EpochSample> = gw
        .ids()
        .into_iter()
        .enumerate()
        .map(|(k, id)| EpochSample::of(&gw.published(id).expect("ids come from the gateway"), k))
        .collect();
    let traffic_queries = w.days.len()
        * match w.traffic {
            Traffic::Burst { queries } => queries,
            Traffic::Storm { slab, slabs } => slab * slabs,
            Traffic::OpenLoop { .. } => 0,
        };
    let traffic_calls = match w.traffic {
        Traffic::Storm { slabs, .. } => w.days.len() * slabs,
        Traffic::Burst { .. } | Traffic::OpenLoop { .. } => traffic_queries,
    };
    rep.query_us.reserve_exact(traffic_calls);
    rep.gen_late_ms.reserve_exact(traffic_queries);
    let start = Instant::now();
    let stop = AtomicBool::new(false);
    let ((checkpoint, probing_s), reader) = std::thread::scope(|s| {
        let reader = match w.traffic {
            Traffic::OpenLoop { rate_qps } => {
                let (gw, pool, stop) = (&gw, &inputs.pool, &stop);
                Some(s.spawn(move || read_open_loop(gw, pool, rate_qps, stop)))
            }
            Traffic::Burst { .. } | Traffic::Storm { .. } => None,
        };
        let written = write_phase(w, inputs, &gw, batches, &mut rep, &mut spans, &mut samples);
        stop.store(true, Ordering::Release);
        let reader = reader.map(|r| r.join().expect("the open-loop reader does not panic"));
        (written, reader)
    });
    rep.campaign_s = start.elapsed().as_secs_f64() - probing_s;
    rep.speed_ms = median(&rep.probe_ms).map_or(speed::NOMINAL_MS, |p| p.value);
    if let Some(reader) = reader {
        reader.absorb(&inputs.pool, &mut rep, &mut samples);
    }

    // Correctness gate, outside the clock.
    for sample in samples.iter().filter(|s| !s.answers.is_empty()) {
        let oracle = Localizer::new(sample.database.clone(), LocalizerConfig::default());
        for (y, served) in &sample.answers {
            match oracle.localize_unprepared(y) {
                Ok(truth)
                    if &truth == served
                        && truth.residual_sq.to_bits() == served.residual_sq.to_bits() => {}
                Ok(_) => rep
                    .tally
                    .fail(1, "a served answer differs from the unprepared oracle"),
                Err(e) => rep.tally.fail(1, format!("oracle: {e}")),
            }
        }
    }
    if let Some((snapshot, bytes)) = checkpoint {
        match persist::read_service(&bytes[..]) {
            Ok(read) if read == snapshot => {}
            _ => rep.tally.fail(1, "the last checkpoint does not read back"),
        }
    }
    let ids = gw.ids();
    rep.finals = ids
        .iter()
        .map(|&id| {
            gw.published(id)
                .expect("ids come from the gateway")
                .fingerprint()
                .clone()
        })
        .collect();
    rep.recon_err_db = rep
        .finals
        .iter()
        .zip(&inputs.truth)
        .map(|(fp, truth)| mean_reconstruction_error(fp.matrix(), truth.matrix()).expect("shapes"))
        .sum::<f64>()
        / ids.len() as f64;
    if let Some(spans) = spans.as_mut() {
        probe_gateway(w, inputs, &gw, spans);
    }
    rep.spans = spans;
    match gw.shutdown() {
        Ok(report) if report.pending.is_empty() => {}
        Ok(report) => rep.tally.fail(
            report.pending.len(),
            "accepted batches were left uncommitted",
        ),
        Err(e) => rep.tally.fail(1, format!("shutdown: {e}")),
    }
    rep
}

/// The timed write phase: per cycle, ingest every deployment's batch,
/// run the cycle, answer the accuracy slabs on the pinned post-commit
/// epoch, checkpoint, and run the closed-loop traffic; every few cycles
/// the host-speed reference is probed. Returns the last checkpoint with
/// its bytes, and the time spent probing, which the caller takes off
/// the clock.
fn write_phase(
    w: &Workload,
    inputs: &Inputs,
    gw: &FleetGateway,
    batches: Vec<Vec<MeasurementBatch>>,
    rep: &mut Rep,
    spans: &mut Option<Spans>,
    samples: &mut Vec<EpochSample>,
) -> (Option<(ServiceSnapshot, Vec<u8>)>, f64) {
    let ids = gw.ids();
    let mut err_m = 0.0;
    let mut answers = 0usize;
    let mut checkpoint = None;
    let mut bytes = Vec::new();
    let mut probing_s = 0.0;
    let probe_every = w.days.len().div_ceil(PROBES_PER_CAMPAIGN);
    for (c, (day_batches, &day)) in batches.into_iter().zip(&w.days).enumerate() {
        if c % probe_every == 0 {
            let t = Instant::now();
            probe(w, &mut rep.probe_ms);
            probing_s += t.elapsed().as_secs_f64();
        }
        let lag = Instant::now();
        let ingested = day_batches.len();
        for (&id, batch) in ids.iter().zip(day_batches) {
            let t = Instant::now();
            rep.tally.attempted += 1;
            if let Err(e) = gw.ingest(id, batch) {
                rep.tally.fail(1, format!("ingest, day {day}: {e}"));
            }
            if let Some(spans) = spans.as_mut() {
                spans.ingest_us.push(us_since(t));
            }
        }
        rep.tally.attempted += 1;
        match gw.run_cycle(day, BATCH_SAMPLES) {
            Ok(outcomes) => {
                rep.publish_lag_ms.push(ms_since(lag));
                // A testbed pull would add an outcome, or one at
                // another day: every cycle must drain exactly the
                // batches ingested for it.
                if outcomes.len() != ingested || outcomes.iter().any(|o| o.day != day) {
                    rep.tally.fail(
                        1,
                        format!("cycle, day {day}: not fed by its ingested batches"),
                    );
                }
            }
            Err(e) => rep.tally.fail(1, format!("cycle, day {day}: {e}")),
        }

        let base = samples.len();
        for (k, &id) in ids.iter().enumerate() {
            let snap = gw.published(id).expect("ids come from the gateway");
            let slab = &inputs.slabs[c][k];
            rep.tally.attempted += slab.len();
            if snap.epoch() != c as u64 + 2 {
                rep.tally.fail(
                    1,
                    format!(
                        "day {day}: epoch {} is not the post-commit epoch",
                        snap.epoch()
                    ),
                );
            }
            let mut sample = EpochSample::of(&snap, k);
            match snap.localize_batch(slab) {
                Ok(estimates) => {
                    let deployment = inputs.testbeds[k].deployment();
                    for (j, est) in estimates.iter().enumerate() {
                        err_m += localization_error_m(deployment, j, est.grid);
                    }
                    answers += estimates.len();
                    sample.answers.extend(
                        estimates
                            .into_iter()
                            .enumerate()
                            .step_by(ORACLE_STRIDE)
                            .map(|(j, est)| (slab[j].clone(), est)),
                    );
                }
                Err(e) => rep
                    .tally
                    .fail(slab.len(), format!("accuracy slab, day {day}: {e}")),
            }
            samples.push(sample);
        }

        if w.checkpoint {
            let t = Instant::now();
            rep.tally.attempted += 1;
            bytes.clear();
            match gw.snapshot() {
                Ok(snapshot) => match persist::write_service(&snapshot, &mut bytes) {
                    Ok(()) => checkpoint = Some(snapshot),
                    Err(e) => rep
                        .tally
                        .fail(1, format!("checkpoint write, day {day}: {e}")),
                },
                Err(e) => rep
                    .tally
                    .fail(1, format!("checkpoint snapshot, day {day}: {e}")),
            }
            if let Some(spans) = spans.as_mut() {
                spans.persist_ms.push(ms_since(t));
                spans.persist_bytes = bytes.len();
            }
        }

        match w.traffic {
            Traffic::Burst { queries } => burst(
                gw,
                &ids,
                &inputs.pool,
                queries,
                c,
                rep,
                &mut samples[base..],
            ),
            Traffic::Storm { slab, slabs } => storm(
                gw,
                &ids,
                &inputs.pool,
                slab,
                slabs,
                c,
                rep,
                &mut samples[base..],
            ),
            // The reader thread runs beside the cycles.
            Traffic::OpenLoop { .. } => {}
        }
    }
    rep.loc_err_m = err_m / answers.max(1) as f64;
    (checkpoint.map(|snapshot| (snapshot, bytes)), probing_s)
}

/// A closed-loop burst of single reads, round-robin across deployments,
/// each timed from submission to answer.
fn burst(
    gw: &FleetGateway,
    ids: &[DeploymentId],
    pool: &[Vec<Vec<f64>>],
    queries: usize,
    cycle: usize,
    rep: &mut Rep,
    epoch: &mut [EpochSample],
) {
    let read = Instant::now();
    let mut previous: Option<Instant> = None;
    for q in 0..queries {
        let k = q % ids.len();
        let y = &pool[k][(cycle * queries + q) / ids.len() % pool[k].len()];
        let sent = Instant::now();
        if let Some(p) = previous {
            rep.gen_late_ms.push((sent - p).as_secs_f64() * 1e3);
        }
        let answer = gw.localize(ids[k], y);
        let done = Instant::now();
        rep.query_us.push((done - sent).as_secs_f64() * 1e6);
        previous = Some(done);
        match answer {
            Ok(est) => {
                rep.answered += 1;
                if q % ORACLE_STRIDE == 0 {
                    epoch[k].answers.push((y.clone(), est));
                }
            }
            Err(e) => rep.tally.fail(1, format!("burst read: {e}")),
        }
    }
    rep.tally.attempted += queries;
    rep.read_s += read.elapsed().as_secs_f64();
}

/// A closed loop of fixed-size batched slabs, round-robin across
/// deployments. Every query of a slab shares the slab's duration.
#[allow(clippy::too_many_arguments)]
fn storm(
    gw: &FleetGateway,
    ids: &[DeploymentId],
    pool: &[Vec<Vec<f64>>],
    slab: usize,
    slabs: usize,
    cycle: usize,
    rep: &mut Rep,
    epoch: &mut [EpochSample],
) {
    let read = Instant::now();
    let mut previous: Option<Instant> = None;
    for s in 0..slabs {
        let k = s % ids.len();
        let windows = pool[k].len() / slab;
        let first = (cycle * slabs + s) / ids.len() % windows * slab;
        let window = &pool[k][first..first + slab];
        let sent = Instant::now();
        if let Some(p) = previous {
            let gap = (sent - p).as_secs_f64() * 1e3;
            rep.gen_late_ms.extend(std::iter::repeat_n(gap, slab));
        }
        let answer = gw.localize_batch(ids[k], window);
        let done = Instant::now();
        rep.query_us.push((done - sent).as_secs_f64() * 1e6);
        previous = Some(done);
        match answer {
            Ok(estimates) => {
                rep.answered += slab;
                if s < ids.len() {
                    epoch[k].answers.extend(
                        estimates
                            .into_iter()
                            .enumerate()
                            .step_by(ORACLE_STRIDE)
                            .map(|(j, est)| (window[j].clone(), est)),
                    );
                }
            }
            Err(e) => rep.tally.fail(slab, format!("storm slab: {e}")),
        }
    }
    rep.tally.attempted += slab * slabs;
    rep.read_s += read.elapsed().as_secs_f64();
}

/// Deployment and query of the open-loop reader's `q`-th read:
/// round-robin across deployments, each replaying its pool.
fn reader_query(pool: &[Vec<Vec<f64>>], q: usize) -> (usize, &[f64]) {
    let k = q % pool.len();
    (k, &pool[k][q / pool.len() % pool[k].len()])
}

/// What the open-loop reader measured, and the answers it kept.
struct ReaderLog {
    log: OpenLoopLog,
    answered: usize,
    tally: Tally,
    /// Sampled answers whose epoch is known: epoch, read number and
    /// answer.
    kept: Vec<(u64, usize, LocationEstimate)>,
}

/// The open-loop reader: single `FleetGateway::localize` calls at
/// `rate_qps` until `stop` is set. Reads race the commits, so they feed
/// latency only; a sampled answer is kept for the oracle when no commit
/// landed during its call, which fixes the epoch it was served on.
fn read_open_loop(
    gw: &FleetGateway,
    pool: &[Vec<Vec<f64>>],
    rate_qps: f64,
    stop: &AtomicBool,
) -> ReaderLog {
    let ids = gw.ids();
    let mut answered = 0;
    let mut tally = Tally::default();
    let mut kept = Vec::new();
    let log = open_loop(rate_qps, stop, |q| {
        let (k, y) = reader_query(pool, q);
        let before = if q % ORACLE_STRIDE == 0 {
            gw.epoch(ids[k]).ok()
        } else {
            None
        };
        match gw.localize(ids[k], y) {
            Ok(est) => {
                answered += 1;
                if let Some(e) = before.filter(|&e| gw.epoch(ids[k]).ok() == Some(e)) {
                    kept.push((e, q, est));
                }
            }
            Err(e) => tally.fail(1, format!("open-loop read: {e}")),
        }
    });
    tally.attempted += log.latency_us.len();
    ReaderLog {
        log,
        answered,
        tally,
        kept,
    }
}

impl ReaderLog {
    /// Moves the reader's figures into `rep`, and each kept answer to
    /// the epoch it was served on.
    fn absorb(self, pool: &[Vec<Vec<f64>>], rep: &mut Rep, samples: &mut [EpochSample]) {
        rep.query_us = self.log.latency_us;
        rep.gen_late_ms = self.log.late_ms;
        rep.read_s += self.log.span_s;
        rep.answered += self.answered;
        rep.tally.absorb(self.tally);
        for (epoch, q, est) in self.kept {
            let (k, y) = reader_query(pool, q);
            match samples
                .iter_mut()
                .find(|s| s.epoch == epoch && s.deployment == k)
            {
                Some(sample) => sample.answers.push((y.to_vec(), est)),
                None => rep.tally.fail(
                    1,
                    format!("a read was served on epoch {epoch}, never published"),
                ),
            }
        }
    }
}

/// Pins taken per timed batch: one pin is a few tens of nanoseconds,
/// too short to time alone.
const PINS_PER_SPAN: usize = 64;

/// Probes the live gateway after the clock stopped: the epoch pin, the
/// read overhead of going through the gateway, and (where the campaign
/// took no checkpoints) a snapshot persisted as database text.
fn probe_gateway(w: &Workload, inputs: &Inputs, gw: &FleetGateway, spans: &mut Spans) {
    let id = gw.ids()[0];
    for _ in 0..256 {
        let t = Instant::now();
        for _ in 0..PINS_PER_SPAN {
            black_box(gw.published(id).expect("ids come from the gateway"));
        }
        spans
            .pin_ns
            .push(t.elapsed().as_secs_f64() * 1e9 / PINS_PER_SPAN as f64);
    }
    let snap = gw.published(id).expect("ids come from the gateway");
    for y in inputs.pool[0].iter().cycle().take(2048) {
        let t = Instant::now();
        black_box(gw.localize(id, y).ok());
        spans.gateway_read_us.push(us_since(t));
        let t = Instant::now();
        black_box(snap.localizer().localize(y).ok());
        spans.direct_read_us.push(us_since(t));
    }
    if !w.checkpoint {
        // `write_service` refuses custom environments, so the scaled
        // deployments persist their committed databases instead.
        let t = Instant::now();
        let mut bytes = Vec::new();
        if let Ok(snapshot) = gw.snapshot() {
            for d in &snapshot.deployments {
                let _ = persist::write_fingerprint(&d.current, &mut bytes);
            }
        }
        spans.persist_ms.push(ms_since(t));
        spans.persist_bytes = bytes.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::generate;
    use iupdater_rfsim::Environment;

    fn tiny(traffic: Traffic) -> Workload {
        Workload {
            name: "tiny",
            deployments: vec![
                ("office".into(), Environment::office()),
                ("hall".into(), Environment::hall()),
            ],
            survey_samples: 5,
            days: vec![3.0, 5.0],
            traffic,
            pool: 32,
            checkpoint: true,
        }
    }

    #[test]
    fn small_runs_give_bit_identical_accuracy() {
        for traffic in [
            Traffic::Burst { queries: 40 },
            Traffic::Storm { slab: 16, slabs: 4 },
            Traffic::OpenLoop { rate_qps: 5000.0 },
        ] {
            let w = tiny(traffic);
            let (inputs, _) = generate(&w, 7);
            let a = run_rep(&w, &inputs, false);
            let b = run_rep(&w, &inputs, true);
            // Another seed draws other traffic, never other accuracy.
            let (regenerated, _) = generate(&w, 8);
            let c = run_rep(&w, &regenerated, false);
            for r in [&a, &b, &c] {
                assert_eq!(r.tally.failed, 0, "{traffic:?}: {:?}", r.tally.reasons);
                assert_eq!(r.publish_lag_ms.len(), 2);
                assert!(r.answered > 0);
                assert_eq!(r.loc_err_m.to_bits(), a.loc_err_m.to_bits(), "{traffic:?}");
                assert_eq!(
                    r.recon_err_db.to_bits(),
                    a.recon_err_db.to_bits(),
                    "{traffic:?}"
                );
                assert!(r.finals.iter().zip(&a.finals).all(|(x, y)| same_bits(x, y)));
            }
            assert!(a.loc_err_m.is_finite() && a.recon_err_db > 0.0);
            let spans = b.spans.expect("traced repetition");
            assert_eq!(spans.ingest_us.len(), 4);
            assert_eq!(spans.persist_ms.len(), 2);
        }
    }

    #[test]
    fn the_seed_draws_the_traffic_and_nothing_else() {
        let w = tiny(Traffic::Burst { queries: 8 });
        let (a, _) = generate(&w, 7);
        let (b, _) = generate(&w, 8);
        assert_ne!(a.pool[0], b.pool[0]);
        assert_eq!(a.pool[0], generate(&w, 7).0.pool[0]);
        assert_eq!(a.slabs, b.slabs);
    }
}
