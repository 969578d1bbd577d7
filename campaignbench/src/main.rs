//! Whole-campaign benchmark of the fleet gateway.
//!
//! ```text
//! cargo run --release --manifest-path campaignbench/Cargo.toml -- \
//!     --workload fleet-8x96 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every input is generated before any clock starts. The untraced run
//! (`--trace 0`) repeats set-up plus campaign until `--seconds` have
//! passed (at least [`MIN_REPS`] times), then sets up alone until it
//! has [`MIN_SETUPS`] set-ups. It reports the end-to-end metrics as
//! medians over repetitions, or percentiles over the samples of all
//! repetitions pooled; closed-loop workloads scale every time to the
//! nominal host speed (see [`speed`]), and the open loop is reported
//! raw. The raw per-repetition figures are printed before them. The
//! traced run (`--trace 1`) runs one untraced and one traced
//! repetition and reports the per-layer metrics, raw.
//! Both check every served answer they sampled against the unprepared
//! oracle and every final database against a twin `UpdateService`. The
//! last line of standard output is one JSON object.

mod campaign;
mod layers;
mod reader;
mod speed;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use campaign::{run_rep, same_bits, Rep, Tally};
use stats::{median, percentile, Percentile};
use workload::{generate, Traffic, Workload, NAMES};

/// Repetitions of set-up plus campaign in an untraced run, however
/// short `--seconds` is: set-up time is the median of these.
const MIN_REPS: usize = 3;

/// Set-ups timed in an untraced run: one per repetition, then set-ups
/// alone until there are this many.
const MIN_SETUPS: usize = 7;

const USAGE: &str = "usage: campaignbench --workload <name> [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(&value).ok_or(format!(
                    "unknown workload {value}; known: {}",
                    NAMES.join(", ")
                ))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

/// The percentile the workload's constants guarantee enough samples for.
fn percentile_of(name: &str, samples: &[f64], p: u32) -> Percentile {
    percentile(samples, p).unwrap_or_else(|| {
        panic!(
            "{name}: {} samples cannot carry p{p} (a workload constant is too small)",
            samples.len()
        )
    })
}

fn pct(name: &'static str, samples: &[f64], p: u32, unit: &'static str) -> Metric {
    let pc = percentile_of(name, samples, p);
    Metric {
        name,
        value: pc.value,
        unit,
        samples: Some(pc.samples),
    }
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.into_iter().collect();
    median(&values).expect("at least one value").value
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map(|kib| kib / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

/// Identifies the code under test without needing git: FNV-1a over the
/// repository's manifests and crate sources, in path order.
fn source_digest() -> String {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    collect(&path, out);
                }
            } else if path
                .extension()
                .is_some_and(|ext| ext == "rs" || ext == "toml")
            {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect(&root.join("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let Ok(bytes) = std::fs::read(&file) else {
            continue;
        };
        let name = file.strip_prefix(&root).unwrap_or(&file).to_string_lossy();
        for b in name.bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv1a64:{hash:016x}")
}

/// Checks that hold across a run: every repetition served the same
/// accuracy, bit for bit, and committed the databases the twin
/// service commits from the same batches.
fn cross_checks(reps: &[&Rep], twin: &layers::Twin, tally: &mut Tally) {
    let first = reps[0];
    for rep in reps {
        if rep.loc_err_m.to_bits() != first.loc_err_m.to_bits()
            || rep.recon_err_db.to_bits() != first.recon_err_db.to_bits()
        {
            tally.fail(1, "accuracy differs between repetitions");
        }
        for (k, (fp, want)) in rep.finals.iter().zip(&twin.finals).enumerate() {
            if !same_bits(fp, want) {
                tally.fail(
                    1,
                    format!("deployment {k}: final database differs from the twin service's"),
                );
            }
        }
    }
}

fn untraced(w: &Workload, args: &Args) -> (Vec<Metric>, Tally) {
    let (inputs, twin) = generate(w, args.seed);
    let mut reps: Vec<Rep> = Vec::new();
    // Every repetition's per-cycle lags and per-call read times, pooled:
    // percentiles are taken over the pool.
    let (mut lag_ms, mut query_us) = (Vec::new(), Vec::new());
    let mut rss_peak_mb = 0.0;
    let start = Instant::now();
    // Another repetition starts only if one of average length still
    // fits, so a run measures for at most `--seconds` once it has
    // MIN_REPS repetitions.
    while reps.len() < MIN_REPS
        || start.elapsed().as_secs_f64() * (reps.len() + 1) as f64 / reps.len() as f64
            <= args.seconds
    {
        let mut rep = run_rep(w, &inputs, false);
        if reps.is_empty() {
            // Later repetitions add only to the benchmark's own pools,
            // whose size depends on how many repetitions fit.
            rss_peak_mb = peak_rss_mib();
        }
        let p50 = |v: &[f64]| median(v).expect("every repetition reads and cycles").value;
        println!(
            "repetition {} speed_ms={} setup_s={} campaign_s={} publish_lag_ms_p50={} query_us_p50={}",
            reps.len(),
            rep.speed_ms,
            rep.setup_s,
            rep.campaign_s,
            p50(&rep.publish_lag_ms),
            p50(&rep.query_us),
        );
        lag_ms.append(&mut rep.publish_lag_ms);
        query_us.append(&mut rep.query_us);
        rep.gen_late_ms = Vec::new();
        reps.push(rep);
    }
    let measured_s = start.elapsed().as_secs_f64();
    let mut setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setup_s.len() < MIN_SETUPS {
        setup_s.push(campaign::setup_alone_s(w, &inputs));
    }
    // One host speed for the run: the median of every probe it took.
    let probes: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.probe_ms.iter().copied())
        .collect();
    let speed_ms = median(&probes).map_or(speed::NOMINAL_MS, |p| p.value);
    let scale = speed::scale(speed_ms);
    let start = Instant::now();
    let twin = layers::drive_twin(w, &inputs, twin, false);
    println!(
        "phases gen_s={} measured_s={measured_s} twin_s={} repetitions={} speed_ms={speed_ms}",
        inputs.gen_s,
        start.elapsed().as_secs_f64(),
        reps.len()
    );
    let mut tally = Tally::default();
    cross_checks(&reps.iter().collect::<Vec<_>>(), &twin, &mut tally);
    let scaled = |mut m: Metric| {
        m.value *= scale;
        m
    };
    let metrics = vec![
        scaled(pct("setup_s", &setup_s, 50, "s")),
        scaled(metric(
            "campaign_s",
            med(reps.iter().map(|r| r.campaign_s)),
            "s",
        )),
        scaled(pct("publish_lag_ms_p50", &lag_ms, 50, "ms")),
        metric(
            "query_qps",
            med(reps.iter().map(|r| r.answered as f64 / r.read_s)) / scale,
            "1/s",
        ),
        scaled(pct("query_us_p50", &query_us, 50, "us")),
        scaled(pct("query_us_p99", &query_us, 99, "us")),
        metric("rss_peak_mb", rss_peak_mb, "MiB"),
        metric("loc_err_m", reps[0].loc_err_m, "m"),
        metric("recon_err_db", reps[0].recon_err_db, "dB"),
    ];
    for rep in reps {
        tally.absorb(rep.tally);
    }
    (metrics, tally)
}

fn traced(w: &Workload, args: &Args) -> (Vec<Metric>, Tally) {
    let (inputs, twin) = generate(w, args.seed);
    let plain = run_rep(w, &inputs, false);
    let rep = run_rep(w, &inputs, true);
    for (k, r) in [&plain, &rep].into_iter().enumerate() {
        println!(
            "repetition {k} traced={} speed_ms={} setup_s={} campaign_s={}",
            r.spans.is_some(),
            r.speed_ms,
            r.setup_s,
            r.campaign_s
        );
    }
    let setup = layers::probe_setup(w, &inputs);
    let reads = layers::probe_reads(&rep.finals[0], &inputs.pool[0]);
    let twin = layers::drive_twin(w, &inputs, twin, true);
    let mut tally = Tally::default();
    cross_checks(&[&plain, &rep], &twin, &mut tally);

    let spans = rep.spans.as_ref().expect("traced repetition records spans");
    let solves = &twin.solves;
    let p50 = |v: &[f64]| median(v).expect("probe samples").value;
    let cycle_self: Vec<f64> = twin
        .cycle_ms
        .iter()
        .zip(&solves.cycle_solve_ms)
        .zip(&solves.cycle_prepare_ms)
        .map(|((cycle, solve), prepare)| cycle - solve - prepare)
        .collect();
    let solve_total: f64 = solves.solve_ms.iter().sum();
    let metrics = vec![
        metric("mic.extract_ms", setup.mic_ms, "ms"),
        metric("correlation.lrr_ms", setup.lrr_ms, "ms"),
        metric(
            "reconstruct.updater_new_ms",
            setup.updater_new_ms - setup.mic_ms - setup.lrr_ms,
            "ms",
        ),
        pct("solver.solve_ms_p50", &solves.solve_ms, 50, "ms"),
        metric("solver.iterations", solves.iterations as f64, "count"),
        metric(
            "solver.ms_per_iter",
            solve_total / solves.iterations.max(1) as f64,
            "ms",
        ),
        pct("query.prepare_ms", &solves.prepare_ms, 50, "ms"),
        pct(
            "query.batch_us_per_query",
            &reads.batch_us_per_query,
            50,
            "us",
        ),
        pct("query.single_us_p50", &reads.scratch_us, 50, "us"),
        metric(
            "query.scratch_alloc_us",
            p50(&reads.plain_us) - p50(&reads.scratch_us),
            "us",
        ),
        metric(
            "query.chol_fallbacks_per_1k",
            reads.chol_fallbacks_per_1k,
            "count",
        ),
        pct("service.cycle_ms_p50", &twin.cycle_ms, 50, "ms"),
        pct("service.commit_self_ms", &cycle_self, 50, "ms"),
        pct("service.ingest_us", &twin.ingest_us, 50, "us"),
        pct("gateway.ingest_us", &spans.ingest_us, 50, "us"),
        metric(
            "gateway.publish_self_ms",
            p50(&rep.publish_lag_ms) - p50(&twin.cycle_ms),
            "ms",
        ),
        pct("gateway.pin_ns", &spans.pin_ns, 50, "ns"),
        metric(
            "gateway.read_overhead_us",
            p50(&spans.gateway_read_us) - p50(&spans.direct_read_us),
            "us",
        ),
        pct("persist.write_ms", &spans.persist_ms, 50, "ms"),
        metric("persist.bytes", spans.persist_bytes as f64, "B"),
        metric("gen_s", inputs.gen_s, "s"),
        pct("loadgen.late_ms_p99", &rep.gen_late_ms, 99, "ms"),
        // Both at the nominal host speed, so the difference is the
        // spans' cost rather than the host's drift between the two.
        metric(
            "trace.overhead_s",
            rep.at_nominal(rep.campaign_s) - plain.at_nominal(plain.campaign_s),
            "s",
        ),
    ];
    tally.absorb(plain.tally);
    tally.absorb(rep.tally);
    (metrics, tally)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    // The workload's pool width keeps program and benchmark threads
    // within the CPUs. The pool reads its width once, on first use;
    // nothing has touched it (and no thread exists) yet.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let width = w.pool_width(nproc);
    std::env::set_var("RAYON_NUM_THREADS", width.to_string());

    let (traffic, offered, slab) = match w.traffic {
        Traffic::Burst { queries } => (
            format!("closed-loop burst of {queries} single reads per cycle"),
            "closed-loop".to_string(),
            1,
        ),
        Traffic::Storm { slab, slabs } => (
            format!("closed-loop {slabs} slabs of {slab} queries per cycle"),
            "closed-loop".to_string(),
            slab,
        ),
        Traffic::OpenLoop { rate_qps } => (
            format!("open-loop reader at {rate_qps} queries/s beside the cycles"),
            rate_qps.to_string(),
            1,
        ),
    };
    println!(
        "host nproc={nproc} pool_width={width} workload={} seed={} seconds={} trace={} offered_qps={offered} slab={slab} commit={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        source_digest()
    );
    println!(
        "workload deployments={} cycles={} traffic=\"{traffic}\"",
        w.deployments.len(),
        w.days.len()
    );

    let (metrics, tally) = if args.trace {
        traced(w, &args)
    } else {
        untraced(w, &args)
    };
    for why in &tally.reasons {
        println!("failure {why}");
    }
    let mut json = Vec::new();
    for m in &metrics {
        assert!(m.value.is_finite(), "{} is not finite", m.name);
        match m.samples {
            Some(n) => println!("metric {} = {} {} (n={n})", m.name, m.value, m.unit),
            None => println!("metric {} = {} {}", m.name, m.value, m.unit),
        }
        json.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        json.join(", ")
    );
}
