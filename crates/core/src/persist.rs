//! Self-contained persistence: versioned, human-readable text formats
//! with no external dependencies (useful for nightly snapshots on an
//! embedded gateway). `serde` `Serialize`/`Deserialize` impls are
//! additionally available behind the `serde` feature for users who
//! bring their own format.
//!
//! Two formats are defined:
//!
//! # v1 — single fingerprint database
//!
//! Written by [`write_fingerprint`], read by [`read_fingerprint`]
//! (line-oriented, values at 6 decimals):
//!
//! ```text
//! iupdater-fingerprint v1
//! links <M>
//! per_link <N/M>
//! row <x_11> <x_12> ... <x_1N>
//! ...                          (M `row` lines)
//! ```
//!
//! # v3 — update-service snapshot
//!
//! Written by [`write_service`], read by [`read_service`]: a whole
//! fleet ([`ServiceSnapshot`]) in one file, so a gateway can checkpoint
//! after every cycle and resume after a restart. Unlike v1, RSS values
//! (and all other floats) are written with full round-trip precision —
//! a restored fleet must continue **bit-identically** to an
//! uninterrupted one. v3 additionally records each engine's
//! *warm-start basis* (the correlation matrix `Z` alongside the
//! reference locations), so restore rebuilds engines directly from the
//! file instead of re-running MIC extraction and LRR learning — see
//! [`crate::Updater::from_basis`]. The grammar (one deployment record
//! per fleet member, in registration order):
//!
//! ```text
//! iupdater-service v3
//! deployments <K>
//! deployment <k>                      (0-based, in order: 0..K)
//! name <name>                         (rest of line; single line, non-empty)
//! env <office|library|hall> <seed>    (environment preset + testbed seed)
//! cycles_run <count>
//! last_update_day <day>
//! config rank=<r|none> lambda=<v> weight_fit=<v> weight_ref=<v>
//!        weight_continuity=<v> weight_similarity=<v> max_iter=<n>
//!        tol=<v> coupling=<exact|paper_literal> scaling=<auto|fixed>
//!        use_constraint1=<bool> use_constraint2=<bool> seed=<n>
//!        rank_tol=<v>                 (single line, keys in this order)
//! refs <r> <j_1> ... <j_r>            (the engine's reference locations)
//! seed <s> <j_1> ... <j_s>            (pre-truncation MIC set; refs is its prefix)
//! basis <r> <N>                       (warm-start correlation Z, or `basis none`)
//! zrow <...>                          (r rows of N full-precision values)
//! prior                               (database the engine was built from)
//! links <M>
//! per_link <N/M>
//! row ...                             (M rows, full-precision values)
//! current                             (live database; same block shape)
//! links <M>
//! per_link <N/M>
//! row ...
//! ```
//!
//! The legacy v2 format (identical except for the header and the
//! absent `seed` / `basis` sections) stays readable; such snapshots
//! restore through the slow path (engine re-derivation from `prior`,
//! with the recorded reference set as an integrity check), and their
//! seed set defaults to the reference locations.
//!
//! All readers reject trailing non-blank content after the final row
//! and non-finite values; all writers refuse to serialise non-finite
//! values in the first place (a `NaN` database must never round-trip
//! into a "valid" file that poisons downstream solves). I/O failures
//! are reported as [`CoreError::Io`], preserving the underlying
//! `std::io::Error` kind and message.

use std::io::{BufRead, Write};

use iupdater_linalg::Matrix;
use iupdater_rfsim::{Environment, EnvironmentKind};

use crate::config::{CouplingMode, ScalingMode, UpdaterConfig};
use crate::fingerprint::FingerprintMatrix;
use crate::service::{DeploymentSnapshot, ServiceSnapshot};
use crate::{CoreError, Result};

/// v1 format magic / version header (single fingerprint database).
const HEADER: &str = "iupdater-fingerprint v1";

/// Legacy v2 service-snapshot header (no warm-start basis); still
/// accepted by [`read_service`].
const SERVICE_HEADER_V2: &str = "iupdater-service v2";

/// v3 format magic / version header (update-service snapshot with the
/// warm-start basis).
const SERVICE_HEADER: &str = "iupdater-service v3";

fn write_err(e: std::io::Error) -> CoreError {
    CoreError::from_io("write", &e)
}

fn read_err(e: std::io::Error) -> CoreError {
    CoreError::from_io("read", &e)
}

/// Writes a fingerprint database to a writer in the v1 format
/// (6-decimal values).
///
/// # Errors
///
/// Returns [`CoreError::Io`] on write failure (preserving the
/// underlying error's kind and message) and
/// [`CoreError::InvalidArgument`] for non-finite RSS values.
pub fn write_fingerprint<W: Write>(fp: &FingerprintMatrix, mut w: W) -> Result<()> {
    check_finite(fp.matrix())?;
    writeln!(w, "{HEADER}").map_err(write_err)?;
    write_block(fp, &mut w, false)
}

/// Writes the `links` / `per_link` / `row` block shared by both
/// formats. v1 keeps the historical 6-decimal rendering;
/// `full_precision` (v2) uses the shortest exact representation.
fn write_block<W: Write>(fp: &FingerprintMatrix, w: &mut W, full_precision: bool) -> Result<()> {
    writeln!(w, "links {}", fp.num_links()).map_err(write_err)?;
    writeln!(w, "per_link {}", fp.locations_per_link()).map_err(write_err)?;
    for i in 0..fp.num_links() {
        write!(w, "row").map_err(write_err)?;
        for j in 0..fp.num_locations() {
            if full_precision {
                write!(w, " {}", fp.rss(i, j)).map_err(write_err)?;
            } else {
                write!(w, " {:.6}", fp.rss(i, j)).map_err(write_err)?;
            }
        }
        writeln!(w).map_err(write_err)?;
    }
    Ok(())
}

fn check_finite(x: &Matrix) -> Result<()> {
    for i in 0..x.rows() {
        for j in 0..x.cols() {
            if !x[(i, j)].is_finite() {
                return Err(CoreError::InvalidArgument(
                    "refusing to serialise a non-finite RSS value",
                ));
            }
        }
    }
    Ok(())
}

/// Reads a fingerprint database from a reader (v1 format).
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] for malformed input (wrong
/// header, missing fields, bad or non-finite numbers, inconsistent row
/// lengths, trailing content after the last row) and [`CoreError::Io`]
/// for read failures.
pub fn read_fingerprint<R: BufRead>(r: R) -> Result<FingerprintMatrix> {
    let mut lines = r.lines();
    let header = next_line(&mut lines, "empty input")?;
    if header.trim() != HEADER {
        return Err(CoreError::InvalidArgument("unrecognised header"));
    }
    let fp = read_block(&mut lines)?;
    expect_eof(&mut lines)?;
    Ok(fp)
}

/// Reads the `links` / `per_link` / `row` block shared by both formats.
fn read_block(lines: &mut std::io::Lines<impl BufRead>) -> Result<FingerprintMatrix> {
    let bad = |msg: &'static str| CoreError::InvalidArgument(msg);
    let links = parse_field(lines, "links")?;
    let per = parse_field(lines, "per_link")?;
    if links == 0 || per == 0 {
        return Err(bad("links and per_link must be positive"));
    }
    // These counts come from the file: a corrupt or hostile snapshot
    // must produce a parse error, not an overflow panic or an absurd
    // allocation before the row parsing can reject it.
    let n = links
        .checked_mul(per)
        .ok_or(bad("links * per_link overflows"))?;
    let total = links
        .checked_mul(n)
        .ok_or(bad("links * per_link overflows"))?;
    let mut data = Vec::with_capacity(total.min(1 << 20));
    for _ in 0..links {
        let line = next_line(lines, "missing row line")?;
        let mut parts = line.split_whitespace();
        if parts.next() != Some("row") {
            return Err(bad("expected a `row` line"));
        }
        let values: std::result::Result<Vec<f64>, _> = parts.map(str::parse::<f64>).collect();
        let values = values.map_err(|_| bad("non-numeric RSS value"))?;
        if values.len() != n {
            return Err(bad("row length does not match links * per_link"));
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(bad("non-finite RSS value"));
        }
        data.extend(values);
    }
    let matrix = Matrix::from_vec(links, n, data)?;
    FingerprintMatrix::new(matrix, per)
}

/// Pulls the next line, mapping end-of-input to `missing` and I/O
/// failures to [`CoreError::Io`].
fn next_line(lines: &mut std::io::Lines<impl BufRead>, missing: &'static str) -> Result<String> {
    lines
        .next()
        .ok_or(CoreError::InvalidArgument(missing))?
        .map_err(read_err)
}

/// Requires that only blank lines remain: a truncated-then-concatenated
/// or doubled file must not parse as valid.
fn expect_eof(lines: &mut std::io::Lines<impl BufRead>) -> Result<()> {
    for line in lines {
        if !line.map_err(read_err)?.trim().is_empty() {
            return Err(CoreError::InvalidArgument(
                "trailing content after the last row",
            ));
        }
    }
    Ok(())
}

fn parse_field(lines: &mut std::io::Lines<impl BufRead>, name: &'static str) -> Result<usize> {
    let bad = |msg: &'static str| CoreError::InvalidArgument(msg);
    let line = next_line(lines, "missing header field")?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some(name) {
        return Err(bad("unexpected header field"));
    }
    parts
        .next()
        .ok_or(bad("missing field value"))?
        .parse::<usize>()
        .map_err(|_| bad("non-integer field value"))
}

/// Writes a whole-fleet snapshot to a writer in the v2 format (see the
/// module docs for the grammar).
///
/// # Errors
///
/// Returns [`CoreError::Io`] on write failure and
/// [`CoreError::InvalidArgument`] for snapshots the text format cannot
/// express: custom or modified environment presets, multi-line or
/// padded deployment names, and non-finite values anywhere.
pub fn write_service<W: Write>(snapshot: &ServiceSnapshot, mut w: W) -> Result<()> {
    let bad = |msg: &'static str| CoreError::InvalidArgument(msg);
    writeln!(w, "{SERVICE_HEADER}").map_err(write_err)?;
    writeln!(w, "deployments {}", snapshot.deployments.len()).map_err(write_err)?;
    for (k, d) in snapshot.deployments.iter().enumerate() {
        crate::service::validate_name(&d.name)?;
        let preset =
            preset_for_kind(d.env.kind).ok_or(bad("custom environments cannot be serialised"))?;
        if d.env != preset {
            return Err(bad("modified environment presets cannot be serialised"));
        }
        if !d.last_update_day.is_finite() {
            return Err(bad("refusing to serialise a non-finite last_update_day"));
        }
        check_finite(d.prior.matrix())?;
        check_finite(d.current.matrix())?;
        if let Some(z) = &d.correlation {
            check_finite(z)?;
            if z.rows() != d.reference_locations.len() {
                return Err(bad("warm-start basis rows must match the reference count"));
            }
            // Mirror the reader's width check so a checkpoint this
            // writer accepts is always restorable.
            if z.cols() != d.prior.num_locations() {
                return Err(bad("warm-start basis width must match the prior database"));
            }
        }
        if d.seed_locations.len() < d.reference_locations.len()
            || d.seed_locations[..d.reference_locations.len()] != d.reference_locations[..]
        {
            return Err(bad(
                "reference locations must be a prefix of the seed locations",
            ));
        }
        writeln!(w, "deployment {k}").map_err(write_err)?;
        writeln!(w, "name {}", d.name).map_err(write_err)?;
        writeln!(w, "env {} {}", d.env.kind, d.seed).map_err(write_err)?;
        writeln!(w, "cycles_run {}", d.cycles_run).map_err(write_err)?;
        writeln!(w, "last_update_day {}", d.last_update_day).map_err(write_err)?;
        writeln!(w, "config {}", render_config(&d.config)?).map_err(write_err)?;
        write!(w, "refs {}", d.reference_locations.len()).map_err(write_err)?;
        for &j in &d.reference_locations {
            write!(w, " {j}").map_err(write_err)?;
        }
        writeln!(w).map_err(write_err)?;
        write!(w, "seed {}", d.seed_locations.len()).map_err(write_err)?;
        for &j in &d.seed_locations {
            write!(w, " {j}").map_err(write_err)?;
        }
        writeln!(w).map_err(write_err)?;
        match &d.correlation {
            Some(z) => {
                writeln!(w, "basis {} {}", z.rows(), z.cols()).map_err(write_err)?;
                for i in 0..z.rows() {
                    write!(w, "zrow").map_err(write_err)?;
                    for j in 0..z.cols() {
                        write!(w, " {}", z[(i, j)]).map_err(write_err)?;
                    }
                    writeln!(w).map_err(write_err)?;
                }
            }
            None => writeln!(w, "basis none").map_err(write_err)?,
        }
        writeln!(w, "prior").map_err(write_err)?;
        write_block(&d.prior, &mut w, true)?;
        writeln!(w, "current").map_err(write_err)?;
        write_block(&d.current, &mut w, true)?;
    }
    Ok(())
}

/// Atomically replaces the file at `path` with the serialised v2
/// snapshot: the bytes are written to a `.tmp` sibling first and
/// renamed over `path`, so a crash mid-write never destroys the
/// previous good checkpoint — surviving exactly that kill is what
/// checkpointing is for.
///
/// # Errors
///
/// Same as [`write_service`], plus [`CoreError::Io`] for filesystem
/// failures (the temporary file is removed on any failure after its
/// creation).
pub fn write_service_to_path(snapshot: &ServiceSnapshot, path: &std::path::Path) -> Result<()> {
    let mut buf = Vec::new();
    write_service(snapshot, &mut buf)?;
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    // Write + fsync the temp file *before* the rename: a journaling
    // filesystem may commit the rename before the data blocks, and a
    // power cut in that window would leave a truncated checkpoint —
    // the crash this helper exists to survive. Clean the temp file up
    // on any failure so an ENOSPC gateway is not left with a partial
    // file eating the flash that caused the failure.
    let write_synced = |tmp: &std::path::Path| -> std::io::Result<()> {
        let mut f = std::fs::File::create(tmp)?;
        std::io::Write::write_all(&mut f, &buf)?;
        f.sync_all()
    };
    write_synced(&tmp).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        CoreError::from_io("write", &e)
    })?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        CoreError::from_io("write", &e)
    })?;
    // Best-effort directory sync so the rename itself is durable; not
    // all platforms/filesystems support fsync on a directory handle.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Reads a whole-fleet snapshot from a reader (v2 format). Pair with
/// [`crate::service::UpdateService::restore`] to bring the fleet back
/// up.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] for malformed input
/// (including trailing content and non-finite values) and
/// [`CoreError::Io`] for read failures.
pub fn read_service<R: BufRead>(r: R) -> Result<ServiceSnapshot> {
    let bad = |msg: &'static str| CoreError::InvalidArgument(msg);
    let mut lines = r.lines();
    let header = next_line(&mut lines, "empty input")?;
    let has_basis = match header.trim() {
        SERVICE_HEADER => true,
        SERVICE_HEADER_V2 => false,
        _ => return Err(bad("unrecognised header")),
    };
    let count = parse_field(&mut lines, "deployments")?;
    // `count` is file-supplied: cap the pre-allocation so a corrupt
    // header cannot panic with a capacity overflow (parsing still
    // fails cleanly when the records run out).
    let mut deployments = Vec::with_capacity(count.min(1024));
    for k in 0..count {
        if parse_field(&mut lines, "deployment")? != k {
            return Err(bad("deployment records out of order"));
        }
        let name_line = next_line(&mut lines, "missing name line")?;
        let name = match name_line.strip_prefix("name ") {
            Some(n) if !n.trim().is_empty() => n.to_string(),
            _ => return Err(bad("missing or empty deployment name")),
        };
        // Keep the reader's domain equal to the writer's: a padded
        // name would parse and restore fine, then fail only when the
        // fleet is re-serialised — after all the cycle work is done.
        if name.trim() != name {
            return Err(bad("deployment name must not have surrounding whitespace"));
        }
        let env_line = next_line(&mut lines, "missing env line")?;
        let mut parts = env_line.split_whitespace();
        if parts.next() != Some("env") {
            return Err(bad("expected an `env` line"));
        }
        let env = match parts.next() {
            Some("office") => Environment::office(),
            Some("library") => Environment::library(),
            Some("hall") => Environment::hall(),
            _ => return Err(bad("unknown environment preset")),
        };
        let seed = parts
            .next()
            .ok_or(bad("missing testbed seed"))?
            .parse::<u64>()
            .map_err(|_| bad("non-integer testbed seed"))?;
        let cycles_run = parse_field(&mut lines, "cycles_run")?;
        let last_update_day = parse_f64_field(&mut lines, "last_update_day")?;
        let config_line = next_line(&mut lines, "missing config line")?;
        let config = parse_config(&config_line)?;
        let refs_line = next_line(&mut lines, "missing refs line")?;
        let reference_locations = parse_location_list(&refs_line, "refs")?;
        let (seed_locations, correlation) = if has_basis {
            let seed_line = next_line(&mut lines, "missing seed line")?;
            let seed_locations = parse_location_list(&seed_line, "seed")?;
            if seed_locations.len() < reference_locations.len()
                || seed_locations[..reference_locations.len()] != reference_locations[..]
            {
                return Err(bad("refs must be a prefix of the seed locations"));
            }
            let correlation = parse_basis(&mut lines, reference_locations.len())?;
            (seed_locations, correlation)
        } else {
            // Legacy v2: no recorded seed; the reference set doubles as
            // the warm-start seed (restore re-derives the engine anyway).
            (reference_locations.clone(), None)
        };
        expect_tag(&mut lines, "prior")?;
        let prior = read_block(&mut lines)?;
        expect_tag(&mut lines, "current")?;
        let current = read_block(&mut lines)?;
        if let Some(z) = &correlation {
            if z.cols() != prior.num_locations() {
                return Err(bad(
                    "warm-start basis width does not match the prior database",
                ));
            }
        }
        deployments.push(DeploymentSnapshot {
            name,
            env,
            seed,
            config,
            cycles_run,
            last_update_day,
            reference_locations,
            correlation,
            seed_locations,
            prior,
            current,
        });
    }
    expect_eof(&mut lines)?;
    Ok(ServiceSnapshot { deployments })
}

/// Parses the v3 `basis` section: `basis none`, or `basis <r> <n>`
/// followed by `r` full-precision `zrow` lines.
fn parse_basis(
    lines: &mut std::io::Lines<impl BufRead>,
    ref_count: usize,
) -> Result<Option<Matrix>> {
    let bad = |msg: &'static str| CoreError::InvalidArgument(msg);
    let line = next_line(lines, "missing basis line")?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some("basis") {
        return Err(bad("expected a `basis` line"));
    }
    let first = parts.next().ok_or(bad("missing basis shape"))?;
    if first == "none" {
        if parts.next().is_some() {
            return Err(bad("unexpected content after `basis none`"));
        }
        return Ok(None);
    }
    let rows = first
        .parse::<usize>()
        .map_err(|_| bad("non-integer basis row count"))?;
    let cols = parts
        .next()
        .ok_or(bad("missing basis column count"))?
        .parse::<usize>()
        .map_err(|_| bad("non-integer basis column count"))?;
    if rows != ref_count {
        return Err(bad("basis row count does not match the reference count"));
    }
    if rows == 0 || cols == 0 {
        return Err(bad("basis shape must be positive"));
    }
    let total = rows.checked_mul(cols).ok_or(bad("basis shape overflows"))?;
    let mut data = Vec::with_capacity(total.min(1 << 20));
    for _ in 0..rows {
        let line = next_line(lines, "missing zrow line")?;
        let mut parts = line.split_whitespace();
        if parts.next() != Some("zrow") {
            return Err(bad("expected a `zrow` line"));
        }
        let values: std::result::Result<Vec<f64>, _> = parts.map(str::parse::<f64>).collect();
        let values = values.map_err(|_| bad("non-numeric basis value"))?;
        if values.len() != cols {
            return Err(bad("zrow length does not match the basis shape"));
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(bad("non-finite basis value"));
        }
        data.extend(values);
    }
    Ok(Some(Matrix::from_vec(rows, cols, data)?))
}

fn preset_for_kind(kind: EnvironmentKind) -> Option<Environment> {
    match kind {
        EnvironmentKind::Office => Some(Environment::office()),
        EnvironmentKind::Library => Some(Environment::library()),
        EnvironmentKind::Hall => Some(Environment::hall()),
        EnvironmentKind::Custom => None,
    }
}

fn expect_tag(lines: &mut std::io::Lines<impl BufRead>, tag: &'static str) -> Result<()> {
    let line = next_line(lines, "missing section tag")?;
    if line.trim() != tag {
        return Err(CoreError::InvalidArgument("unexpected section tag"));
    }
    Ok(())
}

fn parse_f64_field(lines: &mut std::io::Lines<impl BufRead>, name: &'static str) -> Result<f64> {
    let bad = |msg: &'static str| CoreError::InvalidArgument(msg);
    let line = next_line(lines, "missing header field")?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some(name) {
        return Err(bad("unexpected header field"));
    }
    let v = parts
        .next()
        .ok_or(bad("missing field value"))?
        .parse::<f64>()
        .map_err(|_| bad("non-numeric field value"))?;
    if !v.is_finite() {
        return Err(bad("non-finite field value"));
    }
    Ok(v)
}

/// Parses a `<tag> <count> <j_1> ... <j_count>` location-list line
/// (the `refs` and `seed` lines share this shape).
fn parse_location_list(line: &str, tag: &'static str) -> Result<Vec<usize>> {
    let bad = |msg: &'static str| CoreError::InvalidArgument(msg);
    let mut parts = line.split_whitespace();
    if parts.next() != Some(tag) {
        return Err(bad("unexpected location-list tag"));
    }
    let count = parts
        .next()
        .ok_or(bad("missing location count"))?
        .parse::<usize>()
        .map_err(|_| bad("non-integer location count"))?;
    let refs: std::result::Result<Vec<usize>, _> = parts.map(str::parse::<usize>).collect();
    let refs = refs.map_err(|_| bad("non-integer location index"))?;
    if refs.len() != count {
        return Err(bad("location count does not match the listed locations"));
    }
    Ok(refs)
}

/// Renders the config as the v2 `key=value` list (see module docs).
fn render_config(cfg: &UpdaterConfig) -> Result<String> {
    for v in [
        cfg.lambda,
        cfg.weight_fit,
        cfg.weight_ref,
        cfg.weight_continuity,
        cfg.weight_similarity,
        cfg.tol,
        cfg.rank_tol,
    ] {
        if !v.is_finite() {
            return Err(CoreError::InvalidArgument(
                "refusing to serialise a non-finite config value",
            ));
        }
    }
    let rank = match cfg.rank {
        Some(r) => r.to_string(),
        None => "none".to_string(),
    };
    let coupling = match cfg.coupling {
        CouplingMode::Exact => "exact",
        CouplingMode::PaperLiteral => "paper_literal",
    };
    let scaling = match cfg.scaling {
        ScalingMode::Auto => "auto",
        ScalingMode::Fixed => "fixed",
    };
    Ok(format!(
        "rank={rank} lambda={} weight_fit={} weight_ref={} weight_continuity={} \
         weight_similarity={} max_iter={} tol={} coupling={coupling} scaling={scaling} \
         use_constraint1={} use_constraint2={} seed={} rank_tol={}",
        cfg.lambda,
        cfg.weight_fit,
        cfg.weight_ref,
        cfg.weight_continuity,
        cfg.weight_similarity,
        cfg.max_iter,
        cfg.tol,
        cfg.use_constraint1,
        cfg.use_constraint2,
        cfg.seed,
        cfg.rank_tol,
    ))
}

/// Parses the v2 `config` line back into an [`UpdaterConfig`].
fn parse_config(line: &str) -> Result<UpdaterConfig> {
    let bad = |msg: &'static str| CoreError::InvalidArgument(msg);
    let mut parts = line.split_whitespace();
    if parts.next() != Some("config") {
        return Err(bad("expected a `config` line"));
    }
    // Every key must be present exactly once.
    const KEYS: [&str; 14] = [
        "rank",
        "lambda",
        "weight_fit",
        "weight_ref",
        "weight_continuity",
        "weight_similarity",
        "max_iter",
        "tol",
        "coupling",
        "scaling",
        "use_constraint1",
        "use_constraint2",
        "seed",
        "rank_tol",
    ];
    let mut cfg = UpdaterConfig::default();
    // Bitmask of the distinct keys seen: a duplicated key must not be
    // able to mask a missing one (the absent field would silently take
    // its default, breaking bit-identical restore).
    let mut seen = 0u16;
    for kv in parts {
        let (key, value) = kv.split_once('=').ok_or(bad("malformed config entry"))?;
        let bit = KEYS
            .iter()
            .position(|&k| k == key)
            .ok_or(bad("unknown config key"))?;
        if seen & (1 << bit) != 0 {
            return Err(bad("duplicate config key"));
        }
        seen |= 1 << bit;
        let f = |v: &str| -> Result<f64> {
            let x = v
                .parse::<f64>()
                .map_err(|_| bad("non-numeric config value"))?;
            if !x.is_finite() {
                return Err(bad("non-finite config value"));
            }
            Ok(x)
        };
        match key {
            "rank" => {
                cfg.rank = if value == "none" {
                    None
                } else {
                    Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| bad("non-integer config rank"))?,
                    )
                }
            }
            "lambda" => cfg.lambda = f(value)?,
            "weight_fit" => cfg.weight_fit = f(value)?,
            "weight_ref" => cfg.weight_ref = f(value)?,
            "weight_continuity" => cfg.weight_continuity = f(value)?,
            "weight_similarity" => cfg.weight_similarity = f(value)?,
            "max_iter" => {
                cfg.max_iter = value
                    .parse::<usize>()
                    .map_err(|_| bad("non-integer config max_iter"))?
            }
            "tol" => cfg.tol = f(value)?,
            "coupling" => {
                cfg.coupling = match value {
                    "exact" => CouplingMode::Exact,
                    "paper_literal" => CouplingMode::PaperLiteral,
                    _ => return Err(bad("unknown coupling mode")),
                }
            }
            "scaling" => {
                cfg.scaling = match value {
                    "auto" => ScalingMode::Auto,
                    "fixed" => ScalingMode::Fixed,
                    _ => return Err(bad("unknown scaling mode")),
                }
            }
            "use_constraint1" => {
                cfg.use_constraint1 = value
                    .parse::<bool>()
                    .map_err(|_| bad("non-boolean config value"))?
            }
            "use_constraint2" => {
                cfg.use_constraint2 = value
                    .parse::<bool>()
                    .map_err(|_| bad("non-boolean config value"))?
            }
            "seed" => {
                cfg.seed = value
                    .parse::<u64>()
                    .map_err(|_| bad("non-integer config seed"))?
            }
            "rank_tol" => cfg.rank_tol = f(value)?,
            // invariants: allow(panic-freedom) — the arms mirror the
            // KEYS table the key was already validated against.
            _ => unreachable!("key membership checked against KEYS above"),
        }
    }
    if seen != (1 << KEYS.len()) - 1 {
        return Err(bad("config line must list all 14 fields"));
    }
    cfg.validate().map_err(CoreError::InvalidArgument)?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::UpdateService;
    use iupdater_rfsim::{Environment, Testbed};

    fn sample() -> FingerprintMatrix {
        let t = Testbed::new(Environment::library(), 3);
        FingerprintMatrix::survey(&t, 0.0, 3)
    }

    #[test]
    fn roundtrip_preserves_database() {
        let fp = sample();
        let mut buf = Vec::new();
        write_fingerprint(&fp, &mut buf).unwrap();
        let back = read_fingerprint(buf.as_slice()).unwrap();
        assert_eq!(back.num_links(), fp.num_links());
        assert_eq!(back.locations_per_link(), fp.locations_per_link());
        // 6-decimal round trip.
        assert!(back.matrix().approx_eq(fp.matrix(), 1e-5));
    }

    #[test]
    fn header_is_versioned() {
        let fp = sample();
        let mut buf = Vec::new();
        write_fingerprint(&fp, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("iupdater-fingerprint v1\n"));
        assert!(text.contains("links 6"));
        assert!(text.contains("per_link 12"));
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(read_fingerprint("".as_bytes()).is_err());
        assert!(read_fingerprint("wrong header\n".as_bytes()).is_err());
        assert!(
            read_fingerprint("iupdater-fingerprint v1\nlinks 2\nper_link x\n".as_bytes()).is_err()
        );
        assert!(read_fingerprint(
            "iupdater-fingerprint v1\nlinks 2\nper_link 2\nrow 1 2 3 4\nrow 1 2 3\n".as_bytes()
        )
        .is_err());
        assert!(
            read_fingerprint("iupdater-fingerprint v1\nlinks 0\nper_link 2\n".as_bytes()).is_err()
        );
        assert!(read_fingerprint(
            "iupdater-fingerprint v1\nlinks 1\nper_link 2\nnotrow 1 2\n".as_bytes()
        )
        .is_err());
    }

    #[test]
    fn rejects_trailing_content_after_last_row() {
        let fp = sample();
        let mut buf = Vec::new();
        write_fingerprint(&fp, &mut buf).unwrap();
        // A doubled snapshot (e.g. a botched concatenation) must not
        // silently parse as the first copy.
        let mut doubled = buf.clone();
        doubled.extend_from_slice(&buf);
        assert!(read_fingerprint(doubled.as_slice()).is_err());
        let mut with_junk = buf.clone();
        with_junk.extend_from_slice(b"row 1 2\n");
        assert!(read_fingerprint(with_junk.as_slice()).is_err());
        // Trailing blank lines stay acceptable.
        let mut with_blank = buf.clone();
        with_blank.extend_from_slice(b"\n  \n");
        assert!(read_fingerprint(with_blank.as_slice()).is_ok());
    }

    #[test]
    fn rejects_non_finite_values() {
        // Write side: a NaN database must not serialise at all.
        let fp = FingerprintMatrix::new(
            iupdater_linalg::Matrix::from_rows(&[&[-60.0, f64::NAN], &[-55.0, -80.0]]),
            1,
        )
        .unwrap();
        let mut buf = Vec::new();
        assert!(matches!(
            write_fingerprint(&fp, &mut buf),
            Err(CoreError::InvalidArgument(_))
        ));
        // Read side: a hand-edited NaN must not round-trip as valid.
        let text = "iupdater-fingerprint v1\nlinks 2\nper_link 1\nrow NaN -70\nrow -55 -80\n";
        assert!(read_fingerprint(text.as_bytes()).is_err());
        let text = "iupdater-fingerprint v1\nlinks 2\nper_link 1\nrow inf -70\nrow -55 -80\n";
        assert!(read_fingerprint(text.as_bytes()).is_err());
    }

    #[test]
    fn write_failures_preserve_io_cause() {
        /// A writer whose disk is always full.
        struct FullDisk;
        impl std::io::Write for FullDisk {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "gateway flash exhausted",
                ))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_fingerprint(&sample(), FullDisk).unwrap_err();
        match &err {
            CoreError::Io { op, kind, message } => {
                assert_eq!(*op, "write");
                assert_eq!(*kind, std::io::ErrorKind::StorageFull);
                assert!(message.contains("gateway flash exhausted"));
            }
            other => panic!("expected CoreError::Io, got {other:?}"),
        }
    }

    #[test]
    fn negative_dbm_values_roundtrip_exactly_at_6dp() {
        let fp = FingerprintMatrix::new(
            Matrix::from_rows(&[&[-60.123456, -70.654321], &[-55.0, -80.999999]]),
            1,
        )
        .unwrap();
        let mut buf = Vec::new();
        write_fingerprint(&fp, &mut buf).unwrap();
        let back = read_fingerprint(buf.as_slice()).unwrap();
        assert!(back.matrix().approx_eq(fp.matrix(), 1e-6));
    }

    fn small_fleet() -> UpdateService {
        let mut s = UpdateService::new();
        s.register(
            "office-a",
            Testbed::new(Environment::office(), 5),
            UpdaterConfig::default(),
            3,
        )
        .unwrap();
        s.register(
            "library b",
            Testbed::new(Environment::library(), 6),
            UpdaterConfig {
                rank: Some(4),
                coupling: CouplingMode::PaperLiteral,
                scaling: ScalingMode::Auto,
                use_constraint2: false,
                ..UpdaterConfig::default()
            },
            3,
        )
        .unwrap();
        s
    }

    #[test]
    fn service_snapshot_roundtrips_exactly() {
        let mut s = small_fleet();
        s.run_cycle(15.0, 2).unwrap();
        let snap = s.snapshot();
        let mut buf = Vec::new();
        write_service(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("iupdater-service v3\n"));
        assert!(text.contains("deployments 2"));
        assert!(text.contains("name library b"));
        // The warm-start basis is recorded for every deployment.
        assert_eq!(text.matches("\nbasis ").count(), 2);
        assert!(!text.contains("basis none"));
        // Full precision: the parsed snapshot is *equal*, not just close.
        let back = read_service(buf.as_slice()).unwrap();
        assert_eq!(back, snap);
        assert!(back.deployments[0].correlation.is_some());
    }

    #[test]
    fn v2_snapshots_remain_readable_without_basis() {
        // Render a v2 file from a live fleet by downgrading the header
        // and dropping the basis sections — byte-wise what the PR-2
        // writer produced.
        let s = small_fleet();
        let snap = s.snapshot();
        let mut buf = Vec::new();
        write_service(&snap, &mut buf).unwrap();
        let v3 = String::from_utf8(buf).unwrap();
        let v2: String = v3
            .replace("iupdater-service v3", "iupdater-service v2")
            .lines()
            .filter(|l| {
                !(l.starts_with("basis ") || l.starts_with("zrow ") || l.starts_with("seed "))
            })
            .map(|l| format!("{l}\n"))
            .collect();
        let back = read_service(v2.as_bytes()).unwrap();
        assert_eq!(back.deployments.len(), snap.deployments.len());
        for (b, s) in back.deployments.iter().zip(&snap.deployments) {
            assert!(b.correlation.is_none(), "v2 carries no basis");
            assert_eq!(b.reference_locations, s.reference_locations);
            assert_eq!(b.prior, s.prior);
            assert_eq!(b.current, s.current);
        }
        // A v2 snapshot still restores (slow path: engine re-derivation).
        let restored = crate::service::UpdateService::restore(&back).unwrap();
        assert_eq!(restored.len(), snap.deployments.len());
        // And re-snapshotting it upgrades to v3 with the basis filled in.
        let upgraded = restored.snapshot();
        assert!(upgraded.deployments[0].correlation.is_some());
    }

    #[test]
    fn basis_section_is_validated() {
        let mut s = small_fleet();
        s.run_cycle(5.0, 1).unwrap();
        let mut buf = Vec::new();
        write_service(&s.snapshot(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();

        // Row count disagreeing with the refs line.
        let first_basis = text
            .lines()
            .find(|l| l.starts_with("basis "))
            .unwrap()
            .to_string();
        let mut parts = first_basis.split_whitespace();
        parts.next();
        let rows: usize = parts.next().unwrap().parse().unwrap();
        let cols: usize = parts.next().unwrap().parse().unwrap();
        let tampered = text.replacen(&first_basis, &format!("basis {} {cols}", rows + 1), 1);
        assert!(read_service(tampered.as_bytes()).is_err());

        // Non-finite basis value.
        let zrow = text.lines().find(|l| l.starts_with("zrow ")).unwrap();
        let mut fields: Vec<&str> = zrow.split(' ').collect();
        fields[1] = "NaN";
        let tampered = text.replacen(zrow, &fields.join(" "), 1);
        assert!(read_service(tampered.as_bytes()).is_err());

        // Basis width disagreeing with the prior database: the writer
        // must refuse (mirroring the reader's width check) so that no
        // unrestorable checkpoint can ever be produced.
        let mut snap = s.snapshot();
        snap.deployments[0].correlation = Some(Matrix::zeros(rows, cols - 1));
        assert!(write_service(&snap, Vec::new()).is_err());
        // The equivalent hand-edited file is rejected on read too.
        let narrow = text
            .replacen(&first_basis, &format!("basis {rows} {}", cols - 1), 1)
            .lines()
            .map(|l| {
                if l.starts_with("zrow ") {
                    l.rsplit_once(' ')
                        .map(|(head, _)| head.to_string())
                        .unwrap()
                } else {
                    l.to_string()
                }
            })
            .map(|l| format!("{l}\n"))
            .collect::<String>();
        assert!(read_service(narrow.as_bytes()).is_err());

        // A seed line that refs is not a prefix of must be rejected by
        // both writer and reader.
        let mut snap = s.snapshot();
        snap.deployments[0].seed_locations = vec![0];
        assert!(write_service(&snap, Vec::new()).is_err());
        let first_seed = text
            .lines()
            .find(|l| l.starts_with("seed "))
            .unwrap()
            .to_string();
        let tampered = text.replacen(&first_seed, "seed 1 0", 1);
        assert!(read_service(tampered.as_bytes()).is_err());

        // Writer refuses a basis whose shape disagrees with the refs.
        let mut snap = s.snapshot();
        snap.deployments[0].correlation = Some(Matrix::zeros(1, cols));
        assert!(write_service(&snap, Vec::new()).is_err());
        // …and a non-finite basis.
        let mut snap = s.snapshot();
        if let Some(z) = &mut snap.deployments[0].correlation {
            z[(0, 0)] = f64::INFINITY;
        }
        assert!(write_service(&snap, Vec::new()).is_err());
    }

    #[test]
    fn service_reader_rejects_malformed_input() {
        assert!(read_service("".as_bytes()).is_err());
        assert!(read_service("iupdater-fingerprint v1\n".as_bytes()).is_err());
        assert!(read_service("iupdater-service v2\ndeployments x\n".as_bytes()).is_err());
        // Truncated after the count.
        assert!(read_service("iupdater-service v2\ndeployments 1\n".as_bytes()).is_err());

        let mut buf = Vec::new();
        write_service(&small_fleet().snapshot(), &mut buf).unwrap();
        // Doubled file must not parse as the first copy.
        let mut doubled = buf.clone();
        doubled.extend_from_slice(&buf);
        assert!(read_service(doubled.as_slice()).is_err());
        // Corrupting the config line is caught.
        let text = String::from_utf8(buf).unwrap();
        let corrupted = text.replace("coupling=exact", "coupling=quantum");
        assert!(read_service(corrupted.as_bytes()).is_err());
        let missing = text.replace(" rank_tol=", " ranked_tol=");
        assert!(read_service(missing.as_bytes()).is_err());
        // A duplicated key must not mask a missing one: swapping
        // `tol=...` for a second `lambda=...` keeps 14 entries but
        // loses a field.
        let duplicated = text.replace(" tol=", " lambda=");
        assert!(read_service(duplicated.as_bytes()).is_err());
        // A padded name would only fail at re-serialisation time;
        // reject it at parse time instead.
        let padded = text.replace("name office-a\n", "name office-a \n");
        assert!(read_service(padded.as_bytes()).is_err());
    }

    #[test]
    fn service_reader_survives_hostile_counts() {
        // File-supplied counts must yield parse errors, not
        // capacity-overflow panics or absurd allocations.
        let huge = format!("iupdater-service v2\ndeployments {}\n", usize::MAX);
        assert!(read_service(huge.as_bytes()).is_err());
        let huge_links = format!(
            "iupdater-fingerprint v1\nlinks {}\nper_link {}\nrow 1\n",
            usize::MAX,
            usize::MAX
        );
        assert!(read_fingerprint(huge_links.as_bytes()).is_err());
        let huge_rows = format!(
            "iupdater-fingerprint v1\nlinks {}\nper_link 2\nrow 1\n",
            1usize << 40
        );
        assert!(read_fingerprint(huge_rows.as_bytes()).is_err());
    }

    #[test]
    fn service_writer_rejects_unserialisable_snapshots() {
        let mut snap = small_fleet().snapshot();
        snap.deployments[0].name = String::new();
        assert!(write_service(&snap, Vec::new()).is_err());

        let mut snap = small_fleet().snapshot();
        snap.deployments[0].env.kind = EnvironmentKind::Custom;
        assert!(write_service(&snap, Vec::new()).is_err());

        let mut snap = small_fleet().snapshot();
        snap.deployments[0].env.tx_power_dbm += 1.0;
        assert!(write_service(&snap, Vec::new()).is_err());

        let mut snap = small_fleet().snapshot();
        snap.deployments[0].last_update_day = f64::INFINITY;
        assert!(write_service(&snap, Vec::new()).is_err());
    }

    #[test]
    fn write_service_to_path_replaces_atomically() {
        let dir =
            std::env::temp_dir().join(format!("iupdater-persist-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.snap");

        let mut s = small_fleet();
        let first = s.snapshot();
        write_service_to_path(&first, &path).unwrap();
        assert_eq!(
            read_service(&*std::fs::read(&path).unwrap()).unwrap(),
            first
        );

        // Overwriting goes through a temp sibling that must not linger.
        s.run_cycle(5.0, 1).unwrap();
        let second = s.snapshot();
        write_service_to_path(&second, &path).unwrap();
        assert_eq!(
            read_service(&*std::fs::read(&path).unwrap()).unwrap(),
            second
        );
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "no .tmp leftover"
        );

        // A failed serialisation must leave the previous file intact.
        let mut bad = second.clone();
        bad.deployments[0].last_update_day = f64::NAN;
        assert!(write_service_to_path(&bad, &path).is_err());
        assert_eq!(
            read_service(&*std::fs::read(&path).unwrap()).unwrap(),
            second
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_line_roundtrips_every_field() {
        let cfg = UpdaterConfig {
            rank: Some(7),
            lambda: 0.125,
            weight_fit: 2.0,
            weight_ref: 0.5,
            weight_continuity: 0.3,
            weight_similarity: 0.07,
            max_iter: 33,
            tol: 1e-9,
            coupling: CouplingMode::PaperLiteral,
            scaling: ScalingMode::Auto,
            use_constraint1: false,
            use_constraint2: true,
            seed: 0xdead_beef,
            rank_tol: 0.05,
        };
        let line = format!("config {}", render_config(&cfg).unwrap());
        assert_eq!(parse_config(&line).unwrap(), cfg);
        // The retired `sweep_order` key is refused, never ignored: a
        // fleet written with the red-black order must not be restored
        // onto a different trajectory.
        let red_black = format!("{line} sweep_order=red_black");
        assert!(matches!(
            parse_config(&red_black),
            Err(CoreError::InvalidArgument(_))
        ));
        let mut buf = Vec::new();
        write_service(&small_fleet().snapshot(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let config = text.lines().find(|l| l.starts_with("config ")).unwrap();
        let tampered = text.replacen(config, &format!("{config} sweep_order=red_black"), 1);
        assert!(matches!(
            read_service(tampered.as_bytes()),
            Err(CoreError::InvalidArgument(_))
        ));
        let line = format!(
            "config {}",
            render_config(&UpdaterConfig::default()).unwrap()
        );
        assert_eq!(parse_config(&line).unwrap(), UpdaterConfig::default());
    }
}
