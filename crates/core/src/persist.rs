//! Self-contained persistence: versioned, human-readable text formats
//! with no external dependencies (useful for nightly snapshots on an
//! embedded gateway).
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
//! A deployment written with `basis none` (no usable warm-start basis)
//! restores through the slow path: the engine is re-derived from
//! `prior`, with the recorded reference set as an integrity check. The
//! retired v2 format (no `seed` / `basis` sections) is no longer read;
//! its header is rejected like any unrecognised one.
//!
//! # v3 floats are `Display` text
//!
//! Every `row` and `zrow` value is the exact text of `format!("{x}")`:
//! the shortest decimal that reads back as `x`, the nearest to `x`
//! among the shortest, never with an exponent. The writer renders most
//! values with its own exact integer routine (`push_f64`) and the rest
//! with the std formatter, so the bytes equal the std formatter's by
//! construction, and each line is built in one reusable buffer and
//! written with one `write_all`. The routine takes normal values
//! `x = ±m·2^-s` (`m` the 53-bit significand) with `1 ≤ s ≤ 62`, that
//! is `2^-10 ≤ |x| < 2^52`, plus `±0`. It applies the shortest-digit
//! criterion of std's `flt2dec` (Steele–White / Burger–Dybvig):
//!
//! - `x` rounds back from anything inside `x ± 2^-(s+1)`, with the
//!   lower half-gap `2^-(s+2)` at a power of two (std's decoder).
//! - `K = ⌊(s + 2)·log₁₀2⌋ + 1` fractional digits suffice: then
//!   `10^-K < 2^-(s+2)`, the smallest half-gap, so `K`-digit decimals
//!   lie strictly inside the interval. Scaled by `10^K·2^(s+2-K)`,
//!   the value is `V = 4m·5^K` and the interval runs from
//!   `(4m − 2)·5^K` (`4m − 1` at a power of two) to `(4m + 2)·5^K`,
//!   all below `2^102` in `u128`; one shift by `s + 2 − K` turns them
//!   into multiples of `10^-K`.
//! - The endpoints have `s + 1` or `s + 2` fractional digits and
//!   `K ≤ s`, so neither is a `K`-digit decimal: whether the interval
//!   is closed (std's decoder closes it for even `m`) changes nothing.
//!   Nor does the halved lower half-gap inside the window: its powers
//!   of two, `2^-10 … 2^51`, have at most 16 significant digits and
//!   print exactly. The routine keeps that gap to mirror the decoder.
//! - The answer is a multiple of `10^(p−K)` inside the interval for
//!   the largest such `p`, the one nearer `x` when two are; the digits
//!   are printed with the point `K − p` places from the right. An
//!   exact tie between the two goes to the std formatter.
//!
//! Zeros excepted, values outside the window (subnormals, tiny or huge
//! magnitudes) also take the std formatter: 91 of the 6,480 values of
//! a three-preset fleet checkpoint. The v1 writer keeps its `{:.6}` text.
//!
//! All readers reject trailing non-blank content after the final row,
//! a non-blank last line without its newline (a file cut short inside
//! its last value would otherwise read as a different value) and
//! non-finite values; all writers refuse to serialise non-finite
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
/// `full_precision` (v3) writes each row as one [`write_line`].
fn write_block<W: Write>(fp: &FingerprintMatrix, w: &mut W, full_precision: bool) -> Result<()> {
    writeln!(w, "links {}", fp.num_links()).map_err(write_err)?;
    writeln!(w, "per_link {}", fp.locations_per_link()).map_err(write_err)?;
    let mut line = Vec::new();
    for i in 0..fp.num_links() {
        if full_precision {
            write_line(w, &mut line, "row", fp.matrix().row(i))?;
        } else {
            write!(w, "row").map_err(write_err)?;
            for j in 0..fp.num_locations() {
                write!(w, " {:.6}", fp.rss(i, j)).map_err(write_err)?;
            }
            writeln!(w).map_err(write_err)?;
        }
    }
    Ok(())
}

/// Writes one v3 `<tag> <v_1> ... <v_n>` line: the values are rendered
/// by [`push_f64`] into the reusable `line` buffer, which goes to the
/// writer in one `write_all`.
fn write_line<W: Write>(w: &mut W, line: &mut Vec<u8>, tag: &str, values: &[f64]) -> Result<()> {
    line.clear();
    line.extend_from_slice(tag.as_bytes());
    for &x in values {
        line.push(b' ');
        push_f64(line, x);
    }
    line.push(b'\n');
    w.write_all(line).map_err(write_err)
}

/// Appends exactly the bytes of `format!("{x}")`: the shortest decimal
/// that reads back as `x`, nearest to `x` among the shortest, never
/// with an exponent (see the module docs for the routine and its
/// window). Values outside the window, and the nearest-candidate ties,
/// go through the std formatter itself.
fn push_f64(out: &mut Vec<u8>, x: f64) {
    if !push_f64_window(out, x) {
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{x}");
    }
}

/// `5^k` for `k ≤ 20`, the largest digit count `K` of the window.
const POW5: [u64; 21] = {
    let mut table = [1u64; 21];
    let mut k = 1;
    while k < table.len() {
        table[k] = table[k - 1] * 5;
        k += 1;
    }
    table
};

/// `"00" "01" … "99"`: two decimal digits per table lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// The fractional digit count `K = ⌊(s + 2)·log₁₀2⌋ + 1` of a window
/// value `m·2^-s` (`78913 / 2^18` is `log₁₀2` to within `2^-20`, exact
/// under the floor for every `s + 2 ≤ 64`).
fn window_digits(s: u32) -> u32 {
    (((s + 2) * 78_913) >> 18) + 1
}

/// [`push_f64`]'s exact integer routine for a normal `x = ±m·2^-s`
/// with `1 ≤ s ≤ 62`, and for `±0`; returns `false`, having appended
/// nothing, for any other `x` and for a tie between the two nearest
/// shortest candidates.
fn push_f64_window(out: &mut Vec<u8>, x: f64) -> bool {
    let bits = x.to_bits();
    let biased = (bits >> 52) & 0x7ff;
    let frac = bits & ((1 << 52) - 1);
    // Zeros and subnormals have `biased == 0`, ±∞ and NaN `0x7ff`;
    // both land outside the window's `s`.
    let s = 1075 - biased as i64;
    if bits << 1 == 0 {
        out.extend_from_slice(if bits == 0 { b"0" } else { b"-0" });
        return true;
    }
    if biased == 0 || !(1..=62).contains(&s) {
        return false;
    }
    let s = s as u32;
    let m = frac | 1 << 52;
    let k = window_digits(s);
    // Everything below is in units of `10^-K / 2^(s + 2 - K)`: `x`
    // is `v`, the rounding interval runs from `lo` to `hi`, and its
    // lower half-gap halves at a power of two.
    let p5 = u128::from(POW5[k as usize]);
    let v = u128::from(4 * m) * p5;
    let lo = v - if frac == 0 { p5 } else { 2 * p5 };
    let hi = v + 2 * p5;
    let sh = s + 2 - k;
    // The smallest and largest multiples of `10^-K` inside the
    // interval. The endpoints have `s + 1` or `s + 2` fractional
    // digits and `K ≤ s`, so neither is itself a multiple and
    // whether the interval is closed changes nothing.
    let mut first = (lo >> sh) as u64 + 1;
    let mut last = (hi >> sh) as u64;
    // Coarsen to the largest `10^p` with a multiple inside.
    let (mut p, mut pow) = (0u32, 1u64);
    while first.div_ceil(10) <= last / 10 {
        first = first.div_ceil(10);
        last /= 10;
        p += 1;
        pow *= 10;
    }
    // The multiples of `10^p` just below and just above `x`; take the
    // one inside, or the nearer when both are.
    let below = ((v >> sh) as u64) / pow;
    let digits = if below < first {
        below + 1
    } else if below == last {
        below
    } else {
        let mask = (1u128 << sh) - 1;
        let twice_rest = 2 * ((u128::from(((v >> sh) as u64) % pow) << sh) + (v & mask));
        match twice_rest.cmp(&(u128::from(pow) << sh)) {
            std::cmp::Ordering::Less => below,
            std::cmp::Ordering::Greater => below + 1,
            std::cmp::Ordering::Equal => return false,
        }
    };
    if bits >> 63 == 1 {
        out.push(b'-');
    }
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    let mut rest = digits;
    while rest >= 100 {
        let pair = 2 * (rest % 100) as usize;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        rest /= 100;
    }
    if rest >= 10 {
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[2 * rest as usize..][..2]);
    } else {
        start -= 1;
        buf[start] = b'0' + rest as u8;
    }
    let digits = &buf[start..];
    // `digits` ends in a nonzero digit (a trailing zero would put a
    // multiple of `10^(p + 1)` inside), and the point sits `K − p`
    // places from its right.
    let places = k as usize;
    let p = p as usize;
    if p >= places {
        out.extend_from_slice(digits);
        out.resize(out.len() + (p - places), b'0');
    } else if digits.len() > places - p {
        let (int, fraction) = digits.split_at(digits.len() - (places - p));
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(fraction);
    } else {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (places - p - digits.len()), b'0');
        out.extend_from_slice(digits);
    }
    true
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
    let mut lines = Lines(r);
    let header = next_line(&mut lines, "empty input")?;
    if header.trim() != HEADER {
        return Err(CoreError::InvalidArgument("unrecognised header"));
    }
    let fp = read_block(&mut lines)?;
    expect_eof(&mut lines)?;
    Ok(fp)
}

/// Reads the `links` / `per_link` / `row` block shared by both formats.
fn read_block(lines: &mut Lines<impl BufRead>) -> Result<FingerprintMatrix> {
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

/// The lines of a text file, split as `BufRead::lines` splits them,
/// except that a non-blank last line without its newline is an error:
/// every writer ends every line with one, so such a line is a file cut
/// short mid-line, whose last value may still parse, just not as the
/// value written.
struct Lines<R>(R);

impl<R: BufRead> Iterator for Lines<R> {
    type Item = Result<String>;

    fn next(&mut self) -> Option<Result<String>> {
        let mut line = String::new();
        match self.0.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) if line.ends_with('\n') => {
                line.pop();
                if line.ends_with('\r') {
                    line.pop();
                }
                Some(Ok(line))
            }
            Ok(_) if line.trim().is_empty() => Some(Ok(line)),
            Ok(_) => Some(Err(CoreError::InvalidArgument(
                "the last line has no newline: the file was cut short",
            ))),
            Err(e) => Some(Err(read_err(e))),
        }
    }
}

/// Pulls the next line, mapping end-of-input to `missing`.
fn next_line(lines: &mut Lines<impl BufRead>, missing: &'static str) -> Result<String> {
    lines.next().ok_or(CoreError::InvalidArgument(missing))?
}

/// Requires that only blank lines remain: a truncated-then-concatenated
/// or doubled file must not parse as valid.
fn expect_eof(lines: &mut Lines<impl BufRead>) -> Result<()> {
    for line in lines {
        if !line?.trim().is_empty() {
            return Err(CoreError::InvalidArgument(
                "trailing content after the last row",
            ));
        }
    }
    Ok(())
}

fn parse_field(lines: &mut Lines<impl BufRead>, name: &'static str) -> Result<usize> {
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

/// Writes a whole-fleet snapshot to a writer in the v3 format (see the
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
    let mut line = Vec::new();
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
                    write_line(&mut w, &mut line, "zrow", z.row(i))?;
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

/// Atomically replaces the file at `path` with the serialised v3
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

/// Reads a whole-fleet snapshot from a reader (v3 format). Pair with
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
    let mut lines = Lines(r);
    let header = next_line(&mut lines, "empty input")?;
    if header.trim() != SERVICE_HEADER {
        return Err(bad("unrecognised header"));
    }
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
        let seed_line = next_line(&mut lines, "missing seed line")?;
        let seed_locations = parse_location_list(&seed_line, "seed")?;
        if seed_locations.len() < reference_locations.len()
            || seed_locations[..reference_locations.len()] != reference_locations[..]
        {
            return Err(bad("refs must be a prefix of the seed locations"));
        }
        let correlation = parse_basis(&mut lines, reference_locations.len())?;
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
fn parse_basis(lines: &mut Lines<impl BufRead>, ref_count: usize) -> Result<Option<Matrix>> {
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

fn expect_tag(lines: &mut Lines<impl BufRead>, tag: &'static str) -> Result<()> {
    let line = next_line(lines, "missing section tag")?;
    if line.trim() != tag {
        return Err(CoreError::InvalidArgument("unexpected section tag"));
    }
    Ok(())
}

fn parse_f64_field(lines: &mut Lines<impl BufRead>, name: &'static str) -> Result<f64> {
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

/// Renders the config as the `key=value` list (see module docs).
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

/// Parses the `config` line back into an [`UpdaterConfig`].
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

    /// Asserts that [`push_f64`] appends exactly `format!("{x}")`, and
    /// returns whether the exact routine (not the std fallback) did.
    fn assert_display(x: f64) -> bool {
        let mut fast = b"zrow ".to_vec();
        let hit = push_f64_window(&mut fast, x);
        let mut out = b"zrow ".to_vec();
        push_f64(&mut out, x);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            format!("zrow {x}"),
            "bits {:#018x}",
            x.to_bits()
        );
        if hit {
            assert_eq!(fast, format!("zrow {x}").into_bytes());
        }
        hit
    }

    fn from_words(hi: u32, lo: u32) -> u64 {
        u64::from(hi) << 32 | u64::from(lo)
    }

    proptest::proptest! {
        #[test]
        fn push_f64_matches_display_on_random_bits(
            words in proptest::prop::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 256)
        ) {
            // Every exponent: zeros, subnormals, ±∞ and NaN included.
            for (hi, lo) in words {
                assert_display(f64::from_bits(from_words(hi, lo)));
            }
        }

        #[test]
        fn push_f64_matches_display_around_the_window(
            draws in proptest::prop::collection::vec(
                (0u32..=u32::MAX, 0u32..=u32::MAX, 0u64..70, 0u64..2),
                256,
            )
        ) {
            // `x = ±m·2^-s` with `s ∈ [−4, 65]`: the window `1 ≤ s ≤ 62`
            // and a few exponents past each of its edges.
            for (hi, lo, shift, sign) in draws {
                let biased = 1075 + 4 - shift;
                let bits = sign << 63 | biased << 52 | from_words(hi, lo) & ((1 << 52) - 1);
                assert_display(f64::from_bits(bits));
            }
        }

        #[test]
        fn push_f64_matches_display_on_rss_readings(
            draws in proptest::prop::collection::vec((-150.0f64..30.0, 0i32..8), 256)
        ) {
            // Uniform RSS and its roundings to 0–7 decimals.
            for (x, places) in draws {
                let scale = 10f64.powi(places);
                assert_display(x);
                assert_display((x * scale).round() / scale);
            }
        }
    }

    #[test]
    fn push_f64_matches_display_at_every_power_of_two() {
        // Every binary exponent's power of two (subnormal to the
        // largest), ±2 ulps, both signs: the lower half-gap halves at
        // the power itself.
        for e in -1074i32..=1023 {
            let bits = if e < -1022 {
                1u64 << (e + 1074)
            } else {
                ((e + 1023) as u64) << 52
            };
            for delta in -2i64..=2 {
                let Some(b) = bits.checked_add_signed(delta) else {
                    continue;
                };
                assert_display(f64::from_bits(b));
                assert_display(-f64::from_bits(b));
            }
        }
    }

    #[test]
    fn push_f64_window_edges() {
        // `2^-10` is the window's smallest binade, `2^52` the first
        // binade past it; each neighbour matches std either way.
        let low = 2f64.powi(-10);
        let high = 2f64.powi(52);
        assert!(push_f64_window(&mut Vec::new(), low));
        assert!(!push_f64_window(
            &mut Vec::new(),
            f64::from_bits(low.to_bits() - 1)
        ));
        assert!(push_f64_window(
            &mut Vec::new(),
            f64::from_bits(high.to_bits() - 1)
        ));
        assert!(!push_f64_window(&mut Vec::new(), high));
        for edge in [low, high] {
            for delta in -3i64..=3 {
                let x = f64::from_bits(edge.to_bits().checked_add_signed(delta).unwrap());
                assert_display(x);
                assert_display(-x);
            }
        }
        // `K` fractional digits put a `10^-K` grid point strictly inside
        // every rounding interval (`10^-K < 2^-(s+2)`, the smallest
        // half-gap), `K − 1` would not always, and `K ≤ s` keeps the
        // interval's endpoints off the grid.
        for s in 1u32..=62 {
            let k = window_digits(s);
            assert!(10u128.pow(k) > 1u128 << (s + 2), "s = {s}");
            assert!(10u128.pow(k - 1) <= 1u128 << (s + 2), "s = {s}");
            assert!(k <= s, "s = {s}");
            assert!(k < POW5.len() as u32);
        }
    }

    #[test]
    fn window_powers_of_two_print_exactly() {
        // `2^-10 … 2^51` have at most 16 significant digits, so each is
        // its own shortest decimal: the halved lower half-gap at a power
        // of two, like the interval's closedness, never changes an
        // answer inside the window.
        for k in -10i32..=51 {
            let x = 2f64.powi(k);
            let exact = if k >= 0 {
                (1u64 << k).to_string()
            } else {
                format!(
                    "0.{:0>width$}",
                    5u64.pow(k.unsigned_abs()),
                    width = (-k) as usize
                )
            };
            assert_eq!(format!("{x}"), exact);
            let mut out = Vec::new();
            assert!(push_f64_window(&mut out, x));
            assert_eq!(out, exact.into_bytes());
        }
    }

    #[test]
    fn push_f64_matches_display_on_decimal_fractions() {
        // RSS-like decimals `k / 10^j` of both signs; nearly all of them
        // take the exact routine, not the fallback.
        let (mut total, mut fast) = (0usize, 0usize);
        for j in 0..6 {
            let scale = 10f64.powi(j);
            let ks = (0u32..20_000).chain((20_000..2_000_000).step_by(97));
            for k in ks {
                let x = f64::from(k) / scale;
                for x in [x, -x] {
                    total += 1;
                    fast += usize::from(assert_display(x));
                }
            }
        }
        assert!(
            fast * 100 > total * 95,
            "{fast} of {total} on the exact routine"
        );
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
    fn basis_none_restores_by_rederivation() {
        // A deployment recorded with `basis none` parses to no
        // correlation, restores through engine re-derivation to the same
        // reference set and Z, and re-snapshots with the basis filled in.
        let mut s = small_fleet();
        s.run_cycle(15.0, 2).unwrap();
        let snap = s.snapshot();
        let mut buf = Vec::new();
        write_service(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Swap deployment 0's `basis r n` line and its `zrow` lines for
        // `basis none`; deployment 1 keeps its recorded basis.
        let mut out = String::new();
        let (mut seen_basis, mut skipping) = (false, false);
        for l in text.lines() {
            if skipping && l.starts_with("zrow ") {
                continue;
            }
            skipping = false;
            if !seen_basis && l.starts_with("basis ") {
                seen_basis = true;
                skipping = true;
                out.push_str("basis none\n");
                continue;
            }
            out.push_str(l);
            out.push('\n');
        }
        assert_eq!(out.matches("\nbasis none\n").count(), 1);
        assert_eq!(out.matches("\nbasis ").count(), 2);
        let back = read_service(out.as_bytes()).unwrap();
        assert!(back.deployments[0].correlation.is_none());
        assert_eq!(back.deployments[1], snap.deployments[1]);
        let mut expect0 = snap.deployments[0].clone();
        expect0.correlation = None;
        assert_eq!(back.deployments[0], expect0);

        let restored = UpdateService::restore(&back).unwrap();
        let (rid, sid) = (restored.ids()[0], s.ids()[0]);
        let (re, live) = (restored.updater(rid).unwrap(), s.updater(sid).unwrap());
        assert_eq!(re.reference_locations(), live.reference_locations());
        assert!(re.correlation().approx_eq(live.correlation(), 0.0));
        // Re-snapshotting records the re-derived basis again.
        let again = restored.snapshot();
        assert!(again.deployments[0].correlation.is_some());
        assert_eq!(again, snap);
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
        assert!(read_service("iupdater-service v3\ndeployments x\n".as_bytes()).is_err());
        // Truncated after the count.
        assert!(read_service("iupdater-service v3\ndeployments 1\n".as_bytes()).is_err());

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
        // The retired v2 header is refused like any unknown one.
        let v2 = text.replace("iupdater-service v3", "iupdater-service v2");
        assert!(matches!(
            read_service(v2.as_bytes()),
            Err(CoreError::InvalidArgument("unrecognised header"))
        ));
    }

    #[test]
    fn service_reader_survives_hostile_counts() {
        // File-supplied counts must yield parse errors, not
        // capacity-overflow panics or absurd allocations.
        let huge = format!("iupdater-service v3\ndeployments {}\n", usize::MAX);
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
