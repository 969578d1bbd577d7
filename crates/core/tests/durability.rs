//! Durability integration tests: the v3 service-snapshot format
//! (including its recorded warm-start basis), v1 backward
//! compatibility, service-level kill/restore parity through the
//! on-disk representation, and byte-level fuzzing of both text readers
//! (truncation, flipped digits, duplicated, moved or dropped lines,
//! hostile counts, non-finite text, `basis none` beside recorded bases).

use iupdater_core::persist::{read_fingerprint, read_service, write_fingerprint, write_service};
use iupdater_core::prelude::*;
use iupdater_core::CouplingMode;
use iupdater_core::ScalingMode;
use iupdater_rfsim::{Environment, Testbed};
use proptest::prelude::*;

/// The config variants a fleet member might run with.
fn config_variant(idx: usize) -> UpdaterConfig {
    match idx % 5 {
        0 => UpdaterConfig::default(),
        1 => UpdaterConfig {
            rank: Some(4),
            ..UpdaterConfig::default()
        },
        2 => UpdaterConfig::basic_rsvd(),
        3 => UpdaterConfig {
            coupling: CouplingMode::PaperLiteral,
            scaling: ScalingMode::Auto,
            tol: 1e-8,
            ..UpdaterConfig::default()
        },
        _ => UpdaterConfig {
            max_iter: 25,
            seed: 0xfeed,
            lambda: 0.01,
            weight_continuity: 0.4,
            ..UpdaterConfig::default()
        },
    }
}

fn env_preset(idx: usize) -> Environment {
    match idx % 3 {
        0 => Environment::office(),
        1 => Environment::library(),
        _ => Environment::hall(),
    }
}

/// Strategy: an arbitrary small fleet as (env, seed, config-variant)
/// triples.
fn fleet_strategy() -> impl Strategy<Value = Vec<(usize, u64, usize)>> {
    prop::collection::vec((0usize..3, 1u64..1000, 0usize..5), 1usize..4)
}

fn build(members: &[(usize, u64, usize)]) -> UpdateService {
    let mut service = UpdateService::new();
    for (k, &(env_idx, seed, cfg_idx)) in members.iter().enumerate() {
        service
            .register(
                format!("dep-{k} ({})", env_preset(env_idx).kind),
                Testbed::new(env_preset(env_idx), seed),
                config_variant(cfg_idx),
                2,
            )
            .expect("fleet registration");
    }
    service
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    #[test]
    fn v3_snapshot_roundtrips_arbitrary_fleets(members in fleet_strategy()) {
        let mut service = build(&members);
        // Exercise non-zero counters on the cheapest fleets.
        if members.len() == 1 {
            service.run_cycle(9.0, 1).expect("cycle");
        }
        let snap = service.snapshot();
        let mut buf = Vec::new();
        write_service(&snap, &mut buf).expect("serialise");
        let back = read_service(buf.as_slice()).expect("parse");
        // Full-precision round trip: equality, not approximation.
        prop_assert_eq!(&back, &snap);
        // And the parsed snapshot restores to an equivalent service.
        let restored = UpdateService::restore(&back).expect("restore");
        prop_assert_eq!(restored.snapshot(), snap);
    }
}

#[test]
fn v1_files_remain_readable() {
    // A fixture written by the original (pre-v2) writer: byte-for-byte
    // what `write_fingerprint` produced at the seed revision.
    let v1 = "iupdater-fingerprint v1\n\
              links 2\n\
              per_link 2\n\
              row -60.000000 -61.500000 -62.250000 -63.125000\n\
              row -70.000000 -71.000000 -72.000000 -73.000000\n";
    let fp = read_fingerprint(v1.as_bytes()).expect("v1 parse");
    assert_eq!(fp.num_links(), 2);
    assert_eq!(fp.locations_per_link(), 2);
    assert_eq!(fp.rss(0, 3), -63.125);
    assert_eq!(fp.rss(1, 0), -70.0);
    // The current writer still emits the same v1 text.
    let mut buf = Vec::new();
    write_fingerprint(&fp, &mut buf).expect("v1 write");
    assert_eq!(String::from_utf8(buf).unwrap(), v1);
}

#[test]
fn kill_restore_parity_through_the_on_disk_format() {
    let members = [(0usize, 42u64, 0usize), (1, 43, 1), (2, 44, 0)];
    let mut control = build(&members);
    let mut survivor = build(&members);
    for day in [5.0, 15.0] {
        control.run_cycle(day, 3).expect("control cycle");
        survivor.run_cycle(day, 3).expect("survivor cycle");
    }

    // Kill: the fleet exists only as serialised bytes.
    let mut bytes = Vec::new();
    write_service(&survivor.snapshot(), &mut bytes).expect("serialise");
    drop(survivor);

    let mut resumed =
        UpdateService::restore(&read_service(bytes.as_slice()).expect("parse")).expect("restore");
    for day in [45.0, 90.0] {
        control.run_cycle(day, 3).expect("control cycle");
        resumed.run_cycle(day, 3).expect("resumed cycle");
    }
    for (a, b) in control.ids().into_iter().zip(resumed.ids()) {
        // Bit-identical databases…
        assert!(control
            .fingerprint(a)
            .unwrap()
            .matrix()
            .approx_eq(resumed.fingerprint(b).unwrap().matrix(), 0.0));
        // …and identical cycle counters.
        assert_eq!(
            control.cycles_run(a).unwrap(),
            resumed.cycles_run(b).unwrap()
        );
        assert_eq!(
            control.last_update_day(a).unwrap(),
            resumed.last_update_day(b).unwrap()
        );
        assert_eq!(control.name(a).unwrap(), resumed.name(b).unwrap());
    }
}

// ---------------------------------------------------------------------
// Byte-level fuzzing of both text readers. Every mutated file must
// parse to `Err(CoreError)` or to a value that writes and reads back
// exactly; a truncated file must never parse to anything but the
// original. No case may panic. Hostile counts go up to `usize::MAX`:
// a reader that pre-allocated from a count of `2^40` or more unchecked
// would abort the test binary (capacity overflow or a failed
// allocation).
// ---------------------------------------------------------------------

/// A two-deployment checkpoint after one cycle, the first deployment
/// written with `basis none` and the second with its basis, and its
/// bytes.
fn v3_fixture() -> &'static (ServiceSnapshot, Vec<u8>) {
    static FIXTURE: std::sync::OnceLock<(ServiceSnapshot, Vec<u8>)> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut service = build(&[(0, 17, 0), (1, 18, 1)]);
        service.run_cycle(9.0, 1).expect("cycle");
        let mut snap = service.snapshot();
        snap.deployments[0].correlation = None;
        let mut bytes = Vec::new();
        write_service(&snap, &mut bytes).expect("serialise");
        (snap, bytes)
    })
}

/// A small v1 database and its bytes.
fn v1_fixture() -> &'static (FingerprintMatrix, Vec<u8>) {
    static FIXTURE: std::sync::OnceLock<(FingerprintMatrix, Vec<u8>)> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let t = Testbed::new(Environment::library(), 4);
        let mut bytes = Vec::new();
        write_fingerprint(&FingerprintMatrix::survey(&t, 0.0, 2), &mut bytes).expect("v1 write");
        let fp = read_fingerprint(bytes.as_slice()).expect("v1 parse");
        (fp, bytes)
    })
}

/// Reads `bytes` as v3: `Err`, or a snapshot that writes and reads
/// back equal. Returns the snapshot.
fn read_v3(bytes: &[u8]) -> Option<ServiceSnapshot> {
    let snap = read_service(bytes).ok()?;
    let mut again = Vec::new();
    write_service(&snap, &mut again).expect("a parsed snapshot is writable");
    assert_eq!(read_service(again.as_slice()).expect("re-read"), snap);
    Some(snap)
}

/// Reads `bytes` as v1: `Err`, or a database that writes and reads
/// back equal (every fixture value has at most 6 decimals).
fn read_v1(bytes: &[u8]) -> Option<FingerprintMatrix> {
    let fp = read_fingerprint(bytes).ok()?;
    let mut again = Vec::new();
    write_fingerprint(&fp, &mut again).expect("a parsed database is writable");
    assert_eq!(read_fingerprint(again.as_slice()).expect("re-read"), fp);
    Some(fp)
}

/// The byte offsets just past each newline.
fn line_ends(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len())
        .filter(|&i| bytes[i] == b'\n')
        .map(|i| i + 1)
        .collect()
}

/// The file's lines, newline included.
fn split_lines(bytes: &[u8]) -> Vec<&[u8]> {
    bytes.split_inclusive(|&b| b == b'\n').collect()
}

/// The byte ranges of every whitespace-separated token.
fn tokens(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, &b) in bytes.iter().enumerate() {
        match (b.is_ascii_whitespace(), start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                out.push(s..i);
                start = None;
            }
            _ => {}
        }
    }
    out.extend(start.map(|s| s..bytes.len()));
    out
}

fn splice(bytes: &[u8], range: std::ops::Range<usize>, with: &[u8]) -> Vec<u8> {
    let mut out = bytes[..range.start].to_vec();
    out.extend_from_slice(with);
    out.extend_from_slice(&bytes[range.end..]);
    out
}

#[test]
fn truncation_at_every_line_boundary_is_rejected() {
    let (snap, bytes) = v3_fixture();
    let ends = line_ends(bytes);
    for &end in &ends[..ends.len() - 1] {
        assert!(read_v3(&bytes[..end]).is_none(), "v3 cut after byte {end}");
    }
    assert_eq!(read_v3(bytes).as_ref(), Some(snap));
    let (fp, bytes) = v1_fixture();
    let ends = line_ends(bytes);
    for &end in &ends[..ends.len() - 1] {
        assert!(read_v1(&bytes[..end]).is_none(), "v1 cut after byte {end}");
    }
    assert_eq!(read_v1(bytes).as_ref(), Some(fp));
}

#[test]
fn truncation_inside_the_last_line_is_rejected() {
    // A file cut inside its last value would otherwise parse with a
    // shorter, different value: `-61.234` read back as `-61.2`.
    let (_, bytes) = v3_fixture();
    let last = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap()
        + 1;
    for end in last + 1..bytes.len() {
        assert!(read_v3(&bytes[..end]).is_none(), "v3 cut at byte {end}");
    }
    let (_, bytes) = v1_fixture();
    let last = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap()
        + 1;
    for end in last + 1..bytes.len() {
        assert!(read_v1(&bytes[..end]).is_none(), "v1 cut at byte {end}");
    }
    // Trailing blank lines, terminated or not, stay acceptable.
    let (snap, bytes) = v3_fixture();
    for tail in [&b"\n"[..], b"  \n\n", b"\n  "] {
        let mut padded = bytes.clone();
        padded.extend_from_slice(tail);
        assert_eq!(read_v3(&padded).as_ref(), Some(snap));
    }
}

#[test]
fn basis_none_mixes_with_recorded_bases() {
    let (snap, bytes) = v3_fixture();
    let text = String::from_utf8(bytes.clone()).unwrap();
    assert_eq!(text.matches("\nbasis none\n").count(), 1);
    assert_eq!(text.matches("\nbasis ").count(), 2);
    // Dropping the second deployment's basis too parses to that.
    let second = text.rfind("\nbasis ").unwrap() + 1;
    let prior = second + text[second..].find("\nprior\n").unwrap() + 1;
    let none = format!("{}basis none\n{}", &text[..second], &text[prior..]);
    let mut want = snap.clone();
    want.deployments[1].correlation = None;
    assert_eq!(read_v3(none.as_bytes()), Some(want));
    // A `basis none` followed by `zrow` lines, and a `basis r n` with
    // its `zrow` lines dropped, are both rejected.
    let zrows = &text[text[second..].find('\n').unwrap() + second + 1..prior];
    let first = text.find("\nbasis none\n").unwrap() + "\nbasis none\n".len();
    let extra = format!("{}{zrows}{}", &text[..first], &text[first..]);
    assert!(read_v3(extra.as_bytes()).is_none());
    let bare = format!(
        "{}{}",
        &text[..text[second..].find('\n').unwrap() + second + 1],
        &text[prior..]
    );
    assert!(read_v3(bare.as_bytes()).is_none());
}

#[test]
fn hostile_counts_parse_or_fail_cleanly() {
    let hostile = [
        "0".to_string(),
        "1".to_string(),
        "3".to_string(),
        (1u64 << 31).to_string(),
        (1u64 << 40).to_string(),
        (1u64 << 62).to_string(),
        usize::MAX.to_string(),
        format!("{}0", usize::MAX),
        "-1".to_string(),
    ];
    let (_, bytes) = v3_fixture();
    let count_tags: [&[u8]; 6] = [
        b"deployments",
        b"links",
        b"per_link",
        b"refs",
        b"seed",
        b"basis",
    ];
    for (file, v1) in [(bytes, false), (&v1_fixture().1, true)] {
        let toks = tokens(file);
        for (t, range) in toks.iter().enumerate() {
            let tag = &file[range.clone()];
            if !count_tags.contains(&tag) {
                continue;
            }
            // The count after the tag, and for `basis` also the width.
            let counts = if tag == b"basis" { 2 } else { 1 };
            for count in toks.iter().skip(t + 1).take(counts) {
                for value in &hostile {
                    let mutated = splice(file, count.clone(), value.as_bytes());
                    if v1 {
                        read_v1(&mutated);
                    } else {
                        read_v3(&mutated);
                    }
                }
            }
        }
    }
}

/// Strategy: a byte position in `0..len` drawn from a `[0, 1)` fraction.
fn at(fraction: f64, len: usize) -> usize {
    ((fraction * len as f64) as usize).min(len - 1)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    #[test]
    fn truncation_at_random_bytes_never_yields_a_different_file(cut in 0.0f64..1.0) {
        let (snap, bytes) = v3_fixture();
        let end = at(cut, bytes.len());
        // Any read that succeeds must be of the whole snapshot.
        if let Some(back) = read_v3(&bytes[..end]) {
            prop_assert_eq!(&back, snap);
        }
        let (fp, bytes) = v1_fixture();
        let end = at(cut, bytes.len());
        if let Some(back) = read_v1(&bytes[..end]) {
            prop_assert_eq!(&back, fp);
        }
    }

    #[test]
    fn flipped_digits_parse_or_fail_cleanly(
        flips in prop::collection::vec((0.0f64..1.0, 0u32..10), 1usize..6),
        v1 in 0usize..2,
    ) {
        let mut bytes = if v1 == 1 { v1_fixture().1.clone() } else { v3_fixture().1.clone() };
        let digits: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii_digit()).collect();
        for (pos, digit) in flips {
            bytes[digits[at(pos, digits.len())]] = b'0' + digit as u8;
        }
        if v1 == 1 {
            read_v1(&bytes);
        } else if let Some(snap) = read_v3(&bytes) {
            // A parsed snapshot restores or fails with an error.
            let _ = UpdateService::restore(&snap);
        }
    }

    #[test]
    fn duplicated_or_reordered_sections_parse_or_fail_cleanly(
        start in 0.0f64..1.0,
        len in 1usize..40,
        gap in 0usize..40,
        op in 0usize..3,
        v1 in 0usize..2,
    ) {
        let bytes = if v1 == 1 { &v1_fixture().1 } else { &v3_fixture().1 };
        let lines = split_lines(bytes);
        let a = at(start, lines.len());
        let b = (a + len).min(lines.len());
        let c = (b + gap).min(lines.len());
        let pick = |r: std::ops::Range<usize>| lines[r].concat();
        let mutated = match op {
            // Lines a..b repeated right after themselves.
            0 => [pick(0..b), pick(a..b), pick(b..lines.len())].concat(),
            // Lines a..b moved after b..c.
            1 => [pick(0..a), pick(b..c), pick(a..b), pick(c..lines.len())].concat(),
            // Lines a..b dropped.
            _ => [pick(0..a), pick(b..lines.len())].concat(),
        };
        if v1 == 1 {
            read_v1(&mutated);
        } else if let Some(snap) = read_v3(&mutated) {
            let _ = UpdateService::restore(&snap);
        }
    }

    #[test]
    fn non_finite_text_is_rejected(
        pos in 0.0f64..1.0,
        word in 0usize..6,
        v1 in 0usize..2,
    ) {
        let words = ["NaN", "nan", "inf", "-inf", "+infinity", "-NaN"];
        let bytes = if v1 == 1 { &v1_fixture().1 } else { &v3_fixture().1 };
        // Only a value token of a `row` or `zrow` line: anywhere else
        // the word could be a legal name.
        let values: Vec<std::ops::Range<usize>> = split_lines(bytes)
            .iter()
            .scan(0usize, |offset, line| {
                let base = *offset;
                *offset += line.len();
                Some((base, *line))
            })
            .filter(|(_, line)| line.starts_with(b"row ") || line.starts_with(b"zrow "))
            .flat_map(|(base, line)| {
                tokens(line).into_iter().skip(1).map(move |r| base + r.start..base + r.end)
            })
            .collect();
        let mutated = splice(bytes, values[at(pos, values.len())].clone(), words[word].as_bytes());
        if v1 == 1 {
            prop_assert!(read_v1(&mutated).is_none());
        } else {
            prop_assert!(read_v3(&mutated).is_none());
        }
    }
}
