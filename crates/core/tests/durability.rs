//! Durability integration tests: the v3 service-snapshot format
//! (including its recorded warm-start basis), v1 backward
//! compatibility, and service-level kill/restore parity through the
//! on-disk representation.

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
