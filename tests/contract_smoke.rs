//! Contract smoke: the read path's headline parity assertion at a
//! small configuration, so the plain `cargo test -q` exercises the
//! prepared pursuits, their squared-distance kernels and the
//! correlation routing.
//!
//! Over a 16x384 site (`ext_scale::scaled_office(2)`), every query is
//! answered three ways — the single-query prepared path
//! (`Localizer::localize`), the chunked batch path
//! (`Localizer::localize_batch`, lane-blocked under the binary model)
//! and the unprepared scalar oracle (`Localizer::localize_unprepared`)
//! — and the three estimates must agree bit for bit, the residual's
//! bits included. That holds for the default binary model, for the
//! binary model with three atoms (so the lane-blocked pursuit's
//! per-lane exclusion and residual guard run) and for classic
//! correlation OMP with three atoms. The full tier lives in
//! `crates/core/tests/query_parity.rs`.

use iupdater::core::config::AtomSelection;
use iupdater::core::prelude::*;
use iupdater::core::query::QUERY_CHUNK;
use iupdater::eval::ext_scale::scaled_office;
use iupdater::linalg::kernels::BINARY_LANES;
use iupdater::rfsim::Testbed;

fn assert_same_bits(got: &LocationEstimate, want: &LocationEstimate, what: &str, q: usize) {
    assert_eq!(got.grid, want.grid, "{what}: query {q} grid");
    assert_eq!(got.support, want.support, "{what}: query {q} support");
    let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.coefficients),
        bits(&want.coefficients),
        "{what}: query {q} coefficients"
    );
    assert_eq!(
        got.residual_sq.to_bits(),
        want.residual_sq.to_bits(),
        "{what}: query {q} residual_sq"
    );
}

/// Answers a 16x384 slab through all three read paths under `config`
/// and asserts they agree bit for bit.
fn assert_reads_agree(config: LocalizerConfig) {
    let testbed = Testbed::new(scaled_office(2), 2);
    let fp = FingerprintMatrix::survey(&testbed, 0.0, 3);
    let (links, cells) = (fp.num_links(), fp.num_locations());
    assert_eq!((links, cells), (16, 384));
    let loc = Localizer::new(fp, config);

    // Two full chunks plus a tail of one 8-lane block and three
    // single-query leftovers: not a multiple of 8 or of QUERY_CHUNK.
    let slab_len = 2 * QUERY_CHUNK + BINARY_LANES + 3;
    assert_ne!(slab_len % BINARY_LANES, 0);
    assert_ne!(slab_len % QUERY_CHUNK, 0);
    let queries: Vec<Vec<f64>> = (0..slab_len)
        .map(|q| testbed.online_measurement((q * 37) % cells, 30.0, 500 + q as u64))
        .collect();

    let batch = loc.localize_batch(&queries).unwrap();
    assert_eq!(batch.len(), slab_len);
    for (q, (y, b)) in queries.iter().zip(&batch).enumerate() {
        let oracle = loc.localize_unprepared(y).unwrap();
        assert_same_bits(&loc.localize(y).unwrap(), &oracle, "localize", q);
        assert_same_bits(b, &oracle, "localize_batch", q);
    }
}

#[test]
fn single_batch_and_unprepared_reads_agree_bitwise() {
    assert_reads_agree(LocalizerConfig::default());
}

#[test]
fn multi_atom_binary_reads_agree_bitwise() {
    assert_reads_agree(LocalizerConfig {
        max_atoms: 3,
        ..LocalizerConfig::default()
    });
}

#[test]
fn correlation_reads_agree_bitwise() {
    assert_reads_agree(LocalizerConfig {
        selection: AtomSelection::Correlation,
        max_atoms: 3,
        ..LocalizerConfig::default()
    });
}
