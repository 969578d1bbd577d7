//! Kernel parity tier.
//!
//! The kernels in `iupdater_linalg::kernels` promise that every product
//! — `A·B` (the gathered product), `A·Bᵀ` and the Gram — computes each
//! output element as an ascending-`k` sum, **bit-identical** to the
//! naive triple loop and to the pre-dispatch blocked kernel on finite
//! inputs. This tier pins that contract:
//!
//! - `A·B` is proptested against the naive reference (exact bits, no
//!   tolerance) on one shape per case from each family of the former
//!   four-arm dispatch: a shared dimension of one 16-deep slab, and
//!   past it few output rows, few output columns, or neither;
//! - fully randomized shapes, including the degenerate `m = 1`,
//!   `n = 1`, `k = 1` and empty (`0`-extent) cases, cross-check all
//!   three entry points;
//! - a reimplementation of the legacy cache-blocked `i-k-j` kernel
//!   (the exact code `blocked_multiply` shipped before the dispatcher)
//!   proves every finite-input shape produces the same bits as before;
//! - the weighted Gram entry point (`Matrix::add_weighted_gram`, the
//!   solver's normal-matrix assembly) equals one sequential rank-1
//!   update per listed row, bit for bit, across the 4-/8-/16-lane
//!   edges, the 4-row tile and the 16-row slab seams, and a fold split
//!   at any position equals the unsplit fold. Every Gram arm the host
//!   runs (scalar, AVX, AVX-512F) is called directly through
//!   `weighted_gram_on`, since dispatch reaches only the widest;
//! - `A·Bᵀ` walks each 32-column tile in 16-deep slabs: pinned at
//!   `k = 16, 17, 32, 33` against every column tail `n = 1..=33`;
//! - the gathered product behind the solver's right-hand sides
//!   (`gather_matmul`) equals one `axpy_slice` per position onto a
//!   zeroed row, bit for bit, across its slab seams;
//! - both distance kernels of the binary read path equal the naive
//!   `t = r − x; s += t * t` chain bit for bit — here on *every* input,
//!   ±0.0, ±∞ and NaN included, since a distance chain has no skipped
//!   term to excuse a non-finite divergence. `sq_dist_row` is compared
//!   entry by entry across every 16-/4-cell tail; the one thing
//!   compared by class rather than by bits is a NaN result's sign and
//!   payload, which Rust leaves unspecified (see `dist_bits`).
//!   `nearest_block` — a certified single-precision dot-product filter
//!   with an exact fallback — is compared with the naive chains
//!   followed by a strict-`<` first-minimum argmin over the atoms a
//!   lane has not excluded: the same index and distance bits per lane,
//!   across every tail of its 48-atom tile, duplicate atoms (exact
//!   ties, which must fail the certificate), twins at f32 resolution
//!   (a relative `2⁻ᵏ` apart, `k ∈ 8..=40`, on both sides of the
//!   certificate's bound), huge magnitudes, atoms and residuals past
//!   `f32::MAX` and a dictionary at f32-subnormal scale (all of which
//!   must fall back), random exclusion masks (a fully excluded lane
//!   returns `(+∞, usize::MAX)`), `m = 0` and `m = 1`. Every arm the
//!   host runs (scalar, AVX+FMA, AVX-512F) is called directly through
//!   `nearest_block_on`, since dispatch reaches only the widest.
//!
//! Any future kernel that cannot preserve the accumulation order must
//! downgrade the affected assertions to a `<= 1e-12` relative bound
//! (see ARCHITECTURE.md, "Kernel dispatch") — never silently loosen.

use iupdater_linalg::kernels::{
    gather_matmul, gather_matmul_on, nearest_block, nearest_block_on, sq_dist_row,
    weighted_gram_on, FilterAtoms, MulArm, NearestLanes, ScanArm, BINARY_LANES, TINY_INNER_MAX,
};
use iupdater_linalg::{axpy_slice, Matrix};
use proptest::prelude::*;

/// Naive `i-j-k` reference: one left-to-right ascending-`k` sum per
/// output element, the order every product must reproduce.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    Matrix::from_fn(m, n, |i, j| {
        let mut s = 0.0;
        for p in 0..k {
            s += a[(i, p)] * b[(p, j)];
        }
        s
    })
}

/// The pre-dispatch kernel, reimplemented from the seed's
/// `blocked_multiply` (cache-blocked `i-k-j` over 64-wide tiles, zero-skip
/// on `a[i][p]`, accumulating into a pre-zeroed output). On finite
/// inputs the gathered product matches it bit-for-bit at every shape,
/// because the per-element accumulation order never changed.
fn legacy_blocked_multiply(a: &Matrix, b: &Matrix) -> Matrix {
    const TILE: usize = 64;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = vec![0.0; m * n];
    for jb in (0..n).step_by(TILE) {
        let jhi = (jb + TILE).min(n);
        for ib in (0..m).step_by(TILE) {
            let ihi = (ib + TILE).min(m);
            for i in ib..ihi {
                let arow = a.row(i);
                let orow = &mut out[i * n + jb..i * n + jhi];
                for (p, &aip) in arow.iter().enumerate().take(k) {
                    if aip == 0.0 {
                        continue;
                    }
                    let brow = &b.row(p)[jb..jhi];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += aip * bv;
                    }
                }
            }
        }
    }
    Matrix::from_vec(m, n, out).unwrap()
}

/// A matrix of the exact shape `r x c` with non-trivial mantissas
/// (division keeps the low bits busy so reassociation cannot hide).
fn matrix_of(r: usize, c: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f64..10.0, r * c).prop_map(move |data| {
        Matrix::from_vec(r, c, data.iter().map(|x| x / 3.0).collect()).unwrap()
    })
}

/// `(A, B)` multiplicands of an `m x k · k x n` product, over a family
/// of `(m, k, n)` shapes.
fn family(
    shape: impl Strategy<Value = (usize, usize, usize)>,
) -> impl Strategy<Value = (Matrix, Matrix)> {
    shape.prop_flat_map(|(m, k, n)| (matrix_of(m, k), matrix_of(k, n)))
}

fn assert_bitwise_eq(got: &Matrix, want: &Matrix) {
    assert_eq!(got.shape(), want.shape());
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        assert_eq!(g.to_bits(), w.to_bits(), "bit mismatch: {g} vs {w}");
    }
}

proptest! {
    /// One shape per case from each family of the former four-arm
    /// dispatch, all now the one gathered product: a shared dimension
    /// of one slab (`k ≤ TINY_INNER_MAX`), and past it few output rows
    /// (`m ≤ 8`), few output columns (`n ≤ 8`) or neither.
    #[test]
    fn matmul_matches_naive_bitwise(
        (one_slab, few_rows, few_cols, square) in (
            family((1usize..=40, 1usize..=TINY_INNER_MAX, 1usize..=40)),
            family((1usize..=8, TINY_INNER_MAX + 1..48usize, 1usize..=100)),
            family((9usize..100, TINY_INNER_MAX + 1..48usize, 1usize..=8)),
            family((9usize..64, TINY_INNER_MAX + 1..48usize, 9usize..64)),
        ),
    ) {
        for (a, b) in [one_slab, few_rows, few_cols, square] {
            assert_bitwise_eq(&a.matmul(&b).unwrap(), &naive_matmul(&a, &b));
        }
    }

    /// Fully randomized shapes, degenerate extents included: `m`, `k`
    /// or `n` may each be `0` or `1`, hitting the early returns and
    /// the row-pass tails of all three entry points.
    #[test]
    fn randomized_shapes_match_naive_bitwise(
        (m, k, n) in (0usize..=20, 0usize..=20, 0usize..=20),
        seed in prop::collection::vec(-8.0f64..8.0, 20 * 20 * 2),
    ) {
        let a = Matrix::from_fn(m, k, |i, j| seed[i * k + j] / 3.0);
        let b = Matrix::from_fn(k, n, |i, j| seed[400 + i * n + j] / 3.0);
        // matmul / matmul_into.
        let prod = a.matmul(&b).unwrap();
        assert_bitwise_eq(&prod, &naive_matmul(&a, &b));
        let mut out = Matrix::filled(m, n, f64::NAN); // no pre-zeroing contract
        a.matmul_into(&b, &mut out).unwrap();
        assert_bitwise_eq(&out, &prod);
        // matmul_bt_into against the naive product with an explicit
        // transpose (same ascending-k order).
        let bt = b.transpose(); // n x k
        let mut out_bt = Matrix::filled(m, n, f64::NAN);
        a.matmul_bt_into(&bt, &mut out_bt).unwrap();
        assert_bitwise_eq(&out_bt, &prod);
        // gram_into against the naive XᵀX.
        let mut g = Matrix::filled(k, k, f64::NAN);
        a.gram_into(&mut g).unwrap();
        assert_bitwise_eq(&g, &naive_matmul(&a.transpose(), &a));
    }

    /// The refactor pin: on finite inputs every shape produces the
    /// same bits as the seed's `blocked_multiply`.
    #[test]
    fn matmul_matches_legacy_blocked_kernel_bitwise(
        (m, k, n) in prop_oneof![
            // The former four-arm dispatch's shape families.
            (1usize..=16, 1usize..=TINY_INNER_MAX, 1usize..=16),
            (1usize..=8, 17usize..40, 1usize..=80),
            (9usize..80, 17usize..40, 1usize..=8),
            // And shapes that straddle the legacy kernel's 64-wide tile.
            (60usize..70, 17usize..40, 60usize..70),
        ],
        denom in 1.0f64..7.0,
    ) {
        let a = Matrix::from_fn(m, k, |i, j| ((i * k + j) as f64).sin() / denom);
        let b = Matrix::from_fn(k, n, |i, j| ((i * n + j) as f64).cos() / denom);
        assert_bitwise_eq(&a.matmul(&b).unwrap(), &legacy_blocked_multiply(&a, &b));
    }
}

/// The sequential rank-1 reference for `add_weighted_gram`: for each
/// listed row `v`, in list order, `acc[a][b] += (alpha·v[a])·v[b]` —
/// no zero skip, no tiling.
fn naive_weighted_gram(acc: &Matrix, alpha: f64, src: &Matrix, rows: &[usize]) -> Matrix {
    let mut out = acc.clone();
    let r = src.cols();
    for &p in rows {
        let v = src.row(p);
        for a in 0..r {
            let f = alpha * v[a];
            for b in 0..r {
                out[(a, b)] += f * v[b];
            }
        }
    }
    out
}

proptest! {
    /// Row lists of every slab shape — empty, one row, just under, at
    /// and over the 16-row slab, two slabs plus one, and a data-fit row
    /// of ~1,400 — drawn as prefixes of one unsorted list with repeats,
    /// onto a seeded non-zero accumulator, for every rank 1..=40.
    #[test]
    fn weighted_gram_matches_sequential_rank_one_bitwise(
        (src, rows, acc) in (1usize..=40, 1usize..=48).prop_flat_map(|(r, src_rows)| (
            matrix_of(src_rows, r),
            prop::collection::vec(0..src_rows, 1400..=1400),
            matrix_of(r, r),
        )),
        alpha in -3.0f64..3.0,
    ) {
        for len in [0, 1, 15, 16, 17, 33, 1400] {
            let want = naive_weighted_gram(&acc, alpha, &src, &rows[..len]);
            let mut got = acc.clone();
            got.add_weighted_gram(alpha, &src, &rows[..len]).unwrap();
            assert_bitwise_eq(&got, &want);
            for arm in MulArm::available() {
                let mut got = acc.clone();
                weighted_gram_on(arm, alpha, &src, &rows[..len], &mut got);
                assert_bitwise_eq(&got, &want);
            }
        }
        // One row onto a zero accumulator is the outer product of the
        // coefficient file α·v with v.
        let v = src.row(rows[0]);
        let c: Vec<f64> = v.iter().map(|x| alpha * x).collect();
        let mut one = Matrix::zeros(v.len(), v.len());
        one.add_weighted_gram(alpha, &src, &rows[..1]).unwrap();
        assert_bitwise_eq(&one, &Matrix::outer(&c, v));
        // gram_into runs the same kernel (α = 1 over every row onto a
        // zero-filled output): up to three slabs, r up to 40 columns.
        let r = src.cols();
        let mut g = Matrix::filled(r, r, f64::NAN);
        src.gram_into(&mut g).unwrap();
        assert_bitwise_eq(&g, &naive_matmul(&src.transpose(), &src));
    }
}

proptest! {
    /// A fold split anywhere is the same fold: `add_weighted_gram` over
    /// `rows[..k]` and then over `rows[k..]` onto one accumulator equals
    /// one call over `rows`, bit for bit, for every `k` — the slab
    /// seams 15/16/17/33 included. The ALS row sweep shares prefixes
    /// of its data-fit Gram across rows on exactly this property.
    #[test]
    fn weighted_gram_split_anywhere_matches_one_call_bitwise(
        (src, rows, acc) in (1usize..=40, 1usize..=48).prop_flat_map(|(r, src_rows)| (
            matrix_of(src_rows, r),
            prop::collection::vec(0..src_rows, 50..=50),
            matrix_of(r, r),
        )),
        alpha in -3.0f64..3.0,
    ) {
        let mut whole = acc.clone();
        whole.add_weighted_gram(alpha, &src, &rows).unwrap();
        for k in 0..=rows.len() {
            let mut split = acc.clone();
            split.add_weighted_gram(alpha, &src, &rows[..k]).unwrap();
            split.add_weighted_gram(alpha, &src, &rows[k..]).unwrap();
            assert_bitwise_eq(&split, &whole);
        }
    }
}

/// The storm row sweep's Gram shape — 1,488 known rows of rank 32, two
/// 16-column steps of the AVX-512F tile, four of the AVX one — and the
/// tails of every tile, through every arm the host runs.
#[test]
fn every_gram_arm_matches_sequential_rank_one_bitwise() {
    for (r, count) in [(32, 1488), (31, 40), (17, 33), (8, 96), (3, 5)] {
        let src = Matrix::from_fn(97, r, |i, j| ((i * r + j) as f64 * 0.37).sin() / 3.0);
        let rows: Vec<usize> = (0..count).map(|p| (p * 31) % 97).collect();
        let acc = Matrix::from_fn(r, r, |i, j| ((i + 3 * j) as f64).cos());
        let want = naive_weighted_gram(&acc, -1.7, &src, &rows);
        let arms = MulArm::available();
        assert_eq!(arms[0], MulArm::Scalar, "the scalar arm always runs");
        for arm in arms {
            let mut got = acc.clone();
            weighted_gram_on(arm, -1.7, &src, &rows, &mut got);
            assert_bitwise_eq(&got, &want);
        }
    }
}

/// `A·Bᵀ` at the slab seams of its tile walk — one full slab, a slab
/// plus one, two slabs, two plus one — against every width of the last
/// 32-column tile, the tile-free `n < 32` cases included.
#[test]
fn bt_slab_walk_matches_naive_bitwise() {
    for k in [16, 17, 32, 33] {
        for n in 1..=33 {
            for m in [1, 9] {
                let a = Matrix::from_fn(m, k, |i, p| ((i * k + p) as f64 * 0.71).sin() / 3.0);
                let b = Matrix::from_fn(n, k, |j, p| ((j * k + p) as f64 * 0.43).cos() / 7.0);
                let mut out = Matrix::filled(m, n, f64::NAN);
                a.matmul_bt_into(&b, &mut out).unwrap();
                assert_bitwise_eq(&out, &naive_matmul(&a, &b.transpose()));
            }
        }
    }
}

proptest! {
    /// The gathered product equals the per-position `axpy` chain onto a
    /// zeroed row: for every output row `i`, `axpy_slice(coef(i, p),
    /// b_p)` in ascending `p`. Coefficients include exact zeros (the
    /// chain still adds them), positions span 0..=50 (the 16-deep slab
    /// seams), and rows reuse factor rows by index, as the solver's
    /// right-hand sides do.
    #[test]
    fn gather_matmul_matches_axpy_chain_bitwise(
        (coefs, factor, k, m) in (1usize..=40, 0usize..=50, 1usize..=7).prop_flat_map(
            |(n, k, m)| (matrix_of(m, k), matrix_of(13, n), Just(k), Just(m))
        ),
    ) {
        let n = factor.cols();
        let coef = |i: usize, p: usize| {
            let v = coefs[(i, p)];
            if v > 2.0 { 0.0 } else { v }
        };
        let fill = |i: usize, from: usize, file: &mut [f64]| {
            for (q, c) in file.iter_mut().enumerate() {
                *c = coef(i, from + q);
            }
        };
        let factor_row = |p: usize| factor.row(p % 13);
        let mut want = vec![0.0; m * n];
        for (i, row) in want.chunks_exact_mut(n).enumerate() {
            for p in 0..k {
                axpy_slice(coef(i, p), factor_row(p), row);
            }
        }
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let mut got = vec![f64::NAN; m * n];
        gather_matmul(&fill, &factor_row, k, &mut got, n);
        prop_assert_eq!(bits(&got), bits(&want));
        for arm in MulArm::available() {
            let mut got = vec![f64::NAN; m * n];
            gather_matmul_on(arm, &fill, &factor_row, k, &mut got, n);
            prop_assert_eq!(bits(&got), bits(&want), "{:?}", arm);
        }
    }
}

#[test]
fn weighted_gram_rejects_bad_shapes_and_indices() {
    let src = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f64 - 7.0);
    let mut wrong = Matrix::zeros(2, 2);
    assert!(wrong.add_weighted_gram(1.0, &src, &[0]).is_err());
    let mut acc = Matrix::zeros(3, 3);
    assert!(acc.add_weighted_gram(1.0, &src, &[0, 5]).is_err());
    assert_eq!(acc, Matrix::zeros(3, 3), "a rejected call must not write");
}

/// Explicit degenerate shapes (the proptest above also reaches these,
/// but the fixed cases document the intended behaviour and never
/// shrink away).
#[test]
fn degenerate_shapes() {
    for (m, k, n) in [
        (1, 1, 1),
        (1, 5, 9),
        (9, 5, 1),
        (5, 1, 5),
        (0, 3, 4),
        (3, 0, 4),
        (3, 4, 0),
        (0, 0, 0),
    ] {
        let a = Matrix::from_fn(m, k, |i, j| (i + j) as f64 + 0.25);
        let b = Matrix::from_fn(k, n, |i, j| (i * 2 + j) as f64 - 0.5);
        let got = a.matmul(&b).unwrap();
        let want = naive_matmul(&a, &b);
        assert_eq!(got, want, "shape ({m},{k},{n})");
        // k == 0 must actively zero the (possibly dirty) output.
        let mut out = Matrix::filled(m, n, f64::NAN);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, want, "matmul_into shape ({m},{k},{n})");
    }
}

/// The naive squared-distance chain both distance kernels must
/// reproduce: `s = +0.0`, then `t = r_i − x_i; s += t * t` in
/// ascending `i`.
fn naive_sq_dist(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut s = 0.0;
    for (r, x) in pairs {
        let t = r - x;
        s += t * t;
    }
    s
}

/// The naive nearest atoms of lane-interleaved residuals against
/// contiguous atom rows of length `m`: per lane, the naive chain of
/// every atom whose exclusion bit is clear, then the first strict-`<`
/// minimum in ascending atom order, `(+∞, usize::MAX)` when none is.
fn naive_nearest(residuals: &[f64], atoms: &[f64], excluded: &[u8]) -> NearestLanes {
    const L: usize = BINARY_LANES;
    let m = residuals.len() / L;
    let mut best = [f64::INFINITY; L];
    let mut best_j = [usize::MAX; L];
    for l in 0..L {
        for (j, &ex) in excluded.iter().enumerate() {
            if ex & (1 << l) != 0 {
                continue;
            }
            let d = naive_sq_dist((0..m).map(|i| (residuals[i * L + l], atoms[j * m + i])));
            if d < best[l] {
                best[l] = d;
                best_j[l] = j;
            }
        }
    }
    (best, best_j)
}

/// Naive per-cell distances of one residual against the `m x n`
/// links x cells dictionary.
fn naive_row(residual: &[f64], dictionary: &[f64], n: usize) -> Vec<f64> {
    (0..n)
        .map(|j| {
            naive_sq_dist(
                residual
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| (r, dictionary[i * n + j])),
            )
        })
        .collect()
}

/// The bits a distance is compared by: its exact bits, except that
/// every NaN maps to one value. Which NaN an add of two NaNs returns
/// is not a property of the chain: Rust leaves the sign and payload of
/// a NaN result unspecified, and LLVM may commute an add. The naive
/// chain itself returns `0xfff8…` for one input in a debug build and
/// `0x7ff8…` in release. So a NaN must stay a NaN (it can never win
/// the pursuit's strict `<` argmin) and everything else must match bit
/// for bit: finite values, `+∞` and the sign of zero.
fn dist_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn assert_dist_bits_eq(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(dist_bits(*g), dist_bits(*w), "{ctx}: entry {k}: {g} vs {w}");
    }
}

/// Nearest atoms must agree exactly: the same index per lane and the
/// same distance bits. A returned distance is never a NaN (a NaN loses
/// every `<`), so no NaN class comparison is needed.
fn assert_nearest_eq(got: NearestLanes, want: NearestLanes, ctx: &str) {
    assert_eq!(got.1, want.1, "{ctx}: indices");
    assert_eq!(
        got.0.map(f64::to_bits),
        want.0.map(f64::to_bits),
        "{ctx}: distances {:?} vs {:?}",
        got.0,
        want.0
    );
}

/// The links x cells dictionary of `n` contiguous atom rows of length
/// `m`: the layout the nearest-atom scan reads.
fn to_dictionary(atoms: &[f64], m: usize, n: usize) -> Vec<f64> {
    (0..m * n).map(|k| atoms[(k % n) * m + k / n]).collect()
}

/// Each lane's `Σ r²` in ascending link order: what the pursuit's
/// residual guard holds and `nearest_block`'s certificate reads.
fn lane_sq(residuals: &[f64]) -> [f64; BINARY_LANES] {
    core::array::from_fn(|l| {
        residuals
            .iter()
            .skip(l)
            .step_by(BINARY_LANES)
            .map(|r| r * r)
            .sum()
    })
}

/// Every scan arm this host runs, and the dispatching entry point,
/// against the naive nearest atoms. Returns the widest arm's mask of
/// lanes whose certificate failed.
fn assert_every_arm(residuals: &[f64], atoms: &[f64], excluded: &[u8], ctx: &str) -> u8 {
    let (m, n) = (residuals.len() / BINARY_LANES, excluded.len());
    let dictionary = to_dictionary(atoms, m, n);
    let atoms32 = FilterAtoms::new(&dictionary, n);
    let residual_sq = lane_sq(residuals);
    let want = naive_nearest(residuals, atoms, excluded);
    let settled = excluded.iter().fold(u8::MAX, |all, &ex| all & ex);
    let mut fallback = Vec::new();
    let mut uncertified = 0;
    for arm in ScanArm::available() {
        let (got, mask) = nearest_block_on(
            arm,
            residuals,
            &residual_sq,
            &dictionary,
            &atoms32,
            excluded,
            &mut fallback,
        );
        assert_nearest_eq(got, want, &format!("{ctx} {arm:?}"));
        assert_eq!(
            mask & settled,
            0,
            "{ctx} {arm:?}: a lane with no atom fell back"
        );
        uncertified = mask;
    }
    let (got, mask) = nearest_block(
        residuals,
        &residual_sq,
        &dictionary,
        &atoms32,
        excluded,
        &mut fallback,
    );
    assert_nearest_eq(got, want, &format!("{ctx} dispatch"));
    assert_eq!(mask, uncertified, "{ctx}: dispatch runs the widest arm");
    uncertified
}

/// The non-finite, signed-zero and extreme values laced into distance
/// inputs. Both NaN signs appear, and `∞ − ∞` makes NaNs of its own.
/// The huge magnitudes overflow a square (`1e300`), a product with an
/// ordinary value (`−1e306`) or a sum of squares (`1e154`), and the
/// subnormal underflows one; each makes the nearest-atom certificate's
/// bound infinite or its rounding absolute.
const SPECIAL: [f64; 10] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    1e300,
    -1e306,
    1e154,
    4e-320,
];

/// `len` finite values with up to six [`SPECIAL`] values overwriting
/// random positions (zero specials keeps whole chains finite).
fn laced(len: usize) -> impl Strategy<Value = Vec<f64>> {
    (
        prop::collection::vec(-10.0f64..10.0, len),
        prop::collection::vec((0..len.max(1), 0..SPECIAL.len()), 0usize..=6),
    )
        .prop_map(move |(vals, sprinkle)| {
            let mut v: Vec<f64> = vals.iter().map(|x| x / 3.0).collect();
            if len > 0 {
                for (i, k) in sprinkle {
                    v[i] = SPECIAL[k];
                }
            }
            v
        })
}

/// `n` values: 0, 1, every residue mod 16 (row kernel's 16-/4-cell
/// tails) and mod 48, 24, 16 and 8 (the nearest-atom scan's tiles and
/// registers) past two full 48-atom tiles, odd and even.
fn distance_n() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(1usize), 2usize..=100]
}

/// `n` exclusion bytes: none, all lanes, or a random lane set.
fn exclusions(n: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop_oneof![Just(0u32), Just(255u32), 0u32..256], n)
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

/// Makes ties the first index must win: each `(dst, src)` pair copies
/// atom row `src` over row `dst`, and each lane in `on_atom` moves its
/// residual exactly onto an atom row, so a copied pair ties at `+0.0`.
fn plant_ties(
    residuals: &mut [f64],
    atoms: &mut [f64],
    m: usize,
    n: usize,
    copies: &[(usize, usize)],
    on_atom: &[(usize, usize)],
) {
    if n == 0 {
        return;
    }
    for &(dst, src) in copies {
        let (dst, src) = (dst % n, src % n);
        atoms.copy_within(src * m..(src + 1) * m, dst * m);
    }
    for &(l, j) in on_atom {
        let (l, j) = (l % BINARY_LANES, j % n);
        for i in 0..m {
            residuals[i * BINARY_LANES + l] = atoms[j * m + i];
        }
    }
}

proptest! {
    #[test]
    fn nearest_block_matches_naive_first_minimum(
        (m, n, residuals, atoms, excluded, copies, on_atom) in (0usize..=40, distance_n())
            .prop_flat_map(|(m, n)| {
                (
                    laced(m * BINARY_LANES),
                    laced(n * m),
                    exclusions(n),
                    prop::collection::vec((0usize..64, 0usize..64), 0usize..=6),
                    prop::collection::vec((0usize..8, 0usize..64), 0usize..=8),
                )
                    .prop_map(move |(r, a, e, c, o)| (m, n, r, a, e, c, o))
            }),
    ) {
        let (mut residuals, mut atoms) = (residuals, atoms);
        plant_ties(&mut residuals, &mut atoms, m, n, &copies, &on_atom);
        assert_every_arm(&residuals, &atoms, &excluded, &format!("nearest {m}x{n}"));
    }

    /// Near-ties: atom `twin` copies atom `src`, exactly (`nudge = m`)
    /// or one ulp away in link `nudge`, and the lanes in `on` sit exactly on `src`.
    /// Their estimates tie or differ by far less than the certificate's
    /// bound, so each of those lanes must fall back on every arm — and
    /// still answer exactly.
    #[test]
    fn nearest_block_near_ties_fall_back_exactly(
        (m, n, residuals, atoms, (src, twin), nudge, on) in (1usize..=40, 2usize..=75)
            .prop_flat_map(|(m, n)| {
                (
                    prop::collection::vec(-10.0f64..10.0, m * BINARY_LANES),
                    prop::collection::vec(-10.0f64..10.0, n * m),
                    (0..n, 0..n - 1),
                    0..=m,
                    1u32..256,
                )
                    .prop_map(move |(r, a, p, u, o)| (m, n, r, a, p, u, o as u8))
            }),
    ) {
        let (mut residuals, mut atoms) = (residuals, atoms);
        let twin = if twin >= src { twin + 1 } else { twin };
        atoms.copy_within(src * m..(src + 1) * m, twin * m);
        if nudge < m {
            atoms[twin * m + nudge] = atoms[twin * m + nudge].next_up();
        }
        for l in (0..BINARY_LANES).filter(|l| on & (1 << l) != 0) {
            for i in 0..m {
                residuals[i * BINARY_LANES + l] = atoms[src * m + i];
            }
        }
        let uncertified = assert_every_arm(
            &residuals,
            &atoms,
            &vec![0; n],
            &format!("near tie {m}x{n} {src}|{twin}"),
        );
        prop_assert_eq!(uncertified & on, on, "a lane on a near-tie was certified");
    }

    /// f32-resolution near-ties: atom `twin` is atom `src` scaled by
    /// `1 + 2⁻ᵏ` (`k ∈ 8..=40`), and the lanes in `on` sit on `src`
    /// pulled `2⁻ᵖ` of the way toward the origin, so their two
    /// candidates differ by about `2¹⁻ᵏ⁻ᵖ·‖src‖²`. For small `k` that
    /// is far above the f32 certificate's `τ`, for large `k` far below
    /// it (and under one f32 ulp of the estimates), and in between
    /// near it. Whatever each arm certifies, every lane must answer
    /// exactly.
    #[test]
    fn nearest_block_f32_near_ties_answer_exactly(
        (m, n, (residuals, atoms), (src, twin), (k, p, on)) in (1usize..=40, 2usize..=100)
            .prop_flat_map(|(m, n)| {
                (
                    Just(m),
                    Just(n),
                    (
                        prop::collection::vec(-10.0f64..10.0, m * BINARY_LANES),
                        prop::collection::vec(-10.0f64..10.0, n * m),
                    ),
                    (0..n, 0..n - 1),
                    (8i32..=40, 1i32..=6, 1u32..256),
                )
            }),
    ) {
        let (mut residuals, mut atoms) = (residuals, atoms);
        let twin = if twin >= src { twin + 1 } else { twin };
        let (grow, pull) = (1.0 + 2f64.powi(-k), 1.0 - 2f64.powi(-p));
        for i in 0..m {
            atoms[twin * m + i] = atoms[src * m + i] * grow;
        }
        for l in (0..BINARY_LANES).filter(|l| on & (1 << l) != 0) {
            for i in 0..m {
                residuals[i * BINARY_LANES + l] = atoms[src * m + i] * pull;
            }
        }
        assert_every_arm(
            &residuals,
            &atoms,
            &vec![0; n],
            &format!("f32 near tie {m}x{n} {src}|{twin} k={k} p={p}"),
        );
    }

    #[test]
    fn sq_dist_row_matches_naive_chain_bitwise(
        (n, residual, dictionary) in (1usize..=40, distance_n()).prop_flat_map(|(m, n)| {
            (laced(m), laced(m * n)).prop_map(move |(r, d)| (n, r, d))
        }),
    ) {
        let mut out = vec![f64::NAN; n]; // fully overwritten
        sq_dist_row(&residual, &dictionary, &mut out);
        let m = residual.len();
        assert_dist_bits_eq(&out, &naive_row(&residual, &dictionary, n), &format!("row {m}x{n}"));
    }
}

/// Every tail of both distance kernels at fixed shapes that never
/// shrink away: `n` in `0..=100` (each residue mod 48, 24, 16, 8 and
/// 4 at least twice) against link counts around the 4-/8-lane and
/// 16-cell edges, `m = 0` (empty chains are `+0.0`, so the first
/// selectable atom wins) included, with a special value laced in at a
/// shape-dependent position. The nearest-atom kernel also sees
/// duplicate atoms on both sides of every 8-, 16-, 24- and 48-atom
/// register and tile boundary and at the same position, residual lanes sitting exactly
/// on a duplicated atom (a `+0.0` tie the first index must win),
/// varying exclusion masks and one lane excluded from every atom,
/// which must come back `(+∞, usize::MAX)`. Across the shapes, both
/// of the scan's answers must occur: lanes whose certificate passes
/// and lanes that fall back.
#[test]
fn distance_kernels_cover_every_tail_bitwise() {
    const L: usize = BINARY_LANES;
    let (mut lanes, mut fell_back) = (0, 0);
    for m in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 40] {
        for n in 0usize..=100 {
            let value = |k: usize| ((k as f64) * 0.37 + m as f64).sin() * 7.0 / 3.0;
            let mut residuals: Vec<f64> = (0..m * L).map(value).collect();
            let mut atoms: Vec<f64> = (0..n * m).map(|k| value(k + 1000)).collect();
            // Atom j + 1 repeats atom j for every j ≡ 3 (mod 4) (the
            // pairs 3|4, 7|8, … straddle each group boundary), and
            // atom j repeats atom j − 5 for every j ≡ 6 (mod 8).
            let copies: Vec<(usize, usize)> = (0..n)
                .filter(|j| j % 4 == 3 && j + 1 < n)
                .map(|j| (j + 1, j))
                .chain((5..n).filter(|j| j % 8 == 6).map(|j| (j, j - 5)))
                .collect();
            let on_atom: Vec<(usize, usize)> = (0..L - 1).map(|l| (l, 4 * l + 3)).collect();
            plant_ties(&mut residuals, &mut atoms, m, n, &copies, &on_atom);
            if m * n > 0 {
                atoms[(m * 7 + n) % (m * n)] = SPECIAL[(m + n) % SPECIAL.len()];
                residuals[(n * 5) % (m * L)] = SPECIAL[(m * n) % SPECIAL.len()];
            }
            // Lane 7 is excluded from every atom; lanes 0–6 see a
            // pattern that changes with the atom and the shape.
            let excluded: Vec<u8> = (0..n)
                .map(|j| 0x80 | [0x00, 0x01, 0x0f, 0x00, 0x52, 0x7f, 0x30][(j + m) % 7])
                .collect();
            let want = naive_nearest(&residuals, &atoms, &excluded);
            assert_eq!((want.0[L - 1], want.1[L - 1]), (f64::INFINITY, usize::MAX));
            let mask = assert_every_arm(&residuals, &atoms, &excluded, &format!("nearest {m}x{n}"));
            let settled = excluded.iter().fold(u8::MAX, |all, &ex| all & ex);
            lanes += (!settled).count_ones();
            fell_back += mask.count_ones();

            let residual = &residuals[..m];
            let dictionary = to_dictionary(&atoms, m, n);
            let mut row = vec![f64::NAN; n];
            sq_dist_row(residual, &dictionary, &mut row);
            assert_dist_bits_eq(
                &row,
                &naive_row(residual, &dictionary, n),
                &format!("row {m}x{n}"),
            );
        }
    }
    // Both answers occur: certified lanes and lanes that fell back.
    assert!(
        fell_back > 1000 && lanes - fell_back > 500,
        "{fell_back} of {lanes} lanes fell back"
    );
}

/// The f32 certificate's boundary, swept: lane `l` sits on atom
/// `3l + 1` pulled `1/16` of the way toward the origin, and atom
/// `3l + 2` is that atom scaled by `1 + 2⁻ᵏ`, for every `k ∈ 8..=40`
/// on a storm-shaped 32-link dictionary. At `k = 8` the pair's gap is
/// far above `τ` and every lane certifies; at `k = 40` it is far below
/// and every lane falls back. Every answer, on every arm, is exact.
#[test]
fn f32_near_ties_straddle_the_certificate() {
    const L: usize = BINARY_LANES;
    let (m, n) = (32, 64);
    let mut masks = Vec::new();
    for k in 8..=40 {
        let mut atoms: Vec<f64> = (0..n * m)
            .map(|q| ((q as f64) * 0.61 + 0.2).sin() * 7.0 / 3.0)
            .collect();
        let mut residuals = vec![0.0; m * L];
        for l in 0..L {
            let (src, twin) = (3 * l + 1, 3 * l + 2);
            for i in 0..m {
                let x = atoms[src * m + i];
                atoms[twin * m + i] = x * (1.0 + 2f64.powi(-k));
                residuals[i * L + l] = x * (1.0 - 1.0 / 16.0);
            }
        }
        let ctx = format!("boundary k={k}");
        masks.push(assert_every_arm(&residuals, &atoms, &vec![0; n], &ctx));
    }
    assert_eq!(masks[0], 0, "k = 8: every lane must certify ({masks:?})");
    assert_eq!(
        masks[masks.len() - 1],
        u8::MAX,
        "k = 40: every lane must fall back ({masks:?})"
    );
}

/// Inputs outside the f32 filter's range: an atom or a residual past
/// `f32::MAX` (finite in f64, `+∞` in f32), a whole dictionary at
/// f32-subnormal scale (about `1e-40`, where f32 keeps a few bits) and
/// one whose products and norms are f32-subnormal (about `1e-20`) make
/// `τ` infinite, so every lane falls back and answers exactly. The
/// same data at a small but normal scale (`1e-12`) still certifies.
#[test]
fn nearest_block_outside_f32_range_falls_back_exactly() {
    const L: usize = BINARY_LANES;
    let (m, n) = (8, 40);
    let value = |q: usize| ((q as f64) * 0.43 + 1.1).sin() * 3.0;
    let atoms: Vec<f64> = (0..n * m).map(|q| value(q + 500)).collect();
    let residuals: Vec<f64> = (0..m * L).map(value).collect();
    let none = vec![0_u8; n];
    let baseline = assert_every_arm(&residuals, &atoms, &none, "in range");
    assert_ne!(baseline, u8::MAX, "the in-range case must certify a lane");

    let mut huge_atom = atoms.clone();
    huge_atom[17 * m + 3] = 1e39;
    assert!(1e39 > f64::from(f32::MAX));
    let mask = assert_every_arm(&residuals, &huge_atom, &none, "atom past f32::MAX");
    assert_eq!(mask, u8::MAX, "an atom past f32::MAX must fail every lane");

    let mut huge_residuals = residuals.clone();
    for l in 0..L {
        huge_residuals[(l % m) * L + l] = -1e39;
    }
    let mask = assert_every_arm(&huge_residuals, &atoms, &none, "residuals past f32::MAX");
    assert_eq!(mask, u8::MAX, "a residual past f32::MAX must fail its lane");

    for (scale, certifies) in [(1e-40, false), (1e-20, false), (1e-12, true)] {
        let tiny_atoms: Vec<f64> = atoms.iter().map(|x| x * scale).collect();
        let tiny_residuals: Vec<f64> = residuals.iter().map(|r| r * scale).collect();
        let ctx = format!("scale {scale:e}");
        let mask = assert_every_arm(&tiny_residuals, &tiny_atoms, &none, &ctx);
        assert_eq!(
            mask != u8::MAX,
            certifies,
            "{ctx}: fallback mask {mask:#04x}"
        );
    }
}

/// A storm-shaped atom row set for the exclusion cases below: `n`
/// distinct atoms of `m` links, with every lane's residual sitting
/// exactly on atom `on[l]`, so a lane's answer moves whenever its own
/// atom is excluded.
fn sitting_on(m: usize, n: usize, on: [usize; BINARY_LANES]) -> (Vec<f64>, Vec<f64>) {
    let atoms: Vec<f64> = (0..n * m)
        .map(|q| ((q as f64) * 0.53 + 0.7).sin() * 7.0 / 3.0)
        .collect();
    let mut residuals = vec![0.0; m * BINARY_LANES];
    for (l, &j) in on.iter().enumerate() {
        for i in 0..m {
            residuals[i * BINARY_LANES + l] = atoms[j * m + i];
        }
    }
    (residuals, atoms)
}

/// The masked argmin update, one exclusion at a time: at every
/// position `p` of the 48-atom tile and of the 16-atom register after
/// it (`n = 64`, and `n = 61`, whose last register is loaded under a
/// 13-atom mask), lane `p % 8` has atom `p` excluded while every lane
/// sits exactly on atom `p`. The excluded lane must answer another
/// atom, every other lane atom `p` at `+0.0`, on every arm.
#[test]
fn nearest_block_one_exclusion_at_every_tile_position() {
    const L: usize = BINARY_LANES;
    let m = 32;
    for n in [64, 61] {
        let mut certified = 0;
        for p in 0..n {
            let (residuals, atoms) = sitting_on(m, n, [p; L]);
            let lane = p % L;
            let mut excluded = vec![0_u8; n];
            excluded[p] = 1 << lane;
            let want = naive_nearest(&residuals, &atoms, &excluded);
            for l in 0..L {
                assert_eq!(want.1[l] == p, l != lane, "position {p}, lane {l}");
            }
            let ctx = format!("one exclusion n={n} p={p}");
            let mask = assert_every_arm(&residuals, &atoms, &excluded, &ctx);
            certified += (!mask).count_ones();
        }
        assert!(
            certified as usize > (L - 1) * n,
            "n = {n}: only {certified} lanes certified"
        );
    }
}

/// A tile with exclusions next to one without: over `n = 112` (two
/// full 48-atom tiles and a 16-atom register), lane `l` sits on atom
/// `48·t + 5l + 1` of tile `t` and has that atom and a lane-dependent
/// pattern of its tile excluded, while the other tiles exclude
/// nothing; the odd lanes then move onto an atom of the next,
/// unexcluded tile. Every arm must answer as the naive scan.
#[test]
fn nearest_block_excluded_tile_beside_a_clean_one() {
    const L: usize = BINARY_LANES;
    let (m, n) = (32, 112);
    for t in 0..3 {
        let (lo, hi) = (48 * t, (48 * t + 48).min(n));
        let clean = if t == 0 { 48 } else { 0 };
        for odd_clean in [false, true] {
            let on: [usize; L] = core::array::from_fn(|l| {
                if odd_clean && l % 2 == 1 {
                    clean + 3 * l
                } else {
                    lo + (5 * l + 1) % (hi - lo)
                }
            });
            let (residuals, atoms) = sitting_on(m, n, on);
            let mut excluded = vec![0_u8; n];
            for l in 0..L {
                let own = lo + (5 * l + 1) % (hi - lo);
                excluded[own] |= 1 << l;
                for j in (lo..hi).filter(|j| (j * 7 + l) % 5 == 0) {
                    excluded[j] |= 1 << l;
                }
            }
            let ctx = format!("excluded tile {t}, odd lanes clean {odd_clean}");
            assert_every_arm(&residuals, &atoms, &excluded, &ctx);
        }
    }
}

/// A lane excluded from a whole tile: over `n = 112`, lane 3 is
/// excluded from every atom of the second 48-atom tile and sits on
/// atom 60 inside it, and lane 5 from the first tile and the 16-atom
/// register, sitting on atom 7; the other lanes exclude nothing. Both
/// must answer from the atoms left to them, on every arm.
#[test]
fn nearest_block_lane_excluded_from_a_whole_tile() {
    const L: usize = BINARY_LANES;
    let (m, n) = (32, 112);
    let on: [usize; L] = [2, 20, 50, 60, 100, 7, 95, 47];
    let (residuals, atoms) = sitting_on(m, n, on);
    let mut excluded = vec![0_u8; n];
    for (j, ex) in excluded.iter_mut().enumerate() {
        if (48..96).contains(&j) {
            *ex |= 1 << 3;
        } else {
            *ex |= 1 << 5;
        }
    }
    let want = naive_nearest(&residuals, &atoms, &excluded);
    assert!(!(48..96).contains(&want.1[3]) && (48..96).contains(&want.1[5]));
    let mask = assert_every_arm(&residuals, &atoms, &excluded, "whole-tile exclusion");
    assert_eq!(
        mask & !(1 << 3 | 1 << 5),
        0,
        "lanes on their atom must certify"
    );
}
