//! Kernel-dispatch parity tier.
//!
//! The shape-aware dispatcher in `iupdater_linalg::kernels` promises
//! that every arm — tiny-inner, short-fat, tall-thin, general, plus
//! the `A·Bᵀ` and Gram entry points — computes each output element as
//! an ascending-`k` sum, **bit-identical** to the naive triple loop
//! and to the pre-dispatch blocked kernel on finite inputs. This tier
//! pins that contract:
//!
//! - each arm is proptested against the naive reference with
//!   `prop_assert_eq!` (exact bits, no tolerance), on shape families
//!   that provably land on that arm (asserted via `classify`);
//! - fully randomized shapes, including the degenerate `m = 1`,
//!   `n = 1`, `k = 1` and empty (`0`-extent) cases, cross-check all
//!   three entry points;
//! - a reimplementation of the legacy cache-blocked `i-k-j` kernel
//!   (the exact code `blocked_multiply` shipped before the dispatcher)
//!   proves below-threshold shapes — and every other finite-input
//!   shape — produce the same bits as before the refactor;
//! - the weighted Gram entry point (`Matrix::add_weighted_gram`, the
//!   solver's normal-matrix assembly) equals one sequential rank-1
//!   update per listed row, bit for bit, across the 4-/8-lane edges,
//!   the 4-row tile and the 16-row slab seams, and a fold split at
//!   any position equals the unsplit fold;
//! - both distance kernels of the binary read path equal the naive
//!   `t = r − x; s += t * t` chain bit for bit — here on *every* input,
//!   ±0.0, ±∞ and NaN included, since a distance chain has no skipped
//!   term to excuse a non-finite divergence. `sq_dist_row` is compared
//!   entry by entry across every 16-/4-cell tail; the one thing
//!   compared by class rather than by bits is a NaN result's sign and
//!   payload, which Rust leaves unspecified (see `dist_bits`).
//!   `nearest_block` is compared with the naive chains followed by a
//!   strict-`<` first-minimum argmin over the atoms a lane has not
//!   excluded: the same index and distance bits per lane, across every
//!   tail of the atoms in flight, duplicate atoms, exclusion masks
//!   (a fully excluded lane returns `(+∞, usize::MAX)`) and `m = 0`.
//!   The kernel's unit tests call every compiled arm (scalar, AVX,
//!   AVX-512F) directly, since dispatch reaches only the widest.
//!
//! Any future kernel that cannot preserve the accumulation order must
//! downgrade the affected assertions to a `<= 1e-12` relative bound
//! (see ARCHITECTURE.md, "Kernel dispatch") — never silently loosen.

use iupdater_linalg::kernels::{
    classify, matmul_rk, nearest_block, sq_dist_row, KernelArm, NearestLanes, BINARY_LANES,
    THIN_EDGE, TINY_INNER_MAX,
};
use iupdater_linalg::Matrix;
use proptest::prelude::*;

/// Naive `i-j-k` reference: one left-to-right ascending-`k` sum per
/// output element, the order every dispatcher arm must reproduce.
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

/// The pre-dispatch kernel, reimplemented verbatim from the seed's
/// `blocked_multiply` (cache-blocked `i-k-j`, `BLOCK = 64`, zero-skip
/// on `a[i][p]`, accumulating into a pre-zeroed output). Below the
/// dispatch thresholds the new arms must match it bit-for-bit; on
/// finite inputs the match in fact holds at every shape because the
/// per-element accumulation order never changed.
fn legacy_blocked_multiply(a: &Matrix, b: &Matrix) -> Matrix {
    const BLOCK: usize = 64;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = vec![0.0; m * n];
    for jb in (0..n).step_by(BLOCK) {
        let jhi = (jb + BLOCK).min(n);
        for ib in (0..m).step_by(BLOCK) {
            let ihi = (ib + BLOCK).min(m);
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

/// `(A, B)` multiplicands for an `m x k · k x n` product.
fn product_pair(m: usize, k: usize, n: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (matrix_of(m, k), matrix_of(k, n))
}

/// Shape family guaranteed to dispatch to `arm` (checked again inside
/// each test via `classify`).
fn shape_for(arm: KernelArm) -> BoxedStrategy<(usize, usize, usize)> {
    match arm {
        KernelArm::TinyInner => (1usize..=40, 1usize..=TINY_INNER_MAX, 1usize..=40).boxed(),
        KernelArm::ShortFat => (
            1usize..=THIN_EDGE,
            TINY_INNER_MAX + 1..48usize,
            1usize..=100,
        )
            .boxed(),
        KernelArm::TallThin => (
            THIN_EDGE + 1..100usize,
            TINY_INNER_MAX + 1..48usize,
            1usize..=THIN_EDGE,
        )
            .boxed(),
        KernelArm::General => (
            THIN_EDGE + 1..64usize,
            TINY_INNER_MAX + 1..48usize,
            THIN_EDGE + 1..64usize,
        )
            .boxed(),
    }
}

/// Drives one arm: sample a shape from its family, confirm `classify`
/// picks it, and demand bit-equality with the naive reference through
/// the public `matmul` / `matmul_into` entry points.
fn check_arm(arm: KernelArm) -> impl Strategy<Value = (Matrix, Matrix)> {
    shape_for(arm).prop_flat_map(move |(m, k, n)| {
        product_pair(m, k, n).prop_map(move |(a, b)| {
            assert_eq!(classify(m, k, n), arm, "shape family drifted off its arm");
            (a, b)
        })
    })
}

fn assert_bitwise_eq(got: &Matrix, want: &Matrix) {
    assert_eq!(got.shape(), want.shape());
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        assert_eq!(g.to_bits(), w.to_bits(), "bit mismatch: {g} vs {w}");
    }
}

proptest! {
    #[test]
    fn tiny_inner_matches_naive_bitwise((a, b) in check_arm(KernelArm::TinyInner)) {
        assert_bitwise_eq(&a.matmul(&b).unwrap(), &naive_matmul(&a, &b));
    }

    #[test]
    fn short_fat_matches_naive_bitwise((a, b) in check_arm(KernelArm::ShortFat)) {
        assert_bitwise_eq(&a.matmul(&b).unwrap(), &naive_matmul(&a, &b));
    }

    #[test]
    fn tall_thin_matches_naive_bitwise((a, b) in check_arm(KernelArm::TallThin)) {
        assert_bitwise_eq(&a.matmul(&b).unwrap(), &naive_matmul(&a, &b));
    }

    #[test]
    fn general_matches_naive_bitwise((a, b) in check_arm(KernelArm::General)) {
        assert_bitwise_eq(&a.matmul(&b).unwrap(), &naive_matmul(&a, &b));
    }

    /// Fully randomized shapes, degenerate extents included: `m`, `k`
    /// or `n` may each be `0` or `1`, hitting the early returns and
    /// the dispatch-table tails of all three entry points.
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

    /// The refactor pin: shapes below the dispatch thresholds (and, on
    /// finite inputs, every other shape) produce the same bits as the
    /// seed's `blocked_multiply`.
    #[test]
    fn dispatcher_matches_legacy_blocked_kernel_bitwise(
        (m, k, n) in prop_oneof![
            // Below-threshold shapes: each arm's home turf.
            (1usize..=16, 1usize..=TINY_INNER_MAX, 1usize..=16),
            (1usize..=THIN_EDGE, 17usize..40, 1usize..=80),
            (9usize..80, 17usize..40, 1usize..=THIN_EDGE),
            // And shapes that straddle the BLOCK=64 cache-tile edge.
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
            let mut got = acc.clone();
            got.add_weighted_gram(alpha, &src, &rows[..len]).unwrap();
            assert_bitwise_eq(&got, &naive_weighted_gram(&acc, alpha, &src, &rows[..len]));
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

#[test]
fn weighted_gram_rejects_bad_shapes_and_indices() {
    let src = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f64 - 7.0);
    let mut wrong = Matrix::zeros(2, 2);
    assert!(wrong.add_weighted_gram(1.0, &src, &[0]).is_err());
    let mut acc = Matrix::zeros(3, 3);
    assert!(acc.add_weighted_gram(1.0, &src, &[0, 5]).is_err());
    assert_eq!(acc, Matrix::zeros(3, 3), "a rejected call must not write");
}

/// The monomorphised tiny-inner kernel, called directly with explicit
/// `K`, matches the dispatcher output (which routes through the same
/// code — this guards the public `matmul_rk` entry point itself).
#[test]
fn matmul_rk_direct_call_matches_dispatcher() {
    let (m, k, n) = (13, 8, 29);
    let a = Matrix::from_fn(m, k, |i, j| ((i + 2 * j) as f64).sin() / 3.0);
    let b = Matrix::from_fn(k, n, |i, j| ((3 * i + j) as f64).cos() / 3.0);
    let mut direct = vec![f64::NAN; m * n];
    matmul_rk::<8, _, _>(&|i| a.row(i), &|p| b.row(p), &mut direct, m, n);
    let expected = a.matmul(&b).unwrap();
    assert_eq!(direct, expected.as_slice());
}

/// Every decision-table row, spelled out at the boundary values.
#[test]
fn decision_table_boundaries() {
    // k at and just past the tiny-inner threshold.
    assert_eq!(classify(100, TINY_INNER_MAX, 100), KernelArm::TinyInner);
    assert_eq!(classify(100, TINY_INNER_MAX + 1, 100), KernelArm::General);
    // m at and just past the short-fat edge (k large enough).
    assert_eq!(classify(THIN_EDGE, 32, 100), KernelArm::ShortFat);
    assert_eq!(classify(THIN_EDGE + 1, 32, 100), KernelArm::General);
    // n at and just past the tall-thin edge.
    assert_eq!(classify(100, 32, THIN_EDGE), KernelArm::TallThin);
    assert_eq!(classify(100, 32, THIN_EDGE + 1), KernelArm::General);
    // First-match precedence: tiny-inner wins over both thin arms.
    assert_eq!(classify(1, 1, 1), KernelArm::TinyInner);
    assert_eq!(classify(THIN_EDGE, 32, THIN_EDGE), KernelArm::ShortFat);
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

/// The non-finite and signed-zero values laced into distance inputs.
/// Both NaN signs appear, and `∞ − ∞` makes NaNs of its own.
const SPECIAL: [f64; 6] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
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
/// tails) and mod 8, 4 and 2 (atoms in flight per nearest-atom step),
/// odd and even.
fn distance_n() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(1usize), 2usize..=49]
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
        assert_nearest_eq(
            nearest_block(&residuals, &atoms, &excluded),
            naive_nearest(&residuals, &atoms, &excluded),
            &format!("nearest {m}x{n}"),
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
/// shrink away: `n` in `0..=33` (each residue mod 16, 8, 4 and 2 at
/// least twice) against link counts around the 4-/8-lane and 16-cell
/// edges, `m = 0` (empty chains are `+0.0`, so the first selectable
/// atom wins) included, with a special value laced in at a
/// shape-dependent position. The nearest-atom kernel also sees
/// duplicate atoms on both sides of every 2-, 4- and 8-atom group
/// boundary and at the same position, residual lanes sitting exactly
/// on a duplicated atom (a `+0.0` tie the first index must win),
/// varying exclusion masks and one lane excluded from every atom,
/// which must come back `(+∞, usize::MAX)`.
#[test]
fn distance_kernels_cover_every_tail_bitwise() {
    const L: usize = BINARY_LANES;
    for m in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 40] {
        for n in 0usize..=33 {
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
            assert_nearest_eq(
                nearest_block(&residuals, &atoms, &excluded),
                want,
                &format!("nearest {m}x{n}"),
            );

            let residual = &residuals[..m];
            let dictionary: Vec<f64> = (0..m * n).map(|k| atoms[(k % n) * m + k / n]).collect();
            let mut row = vec![f64::NAN; n];
            sq_dist_row(residual, &dictionary, &mut row);
            assert_dist_bits_eq(
                &row,
                &naive_row(residual, &dictionary, n),
                &format!("row {m}x{n}"),
            );
        }
    }
}
