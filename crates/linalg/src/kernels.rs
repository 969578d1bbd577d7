//! Register-tiled microkernels and the shape-aware dispatch layer.
//!
//! Every dense multiply in this crate — [`crate::Matrix::matmul`],
//! [`crate::Matrix::matmul_into`], [`crate::Matrix::matmul_bt_into`],
//! [`crate::Matrix::gram_into`] and the [`crate::MatrixView`] variants —
//! funnels into this module, and so do the binary read path's
//! squared-distance scans ([`nearest_block`], [`sq_dist_row`]). The hot
//! shapes of the iUpdater workload are *small in one dimension* (rank ≤
//! 8 on the paper's 6- and 8-link presets and r = 32 on the 32x1536
//! storm site, links ≈ 6–32, cells ≤ 1536):
//! short-fat and tall-thin products, tiny-inner Gram/projection
//! products, and the solver's `L·Rᵀ` reconstruction. A one-size
//! cache-blocked kernel loses on those shapes (BENCH_PR1 measured 0.88x
//! at 96x8·8x96), so the dispatcher picks a microkernel per call from
//! `(m, k, n)` alone:
//!
//! | Arm                        | Condition (first match)    | Kernel |
//! |----------------------------|----------------------------|--------|
//! | [`KernelArm::TinyInner`]   | `k ≤ 16` (`TINY_INNER_MAX`)| monomorphised [`matmul_rk`]`::<K>`: coefficients in a `[f64; K]` register file, fully unrolled over `k`, 4-wide (8-wide AVX) accumulator groups over `j` |
//! | [`KernelArm::ShortFat`]    | `m ≤ 8` (`THIN_EDGE`)      | `k` walked in ≤16-deep slabs of the same row kernel over full-width rows, accumulators seeded from the partial sums in `out` |
//! | [`KernelArm::TallThin`]    | `n ≤ 8` (`THIN_EDGE`)      | output rows as monomorphised `[f64; N]` register files, four rows in flight, held in locals for the whole `k` loop; one store per element |
//! | [`KernelArm::General`]     | otherwise                  | cache-blocked (`BLOCK = 64`) column panels — the active `B` slab (≤ 8 KB) stays L1-resident — times ≤16-deep `k`-slabs of the shared row kernel |
//!
//! # The accumulation-order contract
//!
//! Every arm computes each output element as the sum of
//! `a[i][p] * b[p][j]` **in ascending `p` order**, exactly like the
//! naive triple loop. Register tiling changes which elements are in
//! flight together, never the order within one element's sum, so for
//! finite inputs every arm is **bit-identical** to the naive kernel and
//! to the pre-dispatch blocked kernel. (The only tolerated divergence
//! is non-finite input: the legacy kernel skipped `a[i][p] == 0.0`
//! terms, which hides `0 · ∞ = NaN`; the matmul arms do not skip,
//! because a branch inside an unrolled accumulator file costs more
//! than the multiply. Skipping a `±0.0` coefficient is a no-op for
//! finite data: the ascending-`k` accumulator can never be `-0.0` —
//! it starts at `+0.0` and `+0.0 + -0.0 = +0.0` in round-to-nearest —
//! so adding the `±0.0` product leaves its bits unchanged.) The
//! `kernel_parity` test tier pins this: every arm is proptested
//! bit-identical to the naive reference on finite inputs, and the
//! numeric parity rule for any future reassociating kernel is ≤ 1e-12
//! relative — see ARCHITECTURE.md, "Kernel dispatch".
//!
//! # The autovectorisation contract
//!
//! The scalar kernels are written so LLVM can vectorise them *without
//! reassociating*: accumulator groups are independent output elements
//! (lanes never share a sum), inner trip counts are compile-time
//! constants (`K`, `N`, the 4-wide `j` unroll), and slices are
//! narrowed to `&[f64; 4]` chunks so bounds checks hoist out of the
//! loop. With the `simd` crate feature enabled, the tiny-inner row loop
//! additionally dispatches at runtime (`is_x86_feature_detected!`) to
//! an AVX `std::arch` path that performs the same per-lane ascending-`p`
//! sums with 256-bit mul + add (never FMA — contraction would change
//! the bits); the scalar fallback stays compiled and tested either way.
//!
//! # The distance kernels
//!
//! [`nearest_block`] and [`sq_dist_row`] compute `Σ_i (r_i − x_i)²` for
//! every atom as one ascending-`i` chain of `t = r − x; s += t * t`:
//! sub, mul, add, never FMA. They are not rewritten as
//! `‖r‖² − 2⟨r, x⟩ + ‖x‖²`, which would turn the scan into a product
//! the dispatcher already runs, because that expansion rounds
//! differently (and cancels catastrophically when `r ≈ x`, exactly the
//! best match), so it would change which atom wins. The chains match
//! the naive loop bit for bit on every input, ±0.0 and ±∞ included;
//! only the sign and payload of a NaN result are left unspecified by
//! Rust (the naive loop itself differs between debug and release
//! builds), and a NaN distance never wins the pursuit's strict `<`.
//!
//! [`sq_dist_row`] writes one query's `n` distances for the caller's
//! argmin. [`nearest_block`] serves [`BINARY_LANES`] queries at once
//! and writes no distances at all: it folds each atom's eight chains
//! into a per-lane running minimum held in registers, one atom at a
//! time in ascending order with an ordered `<` (`_CMP_LT_OQ`), so it
//! returns exactly the first strict-`<` minimum a scalar scan would.
//! Atoms a lane has already selected are skipped through one `u8` per
//! atom, bit `l` for lane `l`. It dispatches at runtime to AVX-512F
//! (the eight lanes in one register; the inverted exclusion byte is
//! the compare's write mask), else AVX (two registers; compare, mask,
//! `blendv`), else the scalar body.

/// Largest shared dimension `k` routed to the monomorphised
/// tiny-inner kernels ([`matmul_rk`]). It covers every rank the solver
/// produces on the paper's presets (rank ≤ 8: at most 8 links); the
/// 32x1536 storm site solves at r = 32, whose products walk `k` in two
/// 16-deep slabs of the same row kernel (the short-fat and general
/// arms).
pub const TINY_INNER_MAX: usize = 16;

/// Row/column threshold for the short-fat (`m ≤ THIN_EDGE`) and
/// tall-thin (`n ≤ THIN_EDGE`) arms: at most this many output rows /
/// columns are handled with straight-line, unblocked loops.
pub const THIN_EDGE: usize = 8;

/// Cache-tile edge of the general arm. 64 f64 = 512 B per row segment:
/// three active tiles stay comfortably inside L1.
pub(crate) const BLOCK: usize = 64;

/// The microkernel a product shape dispatches to. See the module docs
/// for the decision table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelArm {
    /// Shared dimension `k ≤` [`TINY_INNER_MAX`]: monomorphised
    /// const-generic kernel, no blocking machinery at all.
    TinyInner,
    /// Few output rows (`m ≤` [`THIN_EDGE`]): `k` walked in ≤16-deep
    /// slabs of the tiny-inner row kernel, accumulators seeded from
    /// the partial sums already in `out`.
    ShortFat,
    /// Few output columns (`n ≤` [`THIN_EDGE`]): output rows as
    /// monomorphised `[f64; N]` register files, four rows in flight.
    TallThin,
    /// Everything else: cache-blocked column panels (`BLOCK = 64`)
    /// times ≤16-deep `k`-slabs of the shared row kernel.
    General,
}

/// The dispatch decision for an `m x k · k x n` product, chosen once
/// per call from the shape alone (first matching row of the decision
/// table in the module docs).
pub fn classify(m: usize, k: usize, n: usize) -> KernelArm {
    if k <= TINY_INNER_MAX {
        KernelArm::TinyInner
    } else if m <= THIN_EDGE {
        KernelArm::ShortFat
    } else if n <= THIN_EDGE {
        KernelArm::TallThin
    } else {
        KernelArm::General
    }
}

/// `out = A * B` for an `m x k · k x n` product, `out` row-major
/// `m x n` and fully overwritten (no pre-zeroing required — skipping
/// that pass is part of the win on large outputs). Rows of `A` and `B`
/// are fetched through closures so owned matrices and strided views
/// share one implementation.
pub(crate) fn matmul_into_rows<'r, A, B>(
    a_row: &A,
    b_row: &B,
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) where
    A: Fn(usize) -> &'r [f64],
    B: Fn(usize) -> &'r [f64],
{
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0); // an empty inner dimension is a zero product
        return;
    }
    match classify(m, k, n) {
        KernelArm::TinyInner => tiny_inner_dispatch(a_row, b_row, out, m, k, n),
        KernelArm::ShortFat => short_fat(a_row, b_row, out, m, k, n),
        KernelArm::TallThin => dispatch_k!(n, tall_thin_n, [_, _], (a_row, b_row, out, m, k)),
        KernelArm::General => general(a_row, b_row, out, m, k, n),
    }
}

/// `out[i][j] = dot(A.row(i), B.row(j))` — the `A · Bᵀ` entry point
/// (`m x k` times `n x k`, `out` row-major `m x n`, fully overwritten).
/// Same ascending-`k` per-element order as [`crate::Matrix::dot`].
pub(crate) fn matmul_bt_rows<'r, A, B>(
    a_row: &A,
    b_row: &B,
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) where
    A: Fn(usize) -> &'r [f64],
    B: Fn(usize) -> &'r [f64],
{
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0); // every dot is over an empty row
        return;
    }
    if k <= TINY_INNER_MAX {
        dispatch_k!(k, bt_tiny, [_, _], (a_row, b_row, out, m, n));
    } else {
        bt_general(a_row, b_row, out, m, k, n);
    }
}

/// `out += α · Σ_{p < count} x_p x_pᵀ` (`out` row-major `n x n`,
/// accumulated into, never overwritten) with `x_p` the first `n`
/// entries of `x_row(p)`, summed in ascending `p`: the one Gram entry
/// point. [`crate::Matrix::gram_into`] calls it with `α = 1` onto a
/// zero-filled `out` over every row; every normal-matrix assembly of
/// the ALS engine ([`crate::Matrix::add_weighted_gram`]) calls it with
/// `x_row` mapping positions onto an index list of rows.
///
/// Each element receives `out[a][b] += (α·x_p[a])·x_p[b]` once per
/// position, in ascending `p` — the sequence of one rank-1 update
/// `out += α·x_p x_pᵀ` per row, so the result is bit-identical to
/// that sequential loop (and, with `α = 1` onto zeros, to the naive
/// `Xᵀ X`: `1·x == x` exactly, and seeding from `+0.0` equals starting
/// from a literal zero). Positions are walked in ≤[`TINY_INNER_MAX`]-deep
/// slabs whose accumulators are seeded from `out` (every slab,
/// including the first), and the coefficient file is `α·x_p[a]`.
pub(crate) fn weighted_gram_rows<'r, X>(
    x_row: &X,
    count: usize,
    alpha: f64,
    out: &mut [f64],
    n: usize,
) where
    X: Fn(usize) -> &'r [f64],
{
    if n == 0 {
        return;
    }
    let mut kb = 0;
    while kb < count {
        let klen = (count - kb).min(TINY_INNER_MAX);
        dispatch_k!(klen, weighted_gram_chunk, [_], (x_row, kb, alpha, out, n));
        kb += klen;
    }
}

/// One `K`-deep slab of [`weighted_gram_rows`] (positions `kb..kb+K`):
/// the matmul `Xᵀ · X` with the coefficient file gathered from column
/// `a` (a `K`-element strided gather per output row, amortised over an
/// `n`-wide [`tiny_row`] pass, seeded from `out`). With AVX, output
/// rows run four at a time through a `4 x 8` accumulator tile (each
/// fetched `x_p` segment feeds four rows); the remaining rows — and
/// every row of the scalar build — take the seeded row pass.
fn weighted_gram_chunk<'r, const K: usize, X>(
    x_row: &X,
    kb: usize,
    alpha: f64,
    out: &mut [f64],
    n: usize,
) where
    X: Fn(usize) -> &'r [f64],
{
    let x: [&[f64]; K] = core::array::from_fn(|p| &x_row(kb + p)[..n]);
    let coefficients = |a: usize| -> [f64; K] { core::array::from_fn(|p| alpha * x[p][a]) };
    let mut a = 0;
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::avx_available() {
        while a + 4 <= n {
            let c = [
                coefficients(a),
                coefficients(a + 1),
                coefficients(a + 2),
                coefficients(a + 3),
            ];
            simd::gram4_avx(&c, &x, &mut out[a * n..(a + 4) * n]);
            a += 4;
        }
        while a < n {
            simd::tiny_row_avx(&coefficients(a), &x, &mut out[a * n..(a + 1) * n], true);
            a += 1;
        }
    }
    while a < n {
        tiny_row::<K>(&coefficients(a), &x, &mut out[a * n..(a + 1) * n], true);
        a += 1;
    }
}

/// Monomorphises a runtime `k in 1..=TINY_INNER_MAX` into a
/// const-generic kernel call. The `[..]` list carries `_` placeholders
/// for the kernel's type parameters (closure types are inferred).
macro_rules! dispatch_k {
    ($k:expr, $kernel:ident, [$($ph:ty),*], ($($args:expr),*)) => {
        match $k {
            1 => $kernel::<1, $($ph),*>($($args),*),
            2 => $kernel::<2, $($ph),*>($($args),*),
            3 => $kernel::<3, $($ph),*>($($args),*),
            4 => $kernel::<4, $($ph),*>($($args),*),
            5 => $kernel::<5, $($ph),*>($($args),*),
            6 => $kernel::<6, $($ph),*>($($args),*),
            7 => $kernel::<7, $($ph),*>($($args),*),
            8 => $kernel::<8, $($ph),*>($($args),*),
            9 => $kernel::<9, $($ph),*>($($args),*),
            10 => $kernel::<10, $($ph),*>($($args),*),
            11 => $kernel::<11, $($ph),*>($($args),*),
            12 => $kernel::<12, $($ph),*>($($args),*),
            13 => $kernel::<13, $($ph),*>($($args),*),
            14 => $kernel::<14, $($ph),*>($($args),*),
            15 => $kernel::<15, $($ph),*>($($args),*),
            16 => $kernel::<16, $($ph),*>($($args),*),
            // invariants: allow(panic-freedom) — every call site
            // guards on k <= TINY_INNER_MAX before dispatching.
            _ => unreachable!("tiny-inner dispatch requires k <= TINY_INNER_MAX"),
        }
    };
}
use dispatch_k;

fn tiny_inner_dispatch<'r, A, B>(
    a_row: &A,
    b_row: &B,
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) where
    A: Fn(usize) -> &'r [f64],
    B: Fn(usize) -> &'r [f64],
{
    debug_assert!((1..=TINY_INNER_MAX).contains(&k));
    dispatch_k!(k, matmul_rk, [_, _], (a_row, b_row, out, m, n));
}

/// The monomorphised tiny-inner-dimension kernel: `out = A * B` with
/// the shared dimension fixed at `K ≤ 16` by the type. The `K` rows of
/// `B` are captured once, each `A` row is copied into a `[f64; K]`
/// register file, and the row kernel streams every output row in a single
/// pass — a straight-line loop with no blocking overhead, which is what
/// the rank-8 Gram/projection products of the SVD/RRQR/LRR and ALS
/// phase sweeps hit.
pub fn matmul_rk<'r, const K: usize, A, B>(
    a_row: &A,
    b_row: &B,
    out: &mut [f64],
    m: usize,
    n: usize,
) where
    A: Fn(usize) -> &'r [f64],
    B: Fn(usize) -> &'r [f64],
{
    chunk_rows::<K, A, B>(a_row, b_row, out, m, n, 0, n, 0, false);
}

/// The shared row-slab kernel behind the tiny-inner, short-fat and
/// general arms: multiplies the `K`-deep coefficient slab starting at
/// inner offset `kb` against output columns `jb..jhi`, seeding from
/// the partial sums already in `out` when `accumulate` is set. The `K`
/// rows of `B` are captured once and every output row is streamed in a
/// single [`tiny_row`] (or AVX) pass.
#[allow(clippy::too_many_arguments)]
fn chunk_rows<'r, const K: usize, A, B>(
    a_row: &A,
    b_row: &B,
    out: &mut [f64],
    m: usize,
    n: usize,
    jb: usize,
    jhi: usize,
    kb: usize,
    accumulate: bool,
) where
    A: Fn(usize) -> &'r [f64],
    B: Fn(usize) -> &'r [f64],
{
    let b: [&[f64]; K] = core::array::from_fn(|p| &b_row(kb + p)[jb..jhi]);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let use_avx = simd::avx_available();
    for i in 0..m {
        let mut c = [0.0_f64; K];
        c.copy_from_slice(&a_row(i)[kb..kb + K]);
        let orow = &mut out[i * n + jb..i * n + jhi];
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if use_avx {
            simd::tiny_row_avx(&c, &b, orow, accumulate);
            continue;
        }
        tiny_row::<K>(&c, &b, orow, accumulate);
    }
}

/// One output row of the tiny-inner kernel: `orow[j] = Σ_p c[p]·b[p][j]`
/// with the `p` sum fully unrolled (`K` is a compile-time constant) and
/// `j` processed 4 elements at a time through independent accumulators.
/// Each accumulator is one output element summed in ascending `p`
/// order, so vectorising across the 4 lanes needs no reassociation.
///
/// With `accumulate` set, the accumulators are seeded from the partial
/// sums already in `orow` instead of zero — the chunked arms walk a
/// large `k` in ≤[`TINY_INNER_MAX`] slabs, and seeding keeps every
/// element one single left-to-right sum (`((…+t16)+t17)+…`), i.e.
/// bit-identical to processing all of `k` in one pass.
#[inline(always)]
fn tiny_row<const K: usize>(c: &[f64; K], b: &[&[f64]; K], orow: &mut [f64], accumulate: bool) {
    let n = orow.len();
    let mut j = 0;
    while j + 4 <= n {
        let (mut s0, mut s1, mut s2, mut s3) = if accumulate {
            (orow[j], orow[j + 1], orow[j + 2], orow[j + 3])
        } else {
            (0.0, 0.0, 0.0, 0.0)
        };
        for (&cp, bp) in c.iter().zip(b) {
            // invariants: allow(panic-freedom) — the range is exactly
            // 4 wide, so the array conversion cannot fail.
            let bq: &[f64; 4] = bp[j..j + 4].try_into().expect("4-wide chunk");
            s0 += cp * bq[0];
            s1 += cp * bq[1];
            s2 += cp * bq[2];
            s3 += cp * bq[3];
        }
        orow[j] = s0;
        orow[j + 1] = s1;
        orow[j + 2] = s2;
        orow[j + 3] = s3;
        j += 4;
    }
    while j < n {
        let mut s = if accumulate { orow[j] } else { 0.0 };
        for (&cp, bp) in c.iter().zip(b) {
            s += cp * bp[j];
        }
        orow[j] = s;
        j += 1;
    }
}

/// Short-fat arm (`m ≤ THIN_EDGE`, `k > TINY_INNER_MAX`): `k` is
/// walked in ≤[`TINY_INNER_MAX`]-deep slabs of the shared row kernel
/// ([`chunk_rows`]) over full-width output rows — with so few rows
/// there is no cross-row reuse for column blocking to exploit, and the
/// accumulator seeding keeps every element a single ascending-`k` sum.
fn short_fat<'r, A, B>(a_row: &A, b_row: &B, out: &mut [f64], m: usize, k: usize, n: usize)
where
    A: Fn(usize) -> &'r [f64],
    B: Fn(usize) -> &'r [f64],
{
    let mut kb = 0;
    while kb < k {
        let klen = (k - kb).min(TINY_INNER_MAX);
        dispatch_k!(
            klen,
            chunk_rows,
            [_, _],
            (a_row, b_row, out, m, n, 0, n, kb, kb > 0)
        );
        kb += klen;
    }
}

/// Tall-thin arm (`n ≤ THIN_EDGE`, `k > TINY_INNER_MAX`),
/// monomorphised over the output width and tiled four rows at a time:
/// each output row is an `[f64; N]` register file, every fetched `B`
/// row is reused across the four `A` rows in flight, the `k` loop runs
/// against locals with a compile-time-constant trip of `N` adds per
/// step, and each output element is stored exactly once.
fn tall_thin_n<'r, const N: usize, A, B>(a_row: &A, b_row: &B, out: &mut [f64], m: usize, k: usize)
where
    A: Fn(usize) -> &'r [f64],
    B: Fn(usize) -> &'r [f64],
{
    let mut i = 0;
    while i + 4 <= m {
        let a4 = [
            &a_row(i)[..k],
            &a_row(i + 1)[..k],
            &a_row(i + 2)[..k],
            &a_row(i + 3)[..k],
        ];
        let mut acc = [[0.0_f64; N]; 4];
        for p in 0..k {
            // invariants: allow(panic-freedom) — the range is exactly
            // N wide, so the array conversion cannot fail.
            let brow: &[f64; N] = b_row(p)[..N].try_into().expect("N-wide row");
            for (accr, ar) in acc.iter_mut().zip(&a4) {
                let aip = ar[p];
                for (s, &bv) in accr.iter_mut().zip(brow) {
                    *s += aip * bv;
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            out[(i + r) * N..(i + r + 1) * N].copy_from_slice(accr);
        }
        i += 4;
    }
    while i < m {
        let arow = &a_row(i)[..k];
        let mut acc = [0.0_f64; N];
        for (p, &aip) in arow.iter().enumerate() {
            // invariants: allow(panic-freedom) — the range is exactly
            // N wide, so the array conversion cannot fail.
            let brow: &[f64; N] = b_row(p)[..N].try_into().expect("N-wide row");
            for (s, &bv) in acc.iter_mut().zip(brow) {
                *s += aip * bv;
            }
        }
        out[i * N..(i + 1) * N].copy_from_slice(&acc);
        i += 1;
    }
}

/// General arm: column blocks of [`BLOCK`] (so the active `B` slab —
/// at most `16 x 64` f64 = 8 KB — stays L1-resident while all `m`
/// output rows stream over it), with `k` walked in
/// ≤[`TINY_INNER_MAX`]-deep slabs of the shared row kernel
/// ([`chunk_rows`]). Accumulator seeding across slabs keeps every
/// output element a single ascending-`k` sum.
fn general<'r, A, B>(a_row: &A, b_row: &B, out: &mut [f64], m: usize, k: usize, n: usize)
where
    A: Fn(usize) -> &'r [f64],
    B: Fn(usize) -> &'r [f64],
{
    for jb in (0..n).step_by(BLOCK) {
        let jhi = (jb + BLOCK).min(n);
        let mut kb = 0;
        while kb < k {
            let klen = (k - kb).min(TINY_INNER_MAX);
            dispatch_k!(
                klen,
                chunk_rows,
                [_, _],
                (a_row, b_row, out, m, n, jb, jhi, kb, kb > 0)
            );
            kb += klen;
        }
    }
}

/// Column-tile width of [`bt_tiny`]: the number of `Bᵀ` columns
/// transposed into one stack tile. Wide enough to amortise the
/// per-tile kernel-call overhead, small enough that a `K x 32` tile
/// (≤ 4 KB) always sits in L1.
const BT_TILE: usize = 32;

/// Tiny-`k` arm of `A · Bᵀ`: [`BT_TILE`] columns of `Bᵀ` at a time are
/// transposed into a `[[f64; BT_TILE]; K]` stack tile (cost amortised
/// over all `m` output rows), which turns the row-dot formulation into
/// the same broadcast-and-accumulate shape as [`tiny_row`] — per-lane
/// ascending-`p` sums, identical bits to [`crate::Matrix::dot`], but
/// vectorisable across the tile columns.
fn bt_tiny<'r, const K: usize, A, B>(a_row: &A, b_row: &B, out: &mut [f64], m: usize, n: usize)
where
    A: Fn(usize) -> &'r [f64],
    B: Fn(usize) -> &'r [f64],
{
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let use_avx = simd::avx_available();
    let mut jb = 0;
    while jb + BT_TILE <= n {
        let mut tile = [[0.0_f64; BT_TILE]; K];
        for (lane, brow) in (jb..jb + BT_TILE).map(|j| &b_row(j)[..K]).enumerate() {
            for (p, &bv) in brow.iter().enumerate() {
                tile[p][lane] = bv;
            }
        }
        let tile_rows: [&[f64]; K] = core::array::from_fn(|p| &tile[p][..]);
        for i in 0..m {
            let mut c = [0.0_f64; K];
            c.copy_from_slice(&a_row(i)[..K]);
            let oseg = &mut out[i * n + jb..i * n + jb + BT_TILE];
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if use_avx {
                simd::tiny_row_avx(&c, &tile_rows, oseg, false);
                continue;
            }
            tiny_row::<K>(&c, &tile_rows, oseg, false);
        }
        jb += BT_TILE;
    }
    if jb < n {
        // Tail columns: plain fully-unrolled K-dots.
        for i in 0..m {
            let arow = &a_row(i)[..K];
            for j in jb..n {
                let bj = &b_row(j)[..K];
                let mut s = 0.0;
                for (&ap, &bp) in arow.iter().zip(bj) {
                    s += ap * bp;
                }
                out[i * n + j] = s;
            }
        }
    }
}

/// General arm of `A · Bᵀ`: row-dot products with four output columns
/// in flight (independent accumulator chains hide the add latency of
/// the strict ascending-`k` sums, which must not be reassociated).
fn bt_general<'r, A, B>(a_row: &A, b_row: &B, out: &mut [f64], m: usize, k: usize, n: usize)
where
    A: Fn(usize) -> &'r [f64],
    B: Fn(usize) -> &'r [f64],
{
    for i in 0..m {
        let arow = &a_row(i)[..k];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b_row(j)[..k];
            let b1 = &b_row(j + 1)[..k];
            let b2 = &b_row(j + 2)[..k];
            let b3 = &b_row(j + 3)[..k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for (p, &ap) in arow.iter().enumerate() {
                s0 += ap * b0[p];
                s1 += ap * b1[p];
                s2 += ap * b2[p];
                s3 += ap * b3[p];
            }
            orow[j] = s0;
            orow[j + 1] = s1;
            orow[j + 2] = s2;
            orow[j + 3] = s3;
            j += 4;
        }
        while j < n {
            let bj = &b_row(j)[..k];
            let mut s = 0.0;
            for (p, &ap) in arow.iter().enumerate() {
                s += ap * bj[p];
            }
            orow[j] = s;
            j += 1;
        }
    }
}

/// Queries advanced together by [`nearest_block`]: the block layout
/// is `residuals[i * BINARY_LANES + l]` (link `i`, lane `l`), so one
/// sweep over the atom rows advances this many independent distance
/// chains together — one 512-bit or two 256-bit registers per link.
/// It is also the width of one exclusion byte: bit `l` of
/// `excluded[j]` belongs to lane `l`.
pub const BINARY_LANES: usize = 8;

// One `u8` per atom (one AVX-512 `__mmask8`) carries every lane's
// exclusion bit.
const _: () = assert!(BINARY_LANES == u8::BITS as usize);

/// Per-lane nearest atoms of one [`nearest_block`] pass: the smallest
/// squared distance of each lane and the atom index that attains it.
pub type NearestLanes = ([f64; BINARY_LANES], [usize; BINARY_LANES]);

/// The fused nearest-atom kernel of the blocked binary read path. For
/// every lane `l` it scans the `n = excluded.len()` contiguous atom
/// rows of length `m = residuals.len() / BINARY_LANES` in ascending
/// order and returns the first minimum (strict `<`) of
/// `Σ_i (residuals[i * BINARY_LANES + l] − atoms[j * m + i])²` over
/// the atoms `j` whose `excluded[j]` has bit `l` clear, with its
/// index. A lane with no selectable atom (all excluded, `n = 0`, or
/// every distance NaN or `+∞`) returns `(+∞, usize::MAX)`.
///
/// Each distance is one ascending-`i` chain of `t = r − a; s += t * t`
/// from `s = +0.0`, built from sub, mul and add (never an FMA, never
/// the norm expansion: see the module docs), and the running minimum
/// is updated one atom at a time in ascending `j` with an ordered
/// `<`, so a NaN distance is never selected. The result is therefore
/// bit-identical to the naive per-pair loop followed by a strict-`<`
/// argmin, non-finite inputs included. No distance table is written:
/// the chains and the per-lane minimum stay in registers. Dispatch is
/// AVX-512F (one 512-bit register per atom), then AVX (two 256-bit
/// registers per atom, `cmp` + `blendv`), then the scalar body.
///
/// # Panics
///
/// If `residuals.len()` is not a multiple of [`BINARY_LANES`], or
/// `atoms.len() != n * m`.
pub fn nearest_block(residuals: &[f64], atoms: &[f64], excluded: &[u8]) -> NearestLanes {
    let m = residuals.len() / BINARY_LANES;
    assert_eq!(
        residuals.len(),
        m * BINARY_LANES,
        "residuals must be lane-interleaved"
    );
    assert_eq!(
        Some(atoms.len()),
        excluded.len().checked_mul(m),
        "atoms must be one row of m links per exclusion byte"
    );
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if simd::avx512f_available() {
            return simd::nearest_block_avx512(residuals, atoms, excluded);
        }
        if simd::avx_available() {
            return simd::nearest_block_avx(residuals, atoms, excluded);
        }
    }
    nearest_block_scalar(residuals, atoms, excluded)
}

/// The scalar arm of [`nearest_block`] (shapes checked by the caller):
/// one atom at a time, eight chains, then the per-lane update.
fn nearest_block_scalar(residuals: &[f64], atoms: &[f64], excluded: &[u8]) -> NearestLanes {
    const L: usize = BINARY_LANES;
    let m = residuals.len() / L;
    let (mut best, mut best_j) = ([f64::INFINITY; L], [usize::MAX; L]);
    for (j, &ex) in excluded.iter().enumerate() {
        let mut acc = [0.0_f64; L];
        for (r, &a) in residuals.chunks_exact(L).zip(&atoms[j * m..(j + 1) * m]) {
            for (s, &rl) in acc.iter_mut().zip(r) {
                let t = rl - a;
                *s += t * t;
            }
        }
        for (l, &d) in acc.iter().enumerate() {
            if ex & (1 << l) == 0 && d < best[l] {
                best[l] = d;
                best_j[l] = j;
            }
        }
    }
    (best, best_j)
}

/// The single-query squared-distance kernel of the binary read path:
/// `out[j] = Σ_i (residual[i] − dictionary[i * n + j])²` for the
/// `m x n` row-major `dictionary` (links x cells), `m =
/// residual.len()`, `n = out.len()`. `out` is fully overwritten.
///
/// Same chain as [`nearest_block`]: every output is one
/// ascending-`i` chain of `t = r − d; s += t * t` from `s = +0.0`,
/// sub, mul and add only, bit-identical to the naive per-cell loop
/// (non-finite inputs included). The cells are the vector lanes, so no
/// chain is ever reassociated: with AVX, sixteen cells (four
/// accumulator registers) stay in flight over every link; the scalar
/// body adds one link row at a time into `out`.
///
/// # Panics
///
/// If `dictionary.len() != m * n`.
pub fn sq_dist_row(residual: &[f64], dictionary: &[f64], out: &mut [f64]) {
    let n = out.len();
    assert_eq!(
        Some(dictionary.len()),
        residual.len().checked_mul(n),
        "dictionary must be m rows of n cells"
    );
    if n == 0 {
        return;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::avx_available() {
        simd::sq_dist_row_avx(residual, dictionary, out);
        return;
    }
    out.fill(0.0);
    for (&r, row) in residual.iter().zip(dictionary.chunks_exact(n)) {
        for (s, &d) in out.iter_mut().zip(row) {
            let t = r - d;
            *s += t * t;
        }
    }
}

/// AVX and AVX-512F (`std::arch`) variants behind runtime feature
/// detection. The only unsafe code in the crate, compiled only with
/// the `simd` cargo feature (without it the crate keeps
/// `#![forbid(unsafe_code)]`). Every intrinsic sequence performs the
/// same per-lane ascending-`p` mul-then-add sums as the scalar kernels
/// — `_mm256_mul_pd` (or `_mm512_mul_pd`) followed by the matching
/// add, never an FMA, so the results are bit-identical to the scalar
/// path and the parity tier covers both. The distance kernels add one
/// sub in front of the same mul-then-add; the nearest-atom arms select
/// with ordered compares and blends, which copy bits unchanged.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    #![allow(unsafe_code)]

    use core::arch::x86_64::{
        __m256d, __m512d, __m512i, _mm256_add_pd, _mm256_andnot_pd, _mm256_blendv_pd,
        _mm256_castsi256_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_epi64x,
        _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm512_add_pd,
        _mm512_loadu_pd, _mm512_mask_cmp_pd_mask, _mm512_mask_mov_pd, _mm512_mask_set1_epi64,
        _mm512_mul_pd, _mm512_set1_epi64, _mm512_set1_pd, _mm512_setzero_pd, _mm512_storeu_epi64,
        _mm512_storeu_pd, _mm512_sub_pd, _CMP_LT_OQ,
    };

    use super::{NearestLanes, BINARY_LANES};

    /// Runtime AVX capability (cached by `std`).
    #[inline]
    pub(super) fn avx_available() -> bool {
        std::arch::is_x86_feature_detected!("avx")
    }

    /// Runtime AVX-512F capability (cached by `std`).
    #[inline]
    pub(super) fn avx512f_available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
    }

    /// One tiny-inner output row with 256-bit lanes: 8 output elements
    /// in flight (two 4-wide registers), each lane an independent
    /// ascending-`p` sum, seeded from `orow`'s partial sums when
    /// `accumulate` is set (see the scalar `tiny_row` for why seeding
    /// preserves bit-identity). `c.len() == b.len() = k`; every `b[p]`
    /// must be at least as long as `orow`.
    ///
    /// Callers must have verified [`avx_available`].
    pub(super) fn tiny_row_avx(c: &[f64], b: &[&[f64]], orow: &mut [f64], accumulate: bool) {
        debug_assert_eq!(c.len(), b.len());
        debug_assert!(b.iter().all(|bp| bp.len() >= orow.len()));
        // SAFETY: AVX support is checked by the caller via
        // `avx_available`; all loads/stores are within the slice
        // bounds asserted above and re-checked by the `while` guards.
        unsafe { tiny_row_avx_inner(c, b, orow, accumulate) }
    }

    // SAFETY contract: `#[target_feature]` makes this fn unsafe to
    // call — callers must have verified `avx_available()` first (the
    // safe wrapper above does). All pointer arithmetic stays inside
    // the slice bounds its debug asserts and the `while` guards check.
    #[target_feature(enable = "avx")]
    unsafe fn tiny_row_avx_inner(c: &[f64], b: &[&[f64]], orow: &mut [f64], accumulate: bool) {
        let n = orow.len();
        let mut j = 0;
        while j + 8 <= n {
            let (mut acc0, mut acc1) = if accumulate {
                (
                    _mm256_loadu_pd(orow.as_ptr().add(j)),
                    _mm256_loadu_pd(orow.as_ptr().add(j + 4)),
                )
            } else {
                (_mm256_setzero_pd(), _mm256_setzero_pd())
            };
            for (&cp, bp) in c.iter().zip(b) {
                let cv = _mm256_set1_pd(cp);
                let b0 = _mm256_loadu_pd(bp.as_ptr().add(j));
                let b1 = _mm256_loadu_pd(bp.as_ptr().add(j + 4));
                acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(cv, b0));
                acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(cv, b1));
            }
            _mm256_storeu_pd(orow.as_mut_ptr().add(j), acc0);
            _mm256_storeu_pd(orow.as_mut_ptr().add(j + 4), acc1);
            j += 8;
        }
        while j + 4 <= n {
            let mut acc = if accumulate {
                _mm256_loadu_pd(orow.as_ptr().add(j))
            } else {
                _mm256_setzero_pd()
            };
            for (&cp, bp) in c.iter().zip(b) {
                let cv = _mm256_set1_pd(cp);
                let bv = _mm256_loadu_pd(bp.as_ptr().add(j));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(cv, bv));
            }
            _mm256_storeu_pd(orow.as_mut_ptr().add(j), acc);
            j += 4;
        }
        while j < n {
            let mut s = if accumulate { orow[j] } else { 0.0 };
            for (&cp, bp) in c.iter().zip(b) {
                s += cp * bp[j];
            }
            orow[j] = s;
            j += 1;
        }
    }

    /// Four seeded output rows of the weighted Gram slab at once:
    /// `out4` holds rows `a..a+4` (`4 x n`, `n = out4.len() / 4`),
    /// `c[r]` the coefficient file of row `a + r` and every `x[p]` is
    /// at least `n` long. Each 8-column step keeps a `4 x 8` tile of
    /// accumulators (eight registers) in flight and loads each `x[p]`
    /// segment once for all four rows; the last `n % 8` columns take
    /// [`tiny_row_avx`] per row. Every lane is one ascending-`p`
    /// mul-then-add chain seeded from `out4`.
    ///
    /// Callers must have verified [`avx_available`].
    pub(super) fn gram4_avx<const K: usize>(c: &[[f64; K]; 4], x: &[&[f64]; K], out4: &mut [f64]) {
        let n = out4.len() / 4;
        assert_eq!(out4.len(), 4 * n);
        assert!(x.iter().all(|xp| xp.len() >= n));
        let n8 = n - n % 8;
        // SAFETY: AVX support is checked by the caller via
        // `avx_available`; the asserts above bound every access the
        // inner function makes below column `n8 <= n`.
        unsafe { gram4_avx_inner(c, x, out4, n, n8) }
        if n8 < n {
            let tail: [&[f64]; K] = core::array::from_fn(|p| &x[p][n8..]);
            for (cr, row) in c.iter().zip(out4.chunks_exact_mut(n)) {
                tiny_row_avx(cr, &tail, &mut row[n8..], true);
            }
        }
    }

    // SAFETY contract: `#[target_feature]` makes this fn unsafe to
    // call — callers must have verified `avx_available()` first (the
    // safe wrapper above does). `out4` is `4 * n` long, every `x[p]` at
    // least `n` long and `n8 <= n` a multiple of 8, so row `r`'s
    // offsets `r * n + j .. r * n + j + 8` and the `x[p]` offsets
    // `j .. j + 8` stay in bounds for every `j < n8`.
    #[target_feature(enable = "avx")]
    unsafe fn gram4_avx_inner<const K: usize>(
        c: &[[f64; K]; 4],
        x: &[&[f64]; K],
        out4: &mut [f64],
        n: usize,
        n8: usize,
    ) {
        let o = out4.as_mut_ptr();
        for j in (0..n8).step_by(8) {
            let mut acc = [[_mm256_setzero_pd(); 2]; 4];
            for (r, accr) in acc.iter_mut().enumerate() {
                accr[0] = _mm256_loadu_pd(o.add(r * n + j));
                accr[1] = _mm256_loadu_pd(o.add(r * n + j + 4));
            }
            for (p, xp) in x.iter().enumerate() {
                let x0 = _mm256_loadu_pd(xp.as_ptr().add(j));
                let x1 = _mm256_loadu_pd(xp.as_ptr().add(j + 4));
                for (accr, cr) in acc.iter_mut().zip(c) {
                    let cv = _mm256_set1_pd(cr[p]);
                    accr[0] = _mm256_add_pd(accr[0], _mm256_mul_pd(cv, x0));
                    accr[1] = _mm256_add_pd(accr[1], _mm256_mul_pd(cv, x1));
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                _mm256_storeu_pd(o.add(r * n + j), accr[0]);
                _mm256_storeu_pd(o.add(r * n + j + 4), accr[1]);
            }
        }
    }

    /// Atoms in flight per step of both [`super::nearest_block`]
    /// arms: their distance chains run together, then the per-lane
    /// minimum takes them one at a time in ascending order. With AVX
    /// that is eight 256-bit accumulators, with AVX-512F four 512-bit
    /// ones. On a Xeon (Sapphire Rapids) 2-vCPU host, one 8-query
    /// AVX-512F pass over 1,536 atoms of 32 links took about 48 µs at
    /// two atoms, 41 µs at four and 43 µs at eight (median over 4,096
    /// random queries); the AVX arm, which has only sixteen registers,
    /// took 65 µs at four, as fast as the unfused scan and argmin.
    const BLOCK_ATOMS: usize = 4;

    /// Cells in flight per step of [`sq_dist_row_avx`]: four 4-wide
    /// accumulator registers, held over every link in one pass. At
    /// 32x1536 the 12 KiB row stride maps all 32 link rows of a cell
    /// chunk to one L1 set, but walking the links in 8- or 4-row slabs
    /// seeded from `out` measured slower (11.0 and 11.6 µs against
    /// 10.6 µs on the host above), so there is no slabbing.
    const ROW_CELLS: usize = 16;

    /// All-ones 64-bit lanes for each 4-bit half of an exclusion
    /// byte: entry `e` has lane `b` set when bit `b` of `e` is, the
    /// 256-bit mask the AVX arm clears its selections with.
    static EXCLUDE_LANES: [[u64; 4]; 16] = {
        let mut table = [[0; 4]; 16];
        let mut e = 0;
        while e < 16 {
            let mut b = 0;
            while b < 4 {
                if (e >> b) & 1 == 1 {
                    table[e][b] = u64::MAX;
                }
                b += 1;
            }
            e += 1;
        }
        table
    };

    /// [`super::nearest_block`] with 256-bit lanes: lanes 0–3 and 4–7
    /// each hold a running minimum and its index (the index's bits
    /// stored in a `__m256d`, starting at all-ones = `usize::MAX`),
    /// updated with an ordered `<` compare, the exclusion mask and two
    /// `blendv`s per half. Shapes as checked by the caller.
    ///
    /// Callers must have verified [`avx_available`].
    pub(super) fn nearest_block_avx(
        residuals: &[f64],
        atoms: &[f64],
        excluded: &[u8],
    ) -> NearestLanes {
        let m = residuals.len() / BINARY_LANES;
        assert!(residuals.len() == m * BINARY_LANES);
        assert_eq!(Some(atoms.len()), excluded.len().checked_mul(m));
        // SAFETY: AVX support is checked by the caller via
        // `avx_available`; the asserts above are the inner function's
        // shape contract.
        unsafe { nearest_block_avx_inner(residuals, atoms, excluded, m) }
    }

    // SAFETY contract: `#[target_feature]` makes this fn unsafe to
    // call — callers must have verified `avx_available()` first. The
    // caller guarantees `residuals.len() == m * 8` and `atoms.len() ==
    // excluded.len() * m`, so every atom group `j..j + A` below
    // `excluded.len()` lies in bounds, and the stores fill local
    // 8-element arrays.
    #[target_feature(enable = "avx")]
    unsafe fn nearest_block_avx_inner(
        residuals: &[f64],
        atoms: &[f64],
        excluded: &[u8],
        m: usize,
    ) -> NearestLanes {
        let n = excluded.len();
        let mut best = [_mm256_set1_pd(f64::INFINITY); 2];
        let mut best_j = [_mm256_castsi256_pd(_mm256_set1_epi64x(-1)); 2];
        let mut j = 0;
        while j + BLOCK_ATOMS <= n {
            avx_atoms::<BLOCK_ATOMS>(residuals, atoms, excluded, m, j, &mut best, &mut best_j);
            j += BLOCK_ATOMS;
        }
        while j < n {
            avx_atoms::<1>(residuals, atoms, excluded, m, j, &mut best, &mut best_j);
            j += 1;
        }
        let mut dist = [0.0; BINARY_LANES];
        let mut idx = [0_u64; BINARY_LANES];
        for h in 0..2 {
            _mm256_storeu_pd(dist.as_mut_ptr().add(4 * h), best[h]);
            _mm256_storeu_pd(idx.as_mut_ptr().add(4 * h).cast::<f64>(), best_j[h]);
        }
        (dist, idx.map(|i| i as usize))
    }

    // SAFETY contract: `#[target_feature]` makes this fn unsafe to
    // call — callers must have verified `avx_available()` first. The
    // caller guarantees `residuals.len() == m * 8`, `j + A <=
    // excluded.len()` and `atoms.len() == excluded.len() * m`, so the
    // residual loads and the atom reads `(j + q) * m + i` stay in
    // bounds.
    #[inline]
    #[target_feature(enable = "avx")]
    unsafe fn avx_atoms<const A: usize>(
        residuals: &[f64],
        atoms: &[f64],
        excluded: &[u8],
        m: usize,
        j: usize,
        best: &mut [__m256d; 2],
        best_j: &mut [__m256d; 2],
    ) {
        let r = residuals.as_ptr();
        let a = atoms.as_ptr().add(j * m);
        let mut acc = [[_mm256_setzero_pd(); 2]; A];
        for i in 0..m {
            let r0 = _mm256_loadu_pd(r.add(i * BINARY_LANES));
            let r1 = _mm256_loadu_pd(r.add(i * BINARY_LANES + 4));
            for (q, accq) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_pd(*a.add(q * m + i));
                let t0 = _mm256_sub_pd(r0, av);
                let t1 = _mm256_sub_pd(r1, av);
                accq[0] = _mm256_add_pd(accq[0], _mm256_mul_pd(t0, t0));
                accq[1] = _mm256_add_pd(accq[1], _mm256_mul_pd(t1, t1));
            }
        }
        for (q, accq) in acc.iter().enumerate() {
            let ex = usize::from(excluded[j + q]);
            let jv = _mm256_castsi256_pd(_mm256_set1_epi64x((j + q) as i64));
            for h in 0..2 {
                let lanes = EXCLUDE_LANES[(ex >> (4 * h)) & 15].as_ptr().cast::<f64>();
                let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(accq[h], best[h]);
                let take = _mm256_andnot_pd(_mm256_loadu_pd(lanes), lt);
                best[h] = _mm256_blendv_pd(best[h], accq[h], take);
                best_j[h] = _mm256_blendv_pd(best_j[h], jv, take);
            }
        }
    }

    /// [`super::nearest_block`] with 512-bit lanes: all eight lanes of
    /// an atom's chains in one register, the running minimum in a
    /// second and its indices in a third (starting at all-ones =
    /// `usize::MAX`). The exclusion byte, inverted, is the write mask
    /// of the ordered `<` compare, so the update is one masked compare,
    /// one masked move and one masked broadcast per atom. Shapes as
    /// checked by the caller.
    ///
    /// Callers must have verified [`avx512f_available`].
    pub(super) fn nearest_block_avx512(
        residuals: &[f64],
        atoms: &[f64],
        excluded: &[u8],
    ) -> NearestLanes {
        let m = residuals.len() / BINARY_LANES;
        assert!(residuals.len() == m * BINARY_LANES);
        assert_eq!(Some(atoms.len()), excluded.len().checked_mul(m));
        // SAFETY: AVX-512F support is checked by the caller via
        // `avx512f_available`; the asserts above are the inner
        // function's shape contract.
        unsafe { nearest_block_avx512_inner(residuals, atoms, excluded, m) }
    }

    // SAFETY contract: `#[target_feature]` makes this fn unsafe to
    // call — callers must have verified `avx512f_available()` first.
    // Same shape contract as `nearest_block_avx_inner`.
    #[target_feature(enable = "avx512f")]
    unsafe fn nearest_block_avx512_inner(
        residuals: &[f64],
        atoms: &[f64],
        excluded: &[u8],
        m: usize,
    ) -> NearestLanes {
        let n = excluded.len();
        let mut best = _mm512_set1_pd(f64::INFINITY);
        let mut best_j = _mm512_set1_epi64(-1);
        let mut j = 0;
        while j + BLOCK_ATOMS <= n {
            avx512_atoms::<BLOCK_ATOMS>(residuals, atoms, excluded, m, j, &mut best, &mut best_j);
            j += BLOCK_ATOMS;
        }
        while j < n {
            avx512_atoms::<1>(residuals, atoms, excluded, m, j, &mut best, &mut best_j);
            j += 1;
        }
        let mut dist = [0.0; BINARY_LANES];
        let mut idx = [0_u64; BINARY_LANES];
        _mm512_storeu_pd(dist.as_mut_ptr(), best);
        _mm512_storeu_epi64(idx.as_mut_ptr().cast::<i64>(), best_j);
        (dist, idx.map(|i| i as usize))
    }

    // SAFETY contract: `#[target_feature]` makes this fn unsafe to
    // call — callers must have verified `avx512f_available()` first.
    // Same bounds contract as `avx_atoms`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn avx512_atoms<const A: usize>(
        residuals: &[f64],
        atoms: &[f64],
        excluded: &[u8],
        m: usize,
        j: usize,
        best: &mut __m512d,
        best_j: &mut __m512i,
    ) {
        let r = residuals.as_ptr();
        let a = atoms.as_ptr().add(j * m);
        let mut acc = [_mm512_setzero_pd(); A];
        for i in 0..m {
            let rv = _mm512_loadu_pd(r.add(i * BINARY_LANES));
            for (q, accq) in acc.iter_mut().enumerate() {
                let t = _mm512_sub_pd(rv, _mm512_set1_pd(*a.add(q * m + i)));
                *accq = _mm512_add_pd(*accq, _mm512_mul_pd(t, t));
            }
        }
        for (q, &accq) in acc.iter().enumerate() {
            let take = _mm512_mask_cmp_pd_mask::<_CMP_LT_OQ>(!excluded[j + q], accq, *best);
            *best = _mm512_mask_mov_pd(*best, take, accq);
            *best_j = _mm512_mask_set1_epi64(*best_j, take, (j + q) as i64);
        }
    }

    /// [`super::sq_dist_row`] with 256-bit lanes (`out` fully
    /// overwritten): [`ROW_CELLS`] cells at a time, then 4-wide, then
    /// scalar tail cells, each one ascending-link chain from `+0.0`.
    ///
    /// Callers must have verified [`avx_available`].
    pub(super) fn sq_dist_row_avx(residual: &[f64], dictionary: &[f64], out: &mut [f64]) {
        let n = out.len();
        assert_eq!(Some(dictionary.len()), residual.len().checked_mul(n));
        let mut j = 0;
        while j + ROW_CELLS <= n {
            // SAFETY: AVX support is checked by the caller via
            // `avx_available`; cells `j..j + ROW_CELLS` of `out` and of
            // every dictionary row lie in bounds (asserted above).
            unsafe { row_cells::<{ ROW_CELLS / 4 }>(residual, dictionary, out, j) };
            j += ROW_CELLS;
        }
        while j + 4 <= n {
            // SAFETY: as above, for cells `j..j + 4`.
            unsafe { row_cells::<1>(residual, dictionary, out, j) };
            j += 4;
        }
        for (jj, s) in out.iter_mut().enumerate().skip(j) {
            let mut acc = 0.0;
            for (i, &r) in residual.iter().enumerate() {
                let t = r - dictionary[i * n + jj];
                acc += t * t;
            }
            *s = acc;
        }
    }

    // SAFETY contract: `#[target_feature]` makes this fn unsafe to
    // call — callers must have verified `avx_available()` first. The
    // caller guarantees `dictionary.len() == residual.len() *
    // out.len()` and `j + 4 * W <= out.len()`, so the loads at row
    // offsets `i * n + j .. i * n + j + 4 * W` and the `out` stores
    // stay in bounds.
    #[inline]
    #[target_feature(enable = "avx")]
    unsafe fn row_cells<const W: usize>(
        residual: &[f64],
        dictionary: &[f64],
        out: &mut [f64],
        j: usize,
    ) {
        let n = out.len();
        let o = out.as_mut_ptr().add(j);
        let d = dictionary.as_ptr().add(j);
        let mut acc = [_mm256_setzero_pd(); W];
        for (i, &r) in residual.iter().enumerate() {
            let rv = _mm256_set1_pd(r);
            let row = d.add(i * n);
            for (w, s) in acc.iter_mut().enumerate() {
                let t = _mm256_sub_pd(rv, _mm256_loadu_pd(row.add(4 * w)));
                *s = _mm256_add_pd(*s, _mm256_mul_pd(t, t));
            }
        }
        for (w, s) in acc.iter().enumerate() {
            _mm256_storeu_pd(o.add(4 * w), *s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// The naive triple loop (ascending `k`, no skip): the reference
    /// every arm must match bit-for-bit on finite inputs.
    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a[(i, p)] * b[(p, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    fn sample(rows: usize, cols: usize, phase: f64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            ((i * cols + j) as f64 * 0.31 + phase).sin()
        })
    }

    #[test]
    fn decision_table() {
        assert_eq!(classify(96, 8, 96), KernelArm::TinyInner);
        assert_eq!(classify(96, 16, 96), KernelArm::TinyInner);
        assert_eq!(classify(1, 16, 1), KernelArm::TinyInner);
        assert_eq!(classify(8, 96, 96), KernelArm::ShortFat);
        assert_eq!(classify(1, 17, 1000), KernelArm::ShortFat);
        assert_eq!(classify(96, 96, 8), KernelArm::TallThin);
        assert_eq!(classify(1000, 17, 1), KernelArm::TallThin);
        assert_eq!(classify(96, 96, 96), KernelArm::General);
        assert_eq!(classify(9, 17, 9), KernelArm::General);
    }

    #[test]
    fn every_arm_matches_naive_bitwise() {
        // One shape per dispatcher arm, odd sizes to cover tails.
        for (m, k, n) in [
            (13, 7, 29),  // TinyInner
            (5, 33, 41),  // ShortFat
            (37, 33, 5),  // TallThin
            (70, 33, 67), // General (crosses a BLOCK seam)
        ] {
            let a = sample(m, k, 0.3);
            let b = sample(k, n, 1.7);
            let mut out = Matrix::zeros(m, n);
            a.matmul_into(&b, &mut out).unwrap();
            assert_eq!(out, naive(&a, &b), "arm {:?}", classify(m, k, n));
        }
    }

    #[test]
    fn bt_matches_explicit_transpose_bitwise() {
        for (m, k, n) in [(6, 8, 23), (9, 40, 23), (1, 3, 1)] {
            let a = sample(m, k, 0.1);
            let b = sample(n, k, 0.9);
            let mut out = Matrix::zeros(m, n);
            a.matmul_bt_into(&b, &mut out).unwrap();
            assert_eq!(out, naive(&a, &b.transpose()));
        }
    }

    /// The naive chains and a strict-`<` first-minimum argmin over the
    /// atoms a lane has not excluded: what every [`nearest_block`] arm
    /// must return.
    fn naive_nearest(residuals: &[f64], atoms: &[f64], excluded: &[u8]) -> NearestLanes {
        const L: usize = BINARY_LANES;
        let m = residuals.len() / L;
        let (mut best, mut best_j) = ([f64::INFINITY; L], [usize::MAX; L]);
        for (j, &ex) in excluded.iter().enumerate() {
            for l in (0..L).filter(|l| ex & (1 << l) == 0) {
                let mut s = 0.0;
                for i in 0..m {
                    let t = residuals[i * L + l] - atoms[j * m + i];
                    s += t * t;
                }
                if s < best[l] {
                    best[l] = s;
                    best_j[l] = j;
                }
            }
        }
        (best, best_j)
    }

    type NearestArm = fn(&[f64], &[f64], &[u8]) -> NearestLanes;

    /// Every [`nearest_block`] arm this build and host can run, called
    /// directly, so the AVX arm stays pinned on a host whose dispatch
    /// always takes AVX-512F.
    fn nearest_arms() -> Vec<(&'static str, NearestArm)> {
        let arms: Vec<(&'static str, NearestArm)> = vec![
            ("scalar", nearest_block_scalar),
            ("dispatch", nearest_block),
        ];
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        let arms = {
            let mut arms = arms;
            if simd::avx_available() {
                arms.push(("avx", simd::nearest_block_avx));
            }
            if simd::avx512f_available() {
                arms.push(("avx512f", simd::nearest_block_avx512));
            }
            arms
        };
        arms
    }

    #[test]
    fn every_nearest_arm_matches_naive_bitwise() {
        const L: usize = BINARY_LANES;
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for m in [0usize, 1, 3, 8, 32, 33] {
            for n in 0usize..=19 {
                let value = |k: usize| ((k as f64) * 0.37 + m as f64).sin() * 7.0 / 3.0;
                let mut atoms: Vec<f64> = (0..n * m).map(|k| value(k + 1000)).collect();
                // Atoms 4, 9, 14, … repeat their predecessor, across
                // and inside 2-, 4- and 8-atom groups.
                for j in (4..n).step_by(5) {
                    atoms.copy_within((j - 1) * m..j * m, j * m);
                }
                // Lane `l` sits exactly on atom `(3l) % n`, so a
                // duplicate pair ties at `+0.0` and the first must win.
                let mut residuals: Vec<f64> = (0..m * L).map(value).collect();
                if n > 0 {
                    for l in 0..L {
                        let j = (3 * l) % n;
                        for i in 0..m {
                            residuals[i * L + l] = atoms[j * m + i];
                        }
                    }
                }
                if m * n > 0 {
                    atoms[(m * 7 + n) % (m * n)] = specials[(m + n) % specials.len()];
                    residuals[(n * 5) % (m * L)] = specials[(m * n) % specials.len()];
                }
                // Lane 7 is excluded everywhere; the rest vary by atom.
                let excluded: Vec<u8> = (0..n)
                    .map(|j| 0x80 | [0x00, 0x00, 0x0f, 0x25, 0x7f, 0x10][j % 6])
                    .collect();
                let want = naive_nearest(&residuals, &atoms, &excluded);
                assert_eq!((want.0[7], want.1[7]), (f64::INFINITY, usize::MAX));
                for (name, arm) in nearest_arms() {
                    let got = arm(&residuals, &atoms, &excluded);
                    assert_eq!(got.1, want.1, "{name} {m}x{n}: indices");
                    assert_eq!(
                        got.0.map(f64::to_bits),
                        want.0.map(f64::to_bits),
                        "{name} {m}x{n}: distances"
                    );
                }
            }
        }
    }

    #[test]
    fn gram_matches_naive_bitwise() {
        for (rows, n) in [(8, 96), (96, 8), (33, 21)] {
            let x = sample(rows, n, 0.4);
            let mut out = Matrix::zeros(n, n);
            x.gram_into(&mut out).unwrap();
            assert_eq!(out, naive(&x.transpose(), &x));
        }
    }
}
