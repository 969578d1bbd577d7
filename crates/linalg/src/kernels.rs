//! Register-tiled microkernels and the shape-aware dispatch layer.
//!
//! Every dense multiply in this crate — [`crate::Matrix::matmul`],
//! [`crate::Matrix::matmul_into`], [`crate::Matrix::matmul_bt_into`],
//! [`crate::Matrix::gram_into`] and the [`crate::MatrixView`] variants —
//! funnels into this module, and so do the binary read path's
//! squared-distance scans ([`sq_dist_block`], [`sq_dist_row`]). The hot
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
//! [`sq_dist_block`] and [`sq_dist_row`] compute `Σ_i (r_i − x_i)²` for
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

/// Residuals interleaved per [`sq_dist_block`] pass: the block layout
/// is `residuals[i * BINARY_LANES + l]` (link `i`, lane `l`), so one
/// sweep over the atom rows advances this many independent distance
/// chains together — exactly two 256-bit registers per link.
pub const BINARY_LANES: usize = 8;

/// The blocked squared-distance kernel of the binary read path:
/// `out[j * BINARY_LANES + l] = Σ_i (residuals[i * BINARY_LANES + l] −
/// atoms[j * m + i])²` for every atom `j` and lane `l`, with
/// `m = residuals.len() / BINARY_LANES` links and
/// `n = out.len() / BINARY_LANES` contiguous atom rows of length `m`.
/// `out` is fully overwritten.
///
/// Each output is one ascending-`i` chain of `t = r − a; s += t * t`
/// from `s = +0.0`, built from sub, mul and add (never an FMA, never
/// the norm expansion: see the module docs), so it is bit-identical to
/// the naive per-pair loop, non-finite inputs included. With AVX, four atoms (eight accumulator
/// registers) are in flight per step; the scalar body runs otherwise.
///
/// # Panics
///
/// If `residuals.len()` or `out.len()` is not a multiple of
/// [`BINARY_LANES`], or `atoms.len() != n * m`.
pub fn sq_dist_block(residuals: &[f64], atoms: &[f64], out: &mut [f64]) {
    const L: usize = BINARY_LANES;
    let m = residuals.len() / L;
    let n = out.len() / L;
    assert_eq!(residuals.len(), m * L, "residuals must be lane-interleaved");
    assert_eq!(out.len(), n * L, "the distance table is n x BINARY_LANES");
    assert_eq!(
        Some(atoms.len()),
        n.checked_mul(m),
        "atoms must be n rows of m links"
    );
    if m == 0 {
        out.fill(0.0); // every distance is an empty sum
        return;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::avx_available() {
        simd::sq_dist_block_avx(residuals, atoms, m, out);
        return;
    }
    for (atom, dist) in atoms.chunks_exact(m).zip(out.chunks_exact_mut(L)) {
        let mut acc = [0.0_f64; L];
        for (r, &a) in residuals.chunks_exact(L).zip(atom) {
            for (s, &rl) in acc.iter_mut().zip(r) {
                let t = rl - a;
                *s += t * t;
            }
        }
        dist.copy_from_slice(&acc);
    }
}

/// The single-query squared-distance kernel of the binary read path:
/// `out[j] = Σ_i (residual[i] − dictionary[i * n + j])²` for the
/// `m x n` row-major `dictionary` (links x cells), `m =
/// residual.len()`, `n = out.len()`. `out` is fully overwritten.
///
/// Same contract as [`sq_dist_block`]: every output is one
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

/// AVX (`std::arch`) variants behind runtime feature detection. The
/// only unsafe code in the crate, compiled only with the `simd` cargo
/// feature (without it the crate keeps `#![forbid(unsafe_code)]`).
/// Every intrinsic sequence performs the same per-lane ascending-`p`
/// mul-then-add sums as the scalar kernels — `_mm256_mul_pd` followed
/// by `_mm256_add_pd`, never an FMA, so the results are bit-identical
/// to the scalar path and the parity tier covers both. The distance
/// kernels add one `_mm256_sub_pd` in front of the same mul-then-add.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    #![allow(unsafe_code)]

    use core::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm256_sub_pd,
    };

    use super::BINARY_LANES;

    /// Runtime AVX capability (cached by `std`).
    #[inline]
    pub(super) fn avx_available() -> bool {
        std::arch::is_x86_feature_detected!("avx")
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

    /// Atoms in flight per step of [`sq_dist_block_avx`], two
    /// registers of eight lanes each: eight independent accumulator
    /// chains hide the add latency. On a Xeon (Sapphire Rapids) 2-vCPU
    /// host, one 8-query pass over 1,536 atoms of 32 links took about
    /// 46 µs at two, three, four or six atoms and 50 µs at one; four
    /// was never slower.
    const BLOCK_ATOMS: usize = 4;

    /// Cells in flight per step of [`sq_dist_row_avx`]: four 4-wide
    /// accumulator registers, held over every link in one pass. At
    /// 32x1536 the 12 KiB row stride maps all 32 link rows of a cell
    /// chunk to one L1 set, but walking the links in 8- or 4-row slabs
    /// seeded from `out` measured slower (11.0 and 11.6 µs against
    /// 10.6 µs on the host above), so there is no slabbing.
    const ROW_CELLS: usize = 16;

    /// [`super::sq_dist_block`] with 256-bit lanes. `m > 0`,
    /// `residuals.len() == m * BINARY_LANES`, `out.len() == n *
    /// BINARY_LANES` and `atoms.len() == n * m` (checked by the caller).
    ///
    /// Callers must have verified [`avx_available`].
    pub(super) fn sq_dist_block_avx(residuals: &[f64], atoms: &[f64], m: usize, out: &mut [f64]) {
        let n = out.len() / BINARY_LANES;
        assert!(m > 0 && residuals.len() == m * BINARY_LANES);
        assert_eq!(Some(atoms.len()), n.checked_mul(m));
        let mut j = 0;
        while j + BLOCK_ATOMS <= n {
            // SAFETY: AVX support is checked by the caller via
            // `avx_available`; atoms `j..j + BLOCK_ATOMS` lie inside
            // `atoms` and their table rows inside `out` (asserted
            // above, `j + BLOCK_ATOMS <= n`).
            unsafe { block_atoms::<BLOCK_ATOMS>(residuals, atoms, m, out, j) };
            j += BLOCK_ATOMS;
        }
        while j < n {
            // SAFETY: as above, for the single atom `j < n`.
            unsafe { block_atoms::<1>(residuals, atoms, m, out, j) };
            j += 1;
        }
    }

    // SAFETY contract: `#[target_feature]` makes this fn unsafe to
    // call — callers must have verified `avx_available()` first. The
    // caller guarantees `residuals.len() == m * 8`, atoms `j..j + A`
    // exist (`(j + A) * m <= atoms.len()`) and `(j + A) * 8 <=
    // out.len()`, so every load and store below stays in bounds.
    #[inline]
    #[target_feature(enable = "avx")]
    unsafe fn block_atoms<const A: usize>(
        residuals: &[f64],
        atoms: &[f64],
        m: usize,
        out: &mut [f64],
        j: usize,
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
        let o = out.as_mut_ptr().add(j * BINARY_LANES);
        for (q, accq) in acc.iter().enumerate() {
            _mm256_storeu_pd(o.add(q * BINARY_LANES), accq[0]);
            _mm256_storeu_pd(o.add(q * BINARY_LANES + 4), accq[1]);
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
