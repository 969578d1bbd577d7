//! Register-tiled microkernels: one row pass shared by every dense
//! product, and the distance kernels of the binary read path.
//!
//! Every dense multiply in this crate — [`crate::Matrix::matmul`],
//! [`crate::Matrix::matmul_into`], [`crate::Matrix::matmul_bt_into`],
//! [`crate::Matrix::gram_into`] and [`crate::Matrix::add_weighted_gram`]
//! — funnels into this module, and so do the solver's right-hand-side
//! products and the binary read path's nearest-atom scans
//! ([`nearest_block`], [`sq_dist_row`]). The hot shapes of the
//! iUpdater workload are small in the shared dimension: rank ≤ 8 on the
//! paper's 6- and 8-link presets, r = 32 on the 32x1536 storm site.
//!
//! There are three product entry points, and each walks the shared
//! dimension `k` in ≤[`TINY_INNER_MAX`]-deep slabs of one row kernel:
//! an output row's `K` coefficients of a slab sit in a `[f64; K]`
//! register file, fully unrolled over `k`, and every slab after the
//! first seeds its accumulators from the partial sums in `out`.
//!
//! - `A·B` is [`gather_matmul`] with a coefficient closure that copies
//!   `a.row(i)[kb..kb + K]`; the solver's right-hand sides are the same
//!   product over coefficients it gathers per slab, never stored. The
//!   slab's `K` rows of `B` are captured once.
//! - `A·Bᵀ` takes `BT_TILE = 32` columns of `Bᵀ` at a time and
//!   transposes each slab of a tile into a stack tile.
//! - The Gram `Σ α·x_p x_pᵀ` takes `α·x_p[a]` as the coefficients of
//!   output row `a`, four rows at a time on the SIMD arms.
//!
//! # The accumulation-order contract
//!
//! Every product computes each output element as the sum of
//! `a[i][p] * b[p][j]` **in ascending `p` order**, exactly like the
//! naive triple loop. Register tiling changes which elements are in
//! flight together, never the order within one element's sum, so for
//! finite inputs every product is **bit-identical** to the naive kernel
//! and to the pre-dispatch blocked kernel. (The only tolerated
//! divergence is non-finite input: the legacy kernel skipped
//! `a[i][p] == 0.0` terms, which hides `0 · ∞ = NaN`; the row pass does
//! not skip, because a branch inside an unrolled accumulator file costs
//! more than the multiply. Skipping a `±0.0` coefficient is a no-op for
//! finite data: the ascending-`k` accumulator can never be `-0.0` —
//! it starts at `+0.0` and `+0.0 + -0.0 = +0.0` in round-to-nearest —
//! so adding the `±0.0` product leaves its bits unchanged.) The
//! `kernel_parity` test tier pins this: every product is proptested
//! bit-identical to the naive reference on finite inputs, and the
//! numeric parity rule for any future reassociating kernel is ≤ 1e-12
//! relative — see ARCHITECTURE.md, "Kernel dispatch".
//!
//! # The autovectorisation contract
//!
//! The scalar kernels are written so LLVM can vectorise them *without
//! reassociating*: accumulator groups are independent output elements
//! (lanes never share a sum), inner trip counts are compile-time
//! constants (`K`, the 4-wide `j` unroll), and slices are
//! narrowed to `&[f64; 4]` chunks so bounds checks hoist out of the
//! loop. With the `simd` crate feature enabled, the row pass and the
//! weighted Gram tile additionally dispatch at runtime
//! (`is_x86_feature_detected!`, [`MulArm`]) to AVX-512F or AVX
//! `std::arch` paths that perform the same per-lane ascending-`p` sums
//! with 512- or 256-bit mul + add (never FMA — contraction would change
//! the bits); the scalar fallback stays compiled and tested either way.
//!
//! # The distance kernels
//!
//! [`sq_dist_row`] is the one exact distance kernel. It computes
//! `Σ_i (r_i − x_i)²` for every atom as one ascending-`i` chain of
//! `t = r − x; s += t * t` — sub, mul, add, never FMA — and writes one
//! query's `n` distances for the caller's argmin. The chains match the
//! naive loop bit for bit on every input, ±0.0 and ±∞ included; only
//! the sign and payload of a NaN result are left unspecified by Rust
//! (the naive loop itself differs between debug and release builds),
//! and a NaN distance never wins the pursuit's strict `<`.
//!
//! [`nearest_block`] serves [`BINARY_LANES`] queries at once and
//! returns each lane's first strict-`<` minimum of those same chains,
//! without evaluating most of them. The expansion
//! `‖r − x‖² = ‖r‖² + ‖x‖² − 2⟨r, x⟩` rounds differently from the
//! chain (and cancels catastrophically when `r ≈ x`, at the best
//! match), so it cannot produce the answer; it can certify one, and in
//! single precision. The kernel rounds the lanes' residuals to f32 and
//! scales them by `−2` once per pass (`s̃ = −2·r̃`; a power-of-two
//! scaling is exact unless it overflows, and inside the certified range
//! below it cannot). Against the f32 copy `x̃` of the dictionary and its
//! f32 squared norms (prepared once, [`FilterAtoms`]) it runs, per atom
//! and lane, one **norm-seeded chain**: the accumulator starts at
//! `‖x̃_j‖²` and takes `s̃_i·x̃_ij` for every link in ascending order —
//! one f32 FMA per atom and link, sixteen atoms per 512-bit register —
//! so its last step yields `ê_j = fl₃₂(‖x̃_j‖² − 2⟨r̃, x̃_j⟩)` directly,
//! with no zeroing and no final subtraction. It keeps each lane's
//! smallest and second-smallest `ê` over the atoms it has not excluded,
//! and certifies the smallest's atom `w` when
//! `runner − best > τ = 2(m + 5)·ε₃₂·(R + X)²`, where `R = ‖r‖`, `X` is
//! the largest atom norm of the f64 dictionary and `ε₃₂ =
//! f32::EPSILON`. The proof, with `u = ε₃₂/2 = 2⁻²⁴`, `γ_k = k·u/(1 −
//! k·u)` and `X_j = ‖x_j‖ ≤ X`:
//!
//! - the chain sums `m + 1` terms — the norm and the `m` products
//!   `−2r̃_i·x̃_ij` — of total magnitude at most `X_j² + 2R·X_j ≤ (R +
//!   X)²` (Cauchy–Schwarz, to first order). Every term passes through
//!   at most `m + 1` roundings (its FMA, or its multiply and the adds
//!   after it; the seed through `m` adds), so the chain is within
//!   `γ_{m+1}·(R + X)²` of the exact sum of its terms, in every arm,
//!   FMA or mul then add;
//! - rounding `r_i` and `x_i` to f32 perturbs each product `r_i·x_i`
//!   and each square `x_i²` by at most `(2u + u²)` relative, so
//!   `2⟨r̃, x̃_j⟩` is within `2(2u + u²)·R·X_j` of `2⟨r, x_j⟩` and the
//!   norm, summed in f64 (a negligible `γ⁽⁶⁴⁾_m`) and rounded once to
//!   f32 (`u`), within `(3u + O(u²))·X_j²` of `‖x_j‖²`: together at
//!   most `3u·(X_j² + 2R·X_j) ≤ 3u·(R + X)²`;
//! - summed, to first order in `u`, each `ê_j` is within
//!   `(m + 4)·u·(R + X)²` of `‖r − x_j‖² − ‖r‖²`, and each f64 chain
//!   is within `γ⁽⁶⁴⁾_{m+2}·(R + X)²` of `‖r − x_j‖²`.
//!
//! So if `ê_j − ê_w > 2(m + 4)u·(R + X)² + 2γ⁽⁶⁴⁾_{m+2}·(R + X)²`, atom
//! `j`'s chain exceeds `w`'s. `τ = 4(m + 5)·u·(R + X)²` is at least
//! twice that bound (`4u(R + X)²` covers both f64 terms many times
//! over), and the factor 2 absorbs the second-order terms, the
//! rounding of `R`, `X`, `τ` and of the gap itself. The bound needs
//! f32's normal range: `τ` is `+∞` unless `2⁻¹⁰⁰ ≤ (R + X)² <
//! f32::MAX/4` and `m ≤ 2²⁰`. Inside, the absolute underflow errors
//! of f32 roundings (up to `2⁻¹⁵⁰` each) add at most `2⁻⁵·u·(R + X)²`
//! to an `ê`; below, they may not. Above, an f32 residual, atom,
//! product or estimate may overflow, and beyond `2²⁰` links `m·u` is
//! no longer small. Every other unexcluded atom's chain therefore exceeds
//! `w`'s strictly, so `w` is the chain's first strict-`<` minimum
//! whatever the order; its one f64 chain is then recomputed exactly,
//! which keeps the pursuit's residual guard bit for bit. A lane that
//! fails — an exact tie (a zero gap), a near-tie, or any non-finite,
//! overflowing or underflowing input, which makes `τ` infinite or the
//! gap NaN, since `!(gap > τ)` holds for NaN — is answered by
//! [`sq_dist_row`] and the strict-`<` argmin instead. A lane excluded
//! from every atom returns `(+∞, usize::MAX)` and certifies nothing.
//!
//! The filter has three arms ([`ScanArm`]), chosen at runtime: AVX-512F
//! (atoms in the vector lanes over the f32 links x cells copy, a
//! [`BINARY_LANES`]-query × 48-atom tile, the lane's two transposed
//! exclusion bytes as the write mask of its compare and `min`s, no
//! transposes for a register with no excluded atom), AVX+FMA (4-query ×
//! 24-atom sub-tiles, `blendv`), and a scalar body (f32 mul then add;
//! the bound covers both roundings). They may round `ê` differently,
//! but the shared certificate and fallback make their answers
//! identical.

/// Depth of one `k`-slab of the shared row kernel: every product walks
/// its shared dimension in slabs of at most this many positions, each
/// a monomorphised `[f64; K]` coefficient file. One slab covers every
/// rank the solver produces on the paper's presets (rank ≤ 8: at most 8
/// links); the 32x1536 storm site solves at r = 32 in two.
pub const TINY_INNER_MAX: usize = 16;

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
    for jb in (0..n).step_by(BT_TILE) {
        let width = (n - jb).min(BT_TILE);
        let mut kb = 0;
        while kb < k {
            let klen = (k - kb).min(TINY_INNER_MAX);
            dispatch_k!(
                klen,
                bt_slab,
                [_, _],
                (a_row, b_row, out, m, n, jb, width, kb)
            );
            kb += klen;
        }
    }
}

/// `out[i] = Σ_{p < k} c(i, p) · b_row(p)[..n]` for every output row
/// `i < m = out.len() / n` (`out` row-major `m x n`, fully overwritten),
/// summed in ascending `p`: a product whose coefficient matrix `c` is
/// never stored. `coef(i, kb, file)` writes `c(i, kb + q)` into
/// `file[q]` for every `q < file.len()`. It is the one `A·B` product:
/// [`crate::Matrix::matmul_into`] copies `a.row(i)[kb..kb + K]` as the
/// coefficients, and the ALS engine builds every sweep's right-hand
/// sides with it, gathering masked, weighted targets as coefficients
/// and fetching factor rows by index through `b_row`, so neither a
/// coefficient copy nor a stacked factor is stored.
///
/// `k` is walked in ≤[`TINY_INNER_MAX`]-deep slabs of the shared row
/// kernel, each slab's `K` coefficients gathered per output row into a
/// `[f64; K]` file and the accumulators seeded from `out` on every slab
/// after the first. Each element is therefore the one ascending-`p`
/// chain `s = +0.0; s += c(i, p) · b_p[j]` — the sequence of one `axpy`
/// per position onto a zeroed row, bit for bit.
///
/// # Panics
///
/// If `out.len()` is not a multiple of `n` (for `n = 0`: not empty), or
/// a row `b_row(p)` is shorter than `n`.
pub fn gather_matmul<'r, C, B>(coef: &C, b_row: &B, k: usize, out: &mut [f64], n: usize)
where
    C: Fn(usize, usize, &mut [f64]),
    B: Fn(usize) -> &'r [f64],
{
    gather_matmul_on(MulArm::widest(), coef, b_row, k, out, n);
}

/// [`gather_matmul`] through a chosen row-pass arm, so the parity tier
/// can pin every arm a host supports, not only the widest: the row pass
/// is the one all product kernels share.
///
/// # Panics
///
/// As [`gather_matmul`], and if `arm` is not in [`MulArm::available`].
// invariants: allow(dead-pub) — kernel_parity pins every row-pass arm
// a host supports through it.
pub fn gather_matmul_on<'r, C, B>(
    arm: MulArm,
    coef: &C,
    b_row: &B,
    k: usize,
    out: &mut [f64],
    n: usize,
) where
    C: Fn(usize, usize, &mut [f64]),
    B: Fn(usize) -> &'r [f64],
{
    assert!(arm.runs(), "row-pass arm {arm:?} is not available here");
    assert_eq!(
        out.len().checked_rem(n).unwrap_or(out.len()),
        0,
        "out must be m rows of n columns"
    );
    if out.is_empty() {
        return;
    }
    if k == 0 {
        out.fill(0.0); // an empty inner dimension is a zero product
        return;
    }
    let mut kb = 0;
    while kb < k {
        let klen = (k - kb).min(TINY_INNER_MAX);
        dispatch_k!(klen, gather_slab, [_, _], (arm, coef, b_row, out, n, kb));
        kb += klen;
    }
}

/// One `K`-deep slab of [`gather_matmul`] (positions `kb..kb+K`): the
/// `K` rows of `B` are captured once and every output row gathers its
/// coefficient file and takes one seeded [`row_pass`].
fn gather_slab<'r, const K: usize, C, B>(
    arm: MulArm,
    coef: &C,
    b_row: &B,
    out: &mut [f64],
    n: usize,
    kb: usize,
) where
    C: Fn(usize, usize, &mut [f64]),
    B: Fn(usize) -> &'r [f64],
{
    let b: [&[f64]; K] = core::array::from_fn(|p| &b_row(kb + p)[..n]);
    for (i, orow) in out.chunks_exact_mut(n).enumerate() {
        let mut c = [0.0_f64; K];
        coef(i, kb, &mut c);
        row_pass(arm, &c, &b, orow, kb > 0);
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
/// The widest [`MulArm`] the host runs does the arithmetic.
pub(crate) fn weighted_gram_rows<'r, X>(
    x_row: &X,
    count: usize,
    alpha: f64,
    out: &mut [f64],
    n: usize,
) where
    X: Fn(usize) -> &'r [f64],
{
    weighted_gram_arm(MulArm::widest(), x_row, count, alpha, out, n);
}

/// [`weighted_gram_rows`] through a chosen arm.
fn weighted_gram_arm<'r, X>(
    arm: MulArm,
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
        dispatch_k!(
            klen,
            weighted_gram_chunk,
            [_],
            (arm, x_row, kb, alpha, out, n)
        );
        kb += klen;
    }
}

/// The arms of the mul-then-add kernels: the weighted Gram tile
/// ([`crate::Matrix::add_weighted_gram`], [`crate::Matrix::gram_into`])
/// and the row pass every product kernel shares ([`gather_matmul`],
/// hence `A·B`, and `A·Bᵀ`). Every arm runs the same per-element
/// mul-then-add chains, so they differ in cost only; the widest one the
/// host runs is dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MulArm {
    /// The scalar row kernel per output row (4 lanes of locals).
    Scalar,
    /// 256-bit mul + add (runtime-detected AVX): an 8-wide row pass,
    /// and four Gram rows at once through a `4 x 8` accumulator tile.
    Avx,
    /// 512-bit mul + add (runtime-detected AVX-512F): a 32-wide row pass
    /// with a masked tail, and four Gram rows through a `4 x 16` tile,
    /// the last `n % 16` columns through the AVX tile.
    Avx512f,
}

impl MulArm {
    /// Every arm this build can run on this host, narrowest first; the
    /// kernels dispatch to the last.
    // invariants: allow(dead-pub) — kernel_parity enumerates the
    // mul-then-add arms this host supports through it.
    pub fn available() -> Vec<MulArm> {
        [MulArm::Scalar, MulArm::Avx, MulArm::Avx512f]
            .into_iter()
            .filter(|arm| arm.runs())
            .collect()
    }

    fn widest() -> MulArm {
        [MulArm::Avx512f, MulArm::Avx]
            .into_iter()
            .find(|arm| arm.runs())
            .unwrap_or(MulArm::Scalar)
    }

    fn runs(self) -> bool {
        match self {
            MulArm::Scalar => true,
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            MulArm::Avx => simd::avx_available(),
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            MulArm::Avx512f => simd::avx_available() && simd::avx512f_available(),
            #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
            _ => false,
        }
    }
}

/// [`crate::Matrix::add_weighted_gram`] through a chosen arm (`out +=
/// α · Σ_{p ∈ rows} src.row(p) src.row(p)ᵀ`), so the parity tier can
/// pin every Gram arm a host supports, not only the widest.
///
/// # Panics
///
/// If `out` is not `src.cols() x src.cols()`, an index in `rows` is out
/// of range, or `arm` is not in [`MulArm::available`].
// invariants: allow(dead-pub) — kernel_parity pins every Gram arm a
// host supports through it.
pub fn weighted_gram_on(
    arm: MulArm,
    alpha: f64,
    src: &crate::Matrix,
    rows: &[usize],
    out: &mut crate::Matrix,
) {
    let n = src.cols();
    assert_eq!(out.shape(), (n, n), "out must be src.cols() square");
    assert!(arm.runs(), "Gram arm {arm:?} is not available here");
    weighted_gram_arm(
        arm,
        &|p| src.row(rows[p]),
        rows.len(),
        alpha,
        out.as_mut_slice(),
        n,
    );
}

/// One `K`-deep slab of [`weighted_gram_rows`] (positions `kb..kb+K`):
/// the matmul `Xᵀ · X` with the coefficient file gathered from column
/// `a` (a `K`-element strided gather per output row, amortised over an
/// `n`-wide [`tiny_row`] pass, seeded from `out`). The SIMD arms run
/// output rows four at a time through a `4 x 16` (AVX-512F) or `4 x 8`
/// (AVX) accumulator tile, each fetched `x_p` segment feeding four
/// rows; the remaining rows, and every row of the scalar arm, take the
/// arm's seeded [`row_pass`].
fn weighted_gram_chunk<'r, const K: usize, X>(
    arm: MulArm,
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
    if arm != MulArm::Scalar {
        while a + 4 <= n {
            let c = [
                coefficients(a),
                coefficients(a + 1),
                coefficients(a + 2),
                coefficients(a + 3),
            ];
            let out4 = &mut out[a * n..(a + 4) * n];
            if arm == MulArm::Avx512f {
                simd::gram4_avx512(&c, &x, out4);
            } else {
                simd::gram4_avx(&c, &x, out4, 0);
            }
            a += 4;
        }
    }
    while a < n {
        row_pass(
            arm,
            &coefficients(a),
            &x,
            &mut out[a * n..(a + 1) * n],
            true,
        );
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
            _ => unreachable!("slab dispatch requires k <= TINY_INNER_MAX"),
        }
    };
}
use dispatch_k;

/// One output row of the shared row kernel through `arm`: the AVX-512F
/// or AVX pass, or [`tiny_row`]. All three run the same per-lane
/// chains, so the choice changes cost only.
#[inline(always)]
fn row_pass<const K: usize>(
    arm: MulArm,
    c: &[f64; K],
    b: &[&[f64]; K],
    orow: &mut [f64],
    accumulate: bool,
) {
    match arm {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        MulArm::Avx512f => simd::tiny_row_avx512(c, b, orow, accumulate),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        MulArm::Avx => simd::tiny_row_avx(c, b, orow, accumulate),
        _ => tiny_row::<K>(c, b, orow, accumulate),
    }
}

/// One output row of the scalar row kernel: `orow[j] = Σ_p c[p]·b[p][j]`
/// with the `p` sum fully unrolled (`K` is a compile-time constant) and
/// `j` processed 4 elements at a time through independent accumulators.
/// Each accumulator is one output element summed in ascending `p`
/// order, so vectorising across the 4 lanes needs no reassociation.
///
/// With `accumulate` set, the accumulators are seeded from the partial
/// sums already in `orow` instead of zero — every product walks a
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

/// Column-tile width of the `A · Bᵀ` entry point: the number of `Bᵀ`
/// columns transposed into one stack tile. Wide enough to amortise the
/// per-tile kernel-call overhead, small enough that a `K x 32` tile
/// (≤ 4 KB) always sits in L1.
const BT_TILE: usize = 32;

/// One `K`-deep slab (inner positions `kb..kb+K`) of one column tile
/// (output columns `jb..jb+width`, `width ≤ BT_TILE`) of `A · Bᵀ`: the
/// tile's slab of `Bᵀ` is transposed into a `[[f64; BT_TILE]; K]` stack
/// tile (cost amortised over all `m` output rows), which turns the
/// row-dot formulation into the broadcast-and-accumulate shape of
/// [`tiny_row`], seeded from `out` on every slab after the first. Each
/// element stays one ascending-`p` sum — identical bits to
/// [`crate::Matrix::dot`] — but vectorises across the tile columns.
#[allow(clippy::too_many_arguments)]
fn bt_slab<'r, const K: usize, A, B>(
    a_row: &A,
    b_row: &B,
    out: &mut [f64],
    m: usize,
    n: usize,
    jb: usize,
    width: usize,
    kb: usize,
) where
    A: Fn(usize) -> &'r [f64],
    B: Fn(usize) -> &'r [f64],
{
    let mut tile = [[0.0_f64; BT_TILE]; K];
    for (lane, j) in (jb..jb + width).enumerate() {
        for (p, &bv) in b_row(j)[kb..kb + K].iter().enumerate() {
            tile[p][lane] = bv;
        }
    }
    let tile_rows: [&[f64]; K] = core::array::from_fn(|p| &tile[p][..width]);
    let arm = MulArm::widest();
    for i in 0..m {
        let mut c = [0.0_f64; K];
        c.copy_from_slice(&a_row(i)[kb..kb + K]);
        let oseg = &mut out[i * n + jb..i * n + jb + width];
        row_pass(arm, &c, &tile_rows, oseg, kb > 0);
    }
}

/// Queries advanced together by [`nearest_block`]: the block layout
/// is `residuals[i * BINARY_LANES + l]` (link `i`, lane `l`), and the
/// scan's tile broadcasts all of them against every loaded atom
/// vector. It is also the width of one exclusion byte: bit `l` of
/// `excluded[j]` belongs to lane `l`.
pub const BINARY_LANES: usize = 8;

// One `u8` per atom carries every lane's exclusion bit; transposed, a
// group of eight atoms gives one byte of a lane's write mask.
const _: () = assert!(BINARY_LANES == u8::BITS as usize);

/// Per-lane nearest atoms of one [`nearest_block`] pass: the smallest
/// squared distance of each lane and the atom index that attains it.
pub type NearestLanes = ([f64; BINARY_LANES], [usize; BINARY_LANES]);

/// The publish-once input of the certified scan's f32 filter over one
/// links x cells dictionary: the f32-rounded copy `x̃` of the dictionary
/// (same layout), every atom's f32 squared norm `‖x̃_j‖²` (summed in
/// f64, rounded once), and the largest atom norm `X` of the f64
/// dictionary, which is `+∞` when any squared norm is not finite (so
/// every certificate over a non-finite dictionary fails).
#[derive(Debug, Clone)]
pub struct FilterAtoms {
    atoms: Vec<f32>,
    sq: Vec<f32>,
    max_norm: f64,
}

impl FilterAtoms {
    /// The filter input of the `m x n` row-major `dictionary` (links x
    /// cells).
    ///
    /// # Panics
    ///
    /// If `dictionary.len()` is not a multiple of `n` (for `n = 0`: not
    /// empty).
    pub fn new(dictionary: &[f64], n: usize) -> Self {
        assert_eq!(
            dictionary.len().checked_rem(n).unwrap_or(dictionary.len()),
            0,
            "dictionary must be m rows of n cells"
        );
        let atoms: Vec<f32> = dictionary.iter().map(|&x| x as f32).collect();
        let (mut exact, mut rounded) = (vec![0.0_f64; n], vec![0.0_f64; n]);
        for (row, row32) in dictionary
            .chunks_exact(n.max(1))
            .zip(atoms.chunks_exact(n.max(1)))
        {
            for ((e, s), (&x, &x32)) in exact
                .iter_mut()
                .zip(&mut rounded)
                .zip(row.iter().zip(row32))
            {
                *e += x * x;
                *s += f64::from(x32) * f64::from(x32);
            }
        }
        let max_sq = exact
            .iter()
            .try_fold(0.0_f64, |max, &s| s.is_finite().then_some(max.max(s)));
        FilterAtoms {
            atoms,
            sq: rounded.into_iter().map(|s| s as f32).collect(),
            max_norm: max_sq.map_or(f64::INFINITY, f64::sqrt),
        }
    }
}

/// The filter arms of [`nearest_block`]. They differ only in how they
/// compute the f32 estimates `ê_j`; the certificate, the winner's exact
/// distance and the fallback scan are shared, so every arm returns the
/// same answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanArm {
    /// Plain f32 mul then add, four atoms × eight lanes per step.
    Scalar,
    /// 256-bit f32 FMA (runtime-detected AVX and FMA): 4-query ×
    /// 24-atom sub-tiles, eight atoms per register, twelve accumulators.
    AvxFma,
    /// 512-bit f32 FMA (runtime-detected AVX-512F): 8-query × 48-atom
    /// tiles, sixteen atoms per register, 24 accumulators.
    Avx512f,
}

impl ScanArm {
    /// Every arm this build can run on this host, narrowest first;
    /// [`nearest_block`] dispatches to the last.
    // invariants: allow(dead-pub) — kernel_parity enumerates the
    // filter arms this host supports through it.
    pub fn available() -> Vec<ScanArm> {
        [ScanArm::Scalar, ScanArm::AvxFma, ScanArm::Avx512f]
            .into_iter()
            .filter(|arm| arm.runs())
            .collect()
    }

    fn widest() -> ScanArm {
        [ScanArm::Avx512f, ScanArm::AvxFma]
            .into_iter()
            .find(|arm| arm.runs())
            .unwrap_or(ScanArm::Scalar)
    }

    fn runs(self) -> bool {
        match self {
            ScanArm::Scalar => true,
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            ScanArm::AvxFma => simd::avx_fma_available(),
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            ScanArm::Avx512f => simd::avx512f_available(),
            #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
            _ => false,
        }
    }
}

/// The nearest-atom kernel of the blocked binary read path. For every
/// lane `l` it returns the first minimum (strict `<`) over the atoms
/// `j` whose `excluded[j]` has bit `l` clear of the exact chain
/// `Σ_i (residuals[i * BINARY_LANES + l] − dictionary[i * n + j])²`
/// (`t = r − x; s += t * t` in ascending `i` from `+0.0`), with its
/// index, for the `m x n` row-major links x cells `dictionary`, `n =
/// excluded.len()` and `m = residuals.len() / BINARY_LANES`. A lane
/// with no selectable atom (all excluded, `n = 0`, or every distance
/// NaN or `+∞`) returns `(+∞, usize::MAX)`. `atoms` must be
/// [`FilterAtoms::new`] of this dictionary, and `residual_sq[l]` lane
/// `l`'s `Σ_i r_i²` summed in ascending `i` by `Iterator::sum` (the
/// pursuit's residual guard already holds it; debug builds check it).
///
/// The scan does not evaluate those chains. It rounds the residuals to
/// f32 once, filters with the norm-seeded single-precision chains `ê_j
/// = fl(‖x̃_j‖² − 2⟨r̃, x̃_j⟩)` and certifies each lane's smallest when
/// its gap to the second smallest exceeds the rounding bound `τ` (see
/// the module docs for `τ` and its proof); the winner's f64 chain is
/// then recomputed exactly. A lane whose certificate fails (a
/// near-tie, or any non-finite, overflowing or underflowing input) is
/// answered by [`sq_dist_row`] and a strict-`<` argmin instead,
/// through `fallback`, a buffer grown to `m + n` on first use. The
/// result is therefore the naive per-pair loop's, bit for bit,
/// non-finite inputs included. The second value is the mask of lanes
/// that fell back.
///
/// # Panics
///
/// If `residuals.len()` is not a multiple of [`BINARY_LANES`], or
/// `dictionary.len() != m * n`, or `atoms` does not hold `n` atoms of
/// `m` links.
pub fn nearest_block(
    residuals: &[f64],
    residual_sq: &[f64; BINARY_LANES],
    dictionary: &[f64],
    atoms: &FilterAtoms,
    excluded: &[u8],
    fallback: &mut Vec<f64>,
) -> (NearestLanes, u8) {
    nearest_block_on(
        ScanArm::widest(),
        residuals,
        residual_sq,
        dictionary,
        atoms,
        excluded,
        fallback,
    )
}

/// Links whose scaled f32 lane residuals [`nearest_block`] writes into
/// a stack buffer (2 KiB); a taller dictionary writes them to the heap.
const STACK_LINKS: usize = 64;

/// [`nearest_block`] through a chosen filter arm, so the parity tier
/// can pin every arm a host supports, not only the widest.
///
/// # Panics
///
/// As [`nearest_block`], and if `arm` is not in
/// [`ScanArm::available`].
// invariants: allow(dead-pub) — kernel_parity pins every
// filter arm a host supports through it.
pub fn nearest_block_on(
    arm: ScanArm,
    residuals: &[f64],
    residual_sq: &[f64; BINARY_LANES],
    dictionary: &[f64],
    atoms: &FilterAtoms,
    excluded: &[u8],
    fallback: &mut Vec<f64>,
) -> (NearestLanes, u8) {
    let (m, n) = (residuals.len() / BINARY_LANES, excluded.len());
    assert_eq!(
        residuals.len(),
        m * BINARY_LANES,
        "residuals must be lane-interleaved"
    );
    assert_eq!(
        Some(dictionary.len()),
        m.checked_mul(n),
        "dictionary must be m rows of one cell per exclusion byte"
    );
    assert!(
        atoms.sq.len() == n && atoms.atoms.len() == dictionary.len(),
        "filter atoms must cover the dictionary"
    );
    assert!(arm.runs(), "scan arm {arm:?} is not available here");
    let filter = filter_on(arm, residuals, atoms, excluded);
    certify(
        residuals,
        residual_sq,
        dictionary,
        atoms.max_norm,
        excluded,
        &filter,
        fallback,
    )
}

/// One filter pass of `arm` (shapes checked by the caller): the lanes'
/// residuals are rounded to f32 and scaled by `−2` once, into the
/// buffer every arm's norm-seeded chains read.
fn filter_on(arm: ScanArm, residuals: &[f64], atoms: &FilterAtoms, excluded: &[u8]) -> Filter {
    let (mut stack, mut heap) = ([0.0_f32; STACK_LINKS * BINARY_LANES], Vec::new());
    let scaled = if residuals.len() <= stack.len() {
        &mut stack[..residuals.len()]
    } else {
        heap.resize(residuals.len(), 0.0);
        &mut heap[..]
    };
    for (s, &r) in scaled.iter_mut().zip(residuals) {
        *s = -2.0 * (r as f32);
    }
    let scaled = &*scaled;
    match arm {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        ScanArm::AvxFma => simd::filter_avx_fma(scaled, &atoms.atoms, &atoms.sq, excluded),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        ScanArm::Avx512f => simd::filter_avx512(scaled, &atoms.atoms, &atoms.sq, excluded),
        _ => filter_scalar(scaled, &atoms.atoms, &atoms.sq, excluded),
    }
}

/// One filter pass: per lane, the smallest and second-smallest
/// estimate `ê` over its unexcluded atoms (`+∞` when there are none)
/// and the atom of the smallest.
struct Filter {
    best: [f32; BINARY_LANES],
    runner: [f32; BINARY_LANES],
    index: [usize; BINARY_LANES],
}

impl Filter {
    fn new() -> Self {
        Filter {
            best: [f32::INFINITY; BINARY_LANES],
            runner: [f32::INFINITY; BINARY_LANES],
            index: [usize::MAX; BINARY_LANES],
        }
    }

    /// Folds atom `j`'s estimate `e` into lane `l`. An estimate equal
    /// to the best becomes the runner-up, so an exact tie leaves a
    /// zero gap and fails the certificate.
    fn push(&mut self, l: usize, e: f32, j: usize) {
        if e < self.best[l] {
            self.runner[l] = self.best[l];
            self.best[l] = e;
            self.index[l] = j;
        } else if e < self.runner[l] {
            self.runner[l] = e;
        }
    }
}

/// The scalar filter arm over the `−2`-scaled residuals: four atoms at
/// a time against all eight lanes, then one at a time, each `ê_j` one
/// ascending-link f32 mul-then-add chain seeded with `‖x̃_j‖²`.
fn filter_scalar(residuals: &[f32], atoms: &[f32], sq: &[f32], excluded: &[u8]) -> Filter {
    let n = excluded.len();
    let mut filter = Filter::new();
    let mut j = 0;
    while j + 4 <= n {
        scalar_group::<4>(residuals, atoms, sq, excluded, j, &mut filter);
        j += 4;
    }
    while j < n {
        scalar_group::<1>(residuals, atoms, sq, excluded, j, &mut filter);
        j += 1;
    }
    filter
}

/// Atoms `j..j + A` of [`filter_scalar`]: the `L` lanes of one atom
/// are one contiguous accumulator row, so LLVM vectorises across lanes
/// without reassociating. Kept out of line: inlined into
/// [`nearest_block_on`], the lane loop stayed scalar and the arm ran
/// about 3× slower.
#[inline(never)]
fn scalar_group<const A: usize>(
    residuals: &[f32],
    atoms: &[f32],
    sq: &[f32],
    excluded: &[u8],
    j: usize,
    filter: &mut Filter,
) {
    const L: usize = BINARY_LANES;
    let n = excluded.len();
    let mut acc: [[f32; L]; A] = core::array::from_fn(|a| [sq[j + a]; L]);
    for (r, row) in residuals
        .as_chunks::<L>()
        .0
        .iter()
        .zip(atoms.chunks_exact(n))
    {
        let x: [f32; A] = core::array::from_fn(|a| row[j + a]);
        for (acca, x) in acc.iter_mut().zip(x) {
            for (s, &rl) in acca.iter_mut().zip(r) {
                *s += rl * x;
            }
        }
    }
    for (a, (&ex, acca)) in excluded[j..j + A].iter().zip(&acc).enumerate() {
        for (l, &e) in acca.iter().enumerate() {
            if ex & (1 << l) == 0 {
                filter.push(l, e, j + a);
            }
        }
    }
}

/// The `(R + X)²` range over which the f32 filter's error bound holds:
/// below `2⁻¹⁰⁰` the absolute underflow errors of f32 roundings (up
/// to `2⁻¹⁵⁰` each) are no longer negligible next to `u·(R + X)²`, and
/// from `f32::MAX / 4` up an f32 residual, atom, product or estimate
/// may overflow.
const CERTIFIED_SCALE: core::ops::Range<f64> = 1.0 / (1u128 << 100) as f64..f32::MAX as f64 / 4.0;

/// Links up to which the f32 filter's first-order error bound holds
/// with room to spare (`m·u ≤ 2⁻⁴`).
const CERTIFIED_LINKS: usize = 1 << 20;

/// The certificate threshold `τ = 2(m + 5)·ε₃₂·(R + X)²` of a lane with
/// `Σ r² = residual_sq` over `m` links against atoms of norm at most
/// `max_norm`: `+∞` (so the certificate fails) when `(R + X)²` is NaN
/// or outside [`CERTIFIED_SCALE`], or `m` exceeds [`CERTIFIED_LINKS`],
/// where the error bound no longer holds.
fn certificate_gap(m: usize, residual_sq: f64, max_norm: f64) -> f64 {
    let reach = residual_sq.sqrt() + max_norm;
    let scale = reach * reach;
    if CERTIFIED_SCALE.contains(&scale) && m <= CERTIFIED_LINKS {
        2.0 * (m + 5) as f64 * f64::from(f32::EPSILON) * scale
    } else {
        f64::INFINITY
    }
}

/// Turns a filter pass into exact answers: certified lanes get their
/// winner's exact chain, the rest an exact [`sq_dist_row`] scan. Each
/// lane's `τ` reads the caller's `Σ r²` of that lane.
fn certify(
    residuals: &[f64],
    residual_sq: &[f64; BINARY_LANES],
    dictionary: &[f64],
    max_norm: f64,
    excluded: &[u8],
    filter: &Filter,
    fallback: &mut Vec<f64>,
) -> (NearestLanes, u8) {
    const L: usize = BINARY_LANES;
    let (m, n) = (residuals.len() / L, excluded.len());
    // Lanes excluded from every atom have nothing to select.
    let settled = excluded.iter().fold(u8::MAX, |all, &ex| all & ex);
    let (mut dist, mut index) = ([f64::INFINITY; L], [usize::MAX; L]);
    let mut uncertified = 0_u8;
    for l in (0..L).filter(|l| settled & (1 << l) == 0) {
        let lane = || residuals.iter().skip(l).step_by(L);
        debug_assert!(
            {
                let sum: f64 = lane().map(|r| r * r).sum();
                sum.to_bits() == residual_sq[l].to_bits() || sum.is_nan() && residual_sq[l].is_nan()
            },
            "residual_sq[{l}] must be the lane's Σ r²"
        );
        let tau = certificate_gap(m, residual_sq[l], max_norm);
        if f64::from(filter.runner[l]) - f64::from(filter.best[l]) > tau {
            let w = filter.index[l];
            let d = lane()
                .zip(dictionary.iter().skip(w).step_by(n))
                .fold(0.0, |s, (&r, &x)| {
                    let t = r - x;
                    s + t * t
                });
            if d < f64::INFINITY {
                (dist[l], index[l]) = (d, w);
                continue;
            }
        }
        uncertified |= 1 << l;
        if fallback.len() < m + n {
            fallback.resize(m + n, 0.0);
        }
        let (r, out) = fallback[..m + n].split_at_mut(m);
        for (ri, &v) in r.iter_mut().zip(lane()) {
            *ri = v;
        }
        sq_dist_row(r, dictionary, out);
        for (j, (&d, &ex)) in out.iter().zip(excluded).enumerate() {
            if ex & (1 << l) == 0 && d < dist[l] {
                (dist[l], index[l]) = (d, j);
            }
        }
    }
    ((dist, index), uncertified)
}

/// Transposes eight exclusion bytes: bit `l` of byte `s` of `bytes`
/// (atom `s`, lane `l`) becomes bit `s` of byte `l` of the result, so
/// byte `l` is lane `l`'s mask over the eight atoms.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn lane_masks(bytes: u64) -> [u8; BINARY_LANES] {
    let mut x = bytes;
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x.to_le_bytes()
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

/// AVX, AVX+FMA and AVX-512F (`std::arch`) variants behind runtime
/// feature detection. The only unsafe code in the crate, compiled only
/// with the `simd` cargo feature (without it the crate keeps
/// `#![forbid(unsafe_code)]`). Every product and distance sequence
/// performs the same per-lane ascending-`p` mul-then-add sums as the
/// scalar kernels — `_mm256_mul_pd` or `_mm512_mul_pd` followed by the
/// matching add, never an FMA, so the results are bit-identical to the
/// scalar path and the parity tier covers every arm; the distance kernel
/// adds one sub in front.
/// The FMAs, and the only f32 arithmetic, live in the nearest-atom
/// scan's filter arms, whose estimates never reach an answer: the
/// shared certificate decides which atom wins and the exact f64 chain
/// gives its distance.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    #![allow(unsafe_code)]

    use core::arch::x86_64::{
        __m256, __m256i, __m512, __m512i, _mm256_add_pd, _mm256_blendv_ps, _mm256_castps_si256,
        _mm256_castsi256_ps, _mm256_cmp_ps, _mm256_fmadd_ps, _mm256_loadu_pd, _mm256_loadu_ps,
        _mm256_maskload_ps, _mm256_max_ps, _mm256_min_ps, _mm256_mul_pd, _mm256_set1_epi32,
        _mm256_set1_pd, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_pd, _mm256_storeu_pd,
        _mm256_storeu_ps, _mm256_storeu_si256, _mm256_sub_pd, _mm512_add_epi32, _mm512_add_pd,
        _mm512_cmp_ps_mask, _mm512_fmadd_ps, _mm512_loadu_pd, _mm512_mask_cmp_ps_mask,
        _mm512_mask_min_ps, _mm512_mask_mov_epi32, _mm512_mask_reduce_max_epi32,
        _mm512_mask_reduce_min_ps, _mm512_mask_storeu_pd, _mm512_maskz_loadu_pd,
        _mm512_maskz_loadu_ps, _mm512_max_ps, _mm512_mul_pd, _mm512_reduce_min_ps,
        _mm512_set1_epi32, _mm512_set1_pd, _mm512_set1_ps, _mm512_setr_epi32, _mm512_setzero_pd,
        _mm512_storeu_pd, _CMP_EQ_OQ, _CMP_LT_OQ,
    };

    use super::{lane_masks, Filter, BINARY_LANES};

    /// Atoms per tile of the certified scan's AVX-512F arm: three
    /// 16-atom f32 registers times the [`BINARY_LANES`] queries, 24
    /// accumulators in flight over every link. The AVX+FMA arm (sixteen
    /// registers) runs each half of it as a 4-query × 24-atom sub-tile
    /// of three 8-atom registers.
    const TILE_ATOMS: usize = 48;

    /// Runtime AVX capability (cached by `std`).
    #[inline]
    pub(super) fn avx_available() -> bool {
        std::arch::is_x86_feature_detected!("avx")
    }

    /// Runtime AVX and FMA capability (cached by `std`): the AVX+FMA
    /// filter arm of the nearest-atom scan.
    #[inline]
    pub(super) fn avx_fma_available() -> bool {
        avx_available() && std::arch::is_x86_feature_detected!("fma")
    }

    /// Runtime AVX-512F capability (cached by `std`).
    #[inline]
    pub(super) fn avx512f_available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
    }

    /// One row-pass output row with 256-bit lanes: 8 output elements
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

    /// [`tiny_row_avx`] with 512-bit lanes: 32 output elements in
    /// flight (four registers), then 8 at a time, then the last `< 8`
    /// under a load and store mask (masked-off lanes load zeros and are
    /// never stored). Same per-lane chains, mul then add, never FMA.
    ///
    /// Callers must have verified [`avx512f_available`].
    pub(super) fn tiny_row_avx512(c: &[f64], b: &[&[f64]], orow: &mut [f64], accumulate: bool) {
        debug_assert_eq!(c.len(), b.len());
        assert!(b.iter().all(|bp| bp.len() >= orow.len()));
        // SAFETY: AVX-512F support is checked by the caller via
        // `avx512f_available`; all loads/stores are within the slice
        // bounds asserted above, re-checked by the `while` guards, and
        // the tail's are masked to the last `n - j` elements.
        unsafe { tiny_row_avx512_inner(c, b, orow, accumulate) }
    }

    // SAFETY contract: `#[target_feature]` makes this fn unsafe to
    // call — callers must have verified `avx512f_available()` first
    // (the safe wrapper above does). Every `b[p]` is at least
    // `orow.len()` long; full-width accesses stay below `n` by the
    // `while` guards, and the tail touches only its masked lanes.
    #[target_feature(enable = "avx512f")]
    unsafe fn tiny_row_avx512_inner(c: &[f64], b: &[&[f64]], orow: &mut [f64], accumulate: bool) {
        const W: usize = 4;
        let n = orow.len();
        let o = orow.as_mut_ptr();
        let mut j = 0;
        while j + 8 * W <= n {
            let mut acc = [_mm512_setzero_pd(); W];
            if accumulate {
                for (w, a) in acc.iter_mut().enumerate() {
                    *a = _mm512_loadu_pd(o.add(j + 8 * w));
                }
            }
            for (&cp, bp) in c.iter().zip(b) {
                let cv = _mm512_set1_pd(cp);
                for (w, a) in acc.iter_mut().enumerate() {
                    let bv = _mm512_loadu_pd(bp.as_ptr().add(j + 8 * w));
                    *a = _mm512_add_pd(*a, _mm512_mul_pd(cv, bv));
                }
            }
            for (w, a) in acc.iter().enumerate() {
                _mm512_storeu_pd(o.add(j + 8 * w), *a);
            }
            j += 8 * W;
        }
        while j < n {
            let mask = if j + 8 <= n {
                u8::MAX
            } else {
                u8::MAX >> (8 - (n - j))
            };
            let mut acc = if accumulate {
                _mm512_maskz_loadu_pd(mask, o.add(j))
            } else {
                _mm512_setzero_pd()
            };
            for (&cp, bp) in c.iter().zip(b) {
                let bv = _mm512_maskz_loadu_pd(mask, bp.as_ptr().add(j));
                acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_set1_pd(cp), bv));
            }
            _mm512_mask_storeu_pd(o.add(j), mask, acc);
            j += 8;
        }
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

    /// Four seeded output rows of the weighted Gram slab at once, over
    /// columns `from..n`: `out4` holds rows `a..a+4` (`4 x n`, `n =
    /// out4.len() / 4`), `c[r]` the coefficient file of row `a + r` and
    /// every `x[p]` is at least `n` long. Each 8-column step keeps a
    /// `4 x 8` tile of accumulators (eight registers) in flight and
    /// loads each `x[p]` segment once for all four rows; the last
    /// `(n - from) % 8` columns take [`tiny_row_avx`] per row. Every
    /// lane is one ascending-`p` mul-then-add chain seeded from `out4`.
    ///
    /// Callers must have verified [`avx_available`].
    pub(super) fn gram4_avx<const K: usize>(
        c: &[[f64; K]; 4],
        x: &[&[f64]; K],
        out4: &mut [f64],
        from: usize,
    ) {
        let n = out4.len() / 4;
        assert_eq!(out4.len(), 4 * n);
        assert!(from <= n && x.iter().all(|xp| xp.len() >= n));
        let end = n - (n - from) % 8;
        // SAFETY: AVX support is checked by the caller via
        // `avx_available`; the asserts above bound every access the
        // inner function makes in columns `from..end`, `end <= n`.
        unsafe { gram4_avx_inner(c, x, out4, n, from, end) }
        if end < n {
            let tail: [&[f64]; K] = core::array::from_fn(|p| &x[p][end..]);
            for (cr, row) in c.iter().zip(out4.chunks_exact_mut(n)) {
                tiny_row_avx(cr, &tail, &mut row[end..], true);
            }
        }
    }

    // SAFETY contract: `#[target_feature]` makes this fn unsafe to
    // call — callers must have verified `avx_available()` first (the
    // safe wrapper above does). `out4` is `4 * n` long, every `x[p]` at
    // least `n` long and `end <= n` with `end - from` a multiple of 8,
    // so row `r`'s offsets `r * n + j .. r * n + j + 8` and the `x[p]`
    // offsets `j .. j + 8` stay in bounds for every step `j < end`.
    #[target_feature(enable = "avx")]
    unsafe fn gram4_avx_inner<const K: usize>(
        c: &[[f64; K]; 4],
        x: &[&[f64]; K],
        out4: &mut [f64],
        n: usize,
        from: usize,
        end: usize,
    ) {
        let o = out4.as_mut_ptr();
        for j in (from..end).step_by(8) {
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

    /// [`gram4_avx`] with 512-bit lanes: each 16-column step keeps a
    /// `4 x 16` tile of accumulators (eight registers) in flight, mul
    /// then add, never FMA; the last `n % 16` columns take
    /// [`gram4_avx`].
    ///
    /// Callers must have verified [`avx_available`] and
    /// [`avx512f_available`].
    pub(super) fn gram4_avx512<const K: usize>(
        c: &[[f64; K]; 4],
        x: &[&[f64]; K],
        out4: &mut [f64],
    ) {
        let n = out4.len() / 4;
        assert_eq!(out4.len(), 4 * n);
        assert!(x.iter().all(|xp| xp.len() >= n));
        let n16 = n - n % 16;
        // SAFETY: AVX-512F support is checked by the caller via
        // `avx512f_available`; the asserts above bound every access the
        // inner function makes below column `n16 <= n`.
        unsafe { gram4_avx512_inner(c, x, out4, n, n16) }
        if n16 < n {
            gram4_avx(c, x, out4, n16);
        }
    }

    // SAFETY contract: `#[target_feature]` makes this fn unsafe to
    // call — callers must have verified `avx512f_available()` first
    // (the safe wrapper above does). `out4` is `4 * n` long, every
    // `x[p]` at least `n` long and `n16 <= n` a multiple of 16, so row
    // `r`'s offsets `r * n + j .. r * n + j + 16` and the `x[p]`
    // offsets `j .. j + 16` stay in bounds for every `j < n16`.
    #[target_feature(enable = "avx512f")]
    unsafe fn gram4_avx512_inner<const K: usize>(
        c: &[[f64; K]; 4],
        x: &[&[f64]; K],
        out4: &mut [f64],
        n: usize,
        n16: usize,
    ) {
        let o = out4.as_mut_ptr();
        for j in (0..n16).step_by(16) {
            let mut acc = [[_mm512_setzero_pd(); 2]; 4];
            for (r, accr) in acc.iter_mut().enumerate() {
                accr[0] = _mm512_loadu_pd(o.add(r * n + j));
                accr[1] = _mm512_loadu_pd(o.add(r * n + j + 8));
            }
            for (p, xp) in x.iter().enumerate() {
                let x0 = _mm512_loadu_pd(xp.as_ptr().add(j));
                let x1 = _mm512_loadu_pd(xp.as_ptr().add(j + 8));
                for (accr, cr) in acc.iter_mut().zip(c) {
                    let cv = _mm512_set1_pd(cr[p]);
                    accr[0] = _mm512_add_pd(accr[0], _mm512_mul_pd(cv, x0));
                    accr[1] = _mm512_add_pd(accr[1], _mm512_mul_pd(cv, x1));
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                _mm512_storeu_pd(o.add(r * n + j), accr[0]);
                _mm512_storeu_pd(o.add(r * n + j + 8), accr[1]);
            }
        }
    }

    /// Cells in flight per step of [`sq_dist_row_avx`]: four 4-wide
    /// accumulator registers, held over every link in one pass. At
    /// 32x1536 the 12 KiB row stride maps all 32 link rows of a cell
    /// chunk to one L1 set, but walking the links in 8- or 4-row slabs
    /// seeded from `out` measured slower (11.0 and 11.6 µs against
    /// 10.6 µs on the host above), so there is no slabbing.
    const ROW_CELLS: usize = 16;

    /// Folds one lane's per-slot smallest, runner-up and index
    /// registers (stored to memory; an index below zero marks a slot
    /// that saw no atom) into `filter`. Every slot's smallest goes in
    /// before any runner-up, so the lane's runner-up is the smallest
    /// of the other slots' smallest and the winning slot's runner-up.
    fn fold_slots(filter: &mut Filter, l: usize, best: &[f32], runner: &[f32], index: &[i32]) {
        for (&b, &j) in best.iter().zip(index) {
            if let Ok(j) = usize::try_from(j) {
                filter.push(l, b, j);
            }
        }
        for &r in runner {
            filter.push(l, r, usize::MAX);
        }
    }

    /// One lane's running state in the AVX-512F arm, one slot per
    /// vector position: the smallest `ê`, the second smallest and the
    /// smallest's atom (`-1` before any).
    #[derive(Clone, Copy)]
    struct Slots512 {
        best: __m512,
        runner: __m512,
        index: __m512i,
    }

    /// The AVX-512F filter arm of [`super::nearest_block`]: [`TILE_ATOMS`]
    /// atoms at a time, each link's three 16-atom f32 registers against
    /// the eight lanes' broadcast scaled residuals in 24 FMA
    /// accumulators seeded with the atoms' norms, then one 16-atom
    /// register at a time, the last one loaded under a mask. Each lane
    /// keeps its [`Slots512`] across tiles; its 16-bit write mask (the
    /// slots inside `n`, less two transposed exclusion bytes) masks the
    /// compare and both `min`s, so an excluded atom or a slot past `n`
    /// leaves the slot as it was. A NaN `ê` sets its slot's runner-up
    /// to its smallest, so its gap there is zero.
    ///
    /// Callers must have verified [`avx512f_available`].
    pub(super) fn filter_avx512(
        residuals: &[f32],
        atoms: &[f32],
        sq: &[f32],
        excluded: &[u8],
    ) -> Filter {
        let m = residuals.len() / BINARY_LANES;
        assert!(residuals.len() == m * BINARY_LANES);
        assert_eq!(Some(atoms.len()), excluded.len().checked_mul(m));
        assert_eq!(sq.len(), excluded.len());
        assert!(
            i32::try_from(excluded.len()).is_ok(),
            "atom indices are i32 lanes"
        );
        // SAFETY: AVX-512F support is checked by the caller via
        // `avx512f_available`; the asserts above are the inner
        // function's shape contract.
        unsafe { filter_avx512_inner(residuals, atoms, sq, excluded, m) }
    }

    // SAFETY contract: `#[target_feature]` makes this fn unsafe to
    // call — callers must have verified `avx512f_available()` first.
    // The caller guarantees `residuals.len() == m * 8`, `atoms.len()
    // == m * n`, `sq.len() == n` and `n <= i32::MAX` for `n =
    // excluded.len()`; every tile below starts at an atom `j < n` and
    // holds at most `n - j` atoms.
    #[target_feature(enable = "avx512f")]
    unsafe fn filter_avx512_inner(
        residuals: &[f32],
        atoms: &[f32],
        sq: &[f32],
        excluded: &[u8],
        m: usize,
    ) -> Filter {
        let n = excluded.len();
        let inf = _mm512_set1_ps(f32::INFINITY);
        let mut slots = [Slots512 {
            best: inf,
            runner: inf,
            index: _mm512_set1_epi32(-1),
        }; BINARY_LANES];
        let mut j = 0;
        while j + TILE_ATOMS <= n {
            tile512::<{ TILE_ATOMS / 16 }>(residuals, atoms, sq, excluded, m, j, 16, &mut slots);
            j += TILE_ATOMS;
        }
        while j < n {
            let width = (n - j).min(16);
            tile512::<1>(residuals, atoms, sq, excluded, m, j, width, &mut slots);
            j += 16;
        }
        let mut filter = Filter::new();
        for (l, slot) in slots.iter().enumerate() {
            fold512(&mut filter, l, slot);
        }
        filter
    }

    /// Folds one lane's [`Slots512`] into `filter` with vector
    /// reductions, as [`fold_slots`] would: the smallest `ê` of the
    /// lowest slot that holds it wins, and the runner-up is the
    /// smallest of the other slots' smallest and of every slot's
    /// runner-up. No slot ever holds a NaN (a NaN `ê` loses both `min`s
    /// and the `max`), and only a slot that saw an atom holds a finite
    /// smallest, so a lane that saw none folds to `(+∞, +∞, MAX)`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn fold512(filter: &mut Filter, l: usize, slot: &Slots512) {
        let best = _mm512_reduce_min_ps(slot.best);
        let ties = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(slot.best, _mm512_set1_ps(best));
        let first = ties & ties.wrapping_neg();
        let index = _mm512_mask_reduce_max_epi32(first, slot.index);
        let others = _mm512_mask_reduce_min_ps(!first, slot.best);
        filter.best[l] = best;
        filter.runner[l] = others.min(_mm512_reduce_min_ps(slot.runner));
        filter.index[l] = usize::try_from(index).unwrap_or(usize::MAX);
    }

    // SAFETY contract: `#[target_feature]` makes this fn unsafe to
    // call — callers must have verified `avx512f_available()` first.
    // On top of `filter_avx512_inner`'s shape contract, `1 <= width
    // <= 16` and `j + 16 * (V - 1) + width <= n`: every full
    // register's loads stay inside an atom row (or `sq`), and the last
    // register's masked loads touch only its `width` atoms.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    unsafe fn tile512<const V: usize>(
        residuals: &[f32],
        atoms: &[f32],
        sq: &[f32],
        excluded: &[u8],
        m: usize,
        j: usize,
        width: usize,
        slots: &mut [Slots512; BINARY_LANES],
    ) {
        let n = excluded.len();
        let mut valid = [u16::MAX; V];
        valid[V - 1] = u16::MAX >> (16 - width);
        let r = residuals.as_ptr();
        let d = atoms.as_ptr().add(j);
        let norms: [__m512; V] =
            core::array::from_fn(|v| _mm512_maskz_loadu_ps(valid[v], sq.as_ptr().add(j + 16 * v)));
        let mut acc = [norms; BINARY_LANES];
        for i in 0..m {
            let row = d.add(i * n);
            let x: [__m512; V] =
                core::array::from_fn(|v| _mm512_maskz_loadu_ps(valid[v], row.add(16 * v)));
            for (l, accl) in acc.iter_mut().enumerate() {
                let rl = _mm512_set1_ps(*r.add(i * BINARY_LANES + l));
                for (a, &xv) in accl.iter_mut().zip(&x) {
                    *a = _mm512_fmadd_ps(rl, xv, *a);
                }
            }
        }
        // Each lane's write mask per register: the atoms inside `n`
        // that the lane has not excluded. A register with no excluded
        // atom (every register of a pursuit's first pass) keeps
        // `valid` and skips the transposes.
        let mut keep = [valid; BINARY_LANES];
        for (v, &ok) in valid.iter().enumerate() {
            let at = j + 16 * v;
            // A full register reads its sixteen bytes in one load; the
            // masked tail assembles its `width` bytes one by one, which
            // (unlike a copy into a buffer) calls no `memcpy` around
            // which the accumulators would spill.
            let bits = match excluded[at..].first_chunk::<16>() {
                Some(&bytes) if ok == u16::MAX => u128::from_le_bytes(bytes),
                _ => excluded[at..at + ok.count_ones() as usize]
                    .iter()
                    .rev()
                    .fold(0, |bits, &ex| bits << 8 | u128::from(ex)),
            };
            if bits != 0 {
                let (lo, hi) = (lane_masks(bits as u64), lane_masks((bits >> 64) as u64));
                for ((k, &lo), &hi) in keep.iter_mut().zip(&lo).zip(&hi) {
                    k[v] &= !u16::from_le_bytes([lo, hi]);
                }
            }
        }
        let iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        for ((slot, accl), keep) in slots.iter_mut().zip(&acc).zip(&keep) {
            let mut s = *slot;
            for (v, (&e, &k)) in accl.iter().zip(keep).enumerate() {
                let jv = _mm512_add_epi32(_mm512_set1_epi32((j + 16 * v) as i32), iota);
                let lt = _mm512_mask_cmp_ps_mask::<_CMP_LT_OQ>(k, e, s.best);
                s.runner = _mm512_mask_min_ps(s.runner, k, _mm512_max_ps(e, s.best), s.runner);
                s.best = _mm512_mask_min_ps(s.best, k, e, s.best);
                s.index = _mm512_mask_mov_epi32(s.index, lt, jv);
            }
            *slot = s;
        }
    }

    /// One lane's running state in the AVX+FMA arm (as [`Slots512`],
    /// eight slots; the `i32` atom indices ride in an `f32` register so
    /// `blendv` can move them).
    #[derive(Clone, Copy)]
    struct Slots256 {
        best: __m256,
        runner: __m256,
        index: __m256,
    }

    /// The AVX+FMA filter arm of [`super::nearest_block`]: sixteen
    /// registers hold one 4-query × 24-atom sub-tile (twelve FMA
    /// accumulators seeded with the atoms' norms, three 8-atom f32
    /// registers, one broadcast), so each [`TILE_ATOMS`]` / 2` tile runs
    /// once per half of the lanes, then one 8-atom register at a time,
    /// the last one loaded under a mask. The per-slot bookkeeping is the
    /// AVX-512F arm's, unmasked: an excluded atom (or a slot past `n`)
    /// enters as `+∞` through `blendv`, and the slots fold through
    /// [`fold_slots`].
    ///
    /// Callers must have verified [`avx_fma_available`].
    pub(super) fn filter_avx_fma(
        residuals: &[f32],
        atoms: &[f32],
        sq: &[f32],
        excluded: &[u8],
    ) -> Filter {
        let m = residuals.len() / BINARY_LANES;
        assert!(residuals.len() == m * BINARY_LANES);
        assert_eq!(Some(atoms.len()), excluded.len().checked_mul(m));
        assert_eq!(sq.len(), excluded.len());
        assert!(
            i32::try_from(excluded.len()).is_ok(),
            "atom indices are i32 lanes"
        );
        // SAFETY: AVX and FMA support is checked by the caller via
        // `avx_fma_available`; the asserts above are the inner
        // function's shape contract.
        unsafe { filter_avx_fma_inner(residuals, atoms, sq, excluded, m) }
    }

    // SAFETY contract: `#[target_feature]` makes this fn unsafe to
    // call — callers must have verified `avx_fma_available()` first.
    // Same shape contract as `filter_avx512_inner`.
    #[target_feature(enable = "avx,fma")]
    unsafe fn filter_avx_fma_inner(
        residuals: &[f32],
        atoms: &[f32],
        sq: &[f32],
        excluded: &[u8],
        m: usize,
    ) -> Filter {
        const SUB: usize = TILE_ATOMS / 2;
        let n = excluded.len();
        let inf = _mm256_set1_ps(f32::INFINITY);
        let mut slots = [Slots256 {
            best: inf,
            runner: inf,
            index: _mm256_castsi256_ps(_mm256_set1_epi32(-1)),
        }; BINARY_LANES];
        let mut j = 0;
        while j + SUB <= n {
            for half in 0..2 {
                tile256::<{ SUB / 8 }, false>(
                    residuals, atoms, sq, excluded, m, j, 8, half, &mut slots,
                );
            }
            j += SUB;
        }
        while j < n {
            let width = (n - j).min(8);
            for half in 0..2 {
                tile256::<1, true>(
                    residuals, atoms, sq, excluded, m, j, width, half, &mut slots,
                );
            }
            j += 8;
        }
        let mut filter = Filter::new();
        for (l, slot) in slots.iter().enumerate() {
            let (mut best, mut runner, mut index) = ([0.0; 8], [0.0; 8], [0; 8]);
            _mm256_storeu_ps(best.as_mut_ptr(), slot.best);
            _mm256_storeu_ps(runner.as_mut_ptr(), slot.runner);
            _mm256_storeu_si256(index.as_mut_ptr().cast(), _mm256_castps_si256(slot.index));
            fold_slots(&mut filter, l, &best, &runner, &index);
        }
        filter
    }

    /// The all-ones / all-zeros 32-bit lanes of the bits of `bits`: a
    /// `blendv` or `maskload` mask over eight atoms.
    #[inline]
    #[target_feature(enable = "avx")]
    fn byte_mask(bits: u8) -> __m256i {
        let lane = |b: u8| -i32::from((bits >> b) & 1);
        _mm256_setr_epi32(
            lane(0),
            lane(1),
            lane(2),
            lane(3),
            lane(4),
            lane(5),
            lane(6),
            lane(7),
        )
    }

    // SAFETY contract: `#[target_feature]` makes this fn unsafe to
    // call — callers must have verified `avx_fma_available()` first.
    // On top of `filter_avx512_inner`'s shape contract, `half < 2`,
    // `1 <= width <= 8` and `j + 8 * (V - 1) + width <= n`: every full
    // register's loads stay inside an atom row (or `sq`), and the last
    // register's masked loads touch only its `width` atoms.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx,fma")]
    unsafe fn tile256<const V: usize, const MASKED: bool>(
        residuals: &[f32],
        atoms: &[f32],
        sq: &[f32],
        excluded: &[u8],
        m: usize,
        j: usize,
        width: usize,
        half: usize,
        slots: &mut [Slots256; BINARY_LANES],
    ) {
        const Q: usize = BINARY_LANES / 2;
        let n = excluded.len();
        let mut valid = [u8::MAX; V];
        valid[V - 1] = u8::MAX >> (8 - width);
        let last = byte_mask(valid[V - 1]);
        let load = |p: *const f32| {
            if MASKED {
                _mm256_maskload_ps(p, last)
            } else {
                _mm256_loadu_ps(p)
            }
        };
        let r = residuals.as_ptr().add(half * Q);
        let d = atoms.as_ptr().add(j);
        let norms: [__m256; V] = core::array::from_fn(|v| load(sq.as_ptr().add(j + 8 * v)));
        let mut acc = [norms; Q];
        for i in 0..m {
            let row = d.add(i * n);
            let x: [__m256; V] = core::array::from_fn(|v| load(row.add(8 * v)));
            for (q, accq) in acc.iter_mut().enumerate() {
                let rq = _mm256_set1_ps(*r.add(i * BINARY_LANES + q));
                for (a, &xv) in accq.iter_mut().zip(&x) {
                    *a = _mm256_fmadd_ps(rq, xv, *a);
                }
            }
        }
        let inf = _mm256_set1_ps(f32::INFINITY);
        for (v, &ok) in valid.iter().enumerate() {
            let at = j + 8 * v;
            let w = ok.count_ones() as usize;
            let ids: [i32; 8] = core::array::from_fn(|k| (at as i32).wrapping_add(k as i32));
            let jv = _mm256_loadu_ps(ids.as_ptr().cast());
            let mut bytes = [0_u8; 8];
            bytes[..w].copy_from_slice(&excluded[at..at + w]);
            let bits = u64::from_le_bytes(bytes);
            let masks = if bits == 0 {
                [0; BINARY_LANES]
            } else {
                lane_masks(bits)
            };
            let lanes = slots[half * Q..]
                .iter_mut()
                .zip(&acc)
                .zip(&masks[half * Q..]);
            for ((slot, accq), &ex) in lanes {
                let mut e = accq[v];
                let drop = ex | !ok;
                if drop != 0 {
                    e = _mm256_blendv_ps(e, inf, _mm256_castsi256_ps(byte_mask(drop)));
                }
                let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(e, slot.best);
                slot.runner = _mm256_min_ps(_mm256_max_ps(e, slot.best), slot.runner);
                slot.best = _mm256_min_ps(e, slot.best);
                slot.index = _mm256_blendv_ps(slot.index, jv, lt);
            }
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
    /// every product must match bit-for-bit on finite inputs.
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
    fn products_match_naive_bitwise() {
        // Odd sizes cover the row pass's tails: one slab, one slab plus
        // a tail, few rows, few columns, and both sides of 64 columns.
        for (m, k, n) in [(13, 7, 29), (5, 33, 41), (37, 33, 5), (70, 33, 67)] {
            let a = sample(m, k, 0.3);
            let b = sample(k, n, 1.7);
            let mut out = Matrix::filled(m, n, f64::NAN);
            a.matmul_into(&b, &mut out).unwrap();
            assert_eq!(out, naive(&a, &b), "({m}, {k}, {n})");
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
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    fn lane_masks_transpose_the_exclusion_bytes() {
        for seed in 0..64_u64 {
            let bytes = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (seed << 7);
            let masks = lane_masks(bytes);
            for (l, &mask) in masks.iter().enumerate() {
                for s in 0..8 {
                    let bit = (bytes >> (8 * s + l)) & 1;
                    assert_eq!(u64::from((mask >> s) & 1), bit, "lane {l}, atom {s}");
                }
            }
        }
    }

    /// The proved bound on the norm-seeded estimates: every `ê_j` of
    /// every filter arm (the scalar arm's f32 mul-then-add chains
    /// always among them) lies within `(m + 4)·u·(R + X)²` of the exact
    /// `‖x_j‖² − 2⟨r, x_j⟩`, on random inputs and on cancellation-heavy
    /// ones, where each residual sits `10⁻⁷` of an atom's norm off that
    /// atom (`‖x_j‖²` some `10¹⁴` times their squared distance).
    /// Each atom is read alone by excluding every other atom from every
    /// lane, so the lane's smallest estimate is that atom's. The exact
    /// value is summed in f64, whose own error is added to the bound.
    #[test]
    fn seeded_estimates_stay_inside_the_proved_bound() {
        const L: usize = BINARY_LANES;
        let u = f64::from(f32::EPSILON) / 2.0;
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let mut worst = 0.0_f64;
        for case in 0..48 {
            let m = [1, 2, 7, 8, 17, 32, 33, 64][case % 8];
            let n = [1, 5, 6][case % 3];
            let cancelling = case % 2 == 1;
            let scale = [1e-6, 1.0, 3e3][case % 3];
            let offset = if cancelling { 100.0 * scale } else { 0.0 };
            let dictionary: Vec<f64> = (0..m * n).map(|_| offset + scale * uniform()).collect();
            let residuals: Vec<f64> = (0..m * L)
                .map(|k| {
                    let (i, l) = (k / L, k % L);
                    if cancelling {
                        dictionary[i * n + l % n] + 1e-5 * scale * uniform()
                    } else {
                        scale * uniform()
                    }
                })
                .collect();
            let atoms = FilterAtoms::new(&dictionary, n);
            let x = atoms.max_norm;
            for k in 0..n {
                let excluded: Vec<u8> = (0..n).map(|j| if j == k { 0 } else { u8::MAX }).collect();
                for arm in ScanArm::available() {
                    let filter = filter_on(arm, &residuals, &atoms, &excluded);
                    for l in 0..L {
                        let lane = |i: usize| residuals[i * L + l];
                        let r = (0..m).map(|i| lane(i) * lane(i)).sum::<f64>().sqrt();
                        let exact: f64 = (0..m)
                            .map(|i| {
                                let xi = dictionary[i * n + k];
                                xi * xi - 2.0 * lane(i) * xi
                            })
                            .sum();
                        let reach = (r + x) * (r + x);
                        let bound =
                            (m + 4) as f64 * u * reach + (m + 2) as f64 * f64::EPSILON * reach;
                        let err = (f64::from(filter.best[l]) - exact).abs();
                        assert_eq!(filter.index[l], k, "case {case} {arm:?} lane {l}");
                        assert!(
                            err <= bound,
                            "case {case} {arm:?} m={m} atom {k} lane {l}: \
                             |ê − e| = {err:e} > {bound:e}"
                        );
                        worst = worst.max(err / (u * reach));
                    }
                }
            }
        }
        // The bound is not vacuous: some estimate uses a visible share
        // of it.
        assert!(worst > 0.5, "largest error {worst} u(R + X)²");
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
