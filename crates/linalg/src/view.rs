//! In-place kernels on [`Matrix`].
//!
//! The original substrate allocated a fresh `Matrix` for every
//! operation (`transpose`, `matmul`, `col`, ...), which made the solver
//! hot path clone-bound. This module adds the allocation-free layer the
//! engine now runs on:
//!
//! - in-place kernels on `Matrix`: [`Matrix::matmul_into`],
//!   [`Matrix::matmul_bt_into`], [`Matrix::add_assign_matrix`],
//!   [`Matrix::axpy`], [`Matrix::scale_mut`], [`Matrix::gram_into`],
//!   [`Matrix::add_weighted_gram`] (Gram accumulation) and slice helpers
//!   ([`axpy_slice`], [`scale_slice`]);
//! - the products route into the register-tiled row pass of
//!   [`crate::kernels`], shared by `matmul`, `matmul_into`,
//!   `matmul_bt_into`, `gram_into` and `add_weighted_gram`. Tiling
//!   changes loops only — per-element accumulation order stays
//!   ascending over the inner dimension, so results are bit-identical
//!   to the naive kernel (see the accumulation-order contract in
//!   [`crate::kernels`]).

use crate::{kernels, LinalgError, Matrix, Result};

/// `y += alpha * x` over two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn axpy_slice(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha` in place.
#[inline]
pub fn scale_slice(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

impl Matrix {
    /// Two distinct mutable rows at once.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either row is out of bounds.
    pub fn rows_pair_mut(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        let cols = self.cols();
        assert!(a != b, "rows_pair_mut needs distinct rows");
        assert!(a < self.rows() && b < self.rows(), "row out of bounds");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.as_mut_slice().split_at_mut(hi * cols);
        let lo_slice = &mut head[lo * cols..(lo + 1) * cols];
        let hi_slice = &mut tail[..cols];
        if a < b {
            (lo_slice, hi_slice)
        } else {
            (hi_slice, lo_slice)
        }
    }

    /// `out = self * other` without allocating: one
    /// [`kernels::gather_matmul`] whose coefficients are `self`'s rows,
    /// so every element is the ascending-`k` chain of the naive loop.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] on inner-dimension or output-shape
    /// mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols() != other.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_into",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        if out.shape() != (self.rows(), other.cols()) {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_into (out)",
                lhs: (self.rows(), other.cols()),
                rhs: out.shape(),
            });
        }
        kernels::gather_matmul(
            &|i, kb, file: &mut [f64]| file.copy_from_slice(&self.row(i)[kb..kb + file.len()]),
            &|p| other.row(p),
            self.cols(),
            out.as_mut_slice(),
            other.cols(),
        );
        Ok(())
    }

    /// `out = self * otherᵀ` without materialising the transpose: every
    /// output element is a dot product of two contiguous rows, with the
    /// same accumulation order as `self.matmul(&other.transpose())`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `self.cols() != other.cols()` or
    /// `out` is not `self.rows() x other.rows()`.
    pub fn matmul_bt_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols() != other.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_bt",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        if out.shape() != (self.rows(), other.rows()) {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_bt (out)",
                lhs: (self.rows(), other.rows()),
                rhs: out.shape(),
            });
        }
        let (m, k, n) = (self.rows(), self.cols(), other.rows());
        kernels::matmul_bt_rows(
            &|i| self.row(i),
            &|j| other.row(j),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
        Ok(())
    }

    /// `self += alpha * other` element-wise, in place.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        axpy_slice(alpha, other.as_slice(), self.as_mut_slice());
        Ok(())
    }

    /// `self += other` element-wise, in place.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn add_assign_matrix(&mut self, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
        Ok(())
    }

    /// Scales every element in place.
    pub fn scale_mut(&mut self, alpha: f64) {
        scale_slice(alpha, self.as_mut_slice());
    }

    /// Overwrites `self` with the contents of `other` (no allocation).
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn copy_from(&mut self, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "copy_from",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        self.as_mut_slice().copy_from_slice(other.as_slice());
        Ok(())
    }

    /// Writes the Gram matrix `selfᵀ self` into `out` without
    /// allocating.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `out` is not `cols x cols`.
    pub fn gram_into(&self, out: &mut Matrix) -> Result<()> {
        let n = self.cols();
        if out.shape() != (n, n) {
            return Err(LinalgError::ShapeMismatch {
                op: "gram_into",
                lhs: (n, n),
                rhs: out.shape(),
            });
        }
        out.as_mut_slice().fill(0.0);
        kernels::weighted_gram_rows(&|p| self.row(p), self.rows(), 1.0, out.as_mut_slice(), n);
        Ok(())
    }

    /// Weighted Gram accumulation over a row list:
    /// `self += alpha · Σ_{p ∈ rows} src.row(p) · src.row(p)ᵀ`, summed in
    /// list order (repeats and any order allowed) — the normal-equation
    /// assembly primitive of the solver engine, routed through
    /// [`crate::kernels`].
    ///
    /// Every element receives `self[a][b] += (alpha·x_p[a])·x_p[b]` once
    /// per listed row, in list order: bit-identical to one sequential
    /// rank-1 update per row. The result is well defined for any input,
    /// but the solver's bit-parity with its historical rank-1 loop —
    /// which skipped zero `alpha·x_p[a]` coefficients — holds on finite
    /// inputs only (`0 · ∞` is a NaN the skip hid).
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `self` is not
    /// `src.cols() x src.cols()`; [`LinalgError::InvalidArgument`] if an
    /// index in `rows` is out of range.
    pub fn add_weighted_gram(&mut self, alpha: f64, src: &Matrix, rows: &[usize]) -> Result<()> {
        let n = src.cols();
        if self.shape() != (n, n) {
            return Err(LinalgError::ShapeMismatch {
                op: "add_weighted_gram",
                lhs: (n, n),
                rhs: self.shape(),
            });
        }
        if rows.iter().any(|&p| p >= src.rows()) {
            return Err(LinalgError::InvalidArgument(
                "add_weighted_gram row index out of range",
            ));
        }
        kernels::weighted_gram_rows(
            &|p| src.row(rows[p]),
            rows.len(),
            alpha,
            self.as_mut_slice(),
            n,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| (i * cols + j) as f64 * 0.25 - 3.0)
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = sample(7, 5);
        let b = sample(5, 9);
        let expect = a.matmul(&b).unwrap();
        let mut out = Matrix::zeros(7, 9);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, expect);
    }

    #[test]
    fn matmul_into_shape_checked() {
        let a = sample(3, 4);
        let b = sample(5, 2);
        let mut out = Matrix::zeros(3, 2);
        assert!(a.matmul_into(&b, &mut out).is_err());
        let c = sample(4, 2);
        let mut bad_out = Matrix::zeros(2, 2);
        assert!(a.matmul_into(&c, &mut bad_out).is_err());
    }

    #[test]
    fn axpy_and_add_assign() {
        let mut a = sample(3, 3);
        let b = Matrix::filled(3, 3, 2.0);
        let expect = a.map(|x| x + 1.0);
        a.axpy(0.5, &b).unwrap();
        assert!(a.approx_eq(&expect, 1e-15));
        a.add_assign_matrix(&b).unwrap();
        assert!(a.approx_eq(&expect.map(|x| x + 2.0), 1e-15));
        assert!(a.axpy(1.0, &Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn scale_mut_matches_scale() {
        let mut a = sample(4, 2);
        let expect = a.scale(-1.5);
        a.scale_mut(-1.5);
        assert_eq!(a, expect);
    }

    #[test]
    fn gram_into_matches_gram() {
        let a = sample(6, 4);
        let mut g = Matrix::zeros(4, 4);
        a.gram_into(&mut g).unwrap();
        assert_eq!(g, a.gram());
        assert!(a.gram_into(&mut Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn rows_pair_mut_gives_disjoint_rows() {
        let mut m = sample(4, 5);
        let expect_2 = m.row(2).to_vec();
        let expect_0 = m.row(0).to_vec();
        {
            let (a, b) = m.rows_pair_mut(2, 0);
            assert_eq!(a, expect_2.as_slice());
            assert_eq!(b, expect_0.as_slice());
            std::mem::swap(&mut a[0], &mut b[0]);
        }
        assert_eq!(m[(2, 0)], expect_0[0]);
        assert_eq!(m[(0, 0)], expect_2[0]);
    }

    #[test]
    fn matmul_into_walks_several_slabs() {
        // k = 70 walks five slabs, the last a 6-deep tail.
        let a = Matrix::from_fn(3, 70, |i, j| ((i * 70 + j) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(70, 67, |i, j| ((i * 67 + j) % 7) as f64 - 3.0);
        let mut out = Matrix::zeros(3, 67);
        a.matmul_into(&b, &mut out).unwrap();
        // Compare against a straightforward triple loop.
        for i in 0..3 {
            for j in 0..67 {
                let expect: f64 = (0..70).map(|k| a[(i, k)] * b[(k, j)]).sum();
                assert!((out[(i, j)] - expect).abs() < 1e-9);
            }
        }
    }
}
