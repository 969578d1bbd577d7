//! Arithmetic on [`Matrix`]: shape-checked fallible operations plus
//! operator overloads for the infallible cases.

use std::ops::{Add, Mul, Neg, Sub};

use crate::{LinalgError, Matrix, Result};

impl Matrix {
    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn checked_sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Hadamard (element-wise) product, the paper's `B ∘ X` (Eq. 8).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    /// Matrix product `self * other` (the register-tiled row pass, see
    /// [`crate::kernels`]; [`Matrix::matmul_into`] is the
    /// allocation-free variant).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols() != other.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows(), other.cols());
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Gram matrix `selfᵀ * self` (always `cols x cols`).
    pub fn gram(&self) -> Matrix {
        let n = self.cols();
        let mut g = Matrix::zeros(n, n);
        self.gram_into(&mut g)
            // invariants: allow(panic-freedom) — the output was sized
            // `cols x cols` on the line above; no error path remains.
            .expect("gram_into with a freshly sized output cannot fail");
        g
    }

    /// Outer product of two vectors: `a * bᵀ` with shape `a.len() x b.len()`.
    // invariants: allow(dead-pub) — the bitwise oracle kernel_parity
    // holds the rank-1 matmul path to; tests build low-rank inputs with it.
    pub fn outer(a: &[f64], b: &[f64]) -> Matrix {
        Matrix::from_fn(a.len(), b.len(), |i, j| a[i] * b[j])
    }

    /// Dot product of two equal-length slices.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dot product length mismatch");
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix::from_vec(self.rows(), self.cols(), data)
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, "add", |a, b| a + b)
            // invariants: allow(panic-freedom) — documented `# Panics`
            // operator; the shape check is its only error path.
            .expect("matrix addition shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if the shapes differ; use [`Matrix::checked_sub`] to handle
    /// the mismatch as an error.
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.checked_sub(rhs)
            // invariants: allow(panic-freedom) — documented `# Panics`
            // operator; `checked_sub` is the fallible path.
            .expect("matrix subtraction shape mismatch")
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if the inner dimensions differ; use [`Matrix::matmul`] to
    /// handle the mismatch as an error.
    fn mul(self, rhs: &Matrix) -> Matrix {
        // invariants: allow(panic-freedom) — documented `# Panics`
        // operator; `matmul` is the fallible path.
        self.matmul(rhs).expect("matrix product shape mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        Matrix::from_rows(&[&[a, b], &[c, d]])
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        let s = &a + &b;
        assert_eq!(&s - &b, a);
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(a.checked_sub(&b).is_err());
        assert!(a.hadamard(&b).is_err());
        assert!(Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, m22(58.0, 64.0, 139.0, 154.0));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(a.matmul(&Matrix::identity(3)).unwrap(), a);
        assert_eq!(Matrix::identity(3).matmul(&a).unwrap(), a);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(0.0, 1.0, 2.0, 0.5);
        assert_eq!(a.hadamard(&b).unwrap(), m22(0.0, 2.0, 6.0, 2.0));
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gram();
        let expected = a.transpose().matmul(&a).unwrap();
        assert!(g.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn outer_and_dot() {
        let o = Matrix::outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(o.shape(), (2, 3));
        assert_eq!(o[(1, 2)], 10.0);
        assert_eq!(Matrix::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn scalar_and_neg_operators() {
        let a = m22(1.0, -2.0, 3.0, -4.0);
        assert_eq!(&a * 2.0, m22(2.0, -4.0, 6.0, -8.0));
        assert_eq!(-&a, m22(-1.0, 2.0, -3.0, 4.0));
    }
}
