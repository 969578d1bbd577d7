//! Structured-matrix builders: banded Toeplitz and diagonal helpers.
//!
//! The adjacent-link similarity constraint uses
//! `H = Toeplitz(-1, 1, 0)_{M x M}` (Eq. 17): ones on the main diagonal,
//! minus-ones on the first lower diagonal, zeros elsewhere.

use crate::Matrix;

impl Matrix {
    /// Builds a banded Toeplitz matrix of size `n x n` where the main
    /// diagonal is `diag`, the first *lower* diagonal is `lower`, and the
    /// first *upper* diagonal is `upper`; everything else is zero.
    ///
    /// The paper's similarity matrix (Eq. 17) is
    /// `Matrix::toeplitz_banded(m, 1.0, -1.0, 0.0)`.
    pub fn toeplitz_banded(n: usize, diag: f64, lower: f64, upper: f64) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                diag
            } else if i == j + 1 {
                lower
            } else if j == i + 1 {
                upper
            } else {
                0.0
            }
        })
    }

    /// Builds `Diag(x)`: a square diagonal matrix with `x` on the main
    /// diagonal (Eq. 20's `Diag(b_j)`).
    pub fn diag(values: &[f64]) -> Matrix {
        let n = values.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in values.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Extracts the main diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows().min(self.cols()))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Sum of the main diagonal (trace).
    pub fn trace(&self) -> f64 {
        self.diagonal().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn similarity_matrix_shape_eq17() {
        // H = Toeplitz(-1, 1, 0): 1 on diagonal, -1 on first lower diagonal.
        let h = Matrix::toeplitz_banded(4, 1.0, -1.0, 0.0);
        let expected = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[-1.0, 1.0, 0.0, 0.0],
            &[0.0, -1.0, 1.0, 0.0],
            &[0.0, 0.0, -1.0, 1.0],
        ]);
        assert_eq!(h, expected);
    }

    #[test]
    fn diag_roundtrip() {
        let d = Matrix::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.diagonal(), vec![1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn diag_matvec_scales() {
        let d = Matrix::diag(&[2.0, 3.0]);
        assert_eq!(d.matvec(&[1.0, 1.0]).unwrap(), vec![2.0, 3.0]);
    }

    #[test]
    fn trace_of_rectangular_uses_short_diagonal() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.trace(), 6.0);
        assert_eq!(m.diagonal(), vec![1.0, 5.0]);
    }

    #[test]
    fn banded_toeplitz_with_upper() {
        let t = Matrix::toeplitz_banded(3, 2.0, -1.0, 0.5);
        assert_eq!(t[(0, 1)], 0.5);
        assert_eq!(t[(1, 0)], -1.0);
        assert_eq!(t[(2, 2)], 2.0);
        assert_eq!(t[(0, 2)], 0.0);
    }
}
