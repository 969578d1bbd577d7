//! Matrix norms used by the iUpdater objective functions: Frobenius
//! (Eq. 7) and column norms (the l2,1 penalty of Eq. 12 sums them).

use crate::Matrix;

impl Matrix {
    /// Frobenius norm `sqrt(sum_ij a_ij^2)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Squared Frobenius norm `sum_ij a_ij^2` — the `‖·‖_F²` terms of the
    /// self-augmented RSVD objective (Eq. 18).
    pub fn frobenius_norm_sq(&self) -> f64 {
        self.iter().map(|&x| x * x).sum::<f64>()
    }

    /// Euclidean norms of each column.
    pub fn col_norms(&self) -> Vec<f64> {
        (0..self.cols())
            .map(|j| {
                (0..self.rows())
                    .map(|i| {
                        let v = self[(i, j)];
                        v * v
                    })
                    .sum::<f64>()
                    .sqrt()
            })
            .collect()
    }

    /// Squared Euclidean norms of each column, accumulated row-by-row
    /// so the row-major storage is walked contiguously — the initial
    /// residual norms of greedy column pivoting.
    ///
    /// (Summation order differs from [`Matrix::col_norms`], which walks
    /// column-by-column; results agree to rounding, not bitwise.)
    pub fn col_norms_sq(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.cols()];
        for i in 0..self.rows() {
            for (a, &v) in acc.iter_mut().zip(self.row(i)) {
                *a += v * v;
            }
        }
        acc
    }
}

/// Euclidean norm of a slice.
pub fn vec_norm(v: &[f64]) -> f64 {
    vec_norm_sq(v).sqrt()
}

/// Squared Euclidean norm of a slice — the residual bookkeeping unit
/// of the pivoted-QR certification paths (bit-identical to the
/// sequential `Σ x_i²` those paths historically inlined).
pub fn vec_norm_sq(v: &[f64]) -> f64 {
    v.iter().map(|&x| x * x).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frobenius_of_345() {
        let m = Matrix::from_rows(&[&[3.0], &[4.0]]);
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.frobenius_norm_sq(), 25.0);
    }

    #[test]
    fn col_norms_basic() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[4.0, 1.0]]);
        let cn = m.col_norms();
        assert!((cn[0] - 5.0).abs() < 1e-12);
        assert!((cn[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vec_norm_basic() {
        assert_eq!(vec_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(vec_norm(&[]), 0.0);
        assert_eq!(vec_norm_sq(&[3.0, 4.0]), 25.0);
    }

    #[test]
    fn col_norms_sq_matches_col_norms() {
        let m = Matrix::from_rows(&[&[3.0, 0.0, 1.0], &[4.0, 1.0, -2.0]]);
        let sq = m.col_norms_sq();
        for (s, n) in sq.iter().zip(m.col_norms()) {
            assert!((s.sqrt() - n).abs() < 1e-12);
        }
        assert_eq!(sq, vec![25.0, 1.0, 5.0]);
    }
}
