//! Matrix norms used by the iUpdater objective functions:
//! Frobenius (Eq. 7), l2,1 (Eq. 12), nuclear and spectral norms.

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

    /// l2,1 norm: the sum over columns of the column Euclidean norms,
    /// `Σ_j sqrt(Σ_i a_ij²)` — the corruption penalty of the LRR problem
    /// (Eq. 12).
    pub fn l21_norm(&self) -> f64 {
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
            .sum()
    }

    /// Nuclear norm `‖·‖_*`: the sum of singular values (Eq. 12).
    ///
    /// # Panics
    ///
    /// Panics if the internal SVD fails to converge, which does not happen
    /// for finite inputs within the generous default sweep budget.
    pub fn nuclear_norm(&self) -> f64 {
        self.singular_values()
            // invariants: allow(panic-freedom) — documented `# Panics`
            // API: finite inputs converge within the sweep budget.
            .expect("SVD of a finite matrix should converge")
            .iter()
            .sum()
    }

    /// Spectral norm: the largest singular value.
    ///
    /// # Panics
    ///
    /// Panics if the internal SVD fails to converge (finite inputs always
    /// converge).
    pub fn spectral_norm(&self) -> f64 {
        self.singular_values()
            // invariants: allow(panic-freedom) — documented `# Panics`
            // API: finite inputs converge within the sweep budget.
            .expect("SVD of a finite matrix should converge")
            .first()
            .copied()
            .unwrap_or(0.0)
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
    fn l21_sums_column_norms() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[4.0, 2.0]]);
        assert!((m.l21_norm() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn nuclear_norm_of_diagonal() {
        let m = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
        assert!((m.nuclear_norm() - 5.0).abs() < 1e-9);
        assert!((m.spectral_norm() - 3.0).abs() < 1e-9);
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

    #[test]
    fn nuclear_at_least_frobenius() {
        // ||A||_F <= ||A||_* always.
        let m = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.5, -1.0]]);
        assert!(m.nuclear_norm() + 1e-9 >= m.frobenius_norm());
    }
}
