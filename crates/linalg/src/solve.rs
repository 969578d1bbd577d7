//! LU factorisation with partial pivoting, linear solves, and inversion.
//!
//! The self-augmented reconstruction algorithm (Algorithm 1 in the paper)
//! inverts a small `r x r` system per column update (Eq. 24); these
//! routines provide that.

use crate::{LinalgError, Matrix, Result};

/// LU factorisation with partial pivoting: `P * A = L * U`.
///
/// Produced by [`Matrix::lu`].
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed LU factors: the strict lower triangle holds `L` (unit
    /// diagonal implied), the upper triangle holds `U`.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row index now at row `i`.
    perm: Vec<usize>,
}

impl Matrix {
    /// Computes the LU factorisation of a square matrix with partial
    /// pivoting.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if the matrix is not square.
    /// - [`LinalgError::Singular`] if a pivot is (numerically) zero.
    pub fn lu(&self) -> Result<Lu> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        let n = self.rows();
        // Scale-relative singularity floor: relative to the largest
        // input entry, so a uniformly tiny-scaled but well-conditioned
        // system still solves (an absolute `max(1.0)` floor rejected
        // e.g. 1e-10-scaled Gram systems as singular). It reads the
        // input, not the working copy, so it is computed once.
        let floor = f64::EPSILON * (n as f64) * self.max_abs();
        let mut lu = self.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivot: largest |value| in column k at/below row k.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            // `<=` keeps the all-zero matrix singular (both sides zero).
            if pivot_val <= floor {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                let (a, b) = lu.rows_pair_mut(k, pivot_row);
                a.swap_with_slice(b);
                perm.swap(k, pivot_row);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                // Contiguous row elimination: row_i[k+1..] -= f * row_k[k+1..].
                let (row_k, row_i) = lu.rows_pair_mut(k, i);
                let factor = row_i[k] / pivot;
                row_i[k] = factor;
                crate::view::axpy_slice(-factor, &row_k[k + 1..], &mut row_i[k + 1..]);
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Solves `self * x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Propagates [`Matrix::lu`] errors, and returns
    /// [`LinalgError::ShapeMismatch`] if `b.len() != self.rows()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "solve",
                lhs: self.shape(),
                rhs: (b.len(), 1),
            });
        }
        Ok(self.lu()?.solve(b))
    }

    /// Solves `self * X = B` for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// Propagates [`Matrix::lu`] errors, and returns
    /// [`LinalgError::ShapeMismatch`] if `B.rows() != self.rows()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        if b.rows() != self.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_matrix",
                lhs: self.shape(),
                rhs: b.shape(),
            });
        }
        let lu = self.lu()?;
        let mut x = Matrix::zeros(self.rows(), b.cols());
        for j in 0..b.cols() {
            let col = lu.solve(&b.col(j));
            x.set_col(j, &col);
        }
        Ok(x)
    }

    /// Matrix inverse.
    ///
    /// # Errors
    ///
    /// Propagates [`Matrix::lu`] errors ([`LinalgError::NotSquare`],
    /// [`LinalgError::Singular`]).
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.rows()))
    }
}

impl Lu {
    /// Solves `A x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.perm.len();
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Apply permutation, then forward-substitute L y = P b.
        let mut y: Vec<f64> = (0..n).map(|i| b[self.perm[i]]).collect();
        for i in 1..n {
            let row = self.lu.row(i);
            y[i] -= Matrix::dot(&row[..i], &y[..i]);
        }
        // Back-substitute U x = y.
        let mut x = y;
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let s = x[i] - Matrix::dot(&row[i + 1..], &x[i + 1..]);
            x[i] = s / row[i];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero pivot forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(a.inverse(), Err(LinalgError::Singular)));
        assert!(matches!(
            Matrix::zeros(3, 3).solve(&[1.0, 1.0, 1.0]),
            Err(LinalgError::Singular)
        ));
    }

    #[test]
    fn tiny_scaled_system_still_solves() {
        // Regression: the singularity floor had an absolute
        // `.max(1.0)` component, so this well-conditioned system
        // scaled by 1e-10 was rejected as singular. The floor is
        // relative to the largest entry now.
        let s = 1e-10;
        let a = Matrix::from_rows(&[&[2.0 * s, 1.0 * s], &[1.0 * s, 3.0 * s]]);
        let x = a.solve(&[5.0 * s, 10.0 * s]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 4.0], &[8.0, 12.0]]);
        let x = a.solve_matrix(&b).unwrap();
        let expected = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]);
        assert!(x.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn solve_shape_mismatch() {
        let a = Matrix::identity(2);
        assert!(a.solve(&[1.0, 2.0, 3.0]).is_err());
        assert!(a.solve_matrix(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn solve_larger_random_system_residual_small() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20;
        let a = Matrix::from_fn(n, n, |i, j| {
            // Diagonally dominant => well conditioned.
            if i == j {
                10.0 + rng.gen::<f64>()
            } else {
                rng.gen::<f64>() - 0.5
            }
        });
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = a.solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9);
        }
    }
}
