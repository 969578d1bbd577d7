//! Elementary column transformation / column echelon form.
//!
//! The paper (Sec. I and IV-B) finds the *maximum independent column*
//! (MIC) vectors by "conducting elementary column transformation of the
//! matrix; the first nonzero element in each row is located. The columns
//! where these nonzero elements are located are the maximum independent
//! columns."
//!
//! This module implements that literal procedure (with a numerical
//! tolerance) on top of row-reduction bookkeeping: the pivot columns of
//! the row echelon form of `A` are exactly a maximal linearly independent
//! set of columns of `A`. On exactly-low-rank matrices it agrees with the
//! rank-revealing pivoted QR in [`crate::qr`] (tested below), which is
//! what the rest of the system uses by default for noisy inputs.

use crate::{LinalgError, Matrix, Result};

/// Result of a column-independence analysis.
#[derive(Debug, Clone)]
pub struct ColumnEchelon {
    /// Indices (into the original matrix) of a maximal linearly
    /// independent set of columns, in increasing order.
    pub independent_cols: Vec<usize>,
    /// The reduced matrix after elimination (for inspection/testing).
    pub reduced: Matrix,
}

impl Matrix {
    /// Finds a maximal set of linearly independent columns by Gaussian
    /// elimination with partial pivoting, using `tol` (relative to the
    /// largest absolute entry) to decide when a pivot vanishes.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] for an empty matrix or a
    /// non-positive tolerance.
    pub fn column_echelon(&self, tol: f64) -> Result<ColumnEchelon> {
        if self.is_empty() {
            return Err(LinalgError::InvalidArgument("echelon of empty matrix"));
        }
        if tol <= 0.0 {
            return Err(LinalgError::InvalidArgument(
                "echelon tolerance must be > 0",
            ));
        }
        let (m, n) = self.shape();
        let mut work = self.clone();
        let scale = self.max_abs().max(f64::MIN_POSITIVE);
        let threshold = tol * scale;

        let mut independent_cols = Vec::new();
        let mut pivot_row = 0usize;

        for col in 0..n {
            if pivot_row >= m {
                break;
            }
            // Find the largest |entry| in this column at/below pivot_row.
            let (best_row, best_val) = (pivot_row..m)
                .map(|i| (i, work[(i, col)].abs()))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                // invariants: allow(panic-freedom) — `pivot_row < m`
                // is guaranteed by the break above, so the row range
                // is non-empty.
                .expect("non-empty row range");
            if best_val <= threshold {
                continue; // dependent column
            }
            // Swap rows so the pivot is at pivot_row.
            if best_row != pivot_row {
                for j in 0..n {
                    let tmp = work[(pivot_row, j)];
                    work[(pivot_row, j)] = work[(best_row, j)];
                    work[(best_row, j)] = tmp;
                }
            }
            // Eliminate below the pivot.
            let pivot = work[(pivot_row, col)];
            for i in (pivot_row + 1)..m {
                let factor = work[(i, col)] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    let s = work[(pivot_row, j)];
                    work[(i, j)] -= factor * s;
                }
            }
            independent_cols.push(col);
            pivot_row += 1;
        }
        Ok(ColumnEchelon {
            independent_cols,
            reduced: work,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn identity_all_columns_independent() {
        let e = Matrix::identity(4).column_echelon(1e-12).unwrap();
        assert_eq!(e.independent_cols, vec![0, 1, 2, 3]);
    }

    #[test]
    fn duplicate_column_detected() {
        // col1 = col0, col2 independent.
        let a = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[2.0, 2.0, 1.0], &[3.0, 3.0, 0.0]]);
        let e = a.column_echelon(1e-12).unwrap();
        assert_eq!(e.independent_cols, vec![0, 2]);
    }

    #[test]
    fn linear_combination_detected() {
        // col2 = col0 + col1.
        let a = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0], &[1.0, 1.0, 2.0]]);
        let e = a.column_echelon(1e-12).unwrap();
        assert_eq!(e.independent_cols, vec![0, 1]);
    }

    #[test]
    fn count_equals_rank_on_random_low_rank() {
        let mut rng = StdRng::seed_from_u64(99);
        for r in 1..=4usize {
            // Build an 6 x 10 matrix of rank exactly r.
            let l = Matrix::from_fn(6, r, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
            let rt = Matrix::from_fn(r, 10, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
            let a = l.matmul(&rt).unwrap();
            let e = a.column_echelon(1e-9).unwrap();
            assert_eq!(e.independent_cols.len(), r, "rank-{r} matrix");
            // Agreement with pivoted-QR based rank.
            assert_eq!(a.pivoted_leading_columns(1e-9).unwrap().len(), r);
        }
    }

    #[test]
    fn selected_columns_span_column_space() {
        let mut rng = StdRng::seed_from_u64(7);
        let l = Matrix::from_fn(5, 3, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let rt = Matrix::from_fn(3, 8, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let a = l.matmul(&rt).unwrap();
        let e = a.column_echelon(1e-9).unwrap();
        let mic = a.select_cols(&e.independent_cols);
        // Every column of A must be expressible as MIC * z: residual of the
        // least-squares fit should vanish.
        let gram = mic.gram();
        let rhs = mic.transpose().matmul(&a).unwrap();
        let z = gram.solve_matrix(&rhs).unwrap();
        let recon = mic.matmul(&z).unwrap();
        assert!(recon.approx_eq(&a, 1e-7));
    }

    #[test]
    fn zero_matrix_no_independent_columns() {
        let e = Matrix::zeros(3, 3).column_echelon(1e-12).unwrap();
        assert!(e.independent_cols.is_empty());
    }

    #[test]
    fn invalid_arguments() {
        assert!(Matrix::zeros(0, 0).column_echelon(1e-9).is_err());
        assert!(Matrix::identity(2).column_echelon(0.0).is_err());
    }

    #[test]
    fn wide_full_row_rank_takes_first_m_columns_worth() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::from_fn(3, 7, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let e = a.column_echelon(1e-9).unwrap();
        assert_eq!(e.independent_cols.len(), 3);
    }
}
