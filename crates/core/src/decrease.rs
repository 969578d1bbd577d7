//! The largely-decrease matrix `X_D` (Def. 2 / Fig. 7).
//!
//! `X_D` has shape `M x (N/M)`: entry `(i, u)` is the fingerprint cell
//! for a target standing at the `u`-th grid location *along link `i`'s
//! own direct path* — exactly the cells where the RSS drops the most.
//! Constraint 2 (continuity + similarity) lives on this matrix.

use iupdater_linalg::Matrix;

use crate::{CoreError, Result};

/// Extracts `X_D` from a full fingerprint matrix: `d_{i,u} = x_{i,j}`
/// with `j = i * (N/M) + u` (Def. 2, 0-based).
///
/// # Errors
///
/// Returns [`CoreError::DimensionMismatch`] if `x.cols()` is not
/// `x.rows() * per`.
pub fn extract(x: &Matrix, per: usize) -> Result<Matrix> {
    if per == 0 || x.cols() != x.rows() * per {
        return Err(CoreError::DimensionMismatch {
            context: "decrease::extract",
            expected: format!("cols = rows * per = {} * {per}", x.rows()),
            got: format!("cols = {}", x.cols()),
        });
    }
    Ok(Matrix::from_fn(x.rows(), per, |i, u| x[(i, i * per + u)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint_4x12() -> Matrix {
        // The paper's Fig. 7 example: 4 links x 12 grids, N/M = 3.
        Matrix::from_fn(4, 12, |i, j| -(50.0 + (i * 12 + j) as f64))
    }

    #[test]
    fn extract_matches_def2() {
        let x = fingerprint_4x12();
        let xd = extract(&x, 3).unwrap();
        assert_eq!(xd.shape(), (4, 3));
        // d_{i,u} = x_{i, i*3+u}.
        for i in 0..4 {
            for u in 0..3 {
                assert_eq!(xd[(i, u)], x[(i, i * 3 + u)]);
            }
        }
    }

    #[test]
    fn extract_shape_checked() {
        let x = Matrix::zeros(4, 12);
        assert!(extract(&x, 5).is_err());
        assert!(extract(&x, 0).is_err());
        assert!(extract(&x, 3).is_ok());
    }
}
