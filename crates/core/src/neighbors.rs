//! Neighbouring-location structure: the relationship matrix `T` (Eq. 4),
//! the continuity matrix `G` (Eqs. 14-16) and the NLC statistic (Eq. 5).
//!
//! `T(p, q) = 1` iff largely-decrease locations `p` and `q` are
//! neighbours along a link (all links share the same `T`). `G` is built
//! from `T` so that `(X_D G)(i, p)` is the difference between cell `p`
//! and the mean of its neighbours; the middle column(s) are re-defined
//! (Eqs. 15-16) because the RSS dip is shallowest at the link midpoint —
//! there the constraint enforces symmetry of the two midpoint neighbours
//! instead of flatness.

use iupdater_linalg::Matrix;

use crate::{CoreError, Result};

/// The relationship matrix `T` (Eq. 4) for `per` locations along a link:
/// `T(p, q) = 1` iff `|p - q| == 1`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] if `per == 0`.
fn relationship_matrix(per: usize) -> Result<Matrix> {
    if per == 0 {
        return Err(CoreError::InvalidArgument("per must be >= 1"));
    }
    Ok(Matrix::from_fn(per, per, |p, q| {
        if p.abs_diff(q) == 1 {
            1.0
        } else {
            0.0
        }
    }))
}

/// The continuity matrix `G` (Eqs. 14-16).
///
/// Construction: `G* = T + G̃` where `G̃` is diagonal with
/// `G̃(p,p) = -Σ_w T(w,p)` (minus the neighbour count); each column is
/// then normalised by dividing by `-G̃(p,p)` so the diagonal becomes 1
/// and each off-diagonal neighbour weight `-1/deg`. Finally the middle
/// column(s) are replaced per Eq. (15) (odd `per`) or Eq. (16) (even
/// `per`).
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] if `per < 3` (the construction
/// needs a midpoint with two neighbours).
pub fn continuity_matrix(per: usize) -> Result<Matrix> {
    if per < 3 {
        return Err(CoreError::InvalidArgument(
            "continuity matrix needs at least 3 locations per link",
        ));
    }
    let t = relationship_matrix(per)?;
    let mut g = Matrix::zeros(per, per);
    for p in 0..per {
        let deg: f64 = (0..per).map(|w| t[(w, p)]).sum();
        for u in 0..per {
            g[(u, p)] = if u == p { 1.0 } else { -t[(u, p)] / deg };
        }
    }
    // Midpoint re-definition. The paper's p = (N/M - 1)/2 + 1 is 1-based;
    // 0-based the midpoint is mid = (per - 1) / 2 (exact for odd per).
    if per % 2 == 1 {
        // Eq. (15): G(p, p) = 0, G(p+1, p) = 1, G(p-1, p) = -1.
        let p = per / 2;
        for u in 0..per {
            g[(u, p)] = 0.0;
        }
        g[(p + 1, p)] = 1.0;
        g[(p - 1, p)] = -1.0;
    } else {
        // Eq. (16): two central columns floor(p) and ceil(p).
        let lo = per / 2 - 1;
        let hi = per / 2;
        for col in [lo, hi] {
            for u in 0..per {
                g[(u, col)] = 0.0;
            }
            g[(col + 1, col)] = 1.0;
            g[(col - 1, col)] = -1.0;
        }
    }
    Ok(g)
}

/// The NLC (neighbouring-location continuity) statistics of Eq. (5):
/// for every `X_D` entry, the absolute difference between `|d_{i,u}|`
/// and the mean `|value|` of its along-link neighbours, normalised by
/// the global `max - min` of `|X_D|`.
///
/// Returns the `M * per` values in row-major order (the sample set whose
/// CDF is the paper's Fig. 8).
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] if `xd` has fewer than 2
/// columns or is constant (zero normaliser).
pub fn nlc_values(xd: &Matrix) -> Result<Vec<f64>> {
    if xd.cols() < 2 {
        return Err(CoreError::InvalidArgument("NLC needs at least 2 columns"));
    }
    let t = relationship_matrix(xd.cols())?;
    let abs = xd.map(f64::abs);
    let range = abs.max() - abs.min();
    if range <= 0.0 {
        return Err(CoreError::InvalidArgument(
            "NLC normaliser is zero (constant X_D)",
        ));
    }
    let mut out = Vec::with_capacity(xd.rows() * xd.cols());
    for i in 0..xd.rows() {
        for u in 0..xd.cols() {
            let mut acc = 0.0;
            let mut cnt = 0.0;
            for w in 0..xd.cols() {
                if t[(w, u)] != 0.0 {
                    acc += abs[(i, w)];
                    cnt += 1.0;
                }
            }
            let mean_neighbors = acc / cnt;
            out.push((abs[(i, u)] - mean_neighbors).abs() / range);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_matrix_tridiagonal() {
        let t = relationship_matrix(3).unwrap();
        let expected = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
        assert_eq!(t, expected);
        for per in 1..20 {
            let t = relationship_matrix(per).unwrap();
            assert_eq!(t.transpose(), t);
        }
    }

    #[test]
    fn paper_example_per3() {
        // Eq. (14): the paper's 3-location example (before the midpoint
        // re-definition the matrix equals the one printed in Eq. 14; the
        // odd-per midpoint override then replaces column 1 with Eq. 15).
        let g = continuity_matrix(3).unwrap();
        // Columns 0 and 2 match Eq. (14).
        assert_eq!(g[(0, 0)], 1.0);
        assert_eq!(g[(1, 0)], -1.0);
        assert_eq!(g[(2, 0)], 0.0);
        assert_eq!(g[(0, 2)], 0.0);
        assert_eq!(g[(1, 2)], -1.0);
        assert_eq!(g[(2, 2)], 1.0);
        // Column 1 after the Eq. (15) override: G(p,p)=0, G(p+1,p)=1,
        // G(p-1,p)=-1 with p = 1.
        assert_eq!(g[(1, 1)], 0.0);
        assert_eq!(g[(2, 1)], 1.0);
        assert_eq!(g[(0, 1)], -1.0);
    }

    #[test]
    fn interior_columns_average_neighbors() {
        let g = continuity_matrix(7).unwrap();
        // A non-mid interior column p: diagonal 1, neighbours -1/2.
        let p = 1;
        assert_eq!(g[(p, p)], 1.0);
        assert_eq!(g[(p - 1, p)], -0.5);
        assert_eq!(g[(p + 1, p)], -0.5);
        // Column sums to zero: constants are annihilated.
        let sum: f64 = (0..7).map(|u| g[(u, p)]).sum();
        assert!(sum.abs() < 1e-12);
    }

    #[test]
    fn even_per_two_middle_columns() {
        let g = continuity_matrix(12).unwrap();
        for col in [5usize, 6] {
            assert_eq!(g[(col, col)], 0.0);
            assert_eq!(g[(col + 1, col)], 1.0);
            assert_eq!(g[(col - 1, col)], -1.0);
            // Rest of the column zero.
            for u in 0..12 {
                if u != col + 1 && u != col - 1 {
                    assert_eq!(g[(u, col)], 0.0);
                }
            }
        }
    }

    #[test]
    fn odd_per_single_middle_column() {
        let g = continuity_matrix(15).unwrap();
        let p = 7;
        assert_eq!(g[(p, p)], 0.0);
        assert_eq!(g[(p + 1, p)], 1.0);
        assert_eq!(g[(p - 1, p)], -1.0);
    }

    #[test]
    fn constant_rows_annihilated_except_mid() {
        // X_D with constant rows: X_D * G should vanish in non-mid
        // columns (difference-to-neighbour-mean of a constant is 0) and
        // also in mid columns (symmetric neighbours are equal).
        let xd = Matrix::filled(4, 12, -60.0);
        let g = continuity_matrix(12).unwrap();
        let prod = xd.matmul(&g).unwrap();
        assert!(prod.max_abs() < 1e-9);
    }

    #[test]
    fn smooth_profile_small_constraint_value() {
        // A smooth dip profile (the physical RSS pattern) should give a
        // much smaller ||X_D G|| than a noisy profile.
        let per = 12;
        let g = continuity_matrix(per).unwrap();
        let smooth = Matrix::from_fn(2, per, |_, u| {
            let x = u as f64 / (per - 1) as f64;
            // Shallow at the middle, deeper at the ends (paper's shape).
            -60.0 - 6.0 * (1.0 - (2.0 * x - 1.0).powi(2))
        });
        let noisy = Matrix::from_fn(2, per, |i, u| {
            -60.0 + if (u + i) % 2 == 0 { 4.0 } else { -4.0 }
        });
        let s = smooth.matmul(&g).unwrap().frobenius_norm();
        let n = noisy.matmul(&g).unwrap().frobenius_norm();
        assert!(s < n * 0.5, "smooth {s} should beat noisy {n}");
    }

    #[test]
    fn nlc_zero_for_linear_profiles() {
        // |X_D| linear along the link: every value equals its neighbour
        // mean except the endpoints (single neighbour) and midpoints.
        let xd = Matrix::from_fn(1, 5, |_, u| -(60.0 + u as f64));
        let vals = nlc_values(&xd).unwrap();
        // Interior non-endpoint cells: NLC == 0.
        assert!(vals[2].abs() < 1e-12);
        // All values normalised into [0, 1].
        assert!(vals.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn nlc_rejects_degenerate_input() {
        assert!(nlc_values(&Matrix::zeros(2, 1)).is_err());
        assert!(nlc_values(&Matrix::filled(2, 4, -60.0)).is_err());
    }

    #[test]
    fn continuity_needs_three_locations() {
        assert!(continuity_matrix(2).is_err());
        assert!(continuity_matrix(3).is_ok());
    }
}
