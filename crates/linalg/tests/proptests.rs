//! Property-based tests for the linear-algebra substrate.

use iupdater_linalg::{shrink, stats, Matrix};
use proptest::prelude::*;

/// Strategy: a matrix with shape in [1, max_dim]^2 and entries in [-10, 10].
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

fn square_matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim).prop_flat_map(|n| {
        prop::collection::vec(-10.0f64..10.0, n * n)
            .prop_map(move |data| Matrix::from_vec(n, n, data).unwrap())
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(m in matrix_strategy(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn addition_commutes(m in matrix_strategy(6), scale in -3.0f64..3.0) {
        let n = m.scale(scale);
        let ab = &m + &n;
        let ba = &n + &m;
        prop_assert!(ab.approx_eq(&ba, 1e-12));
    }

    #[test]
    fn matmul_associative(a in matrix_strategy(5)) {
        // Build compatible b, c from a deterministically.
        let b = a.transpose();
        let c = a.clone();
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        let scale = left.max_abs().max(1.0);
        prop_assert!(left.approx_eq(&right, 1e-9 * scale));
    }

    #[test]
    fn transpose_reverses_product(a in matrix_strategy(5)) {
        let b = a.transpose();
        let ab_t = a.matmul(&b).unwrap().transpose();
        let bt_at = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(ab_t.approx_eq(&bt_at, 1e-10));
    }

    #[test]
    fn frobenius_triangle_inequality(m in matrix_strategy(6)) {
        let n = m.map(|x| x.sin());
        let sum = &m + &n;
        prop_assert!(sum.frobenius_norm() <= m.frobenius_norm() + n.frobenius_norm() + 1e-9);
    }

    #[test]
    fn svd_reconstructs(m in matrix_strategy(7)) {
        let svd = m.svd().unwrap();
        let recon = svd.reconstruct();
        let tol = 1e-8 * m.max_abs().max(1.0);
        prop_assert!(recon.approx_eq(&m, tol));
    }

    #[test]
    fn svd_values_sorted(m in matrix_strategy(7)) {
        let s = m.singular_values().unwrap();
        for w in s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn solve_residual_small(a in square_matrix_strategy(6)) {
        // Make it diagonally dominant so it is well-conditioned.
        let n = a.rows();
        let mut dd = a.clone();
        for i in 0..n {
            dd[(i, i)] += 50.0;
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let x = dd.solve(&b).unwrap();
        let r = dd.matmul(&Matrix::from_vec(n, 1, x).unwrap()).unwrap();
        for (ri, bi) in r.as_slice().iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-8);
        }
    }

    #[test]
    fn inverse_product_is_identity(a in square_matrix_strategy(5)) {
        let n = a.rows();
        let mut dd = a.clone();
        for i in 0..n {
            dd[(i, i)] += 50.0;
        }
        let inv = dd.inverse().unwrap();
        let prod = dd.matmul(&inv).unwrap();
        prop_assert!(prod.approx_eq(&Matrix::identity(n), 1e-8));
    }

    #[test]
    fn rank_bounded_by_min_dim(m in matrix_strategy(7)) {
        let r = m.pivoted_leading_columns(1e-10).unwrap().len();
        prop_assert!(r <= m.rows().min(m.cols()));
    }

    #[test]
    fn svt_never_increases_rank_or_norm(m in matrix_strategy(6), tau in 0.01f64..5.0) {
        let out = shrink::svt(&m, tau).unwrap();
        let nuclear = |a: &Matrix| a.singular_values().unwrap().iter().sum::<f64>();
        prop_assert!(nuclear(&out) <= nuclear(&m) + 1e-8);
        let r_out = out.pivoted_leading_columns(1e-9).unwrap().len();
        let r_in = m.pivoted_leading_columns(1e-9).unwrap().len();
        prop_assert!(r_out <= r_in);
    }

    #[test]
    fn l21_shrink_never_increases_column_norms(m in matrix_strategy(6), tau in 0.01f64..5.0) {
        let out = shrink::l21_shrink(&m, tau);
        for (a, b) in out.col_norms().iter().zip(m.col_norms()) {
            prop_assert!(*a <= b + 1e-12);
        }
    }

    #[test]
    fn ecdf_is_a_distribution(samples in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        let e = stats::Ecdf::new(&samples);
        prop_assert_eq!(e.eval(f64::NEG_INFINITY), 0.0);
        prop_assert_eq!(e.eval(f64::INFINITY), 1.0);
        prop_assert!(e.eval(stats::median(&samples)) >= 0.5);
    }

    #[test]
    fn percentile_within_range(samples in prop::collection::vec(-100.0f64..100.0, 1..50), p in 0.0f64..100.0) {
        let v = stats::percentile(&samples, p);
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn view_matmul_matches_owned(m in matrix_strategy(8)) {
        // Whole-matrix views multiply exactly like the owned kernel.
        let b = m.transpose();
        let owned = m.matmul(&b).unwrap();
        let viewed = m.view().matmul(&b.view()).unwrap();
        prop_assert_eq!(&viewed, &owned);
        // And matmul_into produces the same bits without allocating.
        let mut out = iupdater_linalg::Matrix::zeros(m.rows(), m.rows());
        m.matmul_into(&b, &mut out).unwrap();
        prop_assert_eq!(&out, &owned);
    }

    #[test]
    fn block_view_matches_owned_copy(m in matrix_strategy(8), fr in 0.0f64..1.0, fc in 0.0f64..1.0) {
        // A strided sub-block behaves exactly like its owned copy.
        let r0 = ((m.rows() - 1) as f64 * fr) as usize;
        let c0 = ((m.cols() - 1) as f64 * fc) as usize;
        let block = m.view().block(r0..m.rows(), c0..m.cols());
        let owned = Matrix::from_fn(m.rows() - r0, m.cols() - c0, |i, j| m[(i + r0, j + c0)]);
        prop_assert_eq!(block.shape(), owned.shape());
        for i in 0..owned.rows() {
            prop_assert_eq!(block.row(i), owned.row(i));
        }
        // (row-block summation order differs from the flat owned sum,
        // so compare within round-off)
        let scale = owned.frobenius_norm_sq().max(1.0);
        prop_assert!((block.frobenius_norm_sq() - owned.frobenius_norm_sq()).abs() <= 1e-12 * scale);
        // Strided x strided multiply == owned x owned multiply.
        let bt = m.transpose();
        let rhs = bt.view().block(c0..m.cols(), 0..bt.cols());
        let via_views = block.matmul(&rhs).unwrap();
        let rhs_owned = Matrix::from_fn(m.cols() - c0, bt.cols(), |i, j| bt[(i + c0, j)]);
        let via_owned = owned.matmul(&rhs_owned).unwrap();
        prop_assert!(via_views.approx_eq(&via_owned, 0.0));
    }

    #[test]
    fn axpy_matches_scale_add(m in matrix_strategy(7), alpha in -3.0f64..3.0) {
        let other = m.map(|x| x.cos());
        let expected = &m + &other.scale(alpha);
        let mut inplace = m.clone();
        inplace.axpy(alpha, &other).unwrap();
        prop_assert!(inplace.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn gram_into_matches_gram(m in matrix_strategy(7)) {
        let mut out = iupdater_linalg::Matrix::zeros(m.cols(), m.cols());
        m.gram_into(&mut out).unwrap();
        prop_assert_eq!(out, m.gram());
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose(m in matrix_strategy(7)) {
        let other = m.map(|x| (x * 0.5).sin());
        let mut out = iupdater_linalg::Matrix::zeros(m.rows(), other.rows());
        m.matmul_bt_into(&other, &mut out).unwrap();
        let expected = m.matmul(&other.transpose()).unwrap();
        prop_assert!(out.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn sub_of_add_roundtrips(m in matrix_strategy(6), scale in -3.0f64..3.0) {
        let n = m.scale(scale);
        let back = (&m + &n).checked_sub(&n).unwrap();
        prop_assert!(back.approx_eq(&m, 1e-12));
    }

    #[test]
    fn hadamard_with_ones_is_identity(m in matrix_strategy(6)) {
        let ones = iupdater_linalg::Matrix::filled(m.rows(), m.cols(), 1.0);
        prop_assert_eq!(m.hadamard(&ones).unwrap(), m.clone());
        // Element-wise product commutes.
        let n = m.map(|x| x.cos());
        prop_assert_eq!(m.hadamard(&n).unwrap(), n.hadamard(&m).unwrap());
    }

    #[test]
    fn dot_matches_one_cell_matmul(v in prop::collection::vec(-5.0f64..5.0, 1..12)) {
        let row = iupdater_linalg::Matrix::from_vec(1, v.len(), v.clone()).unwrap();
        let col = iupdater_linalg::Matrix::from_vec(v.len(), 1, v.clone()).unwrap();
        let product = row.matmul(&col).unwrap();
        // Both sides sum in ascending index order, so this is exact.
        prop_assert_eq!(product[(0, 0)], iupdater_linalg::Matrix::dot(&v, &v));
    }
}
