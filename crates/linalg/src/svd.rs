//! One-sided Jacobi singular value decomposition.
//!
//! Observation 1 of the paper rests on SVD (Eq. 2): the fingerprint matrix
//! is decomposed as `X = U Σ Vᵀ` and its singular-value energy profile
//! shows it is *approximately* low rank (Fig. 5). The one-sided Jacobi
//! method is simple, numerically robust, and plenty fast for the
//! `8 x 120`-scale matrices this system works with.

use crate::{LinalgError, Matrix, Result};

/// Full thin SVD `A = U diag(σ) Vᵀ`.
///
/// Produced by [`Matrix::svd`]. `u` is `m x k`, `singular_values` has
/// length `k`, `v` is `n x k`, with `k = min(m, n)`; singular values are
/// sorted in decreasing order.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (columns).
    pub u: Matrix,
    /// Singular values, decreasing.
    pub singular_values: Vec<f64>,
    /// Right singular vectors (columns).
    pub v: Matrix,
}

/// Maximum number of Jacobi sweeps before declaring non-convergence.
const MAX_SWEEPS: usize = 64;

impl Matrix {
    /// Computes the thin SVD by one-sided Jacobi rotations.
    ///
    /// For an `m x n` matrix with `m > n` the algorithm runs on the
    /// transpose and swaps `U`/`V` back, so the iteration always works on
    /// the fat/square orientation.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::InvalidArgument`] for an empty matrix.
    /// - [`LinalgError::NonConvergence`] if the rotation sweeps fail to
    ///   converge (does not occur for finite inputs).
    pub fn svd(&self) -> Result<Svd> {
        if self.is_empty() {
            return Err(LinalgError::InvalidArgument("svd of empty matrix"));
        }
        if self.rows() > self.cols() {
            // Work on the transpose: Aᵀ = U' Σ V'ᵀ  =>  A = V' Σ U'ᵀ.
            let svd_t = self.transpose().svd()?;
            return Ok(Svd {
                u: svd_t.v,
                singular_values: svd_t.singular_values,
                v: svd_t.u,
            });
        }

        // One-sided Jacobi on B = Aᵀ (n x m, n >= m): orthogonalise B's
        // columns so that B V = Q diag(σ), i.e. B = Q diag(σ) Vᵀ and
        // A = Bᵀ = V diag(σ) Qᵀ. The working copy is stored TRANSPOSED
        // (`wt = Bᵀ = A`): column p of B is the contiguous row p of
        // `wt`, so every rotation is a pair of slice operations instead
        // of a stride-m column walk. Same numbers, cache-friendly
        // layout (the Layer-1 refactor of this crate).
        let m = self.rows(); // number of columns being orthogonalised
        let n = self.cols(); // their length
        let mut wt = self.clone(); // row p = (σ_p q_p)ᵀ at convergence
        let mut vt = Matrix::identity(m); // row p = column p of V

        let eps = f64::EPSILON;
        let tol = 1e-14_f64;
        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            let mut off = 0.0_f64;
            for p in 0..m {
                for q in (p + 1)..m {
                    // 2x2 Gram entries of columns p, q (= rows of wt).
                    let mut alpha = 0.0;
                    let mut beta = 0.0;
                    let mut gamma = 0.0;
                    {
                        let wp = wt.row(p);
                        let wq = wt.row(q);
                        for i in 0..n {
                            // Fused three-accumulator Jacobi column
                            // sweep: independent ascending dot
                            // products, not a dense multiply.
                            alpha += wp[i] * wp[i]; // invariants: allow(kernel-routing) — Jacobi dot, not a GEMM
                            beta += wq[i] * wq[i]; // invariants: allow(kernel-routing) — Jacobi dot, not a GEMM
                            gamma += wp[i] * wq[i]; // invariants: allow(kernel-routing) — Jacobi dot, not a GEMM
                        }
                    }
                    if gamma.abs() <= tol * (alpha * beta).sqrt().max(eps) {
                        continue;
                    }
                    off = off.max(gamma.abs() / (alpha * beta).sqrt().max(eps));
                    // Jacobi rotation annihilating gamma.
                    let zeta = (beta - alpha) / (2.0 * gamma);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    let (wp, wq) = wt.rows_pair_mut(p, q);
                    for (a, b) in wp.iter_mut().zip(wq.iter_mut()) {
                        let (x, y) = (*a, *b);
                        *a = c * x - s * y;
                        *b = s * x + c * y;
                    }
                    let (vp, vq) = vt.rows_pair_mut(p, q);
                    for (a, b) in vp.iter_mut().zip(vq.iter_mut()) {
                        let (x, y) = (*a, *b);
                        *a = c * x - s * y;
                        *b = s * x + c * y;
                    }
                }
            }
            if off < tol {
                converged = true;
                break;
            }
        }
        if !converged {
            // A final orthogonality check: if the residual is tiny we are
            // fine anyway; otherwise report non-convergence.
            let mut worst: f64 = 0.0;
            for p in 0..m {
                for q in (p + 1)..m {
                    let wp = wt.row(p);
                    let wq = wt.row(q);
                    let mut alpha = 0.0;
                    let mut beta = 0.0;
                    let mut gamma = 0.0;
                    for i in 0..n {
                        alpha += wp[i] * wp[i]; // invariants: allow(kernel-routing) — Jacobi dot, not a GEMM
                        beta += wq[i] * wq[i]; // invariants: allow(kernel-routing) — Jacobi dot, not a GEMM
                        gamma += wp[i] * wq[i]; // invariants: allow(kernel-routing) — Jacobi dot, not a GEMM
                    }
                    worst = worst.max(gamma.abs() / (alpha * beta).sqrt().max(eps));
                }
            }
            if worst > 1e-8 {
                return Err(LinalgError::NonConvergence {
                    iterations: MAX_SWEEPS,
                });
            }
        }

        // Extract singular values (row norms of wt) and normalise.
        let mut order: Vec<usize> = (0..m).collect();
        let mut sigmas: Vec<f64> = (0..m)
            .map(|j| wt.row(j).iter().map(|x| x * x).sum::<f64>().sqrt())
            .collect();
        order.sort_by(|&a, &b| sigmas[b].total_cmp(&sigmas[a]));

        // A = V diag(σ) Qᵀ: left singular vectors of A are the columns
        // of V (rows of vt), right singular vectors the normalised
        // columns of B (rows of wt).
        let mut u_mat = Matrix::zeros(self.rows(), m);
        let mut v_mat = Matrix::zeros(self.cols(), m);
        let mut s_sorted = Vec::with_capacity(m);
        for (k, &j) in order.iter().enumerate() {
            let sigma = sigmas[j];
            s_sorted.push(sigma);
            let vj = vt.row(j);
            for i in 0..self.rows() {
                u_mat[(i, k)] = vj[i];
            }
            if sigma > eps {
                let wj = wt.row(j);
                for i in 0..self.cols() {
                    v_mat[(i, k)] = wj[i] / sigma;
                }
            }
        }
        std::mem::swap(&mut sigmas, &mut s_sorted);
        Ok(Svd {
            u: u_mat,
            singular_values: sigmas,
            v: v_mat,
        })
    }

    /// The singular values only, decreasing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Matrix::svd`].
    pub fn singular_values(&self) -> Result<Vec<f64>> {
        Ok(self.svd()?.singular_values)
    }
}

impl Svd {
    /// Reconstructs the (thin) product `U diag(σ) Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let k = self.singular_values.len();
        let mut out = Matrix::zeros(self.u.rows(), self.v.rows());
        for t in 0..k {
            let sigma = self.singular_values[t];
            for i in 0..out.rows() {
                let ui = self.u[(i, t)] * sigma;
                for j in 0..out.cols() {
                    out[(i, j)] += ui * self.v[(j, t)];
                }
            }
        }
        out
    }

    /// Normalised singular values `σ_i / σ_1` (the y-axis of Fig. 5).
    /// Returns an empty vector when the matrix was zero.
    pub fn normalized_singular_values(&self) -> Vec<f64> {
        match self.singular_values.first() {
            Some(&s0) if s0 > 0.0 => self.singular_values.iter().map(|&s| s / s0).collect(),
            _ => Vec::new(),
        }
    }

    /// Fraction of total singular-value energy captured by the first `r`
    /// values: `Σ_{i<r} σ_i / Σ_i σ_i`.
    pub fn energy_fraction(&self, r: usize) -> f64 {
        let total: f64 = self.singular_values.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        self.singular_values.iter().take(r).sum::<f64>() / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(m, n, |_, _| rng.gen::<f64>() * 2.0 - 1.0)
    }

    #[test]
    fn svd_reconstructs_square() {
        let a = random_matrix(5, 5, 10);
        let svd = a.svd().unwrap();
        assert!(svd.reconstruct().approx_eq(&a, 1e-9));
    }

    #[test]
    fn svd_reconstructs_wide_and_tall() {
        let wide = random_matrix(4, 9, 11);
        assert!(wide.svd().unwrap().reconstruct().approx_eq(&wide, 1e-9));
        let tall = random_matrix(9, 4, 12);
        assert!(tall.svd().unwrap().reconstruct().approx_eq(&tall, 1e-9));
    }

    #[test]
    fn singular_values_sorted_and_nonnegative() {
        let a = random_matrix(6, 8, 13);
        let s = a.singular_values().unwrap();
        assert_eq!(s.len(), 6);
        for w in s.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn svd_of_diagonal_matrix() {
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[5.0, 0.0]]);
        let s = a.singular_values().unwrap();
        assert!((s[0] - 5.0).abs() < 1e-10);
        assert!((s[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn u_and_v_orthonormal() {
        let a = random_matrix(5, 7, 14);
        let svd = a.svd().unwrap();
        let utu = svd.u.transpose().matmul(&svd.u).unwrap();
        let vtv = svd.v.transpose().matmul(&svd.v).unwrap();
        assert!(utu.approx_eq(&Matrix::identity(5), 1e-9));
        assert!(vtv.approx_eq(&Matrix::identity(5), 1e-9));
    }

    #[test]
    fn frobenius_equals_sigma_norm() {
        let a = random_matrix(5, 9, 16);
        let s = a.singular_values().unwrap();
        let fro_from_sigma = s.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((a.frobenius_norm() - fro_from_sigma).abs() < 1e-9);
    }

    #[test]
    fn energy_fraction_monotone() {
        let a = random_matrix(6, 10, 17);
        let svd = a.svd().unwrap();
        let mut prev = 0.0;
        for r in 1..=6 {
            let e = svd.energy_fraction(r);
            assert!(e >= prev);
            prev = e;
        }
        assert!((svd.energy_fraction(6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_values_start_at_one() {
        let a = random_matrix(4, 6, 18);
        let svd = a.svd().unwrap();
        let ns = svd.normalized_singular_values();
        assert!((ns[0] - 1.0).abs() < 1e-12);
        assert!(ns.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
    }

    #[test]
    fn zero_matrix_svd() {
        let a = Matrix::zeros(3, 4);
        let svd = a.svd().unwrap();
        assert!(svd.singular_values.iter().all(|&s| s == 0.0));
        assert!(svd.normalized_singular_values().is_empty());
    }

    #[test]
    fn rank_one_energy_is_total() {
        let a = Matrix::outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        let svd = a.svd().unwrap();
        assert!(svd.energy_fraction(1) > 1.0 - 1e-10);
    }
}
