//! ε-support-vector regression with an RBF kernel, trained by a
//! simplified SMO (sequential minimal optimisation) solver.
//!
//! This is the regression model RASS (Zhang et al., TPDS'13) uses to map
//! RSS vectors to target coordinates. Implemented from scratch: the dual
//! problem optimises pairs of coefficients `β_i = α_i − α_i*` under the
//! box constraint `|β_i| ≤ C` and the equality constraint `Σ β_i = 0`,
//! with the ε-insensitive loss.

use iupdater_linalg::Matrix;

/// The radial basis function kernel `exp(-gamma ||a - b||²)`.
fn rbf(gamma: f64, a: &[f64], b: &[f64]) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (-gamma * d2).exp()
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvrParams {
    /// Box constraint `C` (regularisation trade-off).
    pub c: f64,
    /// Width of the ε-insensitive tube.
    pub epsilon: f64,
    /// RBF kernel bandwidth `gamma`.
    pub gamma: f64,
    /// Maximum SMO passes over the data without progress before
    /// stopping.
    pub max_passes: usize,
    /// KKT violation tolerance.
    pub tol: f64,
}

impl Default for SvrParams {
    fn default() -> Self {
        SvrParams {
            c: 10.0,
            epsilon: 0.1,
            gamma: 0.05,
            max_passes: 20,
            tol: 1e-3,
        }
    }
}

/// A trained ε-SVR model.
#[derive(Debug, Clone)]
pub struct SvrModel {
    params: SvrParams,
    /// Support vectors, one per row.
    support: Matrix,
    beta: Vec<f64>,
    bias: f64,
}

impl SvrModel {
    /// Trains on rows of `x` (one sample per row) against `y`.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != y.len()`, if there are no samples, or if
    /// parameters are non-positive.
    pub fn train(x: &Matrix, y: &[f64], params: SvrParams) -> Self {
        assert_eq!(x.rows(), y.len(), "sample/label count mismatch");
        assert!(x.rows() > 0, "need at least one sample");
        assert!(
            params.c > 0.0 && params.epsilon >= 0.0,
            "bad SVR parameters"
        );
        let n = x.rows();

        // Precompute the kernel matrix (n is small in our experiments);
        // samples are read directly as row views of `x`.
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = rbf(params.gamma, x.row(i), x.row(j));
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }

        let mut beta = vec![0.0_f64; n];
        let mut bias = mean(y);
        // f_i cache: current predictions.
        let mut f: Vec<f64> = vec![bias; n];

        let mut passes = 0;
        while passes < params.max_passes {
            let mut changed = 0;
            for i in 0..n {
                // KKT check for sample i under epsilon-insensitive loss.
                let err_i = f[i] - y[i];
                let violates = (err_i > params.epsilon + params.tol && beta[i] > -params.c)
                    || (err_i < -params.epsilon - params.tol && beta[i] < params.c);
                if !violates {
                    continue;
                }
                // Pick j with the largest |err_i - err_j|.
                let mut j_best = usize::MAX;
                let mut gap_best = 0.0;
                for j in 0..n {
                    if j == i {
                        continue;
                    }
                    let gap = (err_i - (f[j] - y[j])).abs();
                    if gap > gap_best {
                        gap_best = gap;
                        j_best = j;
                    }
                }
                if j_best == usize::MAX {
                    continue;
                }
                let j = j_best;
                let err_j = f[j] - y[j];
                let eta = k[(i, i)] + k[(j, j)] - 2.0 * k[(i, j)];
                if eta <= 1e-12 {
                    continue;
                }
                // Joint update preserving beta_i + beta_j.
                let s = beta[i] + beta[j];
                // Unconstrained optimum for beta_i along the constraint
                // line, using the epsilon-subgradient-free direction
                // (works because we re-check KKT each pass).
                let delta = (err_j - err_i) / eta;
                let mut bi_new = beta[i] + delta;
                // Box: |beta_i| <= C and |s - beta_i| <= C.
                let lo = (-params.c).max(s - params.c);
                let hi = params.c.min(s + params.c);
                bi_new = bi_new.clamp(lo, hi);
                let bj_new = s - bi_new;
                let di = bi_new - beta[i];
                let dj = bj_new - beta[j];
                if di.abs() < 1e-12 && dj.abs() < 1e-12 {
                    continue;
                }
                beta[i] = bi_new;
                beta[j] = bj_new;
                for t in 0..n {
                    f[t] += di * k[(i, t)] + dj * k[(j, t)];
                }
                // Bias: set so the average error of in-box points is 0.
                let mut acc = 0.0;
                let mut cnt = 0.0;
                for t in 0..n {
                    if beta[t].abs() < params.c - 1e-9 && beta[t].abs() > 1e-9 {
                        acc += y[t] - (f[t] - bias);
                        cnt += 1.0;
                    }
                }
                if cnt > 0.0 {
                    let new_bias = acc / cnt;
                    let db = new_bias - bias;
                    bias = new_bias;
                    for ft in f.iter_mut().take(n) {
                        *ft += db;
                    }
                }
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }

        // Keep only support vectors (row-selected without re-copying
        // each sample individually).
        let mut sv_rows = Vec::new();
        let mut sbeta = Vec::new();
        for (i, &bi) in beta.iter().enumerate().take(n) {
            if bi.abs() > 1e-9 {
                sv_rows.push(i);
                sbeta.push(bi);
            }
        }
        SvrModel {
            params,
            support: x.select_rows(&sv_rows),
            beta: sbeta,
            bias,
        }
    }

    /// Predicts the target value for a feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut v = self.bias;
        for (k, &b) in self.beta.iter().enumerate() {
            v += b * rbf(self.params.gamma, self.support.row(k), x);
        }
        v
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn fits_linear_function() {
        // y = 2 x + 1 on [0, 1].
        let n = 30;
        let x = Matrix::from_fn(n, 1, |i, _| i as f64 / (n - 1) as f64);
        let y: Vec<f64> = (0..n)
            .map(|i| 2.0 * (i as f64 / (n - 1) as f64) + 1.0)
            .collect();
        let params = SvrParams {
            gamma: 1.0,
            epsilon: 0.01,
            c: 100.0,
            ..SvrParams::default()
        };
        let model = SvrModel::train(&x, &y, params);
        for (i, &yi) in y.iter().enumerate().take(n) {
            let pred = model.predict(x.row(i));
            assert!((pred - yi).abs() < 0.15, "sample {i}: pred {pred} vs {yi}");
        }
    }

    #[test]
    fn fits_smooth_nonlinear_function_with_rbf() {
        // y = sin(2 pi x) on [0, 1].
        let n = 40;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
        let x = Matrix::from_fn(n, 1, |i, _| xs[i]);
        let y: Vec<f64> = xs
            .iter()
            .map(|&v| (2.0 * std::f64::consts::PI * v).sin())
            .collect();
        let params = SvrParams {
            gamma: 20.0,
            epsilon: 0.02,
            c: 50.0,
            max_passes: 40,
            ..SvrParams::default()
        };
        let model = SvrModel::train(&x, &y, params);
        let mut worst: f64 = 0.0;
        for (i, &yi) in y.iter().enumerate().take(n) {
            worst = worst.max((model.predict(x.row(i)) - yi).abs());
        }
        assert!(worst < 0.25, "worst RBF fit error {worst}");
    }

    #[test]
    fn epsilon_tube_sparsifies_support() {
        // With a wide tube, most points need no support vector.
        let n = 30;
        let x = Matrix::from_fn(n, 1, |i, _| i as f64 / (n - 1) as f64);
        let y: Vec<f64> = (0..n).map(|_| 1.0).collect(); // constant
        let params = SvrParams {
            gamma: 1.0,
            epsilon: 0.5,
            ..SvrParams::default()
        };
        let model = SvrModel::train(&x, &y, params);
        assert!(
            model.support.rows() <= 4,
            "constant data in a wide tube needs few SVs, got {}",
            model.support.rows()
        );
        assert!((model.predict(&[0.4]) - 1.0).abs() < 0.5 + 0.05);
    }

    #[test]
    fn robust_to_moderate_noise() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64 * 4.0).collect();
        let x = Matrix::from_fn(n, 1, |i, _| xs[i]);
        let y: Vec<f64> = xs
            .iter()
            .map(|&v| 3.0 * v + (rng.gen::<f64>() - 0.5) * 0.4)
            .collect();
        let params = SvrParams {
            gamma: 1.0,
            epsilon: 0.2,
            c: 20.0,
            ..SvrParams::default()
        };
        let model = SvrModel::train(&x, &y, params);
        // Check against the clean trend, not the noisy labels.
        for k in [5usize, 20, 35, 45] {
            let pred = model.predict(&[xs[k]]);
            assert!((pred - 3.0 * xs[k]).abs() < 0.6, "pred {pred} at {}", xs[k]);
        }
    }

    #[test]
    fn multidimensional_features() {
        // y = x0 - 2 x1.
        let mut rng = StdRng::seed_from_u64(10);
        let n = 60;
        let x = Matrix::from_fn(n, 2, |_, _| rng.gen::<f64>());
        let y: Vec<f64> = (0..n).map(|i| x[(i, 0)] - 2.0 * x[(i, 1)]).collect();
        let params = SvrParams {
            gamma: 1.0,
            epsilon: 0.02,
            c: 100.0,
            ..SvrParams::default()
        };
        let model = SvrModel::train(&x, &y, params);
        let mut worst: f64 = 0.0;
        for (i, &yi) in y.iter().enumerate().take(n) {
            worst = worst.max((model.predict(x.row(i)) - yi).abs());
        }
        assert!(worst < 0.2, "worst 2-D fit error {worst}");
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn label_count_checked() {
        let x = Matrix::zeros(3, 1);
        let _ = SvrModel::train(&x, &[1.0, 2.0], SvrParams::default());
    }

    #[test]
    fn rbf_kernel_bounds() {
        assert!((rbf(0.5, &[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!(rbf(0.5, &[0.0], &[10.0]) < 1e-9);
    }
}
