//! Parity tier for the pivot-seed certificate: whenever
//! `certify_pivot_seed` accepts a seed, the fresh greedy selection
//! (`pivoted_leading_columns`) must agree with it on numerical rank
//! and — up to *tie-set equivalence* — on the selected leading columns
//! and the subspace they span. The certificate checks each pivot
//! decision with the [`PIVOT_DRIFT_TOL`] margin; a decision inside the
//! margin is admitted only when the challenger is a certified tie-set
//! member (within [`PIVOT_TIE_TOL`] at its first beat and in-span within
//! [`PIVOT_TIE_SPAN_TOL`]), and otherwise the seed is declined.

use iupdater_linalg::qr::{PIVOT_DRIFT_TOL, PIVOT_TIE_SPAN_TOL, PIVOT_TIE_TOL};
use iupdater_linalg::Matrix;
use proptest::prelude::*;

const RANK_TOL: f64 = 1e-7;

/// A base matrix with a strong well-separated part and correlated
/// trailing columns — rank-revealing structure like a fingerprint
/// matrix, not just white noise.
fn base_matrix_strategy() -> impl Strategy<Value = Matrix> {
    (3usize..=6, 6usize..=12, 0u64..1 << 16).prop_map(|(m, n, seed)| structured(m, n, seed))
}

fn structured(m: usize, n: usize, seed: u64) -> Matrix {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let basis = Matrix::from_fn(m, m, |i, j| {
        if i == j {
            6.0 + rng.gen::<f64>()
        } else {
            rng.gen::<f64>() * 2.0 - 1.0
        }
    });
    let mix = Matrix::from_fn(m, n, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
    basis.matmul(&mix).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    #[test]
    fn certified_seed_reproduces_fresh_selection(base in base_matrix_strategy()) {
        // Whenever the certificate accepts a seed, its answer must be
        // the fresh greedy chain; the true leading set must certify on
        // an unchanged matrix.
        let lead = base.pivoted_leading_columns(RANK_TOL).unwrap();
        prop_assume!(!lead.is_empty());
        let mut seed = lead.clone();
        seed.sort_unstable();
        let chain = base
            .certify_pivot_seed(&seed, RANK_TOL, PIVOT_DRIFT_TOL)
            .unwrap();
        prop_assert_eq!(chain, Some(lead));
    }

    #[test]
    fn certified_seed_survives_small_drift(
        base in base_matrix_strategy(),
        scale in 0.0f64..1e-6,
    ) {
        // A tiny perturbation of every entry models day-to-day drift.
        // The certificate may decline (margin), but when it accepts,
        // its chain must equal the fresh selection on the drifted data.
        let drifted = Matrix::from_fn(base.rows(), base.cols(), |i, j| {
            base[(i, j)] + scale * (((i * 31 + j * 7) % 13) as f64 - 6.0)
        });
        let fresh_lead = drifted.pivoted_leading_columns(RANK_TOL).unwrap();
        let rank = fresh_lead.len();
        prop_assume!(rank >= 1);
        let mut seed = base.pivoted_leading_columns(RANK_TOL).unwrap();
        seed.sort_unstable();
        prop_assume!(seed.len() == rank);
        if let Some(chain) = drifted
            .certify_pivot_seed(&seed, RANK_TOL, PIVOT_DRIFT_TOL)
            .unwrap()
        {
            if chain != fresh_lead {
                // Drift may leave the certificate and the fresh greedy
                // on different tie-set members; then the fresh set must
                // certify too (mutual tie-equivalence).
                let mut fl = fresh_lead.clone();
                fl.sort_unstable();
                prop_assert!(drifted
                    .certify_pivot_seed(&fl, RANK_TOL, PIVOT_DRIFT_TOL)
                    .unwrap()
                    .is_some());
            }
        }
    }

    #[test]
    fn tie_set_members_certify_interchangeably(
        base in base_matrix_strategy(),
        eps in 0.0f64..1e-10,
    ) {
        // Constructed k-way tie: the strongest pivot is boosted well
        // clear of the field, then duplicated (with an ε-perturbation)
        // into a spare column. Both duplicates are tie-set members.
        let lead0 = base.pivoted_leading_columns(RANK_TOL).unwrap();
        prop_assume!(!lead0.is_empty());
        let l0 = lead0[0];
        let mut boosted = base.clone();
        let twice: Vec<f64> = base.col(l0).iter().map(|&v| v * 2.0).collect();
        boosted.set_col(l0, &twice);
        let lead = boosted.pivoted_leading_columns(RANK_TOL).unwrap();
        let rank = lead.len();
        prop_assume!(rank >= 2);
        prop_assume!(lead[0] == l0);
        let spares: Vec<usize> =
            (0..boosted.cols()).filter(|j| !lead.contains(j)).collect();
        prop_assume!(spares.len() >= 2);
        let dup = spares[0];
        let mut tied = boosted.clone();
        let perturbed: Vec<f64> = boosted
            .col(l0)
            .iter()
            .enumerate()
            .map(|(i, &v)| v * (1.0 + eps * ((i % 5) as f64 - 2.0)))
            .collect();
        tied.set_col(dup, &perturbed);

        // (a) Every tie-set member certifies: the original seed and the
        // seed with the duplicate swapped in.
        let mut seed_a = lead.clone();
        seed_a.sort_unstable();
        let chain_a = tied
            .certify_pivot_seed(&seed_a, RANK_TOL, PIVOT_DRIFT_TOL)
            .unwrap();
        prop_assert!(chain_a.is_some(), "original seed must certify against its tie");
        let mut seed_b: Vec<usize> =
            lead.iter().map(|&j| if j == l0 { dup } else { j }).collect();
        seed_b.sort_unstable();
        prop_assert!(
            tied.certify_pivot_seed(&seed_b, RANK_TOL, PIVOT_DRIFT_TOL)
                .unwrap()
                .is_some(),
            "the tie-set member must certify in the original's place"
        );

        // (b) An out-of-class seed — dropping the boosted tie pair for
        // an unrelated column — leaves both duplicates as challengers
        // beyond the PIVOT_TIE_TOL window: it must fall back.
        let mut seed_c: Vec<usize> =
            lead.iter().map(|&j| if j == l0 { spares[1] } else { j }).collect();
        seed_c.sort_unstable();
        prop_assert!(
            tied.certify_pivot_seed(&seed_c, RANK_TOL, PIVOT_DRIFT_TOL)
                .unwrap()
                .is_none(),
            "a seed missing the whole tie-set must fall back"
        );

        // (c) Fresh-vs-certified agreement: same rank, leading columns
        // equal up to swapping within the tie-set, and the certified
        // selection spans the fresh selection to 1e-9 (relative).
        let fresh_lead = tied.pivoted_leading_columns(RANK_TOL).unwrap();
        prop_assert_eq!(fresh_lead.len(), rank);
        let mut fl = fresh_lead.clone();
        fl.sort_unstable();
        prop_assert!(
            fl == seed_a || fl == seed_b,
            "fresh selection must be a tie-set relabelling: {:?}",
            fresh_lead
        );
        // The SVD's left singular vectors are an orthonormal basis of
        // the certified columns, computed independently of the greedy.
        let q = tied.select_cols(&seed_a).svd().unwrap().u;
        let picked = tied.select_cols(&fresh_lead);
        let proj = q.matmul(&q.transpose().matmul(&picked).unwrap()).unwrap();
        let resid = (&picked - &proj).frobenius_norm();
        prop_assert!(
            resid <= 1e-9 * picked.frobenius_norm().max(1.0),
            "certified selection must span the fresh one (residual {})",
            resid
        );
    }

    #[test]
    fn tie_window_and_span_constants_are_policed(
        base in base_matrix_strategy(),
    ) {
        // The tie window is not a blank cheque: a challenger just
        // outside `(1 + PIVOT_TIE_TOL)` in squared norm must fall back.
        let lead = base.pivoted_leading_columns(RANK_TOL).unwrap();
        prop_assume!(lead.len() >= 2);
        let spare = (0..base.cols()).find(|j| !lead.contains(j));
        prop_assume!(spare.is_some());
        let dup = spare.unwrap();
        let l0 = lead[0];
        let factor = (1.0 + PIVOT_TIE_TOL).sqrt() * 1.5;
        let over: Vec<f64> = base.col(l0).iter().map(|&v| v * factor).collect();
        let mut outclassed = base.clone();
        outclassed.set_col(dup, &over);
        let mut seed = lead.clone();
        seed.sort_unstable();
        prop_assert!(
            outclassed
                .certify_pivot_seed(&seed, RANK_TOL, PIVOT_DRIFT_TOL)
                .unwrap()
                .is_none(),
            "a challenger beyond the tie window must fall back"
        );
        // Constants themselves: the span bound must stay far below the
        // squared window so tie members cannot rotate the subspace.
        prop_assert!(PIVOT_TIE_SPAN_TOL < 1e-6 * (1.0 + PIVOT_TIE_TOL));
    }
}
