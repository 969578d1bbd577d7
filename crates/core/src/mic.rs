//! Maximum independent column (MIC) extraction and reference-location
//! selection (Sec. I / IV-B).
//!
//! The whole fingerprint matrix can be represented exactly by a maximal
//! set of linearly independent columns; the paper selects the grid
//! locations where those columns live as the *reference locations* to
//! re-survey, so the labor cost is `rank(X) ≈ M` locations instead of
//! `N`.
//!
//! The independent columns are found by rank-revealing column-pivoted
//! QR, which is numerically robust on approximately-low-rank noisy
//! matrices where the paper's literal elementary column transformation
//! would need an absolute pivot threshold.

use iupdater_linalg::Matrix;

use crate::{CoreError, Result};

/// Which algorithm finds the independent columns. Column-pivoted QR
/// is the only one; the enum remains because the frozen campaign
/// benchmark harness passes `MicMethod::default()` to [`extract_mic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MicMethod {
    /// Rank-revealing column-pivoted QR (robust on noisy data).
    #[default]
    ColumnPivoting,
}

/// The MIC extraction result.
#[derive(Debug, Clone, PartialEq)]
pub struct MicSelection {
    /// Grid-location indices of the MIC columns, sorted ascending.
    pub locations: Vec<usize>,
    /// The MIC vectors themselves: `X_MIC` (`M x rank`), columns in the
    /// order of `locations`.
    pub vectors: Matrix,
}

/// Extracts the MIC vectors of `x` by column-pivoted QR (the only
/// [`MicMethod`]).
///
/// `rank_tol` is relative: a pivot counts while
/// `|R(k,k)| > rank_tol * |R(0,0)|`.
///
/// # Errors
///
/// - [`CoreError::InvalidArgument`] for an empty matrix or bad tolerance.
/// - [`CoreError::InvalidArgument`] if the matrix is numerically zero.
pub fn extract_mic(x: &Matrix, _method: MicMethod, rank_tol: f64) -> Result<MicSelection> {
    if x.is_empty() {
        return Err(CoreError::InvalidArgument("MIC of empty matrix"));
    }
    if rank_tol <= 0.0 || rank_tol >= 1.0 {
        return Err(CoreError::InvalidArgument("rank_tol must be in (0, 1)"));
    }
    // The one-shot leading-columns query: no factor is materialised or
    // retained (a zero matrix yields an empty list, rejected below).
    let mut locations = x.pivoted_leading_columns(rank_tol)?;
    if locations.is_empty() {
        return Err(CoreError::InvalidArgument("MIC of zero matrix"));
    }
    locations.sort_unstable();
    let vectors = x.select_cols(&locations);
    Ok(MicSelection { locations, vectors })
}

/// Outcome of [`update_selection`]: the refreshed selection plus
/// whether the previous pivot set could be certified (fast path) or a
/// full extraction ran (fallback).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MicUpdate {
    /// The refreshed selection. When `reused` is `false` this is
    /// exactly what [`extract_mic`] would return on the new matrix;
    /// when `reused` is `true` it keeps the *previous* locations,
    /// which are certified tie-equivalent to a fresh extraction —
    /// same rank, same certified subspace, possibly different indices
    /// among near-tied columns (see
    /// [`iupdater_linalg::Matrix::certify_pivot_seed`]). Keeping the
    /// previous set is deliberate: downstream reference locations stay
    /// stable instead of flickering between tie-set members.
    pub selection: MicSelection,
    /// `true` when the previous pivot set was certified against the
    /// new matrix and reused; `false` when the selection was
    /// re-extracted from scratch (the previous set no longer survives
    /// greedy pivoting even up to ties).
    pub reused: bool,
}

impl MicSelection {
    /// Number of reference locations (= numerical rank).
    pub fn rank(&self) -> usize {
        self.locations.len()
    }
}

/// Re-extracts the MIC selection from a *new* matrix (e.g. the latest
/// reconstructed fingerprint database) by re-pivoting against the
/// previous selection's `locations` (sorted ascending) — the form the
/// updater keeps across rebuilds.
///
/// Fast path: [`Matrix::certify_pivot_seed`] proves that greedy
/// column-pivoted QR on `x_new` would select these locations — or a
/// tie-equivalent set — skipping the full greedy sweep. Certification
/// uses the [`iupdater_linalg::qr::PIVOT_DRIFT_TOL`] dominance margin;
/// a decision inside the margin is admitted only when the challenger
/// is a certified tie-set member (the
/// [`iupdater_linalg::qr::PIVOT_TIE_TOL`] window plus span
/// containment), in which case the *previous* locations are kept so
/// reference sets stay stable while near-tied columns flicker. When
/// certification fails, the selection is recomputed by
/// [`extract_mic`]. Either way the result has the rank and spans the
/// certified subspace of a from-scratch extraction — the fast path
/// changes cost and tie-breaking, never the represented space.
///
/// # Errors
///
/// Same conditions as [`extract_mic`] on `(x_new, rank_tol)`, plus
/// [`CoreError::DimensionMismatch`] when `x_new` has fewer rows or
/// columns than `locations` references.
pub(crate) fn update_selection(
    locations: &[usize],
    x_new: &Matrix,
    rank_tol: f64,
) -> Result<MicUpdate> {
    if x_new.is_empty() {
        return Err(CoreError::InvalidArgument("MIC of empty matrix"));
    }
    if rank_tol <= 0.0 || rank_tol >= 1.0 {
        return Err(CoreError::InvalidArgument("rank_tol must be in (0, 1)"));
    }
    let max_loc = *locations
        .iter()
        .max()
        .ok_or(CoreError::InvalidArgument("empty MIC seed"))?;
    if max_loc >= x_new.cols() || locations.len() > x_new.rows().min(x_new.cols()) {
        return Err(CoreError::DimensionMismatch {
            context: "mic::update_selection",
            expected: format!(
                "at least {} columns and rank capacity {}",
                max_loc + 1,
                locations.len()
            ),
            got: format!("{}x{}", x_new.rows(), x_new.cols()),
        });
    }
    let certified =
        x_new.certify_pivot_seed(locations, rank_tol, iupdater_linalg::qr::PIVOT_DRIFT_TOL)?;
    if certified.is_some() {
        // Keep the previous set (sorted, as `extract_mic` reports
        // locations): under ties a fresh greedy might pick other
        // tie-set members, and keeping the incumbents is what stops
        // reference sets flickering day to day.
        let mut locations = locations.to_vec();
        locations.sort_unstable();
        let vectors = x_new.select_cols(&locations);
        return Ok(MicUpdate {
            selection: MicSelection { locations, vectors },
            reused: true,
        });
    }
    Ok(MicUpdate {
        selection: extract_mic(x_new, MicMethod::default(), rank_tol)?,
        reused: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn low_rank(m: usize, n: usize, r: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = Matrix::from_fn(m, r, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let rt = Matrix::from_fn(r, n, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        l.matmul(&rt).unwrap()
    }

    #[test]
    fn mic_count_equals_rank_exact() {
        for r in 1..=4 {
            let x = low_rank(6, 20, r, r as u64);
            let mic = extract_mic(&x, MicMethod::ColumnPivoting, 1e-9).unwrap();
            assert_eq!(mic.rank(), r);
        }
    }

    #[test]
    fn mic_spans_column_space() {
        let x = low_rank(6, 20, 3, 42);
        let mic = extract_mic(&x, MicMethod::ColumnPivoting, 1e-9).unwrap();
        // Least-squares reconstruction of X from the MIC columns must be
        // exact for an exactly-low-rank matrix.
        let gram = mic.vectors.gram();
        let rhs = mic.vectors.transpose().matmul(&x).unwrap();
        let z = gram.solve_matrix(&rhs).unwrap();
        let recon = mic.vectors.matmul(&z).unwrap();
        assert!(recon.approx_eq(&x, 1e-7));
    }

    #[test]
    fn full_row_rank_matrix_selects_m_references() {
        // The paper's case: M=8 links, rank = M, so 8 reference locations.
        let x = low_rank(8, 96, 8, 7);
        let mic = extract_mic(&x, MicMethod::ColumnPivoting, 1e-9).unwrap();
        assert_eq!(mic.rank(), 8);
        assert!(mic.locations.iter().all(|&j| j < 96));
    }

    #[test]
    fn noisy_low_rank_uses_tolerance() {
        // rank-2 structure + tiny noise: strict tolerance sees full rank,
        // loose tolerance recovers 2.
        let mut rng = StdRng::seed_from_u64(9);
        let mut x = low_rank(6, 20, 2, 5);
        for v in x.iter_mut() {
            *v += (rng.gen::<f64>() - 0.5) * 1e-6;
        }
        let strict = extract_mic(&x, MicMethod::ColumnPivoting, 1e-9).unwrap();
        assert!(strict.rank() > 2);
        let loose = extract_mic(&x, MicMethod::ColumnPivoting, 1e-3).unwrap();
        assert_eq!(loose.rank(), 2);
    }

    #[test]
    fn locations_sorted_and_vectors_match() {
        let x = low_rank(5, 15, 3, 11);
        let mic = extract_mic(&x, MicMethod::ColumnPivoting, 1e-9).unwrap();
        let mut sorted = mic.locations.clone();
        sorted.sort_unstable();
        assert_eq!(mic.locations, sorted);
        for (k, &j) in mic.locations.iter().enumerate() {
            for i in 0..5 {
                assert_eq!(mic.vectors[(i, k)], x[(i, j)]);
            }
        }
    }

    #[test]
    fn errors_on_degenerate_input() {
        assert!(extract_mic(&Matrix::zeros(0, 0), MicMethod::ColumnPivoting, 0.1).is_err());
        assert!(extract_mic(&Matrix::zeros(3, 5), MicMethod::ColumnPivoting, 0.1).is_err());
        assert!(extract_mic(&Matrix::identity(3), MicMethod::ColumnPivoting, 0.0).is_err());
        assert!(extract_mic(&Matrix::identity(3), MicMethod::ColumnPivoting, 1.0).is_err());
    }

    /// A full-rank matrix with a dominant well-separated block, whose
    /// selection is stable under small drift.
    fn separated(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let basis = Matrix::from_fn(
            m,
            m,
            |i, j| {
                if i == j {
                    9.0
                } else {
                    rng.gen::<f64>() * 0.5
                }
            },
        );
        let mix = Matrix::from_fn(m, n, |_, _| rng.gen::<f64>() * 0.3 - 0.15);
        let mut x = basis.matmul(&mix).unwrap();
        for i in 0..m {
            for j in 0..m {
                x[(i, j)] += basis[(i, j)] * 2.0;
            }
        }
        x
    }

    #[test]
    fn update_reuses_selection_under_small_drift() {
        let x = separated(6, 20, 23);
        let prev = extract_mic(&x, MicMethod::ColumnPivoting, 1e-6).unwrap();
        // Gentle multiplicative drift keeps the pivot order.
        let drifted = x.map(|v| v * 1.001 + 1e-7);
        let upd = update_selection(&prev.locations, &drifted, 1e-6).unwrap();
        assert!(upd.reused, "stable drift should certify the previous set");
        let fresh = extract_mic(&drifted, MicMethod::ColumnPivoting, 1e-6).unwrap();
        assert_eq!(
            upd.selection, fresh,
            "fast path must equal fresh extraction"
        );
    }

    #[test]
    fn update_falls_back_when_selection_changes() {
        let x = separated(6, 20, 24);
        let prev = extract_mic(&x, MicMethod::ColumnPivoting, 1e-6).unwrap();
        // Boost a previously dominated column far above everything: the
        // old set can no longer be the greedy's choice.
        let boosted_col = (0..20)
            .find(|j| !prev.locations.contains(j))
            .expect("some non-selected column");
        let mut changed = x.clone();
        for i in 0..6 {
            changed[(i, boosted_col)] = if i == 0 { 500.0 } else { (i as f64) * 40.0 };
        }
        let upd = update_selection(&prev.locations, &changed, 1e-6).unwrap();
        assert!(!upd.reused, "a changed selection must fall back");
        let fresh = extract_mic(&changed, MicMethod::ColumnPivoting, 1e-6).unwrap();
        assert_eq!(upd.selection, fresh);
        assert!(upd.selection.locations.contains(&boosted_col));
    }

    #[test]
    fn update_validates_arguments() {
        let x = separated(5, 12, 26);
        let prev = extract_mic(&x, MicMethod::ColumnPivoting, 1e-6).unwrap();
        assert!(update_selection(&prev.locations, &Matrix::zeros(0, 0), 1e-6).is_err());
        assert!(update_selection(&prev.locations, &x, 0.0).is_err());
        // Too few columns for the recorded locations.
        let narrow = x.select_cols(&[0, 1, 2]);
        assert!(update_selection(&prev.locations, &narrow, 1e-6).is_err());
    }
}
