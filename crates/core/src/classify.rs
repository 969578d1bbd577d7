//! Cell classification and the index matrix `B` (Eq. 8 / Fig. 4).
//!
//! Each fingerprint cell `(i, j)` falls into one of three classes
//! depending on where location `j` sits relative to link `i`'s first
//! Fresnel zone: large decrease (target blocks the direct path), small
//! decrease (inside the FFZ), or no decrease (outside the FFZ). The
//! no-decrease cells can be measured *without* the target being present
//! and are therefore "free" — they form the known entries `X_B` with
//! mask `B` (`b_ij = 1` iff no-decrease).

use iupdater_linalg::Matrix;
use iupdater_rfsim::target::ObstructionEffect;
use iupdater_rfsim::Testbed;

/// Classification of every fingerprint cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellClassification {
    effects: Vec<ObstructionEffect>,
    rows: usize,
    cols: usize,
}

impl CellClassification {
    /// Classifies every cell of the testbed's fingerprint geometry.
    pub fn from_testbed(testbed: &Testbed) -> Self {
        let rows = testbed.deployment().num_links();
        let cols = testbed.deployment().num_locations();
        let effects = (0..rows)
            .flat_map(|i| (0..cols).map(move |j| (i, j)))
            .map(|(i, j)| testbed.obstruction_effect(i, j))
            .collect();
        CellClassification {
            effects,
            rows,
            cols,
        }
    }

    /// The effect class of cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn effect(&self, i: usize, j: usize) -> ObstructionEffect {
        assert!(i < self.rows && j < self.cols, "cell index out of bounds");
        self.effects[i * self.cols + j]
    }

    /// The index matrix `B` of Eq. (8): `b_ij = 1` for no-decrease cells
    /// (known without labor), `0` otherwise.
    pub fn index_matrix(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            if self.effect(i, j) == ObstructionEffect::NoDecrease {
                1.0
            } else {
                0.0
            }
        })
    }

    /// Number of links (rows).
    pub fn num_links(&self) -> usize {
        self.rows
    }

    /// Number of locations (cols).
    pub fn num_locations(&self) -> usize {
        self.cols
    }
}

/// Shortcut: the index matrix `B` for a testbed.
pub fn index_matrix(testbed: &Testbed) -> Matrix {
    CellClassification::from_testbed(testbed).index_matrix()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iupdater_rfsim::Environment;

    #[test]
    fn own_row_cells_are_large_decrease() {
        let t = Testbed::new(Environment::office(), 1);
        let c = CellClassification::from_testbed(&t);
        let d = t.deployment();
        for i in 0..d.num_links() {
            for u in 0..d.locations_per_link() {
                assert_eq!(
                    c.effect(i, d.location_index(i, u)),
                    ObstructionEffect::LargeDecrease,
                    "cell on link {i}'s own row must be large-decrease"
                );
            }
        }
    }

    #[test]
    fn distant_row_cells_are_no_decrease() {
        let t = Testbed::new(Environment::office(), 1);
        let c = CellClassification::from_testbed(&t);
        let d = t.deployment();
        // Link 0 vs a target on link 7's row: far outside the FFZ.
        assert_eq!(
            c.effect(0, d.location_index(7, 5)),
            ObstructionEffect::NoDecrease
        );
    }

    #[test]
    fn index_matrix_is_binary_and_consistent() {
        let t = Testbed::new(Environment::library(), 2);
        let c = CellClassification::from_testbed(&t);
        let b = c.index_matrix();
        for i in 0..b.rows() {
            for j in 0..b.cols() {
                let v = b[(i, j)];
                assert!(v == 0.0 || v == 1.0);
                assert_eq!(v == 1.0, c.effect(i, j) == ObstructionEffect::NoDecrease);
            }
        }
    }

    #[test]
    fn majority_of_cells_are_free() {
        // With parallel links spaced >1 m apart, most (link, location)
        // pairs are unaffected — that is the economic premise of Eq. (8).
        let t = Testbed::new(Environment::office(), 3);
        let b = CellClassification::from_testbed(&t).index_matrix();
        let f = b.mean();
        assert!(f > 0.5, "free fraction {f} too small");
        assert!(f < 1.0, "some cells must be affected");
    }
}
