//! Target trajectory simulation: a walking target producing a sequence
//! of online measurements, the input for device-free *tracking* (the
//! application domain of the paper's RASS comparison system).

use iupdater_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::collector::Testbed;
use crate::deployment::Deployment;

/// A walking trajectory expressed as a sequence of grid cells (one per
/// measurement epoch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trajectory {
    cells: Vec<usize>,
}

impl Trajectory {
    /// A random walk over the grid: at each step the target stays or
    /// moves to a 4-neighbour cell (up/down along links or sideways to
    /// the adjacent link's same relative cell), never leaving the grid.
    pub fn random_walk(deployment: &Deployment, start: usize, steps: usize, seed: u64) -> Self {
        assert!(
            start < deployment.num_locations(),
            "start cell out of range"
        );
        let per = deployment.locations_per_link();
        let m = deployment.num_links();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cells = Vec::with_capacity(steps + 1);
        let mut cur = start;
        cells.push(cur);
        for _ in 0..steps {
            let link = cur / per;
            let cell = cur % per;
            let mut options = vec![cur];
            if cell > 0 {
                options.push(cur - 1);
            }
            if cell + 1 < per {
                options.push(cur + 1);
            }
            if link > 0 {
                options.push(cur - per);
            }
            if link + 1 < m {
                options.push(cur + per);
            }
            cur = options[rng.gen_range(0..options.len())];
            cells.push(cur);
        }
        Trajectory { cells }
    }

    /// The visited cells.
    pub fn cells(&self) -> &[usize] {
        &self.cells
    }

    /// Number of epochs.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always `false` (a random walk visits at least its start cell).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Generates the per-epoch online measurement vectors on a testbed
    /// at day offset `day`, one epoch per row (`epochs x M`).
    pub fn measurements(&self, testbed: &Testbed, day: f64, salt: u64) -> Matrix {
        let m = testbed.deployment().num_links();
        let mut out = Matrix::zeros(self.cells.len(), m);
        for (k, &j) in self.cells.iter().enumerate() {
            let y = testbed.online_measurement(j, day, salt.wrapping_add(k as u64 * 131));
            out.set_row(k, &y);
        }
        out
    }

    /// Total path length in metres.
    pub fn path_length_m(&self, deployment: &Deployment) -> f64 {
        self.cells
            .windows(2)
            .map(|w| deployment.distance_between(w[0], w[1]))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Environment;

    fn deployment() -> Deployment {
        Deployment::new(&Environment::office())
    }

    #[test]
    fn random_walk_stays_on_grid_and_moves_one_cell() {
        let d = deployment();
        let t = Trajectory::random_walk(&d, 40, 200, 7);
        assert_eq!(t.len(), 201);
        for w in t.cells().windows(2) {
            assert!(w[0] < d.num_locations());
            let dist = d.distance_between(w[0], w[1]);
            assert!(
                dist < 1.6,
                "steps must be to neighbouring cells, got {dist} m"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let d = deployment();
        assert_eq!(
            Trajectory::random_walk(&d, 0, 50, 3),
            Trajectory::random_walk(&d, 0, 50, 3)
        );
        assert_ne!(
            Trajectory::random_walk(&d, 0, 50, 3),
            Trajectory::random_walk(&d, 0, 50, 4)
        );
    }

    #[test]
    fn measurements_shape() {
        let env = Environment::office();
        let t = Testbed::new(env, 5);
        let traj = Trajectory {
            cells: vec![1, 2, 3],
        };
        let ms = traj.measurements(&t, 0.0, 9);
        assert_eq!(ms.shape(), (3, 8));
    }

    #[test]
    fn path_length_accumulates() {
        let d = deployment();
        let traj = Trajectory {
            cells: vec![0, 1, 2],
        };
        let expected = 2.0 * d.grid_step();
        assert!((traj.path_length_m(&d) - expected).abs() < 1e-12);
    }
}
