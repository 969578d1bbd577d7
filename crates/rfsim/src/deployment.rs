//! Link/grid deployment geometry (the paper's Fig. 3): `M` parallel
//! links spanning the monitoring area, each with `N/M` grid locations
//! laid out along it. Grid `j` (0-based here) belongs to link
//! `j / (N/M)` and is the `j mod (N/M)`-th cell along that link.

use crate::environment::Environment;
use crate::geometry::{Point, Segment};

/// The physical layout of links and grid locations for an environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    links: Vec<Segment>,
    grid_centers: Vec<Point>,
    num_links: usize,
    locations_per_link: usize,
    grid_step: f64,
}

impl Deployment {
    /// Builds the deployment for an environment: links run horizontally
    /// (along `width_m`) at evenly spaced heights, and each link's grid
    /// cells are centred on the link line.
    ///
    /// # Panics
    ///
    /// Panics if the environment has zero links or zero locations.
    pub fn new(env: &Environment) -> Self {
        assert!(env.num_links > 0, "need at least one link");
        assert!(
            env.locations_per_link > 0,
            "need at least one location per link"
        );
        let m = env.num_links;
        let per = env.locations_per_link;
        let step = env.width_m / per as f64;
        // Links evenly spaced in y, inset by half a row spacing.
        let row_spacing = env.height_m / m as f64;
        let links: Vec<Segment> = (0..m)
            .map(|i| {
                let y = row_spacing * (i as f64 + 0.5);
                Segment::new(Point::new(0.0, y), Point::new(env.width_m, y))
            })
            .collect();
        // Grid centres along each link.
        let mut grid_centers = Vec::with_capacity(m * per);
        for link in &links {
            for u in 0..per {
                let x = step * (u as f64 + 0.5);
                grid_centers.push(Point::new(x, link.a.y));
            }
        }
        Deployment {
            links,
            grid_centers,
            num_links: m,
            locations_per_link: per,
            grid_step: step,
        }
    }

    /// Number of links `M`.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Number of grid locations per link `N/M`.
    pub fn locations_per_link(&self) -> usize {
        self.locations_per_link
    }

    /// Total number of grid locations `N`.
    pub fn num_locations(&self) -> usize {
        self.grid_centers.len()
    }

    /// Grid step (metres) along the link direction.
    pub fn grid_step(&self) -> f64 {
        self.grid_step
    }

    /// The direct-path segment of link `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn link(&self, i: usize) -> Segment {
        self.links[i]
    }

    /// All links.
    pub fn links(&self) -> &[Segment] {
        &self.links
    }

    /// Centre coordinates of grid location `j` (0-based, row-major by
    /// link as in the paper's Fig. 3).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn location(&self, j: usize) -> Point {
        self.grid_centers[j]
    }

    /// All grid-location centres.
    pub fn locations(&self) -> &[Point] {
        &self.grid_centers
    }

    /// The grid location index for link `i`, cell `u` — the paper's
    /// `j = (i-1) N/M + u` (Def. 2), 0-based. Its inverse is
    /// `i = j / N/M` (the paper's `ii = ceil(j / (N/M))`) and
    /// `u = j % N/M`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `u` is out of range.
    pub fn location_index(&self, i: usize, u: usize) -> usize {
        assert!(i < self.num_links, "link {i} out of range");
        assert!(u < self.locations_per_link, "cell {u} out of range");
        i * self.locations_per_link + u
    }

    /// Euclidean distance in metres between two grid locations.
    pub fn distance_between(&self, j1: usize, j2: usize) -> f64 {
        self.grid_centers[j1].distance(self.grid_centers[j2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Environment;

    fn office_deployment() -> Deployment {
        Deployment::new(&Environment::office())
    }

    #[test]
    fn counts_match_environment() {
        let d = office_deployment();
        assert_eq!(d.num_links(), 8);
        assert_eq!(d.locations_per_link(), 12);
        assert_eq!(d.num_locations(), 96);
    }

    #[test]
    fn links_parallel_and_evenly_spaced() {
        let d = office_deployment();
        let spacing = d.link(1).a.y - d.link(0).a.y;
        for i in 1..d.num_links() {
            let s = d.link(i).a.y - d.link(i - 1).a.y;
            assert!((s - spacing).abs() < 1e-12);
            assert_eq!(d.link(i).a.y, d.link(i).b.y, "links must be horizontal");
        }
    }

    #[test]
    fn grid_centers_on_their_link() {
        let d = office_deployment();
        for j in 0..d.num_locations() {
            let link = d.link(j / d.locations_per_link());
            assert!(
                link.distance_to(d.location(j)) < 1e-9,
                "grid {j} must be centred on its link"
            );
        }
    }

    #[test]
    fn index_mapping_roundtrip() {
        let d = office_deployment();
        for j in 0..d.num_locations() {
            let per = d.locations_per_link();
            let (i, u) = (j / per, j % per);
            assert_eq!(d.location_index(i, u), j);
        }
    }

    #[test]
    fn paper_def2_mapping() {
        // Def. 2: d_{i,u} = x_{i,j} with j = (i-1) * N/M + u (1-based).
        // 0-based: j = i * per + u.
        let d = office_deployment();
        assert_eq!(d.location_index(0, 0), 0);
        assert_eq!(d.location_index(1, 0), 12);
        assert_eq!(d.location_index(7, 11), 95);
    }

    #[test]
    fn neighbor_distance_equals_grid_step() {
        let d = office_deployment();
        let dist = d.distance_between(0, 1);
        assert!((dist - d.grid_step()).abs() < 1e-12);
        // Paper: 0.6 m between adjacent locations; office 9 m / 12 = 0.75.
        assert!((0.5..0.8).contains(&dist));
    }

    #[test]
    fn same_relative_location_aligned_across_links() {
        // Obs. 3 talks about "same relative locations" of adjacent links:
        // grid (i, u) and (i+1, u) share the same x coordinate.
        let d = office_deployment();
        for u in 0..d.locations_per_link() {
            let x0 = d.location(d.location_index(0, u)).x;
            for i in 1..d.num_links() {
                let xi = d.location(d.location_index(i, u)).x;
                assert!((x0 - xi).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn all_presets_build() {
        for env in Environment::all_presets() {
            let d = Deployment::new(&env);
            assert_eq!(d.num_locations(), env.num_locations());
        }
    }
}
