//! Figs. 11-13: the deployment layouts of the three environments
//! (office, library, hall) — rendered as ASCII maps of links, grid
//! cells and the MIC-selected reference locations.
//!
//! The paper presents these as floor-plan drawings; here the layout *is*
//! the data (`rfsim::Deployment`), so the figure renders the actual
//! geometry the experiments run on.

use std::fmt::Write as _;

use crate::report::{FigureResult, Series};
use crate::scenario::Scenario;
use iupdater_rfsim::Environment;

/// Renders one environment's deployment as an ASCII map. Each link is a
/// row of `.` cells; reference locations are `R`; the transmitter and
/// receiver ends are `T` and `X`.
fn render_layout(env: &Environment, reference_locations: &[usize]) -> String {
    let per = env.locations_per_link;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} — {:.0} m x {:.0} m, {} links x {} cells (grid {:.2} m)",
        env.kind,
        env.width_m,
        env.height_m,
        env.num_links,
        per,
        env.grid_step_m()
    );
    for i in 0..env.num_links {
        let mut row = String::from("T ");
        for u in 0..per {
            let j = i * per + u;
            row.push(if reference_locations.contains(&j) {
                'R'
            } else {
                '.'
            });
            row.push(' ');
        }
        row.push('X');
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Regenerates Figs. 11-13: one layout per environment, with the MIC
/// reference locations marked. The numeric series carry, per
/// environment, `(link count, location count, reference count)`.
pub fn run() -> FigureResult {
    let mut fig = FigureResult::new(
        "fig11-13",
        "Deployment layouts of the three environments",
        "environment",
        "counts",
    );
    for (kind, s) in Scenario::all_environments() {
        let env = s.testbed().environment().clone();
        let refs = s.updater().reference_locations();
        let layout = render_layout(&env, refs);
        for line in layout.lines() {
            fig.notes.push(line.to_string());
        }
        fig.notes.push(String::new());
        fig.series.push(Series::from_points(
            format!("{kind} (links, locations, references)"),
            vec![
                (0.0, env.num_links as f64),
                (1.0, env.num_locations() as f64),
                (2.0, refs.len() as f64),
            ],
        ));
    }
    fig.x_labels = vec!["links".into(), "locations".into(), "references".into()];
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_match_paper_counts() {
        let fig = run();
        assert_eq!(fig.series.len(), 3);
        let counts = |label_prefix: &str| {
            let s = fig
                .series
                .iter()
                .find(|s| s.label.starts_with(label_prefix))
                .expect("series");
            (
                s.points[0].1 as usize,
                s.points[1].1 as usize,
                s.points[2].1 as usize,
            )
        };
        assert_eq!(counts("office"), (8, 96, 8));
        let (lib_links, lib_locs, lib_refs) = counts("library");
        assert_eq!((lib_links, lib_locs), (6, 72));
        assert!(lib_refs <= 6);
        assert_eq!(counts("hall").0, 8);
        assert_eq!(counts("hall").1, 120);
    }

    #[test]
    fn render_marks_references_on_their_rows() {
        let env = Environment::office();
        let refs = vec![0usize, 13, 95];
        let text = render_layout(&env, &refs);
        let rows: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(rows.len(), 8);
        // Reference 0 -> link 0, cell 0; 13 -> link 1, cell 1; 95 -> link 7, cell 11.
        assert!(rows[0].starts_with("T R"));
        assert_eq!(rows[1].matches('R').count(), 1);
        assert!(rows[7].trim_end().ends_with("R X"));
        // Every row shows T ... X with `per` cells.
        for row in rows {
            assert!(row.starts_with('T') && row.trim_end().ends_with('X'));
            let cells = row.matches(['.', 'R']).count();
            assert_eq!(cells, 12);
        }
    }
}
