//! Experiment harness for the iUpdater reproduction.
//!
//! One module per figure/table of the paper's evaluation (Sec. II and
//! VI). Each module exposes a `run(...)` function returning a
//! [`report::FigureResult`] — the same series the paper plots — plus
//! tests asserting the paper's qualitative shape (who wins, by roughly
//! what factor, where crossovers fall).
//!
//! The `experiments` binary runs any or all of them and prints
//! markdown/CSV. [`drill`] is the one serving drill (gateway ingest,
//! cycle, oracle-checked query storm per published epoch) that
//! `ext-qps` and the `iupdater serve` command both run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod scenario;

pub mod ablations;
pub mod drill;
pub mod ext_durability;
pub mod ext_fleet;
pub mod ext_qps;
pub mod ext_samples;
pub mod ext_scale;
pub mod ext_tracking;
pub mod fig01_short_term;
pub mod fig02_long_term;
pub mod fig05_singular_values;
pub mod fig06_difference_stability;
pub mod fig08_nlc_cdf;
pub mod fig09_als_cdf;
pub mod fig11_13_layouts;
pub mod fig14_reference_sets;
pub mod fig15_reference_sets_time;
pub mod fig16_constraints;
pub mod fig17_variation_robustness;
pub mod fig18_recon_cdf;
pub mod fig19_environments;
pub mod fig20_labor_scaling;
pub mod fig21_localization_cdf;
pub mod fig22_localization_envs;
pub mod fig23_rass_cdf;
pub mod fig24_rass_time;
pub mod table_labor;

pub use report::{FigureResult, Series};
pub use scenario::Scenario;

/// One registered experiment: `(id, description, runner)`.
pub type Experiment = (&'static str, &'static str, fn() -> FigureResult);

/// Every experiment in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        (
            "fig1",
            "Short-term RSS variation trace",
            fig01_short_term::run as fn() -> FigureResult,
        ),
        (
            "fig2",
            "Long-term RSS drift histograms",
            fig02_long_term::run,
        ),
        (
            "fig5",
            "Normalised singular values (approx. low rank)",
            fig05_singular_values::run,
        ),
        (
            "fig6",
            "Stability of RSS differences",
            fig06_difference_stability::run,
        ),
        (
            "fig8",
            "CDF of neighbouring-location continuity (NLC)",
            fig08_nlc_cdf::run,
        ),
        (
            "fig9",
            "CDF of adjacent-link similarity (ALS)",
            fig09_als_cdf::run,
        ),
        (
            "fig11-13",
            "Deployment layouts of the three environments",
            fig11_13_layouts::run,
        ),
        (
            "fig14",
            "Reconstruction error vs reference-set choice (CDF)",
            fig14_reference_sets::run,
        ),
        (
            "fig15",
            "Reconstruction error vs reference sets over time",
            fig15_reference_sets_time::run,
        ),
        (
            "fig16",
            "Effect of constraints 1 and 2",
            fig16_constraints::run,
        ),
        (
            "fig17",
            "Constraint 2 vs measured fingerprints",
            fig17_variation_robustness::run,
        ),
        (
            "fig18",
            "Reconstruction error CDFs over time",
            fig18_recon_cdf::run,
        ),
        (
            "fig19",
            "Reconstruction error per environment",
            fig19_environments::run,
        ),
        (
            "fig20",
            "Update labor cost vs area scale",
            fig20_labor_scaling::run,
        ),
        (
            "fig21",
            "Localization error CDFs at 45 days",
            fig21_localization_cdf::run,
        ),
        (
            "fig22",
            "Localization error per environment over time",
            fig22_localization_envs::run,
        ),
        (
            "fig23",
            "Comparison with RASS (CDF at 45 days)",
            fig23_rass_cdf::run,
        ),
        (
            "fig24",
            "Comparison with RASS over time",
            fig24_rass_time::run,
        ),
        (
            "table-labor",
            "Labor cost accounting (Sec. VI-C)",
            table_labor::run,
        ),
        (
            "ablations",
            "Design-choice ablations (this repo)",
            ablations::run,
        ),
        (
            "ext-tracking",
            "Tracking extension: Viterbi vs independent (this repo)",
            ext_tracking::run,
        ),
        (
            "ext-scale",
            "Scaling extension: accuracy/compute vs area (this repo)",
            ext_scale::run,
        ),
        (
            "ext-samples",
            "Samples-per-reference sweep (this repo)",
            ext_samples::run,
        ),
        (
            "ext-fleet",
            "Batched update service across the fleet (this repo)",
            ext_fleet::run,
        ),
        (
            "ext-fleet-rebase",
            "Rebase-heavy fleet campaign on the warm-start path (this repo)",
            ext_fleet::run_rebase_heavy,
        ),
        (
            "ext-durability",
            "Durable fleet: kill/restore parity mid-campaign (this repo)",
            ext_durability::run,
        ),
        (
            "ext-qps",
            "Heavy-traffic localization day through the batched read path (this repo)",
            ext_qps::run,
        ),
    ]
}
