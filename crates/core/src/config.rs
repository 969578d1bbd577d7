//! Configuration for the updater (Algorithm 1 inputs) and the localizer.

/// How constraint-2 cross-column terms are handled during the per-column
/// closed-form updates of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CouplingMode {
    /// Exact block-coordinate descent: the linear cross terms coupling a
    /// column to its neighbours (through `X_D G`) and to adjacent links
    /// (through `H X_D`) are carried in the update. This is what the
    /// objective (Eq. 18) actually prescribes and is the default.
    #[default]
    Exact,
    /// The paper-literal Algorithm 1: the cross terms are dropped
    /// (`C4 = C5 = O` in line 21), so constraint 2 acts as a structured
    /// ridge on each column. Kept for the ablation benchmarks.
    PaperLiteral,
}

/// How the constraint terms are scaled relative to the data-fit term.
///
/// The paper notes the three constraint values "may have large
/// differences and overshadow each other" and are "scaled to the same
/// order of magnitude", without giving the scheme.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ScalingMode {
    /// Balance each constraint against the data-fit term once, at the
    /// first iteration, by the ratio of their per-element magnitudes.
    Auto,
    /// Use the configured weights as-is.
    #[default]
    Fixed,
}

/// Configuration of the self-augmented RSVD updater (Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct UpdaterConfig {
    /// Rank bound `r`. `None` = use the numerical rank of the prior
    /// fingerprint matrix (which the paper's Fig. 5 shows equals the link
    /// count `M`).
    pub rank: Option<usize>,
    /// Lagrange/ridge trade-off `λ` of Eq. (11).
    pub lambda: f64,
    /// Weight of the data-fit term `‖B ∘ (L Rᵀ) − X_B‖²`.
    pub weight_fit: f64,
    /// Weight of constraint 1 `‖L Rᵀ − X_R Z‖²`.
    pub weight_ref: f64,
    /// Weight of the continuity part of constraint 2 `‖X_D G‖²`.
    pub weight_continuity: f64,
    /// Weight of the similarity part of constraint 2 `‖H X_D‖²`.
    pub weight_similarity: f64,
    /// Iteration budget `t` of Algorithm 1.
    pub max_iter: usize,
    /// Relative objective-decrease threshold used as the stopping
    /// criterion (plays the role of `v_th`).
    pub tol: f64,
    /// Cross-term handling (see [`CouplingMode`]).
    pub coupling: CouplingMode,
    /// Constraint scaling (see [`ScalingMode`]).
    pub scaling: ScalingMode,
    /// Whether constraint 1 (reference-correlation) participates.
    pub use_constraint1: bool,
    /// Whether constraint 2 (continuity + similarity) participates.
    pub use_constraint2: bool,
    /// Seed for the random initialisation of `L` (line 1 of Algorithm 1).
    pub seed: u64,
    /// Numerical-rank tolerance used when `rank` is `None` and for MIC
    /// extraction.
    pub rank_tol: f64,
}

impl Default for UpdaterConfig {
    fn default() -> Self {
        UpdaterConfig {
            rank: None,
            lambda: 1e-3,
            weight_fit: 1.0,
            weight_ref: 1.0,
            weight_continuity: 0.25,
            weight_similarity: 0.1,
            max_iter: 60,
            tol: 1e-6,
            coupling: CouplingMode::Exact,
            scaling: ScalingMode::Fixed,
            use_constraint1: true,
            use_constraint2: true,
            seed: 0x1u64,
            rank_tol: 0.02,
        }
    }
}

impl UpdaterConfig {
    /// A configuration running only the basic RSVD of Eq. (11): no
    /// constraint 1, no constraint 2 (the "RSVD" bar of Fig. 16).
    pub fn basic_rsvd() -> Self {
        UpdaterConfig {
            use_constraint1: false,
            use_constraint2: false,
            ..UpdaterConfig::default()
        }
    }

    /// Basic RSVD plus constraint 1 only (the middle bar of Fig. 16).
    pub fn with_constraint1_only() -> Self {
        UpdaterConfig {
            use_constraint1: true,
            use_constraint2: false,
            ..UpdaterConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.lambda < 0.0 {
            return Err("lambda must be >= 0");
        }
        if self.weight_fit <= 0.0 {
            return Err("weight_fit must be > 0");
        }
        if self.weight_ref < 0.0 || self.weight_continuity < 0.0 || self.weight_similarity < 0.0 {
            return Err("constraint weights must be >= 0");
        }
        if self.max_iter == 0 {
            return Err("max_iter must be >= 1");
        }
        if self.tol <= 0.0 {
            return Err("tol must be > 0");
        }
        if self.rank_tol <= 0.0 || self.rank_tol >= 1.0 {
            return Err("rank_tol must be in (0, 1)");
        }
        if let Some(r) = self.rank {
            if r == 0 {
                return Err("rank must be >= 1 when given");
            }
        }
        Ok(())
    }
}

/// How the greedy localizer selects the next fingerprint column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AtomSelection {
    /// Minimise the residual under the binary location model of
    /// Eq. (26): `W ∈ {0,1}^N` forces unit coefficients, so the best
    /// atom is `argmin_j ‖r − x_j‖₂²`. This is the faithful reading of
    /// the paper's optimisation (27) and the default.
    #[default]
    BinaryResidual,
    /// Classic OMP atom selection: maximise the normalised correlation
    /// `|⟨r, x_j⟩| / ‖x_j‖` and fit coefficients by least squares.
    Correlation,
}

/// Configuration of the OMP localizer (Sec. V).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizerConfig {
    /// Residual threshold `ξ` of Eq. (27): matching stops once
    /// `‖X̂ Ŵ − y‖₂² < ξ` (in centred units).
    pub residual_threshold: f64,
    /// Maximum number of atoms (1 = single-target).
    pub max_atoms: usize,
    /// Subtract the per-link dictionary mean before matching. Raw RSS
    /// vectors share a large common negative level; centring makes the
    /// matching step discriminative.
    pub center: bool,
    /// Atom-selection rule (see [`AtomSelection`]).
    pub selection: AtomSelection,
}

impl Default for LocalizerConfig {
    fn default() -> Self {
        LocalizerConfig {
            residual_threshold: 1e-3,
            max_atoms: 1,
            center: true,
            selection: AtomSelection::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(UpdaterConfig::default().validate().is_ok());
    }

    #[test]
    fn presets_toggle_constraints() {
        let basic = UpdaterConfig::basic_rsvd();
        assert!(!basic.use_constraint1 && !basic.use_constraint2);
        let c1 = UpdaterConfig::with_constraint1_only();
        assert!(c1.use_constraint1 && !c1.use_constraint2);
        let full = UpdaterConfig::default();
        assert!(full.use_constraint1 && full.use_constraint2);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let bad = [
            UpdaterConfig {
                lambda: -1.0,
                ..UpdaterConfig::default()
            },
            UpdaterConfig {
                weight_fit: 0.0,
                ..UpdaterConfig::default()
            },
            UpdaterConfig {
                max_iter: 0,
                ..UpdaterConfig::default()
            },
            UpdaterConfig {
                rank: Some(0),
                ..UpdaterConfig::default()
            },
            UpdaterConfig {
                rank_tol: 1.5,
                ..UpdaterConfig::default()
            },
            UpdaterConfig {
                tol: 0.0,
                ..UpdaterConfig::default()
            },
            UpdaterConfig {
                weight_ref: -0.1,
                ..UpdaterConfig::default()
            },
        ];
        for (k, c) in bad.iter().enumerate() {
            assert!(c.validate().is_err(), "bad config {k} passed validation");
        }
    }

    #[test]
    fn coupling_default_is_exact() {
        assert_eq!(CouplingMode::default(), CouplingMode::Exact);
        assert_eq!(ScalingMode::default(), ScalingMode::Fixed);
    }

    #[test]
    fn localizer_defaults() {
        let c = LocalizerConfig::default();
        assert_eq!(c.max_atoms, 1);
        assert!(c.center);
    }
}
