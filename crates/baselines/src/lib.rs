//! Baseline systems the iUpdater paper compares against.
//!
//! - [`svr`]: an ε-support-vector regressor with RBF kernel, trained by
//!   a from-scratch SMO solver — the model class behind RASS.
//! - [`rass`]: the RASS device-free tracker (Zhang et al., TPDS'13),
//!   which regresses RSS vectors to continuous coordinates with one SVR
//!   per axis (the paper's "state-of-the-art" comparison, Figs. 23-24).
//! - [`resurvey`]: the traditional full-database resurvey updater (the
//!   paper's cost baseline, Sec. VI-C; its labor cost is
//!   `rfsim::labor::LaborModel::survey_time_s`).
//! - [`random_ref`]: random reference-location selection (the "11
//!   random locations" arm of Fig. 14).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod random_ref;
pub mod rass;
pub mod resurvey;
pub mod svr;

pub use rass::Rass;
pub use resurvey::FullResurvey;
pub use svr::{SvrModel, SvrParams};
