//! Dense linear-algebra substrate for the iUpdater reproduction.
//!
//! This crate provides every matrix primitive the iUpdater algorithm
//! (ICDCS 2017) needs, implemented from scratch with no external
//! numerical dependencies:
//!
//! - a row-major dense [`Matrix`] type with the usual arithmetic,
//! - Householder and **column-pivoted** (rank-revealing) QR ([`qr`]),
//!   whose leading pivot columns are the paper's "MIC",
//! - a one-sided Jacobi SVD ([`svd`]),
//! - LU factorisation, linear solves and inversion ([`solve`]),
//! - proximal operators (singular-value thresholding, l2,1 shrinkage)
//!   ([`shrink`]),
//! - an inexact-ALM solver for the low-rank representation problem
//!   `min ||Z||* + eps ||E||_{2,1}  s.t.  X = A Z + E` ([`lrr`]),
//! - structured-matrix builders (Toeplitz, diagonal) ([`structured`]),
//! - small statistics helpers (CDFs, percentiles) ([`stats`]).
//!
//! # Example
//!
//! ```
//! use iupdater_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
//! let svd = a.svd().unwrap();
//! assert!((svd.singular_values[0] - 3.0).abs() < 1e-12);
//! assert!((svd.singular_values[1] - 2.0).abs() < 1e-12);
//! ```

// The only unsafe code permitted anywhere in the crate is the
// `std::arch` SIMD module inside `kernels` (feature-gated, runtime
// feature detection, `#[allow(unsafe_code)]` scoped to that module).
// Builds without the `simd` feature keep the blanket forbid.
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![cfg_attr(feature = "simd", deny(unsafe_code))]
#![warn(missing_docs)]

mod error;
mod matrix;
mod ops;
mod view;

pub mod kernels;

pub mod lrr;
pub mod norms;
pub mod qr;
pub mod shrink;
pub mod solve;
pub mod stats;
pub mod structured;
pub mod svd;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use view::{axpy_slice, scale_slice, MatrixView};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
