//! Fixture: source-of-truth constants for the doc-drift test.

pub const TINY_INNER_MAX: usize = 16;
pub const BINARY_LANES: usize = 8;
pub const TILE_ATOMS: usize = 48;
pub const BT_TILE: usize = 32;
pub const PIVOT_DRIFT_TOL: f64 = 1e-8;
pub const PIVOT_TIE_TOL: f64 = 1.0;
pub const PIVOT_TIE_SPAN_TOL: f64 = 1e-12;
pub const QUERY_CHOL_TOL: f64 = 1e-8;
pub const GATEWAY_CHANNEL_CAPACITY: usize = 64;
pub const RSS_DBM_RANGE: std::ops::RangeInclusive<f64> = -150.0..=30.0;
