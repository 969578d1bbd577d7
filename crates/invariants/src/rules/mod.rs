//! The rule engine: each submodule encodes one ARCHITECTURE.md
//! invariant as a mechanical check. Rules emit raw diagnostics; the
//! waiver filter in [`crate::analyze`] decides what survives.
//!
//! | Rule | Invariant it pins |
//! |------|-------------------|
//! | [`unsafe_confinement`] | `unsafe` only in the linalg `simd` module and the rayon shim, always with `// SAFETY:` |
//! | [`determinism`] | no hash-ordered collections or wall-clock reads in result-affecting crates |
//! | [`panic_freedom`] | no `unwrap`/`expect`/`panic!` in non-test `core`/`linalg` library code |
//! | [`kernel_routing`] | no hand-rolled nested-loop dense multiplies outside `kernels.rs` |
//! | [`doc_drift`] | constants cited in ARCHITECTURE.md match the source |
//! | [`parity_coverage`] | every public kernel entry point is exercised by a parity-tier test |
//! | [`dead_pub`] | every library `pub fn` is referenced from another file's program code |
//! | [`dead_variant`] | every library `pub enum` variant is constructed in program code |

pub mod dead_pub;
pub mod dead_variant;
pub mod determinism;
pub mod doc_drift;
pub mod kernel_routing;
pub mod panic_freedom;
pub mod parity_coverage;
pub mod unsafe_confinement;
