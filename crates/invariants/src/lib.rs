//! # `invariants` — the workspace invariant linter
//!
//! ARCHITECTURE.md writes the system's correctness contract down;
//! this crate makes the contract *machine-checked*. It is an offline,
//! dependency-free static-analysis pass (`cargo run -p invariants`,
//! and the `invariants` CI job) built from:
//!
//! - a hand-rolled, comment/string/raw-string-aware [`lexer`] that
//!   tracks `#[cfg(test)]` / `mod tests` spans (the container has no
//!   crates.io access, so no `syn`);
//! - eight [`rules`], each encoding one ARCHITECTURE.md invariant;
//! - an inline [`waiver`] syntax
//!   (`// invariants: allow(<rule>) — <reason>`) so justified
//!   exceptions are visible at the site they cover, with the reason
//!   mandatory;
//! - `file:line` diagnostics, machine-readable JSON (`--json`), and a
//!   nonzero exit on any violation.
//!
//! See ARCHITECTURE.md § "Static analysis" for the rule ↔ invariant
//! mapping and the waiver policy.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod waiver;
pub mod workspace;

pub use report::Diagnostic;
pub use workspace::{SourceFile, Workspace};

/// The result of one lint run.
pub struct Analysis {
    /// Violations that survived waiver filtering, in file order.
    pub diagnostics: Vec<Diagnostic>,
    /// How many raw diagnostics a well-formed waiver suppressed.
    pub waived: usize,
    /// `(name, value)` pairs the doc-drift rule cross-checked.
    pub doc_constants_checked: Vec<(String, String)>,
}

/// Runs every rule over the workspace and applies the waiver filter.
pub fn analyze(ws: &Workspace) -> Analysis {
    let mut raw: Vec<Diagnostic> = Vec::new();
    rules::unsafe_confinement::check(ws, &mut raw);
    rules::determinism::check(ws, &mut raw);
    rules::panic_freedom::check(ws, &mut raw);
    rules::kernel_routing::check(ws, &mut raw);
    let doc_constants_checked = rules::doc_drift::check(ws, &mut raw);
    rules::parity_coverage::check(ws, &mut raw);
    rules::dead_pub::check(ws, &mut raw);
    rules::dead_variant::check(ws, &mut raw);

    let mut diagnostics = Vec::new();
    let mut waived = 0usize;
    for mut d in raw {
        let lexed = ws.files.iter().find(|f| f.path == d.file).map(|f| &f.lex);
        match lexed.map(|l| waiver::check(l, d.rule, d.line)) {
            Some(waiver::Waiver::Allowed) => waived += 1,
            Some(waiver::Waiver::MissingReason) => {
                d.message
                    .push_str(" (a waiver was found but carries no reason; reasons are mandatory)");
                diagnostics.push(d);
            }
            _ => diagnostics.push(d),
        }
    }
    diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Analysis {
        diagnostics,
        waived,
        doc_constants_checked,
    }
}
