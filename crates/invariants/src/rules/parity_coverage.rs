//! **parity-coverage** — the parity tiers are only a contract if every
//! public kernel entry point actually flows through one. This rule
//! collects every `pub fn` in the kernel layer
//! (`linalg/src/kernels.rs`) and the operator façade
//! (`linalg/src/ops.rs`) and requires each name to be referenced from
//! at least one file under `crates/linalg/tests/` — the parity and
//! property tiers. An entry point nobody pins is an entry point whose
//! bit-exactness can silently rot.

use crate::report::Diagnostic;
use crate::workspace::Workspace;

/// Rule identifier used in diagnostics and waivers.
pub const RULE: &str = "parity-coverage";

/// Files whose `pub fn`s are kernel entry points.
const ENTRY_FILES: [&str; 2] = ["crates/linalg/src/kernels.rs", "crates/linalg/src/ops.rs"];
/// Directory whose test files count as parity-tier coverage.
const TIER_DIR: &str = "crates/linalg/tests/";

/// Runs the rule over the workspace.
pub fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let tier_files: Vec<_> = ws
        .files
        .iter()
        .filter(|f| f.path.starts_with(TIER_DIR))
        .collect();
    for file in &ws.files {
        if !ENTRY_FILES.contains(&file.path.as_str()) {
            continue;
        }
        for (name, line) in file.lex.pub_fns() {
            if file.lex.in_test(line) {
                continue;
            }
            let covered = tier_files
                .iter()
                .any(|t| t.lex.idents().any(|(ident, _)| ident == name));
            if !covered {
                out.push(Diagnostic {
                    rule: RULE,
                    file: file.path.clone(),
                    line,
                    message: format!(
                        "kernel entry point `pub fn {name}` is not referenced from any \
                         parity-tier test under {TIER_DIR}"
                    ),
                });
            }
        }
    }
}
