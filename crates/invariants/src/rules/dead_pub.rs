//! **dead-pub** — the library crates carry no public API that nothing
//! calls. Every non-test `pub fn` under `crates/core/src/`,
//! `crates/linalg/src/`, `crates/rfsim/src/`, `crates/baselines/src/`
//! and `crates/eval/src/` must be named as a code
//! identifier in some *other* `.rs` file of the walk (tests, examples,
//! benches and the campaign benchmark count as callers). Comments are masked, so a doc
//! link or a doc-test is not a use. A function only its own file calls
//! should be private; one nobody calls should be deleted.

use std::collections::BTreeSet;

use crate::report::Diagnostic;
use crate::workspace::Workspace;

/// Rule identifier used in diagnostics and waivers.
pub const RULE: &str = "dead-pub";

/// Directories whose `pub fn`s must have an outside caller.
const LIBRARY_DIRS: [&str; 5] = [
    "crates/core/src/",
    "crates/linalg/src/",
    "crates/rfsim/src/",
    "crates/baselines/src/",
    "crates/eval/src/",
];

/// Runs the rule over the workspace.
pub fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let idents: Vec<BTreeSet<&str>> = ws
        .files
        .iter()
        .map(|f| f.lex.idents().map(|(ident, _)| ident).collect())
        .collect();
    for (k, file) in ws.files.iter().enumerate() {
        if !LIBRARY_DIRS.iter().any(|d| file.path.starts_with(d)) {
            continue;
        }
        for (name, line) in file.lex.pub_fns() {
            if file.lex.in_test(line) {
                continue;
            }
            let used = idents
                .iter()
                .enumerate()
                .any(|(j, set)| j != k && set.contains(name));
            if !used {
                out.push(Diagnostic {
                    rule: RULE,
                    file: file.path.clone(),
                    line,
                    message: format!(
                        "`pub fn {name}` is not referenced from any other file; \
                         make it private or delete it"
                    ),
                });
            }
        }
    }
}
