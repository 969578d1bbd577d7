//! **dead-pub** — the library crates carry no public API that no
//! program calls. Every non-test `pub fn` under `crates/core/src/`,
//! `crates/linalg/src/`, `crates/rfsim/src/`, `crates/baselines/src/`
//! and `crates/eval/src/` must be named as a code identifier in the
//! *program* code of some other `.rs` file: a file under a `src/` or
//! `examples/` directory (the campaign benchmark's `src/` included),
//! outside its `#[cfg(test)]` ranges. Tests and benches do not count
//! as callers, and comments are masked, so a doc link or a doc-test is
//! not a use either. A function only its own file calls should be
//! private; one only tests call should be deleted with those tests,
//! or carry a waiver that says why tests need it public.

use std::collections::BTreeSet;

use crate::report::Diagnostic;
use crate::workspace::{SourceFile, Workspace};

/// Rule identifier used in diagnostics and waivers.
pub const RULE: &str = "dead-pub";

/// Directories whose `pub fn`s must have an outside caller (and whose
/// `pub enum` variants must be built, see `dead-variant`).
pub(crate) const LIBRARY_DIRS: [&str; 5] = [
    "crates/core/src/",
    "crates/linalg/src/",
    "crates/rfsim/src/",
    "crates/baselines/src/",
    "crates/eval/src/",
];

/// Whether `path` holds program code: it sits under a `src/` or
/// `examples/` directory and under no `tests/` or `benches/` one.
pub(crate) fn is_program(path: &str) -> bool {
    let dirs: Vec<&str> = path.split('/').rev().skip(1).collect();
    let has = |names: [&str; 2]| dirs.iter().any(|d| names.contains(d));
    has(["src", "examples"]) && !has(["tests", "benches"])
}

/// The identifiers `file`'s program code names (empty for a test or
/// bench file; `#[cfg(test)]` ranges skipped).
fn program_idents(file: &SourceFile) -> BTreeSet<&str> {
    if !is_program(&file.path) {
        return BTreeSet::new();
    }
    file.lex
        .idents()
        .filter(|&(_, off)| !file.lex.in_test(file.lex.line_of(off)))
        .map(|(ident, _)| ident)
        .collect()
}

/// Runs the rule over the workspace.
pub fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let idents: Vec<BTreeSet<&str>> = ws.files.iter().map(program_idents).collect();
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
                        "`pub fn {name}` is not referenced from another file's program code; \
                         make it private or delete it"
                    ),
                });
            }
        }
    }
}
