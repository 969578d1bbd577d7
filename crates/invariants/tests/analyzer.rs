//! Per-rule fixture tests (each fixture seeds exactly the violation
//! its rule exists to catch) plus the self-check that the real tree
//! lints clean. Fixtures live under `tests/fixtures/`, which the
//! workspace walker skips, so the seeded violations never fail the
//! workspace lint itself.

use invariants::rules;
use invariants::{analyze, SourceFile, Workspace};

fn ws_of(files: Vec<SourceFile>) -> Workspace {
    Workspace {
        files,
        arch_md: None,
    }
}

#[test]
fn unsafe_outside_sanctioned_homes_is_flagged() {
    let ws = ws_of(vec![SourceFile::new(
        "crates/core/src/bad_unsafe.rs",
        include_str!("fixtures/unsafe_no_safety.rs"),
    )]);
    let mut out = Vec::new();
    rules::unsafe_confinement::check(&ws, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rule, "unsafe-confinement");
    assert_eq!(out[0].line, 4);
    assert!(out[0]
        .render()
        .starts_with("crates/core/src/bad_unsafe.rs:4:"));
}

#[test]
fn hashmap_in_result_affecting_crate_is_flagged() {
    let ws = ws_of(vec![SourceFile::new(
        "crates/core/src/bad_map.rs",
        include_str!("fixtures/nondeterministic.rs"),
    )]);
    let mut out = Vec::new();
    rules::determinism::check(&ws, &mut out);
    assert!(!out.is_empty());
    assert!(out.iter().all(|d| d.rule == "determinism"));
    let lines: Vec<usize> = out.iter().map(|d| d.line).collect();
    assert!(lines.contains(&4), "the `use` line is flagged: {lines:?}");
    assert!(lines.contains(&7), "the binding line is flagged: {lines:?}");
}

#[test]
fn panic_fixture_demonstrates_waiver_semantics() {
    let ws = ws_of(vec![SourceFile::new(
        "crates/core/src/bad_panic.rs",
        include_str!("fixtures/panicky.rs"),
    )]);
    let analysis = analyze(&ws);
    let panics: Vec<_> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.rule == "panic-freedom")
        .collect();
    // `plain` and `unreasoned` stand; `reasoned` is waived.
    assert_eq!(panics.len(), 2);
    assert_eq!(panics[0].line, 4);
    assert_eq!(panics[1].line, 9);
    assert!(panics[1].message.contains("no reason"));
    assert_eq!(analysis.waived, 1);
}

#[test]
fn hand_rolled_gemm_is_flagged() {
    let ws = ws_of(vec![SourceFile::new(
        "crates/core/src/bad_gemm.rs",
        include_str!("fixtures/hand_rolled_gemm.rs"),
    )]);
    let mut out = Vec::new();
    rules::kernel_routing::check(&ws, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rule, "kernel-routing");
    assert_eq!(out[0].line, 7);
    assert!(out[0]
        .render()
        .starts_with("crates/core/src/bad_gemm.rs:7:"));
}

#[test]
fn drifted_doc_constant_is_flagged() {
    let ws = Workspace {
        files: vec![SourceFile::new(
            "crates/linalg/src/consts.rs",
            include_str!("fixtures/constants.rs"),
        )],
        arch_md: Some(include_str!("fixtures/drifted_arch.md").to_string()),
    };
    let mut out = Vec::new();
    let checked = rules::doc_drift::check(&ws, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rule, "doc-drift");
    assert_eq!(out[0].file, "ARCHITECTURE.md");
    assert_eq!(out[0].line, 3);
    assert!(out[0].message.contains("TINY_INNER_MAX"));
    // The nine agreeing citations still count as cross-checked.
    assert_eq!(checked.len(), 9);
}

#[test]
fn unreferenced_kernel_entry_point_is_flagged() {
    // The fixture masquerades as kernels.rs; with no tier files in the
    // workspace, its only `pub fn` is uncovered.
    let ws = ws_of(vec![SourceFile::new(
        "crates/linalg/src/kernels.rs",
        include_str!("fixtures/uncovered_kernel.rs"),
    )]);
    let mut out = Vec::new();
    rules::parity_coverage::check(&ws, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rule, "parity-coverage");
    assert_eq!(out[0].line, 3);
    assert!(out[0].message.contains("uncovered_kernel"));
}

#[test]
fn parity_coverage_sees_references_in_tier_files() {
    let ws = ws_of(vec![
        SourceFile::new(
            "crates/linalg/src/kernels.rs",
            include_str!("fixtures/uncovered_kernel.rs"),
        ),
        SourceFile::new(
            "crates/linalg/tests/parity.rs",
            "#[test]\nfn pins() { let _ = uncovered_kernel(&[1.0]); }\n",
        ),
    ]);
    let mut out = Vec::new();
    rules::parity_coverage::check(&ws, &mut out);
    let rendered: Vec<String> = out.iter().map(|d| d.render()).collect();
    assert!(rendered.is_empty(), "unexpected: {rendered:?}");
}

#[test]
fn the_workspace_lints_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = invariants::workspace::collect(&root).expect("workspace is readable");
    let analysis = analyze(&ws);
    let rendered: Vec<String> = analysis.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        rendered.is_empty(),
        "the tree no longer lints clean:\n{}",
        rendered.join("\n")
    );
    // The acceptance bar: doc-drift actually cross-checks constants.
    assert!(analysis.doc_constants_checked.len() >= 5);
}
