//! Fixture self-tests: each seeded-violation fixture under
//! `tests/fixtures/` trips exactly its intended rule, pragmas suppress
//! only with a correct rule id and justification, and determinism
//! findings downgrade to warnings in test code.
//!
//! Fixtures are never compiled (cargo only builds top-level `tests/*.rs`)
//! and the workspace walk skips `fixtures/` directories, so the seeded
//! violations cannot leak into a real lint run. Each fixture is parsed
//! with a *forced* workspace-relative path so it lands in the crate scope
//! its rule targets.

use std::path::Path;

use s4d_lint::{engine, Severity, SourceFile};

/// Parses one fixture as if it lived at `rel` inside the workspace.
fn lint_fixture_src(src: &str, rel: &str) -> engine::Report {
    let file = SourceFile::parse(Path::new(rel).to_path_buf(), rel.to_string(), src);
    engine::lint_files(&[file])
}

fn fixture_source(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lint_fixture(name: &str, rel: &str) -> engine::Report {
    lint_fixture_src(&fixture_source(name), rel)
}

/// `(fixture file, forced rel path, rule that must fire)`. The rel path
/// places each fixture in the narrowest crate scope its rule targets, so
/// a finding from any *other* rule fails the exactness assertion.
const CASES: &[(&str, &str, &str)] = &[
    ("determinism.rs", "crates/sim/src/fixture.rs", "determinism"),
    (
        "ordered_iter.rs",
        "crates/sim/src/fixture.rs",
        "ordered-iter",
    ),
    ("panic.rs", "crates/pfs/src/fixture.rs", "panic"),
    ("durability.rs", "crates/core/src/fixture.rs", "durability"),
    ("pragma.rs", "crates/sim/src/fixture.rs", "pragma"),
];

#[test]
fn each_fixture_trips_exactly_its_rule() {
    for &(name, rel, rule) in CASES {
        let report = lint_fixture(name, rel);
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(
            rules,
            vec![rule],
            "{name}: expected exactly one `{rule}` finding, got {:?}",
            report.diagnostics
        );
        assert_eq!(report.suppressed, 0, "{name}: nothing may be suppressed");
    }
}

#[test]
fn fixture_findings_are_errors_with_hints() {
    for &(name, rel, _) in CASES {
        let report = lint_fixture(name, rel);
        for d in &report.diagnostics {
            assert_eq!(d.severity, Severity::Error, "{name}");
            assert!(!d.hint.is_empty(), "{name}: every finding carries a hint");
            assert!(d.line > 0, "{name}: diagnostics are 1-based");
        }
    }
}

#[test]
fn justified_pragma_suppresses_the_panic_fixture() {
    let src = fixture_source("panic.rs").replace(
        "    xs.first().copied().unwrap()",
        "    // s4d-lint: allow(panic) — fixture-local proof for the self-test\n    \
         xs.first().copied().unwrap()",
    );
    let report = lint_fixture_src(&src, "crates/pfs/src/fixture.rs");
    assert!(
        report.diagnostics.is_empty(),
        "justified allow(panic) must suppress: {:?}",
        report.diagnostics
    );
    assert_eq!(report.suppressed, 1);
}

#[test]
fn wrong_rule_name_does_not_suppress() {
    let src = fixture_source("panic.rs").replace(
        "    xs.first().copied().unwrap()",
        "    // s4d-lint: allow(determinism) — names the wrong rule on purpose\n    \
         xs.first().copied().unwrap()",
    );
    let report = lint_fixture_src(&src, "crates/pfs/src/fixture.rs");
    let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    // The panic finding survives, and the allow is reported as unused.
    assert!(rules.contains(&"panic"), "finding must survive: {rules:?}");
    assert!(
        rules.contains(&"pragma"),
        "unused allow is reported: {rules:?}"
    );
    assert_eq!(report.suppressed, 0);
}

#[test]
fn unjustified_pragma_does_not_suppress() {
    let src = fixture_source("panic.rs").replace(
        "    xs.first().copied().unwrap()",
        "    // s4d-lint: allow(panic)\n    xs.first().copied().unwrap()",
    );
    let report = lint_fixture_src(&src, "crates/pfs/src/fixture.rs");
    let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert!(rules.contains(&"panic"), "finding must survive: {rules:?}");
    assert!(
        rules.contains(&"pragma"),
        "missing justification is reported: {rules:?}"
    );
    assert_eq!(report.suppressed, 0);
}

#[test]
fn determinism_is_report_only_in_test_code() {
    // Same violation, but the file sits in a tests/ directory: the
    // finding downgrades to a warning (satellite: report-only over test
    // dirs) — present, but not exit-code-affecting.
    let report = lint_fixture("determinism.rs", "crates/sim/tests/fixture.rs");
    assert_eq!(report.diagnostics.len(), 1);
    let d = &report.diagnostics[0];
    assert_eq!(d.rule, "determinism");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(report.errors(), 0);
    assert_eq!(report.warnings(), 1);
}

/// `lines` trivial, rule-silent code lines — oversized-module input for
/// the file-budget cases (generated, not checked in: an 800-line fixture
/// file would be pure noise).
fn const_lines(lines: usize) -> String {
    let mut src = String::new();
    for i in 0..lines {
        src.push_str(&format!("pub const LINE_{i}: usize = {i};\n"));
    }
    src
}

#[test]
fn file_budget_trips_on_an_oversized_lib_module() {
    let src = const_lines(s4d_lint::config::FILE_BUDGET_MAX_LINES + 1);
    let report = lint_fixture_src(&src, "crates/core/src/fixture.rs");
    let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert_eq!(rules, vec!["file-budget"]);
    let d = &report.diagnostics[0];
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(
        d.line as usize,
        s4d_lint::config::FILE_BUDGET_MAX_LINES + 1,
        "finding anchors at the first line past the budget"
    );
}

#[test]
fn file_budget_excludes_test_spans() {
    // 500 library lines plus 400 lines inside `#[cfg(test)]`: 900 total,
    // but only the 500 non-test lines count — under budget.
    let mut src = const_lines(500);
    src.push_str("#[cfg(test)]\nmod tests {\n");
    for i in 0..400 {
        src.push_str(&format!("    const T_{i}: usize = {i};\n"));
    }
    src.push_str("}\n");
    let report = lint_fixture_src(&src, "crates/core/src/fixture.rs");
    assert!(
        report.diagnostics.is_empty(),
        "test spans must not count: {:?}",
        report.diagnostics
    );
}

#[test]
fn file_budget_exempts_test_directories() {
    let src = const_lines(s4d_lint::config::FILE_BUDGET_MAX_LINES + 200);
    let report = lint_fixture_src(&src, "crates/core/tests/fixture.rs");
    assert!(
        report.diagnostics.is_empty(),
        "integration-test files have no budget: {:?}",
        report.diagnostics
    );
}

#[test]
fn fixtures_are_invisible_to_the_workspace_walk() {
    // The crate's own tests/ tree contains the seeded violations; the
    // directory walk must skip the fixtures dir entirely.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = engine::lint_workspace(root).expect("lint crate walks");
    let leaked: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.path.components().any(|c| c.as_os_str() == "fixtures"))
        .collect();
    assert!(
        leaked.is_empty(),
        "fixtures leaked into the walk: {leaked:?}"
    );
}
