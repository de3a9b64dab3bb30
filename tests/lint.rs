//! Tier-1 gate: the workspace must lint clean under `s4d-lint`.
//!
//! This is the same check CI runs via `cargo run -p s4d-lint --
//! --workspace`, wired into the ordinary test suite so a plain
//! `cargo test` refuses determinism (clocks, entropy, threads, locks),
//! panic-freedom, file-budget and durability-fence regressions — the
//! rest of the durability protocol is carried by `s4d-cache`'s types and
//! fails `cargo build` instead.
//!
//! A second test pins the run as a snapshot — an empty report, a stable
//! suppression count — so a regression that sneaks in an unreviewed
//! allow-pragma fails tier-1 too; a third pins output determinism.

use s4d_lint::Severity;

fn report() -> s4d_lint::Report {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    s4d_lint::lint_workspace(root).expect("workspace walk succeeds")
}

#[test]
fn workspace_lints_clean() {
    let report = report();
    assert!(report.files > 50, "walk found only {} files", report.files);
    let errors: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect();
    assert!(
        errors.is_empty(),
        "s4d-lint found {} error(s):\n{}",
        errors.len(),
        errors.join("\n")
    );
}

/// The pinned workspace snapshot. Update the numbers only with the
/// review that justifies the change (a new pragma needs its local
/// proof, and a raised ceiling in `crates/lint/pragma_budget.toml`).
#[test]
fn workspace_report_matches_the_pinned_snapshot() {
    let report = report();
    // No errors and no warnings: a finding fails the build or does not
    // exist.
    let findings: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        findings.is_empty(),
        "the workspace report is pinned empty:\n{}",
        findings.join("\n")
    );
    // One suppressed `panic` finding per pragma comment site: the 11 of
    // the middleware crates, the checked-arithmetic helper of
    // `sim/src/time.rs`, and `ExtentStore::write`'s two contract panics.
    assert_eq!(report.pragmas, 14, "pragma comment sites");
    assert_eq!(
        report.suppressed, report.pragmas,
        "pragma-suppression count drifted — a pragma was added or \
         retired without updating the pinned snapshot, or one site now \
         covers more than one finding"
    );
}

/// The linter's output is part of the CI contract: two runs over the
/// same tree must be byte-identical — same findings, same order, same
/// rendered JSON. The walk and the diagnostic sort are deterministic;
/// this pins that end to end.
#[test]
fn lint_output_is_byte_identical_across_runs() {
    let render = |r: &s4d_lint::Report| -> String {
        let mut out = String::new();
        for d in &r.diagnostics {
            out.push_str(&d.to_json());
            out.push('\n');
        }
        out.push_str(&format!(
            "files={} suppressed={} pragmas={}\n",
            r.files, r.suppressed, r.pragmas
        ));
        out
    };
    let (a, b) = (report(), report());
    assert_eq!(
        render(&a),
        render(&b),
        "two lint runs over the same tree diverged — nondeterminism in \
         the walk or the sort"
    );
}
