//! The engine: workspace walk, per-file rule dispatch, pragma
//! suppression, and the final report.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use crate::config;
use crate::diag::{Diagnostic, Severity};
use crate::pragma::{pragmas, Pragma};
use crate::rules;
use crate::source::SourceFile;

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving findings (pragma-suppressed ones removed), sorted by
    /// `(file, line, rule, message)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of findings suppressed by justified pragmas.
    pub suppressed: usize,
    /// Number of files checked.
    pub files: usize,
    /// Number of pragma comment sites across the linted files (for the
    /// budget gate — each site may suppress more than one finding).
    pub pragmas: usize,
}

impl Report {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.len() - self.errors()
    }
}

/// Lints a parsed file set: the rules per file, then pragma suppression
/// and hygiene per file.
pub fn lint_files(files: &[SourceFile]) -> Report {
    let mut found = Vec::new();
    for file in files {
        rules::check_file(file, &mut found);
    }
    let mut report = Report {
        files: files.len(),
        ..Report::default()
    };
    let by_path: BTreeMap<&Path, usize> = files
        .iter()
        .enumerate()
        .map(|(k, f)| (f.path.as_path(), k))
        .collect();
    let prags: Vec<Vec<Pragma>> = files.iter().map(pragmas).collect();
    report.pragmas = prags.iter().map(Vec::len).sum();
    for d in found {
        let file_prags = by_path
            .get(d.path.as_path())
            .map(|&k| prags[k].as_slice())
            .unwrap_or(&[]);
        if let Some(p) = file_prags.iter().find(|p| p.suppresses(d.rule, d.line)) {
            p.used.set(true);
            report.suppressed += 1;
        } else {
            report.diagnostics.push(d);
        }
    }
    for (file, file_prags) in files.iter().zip(&prags) {
        pragma_hygiene(file, file_prags, &mut report);
    }
    report.diagnostics.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    report
}

/// The `pragma` hint, naming every id in [`config::RULES`] — rendered
/// from the table so it cannot drift from it.
fn pragma_hint() -> &'static str {
    static HINT: OnceLock<String> = OnceLock::new();
    HINT.get_or_init(|| {
        let ids: Vec<&str> = config::RULES.iter().map(|r| r.id).collect();
        format!(
            "format: `// s4d-lint: allow(<rule>) — <justification>`; rules: {}",
            ids.join(", ")
        )
    })
}

/// `pragma`: malformed pragmas, unknown rule ids, missing justification,
/// and unused allows. A misspelled or retired rule id must never silently
/// suppress — it is reported instead.
fn pragma_hygiene(file: &SourceFile, prags: &[Pragma], report: &mut Report) {
    for p in prags {
        let mut fail = |message: String, severity: Severity| {
            report.diagnostics.push(Diagnostic {
                path: file.path.clone(),
                line: p.line,
                rule: "pragma",
                message,
                hint: pragma_hint(),
                severity,
            });
        };
        if !p.well_formed {
            fail(
                "malformed s4d-lint pragma (expected `allow(<rule, …>)`)".to_string(),
                Severity::Error,
            );
            continue;
        }
        for r in &p.rules {
            if !config::is_rule(r) {
                fail(
                    format!("allow names unknown rule `{r}` — nothing is suppressed"),
                    Severity::Error,
                );
            }
        }
        if !p.justified {
            fail(
                "allow pragma without a justification".to_string(),
                Severity::Error,
            );
        } else if !p.used.get() && p.rules.iter().all(|r| config::is_rule(r)) {
            fail(
                format!(
                    "unused allow pragma for `{}` (nothing on the covered lines trips it)",
                    p.rules.join(", ")
                ),
                Severity::Warning,
            );
        }
    }
}

/// Recursively collects `.rs` files under `dir`, skipping fixture
/// directories (they hold seeded violations) and anything unreadable.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "fixtures" || name == "target" || name == "vendor" {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The workspace directories the linter covers.
const WORKSPACE_ROOTS: &[&str] = &["src", "tests", "examples", "crates"];

/// The `.rs` files a workspace lint of `root` covers, in walk order.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for r in WORKSPACE_ROOTS {
        collect_rs(&root.join(r), &mut files);
    }
    if files.is_empty() {
        return Err(format!(
            "no .rs files under {} — run from the workspace root or pass paths",
            root.display()
        ));
    }
    Ok(files)
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    lint_paths(root, &workspace_files(root)?)
}

/// Lints an explicit set of files (workspace-relative scoping is derived
/// from each path's prefix relative to `root`).
pub fn lint_paths(root: &Path, paths: &[PathBuf]) -> Result<Report, String> {
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        files.push(SourceFile::parse(path.clone(), rel, &src));
    }
    Ok(lint_files(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(src: &str) -> Report {
        let rel = "crates/sim/src/x.rs";
        lint_files(&[SourceFile::parse(PathBuf::from(rel), rel.into(), src)])
    }

    #[test]
    fn pragma_hint_names_every_rule_and_retired_ids_are_unknown() {
        for rule in config::RULES {
            assert!(pragma_hint().contains(rule.id), "hint lacks `{}`", rule.id);
        }
        // A retired id suppresses nothing and is reported as unknown, with
        // the live ids in the hint.
        for retired in ["shard-affinity", "typestate", "lock-graph", "retry"] {
            let report = lint_one(&format!(
                "// s4d-lint: allow({retired}) — was valid once\npub fn f() {{}}\n"
            ));
            assert_eq!(report.suppressed, 0);
            let d = &report.diagnostics[0];
            assert_eq!((d.rule, d.severity), ("pragma", Severity::Error));
            assert!(d.message.contains("unknown rule"), "{}", d.message);
            assert!(d.hint.contains("file-budget") && !d.hint.contains(retired));
        }
    }
}
