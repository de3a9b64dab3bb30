//! `file-budget`: no library module may exceed the non-test line budget.
//!
//! The component-architecture decomposition (DESIGN.md §12) replaced two
//! god-objects with small modules behind narrow interfaces; this rule
//! keeps them small. Only lines carrying code tokens count, and lines
//! inside `#[cfg(test)]` / `#[test]` spans are excluded — inline unit
//! tests never push a module over the budget, and files under `tests/`,
//! `examples/`, or `benches/` are exempt entirely.

use crate::config;
use crate::diag::{Diagnostic, Severity};
use crate::source::{FileKind, SourceFile};

/// Flags library files whose non-test code-line count exceeds
/// [`config::FILE_BUDGET_MAX_LINES`].
pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib {
        return;
    }
    let over_budget: Vec<u32> = file
        .code_lines
        .iter()
        .copied()
        .filter(|&l| !file.in_test_span(l))
        .skip(config::FILE_BUDGET_MAX_LINES)
        .collect();
    if over_budget.is_empty() {
        return;
    }
    // Anchor at the first line past the budget so the finding points at
    // where the module outgrew its seam, not at line 1.
    let line = over_budget[0];
    let count = config::FILE_BUDGET_MAX_LINES + over_budget.len();
    out.push(Diagnostic {
        path: file.path.clone(),
        line,
        rule: "file-budget",
        message: format!(
            "module has {count} non-test code lines — the budget is {} \
             (DESIGN.md §12)",
            config::FILE_BUDGET_MAX_LINES
        ),
        hint: "split the module along a component seam (pipeline stage, \
               durability engine, background scheduler) instead of growing \
               it; `#[cfg(test)]` spans do not count toward the budget",
        severity: Severity::Error,
    });
}
