//! Tier-1 static gate: the toolchain is the linter (DESIGN.md §10).
//!
//! What no type carries — panic-freedom, determinism, ordered iteration,
//! the durable-effect fence — is a lint denied in the root `Cargo.toml`'s
//! one `[workspace.lints]` table, which every library crate inherits, and
//! configured in the two `clippy.toml`s; a suppression is an
//! `#[expect(clippy::…, reason = "…")]`, which rustc itself checks for
//! being justified and used. This file runs the one command CI runs,
//! holds every crate to the one table, ratchets the suppression count and
//! holds the module size cap.

use std::path::{Path, PathBuf};

#[path = "common/cargo.rs"]
mod cargo;

/// `#[expect(clippy::…)]` and `#![expect(clippy::…)]` sites under
/// `crates/*/src`. A ratchet: lower it when a site is retired; a new site
/// needs the review its reason asks for.
const EXPECT_SITES: usize = 26;

/// Non-test code lines a library module may have: past this a seam was
/// missed (DESIGN.md §12).
const MODULE_BUDGET: usize = 800;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `(path, source)` of every `.rs` file under `dir`, recursively.
fn sources(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).expect("readable source");
            out.push((path, src));
        }
    }
}

/// Library code: `crates/*/src/**/*.rs`.
fn library_sources() -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/") {
        sources(&krate.expect("dir entry").path().join("src"), &mut out);
    }
    assert!(out.len() > 50, "walk found only {} files", out.len());
    out
}

#[test]
fn workspace_is_clippy_clean() {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("static-gate");
    let (ok, out) = cargo::cargo(root(), &target, cargo::CLIPPY);
    assert!(ok, "`cargo {}` failed:\n{out}", cargo::CLIPPY);
}

#[test]
fn every_library_crate_inherits_the_workspace_lints() {
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/") {
        let manifest = krate.expect("dir entry").path().join("Cargo.toml");
        let toml = std::fs::read_to_string(&manifest).expect("readable manifest");
        assert!(
            toml.contains("\n[lints]\nworkspace = true\n"),
            "{} does not inherit the workspace lints: add `[lints]` / `workspace = true`",
            manifest.display()
        );
    }
    // A crate-root level would fork the one table again.
    for (path, src) in library_sources() {
        for line in src.lines() {
            assert!(
                !["#![deny(", "#![warn(", "#![forbid("]
                    .iter()
                    .any(|level| line.starts_with(level)),
                "{}: `{line}` — lint levels live in `[workspace.lints]`",
                path.display()
            );
        }
    }
}

#[test]
fn expect_sites_match_the_pinned_count_and_no_pragma_comment_remains() {
    let sites: usize = library_sources()
        .iter()
        .map(|(_, src)| {
            let dense: String = src.split_whitespace().collect();
            dense.matches("#[expect(clippy::").count() + dense.matches("#![expect(clippy::").count()
        })
        .sum();
    assert_eq!(sites, EXPECT_SITES, "`#[expect(clippy::…)]` sites drifted");
    // The retired analyzer's suppression comments suppress nothing now.
    let pragma = concat!("s4d-", "lint:");
    let mut all = Vec::new();
    for dir in ["crates", "tests", "src"] {
        sources(&root().join(dir), &mut all);
    }
    for (path, src) in all {
        assert!(
            !src.contains(pragma),
            "{}: stale `{pragma}`",
            path.display()
        );
    }
}

#[test]
fn no_library_module_exceeds_the_line_budget() {
    for (path, src) in library_sources() {
        // Everything above the test module counts, `#[cfg(test)]` fields
        // and helpers included: stopping at the first `#[cfg(test)]`
        // would leave the rest of such a module uncounted.
        let trimmed: Vec<&str> = src.lines().map(str::trim).collect();
        let tests_at = trimmed
            .windows(2)
            .position(|w| w[0] == "#[cfg(test)]" && w[1].starts_with("mod "))
            .unwrap_or(trimmed.len());
        let lines = trimmed[..tests_at]
            .iter()
            .filter(|l| !l.is_empty() && !l.starts_with("//"))
            .count();
        assert!(
            lines <= MODULE_BUDGET,
            "{}: {lines} non-test code lines, budget {MODULE_BUDGET} — split the module",
            path.display()
        );
    }
}
