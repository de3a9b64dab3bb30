//! CLI contract tests: exit codes and the `--format=json` output.
//!
//! Exit codes are part of the tool's CI interface: 0 clean (warnings
//! allowed), 1 at least one error-severity finding, 2 usage or I/O
//! error. JSON mode emits one object per finding on stdout and keeps the
//! human summary on stderr, so the stdout stream stays machine-parseable.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_s4d-lint"))
}

/// A scratch directory holding one seeded-violation file laid out as a
/// `crates/<name>/src` tree, so crate scoping applies.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str, rel: &str, src: &str) -> Scratch {
        let root = std::env::temp_dir().join(format!("s4d-lint-cli-{tag}-{}", std::process::id()));
        let file = root.join(rel);
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        std::fs::write(&file, src).unwrap();
        Scratch { root }
    }

    fn run(&self, args: &[&str]) -> Output {
        bin()
            .current_dir(&self.root)
            .args(args)
            .output()
            .expect("spawn s4d-lint")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn exit_zero_on_a_clean_tree() {
    let s = Scratch::new(
        "clean",
        "crates/core/src/ok.rs",
        "pub fn fine(x: u32) -> u32 { x + 1 }\n",
    );
    let out = s.run(&["--workspace"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn exit_one_on_an_error_finding() {
    let s = Scratch::new(
        "dirty",
        "crates/core/src/bad.rs",
        "pub fn bad(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let out = s.run(&["--workspace"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[panic]"), "{stdout}");
}

#[test]
fn exit_two_on_usage_and_io_errors() {
    let s = Scratch::new("usage", "crates/core/src/ok.rs", "pub fn fine() {}\n");
    let out = s.run(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2), "unknown option: {out:?}");
    let out = bin()
        .current_dir(std::env::temp_dir())
        .arg("no/such/file.rs")
        .output()
        .expect("spawn s4d-lint");
    assert_eq!(out.status.code(), Some(2), "unreadable path: {out:?}");
}

#[test]
fn json_format_emits_one_parseable_object_per_finding() {
    let s = Scratch::new(
        "json",
        "crates/core/src/bad.rs",
        "pub fn bad(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let out = s.run(&["--workspace", "--format=json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "at least one finding: {stdout}");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "each stdout line is one JSON object: {line}"
        );
        for key in [
            "\"file\":",
            "\"line\":",
            "\"rule\":",
            "\"severity\":",
            "\"message\":",
            "\"hint\":",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
    // The human summary moves to stderr in JSON mode.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("s4d-lint:"), "summary on stderr: {stderr}");
    assert!(
        !stdout.lines().any(|l| l.starts_with("s4d-lint:")),
        "stdout stays pure JSON (no summary line)"
    );
}

#[test]
fn check_budget_fails_on_a_warning_or_a_pragma_past_the_ceiling() {
    // A wall-clock read in test code only warns: exit 0 without the
    // gate, 1 with it — no warning is carried.
    let s = Scratch::new(
        "budget",
        "crates/sim/tests/timed.rs",
        "fn t() { let _ = std::time::Instant::now(); }\n",
    );
    let budget = s.root.join("crates/lint/pragma_budget.toml");
    std::fs::create_dir_all(budget.parent().unwrap()).unwrap();
    std::fs::write(&budget, "allow_pragmas = 0\n").unwrap();
    assert_eq!(s.run(&["--workspace"]).status.code(), Some(0));
    let out = s.run(&["--workspace", "--check-budget"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("1 warnings"));
    // The same finding under a justified pragma: clean, but one pragma
    // site over a ceiling of zero.
    std::fs::write(
        s.root.join("crates/sim/tests/timed.rs"),
        "// s4d-lint: allow(determinism) — measures the harness itself\n\
         fn t() { let _ = std::time::Instant::now(); }\n",
    )
    .unwrap();
    let out = s.run(&["--workspace", "--check-budget"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("exceed the budget of 0"));
    std::fs::write(&budget, "allow_pragmas = 1\n").unwrap();
    assert_eq!(
        s.run(&["--workspace", "--check-budget"]).status.code(),
        Some(0)
    );
}

#[test]
fn list_rules_prints_the_rule_table() {
    let out = bin().arg("--list-rules").output().expect("spawn s4d-lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let table: Vec<&str> = s4d_lint::config::RULES.iter().map(|r| r.id).collect();
    assert_eq!(ids, table, "one line per RULES entry, id first: {stdout}");
    assert_eq!(ids.len(), 6);
}

// Appease the unused-helper lint when individual tests are filtered out.
#[allow(dead_code)]
fn _keep(_: &Path) {}
