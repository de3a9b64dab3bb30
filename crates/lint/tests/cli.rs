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
            "\"chain\":",
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

/// A public `core` root calling a `sim` helper that indexes: only the
/// interprocedural `panic-path` rule can report it (report-only).
const CHAIN_CALLER: &str = "pub fn api(w: &[u32]) -> u32 {\n    pick_weight(w, 3)\n}\n";
const CHAIN_HELPER: &str = "pub fn pick_weight(w: &[u32], k: usize) -> u32 {\n    w[k]\n}\n";

#[test]
fn witness_chain_is_rendered_in_json_and_human_output() {
    let s = Scratch::new("chain", "crates/core/src/caller.rs", CHAIN_CALLER);
    std::fs::create_dir_all(s.root.join("crates/sim/src")).unwrap();
    std::fs::write(s.root.join("crates/sim/src/helper.rs"), CHAIN_HELPER).unwrap();
    let out = s.run(&["--workspace", "--format=json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "warnings exit 0: {stdout}");
    let found: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("\"rule\":\"panic-path\""))
        .collect();
    assert_eq!(found.len(), 1, "{stdout}");
    assert!(
        found[0].contains("\"chain\":[\"crates/core/src/caller.rs:"),
        "chain names the caller first: {}",
        found[0]
    );
    assert!(
        found[0].contains("helper.rs:"),
        "then the helper: {}",
        found[0]
    );
    let out = s.run(&["--workspace"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("via: "), "chain rendered: {stdout}");
    assert!(stdout.contains("fn pick_weight"), "{stdout}");
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
    assert!(ids.contains(&"panic-path") && !ids.contains(&"lock-graph"));
}

// Appease the unused-helper lint when individual tests are filtered out.
#[allow(dead_code)]
fn _keep(_: &Path) {}
