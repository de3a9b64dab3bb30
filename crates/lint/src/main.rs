//! `s4d-lint` CLI. Exit codes: 0 clean, 1 violations, 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use s4d_lint::engine;

const USAGE: &str = "\
s4d-lint — static analysis for the S4D-Cache workspace

USAGE:
    s4d-lint --workspace            lint the whole workspace (from its root)
    s4d-lint <path>…                lint specific files or directories
    s4d-lint --format=json          one JSON object per finding on stdout
                                    (summary goes to stderr)
    s4d-lint --list-rules           print the rule catalogue
    s4d-lint --check-budget         also enforce crates/lint/pragma_budget.toml
                                    (the pragma-site ceiling) and fail on
                                    any warning

EXIT CODES:
    0  clean (warnings allowed)
    1  at least one error-severity finding
    2  usage or I/O error

A finding is suppressed only by a justified pragma on or just above its
line:  // s4d-lint: allow(<rule>) — <justification>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list-rules") {
        for r in s4d_lint::config::RULES {
            println!("{:<13} {}", r.id, r.guards);
        }
        return ExitCode::SUCCESS;
    }
    let mut json = false;
    let mut check_budget = false;
    let mut unknown = Vec::new();
    for a in args.iter().filter(|a| a.starts_with("--")) {
        match a.as_str() {
            "--workspace" => {}
            "--format=json" => json = true,
            "--format=human" => json = false,
            "--check-budget" => check_budget = true,
            _ => unknown.push(a),
        }
    }
    if !unknown.is_empty() {
        eprintln!("unknown option {:?}\n\n{USAGE}", unknown.first());
        return ExitCode::from(2);
    }
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let paths: Vec<PathBuf> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .collect();
    let result = if paths.is_empty() {
        engine::lint_workspace(&root)
    } else {
        let mut files = Vec::new();
        for p in &paths {
            if p.is_dir() {
                collect(p, &mut files);
            } else {
                files.push(p.clone());
            }
        }
        engine::lint_paths(&root, &files)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("s4d-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let summary = format!(
        "s4d-lint: {} files, {} errors, {} warnings, {} suppressed by pragma",
        report.files,
        report.errors(),
        report.warnings(),
        report.suppressed
    );
    if json {
        // Machine output stays parseable: diagnostics on stdout (one JSON
        // object per line), the human summary on stderr.
        for d in &report.diagnostics {
            println!("{}", d.to_json());
        }
        eprintln!("{summary}");
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        println!("{summary}");
    }
    if check_budget {
        match budget_gate(&root, &report) {
            Ok(msg) => eprintln!("{msg}"),
            Err(e) => {
                eprintln!("s4d-lint: budget gate FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.errors() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Enforces `crates/lint/pragma_budget.toml`: the number of pragma sites
/// may only ratchet down, and no warning survives. The file is a flat
/// `key = value` list (hand-parsed — the workspace is dependency-free).
fn budget_gate(root: &std::path::Path, report: &engine::Report) -> Result<String, String> {
    let path = root.join("crates/lint/pragma_budget.toml");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut allow_pragmas: Option<usize> = None;
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let value: usize = value
            .trim()
            .parse()
            .map_err(|_| format!("bad value for `{}` in {}", key.trim(), path.display()))?;
        match key.trim() {
            "allow_pragmas" => allow_pragmas = Some(value),
            other => return Err(format!("unknown key `{other}` in {}", path.display())),
        }
    }
    let allow = allow_pragmas.ok_or("pragma_budget.toml is missing `allow_pragmas`")?;
    if report.pragmas > allow {
        return Err(format!(
            "{} pragma sites exceed the budget of {allow} — remove a pragma (make the \
             code provably safe) or, with review, raise the ceiling in {}",
            report.pragmas,
            path.display()
        ));
    }
    // No warning is pinned: what is left at warning severity (a clock
    // in test code, an unused allow) gets fixed, not carried.
    if report.warnings() > 0 {
        return Err(format!(
            "{} warnings — the workspace carries none; fix them",
            report.warnings()
        ));
    }
    Ok(format!(
        "s4d-lint: budget gate OK ({}/{allow} pragma sites)",
        report.pragmas,
    ))
}

fn collect(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
