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
    s4d-lint --bench[=PATH]         also write analysis cost counters as
                                    JSON (default: BENCH_lint.json)
    s4d-lint --check-budget         also enforce crates/lint/pragma_budget.toml
                                    (pragma-site and pinned-warning ceilings)
                                    and crates/lint/alloc_budget.toml (per-file
                                    hot-path allocation ceilings)

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
            println!("{:<13} {:<11} {}", r.id, r.mechanism, r.guards);
        }
        return ExitCode::SUCCESS;
    }
    let mut json = false;
    let mut bench: Option<PathBuf> = None;
    let mut check_budget = false;
    let mut unknown = Vec::new();
    for a in args.iter().filter(|a| a.starts_with("--")) {
        match a.as_str() {
            "--workspace" => {}
            "--format=json" => json = true,
            "--format=human" => json = false,
            "--bench" => bench = Some(PathBuf::from("BENCH_lint.json")),
            "--check-budget" => check_budget = true,
            other => {
                if let Some(p) = other.strip_prefix("--bench=") {
                    bench = Some(PathBuf::from(p));
                } else {
                    unknown.push(a);
                }
            }
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
    let started = std::time::Instant::now();
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
    if let Some(path) = bench {
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        // Keys sorted, wall time last: everything before it is
        // deterministic, so diffs of two runs touch exactly one line.
        let body = format!(
            "{{\n  \"call_edges\": {},\n  \"diagnostics\": {},\n  \"files\": {},\n  \
             \"functions\": {},\n  \"suppressed\": {},\n  \"wall_ms\": {wall_ms:.3}\n}}\n",
            report.call_edges,
            report.diagnostics.len(),
            report.files,
            report.functions,
            report.suppressed,
        );
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("s4d-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("s4d-lint: bench counters written to {}", path.display());
    }
    if check_budget {
        match budget_gate(&root, &report) {
            Ok(msg) => eprintln!("{msg}"),
            Err(e) => {
                eprintln!("s4d-lint: budget gate FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
        match alloc_gate(&root, &report) {
            Ok(msg) => eprintln!("{msg}"),
            Err(e) => {
                eprintln!("s4d-lint: alloc budget gate FAILED: {e}");
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
/// and pinned warnings may only ratchet down. The file is a flat
/// `key = value` list (hand-parsed — the workspace is dependency-free).
fn budget_gate(root: &std::path::Path, report: &engine::Report) -> Result<String, String> {
    let path = root.join("crates/lint/pragma_budget.toml");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut allow_pragmas: Option<usize> = None;
    let mut pinned_warnings: Option<usize> = None;
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
            "pinned_warnings" => pinned_warnings = Some(value),
            other => return Err(format!("unknown key `{other}` in {}", path.display())),
        }
    }
    let allow = allow_pragmas.ok_or("pragma_budget.toml is missing `allow_pragmas`")?;
    let pinned = pinned_warnings.ok_or("pragma_budget.toml is missing `pinned_warnings`")?;
    if report.pragmas > allow {
        return Err(format!(
            "{} pragma sites exceed the budget of {allow} — remove a pragma (make the \
             code provably safe) or, with review, raise the ceiling in {}",
            report.pragmas,
            path.display()
        ));
    }
    // `hot-alloc` warnings are governed by their own census
    // (alloc_budget.toml); the pinned ceiling covers everything else.
    let pinned_actual = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == s4d_lint::Severity::Warning && d.rule != "hot-alloc")
        .count();
    if pinned_actual > pinned {
        return Err(format!(
            "{pinned_actual} warnings exceed the pinned ceiling of {pinned} — fix the new \
             warning or, with review, raise the ceiling in {}",
            path.display()
        ));
    }
    Ok(format!(
        "s4d-lint: budget gate OK ({}/{allow} pragma sites, {pinned_actual}/{pinned} warnings)",
        report.pragmas,
    ))
}

/// Enforces `crates/lint/alloc_budget.toml`: per-file ceilings on
/// `hot-alloc` findings, plus a `total`. The census may only ratchet
/// down — a hot file above its recorded count fails the gate, and a hot
/// file not in the census at all has a ceiling of zero.
fn alloc_gate(root: &std::path::Path, report: &engine::Report) -> Result<String, String> {
    let path = root.join("crates/lint/alloc_budget.toml");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut total: Option<usize> = None;
    let mut per_file: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        let value: usize = value
            .trim()
            .parse()
            .map_err(|_| format!("bad value for `{key}` in {}", path.display()))?;
        if key == "total" {
            total = Some(value);
        } else {
            per_file.insert(key.to_string(), value);
        }
    }
    let total = total.ok_or("alloc_budget.toml is missing `total`")?;
    let mut actual: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for d in &report.diagnostics {
        if d.rule != "hot-alloc" {
            continue;
        }
        let rel = d
            .path
            .strip_prefix(root)
            .unwrap_or(&d.path)
            .to_string_lossy()
            .replace('\\', "/");
        *actual.entry(rel).or_insert(0) += 1;
    }
    let actual_total: usize = actual.values().sum();
    for (rel, &n) in &actual {
        let ceiling = per_file.get(rel).copied().unwrap_or(0);
        if n > ceiling {
            return Err(format!(
                "{rel} has {n} hot-path allocation sites, ceiling {ceiling} — remove the \
                 new allocation (reuse a buffer) or, with review, raise its line in {}",
                path.display()
            ));
        }
    }
    if actual_total > total {
        return Err(format!(
            "{actual_total} hot-path allocation sites exceed the total budget of {total} \
             — the census in {} only ratchets down",
            path.display()
        ));
    }
    Ok(format!(
        "s4d-lint: alloc budget gate OK ({actual_total}/{total} hot-path allocation sites)"
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
