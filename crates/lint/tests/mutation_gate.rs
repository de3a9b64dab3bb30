//! The mutation gate: seeded protocol violations applied to the *real*
//! modules, each of which must die by its declared killer — the compiler
//! first, a lexical lint rule second, a named tier-1 test last.
//!
//! This is the arbiter of what `s4d-lint` contains: a rule stays only
//! while some row names it as killer, and a property moved out of the
//! linter (into `ShardId`, the non-`Clone` `#[must_use]` `Pending`, the
//! `DurabilityHandle`-gated flush plans, the `fused_*` effects, module
//! privacy) keeps a row showing the violation still cannot land.
//!
//! Every row's anchor must match its file exactly once, checked in the
//! ordinary `cargo test -p s4d-lint` run, so the table cannot rot.
//! Lint-killed rows run there too, in-process on the mutated source.
//! Build- and test-killed rows copy the workspace under the target dir
//! and run `cargo check` / `cargo test --offline` on it; they are
//! `#[ignore]`d and CI runs them with `-- --include-ignored`.

use std::path::{Path, PathBuf};
use std::process::Command;

use s4d_lint::{engine, SourceFile};

#[derive(Clone, Copy)]
enum Killer {
    /// `cargo check -p s4d-cache` fails.
    Build,
    /// The rule reports more findings than on the unmutated workspace.
    Lint(&'static str),
    /// The root package's `--test <target> <name>` fails.
    Test(&'static str, &'static str),
}

struct Row {
    id: &'static str,
    /// Workspace-relative file the violation is seeded into.
    file: &'static str,
    /// Text that must occur exactly once in `file`.
    anchor: &'static str,
    replacement: &'static str,
    killer: Killer,
    /// Text the killer's output must contain — the *reason* it died.
    evidence: &'static str,
}

const ADMIT: &str = "crates/core/src/pipeline/admit.rs";
const REDIRECT: &str = "crates/core/src/pipeline/redirect.rs";
const REBUILD: &str = "crates/core/src/background/rebuild.rs";
const ENGINE: &str = "crates/core/src/durability/mod.rs";
const FAULTS: &str = "crates/core/src/faults.rs";
const RECOVERY: &str = "crates/core/src/durability/recovery.rs";
const LAST_NAME: &str = "pub const MAX_GROUP_BYTES: u64 = 4 * 1024 * 1024;\n";
const ATTACH_FETCH: &str = "        plan.tag = self.bg.attach(plan.tag, fetch);\n";
const ROUTED: &str = "let shard = self.plane.router().shard_of(orig, d_off);";
const FUSED_DISCARD: &str = "        let allowed = self.fuse_consume(site, len);\n        \
    if allowed > 0 {\n            let _ = cluster.cpfs_mut().discard(";
const FUSED_FLUSH_COPY: &str = "                let allowed = self.dur.fused_copy(
                    cluster,
                    CrashSite::FlushCopy,
                    (Tier::CServers, item.c_file, item.c_offset),
                    (Tier::DServers, item.orig, item.d_offset),
                    item.len,
                );\n";
const INTENT_APPEND: &str = "        match self
            .dur
            .append_journal_sync(cluster, &mut self.plane, &mut self.metrics, &intents)
        {\n";

#[rustfmt::skip]
fn rows() -> Vec<Row> {
    use Killer::{Build, Lint, Test};
    let row = |id, file, anchor, replacement, killer, evidence| Row { id, file, anchor, replacement, killer, evidence };
    let grown: &'static str = Box::leak(format!("{LAST_NAME}{}", "pub const PAD: u8 = 0;\n".repeat(800)).into_boxed_str());
    vec![
        // -- carried by types: the compiler is the killer ----------------
        row("discard-without-append", ADMIT,
            ".discard_cache(cluster, &proof, ext.c_file,", ".discard_cache(cluster, &crate::durability::DurabilityHandle(()), ext.c_file,",
            Build, "E0603"),
        row("flush-intent-not-durable", REBUILD, INTENT_APPEND, "        match Some(intents.len()) {\n",
            Build, "E0308"),
        row("pending-leak", ADMIT, ATTACH_FETCH, "",
            Build, "unused variable: `fetch`"),
        row("pending-dropped", REDIRECT,
            "plan.tag = self.bg.attach(0, Pending::Unpin(pins));", "Pending::Unpin(pins);",
            Build, "Pending` that must be used"),
        row("pending-tag-dropped", ADMIT, ATTACH_FETCH, "        self.bg.attach(plan.tag, fetch);\n",
            Build, "unused return value of `BackgroundScheduler::attach`"),
        row("pending-reuse", ADMIT, ATTACH_FETCH,
            "        let first = self.bg.attach(0, fetch.clone());\n        plan.tag = self.bg.attach(first, fetch);\n",
            Build, "E0599"),
        row("unrouted-shard-literal", REBUILD, ROUTED, "let shard = 0;", Build, "E0308"),
        row("unrouted-shard-arith", REBUILD, ROUTED, "let shard = (d_off % 4) as usize;", Build, "E0308"),
        row("unrouted-shard-counter", REBUILD, ROUTED, "let shard = self.metrics.flushes as usize;", Build, "E0308"),
        row("raw-component-mutation", "crates/core/src/background/scrub.rs",
            "self.plane.remove(orig, d_offset);", "self.plane.shard0.dmt.remove(orig, d_offset);",
            Build, "E0616"),
        row("fuse-charge-dropped", ENGINE, FUSED_DISCARD,
            "        let allowed = len;\n        if allowed > 0 {\n            let _ = cluster.cpfs_mut().discard(",
            Build, "unused variable: `site`"),
        // -- what no type can say: a lexical rule is the killer ----------
        row("unfused-effect-outside-engine", REBUILD, FUSED_FLUSH_COPY,
            "                let allowed = item.len;
                let _ = cluster.copy_range(
                    (Tier::CServers, item.c_file, item.c_offset),
                    (Tier::DServers, item.orig, item.d_offset),
                    allowed,
                );\n",
            Lint("durability"), ".copy_range("),
        row("lock-introduced", "crates/core/src/layer.rs",
            "use std::rc::Rc;\n", "use std::rc::Rc;\nuse std::sync::Mutex;\n",
            Lint("determinism"), "lock type"),
        row("hashmap-in-journal-codec", "crates/core/src/durability/journal.rs",
            "use s4d_pfs::FileId;\n", "use s4d_pfs::FileId;\nuse std::collections::HashMap;\n",
            Lint("ordered-iter"), "HashMap"),
        row("idmap-iterated-in-report", "crates/mpiio/src/report.rs",
            "        self.meter.add(bytes);\n",
            "        let seen: s4d_sim::IdMap<u64, u64> = s4d_sim::IdMap::default();\n        for n in seen.values() {\n            self.meter.add(*n);\n        }\n        self.meter.add(bytes);\n",
            Lint("ordered-iter"), "IdMap"),
        row("unwrap-in-middleware", "crates/core/src/durability/group.rs",
            ".max().unwrap_or(0)", ".max().unwrap()",
            Lint("panic"), ".unwrap()"),
        row("panic-reachable-from-api", "crates/cost/src/model.rs",
            "    s_n as f64 * params.beta_c\n", "    Some(s_n as f64).unwrap() * params.beta_c\n",
            Lint("panic"), "`.unwrap()` in library code of crate `cost`"),
        row("module-over-budget", "crates/core/src/names.rs", LAST_NAME, grown,
            Lint("file-budget"), "non-test code lines"),
        row("retired-rule-pragma", FAULTS,
            "    pub(crate) fn retry_backoff(", "    // s4d-lint: allow(unbounded-retry) — bounded by the cap\n    pub(crate) fn retry_backoff(",
            Lint("pragma"), "unknown rule `unbounded-retry`"),
        // -- behaviour: a named tier-1 test is the killer ----------------
        row("alloc-in-hot-path", "crates/core/src/pipeline/identify.rs",
            "self.plane.cdt_insert(req.file, req.offset, req.len);",
            "let key = vec![req.offset];\n            self.plane.cdt_insert(req.file, key[0], req.len);",
            Test("alloc_steady_state", "request_path_allocations_stay_under_their_ceilings"), "allocations each"),
        row("fuse-charge-dropped-quietly", ENGINE, FUSED_DISCARD,
            "        let allowed = { let _ = site; len };\n        if allowed > 0 {\n            let _ = cluster.cpfs_mut().discard(",
            Test("crash_torture", "crash_matrix_every_budget_recovers"), "EvictDiscard"),
        row("journal-before-data", ADMIT,
            "            plan.phases.push(vec![op]);", "            plan.phases.insert(0, vec![op]);",
            Test("crash_torture", "journal_before_ack_audit"), "journal write must be the last phase only"),
        row("retry-cap-removed", FAULTS,
            "IoFault::Transient if failure.attempts < self.config.retry_max_attempts => {", "IoFault::Transient => {",
            Test("failure_domain", "transient_errors_are_retried_without_degradation"), "at the cap"),
        row("recovery-appends-past-torn-suffix", RECOVERY,
            "journal_offset = tail_start + (bytes.len() as u64 - tail.dropped_bytes);", "journal_offset = tail_start + bytes.len() as u64;",
            Test("double_crash", "writes_acked_after_a_torn_journal_recovery_survive_the_next_crash"), "did not survive the second crash"),
        row("recovery-trusts-dirty-seals", RECOVERY, "        dmt.clear_dirty_checksums();\n", "",
            Test("scrub", "torn_overwrite_of_a_sealed_dirty_extent_survives_recovery_and_scrub"), "a torn write is not rot"),
        row("journal-frame-charged-as-data", "crates/core/src/durability/crash.rs",
            "                } else {\n                    CrashSite::JournalWrite\n                };", "                } else {\n                    CrashSite::DataWrite\n                };",
            Test("crash_torture", "crash_matrix_every_budget_recovers"), "never exercised JournalWrite"),
    ]
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Applies a row to its file's source, insisting the anchor is unique.
fn mutate(row: &Row, src: &str) -> String {
    let hits = src.matches(row.anchor).count();
    assert_eq!(
        hits, 1,
        "{}: anchor must match {} exactly once, matched {hits} times — the code \
         moved; re-seed the row",
        row.id, row.file
    );
    src.replacen(row.anchor, row.replacement, 1)
}

#[test]
fn every_anchor_matches_exactly_once_and_every_rule_is_a_killer() {
    let root = workspace_root();
    let rows = rows();
    for row in &rows {
        let src = std::fs::read_to_string(root.join(row.file)).expect(row.file);
        assert_ne!(mutate(row, &src), src, "{}: replacement is a no-op", row.id);
    }
    for rule in s4d_lint::config::RULES {
        assert!(
            rows.iter()
                .any(|r| matches!(r.killer, Killer::Lint(id) if id == rule.id)),
            "rule `{}` kills no mutation — retire it or seed the violation it owns",
            rule.id
        );
    }
}

/// Lints the workspace with `file` replaced by `src` (or as is).
fn lint_with(sources: &[(PathBuf, String, String)], patch: Option<(&str, &str)>) -> engine::Report {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(path, rel, src)| {
            let src = match patch {
                Some((file, mutated)) if file == rel => mutated,
                _ => src.as_str(),
            };
            SourceFile::parse(path.clone(), rel.clone(), src)
        })
        .collect();
    engine::lint_files(&files)
}

#[test]
fn lint_killed_rows_die_in_process() {
    let root = workspace_root().canonicalize().expect("workspace root");
    let sources: Vec<(PathBuf, String, String)> = engine::workspace_files(&root)
        .expect("workspace walk")
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(&root).expect("under root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            let src = std::fs::read_to_string(&path).expect("readable source");
            (path, rel, src)
        })
        .collect();
    let count = |report: &engine::Report, rule: &str| {
        report.diagnostics.iter().filter(|d| d.rule == rule).count()
    };
    let baseline = lint_with(&sources, None);
    assert_eq!(baseline.errors(), 0, "the unmutated workspace lints clean");
    for row in rows() {
        let Killer::Lint(rule) = row.killer else {
            continue;
        };
        let src = &sources.iter().find(|s| s.1 == row.file).expect(row.file).2;
        let report = lint_with(&sources, Some((row.file, &mutate(&row, src))));
        assert!(
            count(&report, rule) > count(&baseline, rule),
            "{}: survived `{rule}`",
            row.id
        );
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == rule && d.to_string().contains(row.evidence)),
            "{}: `{rule}` fired, but not for `{}`",
            row.id,
            row.evidence
        );
    }
}

/// Runs cargo in the scratch workspace; `(succeeded, stdout + stderr)`.
fn cargo(ws: &Path, args: &[&str]) -> (bool, String) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(ws)
        .args(args)
        .env("CARGO_TARGET_DIR", ws.join("target"))
        .output()
        .expect("spawn cargo");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

fn copy_tree(from: &Path, to: &Path) {
    if from.is_dir() {
        if from.file_name().is_some_and(|n| n == "target") {
            return;
        }
        std::fs::create_dir_all(to).expect("create dir");
        for entry in std::fs::read_dir(from).expect("read dir") {
            let entry = entry.expect("dir entry");
            copy_tree(&entry.path(), &to.join(entry.file_name()));
        }
    } else {
        std::fs::copy(from, to).expect("copy file");
    }
}

#[test]
#[ignore = "copies the workspace and runs cargo on it; CI: -- --include-ignored"]
fn build_and_test_killed_rows_die_in_a_scratch_copy() {
    let root = workspace_root();
    // A fixed path under target/: cargo's fingerprints survive between
    // runs, so only the mutated crate and its dependents rebuild.
    let ws = Path::new(env!("CARGO_TARGET_TMPDIR")).join("mutation-gate-ws");
    std::fs::create_dir_all(&ws).expect("create scratch workspace");
    for part in [
        "Cargo.toml",
        "Cargo.lock",
        "src",
        "tests",
        "examples",
        "crates",
        "vendor",
    ] {
        let _ = std::fs::remove_dir_all(ws.join(part));
        copy_tree(&root.join(part), &ws.join(part));
    }
    let check = ["check", "--offline", "-p", "s4d-cache"];
    let (ok, out) = cargo(&ws, &check);
    assert!(ok, "the unmutated copy must build:\n{out}");
    let mut survivors = Vec::new();
    for row in rows() {
        let test_args;
        let args: &[&str] = match row.killer {
            Killer::Lint(_) => continue,
            Killer::Build => &check,
            Killer::Test(target, name) => {
                test_args = ["test", "--offline", "--test", target, name];
                &test_args
            }
        };
        let path = ws.join(row.file);
        let original = std::fs::read_to_string(&path).expect(row.file);
        std::fs::write(&path, mutate(&row, &original)).expect("write mutant");
        let (ok, out) = cargo(&ws, args);
        std::fs::write(&path, original).expect("restore original");
        let ran_tests =
            !matches!(row.killer, Killer::Test(..)) || out.contains("test result: FAILED");
        if ok {
            survivors.push(format!("{}: survived `cargo {}`", row.id, args.join(" ")));
        } else if !out.contains(row.evidence) || !ran_tests {
            survivors.push(format!(
                "{}: died, but not for `{}`:\n{out}",
                row.id, row.evidence
            ));
        }
    }
    assert!(survivors.is_empty(), "{}", survivors.join("\n\n"));
}
