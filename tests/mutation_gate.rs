//! The mutation gate: seeded protocol violations applied to the *real*
//! modules, each of which must die by its declared killer — the compiler
//! first, a clippy lint second, a named test last (a tier-1 test, one of
//! `s4d-cache`'s own suites, or a crate's unit tests). Rows that move
//! behaviour without changing a byte read back die by `tests/behaviour.rs`
//! (`BEHAVIOUR.lock`).
//!
//! This is the arbiter of what the static gate denies: a lint stays in
//! the root `Cargo.toml`'s `[workspace.lints.clippy]` table or a
//! `clippy.toml` only while some row names it as killer, and a property
//! carried by a type (`ShardId`, the non-`Clone` `#[must_use]` `Pending`,
//! the `DurabilityHandle`-gated flush plans, the `fused_*` effects, module
//! privacy) keeps a row showing the violation still cannot land. A crate
//! that stops inheriting the table is a row too.
//!
//! Every row's anchor must match its file exactly once, checked in the
//! ordinary `cargo test` run, so the table cannot rot. The rows
//! themselves copy the workspace under the target dir and run `cargo
//! check` / `cargo clippy` / `cargo test --offline` on it; they are
//! `#[ignore]`d and CI runs them with `-- --include-ignored`.

use std::path::{Path, PathBuf};

#[path = "common/cargo.rs"]
mod cargo;

#[derive(Clone, Copy)]
enum Killer {
    /// `cargo check -p s4d-cache` fails.
    Build,
    /// The static gate's `cargo clippy` line fails, naming this lint.
    Clippy(&'static str),
    /// The root package's `--test <target> <name>` fails.
    Test(&'static str, &'static str),
    /// `s4d-cache`'s `--test <target> <name>` fails.
    CacheTest(&'static str, &'static str),
    /// The `-p <crate> --lib <name>` unit tests fail.
    LibTest(&'static str, &'static str),
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
const IDENTIFY: &str = "crates/core/src/pipeline/identify.rs";
const RECOVERY: &str = "crates/core/src/durability/recovery.rs";
const LAST_NAME: &str = "pub const MAX_GROUP_BYTES: u64 = 4 * 1024 * 1024;\n";
const BACKGROUND: &str = "crates/core/src/background/mod.rs";
const ATTACH_READ: &str = "        if !pins.is_empty() || fetch.is_some() {
            plan.tag = self.bg.attach(Pending::Read { pins, fetch });
        }\n";
const UNWIND_WRITE: &str = "                if let Some(frame) = journal {
                    self.dur.unplan_journal(frame, &mut self.metrics);
                }
                self.unwind_fresh(cluster, orig, written);\n";
const CDT_INSERT: &str = "self.plane.cdt_insert(req.file, req.offset, req.len);";
const RETRY_BACKOFF: &str = "    pub(crate) fn retry_backoff(";
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
const EVICT_DURABLY: &str =
    "        // `evict_clean_lru_excluding` removed the victims and queued\n";
const EVICT_BEFORE_DURABLE: &str = "        if !victims.is_empty() {
            for (_file, _d_off, ext) in &victims {
                self.plane.release(shard, ext.c_file, ext.c_offset, ext.len);
                self.metrics.evictions += 1;
                self.metrics.evicted_bytes += ext.len;
            }
            return self.plane.fits(shard, len);
        }
        // `evict_clean_lru_excluding` removed the victims and queued\n";
const SHARD_MERGE: &str = "            let merged = std::iter::from_fn(move || {
                let (_, next) = heads
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(i, h)| h.peek().map(|&(o, _)| (o, i)))
                    .min()?;
                heads.get_mut(next)?.next()
            });\n";
const RECENCY: &str = "crates/core/src/dmt/recency.rs";
const CLEAN_WALK: &str = "self.clean.ones().filter_map(|t| self.slots.get(t).copied())";
const DIRTY_WALK: &str = "self.dirty.ones().filter_map(|t| self.slots.get(t).copied())";
const INTENT_APPEND: &str = "        match self
            .dur
            .append_journal_sync(cluster, &mut self.plane, &mut self.metrics)
        {\n";

const SUB_META: &str = "crates/mpiio/src/runner/exec.rs";
/// The end of the runner's sub-request record and the head of its one
/// constructor, so a row can grow the record and still build it.
const SUB_META_TAIL: &str = "    carries_app: bool,
}

impl SubMeta {
    /// The record of `op`'s piece `sub`, first submitted at `now`.
    fn new(plan_id: PlanId, op: &PlannedIo, sub: &SubRange, now: SimTime, hedge: bool) -> Self {
        let app_shift = op.app_offset.get().map(|app| app.wrapping_sub(op.offset));
        SubMeta {\n";

#[rustfmt::skip]
fn rows() -> Vec<Row> {
    use Killer::{Build, CacheTest, Clippy, LibTest, Test};
    let row = |id, file, anchor, replacement, killer, evidence| Row { id, file, anchor, replacement, killer, evidence };
    let grown: &'static str = Box::leak(format!("{LAST_NAME}{}", "const _: u8 = 0;\n".repeat(800)).into_boxed_str());
    let deadline_copy: &'static str = Box::leak(format!("{}            deadline: None,\n",
        SUB_META_TAIL.replacen("bool,\n", "bool,\n    deadline: Option<SimDuration>,\n", 1)).into_boxed_str());
    vec![
        // -- carried by types: the compiler is the killer ----------------
        row("discard-without-append", ADMIT,
            ".try_free_removed(cluster, &mut self.plane, &mut self.metrics, freed)",
            ".fused_discard(cluster, crate::durability::crash::CrashSite::EvictDiscard, FileId(0), 0, 0)",
            Build, "E0624"),
        row("flush-intent-not-durable", REBUILD, INTENT_APPEND, "        match Some(()) {\n",
            Build, "E0308"),
        row("flush-released-by-a-forged-handle", REBUILD,
            "Some(proof) => staged.release(&proof),", "Some(_) => staged.release(&crate::durability::DurabilityHandle(())),",
            Build, "E0603"),
        row("pending-leak", REDIRECT, ATTACH_READ, "",
            Build, "unused variable: `fetch`"),
        row("pending-dropped", REDIRECT, ATTACH_READ, "        Pending::Read { pins, fetch };\n",
            Build, "Pending` that must be used"),
        row("pending-tag-dropped", REDIRECT, ATTACH_READ,
            "        if !pins.is_empty() || fetch.is_some() {\n            self.bg.attach(Pending::Read { pins, fetch });\n        }\n",
            Build, "unused return value of `BackgroundScheduler::attach`"),
        row("pending-reuse", REDIRECT, ATTACH_READ,
            "        let read = Pending::Read { pins, fetch };\n        let _ = self.bg.attach(read.clone());\n        plan.tag = self.bg.attach(read);\n",
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
        // -- what no type can say: a clippy lint is the killer -----------
        row("unfused-effect-outside-engine", REBUILD, FUSED_FLUSH_COPY,
            "                let allowed = item.len;
                let _ = cluster.copy_range(
                    (Tier::CServers, item.c_file, item.c_offset),
                    (Tier::DServers, item.orig, item.d_offset),
                    allowed,
                );\n",
            Clippy("disallowed_methods"), "disallowed method `s4d_mpiio::Cluster::copy_range`"),
        row("durable-effect-through-a-binding", REBUILD, FUSED_FLUSH_COPY,
            "                let allowed = item.len;
                let fs = cluster.cpfs_mut();
                let _ = fs.discard(item.c_file, item.c_offset, allowed);\n",
            Clippy("disallowed_methods"), "disallowed method `s4d_pfs::Pfs::discard`"),
        row("wall-clock-read", IDENTIFY, CDT_INSERT,
            "let _started = std::time::Instant::now();\n            self.plane.cdt_insert(req.file, req.offset, req.len);",
            Clippy("disallowed_methods"), "disallowed method `std::time::Instant::now`"),
        row("lock-introduced", "crates/core/src/layer.rs",
            "use std::rc::Rc;\n", "use std::rc::Rc;\nuse std::sync::Mutex;\n",
            Clippy("disallowed_types"), "disallowed type `std::sync::Mutex`"),
        row("hashmap-in-journal-codec", "crates/core/src/durability/journal.rs",
            "    for r in records {\n        out.extend_from_slice(&r.encode());\n",
            "    let by_key: std::collections::HashMap<_, _> = records.iter().map(|r| (r.d_key(), r)).collect();\n    for r in by_key.values() {\n        out.extend_from_slice(&r.encode());\n",
            Clippy("iter_over_hash_type"), "for r in by_key.values()"),
        row("idmap-iterated-in-report", "crates/mpiio/src/report.rs",
            "        self.meter.add(bytes);\n",
            "        let seen: s4d_sim::IdMap<u64, u64> = s4d_sim::IdMap::default();\n        for n in seen.values() {\n            self.meter.add(*n);\n        }\n        self.meter.add(bytes);\n",
            Clippy("iter_over_hash_type"), "for n in seen.values()"),
        row("unwrap-in-middleware", "crates/core/src/durability/group.rs",
            ".max().unwrap_or(0)", ".max().unwrap()",
            Clippy("unwrap_used"), "used `unwrap()` on an `Option` value"),
        row("panic-reachable-from-api", "crates/cost/src/model.rs",
            "    s_n as f64 * params.beta_c\n", "    Some(s_n as f64).unwrap() * params.beta_c\n",
            Clippy("unwrap_used"), "crates/cost/src/model.rs"),
        row("expect-in-pfs", "crates/pfs/src/layout.rs",
            ".map(|sr| sr.len)\n            .max()\n            .unwrap_or(0)", ".map(|sr| sr.len)\n            .max()\n            .expect(\"non-empty\")",
            Clippy("expect_used"), "used `expect()` on an `Option` value"),
        row("panic-in-report", "crates/mpiio/src/report.rs",
            "            _ => SimDuration::ZERO,\n", "            _ => panic!(\"no span\"),\n",
            Clippy("panic"), "`panic` should not be present in production code"),
        row("unreachable-in-sim", "crates/sim/src/stats.rs",
            "_ => write!(f, \"latency: no samples\"),", "_ => unreachable!(\"no samples\"),",
            Clippy("unreachable"), "usage of the `unreachable!` macro"),
        row("todo-in-chaos-cli", "crates/chaos/src/main.rs",
            "            _ => return Err(()),\n", "            _ => todo!(),\n",
            Clippy("todo"), "`todo` should not be present in production code"),
        row("unimplemented-in-chaos", "crates/chaos/src/schedule.rs",
            "4 => ChaosEvent::FailStop { server, at_op },", "4 => unimplemented!(),",
            Clippy("unimplemented"), "`unimplemented` should not be present in production code"),
        row("slice-in-store", "crates/storage/src/store.rs",
            "src.get(src_at..src_at + n)", "Some(&src[src_at..src_at + n])",
            Clippy("indexing_slicing"), "slicing may panic"),
        row("unfulfilled-expect", FAULTS, RETRY_BACKOFF,
            "    #[expect(clippy::unwrap_used, reason = \"nothing here unwraps\")]\n    pub(crate) fn retry_backoff(",
            Clippy("unfulfilled_lint_expectations"), "this lint expectation is unfulfilled"),
        row("allow-without-reason", FAULTS, RETRY_BACKOFF,
            "    #[allow(clippy::unwrap_used)]\n    pub(crate) fn retry_backoff(",
            Clippy("allow_attributes_without_reason"), "`allow` attribute without specifying a reason"),
        row("allow-where-expect-fits", FAULTS, RETRY_BACKOFF,
            "    #[allow(clippy::unwrap_used, reason = \"never checked for being used\")]\n    pub(crate) fn retry_backoff(",
            Clippy("allow_attributes"), "#[allow] attribute found"),
        row("module-over-budget", "crates/core/src/names.rs", LAST_NAME, grown,
            Test("static_gate", "no_library_module_exceeds_the_line_budget"), "non-test code lines"),
        // Clippy cannot kill this one: storage's code stays clean without
        // the table, so the lints would only be missing.
        row("crate-opts-out-of-the-lint-table", "crates/storage/Cargo.toml", "\n[lints]\nworkspace = true\n", "\n",
            Test("static_gate", "every_library_crate_inherits_the_workspace_lints"), "does not inherit"),
        // -- behaviour: a named tier-1 test is the killer ----------------
        row("alloc-in-hot-path", IDENTIFY, CDT_INSERT,
            "let key = vec![req.offset];\n            self.plane.cdt_insert(req.file, key[0], req.len);",
            Test("alloc_steady_state", "request_path_allocations_stay_under_their_ceilings"), "allocations each"),
        row("alloc-on-bypass-path", ADMIT, "            if !admit {\n",
            "            if !admit {\n                let _gap = std::hint::black_box(vec![g_off, g_len]);\n",
            Test("alloc_steady_state", "bypass_requests_allocate_nothing_per_request"), "the bypass path allocates per request"),
        row("free-before-durable-remove", ENGINE,
            "        if self.append_journal_sync(cluster, plane, metrics).is_none() {\n            return false;\n        }\n",
            "        if metrics.journal_writes == u64::MAX {\n            return false;\n        }\n",
            Test("crash_torture", "crash_matrix_every_budget_recovers"), "diverged after recovery"),
        row("stalled-removes-freed-anyway", ENGINE,
            "            self.parked.extend(ranges);\n", "            ranges.for_each(|range| self.free_range(cluster, plane, range));\n",
            Test("failure_domain", "crash_invalidation_under_a_journal_stall_parks_the_space"), "parked space must not be reused"),
        row("fuse-charge-dropped-quietly", ENGINE, FUSED_DISCARD,
            "        let allowed = { let _ = site; len };\n        if allowed > 0 {\n            let _ = cluster.cpfs_mut().discard(",
            Test("crash_torture", "crash_matrix_every_budget_recovers"), "EvictDiscard"),
        row("journal-before-data", ADMIT,
            "            plan.then = OneOrMany::One(op);", "            plan.ops.push(op);",
            Test("crash_torture", "journal_before_ack_audit"), "journal write must run in `then` only"),
        row("completion-no-longer-signals-success", "crates/core/src/layer.rs",
            "self.health.record_success(server);", "let _ = server;",
            Test("failure_domain", "hard_crash_rolls_back_to_durable_state_and_recovers"), "the second crash must invalidate"),
        row("never-admit-caches", IDENTIFY,
            "AdmissionPolicy::NeverAdmit => false,", "AdmissionPolicy::NeverAdmit => benefit.is_critical(),",
            Test("end_to_end", "never_admit_matches_stock_within_overhead"), "never-admit must redirect nothing"),
        row("flush-limit-zero-still-flushes", REBUILD,
            ".dirty_keys(self.config.max_flush_per_wake)", ".dirty_keys(self.config.max_flush_per_wake.max(1))",
            Test("end_to_end", "flush_limit_zero_is_carl_placement"), "flush limit 0 must never flush"),
        row("unwind-before-frame-rollback", BACKGROUND, UNWIND_WRITE,
            "                self.unwind_fresh(cluster, orig, written);
                if let Some(frame) = journal {
                    self.dur.unplan_journal(frame, &mut self.metrics);
                }\n",
            CacheTest("durability_engine", "failed_admission_rolls_back_the_frame_before_unwinding"),
            "must land at the rolled-back frame offset"),
        row("flush-scan-ignores-inflight", REBUILD,
            "            .filter(|key| !self.bg.inflight_flush.contains(key))\n", "",
            CacheTest("background_scheduler", "rebuilder_flush_cycle_marks_clean"), "must not re-issue"),
        row("dirty-keys-newest-first", RECENCY, DIRTY_WALK,
            "(0..self.slots.len()).rev().filter(|&t| self.dirty.word(t / 64) >> (t % 64) & 1 == 1).filter_map(|t| self.slots.get(t).copied())",
            CacheTest("background_scheduler", "a_wake_flushes_the_least_recently_dirtied_first"),
            "the two least recently dirtied"),
        row("compaction-reorders-touches", RECENCY,
            "(live & ((1 << bit) - 1)).count_ones()", "(live >> bit >> 1).count_ones()",
            LibTest("s4d-cache", "dmt::recency::tests::recency_matches_the_btree_model"),
            "holds another extent's touch"),
        row("missing-store-reads-as-timing", "crates/pfs/src/server.rs",
            "            None => Some(vec![0u8; len as usize]),\n",
            "            None => None,\n",
            CacheTest("background_scheduler", "fetch_over_a_server_without_the_file_caches_its_bytes"),
            "the re-read must return the OPFS bytes"),
        row("cdt-evict-skips-backward-shift", "crates/core/src/cdt.rs",
            "        let mut slot = hole;\n        loop {\n", "        let mut slot = hole;\n        while slot != hole {\n",
            CacheTest("cdt_model", "cdt_matches_the_model"), "disagrees with the model"),
        row("cdt-overwrite-keeps-flag", "crates/core/src/cdt.rs",
            "                self.set_bit(pos, false);\n                self.evicted_total += 1;\n",
            "                self.evicted_total += 1;\n",
            CacheTest("cdt_model", "flags_survive_a_wrapped_ring"), "flagged entries after step"),
        row("hedge-serves-dirty-bytes", "crates/core/src/gray.rs",
            ".any(|(_, e)| e.dirty)", ".any(|(_, _e)| false)",
            Test("straggler_matrix", "dirty_reads_wait_out_the_stall"), "returned wrong bytes"),
        row("retry-cap-removed", FAULTS,
            "IoFault::Transient if failure.attempts < self.config.retry_max_attempts => {", "IoFault::Transient => {",
            Test("failure_domain", "transient_errors_are_retried_without_degradation"), "at the cap"),
        row("recovery-appends-past-torn-suffix", RECOVERY,
            "journal_offset = tail_start + (bytes.len() as u64 - tail.dropped_bytes);", "journal_offset = tail_start + bytes.len() as u64;",
            Test("double_crash", "writes_acked_after_a_torn_journal_recovery_survive_the_next_crash"), "did not survive the second crash"),
        row("slab-remove-keeps-generation", "crates/sim/src/slab.rs",
            "        slot.generation = slot.generation.wrapping_add(1).max(1);\n", "",
            LibTest("s4d-sim", "slab::tests::slab_matches_a_map"), "minted again"),
        row("checkpoint-shard-order", "crates/core/src/shard/plane.rs", SHARD_MERGE,
            "            let merged = heads.into_iter().flatten();\n",
            LibTest("s4d-cache", "durability::checkpoint::tests::prop_streamed_checkpoint_matches_collect_and_sort"),
            "streamed snapshot differs"),
        row("split-keeps-seal", "crates/core/src/dmt/mod.rs",
            "        // A whole-extent checksum does not survive a split.\n        self.checksum = None;\n", "",
            Test("scrub", "partial_overwrite_of_a_sealed_dirty_extent_is_not_rot"), "kept the whole-extent seal"),
        row("recovery-trusts-dirty-seals", RECOVERY, "        dmt.clear_dirty_checksums();\n", "",
            Test("scrub", "torn_overwrite_of_a_sealed_dirty_extent_survives_recovery_and_scrub"), "a torn write is not rot"),
        row("journal-frame-charged-as-data", "crates/core/src/durability/crash.rs",
            "                } else {\n                    CrashSite::JournalWrite\n                };", "                } else {\n                    CrashSite::DataWrite\n                };",
            Test("crash_torture", "crash_matrix_every_budget_recovers"), "never exercised JournalWrite"),
        // The chaos oracle's self-test: victims' space is reused while
        // their Remove records are still only in memory.
        row("eviction-reuses-space-before-durable-remove", ADMIT, EVICT_DURABLY, EVICT_BEFORE_DURABLE,
            Test("chaos_smoke", "fixed_seed_block_is_green"), "minimized to 1 event"),
        // Behaviour-only mutants: every byte read back is unchanged and the
        // rest of tier-1 passes, so only the behaviour lock sees them. The
        // timeline's walks are reversed without allocating, so the
        // allocation ceilings cannot see the eviction row either.
        row("eviction-takes-most-recent-clean", RECENCY, CLEAN_WALK,
            "(0..self.slots.len()).rev().filter(|&t| self.clean.word(t / 64) >> (t % 64) & 1 == 1).filter_map(|t| self.slots.get(t).copied())",
            Test("behaviour", "pipeline_decisions"), "locked: pipeline/mixed"),
        row("free-list-reuses-oldest-extent", "crates/core/src/space.rs",
            "        let (off, len) = self.stack.pop()?;\n",
            "        let (off, len) = (!self.stack.is_empty()).then(|| self.stack.remove(0))?;\n",
            Test("behaviour", "pipeline_decisions"), "locked: pipeline/mixed"),
        // Memory-only: a timing-mode server keeps a per-file store again.
        // The store stays empty: one holding `ior-seq-4m`'s 32 GiB would not
        // fit in memory, and a one-byte write per sub-request already trips
        // `alloc_steady_state`'s ceilings. So in tier-1 only the exact
        // `cost/*` lines see it (outside tier-1, `s4d-pfs`'s
        // `a_timing_server_holds_no_per_file_store` does too).
        row("timing-store-keeps-coverage", "crates/pfs/src/server.rs",
            "                self.poke_store(req.file, req.local_offset, req.len, req.data.as_deref());\n",
            "                self.stores.entry(req.file).or_default();\n                self.poke_store(req.file, req.local_offset, req.len, req.data.as_deref());\n",
            Test("behaviour", "benchmark_workloads"), "locked: cost/"),
        // Memory-only: the sub-request record keeps its own copy of the
        // plan's deadline again (16 B a slot). No simulated number moves,
        // so in tier-1 only the exact `cost/*` lines see it; outside
        // tier-1, `s4d-mpiio`'s size pin `a_sub_slot_holds_each_fact_once`
        // does too.
        row("sub-request-record-regrows", SUB_META, SUB_META_TAIL, deadline_copy,
            Test("behaviour", "benchmark_workloads"), "locked: cost/"),
    ]
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
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

/// Every lint the static gate names: the root `Cargo.toml`'s
/// `[workspace.lints.clippy]` table and the `disallowed-*` tables of the
/// two `clippy.toml`s.
fn denied_lints(root: &Path) -> Vec<String> {
    let read = |path: PathBuf| std::fs::read_to_string(path).unwrap_or_default();
    let manifest = read(root.join("Cargo.toml"));
    let table = manifest
        .split("[workspace.lints.clippy]\n")
        .nth(1)
        .unwrap_or_default();
    let mut lints: Vec<String> = table
        .lines()
        .take_while(|line| !line.starts_with('['))
        .filter_map(|line| line.split_once(" = "))
        .map(|(lint, _)| lint.to_owned())
        .collect();
    for config in [
        root.join("clippy.toml"),
        root.join("crates/core/clippy.toml"),
    ] {
        for line in read(config).lines() {
            if line.starts_with("disallowed-") {
                let key = line.split(' ').next().unwrap_or_default();
                lints.push(key.replace('-', "_"));
            }
        }
    }
    lints.sort();
    lints.dedup();
    lints
}

#[test]
fn every_anchor_matches_exactly_once_and_every_lint_is_a_killer() {
    let root = workspace_root();
    let rows = rows();
    for row in &rows {
        let src = std::fs::read_to_string(root.join(row.file)).expect(row.file);
        assert_ne!(mutate(row, &src), src, "{}: replacement is a no-op", row.id);
    }
    let lints = denied_lints(&root);
    assert!(lints.len() >= 12, "found only {lints:?}");
    for lint in lints {
        assert!(
            rows.iter()
                .any(|r| matches!(r.killer, Killer::Clippy(l) if l == lint)),
            "lint `{lint}` kills no mutation — retire it or seed the violation it owns"
        );
    }
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
fn every_row_dies_in_a_scratch_copy() {
    let root = workspace_root();
    // A fixed path under target/: cargo's fingerprints survive between
    // runs, so only the mutated crate and its dependents rebuild.
    let ws = Path::new(env!("CARGO_TARGET_TMPDIR")).join("mutation-gate-ws");
    std::fs::create_dir_all(&ws).expect("create scratch workspace");
    // Everything but the build cache goes, so a part deleted from the
    // repository does not survive in the copy from an earlier run.
    for entry in std::fs::read_dir(&ws).expect("read scratch workspace") {
        let path = entry.expect("scratch entry").path();
        if path.is_dir() && !path.ends_with("target") {
            std::fs::remove_dir_all(&path).expect("clear scratch dir");
        } else if path.is_file() {
            std::fs::remove_file(&path).expect("clear scratch file");
        }
    }
    for part in [
        "BEHAVIOUR.lock",
        "Cargo.toml",
        "Cargo.lock",
        "clippy.toml",
        "EXPERIMENTS.md",
        "src",
        "tests",
        "crates",
        "vendor",
    ] {
        copy_tree(&root.join(part), &ws.join(part));
    }
    let cargo = |args: &str| cargo::cargo(&ws, &ws.join("target"), args);
    let (ok, out) = cargo(cargo::CLIPPY);
    assert!(ok, "the unmutated copy must pass the static gate:\n{out}");
    let mut survivors = Vec::new();
    for row in rows() {
        let args = match row.killer {
            Killer::Build => "check --offline -p s4d-cache".to_owned(),
            Killer::Clippy(_) => cargo::CLIPPY.to_owned(),
            Killer::Test(target, name) => format!("test --offline --test {target} {name}"),
            Killer::CacheTest(target, name) => {
                format!("test --offline -p s4d-cache --test {target} {name}")
            }
            Killer::LibTest(krate, name) => format!("test --offline -p {krate} --lib {name}"),
        };
        let path = ws.join(row.file);
        let original = std::fs::read_to_string(&path).expect(row.file);
        std::fs::write(&path, mutate(&row, &original)).expect("write mutant");
        let (ok, out) = cargo(&args);
        std::fs::write(&path, original).expect("restore original");
        let by_killer = match row.killer {
            Killer::Build => true,
            // `-D unfulfilled-lint-expectations`, `…/index.html#unwrap_used`.
            Killer::Clippy(lint) => out.replace('-', "_").contains(lint),
            Killer::Test(..) | Killer::CacheTest(..) | Killer::LibTest(..) => {
                out.contains("test result: FAILED")
            }
        };
        if ok {
            survivors.push(format!("{}: survived `cargo {args}`", row.id));
        } else if !out.contains(row.evidence) || !by_killer {
            survivors.push(format!(
                "{}: died, but not for `{}`:\n{out}",
                row.id, row.evidence
            ));
        }
    }
    assert!(survivors.is_empty(), "{}", survivors.join("\n\n"));
}
