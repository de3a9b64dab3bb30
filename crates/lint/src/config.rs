//! Rule scoping tables — which crates, files, and symbols each rule
//! family covers. This is the single place the workspace's invariants are
//! spelled out; DESIGN.md §10 is the prose twin of this file.

/// Every rule id the engine knows. An allow-pragma naming anything else
/// is itself a violation (a typo must never suppress).
pub const RULES: &[&str] = &[
    "determinism",
    "ordered-iter",
    "panic",
    "panic-path",
    "lock-graph",
    "lock-across-io",
    "durability",
    "typestate",
    "file-budget",
    "unbounded-retry",
    // Alias: `allow(retry)` suppresses `unbounded-retry` (see pragma.rs).
    "retry",
    "shard-discipline",
    "shard-affinity",
    "async-ready",
    "hot-alloc",
    "pragma",
];

/// Crates whose behavior must be bit-for-bit deterministic: the simulator
/// and everything on the simulated I/O path. Wall-clock time, OS
/// randomness, and OS threads here would silently invalidate the
/// crash-matrix torture harness and replay-equivalence proptests.
/// `chaos` is included because its whole value proposition is
/// seed-reproducible runs: the same seed must replay byte-identically,
/// so ambient entropy or wall-clock reads there are bugs (the one
/// seeded RNG carries a justified allow at its seeding site).
pub const DETERMINISM_CRATES: &[&str] = &["sim", "core", "pfs", "mpiio", "chaos"];

/// Crates whose *library* code must be panic-free: the middleware sits on
/// every I/O path, so a panic is an availability bug (ECI-Cache/LBICA
/// treat cache-server failure as first-order). `lint` is included for the
/// macro/`unwrap` checks so the tool holds itself to the bar it enforces.
/// `chaos` is included because the harness must report a violation, not
/// die: an engine panic inside a scheduled run is itself converted to a
/// finding (`run_caught`), which only works if the harness around the
/// catch is panic-free.
pub const PANIC_CRATES: &[&str] = &["core", "pfs", "mpiio", "lint", "chaos"];

/// Crates additionally checked for panicking slice/array indexing.
/// Narrower than [`PANIC_CRATES`]: the middleware crates only, per the
/// availability argument above.
pub const INDEX_CRATES: &[&str] = &["core", "pfs", "mpiio"];

/// Files that serialize journal, checkpoint, or report state. Iterating a
/// `HashMap`/`HashSet` while producing those byte streams makes the
/// output order nondeterministic — exactly the bug class that breaks
/// byte-for-byte crash-matrix comparison.
pub const SERIALIZATION_FILES: &[&str] = &[
    "crates/core/src/durability/journal.rs",
    "crates/mpiio/src/report.rs",
    "crates/pfs/src/faults.rs",
    "crates/chaos/src/report.rs",
];

/// Function-name fragments that mark a serialization path in the
/// determinism crates even outside [`SERIALIZATION_FILES`].
pub const SERIALIZATION_FN_PATTERNS: &[&str] =
    &["journal", "checkpoint", "serialize", "snapshot", "report"];

/// Calls that perform (simulated) device I/O or journal appends. Holding
/// any lock across one of these stalls every thread contending for the
/// lock for a device-latency bound — flagged by `lock-across-io`.
pub const DEVICE_IO_FNS: &[&str] = &[
    "append_journal_sync",
    "apply_bytes",
    "read_bytes",
    "discard",
    "submit",
];

/// The synchronous journal-append primitive of the durability protocol.
pub const JOURNAL_SYNC_FN: &str = "append_journal_sync";

/// The batched (group-commit) journal planner.
pub const JOURNAL_BATCH_FN: &str = "journal_op";

/// The data-phase op constructor; must never follow the journal op in a
/// plan-building function (data before metadata).
pub const DATA_OP_FN: &str = "data_op";

/// The crash-fuse charge call every durable effect must pass through so
/// the torture matrix can crash inside it.
pub const FUSE_FN: &str = "fuse_consume";

/// Durable-effect calls that must be fuse-gated in files participating in
/// the durability protocol.
pub const DURABLE_EFFECT_FNS: &[&str] = &["apply_bytes", "discard"];

/// Journal record constructors whose durability ordering is checked.
pub const INTENT_RECORD: &str = "FlushIntent";

/// Call names the call-graph builder never resolves: std-prelude shadows
/// so ubiquitous that a bare-name edge would connect unrelated components
/// through the standard library's vocabulary, not through real calls.
/// Dropping them loses at most real same-named workspace helpers — the
/// conservative direction (fewer edges, never an impossible path); see
/// `callgraph` and DESIGN.md §10.
pub const CALL_NAME_STOPLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "push",
    "pop",
    "get",
    "get_mut",
    "insert",
    "remove",
    "clear",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "next",
    "drain",
    "take",
    "extend",
    "retain",
    "from",
    "into",
    "to_string",
    "as_str",
    "as_ref",
    "as_mut",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "min",
    "max",
    "sum",
    "write",
    "read",
    "lock",
    "flush",
    "name",
    "map",
    "filter",
    "collect",
    "find",
    "position",
    "sort",
    "split",
    "join",
    "first",
    "last",
];

/// A bare call name with this many (or more) workspace definitions is
/// treated as unresolvable: past this point the edges are trait-dispatch
/// noise, not information. Like the stoplist, this degrades toward fewer
/// edges.
pub const CALL_RESOLUTION_CAP: usize = 4;

/// Crates whose unrestricted `pub fn`s are the roots of the `panic-path`
/// reachability analysis: the middleware's public API surface (what the
/// MPI-IO runner and library consumers actually call).
pub const PANIC_PATH_ROOT_CRATES: &[&str] = &["core", "mpiio"];

/// Crates whose retry/hedge loops the `unbounded-retry` rule audits:
/// the runner (replans, hedges, deadline timers) and the middleware
/// (retry directives, backoff) — the gray-failure escalation machinery,
/// every stage of which must be visibly bounded.
pub const RETRY_CRATES: &[&str] = &["core", "mpiio"];

/// Call-name fragments that mark a call as retry/hedge dispatch
/// (matched case-insensitively as substrings of the callee name).
pub const RETRY_CALL_PATTERNS: &[&str] = &["retry", "hedge", "replan", "resubmit", "redrive"];

/// Identifier fragments accepted as evidence that a retry loop is
/// bounded: an iteration cap, an attempt counter, or a budget/deadline
/// check somewhere in the enclosing function or the retry helper.
pub const RETRY_BOUND_PATTERNS: &[&str] = &["max", "attempt", "budget", "cap", "limit", "deadline"];

/// Files allowed to touch the raw metadata components (`Dmt`,
/// `SpaceManager`, `Cdt`) directly: the shard plane and router that own
/// them, the component implementations themselves, and the
/// replay/recovery paths that rebuild a `Dmt` before it is adopted into
/// a plane. Everywhere else in `core`, DMT/space/CDT mutations must go
/// through the plane's routed API (`shard-discipline`) — a direct
/// component mutation bypasses shard routing and silently breaks the
/// shard-count-invariance guarantee.
pub const SHARD_OWNER_FILES: &[&str] = &[
    "crates/core/src/shard/mod.rs",
    "crates/core/src/shard/router.rs",
    "crates/core/src/shard/plane.rs",
    "crates/core/src/dmt/mod.rs",
    "crates/core/src/dmt/view.rs",
    "crates/core/src/space.rs",
    "crates/core/src/cdt.rs",
    "crates/core/src/durability/replay.rs",
    "crates/core/src/durability/recovery.rs",
];

/// Receiver identifiers that denote a raw metadata component (a field or
/// local named after the component) for the `shard-discipline` rule.
pub const SHARD_COMPONENT_RECEIVERS: &[&str] = &["dmt", "space", "cdt"];

/// Component methods that mutate metadata or space state. A call
/// `dmt.insert(…)` / `space.release(…)` / `cdt.set_c_flag(…)` outside
/// [`SHARD_OWNER_FILES`] is a `shard-discipline` finding.
pub const SHARD_MUTATOR_FNS: &[&str] = &[
    "insert",
    "remove",
    "mark_dirty",
    "mark_clean",
    "mark_clean_if",
    "seal",
    "seal_if",
    "unseal",
    "force_clean",
    "touch_range",
    "apply_seal",
    "clear_dirty_checksums",
    "take_pending_journal",
    "drain_pending_journal",
    "evict_clean_lru_excluding",
    "alloc",
    "release",
    "rebuild",
    "set_c_flag",
    "clear_c_flag",
];

/// Router dispatch calls: an index expression containing one of these is
/// **routed** — it came out of the `ShardRouter` that defines shard
/// ownership (`shard_of(file, offset)`, or the `segments(…)` /
/// `segments_iter(…)` split whose items carry a `.shard` field). The
/// `shard-affinity` alias analysis accepts shard-state access only
/// through such provenance.
pub const ROUTER_DISPATCH_FNS: &[&str] = &["shard_of", "segments", "segments_iter"];

/// The plane's internal shard accessors: `shard(idx)` / `shard_mut(idx)`
/// select one shard's state by index, so the *index* argument must carry
/// routed provenance.
pub const SHARD_ACCESSOR_FNS: &[&str] = &["shard", "shard_mut"];

/// All-shards iterators: a binding destructured from one of these visits
/// every shard uniformly — routed by construction (each iteration step
/// owns exactly the shard it holds).
pub const SHARD_ITER_FNS: &[&str] = &["shards", "shards_mut"];

/// Identifier fragments accepted in an index-binding initializer as
/// evidence of a uniform all-shards sweep (`for shard in
/// 0..plane.shard_count()`).
pub const SHARD_SWEEP_FNS: &[&str] = &["shard_count"];

/// `MetadataPlane` methods taking a shard index as their **first**
/// argument. A call `plane.alloc(idx, …)` hands `idx` straight to the
/// per-shard state, so the caller-side index expression must be routed.
pub const PLANE_INDEXED_FNS: &[&str] = &[
    "alloc",
    "release",
    "fits",
    "shard_available",
    "evict_clean_lru_excluding",
    "take_shard_pending",
];

/// The receiver identifier that marks a plane-indexed call site
/// (`self.plane.alloc(…)`, `plane.release(…)`). Inside the plane itself
/// the receiver is `self` and the accessor checks apply instead.
pub const PLANE_RECEIVER: &str = "plane";

/// Calls that block the calling thread on (simulated or real) device
/// latency: device I/O, fsync-class persistence barriers, and the
/// synchronous journal append. The `async-ready` rule reports any of
/// these reachable while a lock may be held in a function on the future
/// service entry surface — the classic async-runtime pitfall (a blocked
/// executor thread stalls every task scheduled on it).
pub const BLOCKING_FNS: &[&str] = &[
    "append_journal_sync",
    "apply_bytes",
    "read_bytes",
    "discard",
    "submit",
    "sync_all",
    "sync_data",
    "fsync",
];

/// Crates whose unrestricted `pub fn`s form the future service entry
/// surface (`async-ready` roots): the same public API the tokio front
/// end (ROADMAP item 5) will call from executor threads.
pub const SERVICE_SURFACE_CRATES: &[&str] = &["core", "mpiio"];

/// Hot-path modules under the allocation lint (`hot-alloc`): the
/// identify→redirect→admit pipeline, the shard plane, the group-commit
/// queue, and the runner's exec/drain stages — the code ROADMAP item 2
/// commits to making allocation-free. Matched as a path prefix for
/// directories and exactly for files.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/pipeline/",
    "crates/core/src/shard/",
    "crates/core/src/durability/group.rs",
    "crates/mpiio/src/runner/exec.rs",
    "crates/mpiio/src/runner/drain.rs",
];

/// True when a workspace-relative path lies in the hot-path set.
pub fn is_hot_path(rel: &str) -> bool {
    HOT_PATH_FILES.iter().any(|p| {
        if p.ends_with('/') {
            rel.starts_with(p)
        } else {
            rel == *p
        }
    })
}

/// Maximum non-test code lines per library module (`file-budget`).
/// `#[cfg(test)]` / `#[test]` spans and files under `tests/`, `examples/`,
/// or `benches/` do not count: the budget exists to keep *components*
/// reviewable, and the component-architecture refactor (DESIGN.md §12)
/// is what it guards — a module growing past this line count is a sign
/// a seam was missed.
pub const FILE_BUDGET_MAX_LINES: usize = 800;
