//! Rule scoping tables — which crates, files, and symbols each rule
//! family covers. This is the single place the workspace's invariants are
//! spelled out; DESIGN.md §10 is the prose twin of this file.

/// One rule: its id and what it protects.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// The id findings carry and allow-pragmas name.
    pub id: &'static str,
    /// What the rule keeps true, in one line.
    pub guards: &'static str,
}

/// Every rule the engine knows — the one table `--list-rules`, the pragma
/// hint, and pragma validation all read, so retiring a rule is a
/// one-entry edit. An allow-pragma naming anything else is itself a
/// violation (a typo, or a retired id, must never suppress).
pub const RULES: &[Rule] = &[
    Rule {
        id: "determinism",
        guards: "no wall clock, OS entropy, OS threads or locks on the simulated I/O path",
    },
    Rule {
        id: "ordered-iter",
        guards: "no HashMap/HashSet/IdMap where journal, checkpoint or report bytes are produced",
    },
    Rule {
        id: "panic",
        guards: "no unwrap/expect/panic!/indexing in library code on the I/O path",
    },
    Rule {
        id: "durability",
        guards: "raw CPFS effects appear in `core` only inside the durability engine",
    },
    Rule {
        id: "file-budget",
        guards: "no library module past 800 non-test code lines",
    },
    Rule {
        id: "pragma",
        guards: "allow-pragmas are well-formed, justified, used, and name a live rule",
    },
];

/// True when `id` names a rule in [`RULES`].
pub fn is_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Crates whose behavior must be bit-for-bit deterministic: the simulator
/// and everything on the simulated I/O path. Wall-clock time, OS
/// randomness, and OS threads here would silently invalidate the
/// crash-matrix torture harness and replay-equivalence proptests.
/// `chaos` is included because its whole value proposition is
/// seed-reproducible runs: the same seed must replay byte-identically,
/// so ambient entropy or wall-clock reads there are bugs. Locks are
/// forbidden with the threads: nothing on this path is concurrent, and
/// keeping the premise true lexically is what lets the workspace do
/// without a lock-order analysis (`s4d-trace`'s collector mutex sits
/// outside this set).
pub const DETERMINISM_CRATES: &[&str] = &["sim", "core", "pfs", "mpiio", "chaos"];

/// Crates whose *library* code must be panic-free: the middleware sits on
/// every I/O path, so a panic is an availability bug (ECI-Cache/LBICA
/// treat cache-server failure as first-order). `sim`, `storage` and
/// `cost` are the layers below the public API that every request runs
/// through — the event queue, the device models and extent stores, the
/// cost model — so a panic there takes the middleware down just the
/// same. `lint` is included for the macro/`unwrap` checks so the tool
/// holds itself to the bar it enforces. `chaos` is included because the
/// harness must report a violation, not die: an engine panic inside a
/// scheduled run is itself converted to a finding (`run_caught`), which
/// only works if the harness around the catch is panic-free.
pub const PANIC_CRATES: &[&str] = &[
    "core", "pfs", "mpiio", "sim", "storage", "cost", "lint", "chaos",
];

/// Crates additionally checked for panicking slice/array indexing.
/// Narrower than [`PANIC_CRATES`]: the crates on the request path only,
/// per the availability argument above.
pub const INDEX_CRATES: &[&str] = &["core", "pfs", "mpiio", "sim", "storage", "cost"];

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

/// Raw durable-effect methods on the cluster's file systems. The
/// `durability` rule admits them in `core` only inside the durability
/// engine, where each sits in one call with its crash-fuse charge.
pub const DURABLE_EFFECT_FNS: &[&str] = &["apply_bytes", "discard", "copy_range"];

/// Maximum non-test code lines per library module (`file-budget`).
/// `#[cfg(test)]` / `#[test]` spans and files under `tests/`, `examples/`,
/// or `benches/` do not count: the budget exists to keep *components*
/// reviewable, and the component-architecture refactor (DESIGN.md §12)
/// is what it guards — a module growing past this line count is a sign
/// a seam was missed.
pub const FILE_BUDGET_MAX_LINES: usize = 800;
