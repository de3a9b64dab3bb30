//! `durability`: raw durable effects live only in the durability engine.
//!
//! The DESIGN.md §9 write-ordering protocol is carried by `s4d-cache`'s
//! types: a discard needs the `DurabilityHandle` only a journal append
//! returns, flush plans are released against the same handle, a
//! `Pending` cannot be copied or dropped unattached, and every durable
//! effect is one `fused_*` call that charges the crash fuse and applies
//! the affordable prefix. What a type cannot say is "nobody calls the
//! raw effect directly" — `Cluster` is another crate's public API. This
//! rule says it: in `core` library code, `.apply_bytes(…)`,
//! `.copy_range(…)` and `cpfs_mut().discard(…)` may appear only under
//! `crates/core/src/durability/`, so an effect outside the engine is an
//! effect the crash-point torture matrix cannot crash inside. (A bare
//! `.discard(…)` is also the in-memory `ExtentStore` method the client
//! memory cache uses; only the CPFS receiver is a durable effect.)

use crate::config;
use crate::diag::{Diagnostic, Severity};
use crate::source::{FileKind, SourceFile};

/// The directory whose files implement the fused effects.
const ENGINE_DIR: &str = "crates/core/src/durability/";

/// Flags raw durable-effect calls in `core` outside the engine.
pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.crate_name != "core" || file.kind != FileKind::Lib || file.rel.starts_with(ENGINE_DIR) {
        return;
    }
    for i in 1..file.code.len() {
        let Some(name) = file.ident(i) else { continue };
        if !config::DURABLE_EFFECT_FNS.contains(&name)
            || !file.punct_is(i - 1, '.')
            || !file.punct_is(i + 1, '(')
        {
            continue;
        }
        // `discard` only through `cpfs_mut ( ) .`.
        if name == "discard" && i.checked_sub(4).and_then(|r| file.ident(r)) != Some("cpfs_mut") {
            continue;
        }
        let line = file.line_of(i);
        if file.in_test_span(line) {
            continue;
        }
        out.push(Diagnostic {
            path: file.path.clone(),
            line,
            rule: "durability",
            message: format!("raw durable effect `.{name}(…)` outside the durability engine"),
            hint: "go through DurabilityEngine (`discard_cache` with its handle, \
                   `fused_copy`, or a new `fused_*` effect next to them) so the \
                   crash fuse is charged in the same call — DESIGN.md §9, §12",
            severity: Severity::Error,
        });
    }
}
