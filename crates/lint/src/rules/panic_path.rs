//! `panic-path`: the transitive panic surface of the public API.
//!
//! The lexical `panic` rule flags panic *sites* in the panic-free crates.
//! This rule asks the complementary interprocedural question: which panic
//! sites — anywhere in the workspace, including crates outside
//! [`crate::config::PANIC_CRATES`] — are *reachable* from the public API
//! of the middleware crates ([`crate::config::PANIC_PATH_ROOT_CRATES`]),
//! i.e. from an unrestricted `pub fn` that the MPI-IO runner or a library
//! consumer can actually call?
//!
//! Mechanics: a breadth-first reachability pass over the call graph from
//! every public root; each panic event in a reached function becomes one
//! finding, **anchored at the panic site** and carrying the shortest
//! witness call chain (root first). Anchoring at the site means the
//! pragma that justifies the site under the lexical rule
//! (`allow(panic) — …`) also justifies its reachability — one
//! justification covers the construct and every path to it.
//!
//! Severity is *warning*: the conservative call graph over-approximates
//! dispatch (every same-named workspace fn is a possible callee), so a
//! reported path may be infeasible. The chain makes each report cheap to
//! audit; the `panic` rule remains the hard error for the crates that
//! must be panic-free.

use std::collections::BTreeSet;

use crate::analysis::Analysis;
use crate::callgraph::{FnId, ROOT_PARENT};
use crate::config;
use crate::diag::{Diagnostic, Severity};
use crate::items::EventKind;

/// Runs panic reachability from the public API roots.
pub fn check(a: &Analysis, out: &mut Vec<Diagnostic>) {
    let roots: Vec<FnId> = (0..a.graph.len())
        .filter(|&id| {
            a.fn_item(id).is_pub
                && config::PANIC_PATH_ROOT_CRATES.contains(&a.file_of(id).crate_name.as_str())
        })
        .collect();
    let parents = a.graph.reach(&roots);
    // One finding per (file, line): several roots may reach one site, and
    // one site may host several constructs on a line.
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for id in 0..a.graph.len() {
        if parents[id].is_none() {
            continue;
        }
        for ev in &a.fn_item(id).events {
            let EventKind::Panic { what } = ev.kind else {
                continue;
            };
            let file = a.file_of(id);
            if !seen.insert((file.rel.clone(), ev.line)) {
                continue;
            }
            let chain = chain_to(a, &parents, id, ev.line);
            let root = chain.first().cloned().unwrap_or_default();
            out.push(Diagnostic {
                path: file.path.clone(),
                line: ev.line,
                rule: "panic-path",
                message: format!("{what} is reachable from the public API ({root})"),
                hint: "make the panic impossible (return an error, clamp the index) or \
                       justify the site with `// s4d-lint: allow(panic) — <why>`, which \
                       covers its reachability too",
                severity: Severity::Warning,
                chain,
            });
        }
    }
}

/// Reconstructs the shortest root-to-site chain from BFS parent pointers:
/// each caller step renders at the line it calls the next function; the
/// final step is the panic site itself.
fn chain_to(
    a: &Analysis,
    parents: &[Option<(FnId, u32)>],
    id: FnId,
    panic_line: u32,
) -> Vec<String> {
    let mut rev: Vec<(FnId, u32)> = Vec::new();
    let mut cur = id;
    while let Some((p, call_line)) = parents[cur] {
        if p == ROOT_PARENT {
            break;
        }
        rev.push((p, call_line));
        cur = p;
    }
    let mut chain: Vec<String> = rev.iter().rev().map(|&(n, l)| a.step(n, l)).collect();
    chain.push(a.step(id, panic_line));
    chain
}
