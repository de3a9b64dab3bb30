//! Conservative, name-resolved workspace call graph.
//!
//! Nodes are the non-test library functions of every linted file
//! ([`crate::items::FnItem`]s with [`FileKind::Lib`] role outside
//! `#[cfg(test)]` spans). Edges come from `Event::Call` names resolved by
//! **bare final segment**: a call `helper(…)`, `self.helper(…)`, or
//! `path::helper(…)` gains an edge to *every* workspace function named
//! `helper`. That over-approximates trait dispatch (all impls of a
//! method are linked) and under-approximates nothing the workspace
//! defines — with two documented exceptions that keep the graph useful:
//!
//! * names on the [`crate::config::CALL_NAME_STOPLIST`] (std-prelude
//!   shadows such as `new`, `len`, `push`) never resolve — they would
//!   connect unrelated components through the std shadow; and
//! * names with [`crate::config::CALL_RESOLUTION_CAP`] or more workspace
//!   definitions are treated as unresolvable — past that point the
//!   "edges" are noise, not information.
//!
//! Both caveats degrade toward *fewer* edges, so the analyses built on
//! the graph (panic reachability) may miss paths routed through
//! ubiquitous names but never invent impossible ones.
//! DESIGN.md §10 records the trade-off.

use std::collections::BTreeMap;

use crate::config;
use crate::items::{EventKind, ItemIndex};
use crate::source::{FileKind, SourceFile};

/// Identifies one function: `(file index, fn index within the file)`
/// flattened to a single graph id.
pub type FnId = usize;

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// The callee.
    pub callee: FnId,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
}

/// The workspace call graph plus the node table to interpret it.
#[derive(Debug)]
pub struct CallGraph {
    /// `(file index, fn index)` for every node, in deterministic
    /// (file-order, source-order) sequence.
    pub nodes: Vec<(usize, usize)>,
    /// Resolved outgoing edges per node, in call-site order.
    pub edges: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Builds the graph over the parsed workspace. `files[k]` must
    /// correspond to `items[k]`.
    pub fn build(files: &[SourceFile], items: &[ItemIndex]) -> CallGraph {
        let mut nodes = Vec::new();
        for (fi, idx) in items.iter().enumerate() {
            if files[fi].kind != FileKind::Lib {
                continue;
            }
            for (ni, f) in idx.fns.iter().enumerate() {
                if !f.in_test {
                    nodes.push((fi, ni));
                }
            }
        }
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        for (id, &(fi, ni)) in nodes.iter().enumerate() {
            by_name
                .entry(items[fi].fns[ni].name.clone())
                .or_default()
                .push(id);
        }
        by_name.retain(|name, ids| {
            ids.len() < config::CALL_RESOLUTION_CAP
                && !config::CALL_NAME_STOPLIST.contains(&name.as_str())
        });
        let mut edges = vec![Vec::new(); nodes.len()];
        for (id, &(fi, ni)) in nodes.iter().enumerate() {
            for ev in &items[fi].fns[ni].events {
                let EventKind::Call { name, .. } = &ev.kind else {
                    continue;
                };
                let Some(targets) = by_name.get(name) else {
                    continue;
                };
                for &t in targets {
                    if t == id {
                        continue; // self-recursion adds no information
                    }
                    edges[id].push(Edge {
                        callee: t,
                        line: ev.line,
                    });
                }
            }
        }
        CallGraph { nodes, edges }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Breadth-first reachability from `roots` (deduplicated, in order).
    /// Returns, for every node, `Some(parent)` when reached — parents
    /// reconstruct a shortest call chain — with roots marked as
    /// `Some(ROOT_PARENT)`. Deterministic: ties resolve in node order.
    pub fn reach(&self, roots: &[FnId]) -> Vec<Option<(FnId, u32)>> {
        let mut parent: Vec<Option<(FnId, u32)>> = vec![None; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        for &r in roots {
            if parent[r].is_none() {
                parent[r] = Some((ROOT_PARENT, 0));
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for e in &self.edges[n] {
                if parent[e.callee].is_none() {
                    parent[e.callee] = Some((n, e.line));
                    queue.push_back(e.callee);
                }
            }
        }
        parent
    }
}

/// Sentinel parent id for BFS roots.
pub const ROOT_PARENT: FnId = usize::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use std::path::PathBuf;

    fn ws(sources: &[(&str, &str)]) -> (Vec<SourceFile>, Vec<ItemIndex>) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| SourceFile::parse(PathBuf::from(rel), rel.to_string(), src))
            .collect();
        let idx = files.iter().map(items::index).collect();
        (files, idx)
    }

    fn node_named(g: &CallGraph, items: &[ItemIndex], name: &str) -> FnId {
        g.nodes
            .iter()
            .position(|&(fi, ni)| items[fi].fns[ni].name == name)
            .unwrap()
    }

    #[test]
    fn cross_file_edges_resolve_by_name() {
        let (files, idx) = ws(&[
            ("crates/core/src/a.rs", "pub fn caller() { helper_x(); }"),
            (
                "crates/sim/src/b.rs",
                "pub fn helper_x() { leaf_y(); }\nfn leaf_y() {}",
            ),
        ]);
        let g = CallGraph::build(&files, &idx);
        let caller = node_named(&g, &idx, "caller");
        let helper = node_named(&g, &idx, "helper_x");
        let leaf = node_named(&g, &idx, "leaf_y");
        assert_eq!(g.edges[caller].len(), 1);
        assert_eq!(g.edges[caller][0].callee, helper);
        let reach = g.reach(&[caller]);
        assert!(reach[leaf].is_some(), "leaf reachable through two hops");
        assert_eq!(reach[leaf].unwrap().0, helper);
    }

    #[test]
    fn stoplisted_and_ambiguous_names_do_not_resolve() {
        let (files, idx) = ws(&[
            (
                "crates/core/src/a.rs",
                "pub fn caller(v: &mut Vec<u32>) { v.push(1); dup(); }",
            ),
            ("crates/core/src/b.rs", "pub fn push() {}\nfn dup() {}"),
            ("crates/pfs/src/c.rs", "fn dup() {}"),
            ("crates/sim/src/d.rs", "fn dup() {}"),
            ("crates/sim/src/e.rs", "fn dup() {}"),
        ]);
        let g = CallGraph::build(&files, &idx);
        let caller = node_named(&g, &idx, "caller");
        assert!(
            g.edges[caller].is_empty(),
            "`push` is stoplisted and `dup` (4 definitions) is over the cap: {:?}",
            g.edges[caller]
        );
    }

    #[test]
    fn test_span_fns_are_not_nodes() {
        let (files, idx) = ws(&[(
            "crates/core/src/a.rs",
            "pub fn lib_fn() {}\n#[cfg(test)]\nmod tests { fn helper_t() { super::lib_fn(); } }",
        )]);
        let g = CallGraph::build(&files, &idx);
        assert_eq!(g.len(), 1, "only the lib fn is a node");
    }
}
