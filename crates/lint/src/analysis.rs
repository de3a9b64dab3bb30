//! The analyzed workspace the interprocedural rule (`panic-path`) walks:
//! parsed files, their items, and the call graph linking them.

use crate::callgraph::{CallGraph, FnId};
use crate::items::{FnItem, ItemIndex};
use crate::source::SourceFile;

/// Parsed files, items, and the call graph over them.
pub struct Analysis<'a> {
    /// The parsed files, in walk order.
    pub files: &'a [SourceFile],
    /// Item index per file (parallel to `files`).
    pub items: &'a [ItemIndex],
    /// The call graph over the non-test library functions.
    pub graph: CallGraph,
}

impl<'a> Analysis<'a> {
    /// Builds the call graph over parsed files + items.
    pub fn build(files: &'a [SourceFile], items: &'a [ItemIndex]) -> Analysis<'a> {
        Analysis {
            files,
            items,
            graph: CallGraph::build(files, items),
        }
    }

    /// The [`FnItem`] behind a node id.
    pub fn fn_item(&self, id: FnId) -> &FnItem {
        let (fi, ni) = self.graph.nodes[id];
        &self.items[fi].fns[ni]
    }

    /// The file a node is defined in.
    pub fn file_of(&self, id: FnId) -> &SourceFile {
        &self.files[self.graph.nodes[id].0]
    }

    /// Renders one `file:line fn` chain step.
    pub fn step(&self, id: FnId, line: u32) -> String {
        format!(
            "{}:{} fn {}",
            self.file_of(id).rel,
            line,
            self.fn_item(id).name
        )
    }
}
