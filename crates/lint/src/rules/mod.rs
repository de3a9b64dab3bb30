//! The rule families, in two tiers:
//!
//! * **per-file** rules walk one [`SourceFile`]'s code-token stream (with
//!   its [`ItemIndex`] for const-initializer exemptions);
//! * the **graph** rule (`panic-path`) walks the [`Analysis`] — the call
//!   graph over the whole parsed set — and may anchor findings in any
//!   file.
//!
//! The engine runs both tiers, then applies pragmas per file.

pub mod alloc;
pub mod determinism;
pub mod durability;
pub mod file_budget;
pub mod panic_freedom;
pub mod panic_path;

use crate::analysis::Analysis;
use crate::diag::Diagnostic;
use crate::items::ItemIndex;
use crate::source::SourceFile;

/// Runs the per-file rule families over one file.
pub fn check_file(file: &SourceFile, items: &ItemIndex, out: &mut Vec<Diagnostic>) {
    determinism::check(file, out);
    panic_freedom::check(file, items, out);
    file_budget::check(file, out);
    durability::check(file, out);
    alloc::check(file, out);
}

/// Runs the interprocedural rule over the analyzed workspace.
pub fn check_graph(a: &Analysis, out: &mut Vec<Diagnostic>) {
    panic_path::check(a, out);
}
