//! The rule families. Each walks one [`SourceFile`]'s code-token stream;
//! the engine runs them per file, then applies that file's pragmas.

pub mod determinism;
pub mod durability;
pub mod file_budget;
pub mod panic_freedom;

use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Runs the rule families over one file.
pub fn check_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    determinism::check(file, out);
    panic_freedom::check(file, out);
    file_budget::check(file, out);
    durability::check(file, out);
}
