//! `panic`: no panicking constructs in middleware library code.
//!
//! The S4D middleware sits on every I/O path of the simulated cluster
//! (PAPER.md §III, Algorithm 1): a panic in `core`/`pfs`/`mpiio` is an
//! availability bug of the same class ECI-Cache and LBICA treat as
//! first-order cache-server failures. Library code there must return
//! typed errors (`PfsError`-style enums); `unwrap`/`expect` are allowed
//! only with a pragma whose justification proves the invariant locally.
//!
//! Checked: `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`, `todo!`,
//! `unimplemented!`, and (in the middleware crates) panicking slice/array
//! indexing `x[…]`. Test code — `tests/`, `examples/`, `benches/`, and
//! `#[cfg(test)]` spans — is exempt: tests *should* fail loudly. So are
//! `const`/`static` initializer expressions: those evaluate at build
//! time, where a panic is a compile error, not a runtime availability
//! bug.

use crate::config;
use crate::diag::{Diagnostic, Severity};
use crate::items::const_init_spans;
use crate::lexer::Tok;
use crate::source::SourceFile;

/// Runs the panic-freedom family.
pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind.is_test_like() {
        return;
    }
    let macro_scope = config::PANIC_CRATES.contains(&file.crate_name.as_str());
    let index_scope = config::INDEX_CRATES.contains(&file.crate_name.as_str());
    if !macro_scope && !index_scope {
        return;
    }
    let const_spans = const_init_spans(file);
    for i in 0..file.code.len() {
        let line = file.line_of(i);
        if file.in_test_span(line) || const_spans.iter().any(|r| r.contains(&i)) {
            continue;
        }
        if macro_scope {
            method_calls(file, i, line, out);
            panic_macros(file, i, line, out);
        }
        if index_scope {
            indexing(file, i, line, out);
        }
    }
}

fn method_calls(file: &SourceFile, i: usize, line: u32, out: &mut Vec<Diagnostic>) {
    if !file.punct_is(i, '.') {
        return;
    }
    let name = match file.ident(i + 1) {
        Some(n @ ("unwrap" | "expect")) => n,
        _ => return,
    };
    if !file.punct_is(i + 2, '(') {
        return;
    }
    out.push(Diagnostic {
        path: file.path.clone(),
        line,
        rule: "panic",
        message: format!("`.{name}()` in library code of crate `{}`", file.crate_name),
        hint: "return a typed error (see pfs::error) or restructure so the invariant \
               is explicit; if locally provable, justify with \
               `// s4d-lint: allow(panic) — <proof>`",
        severity: Severity::Error,
    });
}

fn panic_macros(file: &SourceFile, i: usize, line: u32, out: &mut Vec<Diagnostic>) {
    let name = match file.ident(i) {
        Some(n @ ("panic" | "unreachable" | "todo" | "unimplemented")) => n,
        _ => return,
    };
    if !file.punct_is(i + 1, '!') {
        return;
    }
    out.push(Diagnostic {
        path: file.path.clone(),
        line,
        rule: "panic",
        message: format!("`{name}!` in library code of crate `{}`", file.crate_name),
        hint: "return a typed error instead of aborting the middleware; if the arm is \
               locally unreachable, justify with `// s4d-lint: allow(panic) — <proof>`",
        severity: Severity::Error,
    });
}

/// Reserved words that can directly precede `[` in non-indexing positions.
fn is_keyword(w: &str) -> bool {
    matches!(
        w,
        "let"
            | "in"
            | "return"
            | "if"
            | "else"
            | "match"
            | "mut"
            | "ref"
            | "move"
            | "break"
            | "const"
            | "static"
            | "as"
            | "yield"
    )
}

/// Flags postfix `[` — indexing — which panics out of bounds. Postfix
/// means the previous token can end an expression: an identifier, a
/// literal, `)`, `]`, or `?`. Array *types* (`[u8; 4]`), attributes
/// (`#[…]`), macro brackets (`vec![…]`), and slice patterns (after a
/// keyword like `let`, or after `,`/`(`) are preceded by non-postfix
/// tokens and never match.
fn indexing(file: &SourceFile, i: usize, line: u32, out: &mut Vec<Diagnostic>) {
    if !file.punct_is(i, '[') || i == 0 {
        return;
    }
    let postfix = match file.code.get(i - 1).map(|t| &t.tok) {
        // Keywords end no expression: `let [a, b] = …` is a pattern,
        // `in [1, 2]` an array literal, `return [x]` likewise.
        Some(Tok::Ident(w)) => !is_keyword(w),
        Some(Tok::Number | Tok::Str | Tok::Punct(')' | ']' | '?')) => true,
        _ => false,
    };
    if !postfix {
        return;
    }
    out.push(Diagnostic {
        path: file.path.clone(),
        line,
        rule: "panic",
        message: format!(
            "slice/array indexing in library code of crate `{}` (panics out of bounds)",
            file.crate_name
        ),
        hint: "use .get()/.get_mut() with a typed error, a checked cursor, or iterators; \
               if the bound is locally provable, justify with \
               `// s4d-lint: allow(panic) — <proof>`",
        severity: Severity::Error,
    });
}
