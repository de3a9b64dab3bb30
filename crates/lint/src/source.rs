//! Source-file model: lexed tokens plus the structure rules need —
//! workspace-relative path, owning crate, file role (library / test /
//! example), `#[cfg(test)]` spans, and a function index.

use std::path::PathBuf;

use crate::lexer::{lex, Tok, Token};

/// The role a file plays in the workspace; several rules only apply to
/// library code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` of a crate — library code.
    Lib,
    /// `tests/**` — integration tests.
    TestDir,
    /// `examples/**`.
    Example,
    /// `benches/**`.
    Bench,
}

impl FileKind {
    /// True for test, example, and bench files — code that may panic
    /// freely.
    pub fn is_test_like(self) -> bool {
        !matches!(self, FileKind::Lib)
    }
}

/// One function's extent in the code-token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Code-token range of the body (inside the braces, exclusive of
    /// both). Empty for bodyless declarations.
    pub body: std::ops::Range<usize>,
}

/// A lexed, classified source file ready for rule checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute (or as-given) path, for diagnostics.
    pub path: PathBuf,
    /// Workspace-relative path with forward slashes, for scoping tables.
    pub rel: String,
    /// Short crate name (`core`, `pfs`, …) for `crates/<name>/…` files;
    /// the facade crate's `src/` maps to `s4d`.
    pub crate_name: String,
    /// File role.
    pub kind: FileKind,
    /// Token stream with comments removed — what rules pattern-match on.
    pub code: Vec<Token>,
    /// Comment tokens only (pragma parsing).
    pub comments: Vec<Token>,
    /// 1-based line spans covered by `#[cfg(test)]` / `#[test]` items.
    pub test_spans: Vec<(u32, u32)>,
    /// Indexed functions, in source order. Nested functions appear both
    /// standalone and inside their parent's body range.
    pub fns: Vec<FnSpan>,
    /// Lines that contain at least one code token (pragma reach).
    pub code_lines: Vec<u32>,
    /// Line of the last token in the file (pragma reach at EOF).
    pub last_line: u32,
}

/// Derives `rel`, `crate_name`, and [`FileKind`] from a path relative to
/// the workspace root.
fn classify(rel: &str) -> (String, FileKind) {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, tail) = if parts.first() == Some(&"crates") && parts.len() > 2 {
        (
            parts.get(1).copied().unwrap_or_default().to_string(),
            &parts[2..],
        )
    } else {
        ("s4d".to_string(), &parts[..])
    };
    let kind = match tail.first().copied() {
        Some("tests") => FileKind::TestDir,
        Some("examples") => FileKind::Example,
        Some("benches") => FileKind::Bench,
        _ => FileKind::Lib,
    };
    (crate_name, kind)
}

impl SourceFile {
    /// Lexes and indexes `src`. `rel` is the workspace-relative path (used
    /// for scoping); `path` is what diagnostics print.
    pub fn parse(path: PathBuf, rel: String, src: &str) -> SourceFile {
        let tokens = lex(src);
        let mut code = Vec::new();
        let mut comments = Vec::new();
        for t in tokens {
            match t.tok {
                Tok::LineComment(_) | Tok::BlockComment(_) => comments.push(t),
                _ => code.push(t),
            }
        }
        let (crate_name, kind) = classify(&rel);
        let test_spans = find_test_spans(&code);
        let fns = index_fns(&code);
        let mut code_lines: Vec<u32> = code.iter().map(|t| t.line).collect();
        code_lines.dedup();
        let last_line = code
            .last()
            .map(|t| t.line)
            .max(comments.last().map(|t| t.line))
            .unwrap_or(1);
        SourceFile {
            path,
            rel,
            crate_name,
            kind,
            code,
            comments,
            test_spans,
            fns,
            code_lines,
            last_line,
        }
    }

    /// True if `line` falls inside a `#[cfg(test)]` / `#[test]` item.
    pub fn in_test_span(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// The identifier text of code token `i`, if it is an identifier.
    pub fn ident(&self, i: usize) -> Option<&str> {
        match self.code.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    /// True if code token `i` is exactly the punctuation char `c`.
    pub fn punct_is(&self, i: usize, c: char) -> bool {
        matches!(self.code.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
    }

    /// Line of code token `i` (or the file's last line when out of range).
    pub fn line_of(&self, i: usize) -> u32 {
        self.code.get(i).map(|t| t.line).unwrap_or(self.last_line)
    }
}

/// Finds the matching `}` for the `{` at code index `open`. Returns the
/// index one past the end on unbalanced input (graceful degradation).
pub fn match_brace(code: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while let Some(t) = code.get(i) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    code.len()
}

/// Collects the line spans of items annotated with a test attribute:
/// `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]` — any attribute whose
/// identifier set contains `test` and not `not`.
fn find_test_spans(code: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if !(matches!(code.get(i).map(|t| &t.tok), Some(Tok::Punct('#')))
            && matches!(code.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('['))))
        {
            i += 1;
            continue;
        }
        let attr_start = i;
        // Find the attribute's closing bracket.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut idents: Vec<&str> = Vec::new();
        while let Some(t) = code.get(j) {
            match &t.tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(s) => idents.push(s),
                _ => {}
            }
            j += 1;
        }
        let is_test_attr = idents.contains(&"test") && !idents.contains(&"not");
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then take the next braced body.
        let mut k = j + 1;
        while matches!(code.get(k).map(|t| &t.tok), Some(Tok::Punct('#')))
            && matches!(code.get(k + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
        {
            let mut d = 0usize;
            while let Some(t) = code.get(k) {
                match t.tok {
                    Tok::Punct('[') => d += 1,
                    Tok::Punct(']') => {
                        d = d.saturating_sub(1);
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        while let Some(t) = code.get(k) {
            if matches!(t.tok, Tok::Punct('{')) {
                break;
            }
            if matches!(t.tok, Tok::Punct(';')) {
                // Bodyless item (e.g. `mod tests;`): span is just the item.
                break;
            }
            k += 1;
        }
        let end = if matches!(code.get(k).map(|t| &t.tok), Some(Tok::Punct('{'))) {
            match_brace(code, k)
        } else {
            k
        };
        let start_line = code.get(attr_start).map(|t| t.line).unwrap_or(1);
        let end_line = code
            .get(end)
            .or_else(|| code.last())
            .map(|t| t.line)
            .unwrap_or(start_line);
        spans.push((start_line, end_line));
        i = end + 1;
    }
    spans
}

/// Indexes every `fn name … { body }` in the stream.
fn index_fns(code: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let is_fn = matches!(code.get(i).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "fn");
        if !is_fn {
            i += 1;
            continue;
        }
        let Some(Tok::Ident(name)) = code.get(i + 1).map(|t| &t.tok) else {
            i += 1;
            continue;
        };
        // Scan to the body's `{` or a bodyless `;`.
        let mut j = i + 2;
        while let Some(t) = code.get(j) {
            if matches!(t.tok, Tok::Punct('{') | Tok::Punct(';')) {
                break;
            }
            j += 1;
        }
        if matches!(code.get(j).map(|t| &t.tok), Some(Tok::Punct('{'))) {
            let close = match_brace(code, j);
            fns.push(FnSpan {
                name: name.clone(),
                body: j + 1..close,
            });
        }
        i = j + 1;
    }
    fns
}
