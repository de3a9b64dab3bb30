//! Allow-pragma parsing.
//!
//! A diagnostic is suppressed by an in-source pragma of the form
//!
//! ```text
//! // s4d-lint: allow(rule-id) — justification text
//! ```
//!
//! The justification is **required**: an allow without one is itself a
//! `pragma` violation, as is an allow naming a rule that does not exist —
//! a misspelled rule must never silently suppress anything. Several rules
//! may be allowed at once: `allow(panic, durability) — …`. The separator
//! before the justification is an em-dash `—`, a double hyphen `--`, or
//! a colon `:`.
//!
//! Reach: a pragma on the same line as code covers that line; a pragma on
//! a line of its own covers the next line that contains code (so it can
//! sit above the statement it justifies, including above a short comment
//! block).

use crate::source::SourceFile;

/// One parsed `s4d-lint:` pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Rule ids this pragma allows.
    pub rules: Vec<String>,
    /// Line the pragma comment starts on.
    pub line: u32,
    /// The line range `[from, to]` the pragma covers.
    pub covers: (u32, u32),
    /// Whether a non-empty justification followed the rule list.
    pub justified: bool,
    /// Whether the pragma parsed structurally (`allow(…)` present).
    pub well_formed: bool,
    /// Set by the engine when some diagnostic was actually suppressed.
    pub used: std::cell::Cell<bool>,
}

/// Extracts every pragma from a file's comments.
pub fn pragmas(file: &SourceFile) -> Vec<Pragma> {
    use crate::lexer::Tok;
    let mut out = Vec::new();
    for c in &file.comments {
        let text = match &c.tok {
            Tok::LineComment(t) | Tok::BlockComment(t) => t,
            _ => continue,
        };
        // Doc comments (`///…` lexes as a line comment whose text starts
        // with `/`; `//!` with `!`; `/**`/`/*!` likewise) never carry
        // pragmas — they may *describe* the pragma format.
        if text.starts_with('/') || text.starts_with('!') || text.starts_with('*') {
            continue;
        }
        let Some(at) = text.find("s4d-lint:") else {
            continue;
        };
        let body = text
            .get(at + "s4d-lint:".len()..)
            .unwrap_or_default()
            .trim_start();
        out.push(parse_body(file, body, c.line));
    }
    out
}

fn parse_body(file: &SourceFile, body: &str, line: u32) -> Pragma {
    let mut p = Pragma {
        rules: Vec::new(),
        line,
        covers: cover_range(file, line),
        justified: false,
        well_formed: false,
        used: std::cell::Cell::new(false),
    };
    let Some(rest) = body.strip_prefix("allow") else {
        return p;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return p;
    };
    let Some(close) = rest.find(')') else {
        return p;
    };
    let list = rest.get(..close).unwrap_or_default();
    p.rules = list
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    p.well_formed = !p.rules.is_empty();
    let tail = rest.get(close + 1..).unwrap_or_default().trim_start();
    let justification = ["—", "--", ":"]
        .iter()
        .find_map(|sep| tail.strip_prefix(sep))
        .unwrap_or_default()
        .trim();
    p.justified = !justification.is_empty();
    p
}

/// Computes the lines a pragma at `line` covers: its own line, and — when
/// no code shares that line — every line up to and including the next
/// line that contains code.
fn cover_range(file: &SourceFile, line: u32) -> (u32, u32) {
    if file.code_lines.binary_search(&line).is_ok() {
        return (line, line);
    }
    let next_code = file
        .code_lines
        .iter()
        .find(|&&l| l > line)
        .copied()
        .unwrap_or(file.last_line);
    (line, next_code)
}

impl Pragma {
    /// True when this pragma suppresses `rule` on `line`.
    pub fn suppresses(&self, rule: &str, line: u32) -> bool {
        self.well_formed
            && self.justified
            && self.covers.0 <= line
            && line <= self.covers.1
            && self.rules.iter().any(|r| r == rule)
    }
}
