//! Item parser: function definitions, call expressions, panic sites,
//! and const-initializer spans, extracted from the lexed token stream.
//!
//! This is the layer between the lexer and the one interprocedural rule
//! (`panic-path`): it turns each file's flat token stream into a list of
//! [`FnItem`]s, each carrying the ordered [`Event`]s its body performs.
//! The call-graph builder ([`crate::callgraph`]) resolves `Event::Call`
//! names to other [`FnItem`]s workspace-wide.
//!
//! Parsing is deliberately shallow: no expression trees, no types, no
//! generics. Function bodies are brace-matched token ranges; calls are
//! `name (` sequences (with macro bangs and `fn` definitions excluded);
//! nested function bodies are carved out of their parent's event list so
//! an inner `fn` never contributes events at its definition site.

use std::ops::Range;

use crate::lexer::Tok;
use crate::source::{match_brace, SourceFile};

/// One call-shaped or effect-shaped occurrence inside a function body,
/// in source order.
#[derive(Debug, Clone)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// 1-based source line.
    pub line: u32,
}

/// The kinds of event the rules consume.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A call expression `name(…)`, `.name(…)`, or `path::name(…)`.
    Call {
        /// Final path segment of the callee.
        name: String,
    },
    /// A panicking construct (`.unwrap()`, `panic!`, indexing, …).
    Panic {
        /// Human-readable description of the construct.
        what: &'static str,
    },
}

/// One parsed function definition.
#[derive(Debug)]
pub struct FnItem {
    /// The function's bare name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True for unrestricted `pub fn` (not `pub(crate)` etc.) — the
    /// public-API surface panic reachability starts from.
    pub is_pub: bool,
    /// Code-token range of the body (exclusive of both braces).
    pub body: Range<usize>,
    /// True when the body sits inside a `#[cfg(test)]`/`#[test]` span.
    pub in_test: bool,
    /// Direct events of the body, in source order, with nested function
    /// bodies excluded.
    pub events: Vec<Event>,
}

/// Everything the interprocedural layer needs from one file.
#[derive(Debug)]
pub struct ItemIndex {
    /// Parsed functions in source order.
    pub fns: Vec<FnItem>,
    /// Token ranges of `const`/`static` initializer expressions. Code in
    /// these ranges is evaluated at build time: a panic there is a
    /// compile error, not a runtime availability bug, so the panic rules
    /// skip it.
    pub const_spans: Vec<Range<usize>>,
}

impl ItemIndex {
    /// True when code token `i` falls inside a const/static initializer.
    pub fn in_const_init(&self, i: usize) -> bool {
        self.const_spans.iter().any(|r| r.contains(&i))
    }
}

/// Keywords that can precede `(` without forming a call.
fn is_keyword(w: &str) -> bool {
    matches!(
        w,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "fn"
            | "let"
            | "in"
            | "loop"
            | "move"
            | "else"
            | "as"
            | "impl"
            | "dyn"
            | "where"
            | "box"
            | "yield"
            | "await"
    )
}

/// Parses one file into its [`ItemIndex`].
pub fn index(file: &SourceFile) -> ItemIndex {
    let spans = fn_spans(file);
    let const_spans = const_init_spans(file);
    let mut fns = Vec::with_capacity(spans.len());
    for (k, s) in spans.iter().enumerate() {
        // Carve out every *other* function body nested inside this one so
        // an inner `fn` contributes events only to itself.
        let nested: Vec<Range<usize>> = spans
            .iter()
            .enumerate()
            .filter(|&(j, n)| j != k && n.body.start >= s.body.start && n.body.end <= s.body.end)
            .map(|(_, n)| n.sig_start..n.body.end + 1)
            .collect();
        let events = extract_events(file, s.body.clone(), &nested, &const_spans);
        fns.push(FnItem {
            name: s.name.clone(),
            line: file.line_of(s.sig_start),
            is_pub: s.is_pub,
            body: s.body.clone(),
            in_test: file.in_test_span(file.line_of(s.sig_start)),
            events,
        });
    }
    ItemIndex { fns, const_spans }
}

struct RawSpan {
    name: String,
    sig_start: usize,
    body: Range<usize>,
    is_pub: bool,
}

/// Scans the stream for `fn name … { body }` items, recording visibility.
fn fn_spans(file: &SourceFile) -> Vec<RawSpan> {
    let code = &file.code;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if file.ident(i) != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name) = file.ident(i + 1).map(str::to_string) else {
            i += 1;
            continue;
        };
        // Visibility: step back over qualifiers (`const`, `unsafe`,
        // `async`, `extern "C"`) to the token that could be `pub`. A
        // restricted `pub(crate)` leaves a `)` there instead.
        let mut q = i;
        while q > 0 {
            match code.get(q - 1).map(|t| &t.tok) {
                Some(Tok::Ident(w)) if matches!(w.as_str(), "const" | "unsafe" | "async") => q -= 1,
                Some(Tok::Str) => q -= 1, // the "C" of `extern "C"`
                Some(Tok::Ident(w)) if w == "extern" => q -= 1,
                _ => break,
            }
        }
        let is_pub =
            q > 0 && matches!(code.get(q - 1).map(|t| &t.tok), Some(Tok::Ident(w)) if w == "pub");
        // Scan to the body `{` or a bodyless `;` (trait/extern decls).
        let mut j = i + 2;
        while j < code.len() && !file.punct_is(j, '{') && !file.punct_is(j, ';') {
            j += 1;
        }
        if file.punct_is(j, '{') {
            let close = match_brace(code, j);
            out.push(RawSpan {
                name,
                sig_start: i,
                body: j + 1..close,
                is_pub,
            });
        }
        i = j + 1;
    }
    out
}

/// Token ranges of `const NAME … = <init> ;` and `static NAME … = <init> ;`
/// initializer expressions (`const fn` is a function, not a constant, and
/// `const N: usize` generic parameters carry no initializer).
fn const_init_spans(file: &SourceFile) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < file.code.len() {
        if !matches!(file.ident(i), Some("const" | "static")) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if file.ident(j) == Some("mut") {
            j += 1;
        }
        if file.ident(j).is_none() || file.ident(j) == Some("fn") {
            i = j + 1;
            continue;
        }
        // Scan the type position for the `=` at bracket depth 0. Angle
        // brackets count here (`Foo<T>` is a bracket pair in type
        // position); a `,`, `;`, or a closing bracket at depth 0 means a
        // const generic parameter or bodyless declaration — no span.
        j += 1;
        let mut depth = 0i32;
        let mut eq = None;
        while j < file.code.len() {
            match file.code.get(j).map(|t| &t.tok) {
                Some(Tok::Punct('{' | '(' | '[' | '<')) => depth += 1,
                Some(Tok::Punct('}' | ')' | ']' | '>')) => depth -= 1,
                Some(Tok::Punct('=')) if depth == 0 => {
                    eq = Some(j);
                    break;
                }
                Some(Tok::Punct(',' | ';')) if depth == 0 => break,
                None => break,
                _ => {}
            }
            if depth < 0 {
                break;
            }
            j += 1;
        }
        let Some(eq) = eq else {
            i = j + 1;
            continue;
        };
        // The initializer runs to the `;` at brace/paren/bracket depth 0
        // (angles are shift operators in expression position).
        let mut k = eq + 1;
        let mut depth = 0i32;
        while k < file.code.len() {
            match file.code.get(k).map(|t| &t.tok) {
                Some(Tok::Punct('{' | '(' | '[')) => depth += 1,
                Some(Tok::Punct('}' | ')' | ']')) => depth -= 1,
                Some(Tok::Punct(';')) if depth == 0 => break,
                None => break,
                _ => {}
            }
            k += 1;
        }
        out.push(eq + 1..k);
        i = k + 1;
    }
    out
}

/// Extracts the ordered direct events of one body range, skipping nested
/// function bodies and const-initializer spans.
fn extract_events(
    file: &SourceFile,
    body: Range<usize>,
    nested: &[Range<usize>],
    const_spans: &[Range<usize>],
) -> Vec<Event> {
    let mut out = Vec::new();
    let mut i = body.start;
    'walk: while i < body.end {
        for n in nested {
            if n.contains(&i) {
                i = n.end;
                continue 'walk;
            }
        }
        if const_spans.iter().any(|r| r.contains(&i)) {
            i += 1;
            continue;
        }
        let line = file.line_of(i);
        // Panic sites (before call detection: `panic!(` is not a call).
        if let Some(what) = panic_site(file, i) {
            out.push(Event {
                kind: EventKind::Panic { what },
                line,
            });
        }
        // Call expressions: `name (` that is not a definition, macro, or
        // keyword-parenthesis.
        if let Some(name) = file.ident(i) {
            if file.punct_is(i + 1, '(')
                && !is_keyword(name)
                && file.ident(i.wrapping_sub(1)) != Some("fn")
            {
                out.push(Event {
                    kind: EventKind::Call {
                        name: name.to_string(),
                    },
                    line,
                });
            }
        }
        i += 1;
    }
    out
}

/// Classifies token `i` as a panicking construct, if it is one. The
/// method/macro checks anchor on the *name* token; the indexing check on
/// the `[`.
pub fn panic_site(file: &SourceFile, i: usize) -> Option<&'static str> {
    // `.unwrap()` / `.expect(…)`.
    if matches!(file.ident(i), Some("unwrap" | "expect"))
        && file.punct_is(i.wrapping_sub(1), '.')
        && file.punct_is(i + 1, '(')
    {
        return Some(if file.ident(i) == Some("unwrap") {
            "`.unwrap()`"
        } else {
            "`.expect(…)`"
        });
    }
    // Panic macros.
    if file.punct_is(i + 1, '!') {
        match file.ident(i) {
            Some("panic") => return Some("`panic!`"),
            Some("unreachable") => return Some("`unreachable!`"),
            Some("todo") => return Some("`todo!`"),
            Some("unimplemented") => return Some("`unimplemented!`"),
            _ => {}
        }
    }
    // Postfix `[` — slice/array indexing.
    if file.punct_is(i, '[') && i > 0 {
        let postfix = match file.code.get(i - 1).map(|t| &t.tok) {
            Some(Tok::Ident(w)) => !indexing_keyword(w),
            Some(Tok::Number | Tok::Str | Tok::Punct(')' | ']' | '?')) => true,
            _ => false,
        };
        if postfix {
            return Some("slice/array indexing");
        }
    }
    None
}

/// Reserved words that can directly precede `[` in non-indexing positions.
fn indexing_keyword(w: &str) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn parse(src: &str) -> (SourceFile, ItemIndex) {
        let f = SourceFile::parse(
            PathBuf::from("crates/core/src/x.rs"),
            "crates/core/src/x.rs".into(),
            src,
        );
        let idx = index(&f);
        (f, idx)
    }

    fn call_names(f: &FnItem) -> Vec<&str> {
        f.events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Call { name } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fns_calls_and_visibility() {
        let (_, idx) = parse(
            "pub fn outer() { helper(1); x.method(); }\n\
             pub(crate) fn restricted() {}\n\
             fn private() { Self::assoc(2); }\n",
        );
        assert_eq!(idx.fns.len(), 3);
        assert!(idx.fns[0].is_pub);
        assert!(!idx.fns[1].is_pub, "pub(crate) is not public API");
        assert!(!idx.fns[2].is_pub);
        assert_eq!(call_names(&idx.fns[0]), vec!["helper", "method"]);
        assert_eq!(call_names(&idx.fns[2]), vec!["assoc"]);
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let (_, idx) = parse("fn f() { if (a) { vec![1]; println!(\"x\"); g(); } }");
        assert_eq!(call_names(&idx.fns[0]), vec!["g"]);
    }

    #[test]
    fn nested_fn_events_stay_with_the_inner_fn() {
        let (_, idx) = parse("fn outer() { fn inner() { danger(); } safe(); }");
        let outer = idx.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = idx.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(call_names(outer), vec!["safe"]);
        assert_eq!(call_names(inner), vec!["danger"]);
    }

    #[test]
    fn const_initializers_are_carved_out() {
        let (_, idx) = parse(
            "const T: [u32; 4] = { let mut t = [0; 4]; t[0] = 1; t };\n\
             fn f(xs: &[u32]) -> u32 { xs[0] }",
        );
        assert_eq!(idx.const_spans.len(), 1);
        // The indexing inside the const block is inside the span…
        let f = &idx.fns[0];
        let panics: Vec<_> = f
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Panic { .. }))
            .collect();
        // …and the runtime indexing in `f` is still a panic event.
        assert_eq!(panics.len(), 1);
    }

    #[test]
    fn panic_sites_detected() {
        let (_, idx) = parse("fn f(x: Option<u32>) -> u32 { x.unwrap(); panic!(\"no\"); 0 }");
        let what: Vec<_> = idx.fns[0]
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Panic { what } => Some(what),
                _ => None,
            })
            .collect();
        assert_eq!(what, vec!["`.unwrap()`", "`panic!`"]);
    }
}
