//! Item spans: the `const`/`static` initializer ranges of a file's
//! token stream. Code there is evaluated at build time — a panic is a
//! compile error, not a runtime availability bug — so the `panic` rule
//! skips it.

use std::ops::Range;

use crate::lexer::Tok;
use crate::source::SourceFile;

/// Token ranges of `const NAME … = <init> ;` and `static NAME … = <init> ;`
/// initializer expressions (`const fn` is a function, not a constant, and
/// `const N: usize` generic parameters carry no initializer).
pub(crate) fn const_init_spans(file: &SourceFile) -> Vec<Range<usize>> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn only_const_and_static_initializers_are_spanned() {
        let rel = "crates/core/src/x.rs";
        let f = SourceFile::parse(
            PathBuf::from(rel),
            rel.into(),
            "const T: [u32; 4] = { let mut t = [0; 4]; t[0] = 1; t };\n\
             const fn g<const N: usize>(xs: &[u32; N]) -> u32 { xs[0] }",
        );
        // One span — the braced block, up to its `;` — and nothing for
        // the `const fn` or its const generic parameter.
        let spans = const_init_spans(&f);
        assert_eq!(spans.len(), 1);
        assert!(f.punct_is(spans[0].start, '{') && f.punct_is(spans[0].end, ';'));
    }
}
