//! Diagnostics: rule id, location, message, fix hint, and severity.

use std::path::PathBuf;

/// How severe a finding is. Errors fail the run; warnings are printed but
/// exit 0 (report-only mode, e.g. determinism findings in test dirs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Printed, does not affect the exit code.
    Warning,
    /// Fails the run.
    Error,
}

impl Severity {
    /// The lowercase label used in human and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// File the finding is in.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Rule id (what an allow-pragma must name to suppress it).
    pub rule: &'static str,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
    /// Error or warning.
    pub severity: Severity,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}] {}\n    hint: {}",
            self.path.display(),
            self.line,
            self.severity.label(),
            self.rule,
            self.message,
            self.hint,
        )
    }
}

impl Diagnostic {
    /// Renders the finding as one JSON object (the `--format=json` line
    /// format): `file`, `line`, `rule`, `severity`, `message`, `hint`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"file\":{}",
            json_str(&self.path.display().to_string())
        ));
        out.push_str(&format!(",\"line\":{}", self.line));
        out.push_str(&format!(",\"rule\":{}", json_str(self.rule)));
        out.push_str(&format!(
            ",\"severity\":{}",
            json_str(self.severity.label())
        ));
        out.push_str(&format!(",\"message\":{}", json_str(&self.message)));
        out.push_str(&format!(",\"hint\":{}}}", json_str(self.hint)));
        out
    }
}

/// Escapes `s` as a JSON string literal (the linter is dependency-free,
/// so the escaping is done by hand; control characters use `\u00XX`).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_includes_every_field() {
        let d = Diagnostic {
            path: PathBuf::from("crates/core/src/a.rs"),
            line: 7,
            rule: "durability",
            message: "a \"quoted\"\nmessage".to_string(),
            hint: "fix it",
            severity: Severity::Error,
        };
        let j = d.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"file\":\"crates/core/src/a.rs\""));
        assert!(j.contains("\"line\":7"));
        assert!(j.contains("\"severity\":\"error\""));
        assert!(j.contains("\\\"quoted\\\"\\nmessage"));
        assert!(j.ends_with("\"hint\":\"fix it\"}"));
    }
}
