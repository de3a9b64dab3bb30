//! Tables as data, and their plain-text rendering.

/// One table of a paper artefact: what a [`crate::figures`] generator
/// returns and [`render`] prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Caption, e.g. `"Fig. 6(a) — IOR write throughput …"`.
    pub title: &'static str,
    /// Column names; every row has exactly this many cells.
    pub header: &'static [&'static str],
    /// Data rows: a label cell followed by formatted numbers.
    pub rows: Vec<Vec<String>>,
    /// The paper's expectation for this artefact, printed under the
    /// table; empty on all but the last table of a multi-table figure.
    pub note: &'static str,
}

/// Renders an aligned table: title, header row, rule, data rows, then
/// the note (if any) on a line of its own.
///
/// ```
/// use s4d_bench::table::{render, Table};
/// let out = render(&Table {
///     title: "Demo",
///     header: &["size", "MB/s"],
///     rows: vec![vec!["8KB".into(), "12.5".into()]],
///     note: "paper: 12",
/// });
/// assert!(out.starts_with("== Demo =="));
/// assert!(out.contains("8KB"));
/// assert!(out.ends_with("paper: 12\n"));
/// ```
pub fn render(table: &Table) -> String {
    let mut widths: Vec<usize> = table.header.iter().map(|h| h.len()).collect();
    for row in &table.rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    fn line<S: AsRef<str>>(cells: &[S], widths: &[usize]) -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, &width)| format!("{:>width$}", c.as_ref()))
            .collect();
        padded.join("  ") + "\n"
    }
    let rule_len = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
    let mut out = format!("== {} ==\n", table.title);
    out += &line(table.header, &widths);
    out += &"-".repeat(rule_len);
    out.push('\n');
    for row in &table.rows {
        out += &line(row, &widths);
    }
    if !table.note.is_empty() {
        out.push_str(table.note);
        out.push('\n');
    }
    out
}

/// Formats a throughput value as the paper prints them.
pub fn mibs(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a percentage improvement of `new` over `base`.
pub fn speedup_pct(base: f64, new: f64) -> String {
    if base <= 0.0 {
        return "n/a".into();
    }
    format!("{:+.1}%", (new - base) / base * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let t = render(&Table {
            title: "T",
            header: &["a", "long-header"],
            rows: vec![
                vec!["1".into(), "2".into()],
                vec!["333333".into(), "4".into()],
            ],
            note: "",
        });
        assert!(t.starts_with("== T =="));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[1], "     a  long-header");
        assert_eq!(lines[4], "333333            4");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mibs(12.345), "12.35");
        assert_eq!(speedup_pct(100.0, 150.0), "+50.0%");
        assert_eq!(speedup_pct(100.0, 90.0), "-10.0%");
        assert_eq!(speedup_pct(0.0, 90.0), "n/a");
    }
}
