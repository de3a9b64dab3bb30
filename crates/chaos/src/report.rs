//! Hand-rolled JSON rendering for chaos reports and sweep summaries.
//!
//! The workspace deliberately carries no JSON dependency; the report
//! shapes are flat and fully known, so the writer below covers exactly
//! what the CI consumers parse: string escaping, integers, booleans, and
//! arrays of the two.

use crate::exec::ChaosReport;

/// Escapes `s` as a JSON string literal (with quotes).
pub fn json_string(s: &str) -> String {
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

fn string_array(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| json_string(s)).collect();
    format!("[{}]", parts.join(","))
}

/// Renders one run's report as a single JSON object.
pub fn report_json(r: &ChaosReport) -> String {
    let violations: Vec<String> = r
        .violations
        .iter()
        .map(|v| {
            format!(
                "{{\"invariant\":{},\"detail\":{}}}",
                json_string(&v.invariant),
                json_string(&v.detail)
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"seed\":{},\"ok\":{},",
            "\"events\":{},\"ops\":{},\"crashes\":{},\"recoveries\":{},",
            "\"plan_failures\":{},\"reads_checked\":{},\"dirty_bytes_lost\":{},",
            "\"fingerprint\":\"{:016x}\",\"violations\":[{}]}}"
        ),
        r.seed,
        !r.failed(),
        string_array(&r.events),
        r.ops,
        r.crashes,
        r.recoveries,
        r.plan_failures,
        r.reads_checked,
        r.dirty_bytes_lost,
        r.fingerprint,
        violations.join(",")
    )
}

/// Renders a sweep summary: per-seed one-line reports plus totals.
pub fn sweep_json(reports: &[ChaosReport]) -> String {
    let failed: Vec<u64> = reports
        .iter()
        .filter(|r| r.failed())
        .map(|r| r.seed)
        .collect();
    let lines: Vec<String> = reports.iter().map(report_json).collect();
    let failed_list: Vec<String> = failed.iter().map(|s| s.to_string()).collect();
    format!(
        concat!(
            "{{\"runs\":{},\"failures\":{},\"failed_seeds\":[{}],",
            "\"reports\":[\n{}\n]}}"
        ),
        reports.len(),
        failed.len(),
        failed_list.join(","),
        lines.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ChaosReport;
    use crate::oracle::Violation;

    fn sample(seed: u64, fail: bool) -> ChaosReport {
        ChaosReport {
            seed,
            events: vec!["mw-crash@3 budget=512".to_owned()],
            ops: 10,
            crashes: 1,
            recoveries: 2,
            plan_failures: 0,
            reads_checked: 4096,
            dirty_bytes_lost: 0,
            fingerprint: 0xdead_beef,
            violations: if fail {
                vec![Violation {
                    invariant: "read-consistency".to_owned(),
                    detail: "byte 5: got 1, acknowledged 2, \"quoted\"".to_owned(),
                }]
            } else {
                Vec::new()
            },
        }
    }

    #[test]
    fn escapes_and_renders() {
        let j = report_json(&sample(3, true));
        assert!(j.contains("\"seed\":3"));
        assert!(j.contains("\"ok\":false"));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"fingerprint\":\"00000000deadbeef\""));
    }

    #[test]
    fn sweep_counts_failures() {
        let j = sweep_json(&[sample(1, false), sample(2, true)]);
        assert!(j.contains("\"runs\":2"));
        assert!(j.contains("\"failures\":1"));
        assert!(j.contains("\"failed_seeds\":[2]"));
    }

    #[test]
    fn control_characters_escape() {
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
