//! Finding output: human-readable text and a machine-readable JSON
//! report (following the hand-rolled conventions of
//! `crates/sim/src/json.rs` — ordered keys, exact unsigned integers,
//! escaped strings). The report is stamped with [`SCHEMA_VERSION`],
//! consistent with the PR-8 artifact convention, and lists every rule's
//! suppression budget, its used count and the gate's verdict.

use std::cmp::Ordering;
use std::fmt::Write as _;

use crate::rules::{LintOutcome, Rule};

/// Schema version stamped into the JSON report.
pub const SCHEMA_VERSION: u32 = 3;

/// Renders findings for terminals: `path:line: [rule] message` plus the
/// offending source line, then a summary line and a per-rule allows
/// line (the determinism-matrix CI job reads the latter as its
/// suppression-count trend).
pub fn render_human(outcome: &LintOutcome) -> String {
    let mut out = String::new();
    for f in &outcome.findings {
        let _ = writeln!(
            out,
            "{}:{}: [{}] {}",
            f.file,
            f.line,
            f.rule.name(),
            f.message
        );
        if !f.snippet.is_empty() {
            let _ = writeln!(out, "    {}", f.snippet);
        }
    }
    let _ = writeln!(
        out,
        "simlint: {} finding(s), {} suppressed, {} file(s) scanned",
        outcome.findings.len(),
        outcome.suppressed,
        outcome.files_scanned
    );
    let mut allows = String::new();
    for (rule, n) in &outcome.allow_directives {
        let _ = write!(allows, " {rule}={n}");
    }
    let _ = writeln!(
        out,
        "simlint allows:{}",
        if allows.is_empty() { " none" } else { &allows }
    );
    out
}

/// Escapes a string for JSON output (same subset as the sim crate's
/// hand-rolled writer: control characters, quotes and backslashes).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes the outcome as a schema-stamped JSON report object with
/// one budget entry per rule: its constant, its used count and the
/// gate's verdict (`ok`, `over` or `under`).
pub fn render_json(outcome: &LintOutcome) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"schema_version\":{SCHEMA_VERSION},");
    let _ = write!(out, "\"files_scanned\":{},", outcome.files_scanned);
    let _ = write!(out, "\"suppressed\":{},", outcome.suppressed);
    out.push_str("\"budgets\":[");
    for (i, rule) in Rule::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (used, budget) = (outcome.allows(*rule), rule.budget());
        let verdict = match used.cmp(&budget) {
            Ordering::Less => "under",
            Ordering::Equal => "ok",
            Ordering::Greater => "over",
        };
        let _ = write!(
            out,
            "{{\"rule\":\"{}\",\"budget\":{budget},\"used\":{used},\"verdict\":\"{verdict}\"}}",
            rule.name()
        );
    }
    out.push_str("],\"findings\":[");
    for (i, f) in outcome.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"snippet\":\"{}\"}}",
            f.rule.name(),
            escape_json(&f.file),
            f.line,
            escape_json(&f.message),
            escape_json(&f.snippet)
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::rules::Finding;

    fn sample() -> LintOutcome {
        let mut allow_directives = BTreeMap::new();
        allow_directives.insert("panic-policy".to_string(), 5);
        LintOutcome {
            findings: vec![Finding {
                rule: Rule::FloatEq,
                file: "crates/sim/src/x.rs".to_string(),
                line: 7,
                message: "`==` against a float literal".to_string(),
                snippet: "if x == 0.0 {".to_string(),
            }],
            suppressed: 2,
            files_scanned: 3,
            allow_directives,
        }
    }

    #[test]
    fn json_report_is_schema_stamped() {
        let json = render_json(&sample());
        assert!(json.starts_with("{\"schema_version\":3,"), "{json}");
        assert!(json.contains("\"rule\":\"float-eq\",\"file\""));
        assert!(json.contains("\"line\":7"));
        assert!(!json.contains("baseline"), "{json}");
        assert_eq!(json.matches("\"budget\":").count(), Rule::ALL.len());
        assert!(json.contains(&format!(
            "{{\"rule\":\"panic-policy\",\"budget\":{},\"used\":5,\"verdict\":\"under\"}}",
            Rule::PanicPolicy.budget()
        )));
        assert!(json
            .contains("{\"rule\":\"rng-discipline\",\"budget\":0,\"used\":0,\"verdict\":\"ok\"}"));
    }

    #[test]
    fn human_rendering_mentions_rule_line_and_allows() {
        let text = render_human(&sample());
        assert!(text.contains("crates/sim/src/x.rs:7: [float-eq]"));
        assert!(text.contains("1 finding(s), 2 suppressed, 3 file(s) scanned"));
        assert!(text.contains("simlint allows: panic-policy=5"));
    }
}
