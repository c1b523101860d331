//! Machine-readable output: SARIF 2.1.0.
//!
//! Hand-rolled serialization (the offline environment has no serde):
//! the only subtlety is string escaping, which covers the JSON control
//! set. The human-readable rustc-style rendering stays the default and
//! is what CI prints on failure; `--format sarif` feeds code-scanning
//! UIs.

use crate::rules::Rule;
use crate::Analysis;

/// Escapes a string for embedding in a JSON document.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A minimal SARIF 2.1.0 log: one run, one driver, one result per
/// finding, level `error` (every tmo-lint finding is a CI gate
/// failure).
pub fn to_sarif(analysis: &Analysis) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"tmo-lint\",\n");
    out.push_str("          \"informationUri\": \"crates/lint\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, rule) in Rule::ALL.iter().enumerate() {
        let comma = if i + 1 < Rule::ALL.len() { "," } else { "" };
        out.push_str(&format!(
            "            {{\"id\": \"determinism::{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{comma}\n",
            rule.id(),
            esc(rule.help())
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in analysis.findings.iter().enumerate() {
        let comma = if i + 1 < analysis.findings.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "        {{\"ruleId\": \"determinism::{}\", \"level\": \"error\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\
             \"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}{comma}\n",
            f.rule.id(),
            esc(&f.message),
            esc(&f.file),
            f.line
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{AllowSite, Finding};

    fn sample() -> Analysis {
        Analysis {
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                rule: Rule::WallClock,
                message: "ambient clock `Instant::now` with a \"quote\"".into(),
            }],
            allows: vec![AllowSite {
                file: "crates/core/src/runner.rs".into(),
                line: 573,
                rule: "wall-clock".into(),
                justification: "stderr-only timing".into(),
            }],
            files_scanned: 42,
        }
    }

    #[test]
    fn sarif_has_schema_rules_and_results() {
        let s = to_sarif(&sample());
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("determinism::wall-clock"));
        assert!(s.contains("\"startLine\": 7"));
        assert!(
            s.contains("\\\"quote\\\""),
            "quotes in messages are escaped"
        );
        assert!(
            s.contains("determinism::stale-allow"),
            "rule table lists all rules"
        );
    }

    #[test]
    fn empty_analysis_is_valid_structure() {
        let s = to_sarif(&Analysis::default());
        assert!(s.contains("\"results\": [\n      ]"));
    }
}
