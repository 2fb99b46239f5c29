//! Machine-readable output: plain JSON for scripts and SARIF 2.1.0 for
//! code-scanning UIs. Hand-serialized — the lint crate stays
//! dependency-free by design.

use crate::{Diagnostic, RULES};

/// Escape a string for a JSON string literal (without the quotes).
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

/// Render diagnostics as a single JSON object:
/// `{"count": N, "diagnostics": [{rule, path, line, message, help}…]}`.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"count\": {},\n", diags.len()));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": \"{}\", ", esc(d.rule)));
        out.push_str(&format!("\"path\": \"{}\", ", esc(&d.path)));
        out.push_str(&format!("\"line\": {}, ", d.line));
        out.push_str(&format!("\"message\": \"{}\", ", esc(&d.message)));
        out.push_str(&format!("\"help\": \"{}\"", esc(d.help)));
        out.push('}');
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Render diagnostics as a SARIF 2.1.0 log with one run. Every rule in
/// [`RULES`] is listed in the tool driver (so clean runs still publish
/// the rule set); `line == 0` diagnostics omit the region.
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
         Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"iw-lint\",\n");
    out.push_str("          \"informationUri\": \"crates/lint\",\n");
    out.push_str("          \"rules\": [");
    for (i, (name, desc)) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            esc(name),
            esc(desc)
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n        {\n");
        out.push_str(&format!("          \"ruleId\": \"{}\",\n", esc(d.rule)));
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{\"text\": \"{}\"}},\n",
            esc(&d.message)
        ));
        out.push_str("          \"locations\": [\n            {\n");
        out.push_str("              \"physicalLocation\": {\n");
        out.push_str(&format!(
            "                \"artifactLocation\": {{\"uri\": \"{}\"}}",
            esc(&d.path)
        ));
        if d.line > 0 {
            out.push_str(&format!(
                ",\n                \"region\": {{\"startLine\": {}}}\n",
                d.line
            ));
        } else {
            out.push('\n');
        }
        out.push_str("              }\n            }\n          ]\n        }");
    }
    if !diags.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                rule: "panic-budget",
                path: "crates/x/src/lib.rs".into(),
                line: 3,
                message: "`.unwrap()` in library code".into(),
                snippet: "x.unwrap();".into(),
                help: "return an error",
            },
            Diagnostic {
                rule: "unsafe-forbidden",
                path: "crates/x/src/lib.rs".into(),
                line: 0,
                message: "crate `x` does not forbid unsafe code".into(),
                snippet: String::new(),
                help: "add the attribute",
            },
        ]
    }

    #[test]
    fn json_escapes_and_counts() {
        let out = to_json(&sample());
        assert!(out.contains("\"count\": 2"));
        assert!(out.contains("\\\"name\\\"") || !out.contains('\u{0}'));
        assert!(out.contains("`.unwrap()` in library code"));
        // Empty input is still a valid document.
        let empty = to_json(&[]);
        assert!(empty.contains("\"count\": 0"));
        assert!(empty.contains("\"diagnostics\": []"));
    }

    #[test]
    fn sarif_has_schema_rules_and_regions() {
        let out = to_sarif(&sample());
        assert!(out.contains("sarif-schema-2.1.0.json"));
        assert!(out.contains("\"name\": \"iw-lint\""));
        // Every rule is published even when only two fire.
        for (name, _) in RULES {
            assert!(out.contains(&format!("\"id\": \"{name}\"")), "{name}");
        }
        assert!(out.contains("\"startLine\": 3"));
        // line == 0 → no region on the second result.
        let second = out.rsplit("\"ruleId\"").next().unwrap();
        assert!(!second.contains("startLine"));
    }

    #[test]
    fn escaping_is_json_safe() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
