//! Output renderers for `cargo xtask analyze`.
//!
//! Three formats over the same [`Analysis`]: `human` for terminals, `json`
//! for scripting, and `sarif` (SARIF 2.1.0) for code-scanning UIs. The JSON
//! is emitted by hand — the workspace intentionally carries no serde — so
//! the renderers stick to the small, flat subset the consumers need. The
//! findings blocks and the SARIF run are shared with the contract reports
//! ([`crate::contract`]), which differ only in what precedes the findings;
//! [`json_object`] and [`sarif_log`] join the three reports of one run.

use crate::lockgraph::{Analysis, Finding};
use std::fmt::Write as _;

/// The descriptions backing SARIF rule metadata and `--explain`-style help.
pub const CHECKS: [(&str, &str); 8] = [
    ("lock-cycle", "Lock sites form an acquisition-order cycle; two threads interleaving these paths can deadlock."),
    ("rank-violation", "A lock was acquired while holding a site of equal or higher declared rank, violating the hierarchy in lockranks.toml."),
    ("missing-rank", "A discovered lock site has no rank declared in lockranks.toml."),
    ("stale-rank", "lockranks.toml declares a site that no longer exists in the workspace."),
    ("duplicate-rank", "Two lock sites share one rank, so their relative order is unenforceable."),
    ("unknown-annotation", "A rank_scope! annotation names a site that lockranks.toml does not declare."),
    ("unused-annotation", "A rank_scope! annotation has no matching lock acquisition in its function."),
    ("unwitnessed-acquisition", "A ranked lock site is acquired without a rank_scope! witness in the same function."),
];

/// Renders the human-readable report.
pub fn human(analysis: &Analysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "analyzed {} functions: {} lock sites, {} acquisition edges",
        analysis.fns,
        analysis.sites.len(),
        analysis.edges.len()
    );
    let _ = writeln!(
        out,
        "call graph: {} calls ({} resolved, {} ambiguous, {} external/unresolved)",
        analysis.calls_total,
        analysis.calls_resolved,
        analysis.calls_ambiguous,
        analysis.calls_total - analysis.calls_resolved - analysis.calls_ambiguous
    );
    for site in &analysis.sites {
        let _ = writeln!(out, "  site {site}");
    }
    for e in &analysis.edges {
        let _ =
            writeln!(out, "  edge {} -> {} ({}:{}, in {})", e.from, e.to, e.file, e.line, e.via);
    }
    findings_human(&mut out, &analysis.findings);
    out
}

/// Appends the findings block that closes every human report.
pub fn findings_human(out: &mut String, findings: &[Finding]) {
    if findings.is_empty() {
        let _ = writeln!(out, "no findings");
        return;
    }
    let _ = writeln!(out, "{} finding(s):", findings.len());
    for f in findings {
        if f.file.is_empty() {
            let _ = writeln!(out, "  [{}] {}", f.check, f.message);
        } else {
            let _ = writeln!(out, "  [{}] {}:{}: {}", f.check, f.file, f.line, f.message);
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// Renders the machine-readable JSON report.
pub fn json(analysis: &Analysis) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"functions\": {},", analysis.fns);
    let _ = writeln!(
        out,
        "  \"calls\": {{\"total\": {}, \"resolved\": {}, \"ambiguous\": {}, \"external\": {}}},",
        analysis.calls_total,
        analysis.calls_resolved,
        analysis.calls_ambiguous,
        analysis.calls_total - analysis.calls_resolved - analysis.calls_ambiguous
    );

    let sites: Vec<String> = analysis.sites.iter().map(|s| format!("\"{}\"", esc(s))).collect();
    let _ = writeln!(out, "  \"sites\": [{}],", sites.join(", "));

    out.push_str("  \"edges\": [");
    for (i, e) in analysis.edges.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    {{\"from\": \"{}\", \"to\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"via\": \"{}\"}}",
            esc(&e.from),
            esc(&e.to),
            esc(&e.file),
            e.line,
            esc(&e.via)
        );
    }
    out.push_str(if analysis.edges.is_empty() { "],\n" } else { "\n  ],\n" });

    findings_json(&mut out, &analysis.findings);
    out.push_str("}\n");
    out
}

/// Appends the `"findings"` member that closes every JSON report.
pub fn findings_json(out: &mut String, findings: &[Finding]) {
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    {{\"check\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"message\": \"{}\"}}",
            esc(f.check),
            esc(&f.file),
            f.line,
            esc(&f.message)
        );
    }
    out.push_str(if findings.is_empty() { "]\n" } else { "\n  ]\n" });
}

/// Joins rendered JSON reports into one object, one member per report.
pub fn json_object(members: &[(&str, String)]) -> String {
    let mut out = String::from("{\n");
    for (i, (key, value)) in members.iter().enumerate() {
        let sep = if i + 1 == members.len() { "" } else { "," };
        let value = value.trim_end().replace('\n', "\n  ");
        let _ = writeln!(out, "  \"{}\": {value}{sep}", esc(key));
    }
    out.push_str("}\n");
    out
}

/// Renders the lock graph's run of a SARIF log.
pub fn lock_sarif_run(analysis: &Analysis) -> String {
    sarif_run("cad3-xtask-analyze", &CHECKS, &analysis.findings)
}

/// Renders a SARIF 2.1.0 log holding `runs`, for code-scanning upload.
pub fn sarif_log(runs: &[String]) -> String {
    format!(
        "{{\n  \"version\": \"2.1.0\",\n  \
         \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        runs.join(",\n")
    )
}

/// Renders one SARIF run from any finding list — the analyses differ only
/// in tool name and rule table.
pub fn sarif_run(tool: &str, checks: &[(&str, &str)], findings: &[Finding]) -> String {
    let mut out = String::from("    {\n      \"tool\": {\n        \"driver\": {\n          ");
    let _ = write!(
        out,
        "\"name\": \"{}\",\n          \
         \"informationUri\": \"https://example.invalid/cad3\",\n          \
         \"rules\": [\n",
        esc(tool)
    );
    for (i, (id, desc)) in checks.iter().enumerate() {
        let sep = if i + 1 == checks.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{sep}",
            esc(id),
            esc(desc)
        );
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let sep = if i + 1 == findings.len() { "" } else { "," };
        out.push_str(&sarif_result(f));
        out.push_str(sep);
        out.push('\n');
    }
    out.push_str("      ]\n    }");
    out
}

fn sarif_result(f: &Finding) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "        {{\"ruleId\": \"{}\", \"level\": \"error\", \
         \"message\": {{\"text\": \"{}\"}}",
        esc(f.check),
        esc(&f.message)
    );
    if !f.file.is_empty() {
        let _ = write!(
            out,
            ", \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
             {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]",
            esc(&f.file),
            f.line.max(1)
        );
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockgraph::Edge;
    use std::collections::BTreeSet;

    fn sarif(analysis: &Analysis) -> String {
        sarif_log(&[lock_sarif_run(analysis)])
    }

    fn sample() -> Analysis {
        let mut sites = BTreeSet::new();
        sites.insert("fx::S::a".to_owned());
        sites.insert("fx::S::b".to_owned());
        Analysis {
            sites,
            edges: vec![Edge {
                from: "fx::S::a".to_owned(),
                to: "fx::S::b".to_owned(),
                file: "fx/src/lib.rs".to_owned(),
                line: 4,
                via: "fx::S::ab".to_owned(),
            }],
            findings: vec![Finding {
                check: "rank-violation",
                file: "fx/src/lib.rs".to_owned(),
                line: 4,
                message: "a \"quoted\" message".to_owned(),
            }],
            fns: 2,
            calls_total: 7,
            calls_resolved: 5,
            calls_ambiguous: 1,
        }
    }

    #[test]
    fn human_lists_sites_edges_and_findings() {
        let text = human(&sample());
        assert!(text.contains("site fx::S::a"));
        assert!(text.contains("edge fx::S::a -> fx::S::b"));
        assert!(text.contains("[rank-violation] fx/src/lib.rs:4:"));
        assert!(
            text.contains("7 calls (5 resolved, 1 ambiguous, 1 external/unresolved)"),
            "{text}"
        );
    }

    #[test]
    fn json_escapes_quotes() {
        let text = json(&sample());
        assert!(text.contains(r#"a \"quoted\" message"#), "{text}");
        assert!(text.contains("\"functions\": 2"));
        assert!(
            text.contains(
                "\"calls\": {\"total\": 7, \"resolved\": 5, \"ambiguous\": 1, \"external\": 1}"
            ),
            "{text}"
        );
    }

    #[test]
    fn sarif_carries_rule_metadata_and_locations() {
        let text = sarif(&sample());
        assert!(text.contains("\"version\": \"2.1.0\""));
        assert!(text.contains("\"ruleId\": \"rank-violation\""));
        assert!(text.contains("\"startLine\": 4"));
        // Every check id appears in the driver rules table.
        for (id, _) in CHECKS {
            assert!(text.contains(&format!("\"id\": \"{id}\"")), "{id} missing");
        }
    }

    #[test]
    fn empty_analysis_renders_valid_structures() {
        let a = Analysis::default();
        assert!(human(&a).contains("no findings"));
        assert!(json(&a).contains("\"findings\": []"));
        assert!(sarif(&a).contains("\"results\": [\n      ]"));
    }
}
