//! Machine-readable JSON report, written under `results/`.
//!
//! Hand-rolled serialization (the linter is dependency-free); the
//! shape is stable so CI tooling can diff reports across commits:
//!
//! ```json
//! {
//!   "tool": "pdnn-lint",
//!   "files_scanned": 93,
//!   "rules": [{"id": "...", "summary": "..."}],
//!   "violations": [{"rule": "...", "path": "...", "line": 1, "col": 2, "message": "..."}],
//!   "suppressed": [{"rule": "...", "path": "...", "line": 1, "reason": "..."}],
//!   "meta": [{"path": "...", "line": 1, "message": "..."}]
//! }
//! ```

use crate::{rules, FileOutcome, Finding};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Escape a string for embedding in a JSON double-quoted literal.
/// Shared with the other checkers, whose report writers reuse this
/// crate's hand-rolled serialization conventions.
pub fn json_escape(s: &str) -> String {
    esc(s)
}

/// Append a compact JSON array of finding objects
/// (`{"rule":…,"path":…,"line":…,"col":…,"message":…}`). The shared
/// scaffolding for every checker report in the workspace
/// (`pdnn-protomc`).
pub fn push_findings(out: &mut String, findings: &[Finding]) {
    out.push('[');
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            esc(f.rule),
            esc(&f.path),
            f.line,
            f.col,
            esc(&f.message),
        );
    }
    out.push(']');
}

/// Write a rendered report under `<root>/results/<file_name>`,
/// creating the directory if needed — the one place the checkers'
/// acceptance artifacts land.
pub fn write_results(root: &Path, file_name: &str, contents: &str) -> io::Result<()> {
    let dir = root.join("results");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(file_name), contents)
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the full report as a JSON string (trailing newline
/// included). Entries preserve the deterministic path-then-line order
/// the engine produced.
pub fn render(outcomes: &[FileOutcome], files_scanned: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"tool\": \"pdnn-lint\",\n");
    let _ = writeln!(s, "  \"files_scanned\": {files_scanned},");

    s.push_str("  \"rules\": [\n");
    for (i, r) in rules::RULES.iter().enumerate() {
        let comma = if i + 1 < rules::RULES.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"id\": \"{}\", \"summary\": \"{}\"}}{comma}",
            esc(r.id),
            esc(r.summary)
        );
    }
    s.push_str("  ],\n");

    let violations: Vec<String> = outcomes
        .iter()
        .flat_map(|o| &o.findings)
        .map(|f| {
            format!(
                "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}",
                esc(f.rule),
                esc(&f.path),
                f.line,
                f.col,
                esc(&f.message)
            )
        })
        .collect();
    let _ = writeln!(s, "  \"violations\": [\n{}\n  ],", violations.join(",\n"));
    if violations.is_empty() {
        // Normalize the empty case ("[\n\n]" reads poorly).
        s = s.replace("\"violations\": [\n\n  ]", "\"violations\": []");
    }

    let suppressed: Vec<String> = outcomes
        .iter()
        .flat_map(|o| &o.suppressed)
        .map(|(f, reason)| {
            format!(
                "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
                esc(f.rule),
                esc(&f.path),
                f.line,
                esc(reason)
            )
        })
        .collect();
    let _ = writeln!(s, "  \"suppressed\": [\n{}\n  ],", suppressed.join(",\n"));
    if suppressed.is_empty() {
        s = s.replace("\"suppressed\": [\n\n  ]", "\"suppressed\": []");
    }

    let meta: Vec<String> = outcomes
        .iter()
        .flat_map(|o| &o.meta)
        .map(|m| {
            format!(
                "    {{\"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                esc(&m.path),
                m.line,
                esc(&m.message)
            )
        })
        .collect();
    let _ = writeln!(s, "  \"meta\": [\n{}\n  ]", meta.join(",\n"));
    if meta.is_empty() {
        s = s.replace("\"meta\": [\n\n  ]", "\"meta\": []");
    }

    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_text;

    #[test]
    fn clean_report_has_empty_arrays() {
        let r = render(&[], 42);
        assert!(r.contains("\"files_scanned\": 42"));
        assert!(r.contains("\"violations\": []"));
        assert!(r.contains("\"suppressed\": []"));
        assert!(r.contains("\"meta\": []"));
    }

    #[test]
    fn violations_and_escapes_round_trip() {
        let o = lint_text(
            "crates/util/src/x.rs",
            "fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
        );
        let r = render(&[o], 1);
        assert!(r.contains("\"rule\": \"l3-no-unwrap\""), "{r}");
        assert!(r.contains("\"line\": 2"), "{r}");
        assert!(r.contains("`.unwrap()`"), "{r}");
    }
}
