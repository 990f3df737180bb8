//! # pdnn-lint — workspace static analysis
//!
//! A project-specific lint pass enforcing the invariants the
//! simulation's credibility rests on: injectable clocks in simulation
//! crates (L1), deterministic iteration in emission paths (L2),
//! recoverable errors instead of panics in library code (L3), no
//! exact float comparison outside the approved helpers (L4), and
//! telemetry spans on phase-level functions (L5). See
//! `crates/lint/RULES.md` for the catalog and rationale.
//!
//! The pass is lexical, not syntactic: the build environment has no
//! registry access, so instead of `syn` each file is run through a
//! masking lexer ([`source::SourceFile`]) that blanks comments and
//! literal interiors before token matching. That is precise enough
//! for every rule here and keeps the linter dependency-free.
//!
//! ## Suppressions
//!
//! A finding is waived with a comment on the same line or the line
//! directly above, carrying a mandatory reason:
//!
//! ```text
//! // pdnn-lint: allow(l3-no-unwrap): mutex poisoning implies a prior panic
//! let guard = lock.lock().unwrap();
//! ```
//!
//! A suppression without a reason, or one that matches no finding, is
//! itself an error (`meta-suppression`) so the allow-list can never
//! rot silently.

pub mod directives;
pub mod report;
pub mod rules;
pub mod source;

pub use directives::{MetaDiag, Suppression};

use source::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation, before suppression filtering.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: &'static str,
    /// Repo-relative `/`-separated path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    pub message: String,
    /// The raw source line, for rustc-style output.
    pub snippet: String,
}

impl Finding {
    /// Build a finding anchored at byte `offset` of the masked text.
    pub fn new(file: &SourceFile, rule: &'static str, offset: usize, message: String) -> Finding {
        let line0 = file.line_of(offset);
        Finding {
            rule,
            path: file.path.clone(),
            line: line0 + 1,
            col: file.col_of(offset),
            message,
            snippet: file.raw_line(line0).to_string(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.message)?;
        writeln!(f, "  --> {}:{}:{}", self.path, self.line, self.col)?;
        writeln!(f, "   |")?;
        writeln!(f, "{:>3}| {}", self.line, self.snippet)?;
        let caret_pad = " ".repeat(self.col.saturating_sub(1));
        write!(f, "   | {caret_pad}^")
    }
}

/// Extract suppression directives from a file's comments, validating
/// rule names against the full workspace vocabulary (lint and protomc
/// rules). Malformed directives become meta
/// diagnostics immediately. See [`directives::parse`] for a version
/// with a caller-supplied rule predicate.
pub fn suppressions(file: &SourceFile) -> (Vec<Suppression>, Vec<MetaDiag>) {
    directives::parse(file, &rules::known_rule)
}

/// Outcome of linting one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Violations that survived suppression filtering.
    pub findings: Vec<Finding>,
    /// Violations waived by a directive (kept for the JSON report).
    pub suppressed: Vec<(Finding, String)>,
    /// Malformed or unused directives.
    pub meta: Vec<MetaDiag>,
}

/// Lint one file's text.
pub fn lint_text(path: &str, text: &str) -> FileOutcome {
    let file = SourceFile::parse(path, text);
    let raw = rules::run_all(&file);
    let (sups, mut meta) = suppressions(&file);
    let mut used = vec![false; sups.len()];
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for f in raw {
        let hit = sups
            .iter()
            .position(|s| s.rule == f.rule && s.target_line == f.line);
        match hit {
            Some(i) => {
                used[i] = true;
                let reason = sups[i].reason.clone().unwrap_or_default();
                suppressed.push((f, reason));
            }
            None => findings.push(f),
        }
    }
    for (i, s) in sups.iter().enumerate() {
        if !used[i] {
            meta.push(MetaDiag {
                path: path.to_string(),
                line: s.comment_line,
                message: format!(
                    "unused suppression: allow({}) matches no finding on line {}",
                    s.rule, s.target_line
                ),
            });
        }
    }
    FileOutcome {
        findings,
        suppressed,
        meta,
    }
}

/// Every `.rs` file the lint pass covers, as (absolute path,
/// repo-relative path) pairs in deterministic order. `third_party/`
/// shims and target dirs are out of scope (vendored stand-in code,
/// not project code).
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if p.is_dir() {
                if matches!(
                    name,
                    "target" | "third_party" | ".git" | "results" | "fixtures"
                ) {
                    continue;
                }
                stack.push(p);
            } else if name.ends_with(".rs") {
                let rel = p
                    .strip_prefix(root)
                    .map(|r| r.to_string_lossy().replace('\\', "/"))
                    .unwrap_or_else(|_| p.to_string_lossy().into_owned());
                out.push((p, rel));
            }
        }
    }
    out.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(out)
}

/// The workspace root at or above `dir`: the nearest directory whose
/// `Cargo.toml` has a `[workspace]` table. `None` if no ancestor has
/// one.
pub fn find_workspace_root(dir: &Path) -> Option<PathBuf> {
    dir.ancestors()
        .find(|d| {
            std::fs::read_to_string(d.join("Cargo.toml"))
                .is_ok_and(|t| t.lines().any(|l| l.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
}

/// Lint the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<FileOutcome>, usize)> {
    let files = collect_workspace_files(root)?;
    let count = files.len();
    let mut outcomes = Vec::new();
    for (abs, rel) in files {
        let text = std::fs::read_to_string(&abs)?;
        let outcome = lint_text(&rel, &text);
        if !outcome.findings.is_empty()
            || !outcome.suppressed.is_empty()
            || !outcome.meta.is_empty()
        {
            outcomes.push(outcome);
        }
    }
    Ok((outcomes, count))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_the_nearest_ancestor_with_a_workspace_table() {
        let tmp = std::env::temp_dir().join(format!("pdnn-lint-root-{}", std::process::id()));
        let member = tmp.join("ws/crates/member/src");
        std::fs::create_dir_all(&member).unwrap();
        std::fs::write(tmp.join("Cargo.toml"), "[workspace]\n").unwrap();
        std::fs::write(
            tmp.join("ws/Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n\n[workspace.package]\n",
        )
        .unwrap();
        std::fs::write(
            tmp.join("ws/crates/member/Cargo.toml"),
            "[package]\nname = \"member\"\n[workspace.dependencies]\n",
        )
        .unwrap();
        std::fs::create_dir_all(tmp.join("other")).unwrap();
        let from_member = find_workspace_root(&member);
        let from_other = find_workspace_root(&tmp.join("other"));
        std::fs::remove_dir_all(&tmp).unwrap();
        // The member's own manifest has no `[workspace]` table, and the
        // outer workspace is farther up than the inner one.
        assert_eq!(from_member, Some(tmp.join("ws")));
        assert_eq!(from_other, Some(tmp));
    }

    #[test]
    fn same_line_suppression_waives_and_is_used() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // pdnn-lint: allow(l3-no-unwrap): checked by caller\n}\n";
        let o = lint_text("crates/util/src/x.rs", src);
        assert!(o.findings.is_empty(), "{:?}", o.findings);
        assert_eq!(o.suppressed.len(), 1);
        assert_eq!(o.suppressed[0].1, "checked by caller");
        assert!(o.meta.is_empty(), "{:?}", o.meta);
    }

    #[test]
    fn standalone_suppression_targets_next_code_line() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    // pdnn-lint: allow(l3-no-unwrap): invariant: always Some here\n\n    v.unwrap()\n}\n";
        let o = lint_text("crates/util/src/x.rs", src);
        assert!(o.findings.is_empty(), "{:?}", o.findings);
        assert_eq!(o.suppressed.len(), 1);
    }

    #[test]
    fn suppression_without_reason_is_an_error() {
        let src =
            "fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // pdnn-lint: allow(l3-no-unwrap)\n}\n";
        let o = lint_text("crates/util/src/x.rs", src);
        assert_eq!(o.findings.len(), 1, "finding survives");
        assert_eq!(o.meta.len(), 1);
        assert!(o.meta[0].message.contains("without a reason"));
    }

    #[test]
    fn unused_suppression_is_an_error() {
        let src = "// pdnn-lint: allow(l1-sim-wall-clock): nothing here uses clocks\nfn f() {}\n";
        let o = lint_text("crates/mpisim/src/x.rs", src);
        assert_eq!(o.meta.len(), 1);
        assert!(o.meta[0].message.contains("unused suppression"));
    }

    #[test]
    fn unknown_rule_in_allow_is_an_error() {
        let src = "fn f() {} // pdnn-lint: allow(l9-nonsense): because\n";
        let o = lint_text("crates/util/src/x.rs", src);
        assert_eq!(o.meta.len(), 1);
        assert!(o.meta[0].message.contains("unknown rule"));
    }

    #[test]
    fn suppression_only_waives_its_own_rule() {
        let src = "fn f(x: f64) -> bool {\n    x == 0.0 // pdnn-lint: allow(l3-no-unwrap): wrong rule\n}\n";
        let o = lint_text("crates/util/src/x.rs", src);
        assert_eq!(o.findings.len(), 1, "l4 finding survives");
        assert_eq!(o.meta.len(), 1, "allow is unused");
    }

    #[test]
    fn every_rule_fires_and_every_rule_is_suppressible() {
        // (path, offending fixture, same fixture with an allow).
        let span_body = "    let x = 1;\n".repeat(12);
        let fixtures: Vec<(&str, &str, String, String)> = vec![
            (
                "l1-sim-wall-clock",
                "crates/mpisim/src/fix.rs",
                "fn f() { let t = std::time::Instant::now(); let _ = t; }\n".into(),
                "// pdnn-lint: allow(l1-sim-wall-clock): fixture\nfn f() { let t = std::time::Instant::now(); let _ = t; }\n".into(),
            ),
            (
                "l2-iteration-order",
                "crates/obs/src/fix.rs",
                "use std::collections::HashMap;\n".into(),
                "use std::collections::HashMap; // pdnn-lint: allow(l2-iteration-order): fixture\n".into(),
            ),
            (
                "l3-no-unwrap",
                "crates/util/src/fix.rs",
                "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n".into(),
                "fn f(v: Option<u32>) -> u32 { v.unwrap() } // pdnn-lint: allow(l3-no-unwrap): fixture\n".into(),
            ),
            (
                "l4-float-exact-compare",
                "crates/core/src/fix.rs",
                "fn f(x: f64) -> bool { x == 0.0 }\n".into(),
                "fn f(x: f64) -> bool { x == 0.0 } // pdnn-lint: allow(l4-float-exact-compare): fixture\n".into(),
            ),
            (
                "l5-phase-span",
                "crates/core/src/optimizer.rs",
                format!("pub fn phase() {{\n{span_body}}}\n"),
                format!("// pdnn-lint: allow(l5-phase-span): fixture\npub fn phase() {{\n{span_body}}}\n"),
            ),
        ];
        for (rule, path, bad, allowed) in fixtures {
            let o = lint_text(path, &bad);
            assert!(
                o.findings.iter().any(|f| f.rule == rule),
                "{rule}: fixture did not fire: {:?}",
                o.findings
            );
            let o = lint_text(path, &allowed);
            assert!(
                o.findings.iter().all(|f| f.rule != rule),
                "{rule}: allow did not suppress: {:?}",
                o.findings
            );
            assert!(
                o.suppressed.iter().any(|(f, _)| f.rule == rule),
                "{rule}: suppression not recorded"
            );
            assert!(o.meta.is_empty(), "{rule}: {:?}", o.meta);
        }
    }

    #[test]
    fn display_is_rustc_shaped() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
        let o = lint_text("crates/util/src/x.rs", src);
        let text = o.findings[0].to_string();
        assert!(text.starts_with("error[l3-no-unwrap]:"), "{text}");
        assert!(text.contains("--> crates/util/src/x.rs:2:"), "{text}");
        assert!(text.contains("v.unwrap()"), "{text}");
    }
}
