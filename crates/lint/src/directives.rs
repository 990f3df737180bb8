//! Shared `// pdnn-lint: allow(...)` directive parsing.
//!
//! The suppression grammar is owned by pdnn-lint but consumed by every
//! static pass in the workspace (the linter itself and
//! `pdnn-protomc`). Each consumer supplies its own known-rule
//! predicate so a directive naming a rule outside that consumer's
//! vocabulary is rejected at parse time rather than silently ignored.

use crate::source::SourceFile;
use std::fmt;

/// A parsed `// pdnn-lint: allow(<rule>): <reason>` directive.
#[derive(Clone, Debug)]
pub struct Suppression {
    pub rule: String,
    pub reason: Option<String>,
    /// 1-based line the directive waives.
    pub target_line: usize,
    /// 1-based line the comment itself is on.
    pub comment_line: usize,
}

/// Problems with the suppression comments themselves.
#[derive(Clone, Debug)]
pub struct MetaDiag {
    pub path: String,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for MetaDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[meta-suppression]: {}", self.message)?;
        write!(f, "  --> {}:{}", self.path, self.line)
    }
}

const DIRECTIVE: &str = "pdnn-lint:";

/// Extract suppression directives from a file's comments, validating
/// rule names against `known`. Malformed directives become meta
/// diagnostics immediately.
pub fn parse(file: &SourceFile, known: &dyn Fn(&str) -> bool) -> (Vec<Suppression>, Vec<MetaDiag>) {
    let mut sup = Vec::new();
    let mut meta = Vec::new();
    let masked_lines: Vec<&str> = file.masked.lines().collect();
    for c in &file.comments {
        // Directives live in plain `//` comments only; doc comments
        // (`///`, `//!`) routinely *describe* the syntax without
        // meaning it (this file's own docs, RULES.md excerpts).
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(at) = c.text.find(DIRECTIVE) else {
            continue;
        };
        let rest = c.text[at + DIRECTIVE.len()..].trim();
        let comment_line = c.line + 1;
        let Some(args) = rest.strip_prefix("allow(") else {
            meta.push(MetaDiag {
                path: file.path.clone(),
                line: comment_line,
                message: format!("unrecognized pdnn-lint directive `{rest}`; expected `allow(<rule-id>): <reason>`"),
            });
            continue;
        };
        let Some(close) = args.find(')') else {
            meta.push(MetaDiag {
                path: file.path.clone(),
                line: comment_line,
                message: "unclosed `allow(` in pdnn-lint directive".to_string(),
            });
            continue;
        };
        let rule = args[..close].trim().to_string();
        if !known(&rule) {
            meta.push(MetaDiag {
                path: file.path.clone(),
                line: comment_line,
                message: format!("unknown rule `{rule}` in pdnn-lint allow"),
            });
            continue;
        }
        let after = args[close + 1..].trim();
        let reason = after
            .strip_prefix(':')
            .map(str::trim)
            .filter(|r| !r.is_empty())
            .map(str::to_string);
        if reason.is_none() {
            meta.push(MetaDiag {
                path: file.path.clone(),
                line: comment_line,
                message: format!(
                    "pdnn-lint allow({rule}) without a reason; append `: <why this is safe>`"
                ),
            });
            continue;
        }
        // A standalone comment waives the next line that has code; an
        // end-of-line comment waives its own line.
        let target_line = if c.standalone {
            let mut t = c.line + 1;
            while t < masked_lines.len() && masked_lines[t].trim().is_empty() {
                t += 1;
            }
            t + 1
        } else {
            comment_line
        };
        sup.push(Suppression {
            rule,
            reason,
            target_line,
            comment_line,
        });
    }
    (sup, meta)
}
