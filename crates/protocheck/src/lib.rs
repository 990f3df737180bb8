//! # pdnn-protocheck
//!
//! Communication-protocol checker and schedule-perturbation race
//! detector for the distributed HF layer (ISSUE 3 tentpole).
//!
//! **Pass 1 (static)** extracts a per-role model of every
//! communication call site in `crates/core/src/distributed.rs` and
//! `crates/mpisim/src/collectives.rs` ([`extract`]) and validates it
//! ([`check`]) against four protocol rules: rank-consistent collective
//! ordering (`p1-collective-order`), matched send/recv tag and payload
//! pairs (`p2-tag-match`), no unconsumed messages at the shutdown
//! barrier (`p3-unconsumed-message`), and command-space integrity
//! (`p4-command-space`). Findings reuse `pdnn-lint`'s diagnostic and
//! suppression machinery — a `// pdnn-lint: allow(p2-tag-match): why`
//! comment waives a protocheck finding exactly like a lint one.
//!
//! **Pass 2 (dynamic)** replays a small training job under K seeded
//! schedule perturbations with vector-clock happens-before tracking
//! ([`dynamic`]), asserting bit-identical weights and byte-identical
//! telemetry for every seed.
//!
//! The **mutation self-test** ([`mutate`]) proves the static rules
//! have teeth: seventeen seeded protocol mutations must each be
//! flagged by the expected rule while the unmutated workspace stays
//! clean.

pub mod check;
pub mod dynamic;
pub mod extract;
pub mod model;
pub mod mutate;
pub mod report;

use pdnn_lint::source::SourceFile;
use pdnn_lint::{Finding, MetaDiag};
use std::fs;
use std::io;
use std::path::Path;

/// Result of the static pass over a workspace root.
pub struct StaticOutcome {
    /// The extracted protocol model (inputs to the mutation self-test).
    pub model: model::Model,
    /// Findings that survived suppression filtering.
    pub findings: Vec<Finding>,
    /// Suppressed findings with the waiver reason.
    pub suppressed: Vec<(Finding, String)>,
    /// Suppression-machinery diagnostics (unused protocheck waivers).
    pub meta: Vec<MetaDiag>,
}

fn load(root: &Path, rel: &str) -> io::Result<SourceFile> {
    let raw = fs::read_to_string(root.join(rel))?;
    Ok(SourceFile::parse(rel, &raw))
}

/// Run the static pass: extract the model from the two protocol
/// surfaces under `root` and check it.
pub fn run_static(root: &Path) -> io::Result<StaticOutcome> {
    let distributed = load(root, extract::DISTRIBUTED_PATH)?;
    let collectives = load(root, extract::COLLECTIVES_PATH)?;
    let model = extract::extract(&distributed, &collectives);
    let mut findings = check::check(&model);

    let file_for = |path: &str| -> &SourceFile {
        if path == extract::COLLECTIVES_PATH {
            &collectives
        } else {
            &distributed
        }
    };
    for f in &mut findings {
        // `raw_line` is 0-indexed; finding lines are 1-based.
        f.snippet = file_for(&f.path)
            .raw_line(f.line.saturating_sub(1))
            .trim()
            .to_string();
    }

    // Suppression filtering, reusing pdnn-lint's directive syntax.
    // Only protocheck's own (p-prefixed) rules are considered here;
    // pdnn-lint owns the rest, including unused-waiver errors for
    // its rules (it skips p-rules for exactly this hand-off).
    let mut suppressed = Vec::new();
    let mut meta = Vec::new();
    for file in [&distributed, &collectives] {
        let (sups, _lint_meta) = pdnn_lint::suppressions(file);
        for sup in sups.iter().filter(|s| s.rule.starts_with('p')) {
            let mut used = false;
            findings.retain(|f| {
                let hit = f.path == file.path && f.rule == sup.rule && f.line == sup.target_line;
                if hit {
                    used = true;
                    suppressed.push((
                        f.clone(),
                        sup.reason
                            .clone()
                            .unwrap_or_else(|| "(no reason)".to_string()),
                    ));
                }
                !hit
            });
            if !used {
                meta.push(MetaDiag {
                    path: file.path.clone(),
                    line: sup.comment_line,
                    message: format!(
                        "{}:{}: allow({}) suppresses nothing: protocheck \
                         reports no `{}` finding on line {}",
                        file.path, sup.comment_line, sup.rule, sup.rule, sup.target_line
                    ),
                });
            }
        }
    }

    Ok(StaticOutcome {
        model,
        findings,
        suppressed,
        meta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> std::path::PathBuf {
        // crates/protocheck -> crates -> repo root
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(Path::to_path_buf)
            .unwrap_or_default()
    }

    #[test]
    fn workspace_protocol_is_clean() {
        let outcome = run_static(&workspace_root()).expect("protocol surfaces readable");
        let rendered: Vec<String> = outcome.findings.iter().map(|f| format!("{f}")).collect();
        assert!(
            outcome.findings.is_empty(),
            "unexpected protocol findings:\n{}",
            rendered.join("\n")
        );
        assert!(outcome.meta.is_empty());
    }

    #[test]
    fn extracted_model_matches_the_protocol_shape() {
        let outcome = run_static(&workspace_root()).expect("protocol surfaces readable");
        let m = &outcome.model;
        // Eight commands (incl. the recovery-path CMD_LOAD_DATA) + the
        // data-load tag.
        assert_eq!(
            m.consts
                .iter()
                .filter(|(n, _, _)| n.starts_with("CMD_"))
                .count(),
            8,
            "{:?}",
            m.consts
        );
        assert_eq!(m.const_value("TAG_LOAD_DATA"), Some(17));
        // Every command the master issues has a worker arm.
        for cmd in &m.commands {
            assert!(cmd.worker.is_some(), "{} has no worker arm", cmd.name);
        }
        assert!(m.command("CMD_GRADIENT").is_some());
        assert!(m.dispatch.is_some(), "worker dispatch bcast not found");
        assert!(m.helper_header_bcast.is_some(), "command helper not found");
        assert!(m.worker_catchall);
        assert_eq!(m.startup_sends.len(), 2);
        assert_eq!(m.startup_recvs.len(), 2);
        // The collective tag windows were all modeled — every shape's
        // hops run through `exchange`, the one interpreter of the
        // schedules (the entry points hold no send/recv sites of their
        // own) — plus the peer-coordinated recovery sub-protocol from
        // distributed.rs, whose symmetric fns fall under the same p2
        // pairing rule.
        let names: Vec<&str> = m.collective_fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["exchange", "agree_membership", "recover"]);
    }

    #[test]
    fn mutation_selftest_catches_every_mutation() {
        let outcome = run_static(&workspace_root()).expect("protocol surfaces readable");
        let results = mutate::selftest(&outcome.model);
        assert!(results.len() >= 12);
        let missed: Vec<_> = results
            .iter()
            .filter(|r| !r.flagged)
            .map(|r| {
                format!(
                    "{} (expected {}, fired {:?})",
                    r.name, r.expected_rule, r.fired_rules
                )
            })
            .collect();
        assert!(
            missed.is_empty(),
            "uncaught mutations:\n{}",
            missed.join("\n")
        );
    }
}
