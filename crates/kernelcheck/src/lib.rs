//! pdnn-kernelcheck: contract-based safety verifier for the unsafe
//! SIMD kernel zone.
//!
//! The GEMM micro-kernels under `crates/tensor/src/gemm/kernel/` are
//! the only `unsafe` in the math path: raw pointers, hand-indexed
//! panel walks, and `target_feature`-gated intrinsics. Rather than
//! trusting review alone, every kernel entry point carries
//! machine-readable contract annotations:
//!
//! ```text
//! // kernel-contract: ap points-to len >= kc * MR, noalias
//! // kernel-contract: requires target_feature(avx2)
//! ```
//!
//! and this crate verifies, lexically and symbolically, that
//!
//! * every raw access stays inside the declared bounds (`k1`), is
//!   aligned when the intrinsic demands it (`k3`), and every unsafe
//!   kernel declares contracts at all (`k2`);
//! * every intrinsic is enabled, runtime-detected, and dispatched only
//!   by backends whose ISA implies it (`k4`);
//! * the safe wrappers actually establish each declared bound (`k5`)
//!   and never alias `noalias` operands (`k7`);
//! * the safe drivers slice micro-panels to *exactly* the lengths the
//!   contracts consume (`k6`).
//!
//! Like `pdnn-protocheck`, the pass is self-testing: a battery of
//! seeded source mutations must each be caught by the expected rule,
//! proving the checker has teeth, while the clean tree must produce
//! zero findings, proving it has no false positives.
//!
//! Suppressions reuse the workspace-wide `// pdnn-lint: allow(<rule>):
//! <reason>` grammar; unused or malformed directives are reported as
//! meta diagnostics.

pub mod check;
pub mod expr;
pub mod extract;
pub mod mutate;
pub mod report;

use pdnn_lint::source::SourceFile;
use pdnn_lint::{directives, rules, Finding, MetaDiag};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

pub use check::{CoverageSite, KernelSummary};

/// Rule ids, registered in `pdnn_lint::rules::KERNELCHECK_RULES` so
/// the shared suppression machinery recognizes them.
pub const K1: &str = "k1-oob-access";
pub const K2: &str = "k2-missing-contract";
pub const K3: &str = "k3-alignment";
pub const K4: &str = "k4-feature-guard";
pub const K5: &str = "k5-wrapper-precondition";
pub const K6: &str = "k6-driver-guarantee";
pub const K7: &str = "k7-noalias";

/// The unsafe zone: every `.rs` file under this directory is parsed
/// into the kernel model.
pub const ZONE_DIR: &str = "crates/tensor/src/gemm/kernel";

/// Safe drivers whose call-site guarantees (`k6`) and dispatch tables
/// (`k4`) the checker verifies against the zone contracts.
pub const DRIVER_FILES: &[&str] = &[
    "crates/tensor/src/gemm/mod.rs",
    "crates/tensor/src/gemm/prepacked.rs",
    "crates/tensor/src/gemm/backend.rs",
    "crates/tensor/src/vmath.rs",
];

/// An in-memory snapshot of the checked sources, so the mutation
/// self-test can analyze perturbed trees without touching disk.
#[derive(Clone)]
pub struct Tree {
    /// (repo-relative path, contents), zone files then drivers.
    pub files: Vec<(String, String)>,
}

impl Tree {
    /// Load the zone and driver files from a repo root.
    pub fn load(root: &Path) -> io::Result<Tree> {
        let mut files = Vec::new();
        let zone = root.join(ZONE_DIR);
        let mut zone_paths: Vec<_> = fs::read_dir(&zone)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        zone_paths.sort();
        for p in zone_paths {
            let Some(name) = p.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            files.push((format!("{ZONE_DIR}/{name}"), fs::read_to_string(&p)?));
        }
        for d in DRIVER_FILES {
            files.push(((*d).to_string(), fs::read_to_string(root.join(d))?));
        }
        Ok(Tree { files })
    }

    pub fn get(&self, path: &str) -> Option<&str> {
        self.files
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, c)| c.as_str())
    }

    /// A copy of the tree with the first occurrence of `from` in
    /// `path` replaced by `to`; `None` if the file or pattern is
    /// absent (a stale mutation spec, which the self-test treats as a
    /// hard error).
    pub fn with_replacement(&self, path: &str, from: &str, to: &str) -> Option<Tree> {
        let mut out = self.clone();
        let entry = out.files.iter_mut().find(|(p, _)| p == path)?;
        if !entry.1.contains(from) {
            return None;
        }
        entry.1 = entry.1.replacen(from, to, 1);
        Some(out)
    }
}

/// Result of the static pass over one tree.
pub struct StaticOutcome {
    pub findings: Vec<Finding>,
    /// Findings waived by `// pdnn-lint: allow(k...)`, with reasons.
    pub suppressed: Vec<(Finding, String)>,
    /// Problems with the directives themselves (unknown rule, unused
    /// suppression, malformed syntax).
    pub meta: Vec<MetaDiag>,
    pub coverage: Vec<CoverageSite>,
    pub kernels: Vec<KernelSummary>,
}

impl StaticOutcome {
    /// The acceptance bar: no findings, no meta diagnostics, and every
    /// unsafe site covered by a verified contract.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.meta.is_empty() && self.coverage.iter().all(|c| c.covered)
    }
}

/// Run the full static pass over an in-memory tree.
pub fn analyze(tree: &Tree) -> StaticOutcome {
    let mut zone = Vec::new();
    let mut drivers = Vec::new();
    for (path, text) in &tree.files {
        if path.starts_with(ZONE_DIR) {
            zone.push(extract::parse_zone_file(path, text));
        } else {
            drivers.push(SourceFile::parse(path, text));
        }
    }
    // Micro-tile constants (MR/NR) live in the driver `gemm/mod.rs`;
    // zone-local constants fold in on top.
    let mut consts = BTreeMap::new();
    for d in &drivers {
        consts.append(&mut extract::const_table(d));
    }
    for z in &zone {
        consts.append(&mut extract::const_table(&z.file));
    }

    let (raw_findings, coverage, kernels) = check::run(&zone, &drivers, &consts);

    // Suppression pass: shared pdnn-lint grammar, k-rules only.
    let mut suppressions = Vec::new();
    let mut meta = Vec::new();
    for file in zone.iter().map(|z| &z.file).chain(drivers.iter()) {
        let (sup, mut bad) = directives::parse(file, &rules::known_rule);
        meta.append(&mut bad);
        suppressions.extend(
            sup.into_iter()
                .filter(|s| s.rule.starts_with('k'))
                .map(|s| (file.path.clone(), s, false)),
        );
    }
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for f in raw_findings {
        let hit = suppressions
            .iter_mut()
            .find(|(path, s, _)| *path == f.path && s.rule == f.rule && s.target_line == f.line);
        match hit {
            Some((_, s, used)) => {
                *used = true;
                let reason = s
                    .reason
                    .clone()
                    .unwrap_or_else(|| "(no reason given)".to_string());
                suppressed.push((f, reason));
            }
            None => findings.push(f),
        }
    }
    for (path, s, used) in &suppressions {
        if !used {
            meta.push(MetaDiag {
                path: path.clone(),
                line: s.comment_line,
                message: format!(
                    "unused suppression: allow({}) matches no kernelcheck finding",
                    s.rule
                ),
            });
        }
    }

    // Coverage was computed against pre-suppression findings: a
    // waived finding still marks its site uncovered. Suppressing a
    // rule buys quiet output, not a coverage claim.
    StaticOutcome {
        findings,
        suppressed,
        meta,
        coverage,
        kernels,
    }
}

/// Load the tree from `root` and run the static pass.
pub fn run_static(root: &Path) -> io::Result<StaticOutcome> {
    Ok(analyze(&Tree::load(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_replacement_requires_the_pattern() {
        let tree = Tree {
            files: vec![("a.rs".to_string(), "fn main() {}".to_string())],
        };
        assert!(tree.with_replacement("a.rs", "main", "other").is_some());
        assert!(tree.with_replacement("a.rs", "absent", "x").is_none());
        assert!(tree.with_replacement("b.rs", "main", "x").is_none());
    }
}
