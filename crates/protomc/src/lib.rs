//! `pdnn-protomc`: explicit-state model checking and trace
//! conformance for the distributed HF training protocol.
//!
//! The master/worker protocol is one command table,
//! `pdnn_core::protocol::COMMANDS`, that both roles interpret: the
//! collective order, tag and opcode discipline hold by construction
//! (see `PROTOCOL.md`). This crate checks the protocol *behaviorally*:
//! [`spec::compile`] lowers the table into executable per-role
//! automata, and the explorer walks every interleaving of their
//! micro-steps for small worlds (2–4 ranks) under a bounded fault
//! budget (0 or 1 injected worker kill at every feasible collective
//! boundary), proving three global properties —
//!
//! * `p5-deadlock-free` — no reachable state wedges a live rank;
//! * `p6-no-lost-message` — no undelivered message between two live
//!   ranks at exit;
//! * `p7-recovery-termination` — every surfaced mid-training death
//!   ends in one completed recovery (ack → redistribute → θ-restore
//!   → replay) and a clean shutdown, or a no-survivor abort.
//!
//! Two independent defenses keep the verdicts honest:
//!
//! * **Reduction cross-check.** Every world is explored twice — full
//!   breadth-first enumeration and sleep-set partial-order reduction
//!   ([`por`]) — and [`run_check`] requires identical verdicts.
//! * **Trace conformance.** [`conformance`] replays per-rank
//!   [`pdnn_mpisim::CommEvent`] streams recorded by *real* training
//!   runs (fault-free and faulted) through the same automata, so the
//!   model provably speaks the language the implementation emits.
//!
//! A seeded mutation battery ([`mutate`]) injects 21 protocol bugs
//! and requires each to be caught by its expected rule. Violations
//! are reported as [`pdnn_lint::Finding`]s under the shared
//! `p5`/`p6`/`p7` rule ids registered in `pdnn_lint::rules`, and the
//! CLI writes `results/protomc_report.json` for the verify.sh gate.
//!
//! The masterless sync strategies (`--sync ring` / `--sync tree`)
//! have no command table, so [`decentral`] models them
//! directly: per-rank micro-step automata of the ring and binomial
//! tree allreduce algorithms, explored exhaustively on 2–4 rank
//! worlds, with their own mutation battery and a trace-conformance
//! replayer for real masterless training runs.

pub mod conformance;
pub mod decentral;
pub mod explorer;
pub mod mutate;
pub mod por;
pub mod report;
pub mod spec;

pub use explorer::{explore, ExploreOutcome, Violation, P5, P6, P7};
pub use por::explore_reduced;
pub use spec::{compile, mermaid, ProtoSpec};

use pdnn_lint::Finding;
use std::path::Path;

/// Both explorations of one world size.
pub struct WorldResult {
    /// Total ranks (workers + master).
    pub ranks: usize,
    /// Kill budget (0-kill runs are a subset of budget-1 exploration).
    pub budget: u8,
    pub full: ExploreOutcome,
    pub reduced: ExploreOutcome,
    /// Full and reduced runs reached the same verdicts.
    pub agrees: bool,
}

/// Every world's results plus the findings they imply.
pub struct CheckOutcome {
    pub worlds: Vec<WorldResult>,
    pub findings: Vec<Finding>,
}

impl CheckOutcome {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.worlds.iter().all(|w| w.agrees)
    }
}

/// Compile the command table into an executable spec. Returns the
/// spec plus the source anchor (path, line) findings point at: the
/// table's definition in the workspace at `root`.
pub fn load_spec(root: &Path) -> Result<(ProtoSpec, String, usize), String> {
    let path = "crates/core/src/protocol.rs";
    let text = std::fs::read_to_string(root.join(path))
        .map_err(|e| format!("cannot read the command table under {root:?}: {e}"))?;
    let line = text
        .lines()
        .position(|l| l.starts_with("pub const COMMANDS"))
        .ok_or_else(|| format!("{path} defines no COMMANDS table"))?;
    Ok((spec::compile(), path.to_string(), line + 1))
}

/// Model-check the spec on each `(workers, budget)` world, full and
/// reduced, converting violations into findings anchored at the
/// protocol dispatch site.
pub fn run_check(
    spec: &ProtoSpec,
    worlds: &[(usize, u8)],
    anchor_path: &str,
    anchor_line: usize,
) -> CheckOutcome {
    let mut out = CheckOutcome {
        worlds: Vec::new(),
        findings: Vec::new(),
    };
    for &(workers, budget) in worlds {
        let full = explore(spec, workers, budget);
        let reduced = explore_reduced(spec, workers, budget);
        let agrees = full.violations == reduced.violations
            && full.kill_placements == reduced.kill_placements
            && full.terminals == reduced.terminals;
        for v in &full.violations {
            out.findings.push(Finding {
                rule: v.rule,
                path: anchor_path.to_string(),
                line: anchor_line,
                col: 1,
                message: format!(
                    "[{}-rank world, fault budget {budget}] {}",
                    workers + 1,
                    v.detail
                ),
                snippet: String::new(),
            });
        }
        out.worlds.push(WorldResult {
            ranks: workers + 1,
            budget,
            full,
            reduced,
            agrees,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(std::path::Path::to_path_buf)
            .unwrap_or_default()
    }

    /// The headline tentpole claim, debug-test sized: the workspace
    /// protocol is deadlock-free, loses no messages, and terminates
    /// recovery on the 2- and 3-rank worlds with fault budget 1, with
    /// the reduced exploration agreeing everywhere. (The 4-rank world
    /// runs in release via the CLI / verify.sh gate.)
    #[test]
    fn workspace_protocol_is_clean_on_small_worlds() {
        let (spec, path, line) = load_spec(&workspace_root()).expect("spec loads");
        assert!(path.ends_with("protocol.rs"), "{path}");
        assert!(line > 0);
        let check = run_check(&spec, &[(1, 1), (2, 1)], &path, line);
        for w in &check.worlds {
            assert!(
                w.agrees,
                "reduction disagrees on the {}-rank world",
                w.ranks
            );
            assert!(
                w.reduced.transitions <= w.full.transitions,
                "{}-rank world: reduction added transitions",
                w.ranks
            );
        }
        assert!(
            check.findings.is_empty(),
            "clean tree produced findings: {:#?}",
            check
                .findings
                .iter()
                .map(|f| format!("{}: {}", f.rule, f.message))
                .collect::<Vec<_>>()
        );
        assert!(check.is_clean());
    }

    #[test]
    fn master_worlds_explore_the_pinned_state_spaces() {
        // (ranks, states, full transitions, reduced transitions,
        // terminals, kill placements) of the budget-1 master worlds:
        // any change to how the explorer lowers a collective must leave
        // every count equal.
        let (spec, path, line) = load_spec(&workspace_root()).expect("spec loads");
        let check = run_check(&spec, &[(1, 1), (2, 1), (3, 1)], &path, line);
        let got: Vec<_> = check
            .worlds
            .iter()
            .map(|w| {
                (
                    w.ranks,
                    w.full.states,
                    w.full.transitions,
                    w.reduced.transitions,
                    w.full.terminals,
                    w.full.kill_placements,
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (2, 116, 154, 154, 16, 10),
                (3, 3_082, 5_218, 5_194, 31, 20),
                (4, 38_834, 97_911, 97_776, 46, 30),
            ]
        );
        assert!(check.is_clean());
    }

    /// Violations must surface as findings under the shared lint rule
    /// ids so downstream report tooling treats all checkers uniformly.
    #[test]
    fn violations_become_findings_under_registered_rules() {
        let (mut spec, path, line) = load_spec(&workspace_root()).expect("spec loads");
        spec.quirks.skip_replay = true;
        let check = run_check(&spec, &[(2, 1)], &path, line);
        assert!(!check.is_clean());
        assert!(check.findings.iter().any(|f| f.rule == P7));
        for f in &check.findings {
            assert!(
                pdnn_lint::rules::known_rule(f.rule),
                "{} is not a registered rule id",
                f.rule
            );
            assert_eq!(f.path, path);
        }
    }
}
