//! `results/protomc_report.json` — the machine-readable acceptance
//! artifact, hand-rolled JSON via the shared `pdnn_lint::report`
//! scaffolding (the workspace is dependency-free; no serde).
//!
//! Top-level shape (stable; verify.sh greps it):
//!
//! ```json
//! {
//!   "tool": "pdnn-protomc",
//!   "findings": 0,
//!   "reduction_ok": true,
//!   "violations": [],
//!   "worlds": [{"ranks": 3, "fault_budget": 1, "states_full": 0,
//!               "transitions_full": 0, "states_reduced": 0,
//!               "transitions_reduced": 0, "reduction_ratio": 0.0,
//!               "terminals": 0, "kill_placements": 0,
//!               "verdicts": {"p5-deadlock-free": "proved"}, "agrees": true}],
//!   "decentral": {"findings": 0, "worlds": [{"mode": "ring", "ranks": 3,
//!               "kill_placements": 0, "states": 0, "transitions": 0,
//!               "terminals": 0,
//!               "verdicts": {"p5-deadlock-free": "proved"}}]},
//!   "mutation_selftest": {"mutations": 21, "caught": 21, "results": []},
//!   "conformance": {"unmapped": 0, "runs": []}
//! }
//! ```

use crate::conformance::RunReplay;
use crate::decentral::{self, DecentralWorld};
use crate::explorer::{P5, P6, P7};
use crate::mutate::MutationResult;
use crate::{CheckOutcome, WorldResult};
use pdnn_lint::report::{json_escape, push_findings, write_results};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One named conformance run for the report.
pub struct NamedRun {
    pub name: String,
    pub dead_ranks: Vec<usize>,
    pub replay: RunReplay,
}

/// Everything one CLI invocation learned.
pub struct Report<'a> {
    pub check: Option<&'a CheckOutcome>,
    /// Masterless (ring/tree) world results, checked alongside the
    /// master-protocol worlds.
    pub decentral: Option<&'a [DecentralWorld]>,
    pub mutation_results: Option<&'a [MutationResult]>,
    pub conformance_runs: Option<&'a [NamedRun]>,
}

fn push_world(out: &mut String, w: &WorldResult) {
    let ratio = if w.full.transitions == 0 {
        1.0
    } else {
        w.reduced.transitions as f64 / w.full.transitions as f64
    };
    let _ = write!(
        out,
        "{{\"ranks\": {}, \"fault_budget\": {}, \"states_full\": {}, \
         \"transitions_full\": {}, \"states_reduced\": {}, \"transitions_reduced\": {}, \
         \"reduction_ratio\": {:.4}, \"terminals\": {}, \"kill_placements\": {}",
        w.ranks,
        w.budget,
        w.full.states,
        w.full.transitions,
        w.reduced.states,
        w.reduced.transitions,
        ratio,
        w.full.terminals,
        w.full.kill_placements,
    );
    out.push_str(", \"verdicts\": {");
    for (i, rule) in [P5, P6, P7].iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let verdict = if w.full.violations.iter().any(|v| v.rule == *rule) {
            "violated"
        } else {
            "proved"
        };
        let _ = write!(out, "\"{rule}\": \"{verdict}\"");
    }
    let _ = write!(out, "}}, \"agrees\": {}}}", w.agrees);
}

fn push_decentral(out: &mut String, worlds: &[DecentralWorld]) {
    let findings: usize = worlds.iter().map(|w| w.outcome.violations.len()).sum();
    let _ = write!(out, "{{\"findings\": {findings}, \"worlds\": [");
    for (i, w) in worlds.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"mode\": \"{}\", \"ranks\": {}, \"kill_placements\": {}, \"states\": {}, \
             \"transitions\": {}, \"terminals\": {}",
            w.label,
            w.ranks,
            w.kill_placements,
            w.outcome.states,
            w.outcome.transitions,
            w.outcome.terminals
        );
        out.push_str(", \"verdicts\": {");
        for (j, (rule, ok)) in decentral::verdicts(&w.outcome).iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let verdict = if *ok { "proved" } else { "violated" };
            let _ = write!(out, "\"{rule}\": \"{verdict}\"");
        }
        out.push_str("}}");
    }
    out.push_str("]}");
}

fn push_mutations(out: &mut String, results: &[MutationResult]) {
    let caught = results.iter().filter(|r| r.caught).count();
    let _ = write!(
        out,
        "{{\"mutations\": {}, \"caught\": {caught}, \"results\": [",
        results.len()
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"expected\": \"{}\", \"caught\": {}, \"fired\": [",
            json_escape(r.name),
            json_escape(r.expected_rule),
            r.caught
        );
        for (j, rule) in r.fired_rules.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", json_escape(rule));
        }
        let _ = write!(out, "], \"summary\": \"{}\"}}", json_escape(r.summary));
    }
    out.push_str("]}");
}

fn push_conformance(out: &mut String, runs: &[NamedRun]) {
    let unmapped: usize = runs.iter().map(|r| r.replay.unmapped).sum();
    let accepted = runs.iter().filter(|r| r.replay.accepted).count();
    let _ = write!(
        out,
        "{{\"unmapped\": {unmapped}, \"accepted\": {accepted}, \"runs\": ["
    );
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let events: usize = run.replay.ranks.iter().map(|r| r.total).sum();
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"accepted\": {}, \"ranks\": {}, \"events\": {events}, \
             \"coll_events\": {}, \"p2p_events\": {}, \"unmapped\": {}, \"dead_ranks\": [",
            json_escape(&run.name),
            run.replay.accepted,
            run.replay.ranks.len(),
            run.replay.coll_events,
            run.replay.p2p_events,
            run.replay.unmapped
        );
        for (j, d) in run.dead_ranks.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{d}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
}

/// Render the whole report (trailing newline included).
fn render(rep: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"tool\": \"pdnn-protomc\",\n");
    let findings = rep.check.map(|c| c.findings.len()).unwrap_or(0);
    let _ = writeln!(s, "  \"findings\": {findings},");
    let reduction_ok = rep
        .check
        .map(|c| c.worlds.iter().all(|w| w.agrees))
        .unwrap_or(true);
    let _ = writeln!(s, "  \"reduction_ok\": {reduction_ok},");
    s.push_str("  \"violations\": ");
    match rep.check {
        Some(c) => push_findings(&mut s, &c.findings),
        None => s.push_str("[]"),
    }
    s.push_str(",\n  \"worlds\": [");
    if let Some(c) = rep.check {
        for (i, w) in c.worlds.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            push_world(&mut s, w);
        }
    }
    s.push_str("],\n  \"decentral\": ");
    match rep.decentral {
        Some(worlds) => push_decentral(&mut s, worlds),
        None => s.push_str("null"),
    }
    s.push_str(",\n  \"mutation_selftest\": ");
    match rep.mutation_results {
        Some(results) => push_mutations(&mut s, results),
        None => s.push_str("null"),
    }
    s.push_str(",\n  \"conformance\": ");
    match rep.conformance_runs {
        Some(runs) => push_conformance(&mut s, runs),
        None => s.push_str("null"),
    }
    s.push_str("\n}\n");
    s
}

/// Write the rendered report to `<root>/results/protomc_report.json`.
pub fn write(root: &Path, rep: &Report) -> io::Result<()> {
    write_results(root, "protomc_report.json", &render(rep))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_keeps_the_gate_greppable_shape() {
        let r = render(&Report {
            check: None,
            decentral: None,
            mutation_results: None,
            conformance_runs: None,
        });
        assert!(r.contains("\"tool\": \"pdnn-protomc\""), "{r}");
        assert!(r.contains("\"findings\": 0,"), "{r}");
        assert!(r.contains("\"decentral\": null"), "{r}");
        assert!(r.contains("\"mutation_selftest\": null"), "{r}");
    }

    #[test]
    fn decentral_section_keeps_the_greppable_shape() {
        let worlds = crate::decentral::check_worlds();
        let r = render(&Report {
            check: None,
            decentral: Some(&worlds),
            mutation_results: None,
            conformance_runs: None,
        });
        assert!(r.contains("\"decentral\": {\"findings\": 0,"), "{r}");
        assert!(r.contains("\"mode\": \"ring\""), "{r}");
        assert!(r.contains("\"mode\": \"tree\""), "{r}");
    }
}
