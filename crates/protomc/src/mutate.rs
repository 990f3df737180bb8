//! Mutation self-test: seed protocol bugs into the compiled spec and
//! require the explorer to flag each with the expected rule.
//!
//! Each mutation is the abstract image of a protocol bug on one side
//! (dropping, adding or reordering a collective, re-rooting or
//! re-tagging a receive, unbalancing the startup rendezvous, breaking
//! a recovery step) — bugs the shared command table rules out in the
//! code, kept here so the explorer provably notices each (PROTOCOL.md
//! maps the old static checker's m01–m18 onto them). A mutation is *caught*
//! when exploring the mutated spec on
//! the 3-rank world with fault budget 1 fires the rule the mutation
//! was designed to break; the clean spec must fire none (checked by
//! the explorer's own tests and the CLI gate).

use crate::explorer::{explore, P5, P6, P7};
use crate::spec::{AOp, APeer, ProtoSpec};
use pdnn_core::protocol::{Opcode, TAG_LOAD_DATA};
use pdnn_mpisim::CollElem;

/// One seeded protocol bug.
pub struct Mutation {
    pub name: &'static str,
    pub expected_rule: &'static str,
    /// What the mutation does, for the report.
    pub summary: &'static str,
    apply: fn(&mut ProtoSpec),
}

/// Outcome of exploring one mutated spec.
pub struct MutationResult {
    pub name: &'static str,
    pub expected_rule: &'static str,
    pub summary: &'static str,
    pub caught: bool,
    /// Rules that actually fired on the mutant.
    pub fired_rules: Vec<&'static str>,
}

fn pop_last_matching(ops: &mut Vec<AOp>, pred: fn(&AOp) -> bool) {
    if let Some(i) = ops.iter().rposition(pred) {
        ops.remove(i);
    }
}

fn master(s: &mut ProtoSpec, op: Opcode) -> &mut Vec<AOp> {
    &mut s.commands[op as usize].master
}

fn worker(s: &mut ProtoSpec, op: Opcode) -> &mut Vec<AOp> {
    &mut s.commands[op as usize].worker
}

fn is_reduce(op: &AOp) -> bool {
    matches!(op, AOp::Reduce { .. })
}

fn is_barrier(op: &AOp) -> bool {
    matches!(op, AOp::Barrier)
}

const EXTRA_SEND: AOp = AOp::Send {
    to: APeer::EachWorker,
    tag: TAG_LOAD_DATA,
};

/// The full mutation battery.
pub fn mutations() -> Vec<Mutation> {
    vec![
        Mutation {
            name: "worker-drops-gradient-reduce",
            expected_rule: P5,
            summary: "worker arm skips its half of a gradient reduction",
            apply: |s| pop_last_matching(worker(s, Opcode::Gradient), is_reduce),
        },
        Mutation {
            name: "master-extra-gn-reduce",
            expected_rule: P5,
            summary: "master drains one more GN reduction than workers send",
            apply: |s| {
                let extra = AOp::Reduce {
                    root: 0,
                    kind: f32::KIND,
                };
                master(s, Opcode::GnProduct).push(extra);
            },
        },
        Mutation {
            name: "worker-drops-theta-recv",
            expected_rule: P5,
            summary: "worker arm skips the SET_THETA broadcast receive",
            apply: |s| worker(s, Opcode::SetTheta).clear(),
        },
        Mutation {
            name: "master-skips-shutdown-barrier",
            expected_rule: P5,
            summary: "master exits without joining the teardown barrier",
            apply: |s| pop_last_matching(master(s, Opcode::Shutdown), is_barrier),
        },
        Mutation {
            name: "startup-send-missing",
            expected_rule: P5,
            summary: "master sends one rendezvous message, workers expect two",
            apply: |s| s.startup_sends = s.startup_sends.saturating_sub(1),
        },
        Mutation {
            name: "worker-wrong-dispatch-root",
            expected_rule: P5,
            summary: "workers listen for command headers from rank 1, not 0",
            apply: |s| s.dispatch_root = 1,
        },
        Mutation {
            name: "startup-extra-send",
            expected_rule: P6,
            summary: "master sends a third rendezvous message nobody receives",
            apply: |s| s.startup_sends += 1,
        },
        Mutation {
            name: "loaddata-partial-recv",
            expected_rule: P6,
            summary: "worker consumes one of the two redistribution messages",
            apply: |s| {
                worker(s, Opcode::LoadData).pop();
            },
        },
        Mutation {
            name: "sample-extra-p2p-send",
            expected_rule: P6,
            summary: "master sends an unsolicited tagged message during SAMPLE",
            apply: |s| master(s, Opcode::Sample).push(EXTRA_SEND),
        },
        Mutation {
            name: "recovery-extra-send",
            expected_rule: P6,
            summary: "redistribution sends three messages per worker, arm reads two",
            apply: |s| master(s, Opcode::LoadData).push(EXTRA_SEND),
        },
        Mutation {
            name: "master-reorders-gn-ops",
            expected_rule: P5,
            summary: "master reduces the GN sum before broadcasting the operand",
            apply: |s| master(s, Opcode::GnProduct).swap(0, 1),
        },
        Mutation {
            name: "master-drops-gradient-reduce",
            expected_rule: P6,
            summary: "master forgets the GRADIENT metadata reduce",
            apply: |s| pop_last_matching(master(s, Opcode::Gradient), is_reduce),
        },
        Mutation {
            name: "worker-drops-heldout-reduce",
            expected_rule: P5,
            summary: "worker skips its half of the held-out reduction",
            apply: |s| pop_last_matching(worker(s, Opcode::Heldout), is_reduce),
        },
        Mutation {
            name: "worker-theta-wrong-root",
            expected_rule: P5,
            summary: "worker receives the theta broadcast from root 1",
            apply: |s| {
                worker(s, Opcode::SetTheta)[0] = AOp::Bcast {
                    root: 1,
                    kind: f32::KIND,
                }
            },
        },
        Mutation {
            name: "worker-skips-shutdown-barrier",
            expected_rule: P5,
            summary: "worker exits without joining the teardown barrier",
            apply: |s| pop_last_matching(worker(s, Opcode::Shutdown), is_barrier),
        },
        Mutation {
            name: "startup-recv-missing",
            expected_rule: P6,
            summary: "worker consumes one of the two rendezvous messages",
            apply: |s| s.startup_recvs = s.startup_recvs.saturating_sub(1),
        },
        Mutation {
            name: "loaddata-recv-wrong-tag",
            expected_rule: P5,
            summary: "worker listens for its re-shard ids on tag 18, not 17",
            apply: |s| {
                worker(s, Opcode::LoadData)[0] = AOp::Recv {
                    from: APeer::Rank(0),
                    tag: 18,
                }
            },
        },
        Mutation {
            name: "recovery-skips-ack",
            expected_rule: P7,
            summary: "master never acknowledges the death; recovery loops forever",
            apply: |s| s.quirks.skip_ack = true,
        },
        Mutation {
            name: "recovery-skips-theta-restore",
            expected_rule: P7,
            summary: "recovery redistributes shards but never restores theta",
            apply: |s| s.quirks.skip_settheta = true,
        },
        Mutation {
            name: "recovery-skips-replay",
            expected_rule: P7,
            summary: "recovery shuts down instead of replaying the lost iteration",
            apply: |s| s.quirks.skip_replay = true,
        },
        Mutation {
            name: "fault-ignored",
            expected_rule: P7,
            summary: "master treats a surfaced worker death as success",
            apply: |s| s.quirks.ignore_fault = true,
        },
    ]
}

/// Explore every mutant on the 3-rank world with fault budget 1.
pub fn run_mutations(spec: &ProtoSpec) -> Vec<MutationResult> {
    mutations()
        .into_iter()
        .map(|m| {
            let mut mutant = spec.clone();
            (m.apply)(&mut mutant);
            let out = explore(&mutant, 2, 1);
            let mut fired: Vec<&'static str> = out.violations.iter().map(|v| v.rule).collect();
            fired.dedup();
            MutationResult {
                name: m.name,
                expected_rule: m.expected_rule,
                summary: m.summary,
                caught: fired.contains(&m.expected_rule),
                fired_rules: fired,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn every_seeded_mutation_is_caught() {
        let results = run_mutations(&spec::compile());
        assert!(results.len() >= 21, "battery shrank to {}", results.len());
        let missed: Vec<String> = results
            .iter()
            .filter(|r| !r.caught)
            .map(|r| {
                format!(
                    "{} (expected {}, fired {:?})",
                    r.name, r.expected_rule, r.fired_rules
                )
            })
            .collect();
        assert!(missed.is_empty(), "missed mutations: {missed:?}");
    }
}
