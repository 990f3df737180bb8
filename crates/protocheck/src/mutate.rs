//! Mutation self-test: seeded protocol mutations that each rule must
//! catch.
//!
//! Rather than trusting that the checker *would* flag a broken
//! protocol, this module clones the extracted clean [`Model`], applies
//! one deliberate protocol bug at a time (reordered collectives,
//! mismatched tags, dropped barriers, undeclared opcodes, …), and
//! asserts the expected rule fires. A mutation may legitimately
//! trigger additional rules (e.g. removing a worker receive skews both
//! the p1 sequence and the p3 count balance); the requirement is only
//! that the *expected* rule appears.

use crate::check::{self, P1, P2, P3, P4};
use crate::model::{CommandSpec, ElemKind, Model, Op, Peer, SeqOp, Site};

/// One seeded protocol mutation.
pub struct Mutation {
    /// Stable name, e.g. `m01-swap-gradient-reduces`.
    pub name: &'static str,
    /// The rule that must flag this mutation.
    pub expected_rule: &'static str,
    /// What the mutation simulates breaking.
    pub describes: &'static str,
    apply: fn(&mut Model),
}

/// Outcome of running one mutation through the checker.
pub struct MutationResult {
    pub name: &'static str,
    pub expected_rule: &'static str,
    /// Did the expected rule fire?
    pub flagged: bool,
    /// Every rule that fired, for the report.
    pub fired_rules: Vec<&'static str>,
}

fn seq(op: Op) -> SeqOp {
    SeqOp {
        op,
        site: Site::new("crates/core/src/distributed.rs", 0),
    }
}

fn swap_master_ops(m: &mut Model, cmd: &str) {
    if let Some(c) = m.command_mut(cmd) {
        if let Some(master) = c.master.as_mut() {
            if master.len() >= 2 {
                master.swap(0, 1);
            }
        }
    }
}

fn drop_master_op(m: &mut Model, cmd: &str) {
    if let Some(c) = m.command_mut(cmd) {
        if let Some(master) = c.master.as_mut() {
            master.pop();
        }
    }
}

fn drop_worker_op(m: &mut Model, cmd: &str) {
    if let Some(c) = m.command_mut(cmd) {
        if let Some(worker) = c.worker.as_mut() {
            worker.pop();
        }
    }
}

fn retag_first_recv(m: &mut Model, new_tag: u64) {
    if let Some(r) = m.startup_recvs.first_mut() {
        if let Op::Recv { tag, .. } = &mut r.op {
            *tag = Some(new_tag);
        }
    }
}

fn rekind_first_send(m: &mut Model, new_kind: ElemKind) {
    if let Some(s) = m.startup_sends.first_mut() {
        if let Op::Send { kind, .. } = &mut s.op {
            *kind = new_kind;
        }
    }
}

fn set_worker_op(m: &mut Model, cmd: &str, idx: usize, op: Op) {
    if let Some(c) = m.command_mut(cmd) {
        if let Some(worker) = c.worker.as_mut() {
            if let Some(slot) = worker.get_mut(idx) {
                slot.op = op;
            }
        }
    }
}

fn set_master_op(m: &mut Model, cmd: &str, idx: usize, op: Op) {
    if let Some(c) = m.command_mut(cmd) {
        if let Some(master) = c.master.as_mut() {
            if let Some(slot) = master.get_mut(idx) {
                slot.op = op;
            }
        }
    }
}

/// The full mutation suite. Every protocol rule is covered by several
/// distinct mutations.
pub fn mutations() -> Vec<Mutation> {
    vec![
        Mutation {
            name: "m01-swap-gradient-master-ops",
            expected_rule: P1,
            describes: "master issues the GRADIENT reduces in reverse order",
            apply: |m| swap_master_ops(m, "CMD_GRADIENT"),
        },
        Mutation {
            name: "m02-drop-gradient-master-reduce",
            expected_rule: P1,
            describes: "master forgets the GRADIENT metadata reduce",
            apply: |m| drop_master_op(m, "CMD_GRADIENT"),
        },
        Mutation {
            name: "m03-drop-heldout-worker-reduce",
            expected_rule: P1,
            describes: "worker HELDOUT arm forgets its reduce",
            apply: |m| drop_worker_op(m, "CMD_HELDOUT"),
        },
        Mutation {
            name: "m04-set-theta-worker-wrong-root",
            expected_rule: P1,
            describes: "worker receives the theta broadcast from root 1",
            apply: |m| {
                set_worker_op(
                    m,
                    "CMD_SET_THETA",
                    0,
                    Op::Bcast {
                        root: Some(1),
                        kind: ElemKind::F32,
                        len: None,
                    },
                )
            },
        },
        Mutation {
            name: "m05-set-theta-master-wrong-kind",
            expected_rule: P1,
            describes: "master broadcasts theta as f64 while workers expect f32",
            apply: |m| {
                set_master_op(
                    m,
                    "CMD_SET_THETA",
                    0,
                    Op::Bcast {
                        root: Some(0),
                        kind: ElemKind::F64,
                        len: None,
                    },
                )
            },
        },
        Mutation {
            name: "m06-gradient-meta-len-skew",
            expected_rule: P1,
            describes: "worker reduces a 3-element metadata buffer against the master's 2",
            apply: |m| {
                set_worker_op(
                    m,
                    "CMD_GRADIENT",
                    1,
                    Op::Reduce {
                        root: Some(0),
                        kind: ElemKind::F64,
                        len: Some(3),
                    },
                )
            },
        },
        Mutation {
            name: "m07-dispatch-kind-mismatch",
            expected_rule: P1,
            describes: "worker dispatch receives the command header as f32",
            apply: |m| {
                if let Some(d) = m.dispatch.as_mut() {
                    if let Op::Bcast { kind, .. } = &mut d.op {
                        *kind = ElemKind::F32;
                    }
                }
            },
        },
        Mutation {
            name: "m08-load-data-recv-wrong-tag",
            expected_rule: P2,
            describes: "worker listens for the data shard on tag 18 instead of TAG_LOAD_DATA",
            apply: |m| retag_first_recv(m, 18),
        },
        Mutation {
            name: "m09-load-data-send-wrong-kind",
            expected_rule: P2,
            describes: "master ships the shard descriptor as f32 instead of u64",
            apply: |m| rekind_first_send(m, ElemKind::F32),
        },
        Mutation {
            name: "m10-allreduce-internal-tag-skew",
            expected_rule: P2,
            describes: "the hop interpreter receives on tag+3 while sending on its hop window",
            apply: |m| {
                if let Some(f) = m.collective_fns.iter_mut().find(|f| f.name == "exchange") {
                    if let Some(t) = f.recv_tags.first_mut() {
                        *t = "tag+3".to_string();
                    }
                }
            },
        },
        Mutation {
            name: "m11-drop-one-load-data-recv",
            expected_rule: P3,
            describes: "worker consumes only one of the two startup messages",
            apply: |m| {
                m.startup_recvs.pop();
            },
        },
        Mutation {
            name: "m12-worker-skips-shutdown-barrier",
            expected_rule: P3,
            describes: "worker loop returns without joining the shutdown barrier",
            apply: |m| m.shutdown_worker.clear(),
        },
        Mutation {
            name: "m13-extra-unconsumed-send",
            expected_rule: P3,
            describes: "master sends a third startup message no worker ever receives",
            apply: |m| {
                m.startup_sends.push(seq(Op::Send {
                    to: Peer::EachWorker,
                    tag: Some(17),
                    kind: ElemKind::U64,
                }))
            },
        },
        Mutation {
            name: "m14-remove-fisher-worker-arm",
            expected_rule: P4,
            describes: "worker match loses its CMD_FISHER arm",
            apply: |m| {
                if let Some(c) = m.command_mut("CMD_FISHER") {
                    c.worker = None;
                }
            },
        },
        Mutation {
            name: "m15-master-issues-undeclared-opcode",
            expected_rule: P4,
            describes: "master issues an opcode with no const declaration",
            apply: |m| {
                m.commands.push(CommandSpec {
                    name: "CMD_ROGUE".to_string(),
                    value: None,
                    header_len: Some(1),
                    master: Some(vec![]),
                    worker: None,
                    master_site: Site::new("crates/core/src/distributed.rs", 0),
                    worker_site: Site::new("crates/core/src/distributed.rs", 0),
                })
            },
        },
        Mutation {
            name: "m16-duplicate-opcode-value",
            expected_rule: P4,
            describes: "CMD_FISHER's opcode collides with CMD_GRADIENT's",
            apply: |m| {
                let grad = m.const_value("CMD_GRADIENT");
                if let (Some(v), Some(slot)) = (
                    grad,
                    m.consts.iter_mut().find(|(n, _, _)| n == "CMD_FISHER"),
                ) {
                    slot.1 = v;
                }
            },
        },
        Mutation {
            name: "m17-worker-drops-catchall",
            expected_rule: P4,
            describes: "worker match silently ignores unknown opcodes",
            apply: |m| m.worker_catchall = false,
        },
        Mutation {
            name: "m18-load-data-replay-kind-skew",
            expected_rule: P1,
            describes:
                "worker receives the re-shard replay ids as f32 against the master's u64 fan-out",
            apply: |m| {
                set_worker_op(
                    m,
                    "CMD_LOAD_DATA",
                    0,
                    Op::Recv {
                        from: Peer::Rank(0),
                        tag: Some(17),
                        kind: ElemKind::F32,
                    },
                )
            },
        },
    ]
}

/// Run the whole mutation suite against a clean model.
///
/// Also verifies the precondition that the *unmutated* model is clean;
/// if it is not, every result is reported unflagged so the caller
/// fails loudly instead of crediting rules that fire on the baseline.
pub fn selftest(clean: &Model) -> Vec<MutationResult> {
    let baseline_dirty = !check::check(clean).is_empty();
    mutations()
        .into_iter()
        .map(|mutation| {
            let mut mutant = clean.clone();
            (mutation.apply)(&mut mutant);
            let findings = check::check(&mutant);
            let mut fired: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
            fired.sort_unstable();
            fired.dedup();
            MutationResult {
                name: mutation.name,
                expected_rule: mutation.expected_rule,
                flagged: !baseline_dirty && fired.contains(&mutation.expected_rule),
                fired_rules: fired,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_large_and_covers_every_rule() {
        let muts = mutations();
        assert!(
            muts.len() >= 12,
            "need >= 12 mutations, have {}",
            muts.len()
        );
        for rule in [P1, P2, P3, P4] {
            assert!(
                muts.iter().any(|m| m.expected_rule == rule),
                "no mutation targets {rule}"
            );
        }
        // Names must be unique (they key the JSON report).
        let mut names: Vec<_> = muts.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), muts.len());
    }

    #[test]
    fn dirty_baseline_never_credits_mutations() {
        // A model that already violates p4 (no catch-all) must not
        // report any mutation as flagged.
        let dirty = Model::default();
        let results = selftest(&dirty);
        assert!(results.iter().all(|r| !r.flagged));
    }
}
