//! The abstract protocol specification the checker executes.
//!
//! [`compile`] lowers `pdnn-protocheck`'s extracted [`Model`] — the
//! per-command master/worker operation sequences scraped from
//! `crates/core/src/distributed.rs` — into a [`ProtoSpec`]: a closed,
//! executable description of both roles. The explorer
//! ([`crate::explorer`]) instantiates the spec for a concrete world
//! size and walks every interleaving; the conformance replayer
//! ([`crate::conformance`]) drives the same spec with recorded
//! [`pdnn_mpisim::CommEvent`] streams from real training runs.
//!
//! Two deliberate abstractions, documented here because every verdict
//! is relative to them:
//!
//! * **Collectives are the timed stars.** The explorer lowers `bcast`,
//!   `reduce` and `barrier` from the hop lists of
//!   `pdnn_mpisim::schedule::{fan_out, fan_in, star}` — the shapes the
//!   faulted runtime runs, read from the same functions it interprets.
//!   The binomial fault-free paths are op-for-op equivalent at the
//!   protocol level (same per-rank collective counts, same root), which
//!   `pdnn-protocheck` p1 already enforces; their halves are explored
//!   inside the masterless model's `schedule::tree`.
//! * **One canonical training iteration.** The optimizer issues
//!   `SET_THETA, GRADIENT, SAMPLE, GN, HELDOUT` per iteration (CG
//!   re-issues `GN` and the line search re-issues `HELDOUT`; repeating
//!   a verified command block cannot create new protocol states, so
//!   the model runs each once).

use pdnn_protocheck::model::{ElemKind, Model, Op, Peer};

/// Abstract communication operation, as one role executes it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AOp {
    /// Collective broadcast rooted at `root`.
    Bcast { root: usize, kind: ElemKind },
    /// Collective reduction rooted at `root`.
    Reduce { root: usize, kind: ElemKind },
    /// Collect-then-release barrier through rank 0.
    Barrier,
    /// Point-to-point send.
    Send { to: APeer, tag: u64, kind: ElemKind },
    /// Point-to-point receive.
    Recv {
        from: APeer,
        tag: u64,
        kind: ElemKind,
    },
}

/// Peer of a point-to-point op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum APeer {
    Rank(usize),
    /// Expanded against the master's believed-live worker set.
    EachWorker,
}

/// One protocol command: opcode plus both roles' post-header bodies.
#[derive(Clone, Debug)]
pub struct CmdSpec {
    pub name: String,
    pub opcode: u64,
    /// Master ops after the header broadcast.
    pub master: Vec<AOp>,
    /// Worker match-arm ops.
    pub worker: Vec<AOp>,
}

/// Master-behavior mutations used by the self-test ([`crate::mutate`]).
/// All false on a clean compile.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quirks {
    /// Recovery does not acknowledge the dead rank.
    pub skip_ack: bool,
    /// Recovery skips the θ-restore `SET_THETA`.
    pub skip_settheta: bool,
    /// Recovery jumps to shutdown without replaying the iteration.
    pub skip_replay: bool,
    /// The master treats a surfaced death as success and never
    /// recovers.
    pub ignore_fault: bool,
}

/// The whole compiled protocol.
#[derive(Clone, Debug)]
pub struct ProtoSpec {
    /// Every command, indexable by the values below.
    pub commands: Vec<CmdSpec>,
    /// Indices into `commands` forming one canonical iteration.
    pub iteration: Vec<usize>,
    pub shutdown: usize,
    pub set_theta: usize,
    pub load_data: usize,
    /// Startup rendezvous: p2p messages per worker, master side.
    pub startup_sends: usize,
    /// ... and worker side (identical unless mutated).
    pub startup_recvs: usize,
    pub startup_tag: u64,
    /// Rank the worker's dispatch header is received from.
    pub dispatch_root: usize,
    pub quirks: Quirks,
}

/// The canonical iteration block, in optimizer issue order.
const ITERATION: [&str; 5] = [
    "CMD_SET_THETA",
    "CMD_GRADIENT",
    "CMD_SAMPLE",
    "CMD_GN",
    "CMD_HELDOUT",
];

fn lower_op(op: &Op) -> Result<AOp, String> {
    let peer = |p: &Peer| match p {
        Peer::Rank(r) => Ok(APeer::Rank(*r)),
        Peer::EachWorker => Ok(APeer::EachWorker),
        Peer::AnySource => Err("wildcard receive is not modeled".to_string()),
    };
    match op {
        Op::Bcast { root, kind, .. } => Ok(AOp::Bcast {
            root: root.ok_or("bcast with unresolved root")?,
            kind: *kind,
        }),
        Op::Reduce { root, kind, .. } => Ok(AOp::Reduce {
            root: root.ok_or("reduce with unresolved root")?,
            kind: *kind,
        }),
        Op::Barrier => Ok(AOp::Barrier),
        Op::Send { to, tag, kind } => Ok(AOp::Send {
            to: peer(to)?,
            tag: tag.ok_or("send with unresolved tag")?,
            kind: *kind,
        }),
        Op::Recv { from, tag, kind } => Ok(AOp::Recv {
            from: peer(from)?,
            tag: tag.ok_or("recv with unresolved tag")?,
            kind: *kind,
        }),
    }
}

fn lower_seq(ops: Option<&Vec<pdnn_protocheck::model::SeqOp>>) -> Result<Vec<AOp>, String> {
    ops.map(|seq| seq.iter().map(|s| lower_op(&s.op)).collect())
        .unwrap_or_else(|| Ok(Vec::new()))
}

/// Compile the extracted model into an executable spec.
pub fn compile(model: &Model) -> Result<ProtoSpec, String> {
    let mut commands = Vec::new();
    for cmd in &model.commands {
        let opcode = cmd
            .value
            .ok_or_else(|| format!("{}: unresolved opcode", cmd.name))?;
        let mut master =
            lower_seq(cmd.master.as_ref()).map_err(|e| format!("{}: {e}", cmd.name))?;
        let mut worker =
            lower_seq(cmd.worker.as_ref()).map_err(|e| format!("{}: {e}", cmd.name))?;
        if cmd.name == "CMD_SHUTDOWN" {
            // The post-loop teardown ops live outside the match in the
            // source; fold them into the shutdown command body.
            master.extend(
                model
                    .shutdown_master
                    .iter()
                    .map(|s| lower_op(&s.op))
                    .collect::<Result<Vec<_>, _>>()?,
            );
            worker.extend(
                model
                    .shutdown_worker
                    .iter()
                    .map(|s| lower_op(&s.op))
                    .collect::<Result<Vec<_>, _>>()?,
            );
        }
        commands.push(CmdSpec {
            name: cmd.name.clone(),
            opcode,
            master,
            worker,
        });
    }
    let find = |name: &str| -> Result<usize, String> {
        commands
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| format!("command {name} not extracted"))
    };
    let iteration = ITERATION
        .iter()
        .map(|n| find(n))
        .collect::<Result<Vec<_>, _>>()?;
    let startup_tag = match model.startup_sends.first().map(|s| &s.op) {
        Some(Op::Send { tag: Some(t), .. }) => *t,
        _ => model.const_value("TAG_LOAD_DATA").unwrap_or(17),
    };
    Ok(ProtoSpec {
        shutdown: find("CMD_SHUTDOWN")?,
        set_theta: find("CMD_SET_THETA")?,
        load_data: find("CMD_LOAD_DATA")?,
        iteration,
        startup_sends: model.startup_sends.len(),
        startup_recvs: model.startup_recvs.len(),
        startup_tag,
        dispatch_root: 0,
        quirks: Quirks::default(),
        commands,
    })
}

impl ProtoSpec {
    pub fn command_by_opcode(&self, opcode: u64) -> Option<usize> {
        self.commands.iter().position(|c| c.opcode == opcode)
    }
}

fn op_label(op: &AOp) -> String {
    match op {
        AOp::Bcast { root, kind } => format!("bcast root {root} ({})", kind.name()),
        AOp::Reduce { root, kind } => format!("reduce to {root} ({})", kind.name()),
        AOp::Barrier => "barrier".to_string(),
        AOp::Send { to, tag, .. } => match to {
            APeer::Rank(r) => format!("send tag {tag} to {r}"),
            APeer::EachWorker => format!("send tag {tag} to live workers"),
        },
        AOp::Recv { from, tag, .. } => match from {
            APeer::Rank(r) => format!("recv tag {tag} from {r}"),
            APeer::EachWorker => format!("recv tag {tag} from live workers"),
        },
    }
}

/// Render both role automata as a mermaid `stateDiagram-v2`
/// (`pdnn-protomc --emit-diagram`; embedded in
/// `crates/protocheck/PROTOCOL.md`).
pub fn mermaid(spec: &ProtoSpec) -> String {
    let mut out = String::new();
    out.push_str("stateDiagram-v2\n");
    out.push_str("    state Master {\n");
    out.push_str(&format!(
        "        [*] --> M_Startup : {}x send tag {} per worker\n",
        spec.startup_sends, spec.startup_tag
    ));
    out.push_str("        M_Startup --> M_Command : header bcast (opcode)\n");
    for &idx in &spec.iteration {
        let c = &spec.commands[idx];
        let body: Vec<String> = c.master.iter().map(op_label).collect();
        out.push_str(&format!(
            "        M_Command --> M_Command : {} [{}]\n",
            c.name,
            body.join("; ")
        ));
    }
    let c = &spec.commands[spec.load_data];
    let body: Vec<String> = c.master.iter().map(op_label).collect();
    out.push_str(&format!(
        "        M_Command --> M_Recover : worker death [ack; {}; restore theta; replay]\n",
        body.join("; ")
    ));
    out.push_str("        M_Recover --> M_Command : resume from snapshot\n");
    let c = &spec.commands[spec.shutdown];
    let body: Vec<String> = c.master.iter().map(op_label).collect();
    out.push_str(&format!(
        "        M_Command --> [*] : CMD_SHUTDOWN [{}]\n",
        body.join("; ")
    ));
    out.push_str("    }\n");
    out.push_str("    state Worker {\n");
    out.push_str(&format!(
        "        [*] --> W_Dispatch : {}x recv tag {} from master\n",
        spec.startup_recvs, spec.startup_tag
    ));
    for c in &spec.commands {
        if c.name == "CMD_SHUTDOWN" {
            continue;
        }
        let body: Vec<String> = c.worker.iter().map(op_label).collect();
        let label = if body.is_empty() {
            "no comm".to_string()
        } else {
            body.join("; ")
        };
        out.push_str(&format!(
            "        W_Dispatch --> W_Dispatch : {} [{}]\n",
            c.name, label
        ));
    }
    let c = &spec.commands[spec.shutdown];
    let body: Vec<String> = c.worker.iter().map(op_label).collect();
    out.push_str(&format!(
        "        W_Dispatch --> [*] : CMD_SHUTDOWN [{}]\n",
        body.join("; ")
    ));
    out.push_str("    }\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn workspace_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(std::path::Path::to_path_buf)
            .unwrap_or_default()
    }

    #[test]
    fn compiles_the_extracted_workspace_model() {
        let outcome = pdnn_protocheck::run_static(&workspace_root()).expect("surfaces readable");
        let spec = compile(&outcome.model).expect("model compiles");
        assert_eq!(spec.iteration.len(), 5);
        assert_eq!(spec.startup_sends, 2);
        assert_eq!(spec.startup_recvs, 2);
        assert_eq!(spec.startup_tag, 17);
        assert_eq!(spec.commands[spec.shutdown].opcode, 0);
        // GRADIENT: two reductions on the master side, mirrored by the
        // worker arm.
        let grad = &spec.commands[spec
            .command_by_opcode(2)
            .expect("CMD_GRADIENT opcode extracted")];
        assert_eq!(
            grad.master
                .iter()
                .filter(|o| matches!(o, AOp::Reduce { .. }))
                .count(),
            2
        );
        assert_eq!(grad.master.len(), grad.worker.len());
        // The shutdown command absorbed both teardown barriers.
        assert!(spec.commands[spec.shutdown]
            .master
            .iter()
            .any(|o| matches!(o, AOp::Barrier)));
        assert!(spec.commands[spec.shutdown]
            .worker
            .iter()
            .any(|o| matches!(o, AOp::Barrier)));
    }

    #[test]
    fn mermaid_diagram_names_both_roles_and_every_command() {
        let outcome = pdnn_protocheck::run_static(&workspace_root()).expect("surfaces readable");
        let spec = compile(&outcome.model).expect("model compiles");
        let mmd = mermaid(&spec);
        assert!(mmd.starts_with("stateDiagram-v2"));
        for name in ["Master", "Worker", "CMD_GRADIENT", "CMD_SHUTDOWN", "replay"] {
            assert!(mmd.contains(name), "diagram missing {name}");
        }
    }
}
