//! The abstract protocol specification the checker executes.
//!
//! [`compile`] lowers the rows of `pdnn_core::protocol::COMMANDS` —
//! the command table both the master and the workers interpret — into
//! a [`ProtoSpec`]: a closed, executable description of both roles.
//! The explorer ([`crate::explorer`]) instantiates the spec for a
//! concrete world size and walks every interleaving; the conformance
//! replayer ([`crate::conformance`]) drives the same spec with recorded
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
//!   protocol level (same per-rank collective counts, same root);
//!   their halves are explored inside the masterless model's
//!   `schedule::tree`.
//! * **One canonical training iteration.** The optimizer issues
//!   `SET_THETA, GRADIENT, SAMPLE, GN_PRODUCT, HELDOUT` per iteration
//!   (CG re-issues `GN_PRODUCT` and the line search re-issues
//!   `HELDOUT`; repeating a verified command block cannot create new
//!   protocol states, so the model runs each once).

use pdnn_core::protocol::{Command, Opcode, Step, COMMANDS, TAG_LOAD_DATA};
use pdnn_mpisim::CollElem;

/// Abstract communication operation, as one role executes it. `kind`
/// is the buffer's [`CollElem::KIND`], for the diagram only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AOp {
    /// Collective broadcast rooted at `root`.
    Bcast { root: usize, kind: &'static str },
    /// Collective reduction rooted at `root`.
    Reduce { root: usize, kind: &'static str },
    /// Collect-then-release barrier through rank 0.
    Barrier,
    /// Point-to-point send.
    Send { to: APeer, tag: u64 },
    /// Point-to-point receive.
    Recv { from: APeer, tag: u64 },
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
    pub name: &'static str,
    pub opcode: u64,
    /// Master ops after the header broadcast.
    pub master: Vec<AOp>,
    /// Worker ops after the header broadcast.
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
    /// Every command, indexed by opcode.
    pub commands: Vec<CmdSpec>,
    /// Indices into `commands` forming one canonical iteration.
    pub iteration: Vec<usize>,
    /// Startup rendezvous on [`TAG_LOAD_DATA`]: p2p messages per
    /// worker, master side.
    pub startup_sends: usize,
    /// ... and worker side (identical unless mutated).
    pub startup_recvs: usize,
    /// Rank the worker's dispatch header is received from.
    pub dispatch_root: usize,
    pub quirks: Quirks,
}

/// The canonical iteration block, in optimizer issue order.
const ITERATION: [Opcode; 5] = [
    Opcode::SetTheta,
    Opcode::Gradient,
    Opcode::Sample,
    Opcode::GnProduct,
    Opcode::Heldout,
];

/// `step` as rank 0 (`master`) or a worker runs it.
fn lower(step: Step, master: bool) -> AOp {
    match step {
        Step::Operand => AOp::Bcast {
            root: 0,
            kind: f32::KIND,
        },
        Step::Shipment if master => AOp::Send {
            to: APeer::EachWorker,
            tag: TAG_LOAD_DATA,
        },
        Step::Shipment => AOp::Recv {
            from: APeer::Rank(0),
            tag: TAG_LOAD_DATA,
        },
        Step::Sum => AOp::Reduce {
            root: 0,
            kind: f32::KIND,
        },
        Step::Meta => AOp::Reduce {
            root: 0,
            kind: f64::KIND,
        },
        Step::Barrier => AOp::Barrier,
    }
}

fn lower_command(cmd: &Command) -> CmdSpec {
    let ops = |master| cmd.steps().into_iter().map(|s| lower(s, master)).collect();
    CmdSpec {
        name: cmd.name,
        opcode: cmd.opcode as u64,
        master: ops(true),
        worker: ops(false),
    }
}

/// Compile the command table into an executable spec. Start-up is the
/// `LOAD_DATA` row's shipments without a header.
pub fn compile() -> ProtoSpec {
    let shipments = Opcode::LoadData.command().shipments;
    ProtoSpec {
        commands: COMMANDS.iter().map(lower_command).collect(),
        iteration: ITERATION.iter().map(|&op| op as usize).collect(),
        startup_sends: shipments,
        startup_recvs: shipments,
        dispatch_root: 0,
        quirks: Quirks::default(),
    }
}

impl ProtoSpec {
    pub fn command_by_opcode(&self, opcode: u64) -> Option<usize> {
        self.commands.iter().position(|c| c.opcode == opcode)
    }
}

fn op_label(op: &AOp) -> String {
    match op {
        AOp::Bcast { root, kind } => format!("bcast root {root} ({})", kind.to_lowercase()),
        AOp::Reduce { root, kind } => format!("reduce to {root} ({})", kind.to_lowercase()),
        AOp::Barrier => "barrier".to_string(),
        AOp::Send { to, tag } => match to {
            APeer::Rank(r) => format!("send tag {tag} to {r}"),
            APeer::EachWorker => format!("send tag {tag} to live workers"),
        },
        AOp::Recv { from, tag } => match from {
            APeer::Rank(r) => format!("recv tag {tag} from {r}"),
            APeer::EachWorker => format!("recv tag {tag} from live workers"),
        },
    }
}

/// Render both role automata as a mermaid `stateDiagram-v2`
/// (`pdnn-protomc --emit-diagram`; embedded in
/// `crates/protomc/PROTOCOL.md`).
pub fn mermaid(spec: &ProtoSpec) -> String {
    let mut out = String::new();
    out.push_str("stateDiagram-v2\n");
    out.push_str("    state Master {\n");
    out.push_str(&format!(
        "        [*] --> M_Startup : {}x send tag {} per worker\n",
        spec.startup_sends, TAG_LOAD_DATA
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
    let c = &spec.commands[Opcode::LoadData as usize];
    let body: Vec<String> = c.master.iter().map(op_label).collect();
    out.push_str(&format!(
        "        M_Command --> M_Recover : worker death [ack; {}; restore theta; replay]\n",
        body.join("; ")
    ));
    out.push_str("        M_Recover --> M_Command : resume from snapshot\n");
    let c = &spec.commands[Opcode::Shutdown as usize];
    let body: Vec<String> = c.master.iter().map(op_label).collect();
    out.push_str(&format!(
        "        M_Command --> [*] : SHUTDOWN [{}]\n",
        body.join("; ")
    ));
    out.push_str("    }\n");
    out.push_str("    state Worker {\n");
    out.push_str(&format!(
        "        [*] --> W_Dispatch : {}x recv tag {} from master\n",
        spec.startup_recvs, TAG_LOAD_DATA
    ));
    for c in &spec.commands {
        if c.opcode == Opcode::Shutdown as u64 {
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
    let c = &spec.commands[Opcode::Shutdown as usize];
    let body: Vec<String> = c.worker.iter().map(op_label).collect();
    out.push_str(&format!(
        "        W_Dispatch --> [*] : SHUTDOWN [{}]\n",
        body.join("; ")
    ));
    out.push_str("    }\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_the_command_table() {
        let spec = compile();
        assert_eq!(spec.iteration.len(), 5);
        assert_eq!(spec.startup_sends, 2);
        assert_eq!(spec.startup_recvs, 2);
        for (i, c) in spec.commands.iter().enumerate() {
            assert_eq!(spec.command_by_opcode(c.opcode), Some(i), "{}", c.name);
        }
        assert_eq!(spec.commands[Opcode::Shutdown as usize].opcode, 0);
        // GRADIENT: two reductions on the master side, mirrored by the
        // worker.
        let grad = &spec.commands[Opcode::Gradient as usize];
        let reduces = grad
            .master
            .iter()
            .filter(|o| matches!(o, AOp::Reduce { .. }));
        assert_eq!(reduces.count(), 2);
        assert_eq!(grad.master, grad.worker);
        // The shutdown command closes both roles with the barrier.
        assert_eq!(
            spec.commands[Opcode::Shutdown as usize].master,
            vec![AOp::Barrier]
        );
        assert_eq!(
            spec.commands[Opcode::Shutdown as usize].worker,
            vec![AOp::Barrier]
        );
    }

    #[test]
    fn both_roles_lower_the_same_collectives_and_mirrored_p2p() {
        // A send from rank 0 to each worker is received from rank 0;
        // every collective is identical on both sides.
        for c in compile().commands {
            assert_eq!(c.master.len(), c.worker.len(), "{}", c.name);
            for (m, w) in c.master.iter().zip(&c.worker) {
                match (m, w) {
                    (
                        AOp::Send {
                            to: APeer::EachWorker,
                            tag: t,
                        },
                        AOp::Recv {
                            from: APeer::Rank(0),
                            tag: u,
                        },
                    ) => assert_eq!(t, u, "{}", c.name),
                    _ => assert_eq!(m, w, "{}", c.name),
                }
            }
        }
    }

    #[test]
    fn mermaid_diagram_names_both_roles_and_every_command() {
        let mmd = mermaid(&compile());
        assert!(mmd.starts_with("stateDiagram-v2"));
        for name in ["Master", "Worker", "GRADIENT", "SHUTDOWN", "replay"] {
            assert!(mmd.contains(name), "diagram missing {name}");
        }
    }
}
