//! The rooted master/worker command protocol, as one table.
//!
//! Paper Section IV: one master coordinates many workers over MPI —
//! weights go out by broadcast, gradients and curvature products come
//! back by reduce. Each command is one row of [`COMMANDS`]: rank 0
//! broadcasts a `u64` header (the opcode, plus SAMPLE's seed and
//! fraction), then the row's steps run in a fixed order
//! ([`Command::steps`]). Both roles run a row through the same
//! interpreter — rank 0 via `issue`, a worker via `next_command`
//! then `run` — so what the master sends and what a worker expects
//! cannot drift apart, and `pdnn-protomc` model-checks automata
//! lowered from the same rows. Start-up data loading is the
//! `LOAD_DATA` row's shipment step (`ship`) without its header.
//!
//! The masterless recovery round lives here too: `agree_membership`
//! runs REPORT/AGREE as `pdnn_mpisim::schedule` fan-in/fan-out through
//! the runtime's hop interpreter, and the coordinator's re-shard is the
//! same `ship` step rooted at the coordinator. PROTOCOL.md in
//! `pdnn-protomc` describes the protocol as a whole.

use pdnn_mpisim::{schedule, Comm, CommError, Payload, ReduceOp, Src};

/// Tag of the utterance-assignment shipments (start-up, and the
/// `LOAD_DATA` replay after a worker death; the masterless re-shard
/// reuses it).
pub const TAG_LOAD_DATA: u64 = 17;

/// Tag of a survivor's dead-set report to the membership coordinator
/// (masterless recovery).
pub const TAG_RECOVER_REPORT: u64 = 18;

/// Tag of the coordinator's agreed dead set, sent back to the
/// survivors (masterless recovery).
pub const TAG_RECOVER_AGREE: u64 = 19;

/// A command's opcode: its row's index in [`COMMANDS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Opcode {
    Shutdown,
    SetTheta,
    Gradient,
    Sample,
    GnProduct,
    Heldout,
    Fisher,
    /// Shard-reassignment replay after a worker death.
    LoadData,
}

impl Opcode {
    /// This opcode's row.
    pub fn command(self) -> &'static Command {
        &COMMANDS[self as usize]
    }
}

/// One row of the command table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Command {
    pub opcode: Opcode,
    pub name: &'static str,
    /// `u64` words of the header broadcast, the opcode included.
    pub header: usize,
    /// Rank 0 broadcasts an `f32` operand.
    pub operand: bool,
    /// `u64` lists rank 0 ships each worker on [`TAG_LOAD_DATA`]:
    /// training ids, then held-out ids.
    pub shipments: usize,
    /// The workers' `f32` sums are reduced to rank 0.
    pub sum: bool,
    /// Length of the `f64` metadata reduce to rank 0 (0: none).
    pub meta: usize,
    /// Both roles close the protocol with a barrier.
    pub barrier: bool,
    /// The master's span over the exchange.
    pub span: Option<&'static str>,
}

/// One communication step of a command after its header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// `f32` operand broadcast from rank 0.
    Operand,
    /// One `u64` list from rank 0 to each worker on [`TAG_LOAD_DATA`].
    Shipment,
    /// `f32` sum reduced to rank 0.
    Sum,
    /// `f64` metadata reduced to rank 0.
    Meta,
    Barrier,
}

impl Command {
    /// The row's steps in issue order: what flows out of rank 0
    /// (operand, shipments), then what flows back (sum, metadata), then
    /// the closing barrier. A worker's engine call sits between the
    /// two halves.
    pub fn steps(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        if self.operand {
            steps.push(Step::Operand);
        }
        steps.extend(std::iter::repeat_n(Step::Shipment, self.shipments));
        if self.sum {
            steps.push(Step::Sum);
        }
        if self.meta > 0 {
            steps.push(Step::Meta);
        }
        if self.barrier {
            steps.push(Step::Barrier);
        }
        steps
    }
}

const NONE: Command = Command {
    opcode: Opcode::Shutdown,
    name: "",
    header: 1,
    operand: false,
    shipments: 0,
    sum: false,
    meta: 0,
    barrier: false,
    span: None,
};

/// The command table, indexed by [`Opcode`].
pub const COMMANDS: [Command; 8] = [
    Command {
        opcode: Opcode::Shutdown,
        name: "SHUTDOWN",
        barrier: true,
        ..NONE
    },
    Command {
        opcode: Opcode::SetTheta,
        name: "SET_THETA",
        operand: true,
        span: Some("sync_weights_master"),
        ..NONE
    },
    Command {
        opcode: Opcode::Gradient,
        name: "GRADIENT",
        sum: true,
        meta: 2,
        span: Some("gradient_reduce"),
        ..NONE
    },
    Command {
        opcode: Opcode::Sample,
        name: "SAMPLE",
        header: 3,
        span: Some("sample_curvature"),
        ..NONE
    },
    Command {
        opcode: Opcode::GnProduct,
        name: "GN_PRODUCT",
        operand: true,
        sum: true,
        meta: 1,
        span: Some("curvature_reduce"),
        ..NONE
    },
    Command {
        opcode: Opcode::Heldout,
        name: "HELDOUT",
        operand: true,
        meta: 3,
        span: Some("heldout_reduce"),
        ..NONE
    },
    Command {
        opcode: Opcode::Fisher,
        name: "FISHER",
        sum: true,
        meta: 1,
        span: Some("curvature_reduce"),
        ..NONE
    },
    Command {
        opcode: Opcode::LoadData,
        name: "LOAD_DATA",
        shipments: 2,
        ..NONE
    },
];

/// The buffers of one command exchange.
#[derive(Default)]
pub(crate) struct Frame {
    /// The `f32` operand: rank 0's to send, a worker's as received.
    pub operand: Vec<f32>,
    /// `(destination, ids)` shipments in wire order: rank 0's to send,
    /// a worker's as received (see [`ship`]).
    pub shipments: Vec<(usize, Vec<u64>)>,
    /// This rank's `f32` contribution; on rank 0, the sum afterwards.
    pub sum: Vec<f32>,
    /// This rank's `f64` metadata; on rank 0, the sum afterwards.
    pub meta: Vec<f64>,
}

/// Run `cmd`'s steps after its header. `contribute` fills this rank's
/// `sum`/`meta` from the received operand and shipments — a worker's
/// engine call.
///
/// Rank 0 issues every step of a command before it inspects any error
/// (the first is kept), so master and workers never skew even when a
/// step in the middle fails. A worker stops at its first failure: it
/// was killed, evicted or orphaned, and unwinds without calling its
/// engine on a missing operand.
pub(crate) fn run(
    comm: &mut Comm,
    cmd: &Command,
    frame: &mut Frame,
    contribute: impl FnOnce(&mut Frame),
) -> Result<(), CommError> {
    let root = comm.rank() == 0;
    let mut first = Ok(());
    let mut settle = |step: Result<(), CommError>| {
        if !root {
            return step;
        }
        if first.is_ok() {
            first = step;
        }
        Ok(())
    };
    if cmd.operand {
        settle(comm.bcast(&mut frame.operand, 0))?;
    }
    if cmd.shipments > 0 {
        settle(ship(comm, 0, &mut frame.shipments))?;
    }
    contribute(frame);
    if cmd.sum {
        settle(comm.reduce(&mut frame.sum, ReduceOp::Sum, 0))?;
    }
    if cmd.meta > 0 {
        settle(comm.reduce(&mut frame.meta, ReduceOp::Sum, 0))?;
    }
    if cmd.barrier {
        settle(comm.barrier())?;
    }
    first
}

/// The `LOAD_DATA` row's shipment step, rooted at `root`: `root` sends
/// each `(destination, ids)` of `shipments` on [`TAG_LOAD_DATA`] in
/// order and reports the first failure after the last send; any other
/// rank receives the row's [`Command::shipments`] lists from `root`,
/// each bounded by [`Comm::p2p_timeout`], appends them as
/// `(itself, ids)`, and stops at its first failure. Start-up and the
/// master's re-shard run it from rank 0, the masterless re-shard from
/// the membership coordinator.
pub(crate) fn ship(
    comm: &mut Comm,
    root: usize,
    shipments: &mut Vec<(usize, Vec<u64>)>,
) -> Result<(), CommError> {
    if comm.rank() == root {
        let mut first = Ok(());
        for (to, ids) in std::mem::take(shipments) {
            first = first.and(comm.send(to, TAG_LOAD_DATA, Payload::U64(ids)));
        }
        return first;
    }
    let timeout = comm.p2p_timeout();
    for _ in 0..Opcode::LoadData.command().shipments {
        let ids = comm.recv_vec_timeout::<u64>(Src::Of(root), TAG_LOAD_DATA, timeout)?;
        shipments.push((comm.rank(), ids));
    }
    Ok(())
}

/// Base of the membership round's tags: REPORT runs on its window 1
/// ([`TAG_RECOVER_REPORT`]), AGREE on window 2 ([`TAG_RECOVER_AGREE`]).
const MEMBERSHIP_TAGS: u64 = TAG_RECOVER_REPORT - 1;

/// Bitmap of the ranks `comm` knows to be dead, acknowledged or not.
/// `train_distributed_faulted` keeps a masterless world within its 64
/// bits.
fn dead_bitmap(comm: &Comm) -> u64 {
    comm.dead_ranks().iter().fold(0, |acc, &r| acc | (1 << r))
}

/// The masterless membership round: the survivors agree on one dead
/// set under a coordinator, the lowest rank not known dead, and return
/// it as a bitmap.
///
/// REPORT is `schedule::fan_in` on [`TAG_RECOVER_REPORT`] over the
/// coordinator and then, in rank order, every survivor it has not seen
/// die: each sends its dead-set bitmap, and the coordinator ORs them
/// together, draining every report and evicting a reporter that stays
/// silent past [`Comm::p2p_timeout`]. The coordinator then ORs in its
/// own dead set, which now holds every dead or evicted reporter. AGREE
/// is `schedule::fan_out` on [`TAG_RECOVER_AGREE`] to the survivors
/// outside the agreed set. A survivor whose coordinator dies or goes
/// silent retries under the next candidate.
///
/// Survivors abort the failed collective up to one detect-timeout
/// apart, so the round runs under the plan's generous worker window;
/// once AGREE lands everybody is re-synchronized to within one hop and
/// the re-stitched collectives can use the short detect-timeout again.
pub(crate) fn agree_membership(comm: &mut Comm) -> Result<u64, CommError> {
    loop {
        let alive: Vec<usize> = (0..comm.size()).filter(|&r| !comm.is_dead(r)).collect();
        let Some(&coord) = alive.first() else {
            return Err(CommError::WorldShutDown);
        };
        let mut bits = [dead_bitmap(comm)];
        let or = ReduceOp::BitOr;
        let report = comm.p2p_schedule(&mut bits, or, MEMBERSHIP_TAGS, &alive, schedule::fan_in);
        if coord == comm.rank() {
            match report {
                Ok(()) | Err(CommError::RankDead { .. }) => {}
                Err(e) => return Err(e),
            }
            bits[0] |= dead_bitmap(comm);
            let agreed: Vec<usize> = alive
                .into_iter()
                .filter(|&r| bits[0] & (1 << r) == 0)
                .collect();
            comm.p2p_schedule(&mut bits, or, MEMBERSHIP_TAGS, &agreed, schedule::fan_out)?;
            return Ok(bits[0]);
        }
        report?;
        match comm.p2p_schedule(&mut bits, or, MEMBERSHIP_TAGS, &alive, schedule::fan_out) {
            Ok(()) => return Ok(bits[0]),
            // Already marked dead by the receive path; the next pass
            // picks the next candidate coordinator.
            Err(CommError::RankDead { .. }) => {}
            Err(CommError::Timeout) => comm.evict(coord),
            Err(e) => return Err(e),
        }
    }
}

/// Rank 0's side of a command: the header (opcode, then `args`), then
/// [`run`]. Rank 0 contributes the frame's sums as given (zeros).
pub(crate) fn issue(
    comm: &mut Comm,
    cmd: &Command,
    args: &[u64],
    frame: &mut Frame,
) -> Result<(), CommError> {
    debug_assert_eq!(1 + args.len(), cmd.header, "{} header words", cmd.name);
    let mut header = vec![cmd.opcode as u64];
    header.extend_from_slice(args);
    let sent = comm.bcast(&mut header, 0);
    sent.and(run(comm, cmd, frame, |_| ()))
}

/// A worker's side of a header: receive it and look up its row.
/// Returns the row and the header words.
pub(crate) fn next_command(comm: &mut Comm) -> Result<(&'static Command, Vec<u64>), CommError> {
    let mut header = vec![0u64; 1];
    comm.bcast(&mut header, 0)?;
    let Some(cmd) = COMMANDS.get(header[0] as usize) else {
        // pdnn-lint: allow(l3-no-unwrap): an unknown opcode is a protocol bug between master and worker builds, not a runtime condition to recover from
        panic!("unknown command {}", header[0]);
    };
    assert_eq!(header.len(), cmd.header, "{} header words", cmd.name);
    Ok((cmd, header))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdnn_mpisim::CommEvent;

    /// Rank 3's REPORT is lost: the coordinator evicts it once the
    /// window passes, and the other survivors agree on it. The
    /// reporters out-wait the coordinator's drain on a longer window:
    /// with equal windows the last reporter's wait for AGREE expires
    /// about when the coordinator's wait for the silent rank does.
    #[test]
    fn a_silent_reporter_is_evicted_and_agreed_dead() {
        use pdnn_mpisim::FaultPlan;
        use std::sync::Arc;
        use std::time::Duration;
        const SILENT: usize = 3;
        let window = Duration::from_millis(500);
        let plan = FaultPlan::new(7)
            .drop_message(SILENT, 0, 0)
            .with_timeouts(window, window);
        let outcomes = pdnn_mpisim::run_world_faulted(4, &plan, |comm| {
            if comm.rank() != 0 {
                comm.enable_faults(Arc::new(plan.clone().with_timeouts(window, 20 * window)));
            }
            agree_membership(comm)
        });
        for o in &outcomes {
            let evictions = o
                .telemetry
                .events
                .iter()
                .filter(|e| e.name == "rank_evicted");
            assert_eq!(
                evictions.count(),
                usize::from(o.rank == 0),
                "rank {}",
                o.rank
            );
            match o.rank {
                SILENT => assert_eq!(o.result, Err(CommError::Evicted)),
                r => assert_eq!(o.result, Ok(1 << SILENT), "rank {r}"),
            }
        }
    }

    #[test]
    fn opcodes_are_the_row_indices_and_unique() {
        for (i, cmd) in COMMANDS.iter().enumerate() {
            assert_eq!(cmd.opcode as usize, i, "{}", cmd.name);
            assert_eq!(cmd.opcode.command(), cmd);
        }
        let mut names: Vec<_> = COMMANDS.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COMMANDS.len());
    }

    #[test]
    fn sample_header_carries_seed_and_fraction() {
        assert_eq!(Opcode::Sample.command().header, 3);
        let others = COMMANDS.iter().filter(|c| c.opcode != Opcode::Sample);
        assert!(others.clone().all(|c| c.header == 1));
    }

    /// Each rank's comm events for `cmd`, as `steps` predicts them: the
    /// header broadcast, then one event per step — per worker for a
    /// shipment on rank 0.
    fn expected(cmd: &Command, rank: usize, workers: usize) -> Vec<(&'static str, &'static str)> {
        let mut out = vec![("bcast", "U64")];
        for step in cmd.steps() {
            match step {
                Step::Operand => out.push(("bcast", "F32")),
                Step::Shipment if rank == 0 => out.extend((0..workers).map(|_| ("send", "U64"))),
                Step::Shipment => out.push(("recv", "U64")),
                Step::Sum => out.push(("reduce", "F32")),
                Step::Meta => out.push(("reduce", "F64")),
                Step::Barrier => out.push(("barrier", "Empty")),
            }
        }
        out
    }

    fn shape(ev: &CommEvent) -> (&'static str, &'static str) {
        match ev {
            CommEvent::Send { kind, .. } => ("send", kind),
            CommEvent::Recv { kind, .. } => ("recv", kind),
            CommEvent::Coll { op, kind, .. } => (op, kind),
        }
    }

    /// Both roles lower every row to the same op sequence: rank 0
    /// issues each command in table order (SHUTDOWN last), the workers
    /// dispatch on the headers, and every rank's recorded events are
    /// the row's steps.
    #[test]
    fn both_roles_run_every_row_as_its_steps() {
        const WORKERS: usize = 2;
        const N: usize = 4;
        let order: Vec<&Command> = COMMANDS[1..].iter().chain(&COMMANDS[..1]).collect();
        let outcomes = pdnn_mpisim::run_world_deterministic(WORKERS + 1, |comm| {
            if comm.rank() == 0 {
                for cmd in &order {
                    let mut frame = Frame {
                        operand: vec![1.0; N * usize::from(cmd.operand)],
                        shipments: (1..=WORKERS)
                            .flat_map(|w| (0..cmd.shipments).map(move |k| (w, vec![k as u64])))
                            .collect(),
                        sum: vec![0.0; N * usize::from(cmd.sum)],
                        meta: vec![0.0; cmd.meta],
                    };
                    let args = vec![7; cmd.header - 1];
                    issue(comm, cmd, &args, &mut frame).expect("rank 0 issues");
                    if cmd.sum {
                        assert_eq!(frame.sum, vec![WORKERS as f32; N], "{}", cmd.name);
                    }
                    assert_eq!(frame.meta, vec![WORKERS as f64; cmd.meta], "{}", cmd.name);
                }
            } else {
                for want in &order {
                    let (cmd, header) = next_command(comm).expect("worker receives");
                    assert_eq!(cmd, *want);
                    assert!(header[1..].iter().all(|&w| w == 7));
                    let mut frame = Frame::default();
                    run(comm, cmd, &mut frame, |f| {
                        assert_eq!(f.operand.len(), N * usize::from(cmd.operand));
                        assert_eq!(f.shipments.len(), cmd.shipments);
                        f.sum = vec![1.0; N * usize::from(cmd.sum)];
                        f.meta = vec![1.0; cmd.meta];
                    })
                    .expect("worker runs");
                }
            }
        });
        for outcome in outcomes {
            let rank = outcome.rank;
            let got: Vec<_> = outcome.events.iter().map(shape).collect();
            let want: Vec<_> = order
                .iter()
                .flat_map(|cmd| expected(cmd, rank, WORKERS))
                .collect();
            assert_eq!(got, want, "rank {rank}");
        }
    }
}
