//! Explicit-state exploration of the abstract protocol.
//!
//! A global state is the master automaton, one worker automaton per
//! worker rank, the per-pair FIFO channels, and the remaining fault
//! budget. Transitions are micro-steps: one point-to-point message
//! send or receive (collectives are their flat fan-out/drain message
//! sequences), or one injected kill. The explorer enumerates every
//! reachable interleaving ([`explore`] is the unreduced ground truth;
//! [`crate::por::explore_reduced`] is the sleep-set run that must
//! agree with it) and checks three global properties at every
//! transition-free state:
//!
//! * **p5-deadlock-free** — a state with no enabled protocol
//!   transition must have every rank finished (`Done` or killed).
//! * **p6-no-lost-message** — at a finished state, every undelivered
//!   message must involve a dead endpoint.
//! * **p7-recovery-termination** — on every path containing a kill
//!   observed during training, the master must either complete a full
//!   recovery (acknowledge the death, redistribute, restore θ, replay
//!   the iteration) and shut down, or cleanly abort because no worker
//!   survived. A recovery loop that re-faults past the kill budget is
//!   flagged as a livelock.
//!
//! Fault model: kills only (the runtime's stall/eviction paths reuse
//! the same message structure and are exercised by the dynamic
//! pdnn-protocheck pass), placed nondeterministically before any
//! collective a worker is about to join — exactly where the
//! simulator's `fault_gate` injects them — with a budget of at most
//! one kill per run, so both the 0-kill and every 1-kill placement are
//! covered in a single exploration.

use crate::spec::{AOp, APeer, ProtoSpec};
use std::collections::{BTreeSet, HashSet, VecDeque};

pub const P5: &str = "p5-deadlock-free";
pub const P6: &str = "p6-no-lost-message";
pub const P7: &str = "p7-recovery-termination";

/// Message key: collective sequence window or p2p tag, mirroring the
/// simulator's tag matching (mismatched keys park, FIFO per key).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub(crate) enum Key {
    Coll { seq: u16, release: bool },
    P2p { tag: u64 },
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Msg {
    key: Key,
    /// First payload word, when the protocol dispatches on it (header
    /// broadcasts carry the command opcode).
    val: Option<u64>,
}

/// Which command block the master is executing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Ctx {
    /// `iteration[idx]`; `replay` marks the post-recovery re-run.
    Iter { idx: u8, replay: bool },
    /// Recovery shard redistribution (`CMD_LOAD_DATA`).
    RecLoad,
    /// Recovery θ restore (`CMD_SET_THETA`).
    RecTheta,
    /// `CMD_SHUTDOWN` plus the teardown barrier.
    Shutdown,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum MPhase {
    /// Rendezvous send `half` to worker rank `w`.
    Startup {
        w: u8,
        half: u8,
    },
    /// Header broadcast fan-out, believed-live target `sub`.
    Header {
        ctx: Ctx,
        sub: u8,
    },
    /// Command body, op `op`, fan-out/drain position `sub`.
    Ops {
        ctx: Ctx,
        op: u8,
        sub: u8,
    },
    Done {
        aborted: bool,
    },
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct MasterSt {
    phase: MPhase,
    seq: u16,
    /// Bitmask of acknowledged-dead ranks.
    known_dead: u8,
    /// Surfaced but not yet handled death.
    fault: Option<u8>,
    fault_in_training: bool,
    recoveries: u8,
    did_settheta: bool,
    did_replay: bool,
    /// Recovery re-faulted past the kill budget (livelock cut).
    runaway: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum WPhase {
    Startup {
        half: u8,
    },
    /// Blocked on the next header broadcast.
    AwaitHeader,
    /// Executing a match arm.
    Arm {
        cmd: u8,
        op: u8,
        sub: u8,
    },
    /// Dispatched an opcode with no arm; permanently stuck.
    Wedged,
    Done,
    Dead,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct WorkerSt {
    phase: WPhase,
    seq: u16,
}

/// One global state.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct State {
    master: MasterSt,
    workers: Vec<WorkerSt>,
    /// `chans[src * world + dst]`, FIFO per matching key.
    chans: Vec<Vec<Msg>>,
    budget: u8,
    killed: Option<u8>,
}

/// A transition: one rank's next protocol micro-step, or its kill.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub(crate) struct TransId {
    pub rank: u8,
    pub kill: bool,
}

/// Resource footprint for the independence relation: up to four
/// resource ids ([`NO_RES`]-padded). Two transitions are independent
/// iff their footprints are disjoint.
pub(crate) type Footprint = [u16; 4];
pub(crate) const NO_RES: u16 = u16::MAX;

pub(crate) fn independent(a: &Footprint, b: &Footprint) -> bool {
    for &x in a {
        if x != NO_RES && b.contains(&x) {
            return false;
        }
    }
    true
}

/// One property violation, deduplicated by rule and detail text.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub rule: &'static str,
    pub detail: String,
}

/// What one exploration learned.
#[derive(Clone, Debug, Default)]
pub struct ExploreOutcome {
    pub states: usize,
    pub transitions: usize,
    pub terminals: usize,
    /// Distinct (victim, program point) kill placements exercised.
    pub kill_placements: usize,
    pub violations: Vec<Violation>,
}

fn bit(rank: u8) -> u8 {
    1u8.wrapping_shl(rank as u32)
}

impl State {
    pub(crate) fn init(spec: &ProtoSpec, workers: usize, budget: u8) -> State {
        let world = workers + 1;
        let mut st = State {
            master: MasterSt {
                phase: MPhase::Startup { w: 1, half: 0 },
                seq: 0,
                known_dead: 0,
                fault: None,
                fault_in_training: false,
                recoveries: 0,
                did_settheta: false,
                did_replay: false,
                runaway: false,
            },
            workers: (0..workers)
                .map(|_| WorkerSt {
                    phase: WPhase::Startup { half: 0 },
                    seq: 0,
                })
                .collect(),
            chans: vec![Vec::new(); world * world],
            budget,
            killed: None,
        };
        if spec.startup_sends == 0 {
            st.master.phase = MPhase::Startup {
                w: workers as u8,
                half: u8::MAX,
            };
            enter_header(
                spec,
                &mut st,
                Ctx::Iter {
                    idx: 0,
                    replay: false,
                },
            );
        }
        if spec.startup_recvs == 0 {
            for w in &mut st.workers {
                w.phase = WPhase::AwaitHeader;
            }
        }
        st
    }

    fn world(&self) -> usize {
        self.workers.len() + 1
    }

    fn is_dead(&self, rank: u8) -> bool {
        rank != 0 && self.workers[rank as usize - 1].phase == WPhase::Dead
    }

    /// Compact canonical encoding for the visited set.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        enc_mphase(&self.master.phase, &mut b);
        b.extend_from_slice(&self.master.seq.to_le_bytes());
        b.push(self.master.known_dead);
        b.push(self.master.fault.map(|r| r + 1).unwrap_or(0));
        b.push(
            u8::from(self.master.fault_in_training)
                | u8::from(self.master.did_settheta) << 1
                | u8::from(self.master.did_replay) << 2
                | u8::from(self.master.runaway) << 3,
        );
        b.push(self.master.recoveries);
        for w in &self.workers {
            enc_wphase(&w.phase, &mut b);
            b.extend_from_slice(&w.seq.to_le_bytes());
        }
        for chan in &self.chans {
            b.push(chan.len() as u8);
            for m in chan {
                match m.key {
                    Key::Coll { seq, release } => {
                        b.push(1 + u8::from(release));
                        b.extend_from_slice(&seq.to_le_bytes());
                    }
                    Key::P2p { tag } => {
                        b.push(3);
                        b.extend_from_slice(&tag.to_le_bytes());
                    }
                }
                match m.val {
                    None => b.push(0),
                    Some(v) => {
                        b.push(1);
                        b.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        b.push(self.budget);
        b.push(self.killed.map(|r| r + 1).unwrap_or(0));
        b
    }
}

fn enc_mphase(p: &MPhase, b: &mut Vec<u8>) {
    match p {
        MPhase::Startup { w, half } => b.extend_from_slice(&[0, *w, *half, 0]),
        MPhase::Header { ctx, sub } => {
            b.push(1);
            enc_ctx(ctx, b);
            b.extend_from_slice(&[*sub, 0]);
        }
        MPhase::Ops { ctx, op, sub } => {
            b.push(2);
            enc_ctx(ctx, b);
            b.extend_from_slice(&[*op, *sub]);
        }
        MPhase::Done { aborted } => b.extend_from_slice(&[3, u8::from(*aborted), 0, 0]),
    }
}

fn enc_ctx(c: &Ctx, b: &mut Vec<u8>) {
    match c {
        Ctx::Iter { idx, replay } => b.push(0x10 | idx | u8::from(*replay) << 3),
        Ctx::RecLoad => b.push(0x20),
        Ctx::RecTheta => b.push(0x21),
        Ctx::Shutdown => b.push(0x22),
    }
}

fn enc_wphase(p: &WPhase, b: &mut Vec<u8>) {
    match p {
        WPhase::Startup { half } => b.extend_from_slice(&[0, *half, 0, 0]),
        WPhase::AwaitHeader => b.extend_from_slice(&[1, 0, 0, 0]),
        WPhase::Arm { cmd, op, sub } => b.extend_from_slice(&[2, *cmd, *op, *sub]),
        WPhase::Wedged => b.extend_from_slice(&[3, 0, 0, 0]),
        WPhase::Done => b.extend_from_slice(&[4, 0, 0, 0]),
        WPhase::Dead => b.extend_from_slice(&[5, 0, 0, 0]),
    }
}

/// Ranks the master still believes alive, ascending.
fn targets(st: &State) -> Vec<u8> {
    (1..st.world() as u8)
        .filter(|r| st.master.known_dead & bit(*r) == 0)
        .collect()
}

fn cmd_idx(spec: &ProtoSpec, ctx: Ctx) -> usize {
    match ctx {
        Ctx::Iter { idx, .. } => spec.iteration[idx as usize],
        Ctx::RecLoad => spec.load_data,
        Ctx::RecTheta => spec.set_theta,
        Ctx::Shutdown => spec.shutdown,
    }
}

fn opcode(spec: &ProtoSpec, ctx: Ctx) -> u64 {
    spec.commands[cmd_idx(spec, ctx)].opcode
}

/// Does this master-side op fan out / drain over the live target set?
fn master_fanout(op: &AOp) -> bool {
    matches!(
        op,
        AOp::Bcast { root: 0, .. }
            | AOp::Reduce { root: 0, .. }
            | AOp::Barrier
            | AOp::Send {
                to: APeer::EachWorker,
                ..
            }
            | AOp::Recv {
                from: APeer::EachWorker,
                ..
            }
    )
}

fn is_collective(op: &AOp) -> bool {
    matches!(op, AOp::Bcast { .. } | AOp::Reduce { .. } | AOp::Barrier)
}

/// The next communication micro-op a rank wants to perform.
#[derive(Clone, Copy, Debug)]
enum Act {
    Send {
        to: u8,
        key: Key,
        val: Option<u64>,
    },
    /// `may_fail`: completes as a surfaced death when the peer is dead
    /// (master-side drains; the simulator's timed receives).
    Recv {
        from: u8,
        key: Key,
        may_fail: bool,
    },
}

fn plan_master(spec: &ProtoSpec, st: &State) -> Option<Act> {
    let m = &st.master;
    let coll = Key::Coll {
        seq: m.seq,
        release: false,
    };
    match m.phase {
        MPhase::Startup { w, .. } => Some(Act::Send {
            to: w,
            key: Key::P2p {
                tag: spec.startup_tag,
            },
            val: None,
        }),
        MPhase::Header { ctx, sub } => Some(Act::Send {
            to: targets(st)[sub as usize],
            key: coll,
            val: Some(opcode(spec, ctx)),
        }),
        MPhase::Ops { ctx, op, sub } => {
            let t = targets(st);
            let n = t.len();
            match &spec.commands[cmd_idx(spec, ctx)].master[op as usize] {
                AOp::Bcast { root: 0, .. } => Some(Act::Send {
                    to: t[sub as usize],
                    key: coll,
                    val: None,
                }),
                AOp::Bcast { root, .. } => Some(Act::Recv {
                    from: *root as u8,
                    key: coll,
                    may_fail: true,
                }),
                AOp::Reduce { root: 0, .. } => Some(Act::Recv {
                    from: t[sub as usize],
                    key: coll,
                    may_fail: true,
                }),
                AOp::Reduce { root, .. } => Some(Act::Send {
                    to: *root as u8,
                    key: coll,
                    val: None,
                }),
                AOp::Barrier => {
                    if (sub as usize) < n {
                        Some(Act::Recv {
                            from: t[sub as usize],
                            key: coll,
                            may_fail: true,
                        })
                    } else {
                        Some(Act::Send {
                            to: t[sub as usize - n],
                            key: Key::Coll {
                                seq: m.seq,
                                release: true,
                            },
                            val: None,
                        })
                    }
                }
                AOp::Send { to, tag, .. } => Some(Act::Send {
                    to: match to {
                        APeer::Rank(r) => *r as u8,
                        APeer::EachWorker => t[sub as usize],
                    },
                    key: Key::P2p { tag: *tag },
                    val: None,
                }),
                AOp::Recv { from, tag, .. } => Some(Act::Recv {
                    from: match from {
                        APeer::Rank(r) => *r as u8,
                        APeer::EachWorker => t[sub as usize],
                    },
                    key: Key::P2p { tag: *tag },
                    may_fail: true,
                }),
            }
        }
        MPhase::Done { .. } => None,
    }
}

fn plan_worker(spec: &ProtoSpec, st: &State, rank: u8) -> Option<Act> {
    let w = &st.workers[rank as usize - 1];
    let coll = Key::Coll {
        seq: w.seq,
        release: false,
    };
    match w.phase {
        WPhase::Startup { .. } => Some(Act::Recv {
            from: 0,
            key: Key::P2p {
                tag: spec.startup_tag,
            },
            may_fail: false,
        }),
        WPhase::AwaitHeader => Some(Act::Recv {
            from: spec.dispatch_root as u8,
            key: coll,
            may_fail: false,
        }),
        WPhase::Arm { cmd, op, sub } => match &spec.commands[cmd as usize].worker[op as usize] {
            AOp::Bcast { root, .. } => Some(Act::Recv {
                from: *root as u8,
                key: coll,
                may_fail: false,
            }),
            AOp::Reduce { root, .. } => Some(Act::Send {
                to: *root as u8,
                key: coll,
                val: None,
            }),
            AOp::Barrier => {
                if sub == 0 {
                    Some(Act::Send {
                        to: 0,
                        key: coll,
                        val: None,
                    })
                } else {
                    Some(Act::Recv {
                        from: 0,
                        key: Key::Coll {
                            seq: w.seq,
                            release: true,
                        },
                        may_fail: false,
                    })
                }
            }
            AOp::Send {
                to: APeer::Rank(r),
                tag,
                ..
            } => Some(Act::Send {
                to: *r as u8,
                key: Key::P2p { tag: *tag },
                val: None,
            }),
            AOp::Recv {
                from: APeer::Rank(r),
                tag,
                ..
            } => Some(Act::Recv {
                from: *r as u8,
                key: Key::P2p { tag: *tag },
                may_fail: false,
            }),
            // `EachWorker` never appears in a worker arm of a
            // well-formed model; a mutated model wedges here.
            AOp::Send { .. } | AOp::Recv { .. } => None,
        },
        WPhase::Wedged | WPhase::Done | WPhase::Dead => None,
    }
}

fn plan(spec: &ProtoSpec, st: &State, rank: u8) -> Option<Act> {
    if rank == 0 {
        plan_master(spec, st)
    } else {
        plan_worker(spec, st, rank)
    }
}

fn has_match(st: &State, from: u8, to: u8, key: Key) -> bool {
    st.chans[from as usize * st.world() + to as usize]
        .iter()
        .any(|m| m.key == key)
}

fn act_enabled(st: &State, rank: u8, act: &Act) -> bool {
    match act {
        Act::Send { .. } => true,
        Act::Recv {
            from,
            key,
            may_fail,
        } => has_match(st, *from, rank, *key) || (*may_fail && st.is_dead(*from)),
    }
}

fn footprint(rank: u8, act: &Act, world: usize) -> Footprint {
    let chan = |s: u8, d: u8| world as u16 + s as u16 * world as u16 + d as u16;
    match act {
        Act::Send { to, .. } => [rank as u16, chan(rank, *to), NO_RES, NO_RES],
        Act::Recv { from, .. } => [rank as u16, *from as u16, chan(*from, rank), NO_RES],
    }
}

fn kill_footprint(rank: u8) -> Footprint {
    [rank as u16, NO_RES, NO_RES, NO_RES]
}

/// Is this worker at a point where `fault_gate` could kill it (about
/// to join a collective)?
fn at_kill_point(spec: &ProtoSpec, st: &State, rank: u8) -> bool {
    match st.workers[rank as usize - 1].phase {
        WPhase::AwaitHeader => true,
        WPhase::Arm { cmd, op, sub } => {
            sub == 0 && is_collective(&spec.commands[cmd as usize].worker[op as usize])
        }
        _ => false,
    }
}

/// Stable identifier of a kill placement, for coverage reporting.
pub(crate) fn kill_site(st: &State, rank: u8) -> (u8, u8, u8) {
    match st.workers[rank as usize - 1].phase {
        WPhase::Arm { cmd, op, .. } => (rank, cmd, op),
        _ => (rank, u8::MAX, u8::MAX),
    }
}

/// Enabled transitions in deterministic order (rank asc, kills last),
/// with footprints for the independence relation.
pub(crate) fn transitions(spec: &ProtoSpec, st: &State) -> Vec<(TransId, Footprint)> {
    let world = st.world();
    let mut out = Vec::new();
    for rank in 0..world as u8 {
        if let Some(act) = plan(spec, st, rank) {
            if act_enabled(st, rank, &act) {
                out.push((TransId { rank, kill: false }, footprint(rank, &act, world)));
            }
        }
    }
    if st.budget > 0 {
        for rank in 1..world as u8 {
            if !st.is_dead(rank) && at_kill_point(spec, st, rank) {
                out.push((TransId { rank, kill: true }, kill_footprint(rank)));
            }
        }
    }
    out
}

/// Apply one transition (must be enabled) to produce the successor.
pub(crate) fn apply(spec: &ProtoSpec, st: &State, id: TransId) -> State {
    let mut s = st.clone();
    if id.kill {
        s.workers[id.rank as usize - 1].phase = WPhase::Dead;
        s.budget -= 1;
        s.killed = Some(id.rank);
        return s;
    }
    let world = s.world();
    let act = match plan(spec, &s, id.rank) {
        Some(a) => a,
        None => return s,
    };
    match act {
        Act::Send { to, key, val } => {
            s.chans[id.rank as usize * world + to as usize].push(Msg { key, val });
            advance(spec, &mut s, id.rank, None);
        }
        Act::Recv { from, key, .. } => {
            let chan = &mut s.chans[from as usize * world + id.rank as usize];
            let taken = chan
                .iter()
                .position(|m| m.key == key)
                .map(|i| chan.remove(i));
            if taken.is_none() {
                // Surfaced death: the drain skips this contribution.
                surface_fault(&mut s, from);
            }
            advance(spec, &mut s, id.rank, taken);
        }
    }
    s
}

fn surface_fault(s: &mut State, dead: u8) {
    let m = &mut s.master;
    if m.fault.is_none() {
        m.fault = Some(dead);
    }
    if !matches!(
        m.phase,
        MPhase::Ops {
            ctx: Ctx::Shutdown,
            ..
        } | MPhase::Header {
            ctx: Ctx::Shutdown,
            ..
        }
    ) {
        m.fault_in_training = true;
    }
}

fn advance(spec: &ProtoSpec, s: &mut State, rank: u8, msg: Option<Msg>) {
    if rank == 0 {
        advance_master(spec, s);
    } else {
        advance_worker(spec, s, rank, msg);
    }
}

fn advance_master(spec: &ProtoSpec, s: &mut State) {
    let n = targets(s).len();
    match s.master.phase {
        MPhase::Startup { w, half } => {
            if half as usize + 1 < spec.startup_sends {
                s.master.phase = MPhase::Startup { w, half: half + 1 };
            } else if (w as usize) < s.world() - 1 {
                s.master.phase = MPhase::Startup { w: w + 1, half: 0 };
            } else {
                enter_header(
                    spec,
                    s,
                    Ctx::Iter {
                        idx: 0,
                        replay: false,
                    },
                );
            }
        }
        MPhase::Header { ctx, sub } => {
            if sub as usize + 1 < n {
                s.master.phase = MPhase::Header { ctx, sub: sub + 1 };
            } else {
                s.master.seq += 1;
                enter_ops(spec, s, ctx, 0);
            }
        }
        MPhase::Ops { ctx, op, sub } => {
            let aop = &spec.commands[cmd_idx(spec, ctx)].master[op as usize];
            let width = if matches!(aop, AOp::Barrier) {
                2 * n
            } else if master_fanout(aop) {
                n
            } else {
                1
            };
            if sub as usize + 1 < width {
                s.master.phase = MPhase::Ops {
                    ctx,
                    op,
                    sub: sub + 1,
                };
            } else {
                if is_collective(aop) {
                    s.master.seq += 1;
                }
                enter_ops(spec, s, ctx, op + 1);
            }
        }
        MPhase::Done { .. } => {}
    }
}

/// Position the master at op `op` of `ctx`'s command, skipping ops
/// with an empty target set and completing the command at the end.
fn enter_ops(spec: &ProtoSpec, s: &mut State, ctx: Ctx, mut op: u8) {
    loop {
        let ops = &spec.commands[cmd_idx(spec, ctx)].master;
        if op as usize >= ops.len() {
            command_complete(spec, s, ctx);
            return;
        }
        let aop = &ops[op as usize];
        if master_fanout(aop) && targets(s).is_empty() {
            if is_collective(aop) {
                s.master.seq += 1;
            }
            op += 1;
            continue;
        }
        s.master.phase = MPhase::Ops { ctx, op, sub: 0 };
        return;
    }
}

fn enter_header(spec: &ProtoSpec, s: &mut State, ctx: Ctx) {
    if targets(s).is_empty() {
        // Nobody left to command.
        s.master.phase = MPhase::Done { aborted: true };
        return;
    }
    let _ = spec;
    s.master.phase = MPhase::Header { ctx, sub: 0 };
}

fn command_complete(spec: &ProtoSpec, s: &mut State, ctx: Ctx) {
    let quirks = spec.quirks;
    if ctx != Ctx::Shutdown && s.master.fault.is_some() && !quirks.ignore_fault {
        // hf_loop recovery (`MasterProblem`'s `Recovering::recover`):
        // the faulted step finished its drains; the rest of the
        // iteration is skipped (the fault latch is poisoned).
        let dead = s.master.fault.take().unwrap_or(0);
        s.master.recoveries = s.master.recoveries.saturating_add(1);
        if s.master.recoveries > s.budget + u8::from(s.killed.is_some()) {
            // More recoveries than injected kills: the recovery loop
            // is not converging. Cut the livelock; p7 reports it.
            s.master.runaway = true;
            s.master.phase = MPhase::Done { aborted: true };
            return;
        }
        if !quirks.skip_ack {
            s.master.known_dead |= bit(dead);
        }
        if targets(s).is_empty() {
            // No surviving workers: clean abort.
            s.master.phase = MPhase::Done { aborted: true };
            return;
        }
        enter_header(spec, s, Ctx::RecLoad);
        return;
    }
    if quirks.ignore_fault {
        s.master.fault = None;
    }
    match ctx {
        Ctx::Iter { idx, replay } => {
            if (idx as usize) + 1 < spec.iteration.len() {
                enter_header(
                    spec,
                    s,
                    Ctx::Iter {
                        idx: idx + 1,
                        replay,
                    },
                );
            } else {
                if replay {
                    s.master.did_replay = true;
                }
                enter_header(spec, s, Ctx::Shutdown);
            }
        }
        Ctx::RecLoad => {
            if quirks.skip_settheta {
                after_theta(spec, s);
            } else {
                enter_header(spec, s, Ctx::RecTheta);
            }
        }
        Ctx::RecTheta => {
            s.master.did_settheta = true;
            after_theta(spec, s);
        }
        Ctx::Shutdown => {
            s.master.phase = MPhase::Done { aborted: false };
        }
    }
}

fn after_theta(spec: &ProtoSpec, s: &mut State) {
    if spec.quirks.skip_replay {
        enter_header(spec, s, Ctx::Shutdown);
    } else {
        enter_header(
            spec,
            s,
            Ctx::Iter {
                idx: 0,
                replay: true,
            },
        );
    }
}

fn advance_worker(spec: &ProtoSpec, s: &mut State, rank: u8, msg: Option<Msg>) {
    let w = &mut s.workers[rank as usize - 1];
    match w.phase {
        WPhase::Startup { half } => {
            if half as usize + 1 < spec.startup_recvs {
                w.phase = WPhase::Startup { half: half + 1 };
            } else {
                w.phase = WPhase::AwaitHeader;
            }
        }
        WPhase::AwaitHeader => {
            w.seq += 1;
            let cmd = msg
                .and_then(|m| m.val)
                .and_then(|v| spec.command_by_opcode(v));
            match cmd {
                Some(ci) => enter_arm(spec, w, ci as u8, 0),
                None => w.phase = WPhase::Wedged,
            }
        }
        WPhase::Arm { cmd, op, sub } => {
            let aop = &spec.commands[cmd as usize].worker[op as usize];
            if matches!(aop, AOp::Barrier) && sub == 0 {
                w.phase = WPhase::Arm { cmd, op, sub: 1 };
                return;
            }
            if is_collective(aop) {
                w.seq += 1;
            }
            enter_arm(spec, w, cmd, op + 1);
        }
        WPhase::Wedged | WPhase::Done | WPhase::Dead => {}
    }
}

fn enter_arm(spec: &ProtoSpec, w: &mut WorkerSt, cmd: u8, op: u8) {
    if op as usize >= spec.commands[cmd as usize].worker.len() {
        if cmd as usize == spec.shutdown {
            w.phase = WPhase::Done;
        } else {
            w.phase = WPhase::AwaitHeader;
        }
    } else {
        w.phase = WPhase::Arm { cmd, op, sub: 0 };
    }
}

fn rank_finished(st: &State, rank: u8) -> bool {
    if rank == 0 {
        matches!(st.master.phase, MPhase::Done { .. })
    } else {
        matches!(
            st.workers[rank as usize - 1].phase,
            WPhase::Done | WPhase::Dead
        )
    }
}

fn describe_rank(st: &State, rank: u8) -> String {
    if rank == 0 {
        format!("master {:?} seq {}", st.master.phase, st.master.seq)
    } else {
        let w = &st.workers[rank as usize - 1];
        format!("rank {rank} {:?} seq {}", w.phase, w.seq)
    }
}

/// Check p5/p6/p7 on a state with no enabled protocol transitions.
/// Returns true when the state is a (finished) terminal.
pub(crate) fn classify(
    spec: &ProtoSpec,
    st: &State,
    prog_enabled: bool,
    violations: &mut BTreeSet<Violation>,
) -> bool {
    let _ = spec;
    if prog_enabled {
        return false;
    }
    let world = st.world() as u8;
    let all_finished = (0..world).all(|r| rank_finished(st, r));
    // A runaway recovery loop (more recoveries than injected kills —
    // the livelock cut in `command_complete`) is a p7 violation
    // whether or not the surviving ranks then wedge into a deadlock.
    if st.master.runaway {
        violations.insert(Violation {
            rule: P7,
            detail: format!(
                "recovery livelock: {} recoveries for {} kill(s)",
                st.master.recoveries,
                u8::from(st.killed.is_some())
            ),
        });
    }
    if !all_finished {
        let stuck: Vec<String> = (0..world)
            .filter(|&r| !rank_finished(st, r))
            .map(|r| describe_rank(st, r))
            .collect();
        violations.insert(Violation {
            rule: P5,
            detail: format!(
                "deadlock{}: {}",
                match st.killed {
                    Some(k) => format!(" (after kill of rank {k})"),
                    None => String::new(),
                },
                stuck.join("; ")
            ),
        });
        return false;
    }
    // p6: undelivered messages must involve a dead endpoint.
    for src in 0..world {
        for dst in 0..world {
            let chan = &st.chans[src as usize * st.world() + dst as usize];
            if !chan.is_empty() && !st.is_dead(src) && !st.is_dead(dst) {
                violations.insert(Violation {
                    rule: P6,
                    detail: format!(
                        "{} message(s) {:?} from rank {src} to rank {dst} \
                         undelivered at exit with both endpoints alive{}",
                        chan.len(),
                        chan[0].key,
                        match st.killed {
                            Some(k) => format!(" (after kill of rank {k})"),
                            None => String::new(),
                        },
                    ),
                });
            }
        }
    }
    // p7: a death observed during training must end in a completed
    // recovery or a clean no-survivor abort.
    let m = &st.master;
    let aborted = matches!(m.phase, MPhase::Done { aborted: true });
    if m.fault_in_training && !m.runaway {
        let recovered = m.recoveries >= 1 && m.did_settheta && m.did_replay;
        if !(aborted || recovered) {
            violations.insert(Violation {
                rule: P7,
                detail: format!(
                    "death of rank {} surfaced in training but the run ended with \
                     recoveries={} theta_restore={} replay={} abort={}",
                    st.killed.map(i64::from).unwrap_or(-1),
                    m.recoveries,
                    m.did_settheta,
                    m.did_replay,
                    aborted
                ),
            });
        }
    }
    true
}

/// Exhaustive breadth-first exploration (the unreduced ground truth).
pub fn explore(spec: &ProtoSpec, workers: usize, budget: u8) -> ExploreOutcome {
    let init = State::init(spec, workers, budget);
    let mut visited: HashSet<Vec<u8>> = HashSet::new();
    let mut queue = VecDeque::new();
    visited.insert(init.encode());
    queue.push_back(init);
    let mut transitions_count = 0usize;
    let mut terminals = 0usize;
    let mut violations = BTreeSet::new();
    let mut kill_sites = BTreeSet::new();
    while let Some(st) = queue.pop_front() {
        let succ = transitions(spec, &st);
        let prog_enabled = succ.iter().any(|(id, _)| !id.kill);
        if classify(spec, &st, prog_enabled, &mut violations) {
            terminals += 1;
        }
        for (id, _) in succ {
            if id.kill {
                kill_sites.insert(kill_site(&st, id.rank));
            }
            transitions_count += 1;
            let next = apply(spec, &st, id);
            if visited.insert(next.encode()) {
                queue.push_back(next);
            }
        }
    }
    ExploreOutcome {
        states: visited.len(),
        transitions: transitions_count,
        terminals,
        kill_placements: kill_sites.len(),
        violations: violations.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn workspace_spec() -> ProtoSpec {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(std::path::Path::to_path_buf)
            .unwrap_or_default();
        let outcome = pdnn_protocheck::run_static(&root).expect("surfaces readable");
        spec::compile(&outcome.model).expect("model compiles")
    }

    #[test]
    fn fault_free_two_rank_world_is_clean_and_terminates() {
        let spec = workspace_spec();
        let out = explore(&spec, 1, 0);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.terminals >= 1);
        assert!(out.states > 10);
        assert_eq!(out.kill_placements, 0);
    }

    #[test]
    fn one_kill_two_rank_world_recovers_or_aborts_cleanly() {
        let spec = workspace_spec();
        let out = explore(&spec, 1, 1);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        // With a single worker every kill ends in a no-survivor abort;
        // placements at each collective boundary must all be covered.
        assert!(out.kill_placements >= 5, "{}", out.kill_placements);
    }

    #[test]
    fn one_kill_three_rank_world_is_clean() {
        let spec = workspace_spec();
        let out = explore(&spec, 2, 1);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.terminals >= 2);
        assert!(out.kill_placements >= 10);
    }

    #[test]
    fn independence_is_footprint_disjointness() {
        assert!(independent(
            &[0, 5, NO_RES, NO_RES],
            &[1, 6, NO_RES, NO_RES]
        ));
        assert!(!independent(
            &[0, 5, NO_RES, NO_RES],
            &[1, 5, NO_RES, NO_RES]
        ));
        // Padding never aliases a resource.
        assert!(independent(
            &[NO_RES, NO_RES, NO_RES, NO_RES],
            &[NO_RES, NO_RES, NO_RES, NO_RES]
        ));
    }
}
