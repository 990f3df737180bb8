//! Masterless sync-mode automata: explicit-state checking for the
//! ring and tree allreduce schedules (`SyncStrategy::Ring` /
//! `SyncStrategy::Tree`).
//!
//! The master/worker explorer ([`crate::explorer`]) walks a rooted
//! command protocol; the masterless modes have no commands at all —
//! every rank runs the same replicated program whose only
//! communication is symmetric allreduces plus one closing barrier.
//! This module lowers that program into per-rank *micro-step*
//! automata, one [`MOp`] per send or receive in the hop lists of
//! `pdnn_mpisim::schedule` — the same lists `Comm::allreduce_ring`,
//! `Comm::allreduce_tree` and `Comm::barrier` interpret at run time,
//! so the checked hops are the executed hops:
//!
//! * **ring allreduce** (`schedule::ring`) — `P − 1` reduce-scatter
//!   hops to the downstream neighbour on window 1, then `P − 1`
//!   allgather hops on window 2;
//! * **tree allreduce** (`schedule::tree`) — a binomial reduce to
//!   rank 0 on window 1, then a binomial broadcast from rank 0 on
//!   window 2;
//! * **sharded CG step** (`schedule::ring_allgather`, then
//!   `schedule::ring_reduce_scatter`, then two scalar ring allreduces)
//!   — what one CG step of ring mode runs: `Comm::allgather` of the
//!   operand, `Comm::reduce_scatter` of the product into each rank's
//!   slice, and the folds of `p·Ap` and `(r·z, q)`;
//! * **barrier** — the dissemination rounds (`schedule::dissemination`)
//!   closing a fault-free run, and the star to the coordinator
//!   (`schedule::star`) that `Comm::barrier` runs under a fault plan,
//!   closing a recovered one.
//!
//! The explorer enumerates every interleaving of those micro-steps on
//! 2–4 rank worlds and proves the shared properties: `p5` (no
//! reachable state wedges a rank), `p6` (no message is left
//! undelivered at a completed terminal), and `p7` (every execution
//! terminates completed — structural here, since program counters only
//! advance and `p5` rules out stuck states).
//!
//! **Recovery model** (`check_recovery_worlds`): the masterless modes
//! accept fault plans, so the failure path is modeled too. For every
//! kill placement — every victim × every collective entry, mirroring
//! `fault_gate` which only fires kills at collective boundaries — the
//! victim's program is truncated at its death and each survivor gains
//! a nondeterministic *abort* transition: once the victim is dead, a
//! survivor blocked on an empty receive window of the aborted
//! collective may abandon it and jump to its recovery program (the
//! membership round to the lowest-surviving-rank coordinator, lowered
//! from `schedule::fan_in` (`REPORT`) and `schedule::fan_out`
//! (`AGREE`), the coordinator's `LOAD_DATA` reshard shipments to each
//! survivor, one re-stitched allreduce lowered over the survivor
//! positions, and the survivors' star barrier rooted at the
//! coordinator). Interleaving freedom makes the abort fire at *every*
//! feasible hop of the aborted collective, including spuriously-early
//! timeouts the real clock would rarely produce. `p6` is weakened to
//! `p6'` exactly as in the implementation: messages stranded on the
//! aborted collective's windows are legal (real inboxes keep them
//! forever; fresh tag windows make them unmatchable), every other
//! window must drain.
//!
//! Fidelity is closed from the trace side by
//! [`replay_decentral_run`], which accepts the per-rank
//! [`CommEvent`] streams of *real* ring-/tree-mode training runs: all
//! collectives must carry one of the mode's op names, follow the
//! `DecentralProblem` phase grammar (an `f32` payload allreduce with
//! an optional `f64` metadata chaser — the gradient always carries
//! one, curvature products agree on the sample's frame count once
//! per draw — or a standalone `f64` allreduce; in ring mode also the
//! sharded CG state's `f32` allgathers and reduce-scatters), stay point-to-point
//! silent, be byte-identical in shape across ranks (the SPMD invariant
//! behind the replicated-optimizer design), and end in exactly one
//! barrier. Given the killed ranks, the same replay accepts real
//! killed runs: the victim's stream is a silent clean prefix, each
//! survivor shows the aborted collective (`ok: false`), its recovery
//! point-to-point traffic — direction, peer, tag and order of the same
//! lowered membership round and shipments the recovery model explores
//! — and a resumed schedule rooted at the lowest survivor.

use crate::conformance::{RankReplay, RunReplay};
use crate::explorer::{Violation, P5, P6, P7};
use crate::mutate::MutationResult;
use pdnn_core::protocol::{Opcode, TAG_LOAD_DATA, TAG_RECOVER_AGREE, TAG_RECOVER_REPORT};
use pdnn_mpisim::schedule::{self, Hop, Schedule};
use pdnn_mpisim::CommEvent;
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Which masterless allreduce family a world runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DMode {
    Ring,
    Tree,
}

impl DMode {
    /// The `CommEvent::Coll` op name this mode's allreduces record.
    pub fn op_name(self) -> &'static str {
        match self {
            DMode::Ring => "allreduce_ring",
            DMode::Tree => "allreduce_tree",
        }
    }

    /// Every `CommEvent::Coll` op name this mode's replicas record
    /// besides the barrier: the allreduce, and in ring mode the two
    /// halves the sharded CG state runs on their own.
    pub fn ops(self) -> &'static [&'static str] {
        match self {
            DMode::Ring => &["allreduce_ring", "reduce_scatter", "allgather"],
            DMode::Tree => &["allreduce_tree"],
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            DMode::Ring => "ring",
            DMode::Tree => "tree",
        }
    }

    /// The schedule this mode's allreduces run (the small worlds
    /// explored here never take the ring's large-world tree shape).
    fn schedule(self) -> Schedule {
        match self {
            DMode::Ring => schedule::ring,
            DMode::Tree => schedule::tree,
        }
    }
}

/// One blocking micro-step inside a collective. `coll` numbers the
/// collective within the replicated program (the fresh-tag-window
/// discipline of `with_collective`); `phase` is the hop's tag window
/// (`1`/`2` for the two halves of an allreduce, `0`/`1` for a barrier).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum MOp {
    Send { to: u8, coll: u8, phase: u8 },
    Recv { from: u8, coll: u8, phase: u8 },
}

/// Lower one position's hop list from a [`pdnn_mpisim::schedule`]
/// function into micro-steps for collective number `c`, mapping
/// positions to ranks through `parts`. Chunks and the owner's local
/// encode step don't affect blocking, so they are elided. Fault-free
/// lowering passes `parts = [0, 1, …, P−1]`; the re-stitched
/// post-recovery collectives pass the sorted survivor list, as the
/// runtime's acknowledged-live membership does.
fn lower(c: u8, hops: &[Hop], parts: &[usize], out: &mut Vec<MOp>) {
    for hop in hops {
        match *hop {
            Hop::Send { to, window, .. } => out.push(MOp::Send {
                to: parts[to] as u8,
                coll: c,
                phase: window,
            }),
            Hop::Recv { from, window, .. } => out.push(MOp::Recv {
                from: parts[from] as u8,
                coll: c,
                phase: window,
            }),
            Hop::Own { .. } => {}
        }
    }
}

/// How many allreduces the canonical replicated program performs
/// before the closing barrier. The shape abstracts one HF iteration
/// of `DecentralProblem`: the gradient pair (`f32` vector + `f64`
/// metadata), one curvature pair, and the heldout metadata allreduce.
/// Further iterations repeat the same window pattern, so one
/// iteration plus the barrier covers every cross-collective
/// dependency the real program can exhibit.
const CANONICAL_ALLREDUCES: u8 = 5;

/// Build the per-rank micro-step programs for `size` ranks under
/// `mode`: the canonical allreduce schedule plus the closing barrier.
fn programs(mode: DMode, size: usize) -> Vec<Vec<MOp>> {
    let parts: Vec<usize> = (0..size).collect();
    (0..size)
        .map(|rank| {
            let mut ops = Vec::new();
            for c in 0..CANONICAL_ALLREDUCES {
                lower(c, &mode.schedule()(rank, size), &parts, &mut ops);
            }
            let barrier = schedule::dissemination(rank, size);
            lower(CANONICAL_ALLREDUCES, &barrier, &parts, &mut ops);
            ops
        })
        .collect()
}

/// The collectives of one CG step of ring mode, in program order: the
/// operand's allgather, the product's reduce-scatter, the `p·Ap` fold
/// and the `(r·z, q)` fold.
const CG_STEP: [Schedule; 4] = [
    schedule::ring_allgather,
    schedule::ring_reduce_scatter,
    schedule::ring,
    schedule::ring,
];

/// Per-rank micro-step programs of one sharded CG step on `size`
/// ranks, closed by the dissemination barrier.
fn step_programs(size: usize) -> Vec<Vec<MOp>> {
    let parts: Vec<usize> = (0..size).collect();
    (0..size)
        .map(|rank| {
            let mut ops = Vec::new();
            for (c, sched) in CG_STEP.iter().enumerate() {
                lower(c as u8, &sched(rank, size), &parts, &mut ops);
            }
            let barrier = schedule::dissemination(rank, size);
            lower(CG_STEP.len() as u8, &barrier, &parts, &mut ops);
            ops
        })
        .collect()
}

/// One explored micro-step state: per-rank program counters plus
/// in-flight message counts per directed channel and tag window.
#[derive(Clone, PartialEq, Eq, Hash)]
struct DState {
    pcs: Vec<u16>,
    /// `(src, dst, coll, phase)` → pending message count. `mpisim`
    /// receives match on `(source, tag)`, so counts per window are a
    /// faithful abstraction — payloads never affect blocking.
    chans: BTreeMap<(u8, u8, u8, u8), u8>,
}

/// What exploring one masterless world learned.
#[derive(Clone, Debug, Default)]
pub struct DecentralOutcome {
    pub states: usize,
    pub transitions: usize,
    pub terminals: usize,
    pub violations: Vec<Violation>,
}

/// Enumerate every interleaving of the per-rank programs, checking
/// `p5` (a state with no enabled micro-step must have every rank
/// completed) and `p6` (a completed terminal must have no in-flight
/// messages). `p7` follows structurally: program counters strictly
/// advance, so the state graph is acyclic and — absent `p5`
/// violations — every maximal path ends with all ranks done.
fn explore_programs(progs: &[Vec<MOp>]) -> DecentralOutcome {
    let size = progs.len();
    let init = DState {
        pcs: vec![0; size],
        chans: BTreeMap::new(),
    };
    let mut seen: HashSet<DState> = HashSet::new();
    seen.insert(init.clone());
    let mut frontier: VecDeque<DState> = VecDeque::from([init]);
    let mut out = DecentralOutcome::default();
    let mut violations: Vec<Violation> = Vec::new();
    while let Some(st) = frontier.pop_front() {
        out.states += 1;
        let mut enabled = 0usize;
        let mut blocked: Option<(usize, MOp)> = None;
        for (rank, prog) in progs.iter().enumerate() {
            let pc = st.pcs[rank] as usize;
            let Some(op) = prog.get(pc) else {
                continue;
            };
            let mut next = st.clone();
            next.pcs[rank] += 1;
            match *op {
                MOp::Send { to, coll, phase } => {
                    *next.chans.entry((rank as u8, to, coll, phase)).or_insert(0) += 1;
                }
                MOp::Recv { from, coll, phase } => {
                    let key = (from, rank as u8, coll, phase);
                    match next.chans.get_mut(&key) {
                        Some(n) if *n > 0 => {
                            *n -= 1;
                            if *n == 0 {
                                next.chans.remove(&key);
                            }
                        }
                        _ => {
                            if blocked.is_none() {
                                blocked = Some((rank, *op));
                            }
                            continue;
                        }
                    }
                }
            }
            enabled += 1;
            out.transitions += 1;
            if seen.insert(next.clone()) {
                frontier.push_back(next);
            }
        }
        if enabled > 0 {
            continue;
        }
        let done = st
            .pcs
            .iter()
            .zip(progs)
            .all(|(&pc, p)| pc as usize == p.len());
        if done {
            out.terminals += 1;
            if !st.chans.is_empty() {
                let pending: usize = st.chans.values().map(|&n| n as usize).sum();
                violations.push(Violation {
                    rule: P6,
                    detail: format!(
                        "{pending} message(s) still in flight at a completed \
                         terminal of the {size}-rank masterless world"
                    ),
                });
            }
        } else if let Some((rank, op)) = blocked {
            let what = match op {
                MOp::Recv { from, coll, phase } => {
                    format!("recv(from {from}, coll {coll}, window {phase})")
                }
                // Sends never block in mpisim; a wedged rank is
                // always waiting on a receive.
                MOp::Send { .. } => "send".to_string(),
            };
            violations.push(Violation {
                rule: P5,
                detail: format!(
                    "deadlock in the {size}-rank masterless world: rank {rank} \
                     wedged at {what}"
                ),
            });
        }
    }
    violations.sort();
    violations.dedup();
    out.violations = violations;
    out
}

/// One model-checked masterless world for the report.
pub struct DecentralWorld {
    pub mode: DMode,
    /// The world's name in the report: the mode, or `ring-cg-step` for
    /// the sharded CG step ([`CG_STEP`]).
    pub label: &'static str,
    pub ranks: usize,
    /// `(victim, collective-entry)` kill placements folded into
    /// `outcome` — `0` for the fault-free worlds.
    pub kill_placements: usize,
    pub outcome: DecentralOutcome,
}

/// The checked masterless worlds: both modes at 2, 3, and 4 ranks.
pub fn check_worlds() -> Vec<DecentralWorld> {
    let mut out = Vec::new();
    for mode in [DMode::Ring, DMode::Tree] {
        for ranks in [2usize, 3, 4] {
            out.push(DecentralWorld {
                mode,
                label: mode.label(),
                ranks,
                kill_placements: 0,
                outcome: explore_programs(&programs(mode, ranks)),
            });
        }
    }
    out
}

/// Verdict per property for one world, for the report renderer.
pub fn verdicts(outcome: &DecentralOutcome) -> [(&'static str, bool); 3] {
    let p5_ok = !outcome.violations.iter().any(|v| v.rule == P5);
    let p6_ok = !outcome.violations.iter().any(|v| v.rule == P6);
    // Termination is structural (acyclic state graph) + completion is
    // exactly the absence of wedged states.
    [(P5, p5_ok), (P6, p6_ok), (P7, p5_ok)]
}

// ---------------------------------------------------------------------------
// Recovery model: kill a rank, abort the collective, re-stitch
// ---------------------------------------------------------------------------

/// How many collective-entry kill windows each recovery world
/// enumerates: the victim can die entering collective `0` (before any
/// clean allreduce completes) or collective `1` (after one). Later
/// entries repeat the same window pattern, so two placements cover
/// every cross-collective dependency the failure path can exhibit —
/// and within the aborted collective itself, interleaving freedom
/// drives the survivors' abort transition through every feasible hop.
const KILL_WINDOWS: u8 = 2;

/// Collective numbers for the recovery sub-protocol's tag windows,
/// kept disjoint from the clean schedule. `REC_MEMBER` phase 1/2 are
/// the `TAG_RECOVER_REPORT`/`TAG_RECOVER_AGREE` membership round,
/// `REC_SHARD` the coordinator's `TAG_LOAD_DATA` shipments,
/// `REC_RESUME` onwards the re-stitched collectives and `REC_BARRIER`
/// the survivors' barrier.
const REC_MEMBER: u8 = 100;
const REC_SHARD: u8 = 101;
const REC_RESUME: u8 = 102;
const REC_BARRIER: u8 = 110;

/// One kill placement lowered to micro-step programs: the truncated
/// `main` programs (the victim's ends at its death; survivors' end
/// with the full aborted collective, which they must escape via the
/// abort transition) and the per-survivor `recovery` programs.
struct RecoveryScenario {
    main: Vec<Vec<MOp>>,
    recovery: Vec<Vec<MOp>>,
    victim: usize,
    /// The collective the victim died entering — the one whose
    /// stranded messages `p6'` tolerates.
    aborted_coll: u8,
}

/// The point-to-point part of recovery at position `pos` of the
/// survivors `live`, the coordinator `live[0]` at position 0, as
/// `protocol::agree_membership` and `protocol::ship` run it: the
/// membership round — `schedule::fan_in` (REPORT) then
/// `schedule::fan_out` (AGREE) — then the `LOAD_DATA` row's shipment
/// step, a fan-out of [`Command::shipments`] lists to each survivor in
/// turn.
///
/// [`Command::shipments`]: pdnn_core::protocol::Command::shipments
fn recovery_p2p(pos: usize, live: &[usize]) -> Vec<MOp> {
    let m = live.len();
    let mut round = schedule::fan_in(pos, m);
    round.extend(schedule::fan_out(pos, m));
    let lists = Opcode::LoadData.command().shipments;
    let shipments: Vec<Hop> = schedule::fan_out(pos, m)
        .into_iter()
        .flat_map(|hop| std::iter::repeat_n(hop, lists))
        .collect();
    let mut ops = Vec::new();
    lower(REC_MEMBER, &round, live, &mut ops);
    lower(REC_SHARD, &shipments, live, &mut ops);
    ops
}

/// Lower the kill placement `(victim, kill_at)` for `size` ranks
/// under `mode`, mirroring `DecentralProblem`'s `Recovering::recover`
/// (what `hf_loop` calls on a masterless replica): membership
/// round to the lowest survivor and its reshard shipments
/// ([`recovery_p2p`]), one re-issued allreduce over the survivor list,
/// survivor barrier.
fn recovery_scenario(mode: DMode, size: usize, victim: usize, kill_at: u8) -> RecoveryScenario {
    let main = [mode.schedule(); KILL_WINDOWS as usize];
    scenario_of(&main, &[mode.schedule()], size, victim, kill_at)
}

/// The kill placement `(victim, kill_at)` of a program whose
/// collectives are `main`, in order: the victim dies entering
/// collective `kill_at`, and the survivors recover and re-run
/// `resume` re-stitched over themselves, then their barrier.
fn scenario_of(
    main: &[Schedule],
    resume: &[Schedule],
    size: usize,
    victim: usize,
    kill_at: u8,
) -> RecoveryScenario {
    let parts: Vec<usize> = (0..size).collect();
    let main: Vec<Vec<MOp>> = (0..size)
        .map(|rank| {
            let mut ops = Vec::new();
            // The kill fires at `fault_gate`, i.e. at collective
            // entry: the victim completes `kill_at` collectives and
            // emits nothing for the aborted one.
            let colls = if rank == victim { kill_at } else { kill_at + 1 };
            for (c, sched) in main.iter().enumerate().take(colls as usize) {
                lower(c as u8, &sched(rank, size), &parts, &mut ops);
            }
            ops
        })
        .collect();
    let live: Vec<usize> = (0..size).filter(|&r| r != victim).collect();
    let recovery: Vec<Vec<MOp>> = (0..size)
        .map(|rank| {
            let Some(pos) = live.iter().position(|&w| w == rank) else {
                return Vec::new();
            };
            let mut ops = recovery_p2p(pos, &live);
            let m = live.len();
            for (i, sched) in resume.iter().enumerate() {
                lower(REC_RESUME + i as u8, &sched(pos, m), &live, &mut ops);
            }
            // Under a fault plan `Comm::barrier` runs the star rooted at
            // the lowest acknowledged-live rank: the coordinator.
            lower(REC_BARRIER, &schedule::star(pos, m), &live, &mut ops);
            ops
        })
        .collect();
    RecoveryScenario {
        main,
        recovery,
        victim,
        aborted_coll: kill_at,
    }
}

/// Micro-step state of a recovery world: `recovered[r]` switches rank
/// `r` from its main program to its recovery program (the victim
/// never switches — its main program simply ends).
#[derive(Clone, PartialEq, Eq, Hash)]
struct RState {
    pcs: Vec<u16>,
    recovered: Vec<bool>,
    chans: BTreeMap<(u8, u8, u8, u8), u8>,
}

/// Enumerate every interleaving of one kill placement. On top of the
/// send/recv semantics of [`explore_programs`], a survivor blocked on
/// an *empty* receive window of the aborted collective may take the
/// abort transition once the victim is dead — modeling
/// `CommError::{Timeout, RankDead}` surfacing from a timed hop,
/// including spuriously-early timeouts (the window being empty is
/// exactly mpisim's condition for a timeout to fire at all). `p6` is
/// checked as `p6'`: stranded messages are legal only on the aborted
/// collective's windows.
fn explore_recovery(sc: &RecoveryScenario) -> DecentralOutcome {
    let size = sc.main.len();
    let init = RState {
        pcs: vec![0; size],
        recovered: vec![false; size],
        chans: BTreeMap::new(),
    };
    let mut seen: HashSet<RState> = HashSet::new();
    seen.insert(init.clone());
    let mut frontier: VecDeque<RState> = VecDeque::from([init]);
    let mut out = DecentralOutcome::default();
    let mut violations: Vec<Violation> = Vec::new();
    while let Some(st) = frontier.pop_front() {
        out.states += 1;
        let victim_dead = st.pcs[sc.victim] as usize == sc.main[sc.victim].len();
        let mut enabled = 0usize;
        let mut blocked: Option<(usize, MOp)> = None;
        for rank in 0..size {
            let prog = if st.recovered[rank] {
                &sc.recovery[rank]
            } else {
                &sc.main[rank]
            };
            let Some(op) = prog.get(st.pcs[rank] as usize) else {
                continue;
            };
            let mut push = |next: RState, out: &mut DecentralOutcome| {
                out.transitions += 1;
                if seen.insert(next.clone()) {
                    frontier.push_back(next);
                }
            };
            match *op {
                MOp::Send { to, coll, phase } => {
                    let mut next = st.clone();
                    next.pcs[rank] += 1;
                    *next.chans.entry((rank as u8, to, coll, phase)).or_insert(0) += 1;
                    enabled += 1;
                    push(next, &mut out);
                }
                MOp::Recv { from, coll, phase } => {
                    let key = (from, rank as u8, coll, phase);
                    let has_msg = st.chans.get(&key).copied().unwrap_or(0) > 0;
                    if has_msg {
                        let mut next = st.clone();
                        next.pcs[rank] += 1;
                        if let Some(n) = next.chans.get_mut(&key) {
                            *n -= 1;
                            if *n == 0 {
                                next.chans.remove(&key);
                            }
                        }
                        enabled += 1;
                        push(next, &mut out);
                    } else if !st.recovered[rank]
                        && rank != sc.victim
                        && coll == sc.aborted_coll
                        && victim_dead
                    {
                        // Timed-hop failure: abandon the collective
                        // and enter the recovery program.
                        let mut next = st.clone();
                        next.recovered[rank] = true;
                        next.pcs[rank] = 0;
                        enabled += 1;
                        push(next, &mut out);
                    } else if blocked.is_none() {
                        blocked = Some((rank, *op));
                    }
                }
            }
        }
        if enabled > 0 {
            continue;
        }
        let done = (0..size).all(|r| {
            if r == sc.victim {
                st.pcs[r] as usize == sc.main[r].len()
            } else {
                st.recovered[r] && st.pcs[r] as usize == sc.recovery[r].len()
            }
        });
        if done {
            out.terminals += 1;
            // p6': messages stranded on the aborted collective's
            // windows stay in real inboxes forever (their tag windows
            // are never reused); every other window must drain.
            let illegal: usize = st
                .chans
                .iter()
                .filter(|((_, _, coll, _), _)| *coll != sc.aborted_coll)
                .map(|(_, &n)| n as usize)
                .sum();
            if illegal > 0 {
                violations.push(Violation {
                    rule: P6,
                    detail: format!(
                        "{illegal} message(s) outside the aborted collective still \
                         in flight at a completed terminal of the {size}-rank world"
                    ),
                });
            }
        } else if let Some((rank, op)) = blocked {
            let what = match op {
                MOp::Recv { from, coll, phase } => {
                    format!("recv(from {from}, coll {coll}, window {phase})")
                }
                MOp::Send { .. } => "send".to_string(),
            };
            violations.push(Violation {
                rule: P5,
                detail: format!(
                    "deadlock in the {size}-rank recovery world: rank {rank} wedged at {what}"
                ),
            });
        } else {
            // A survivor ran off the end of the killed collective
            // without aborting — it can never join recovery, so the
            // run cannot complete.
            violations.push(Violation {
                rule: P5,
                detail: format!(
                    "a survivor of the {size}-rank recovery world completed the \
                     killed collective and never entered recovery"
                ),
            });
        }
    }
    violations.sort();
    violations.dedup();
    out.violations = violations;
    out
}

/// The checked recovery worlds: both modes at 2, 3, and 4 ranks, one
/// kill budget, every `(victim, collective-entry)` placement. Each
/// world aggregates its placements' state counts and violations.
pub fn check_recovery_worlds() -> Vec<DecentralWorld> {
    let mut out = Vec::new();
    for mode in [DMode::Ring, DMode::Tree] {
        for ranks in [2usize, 3, 4] {
            let mut agg = DecentralOutcome::default();
            let mut placements = 0usize;
            for victim in 0..ranks {
                for kill_at in 0..KILL_WINDOWS {
                    let sc = recovery_scenario(mode, ranks, victim, kill_at);
                    let o = explore_recovery(&sc);
                    agg.states += o.states;
                    agg.transitions += o.transitions;
                    agg.terminals += o.terminals;
                    for mut v in o.violations {
                        v.detail = format!(
                            "victim {victim} killed entering collective {kill_at}: {}",
                            v.detail
                        );
                        agg.violations.push(v);
                    }
                    placements += 1;
                }
            }
            out.push(DecentralWorld {
                mode,
                label: mode.label(),
                ranks,
                kill_placements: placements,
                outcome: agg,
            });
        }
    }
    out
}

/// Ranks of the sharded-CG-step recovery world.
const STEP_RANKS: usize = 3;

/// The sharded CG step under a one-kill budget on [`STEP_RANKS`]
/// ranks: every victim dying entering each of the step's four
/// collectives, the survivors recovering and re-running the whole
/// step re-stitched over themselves.
pub fn check_step_recovery_world() -> DecentralWorld {
    let mut agg = DecentralOutcome::default();
    let mut placements = 0usize;
    for victim in 0..STEP_RANKS {
        for kill_at in 0..CG_STEP.len() as u8 {
            let sc = scenario_of(&CG_STEP, &CG_STEP, STEP_RANKS, victim, kill_at);
            let o = explore_recovery(&sc);
            agg.states += o.states;
            agg.transitions += o.transitions;
            agg.terminals += o.terminals;
            for mut v in o.violations {
                v.detail = format!(
                    "victim {victim} killed entering step collective {kill_at}: {}",
                    v.detail
                );
                agg.violations.push(v);
            }
            placements += 1;
        }
    }
    DecentralWorld {
        mode: DMode::Ring,
        label: "ring-cg-step",
        ranks: STEP_RANKS,
        kill_placements: placements,
        outcome: agg,
    }
}

// ---------------------------------------------------------------------------
// Mutation self-test
// ---------------------------------------------------------------------------

/// One seeded masterless-protocol bug, applied to the generated
/// 3-rank micro-step programs.
struct DMutation {
    name: &'static str,
    expected_rule: &'static str,
    summary: &'static str,
    /// The per-rank programs the bug is seeded into, for `ranks` ranks.
    programs: fn(usize) -> Vec<Vec<MOp>>,
    apply: fn(&mut Vec<Vec<MOp>>),
}

const MUT_RANKS: usize = 3;

fn decentral_mutations() -> Vec<DMutation> {
    vec![
        DMutation {
            name: "ring-wrong-neighbor",
            expected_rule: P5,
            summary: "one rank's reduce-scatter hops send upstream instead of downstream",
            programs: |r| programs(DMode::Ring, r),
            apply: |progs| {
                for op in progs[1].iter_mut() {
                    if let MOp::Send {
                        to,
                        coll: 0,
                        phase: 1,
                    } = op
                    {
                        // prev(1) instead of next(1) on the 3-ring.
                        *to = 0;
                    }
                }
            },
        },
        DMutation {
            name: "ring-skipped-hop",
            expected_rule: P5,
            summary: "one rank skips its first allgather forward, starving its successor",
            programs: |r| programs(DMode::Ring, r),
            apply: |progs| {
                if let Some(i) = progs[1].iter().position(|o| {
                    matches!(
                        o,
                        MOp::Send {
                            coll: 0,
                            phase: 2,
                            ..
                        }
                    )
                }) {
                    progs[1].remove(i);
                }
            },
        },
        DMutation {
            name: "ring-extra-step",
            expected_rule: P5,
            summary: "one rank runs an extra reduce-scatter hop nobody pairs with",
            programs: |r| programs(DMode::Ring, r),
            apply: |progs| {
                if let Some(i) = progs[0].iter().rposition(|o| {
                    matches!(
                        o,
                        MOp::Recv {
                            coll: 0,
                            phase: 1,
                            ..
                        }
                    )
                }) {
                    progs[0].insert(
                        i + 1,
                        MOp::Send {
                            to: 1,
                            coll: 0,
                            phase: 1,
                        },
                    );
                    progs[0].insert(
                        i + 2,
                        MOp::Recv {
                            from: 2,
                            coll: 0,
                            phase: 1,
                        },
                    );
                }
            },
        },
        DMutation {
            name: "ring-seq-skew",
            expected_rule: P5,
            summary: "one rank skips a whole collective, desynchronizing tag windows",
            programs: |r| programs(DMode::Ring, r),
            apply: |progs| {
                progs[2].retain(|o| {
                    !matches!(o, MOp::Send { coll: 0, .. } | MOp::Recv { coll: 0, .. })
                });
            },
        },
        DMutation {
            name: "ring-barrier-dropped",
            expected_rule: P5,
            summary: "one rank exits without joining the closing dissemination barrier",
            programs: |r| programs(DMode::Ring, r),
            apply: |progs| {
                let c = CANONICAL_ALLREDUCES;
                progs[0].retain(|o| match o {
                    MOp::Send { coll, .. } | MOp::Recv { coll, .. } => *coll != c,
                });
            },
        },
        DMutation {
            name: "ring-stray-final-send",
            expected_rule: P6,
            summary: "one rank emits a trailing message nobody ever receives",
            programs: |r| programs(DMode::Ring, r),
            apply: |progs| {
                progs[0].push(MOp::Send {
                    to: 1,
                    coll: CANONICAL_ALLREDUCES,
                    phase: 2,
                });
            },
        },
        DMutation {
            name: "tree-wrong-root",
            expected_rule: P6,
            summary: "one rank broadcasts as if it were the root, stranding the real root's sends",
            programs: |r| programs(DMode::Tree, r),
            apply: |progs| {
                // Rank 1 runs the broadcast half of collective 0 as the
                // vrank-0 root of a root-1 tree (sends to ranks 0 and
                // 2) instead of receiving from rank 0. Every rank
                // still completes — the real root's message to rank 1
                // and both stray sends are left in flight.
                if let Some(i) = progs[1].iter().position(|o| {
                    matches!(
                        o,
                        MOp::Recv {
                            coll: 0,
                            phase: 2,
                            ..
                        }
                    )
                }) {
                    progs[1].splice(
                        i..i + 1,
                        [
                            MOp::Send {
                                to: 0,
                                coll: 0,
                                phase: 2,
                            },
                            MOp::Send {
                                to: 2,
                                coll: 0,
                                phase: 2,
                            },
                        ],
                    );
                }
            },
        },
        DMutation {
            name: "ring-allgather-skipped-hop",
            expected_rule: P5,
            summary:
                "one rank skips its first hop of the CG operand's allgather, starving its successor",
            programs: step_programs,
            apply: |progs| {
                if let Some(i) = progs[1].iter().position(|o| {
                    matches!(
                        o,
                        MOp::Send {
                            coll: 0,
                            phase: 2,
                            ..
                        }
                    )
                }) {
                    progs[1].remove(i);
                }
            },
        },
    ]
}

/// One seeded recovery-protocol bug, applied to the per-rank recovery
/// programs of the fixed 4-rank ring scenario (victim 1 killed
/// entering collective 1 → survivors `{0, 2, 3}`, coordinator 0).
struct DRecoveryMutation {
    name: &'static str,
    expected_rule: &'static str,
    summary: &'static str,
    apply: fn(&mut RecoveryScenario),
}

const REC_MUT_RANKS: usize = 4;
const REC_MUT_VICTIM: usize = 1;

fn recovery_mutations() -> Vec<DRecoveryMutation> {
    vec![
        DRecoveryMutation {
            name: "recovery-wrong-coordinator",
            expected_rule: P5,
            summary: "one survivor reports to a mid-ring peer instead of the lowest live rank",
            apply: |sc| {
                for op in sc.recovery[3].iter_mut() {
                    if let MOp::Send {
                        to,
                        coll: REC_MEMBER,
                        phase: 1,
                    } = op
                    {
                        *to = 2;
                    }
                }
            },
        },
        DRecoveryMutation {
            name: "recovery-skipped-report",
            expected_rule: P5,
            summary: "one survivor joins recovery without reporting, starving the coordinator",
            apply: |sc| {
                sc.recovery[2].retain(|o| {
                    !matches!(
                        o,
                        MOp::Send {
                            coll: REC_MEMBER,
                            phase: 1,
                            ..
                        }
                    )
                });
            },
        },
        DRecoveryMutation {
            name: "recovery-missing-agree",
            expected_rule: P5,
            summary: "the coordinator never sends one survivor the agreed membership",
            apply: |sc| {
                sc.recovery[0].retain(|o| {
                    !matches!(
                        o,
                        MOp::Send {
                            to: 3,
                            coll: REC_MEMBER,
                            phase: 2,
                        }
                    )
                });
            },
        },
        DRecoveryMutation {
            name: "reshard-to-dead",
            expected_rule: P5,
            summary: "the coordinator ships an orphaned shard to the dead rank",
            apply: |sc| {
                for op in sc.recovery[0].iter_mut() {
                    if let MOp::Send {
                        to: to @ 2,
                        coll: REC_SHARD,
                        ..
                    } = op
                    {
                        *to = REC_MUT_VICTIM as u8;
                        break;
                    }
                }
            },
        },
        DRecoveryMutation {
            name: "recovery-no-restitch",
            expected_rule: P5,
            summary: "one survivor re-enters the old full ring, waiting on its dead neighbor",
            apply: |sc| {
                // Rank 2's re-stitched ring neighbors are {0, 3}; the
                // old 4-ring has it receiving from the dead rank 1.
                let old_parts: Vec<usize> = (0..REC_MUT_RANKS).collect();
                let mut old_ring = Vec::new();
                let hops = schedule::ring(2, REC_MUT_RANKS);
                lower(REC_RESUME, &hops, &old_parts, &mut old_ring);
                let prog = &mut sc.recovery[2];
                let at = prog
                    .iter()
                    .position(|o| {
                        matches!(
                            o,
                            MOp::Send {
                                coll: REC_RESUME,
                                ..
                            }
                        )
                    })
                    // pdnn-lint: allow(l3-no-unwrap): every survivor's recovery program carries a resumed-schedule segment; a silently unapplied mutation would surface as an uncaught mutation, so stop loudly here instead
                    .unwrap();
                let end = at
                    + prog[at..]
                        .iter()
                        .take_while(|o| {
                            matches!(
                                o,
                                MOp::Send {
                                    coll: REC_RESUME,
                                    ..
                                } | MOp::Recv {
                                    coll: REC_RESUME,
                                    ..
                                }
                            )
                        })
                        .count();
                prog.splice(at..end, old_ring);
            },
        },
    ]
}

/// Explore every masterless mutant: the fault-free battery on the
/// 3-rank world plus the recovery battery on the 4-rank kill
/// scenario. The results join the master-protocol battery in the
/// report and the `verify.sh` caught-them-all gate.
pub fn run_decentral_mutations() -> Vec<MutationResult> {
    let mut results: Vec<MutationResult> = decentral_mutations()
        .into_iter()
        .map(|m| {
            let mut progs = (m.programs)(MUT_RANKS);
            (m.apply)(&mut progs);
            let out = explore_programs(&progs);
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
        .collect();
    for m in recovery_mutations() {
        let mut sc = recovery_scenario(DMode::Ring, REC_MUT_RANKS, REC_MUT_VICTIM, 1);
        (m.apply)(&mut sc);
        let out = explore_recovery(&sc);
        let mut fired: Vec<&'static str> = out.violations.iter().map(|v| v.rule).collect();
        fired.dedup();
        results.push(MutationResult {
            name: m.name,
            expected_rule: m.expected_rule,
            summary: m.summary,
            caught: fired.contains(&m.expected_rule),
            fired_rules: fired,
        });
    }
    results
}

// ---------------------------------------------------------------------------
// Trace conformance
// ---------------------------------------------------------------------------

/// Shape of one collective event for the SPMD cross-rank check.
type CollShape = (&'static str, &'static str, usize);

fn coll_shape(ev: &CommEvent) -> Option<CollShape> {
    match ev {
        CommEvent::Coll { op, kind, len, .. } => Some((op, kind, *len)),
        _ => None,
    }
}

/// The wire tag of a recovery micro-step of [`recovery_p2p`].
fn recovery_tag(coll: u8, phase: u8) -> u64 {
    match (coll, phase) {
        (REC_MEMBER, 1) => TAG_RECOVER_REPORT,
        (REC_MEMBER, _) => TAG_RECOVER_AGREE,
        _ => TAG_LOAD_DATA,
    }
}

/// Whether `ev` is the point-to-point event recovery micro-step `op`
/// records: same direction, peer and tag.
fn records(op: MOp, ev: &CommEvent) -> bool {
    match (op, ev) {
        (MOp::Send { to, coll, phase }, CommEvent::Send { to: peer, tag, .. })
        | (
            MOp::Recv {
                from: to,
                coll,
                phase,
            },
            CommEvent::Recv {
                from: peer, tag, ..
            },
        ) => *peer == usize::from(to) && *tag == recovery_tag(coll, phase),
        _ => false,
    }
}

/// Replay one masterless rank's stream, `live` being the run's
/// survivors, against the `DecentralProblem` phase grammar:
/// `(f32-allreduce f64-allreduce? | f64-allreduce)* barrier`, every
/// allreduce carrying the mode's op name. The f64 metadata chaser is
/// optional per f32 payload: the gradient pair always carries one, but
/// curvature products agree on the sample's frame count once per draw
/// and skip the chaser afterwards
/// (`DecentralProblem::sample_frames_total`). Ring mode's sharded CG
/// state adds two `f32` collectives anywhere in that sequence: the
/// allgather of a CG operand, trial θ or updated θ, and the
/// reduce-scatter of a curvature product; its `p·Ap` and `(r·z, q)`
/// folds are standalone `f64` allreduces.
///
/// In a run that `killed` a rank, the victim's stream is a silent clean
/// prefix (the kill fires at `fault_gate`, before any event for the
/// fatal collective is recorded). A survivor's stream shows the
/// aborted collective (`ok: false`), then its recovery point-to-point
/// traffic — exactly the lowered [`recovery_p2p`] programme, in order —
/// then the schedule resumed over the survivors, so rooted at the
/// lowest survivor, and the barrier.
fn replay_decentral_rank(
    mode: DMode,
    rank: usize,
    events: &[CommEvent],
    live: &[usize],
    killed: bool,
) -> RankReplay {
    let survivor = live.iter().position(|&w| w == rank);
    let total = events.len();
    let ops = mode.ops();
    let fail = |pos: usize, msg: String| RankReplay {
        rank,
        consumed: pos,
        total,
        completed: false,
        accepted: false,
        error: Some(format!("event {pos}: {msg}")),
    };
    let accept = RankReplay {
        rank,
        consumed: total,
        total,
        completed: true,
        accepted: true,
        error: None,
    };
    // `root` is the expected root of healthy collectives: 0 until the
    // abort, the lowest survivor afterwards.
    let mut root = 0usize;
    let mut aborted = false;
    let mut pos = 0usize;
    while pos < total {
        match &events[pos] {
            // A failed collective of this mode: the moment a timed
            // hop surfaced the death. Only survivors see it. The
            // failure may span several consecutive collectives — once
            // the peer is known dead, every further entry fails fast
            // until the error reaches the recovery arm (e.g. the f64
            // chaser of a killed f32 gradient exchange) — after which
            // recovery p2p follows.
            CommEvent::Coll { op, ok: false, .. } if ops.contains(op) && killed => {
                let Some(at) = survivor.filter(|_| !aborted) else {
                    return fail(
                        pos,
                        "a second or the victim's aborted collective".to_string(),
                    );
                };
                aborted = true;
                root = live[0];
                pos += 1;
                while matches!(
                    events.get(pos),
                    Some(CommEvent::Coll { op, ok: false, .. }) if ops.contains(op)
                ) {
                    pos += 1;
                }
                // Recovery traffic, the only p2p a masterless stream
                // may ever contain.
                for op in recovery_p2p(at, live) {
                    match events.get(pos) {
                        Some(ev) if records(op, ev) => pos += 1,
                        Some(ev @ (CommEvent::Send { tag, .. } | CommEvent::Recv { tag, .. }))
                            if !matches!(
                                *tag,
                                TAG_LOAD_DATA | TAG_RECOVER_REPORT | TAG_RECOVER_AGREE
                            ) =>
                        {
                            return fail(
                                pos,
                                format!("non-recovery p2p event during recovery: {ev:?}"),
                            );
                        }
                        got => {
                            return fail(pos, format!("recovery expected {op:?}, saw {got:?}"));
                        }
                    }
                }
            }
            CommEvent::Coll {
                op: "barrier",
                root: r,
                ok: true,
                ..
            } => {
                if survivor.is_none() {
                    return fail(pos, "the victim's stream reaches the barrier".to_string());
                }
                if killed && !aborted {
                    return fail(
                        pos,
                        "survivor stream has a barrier but no aborted collective".to_string(),
                    );
                }
                if pos == 0 {
                    return fail(pos, "barrier before any allreduce".to_string());
                }
                if *r != root {
                    return fail(pos, format!("barrier rooted at {r}, expected {root}"));
                }
                if pos + 1 != total {
                    return fail(
                        pos,
                        format!("{} event(s) after the closing barrier", total - pos - 1),
                    );
                }
                return accept;
            }
            CommEvent::Coll {
                op,
                kind,
                root: r,
                ok: true,
                ..
            } if ops.contains(op) && *r == root => {
                match (*op, *kind) {
                    // Payload allreduce or (optional) f64 metadata
                    // chaser, or an `f32` half of the sharded CG
                    // state's ring: a following aborted collective or
                    // the victim's silent end of stream are handled by
                    // the outer loop's other arms.
                    ("reduce_scatter" | "allgather", "F32") => pos += 1,
                    ("allreduce_ring" | "allreduce_tree", "F32" | "F64") => pos += 1,
                    (_, other) => {
                        return fail(pos, format!("{op} carries unexpected {other} payload"))
                    }
                }
            }
            other => {
                return fail(
                    pos,
                    format!("unexpected event in a masterless stream: {other:?}"),
                )
            }
        }
    }
    match survivor {
        // The whole stream was clean collectives: the silent death.
        None => accept,
        Some(_) => fail(pos, "stream ended without the closing barrier".to_string()),
    }
}

/// Replay a whole masterless run in which `dead_ranks` were killed
/// (none for a fault-free run): the per-rank grammar plus the SPMD
/// invariants the replicated-optimizer design rests on — every
/// survivor's collective shape sequence (op, payload kind, element
/// count) is identical, and each victim's is a strict prefix of it
/// (the victim ran the same replicated program until its death at a
/// collective entry).
pub fn replay_decentral_run(
    mode: DMode,
    rank_events: &[&[CommEvent]],
    dead_ranks: &[usize],
) -> RunReplay {
    let live: Vec<usize> = (0..rank_events.len())
        .filter(|r| !dead_ranks.contains(r))
        .collect();
    let killed = live.len() < rank_events.len();
    let shapes =
        |evs: &[CommEvent]| -> Vec<CollShape> { evs.iter().filter_map(coll_shape).collect() };
    let shape0 = live
        .first()
        .map(|&r| shapes(rank_events[r]))
        .unwrap_or_default();
    let mut ranks = Vec::new();
    let mut unmapped = 0usize;
    let mut p2p_events = 0usize;
    let mut coll_events = 0usize;
    for (rank, events) in rank_events.iter().enumerate() {
        for ev in events.iter() {
            match ev {
                CommEvent::Coll { .. } => coll_events += 1,
                _ => p2p_events += 1,
            }
        }
        let mut r = replay_decentral_rank(mode, rank, events, &live, killed);
        if r.accepted {
            let shape = shapes(events);
            let ok = if live.contains(&rank) {
                shape == shape0
            } else {
                shape0.starts_with(&shape) && shape.len() < shape0.len()
            };
            if !ok {
                let at = shape
                    .iter()
                    .zip(&shape0)
                    .position(|(a, b)| a != b)
                    .unwrap_or(shape.len().min(shape0.len()));
                r.accepted = false;
                r.completed = false;
                r.consumed = at;
                r.error = Some(format!(
                    "SPMD divergence: collective {at} differs in shape from the \
                     first survivor"
                ));
            }
        }
        unmapped += r.total - r.consumed;
        ranks.push(r);
    }
    let accepted = !ranks.is_empty() && ranks.iter().all(|r| r.accepted && r.completed);
    RunReplay {
        ranks,
        unmapped,
        accepted,
        p2p_events,
        coll_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_are_clean_on_small_worlds() {
        for w in check_worlds() {
            assert!(
                w.outcome.violations.is_empty(),
                "{} mode, {} ranks: {:?}",
                w.mode.label(),
                w.ranks,
                w.outcome.violations
            );
            assert!(w.outcome.states > 1);
            assert!(
                w.outcome.terminals >= 1,
                "{} mode, {} ranks never completed",
                w.mode.label(),
                w.ranks
            );
        }
    }

    #[test]
    fn fault_free_worlds_explore_the_pinned_state_spaces() {
        // (states, transitions, terminals) per (mode, ranks): the model
        // lowered from `pdnn_mpisim::schedule` is the one the hand
        // lowerings it replaced explored.
        let expect = [
            (DMode::Ring, 2, (87, 128, 1)),
            (DMode::Ring, 3, (813, 1662, 1)),
            (DMode::Ring, 4, (5951, 15624, 1)),
            (DMode::Tree, 2, (28, 30, 1)),
            (DMode::Tree, 3, (141, 241, 1)),
            (DMode::Tree, 4, (426, 950, 1)),
        ];
        let worlds = check_worlds();
        assert_eq!(worlds.len(), expect.len());
        for (w, (mode, ranks, counts)) in worlds.iter().zip(expect) {
            assert_eq!((w.mode, w.ranks), (mode, ranks));
            let o = &w.outcome;
            assert_eq!(
                (o.states, o.transitions, o.terminals),
                counts,
                "{} mode, {ranks} ranks",
                mode.label()
            );
        }
    }

    #[test]
    fn recovery_worlds_are_clean_at_every_kill_placement() {
        for w in check_recovery_worlds() {
            assert!(
                w.outcome.violations.is_empty(),
                "{} mode, {} ranks: {:?}",
                w.mode.label(),
                w.ranks,
                w.outcome.violations
            );
            assert_eq!(
                w.kill_placements,
                w.ranks * KILL_WINDOWS as usize,
                "{} mode, {} ranks: not every (victim, entry) placement explored",
                w.mode.label(),
                w.ranks
            );
            assert!(
                w.outcome.terminals >= w.kill_placements,
                "{} mode, {} ranks: some placement never recovered to completion",
                w.mode.label(),
                w.ranks
            );
        }
    }

    #[test]
    fn recovery_worlds_explore_the_pinned_state_spaces() {
        // (states, transitions, terminals, kill placements) per
        // (mode, ranks): the identity gate for any change to how the
        // recovery programs are lowered.
        let expect = [
            (DMode::Ring, 2, (42, 52, 4, 4)),
            (DMode::Ring, 3, (938, 1585, 12, 6)),
            (DMode::Ring, 4, (15843, 35047, 40, 8)),
            (DMode::Tree, 2, (18, 14, 4, 4)),
            (DMode::Tree, 3, (260, 328, 8, 6)),
            (DMode::Tree, 4, (2142, 4015, 16, 8)),
        ];
        let worlds = check_recovery_worlds();
        assert_eq!(worlds.len(), expect.len());
        for (w, (mode, ranks, counts)) in worlds.iter().zip(expect) {
            assert_eq!((w.mode, w.ranks), (mode, ranks));
            let o = &w.outcome;
            assert_eq!(
                (o.states, o.transitions, o.terminals, w.kill_placements),
                counts,
                "{} mode, {ranks} ranks",
                mode.label()
            );
        }
    }

    #[test]
    fn the_sharded_cg_step_recovers_at_every_kill_placement() {
        // (states, transitions, terminals, kill placements) of the
        // 3-rank ring-cg-step world: every victim dying entering each of
        // the allgather, the reduce-scatter and the two scalar folds.
        let w = check_step_recovery_world();
        assert!(
            w.outcome.violations.is_empty(),
            "{:?}",
            w.outcome.violations
        );
        assert_eq!((w.label, w.ranks), ("ring-cg-step", STEP_RANKS));
        let o = &w.outcome;
        assert_eq!(
            (o.states, o.transitions, o.terminals, w.kill_placements),
            (3304, 5669, 24, 12)
        );
        // The fault-free step is clean too.
        let clean = explore_programs(&step_programs(STEP_RANKS));
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);
        assert_eq!(clean.terminals, 1);
    }

    #[test]
    fn the_cg_step_lowers_the_runtime_halves_of_the_ring() {
        // Allgather then reduce-scatter carry, hop for hop, the two
        // halves of the ring allreduce the runtime interprets.
        let m = STEP_RANKS;
        let parts: Vec<usize> = (0..m).collect();
        for (rank, prog) in step_programs(m).iter().enumerate() {
            let (mut ag, mut rs) = (Vec::new(), Vec::new());
            lower(0, &schedule::ring_allgather(rank, m), &parts, &mut ag);
            lower(1, &schedule::ring_reduce_scatter(rank, m), &parts, &mut rs);
            assert!(prog.starts_with(&ag), "rank {rank}");
            assert!(prog[ag.len()..].starts_with(&rs), "rank {rank}");
            assert!(ag
                .iter()
                .all(|o| matches!(o, MOp::Send { phase: 2, .. } | MOp::Recv { phase: 2, .. })));
            assert!(rs
                .iter()
                .all(|o| matches!(o, MOp::Send { phase: 1, .. } | MOp::Recv { phase: 1, .. })));
        }
    }

    #[test]
    fn survivors_abort_at_every_feasible_hop() {
        // With victim 1 dead from the first collective on the 4-ring,
        // the abort transition fires from many distinct survivor
        // positions: the interleaving count must strictly exceed the
        // single-abort-point lower bound (one terminal per placement
        // would mean a deterministic abort schedule).
        let sc = recovery_scenario(DMode::Ring, 4, 1, 0);
        let out = explore_recovery(&sc);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(
            out.terminals > 1,
            "only {} terminal(s): abort nondeterminism collapsed",
            out.terminals
        );
    }

    #[test]
    fn every_decentral_mutation_is_caught() {
        let results = run_decentral_mutations();
        assert!(results.len() >= 12, "battery shrank to {}", results.len());
        for name in [
            "recovery-wrong-coordinator",
            "recovery-skipped-report",
            "recovery-missing-agree",
            "reshard-to-dead",
            "recovery-no-restitch",
            "ring-allgather-skipped-hop",
        ] {
            assert!(
                results.iter().any(|r| r.name == name),
                "recovery mutation `{name}` missing from the battery"
            );
        }
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

    fn ar(mode: DMode, kind: &'static str, len: usize) -> CommEvent {
        CommEvent::Coll {
            op: mode.op_name(),
            root: 0,
            kind,
            len,
            first: None,
            ok: true,
        }
    }

    fn barrier() -> CommEvent {
        CommEvent::Coll {
            op: "barrier",
            root: 0,
            kind: "Empty",
            len: 0,
            first: None,
            ok: true,
        }
    }

    #[test]
    fn a_well_formed_ring_stream_conforms() {
        let stream = vec![
            ar(DMode::Ring, "F32", 100),
            ar(DMode::Ring, "F64", 2),
            ar(DMode::Ring, "F64", 3),
            barrier(),
        ];
        let run = replay_decentral_run(DMode::Ring, &[&stream, &stream, &stream], &[]);
        assert!(run.accepted, "{:?}", run.ranks[0].error);
        assert_eq!(run.unmapped, 0);
        assert_eq!(run.p2p_events, 0);
    }

    fn half(op: &'static str, kind: &'static str, len: usize) -> CommEvent {
        CommEvent::Coll {
            op,
            root: 0,
            kind,
            len,
            first: None,
            ok: true,
        }
    }

    /// A ring rank's stream with the sharded CG state: the gradient
    /// pair, then per CG step the operand's allgather, the product's
    /// reduce-scatter (with the sample's frame count once) and the two
    /// scalar folds, then a trial θ's allgather and its held-out sums.
    fn sharded_ring_stream() -> Vec<CommEvent> {
        let m = DMode::Ring;
        vec![
            ar(m, "F32", 100),
            ar(m, "F64", 2),
            half("allgather", "F32", 100),
            half("reduce_scatter", "F32", 100),
            ar(m, "F64", 1),
            ar(m, "F64", 2),
            half("allgather", "F32", 100),
            half("reduce_scatter", "F32", 100),
            ar(m, "F64", 1),
            ar(m, "F64", 2),
            half("allgather", "F32", 100),
            ar(m, "F64", 3),
            barrier(),
        ]
    }

    #[test]
    fn a_sharded_cg_ring_stream_conforms() {
        let stream = sharded_ring_stream();
        let run = replay_decentral_run(DMode::Ring, &[&stream, &stream], &[]);
        assert!(run.accepted, "{:?}", run.ranks[0].error);
        assert_eq!(run.unmapped, 0);
        // The halves belong to ring mode only, and carry f32 only.
        let run = replay_decentral_run(DMode::Tree, &[&stream, &stream], &[]);
        assert!(!run.accepted);
        let mut f64_gather = stream.clone();
        f64_gather[2] = half("allgather", "F64", 100);
        let run = replay_decentral_run(DMode::Ring, &[&f64_gather, &f64_gather], &[]);
        assert!(!run.accepted);
        assert!(run.ranks[0]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("unexpected F64"));
        // A rank that skips a step's allgather diverges from its peers.
        let mut skipped = stream.clone();
        skipped.remove(6);
        let run = replay_decentral_run(DMode::Ring, &[&stream, &skipped], &[]);
        assert!(!run.accepted);
        assert!(run.ranks[1].error.as_deref().unwrap_or("").contains("SPMD"));
    }

    #[test]
    fn a_ring_killed_inside_an_allgather_conforms() {
        // Victim 0 dies entering the second step's allgather: the
        // survivors record it aborted, recover, and resume re-rooted.
        let (_, coord, peer) = killed_ring_streams();
        let clean = &sharded_ring_stream()[..6];
        let aborted = CommEvent::Coll {
            op: "allgather",
            root: 0,
            kind: "F32",
            len: 100,
            first: None,
            ok: false,
        };
        let rebuild = |tail: &[CommEvent]| -> Vec<CommEvent> {
            let mut v = clean.to_vec();
            v.push(aborted.clone());
            // Recovery p2p and the resumed schedule of the killed-ring
            // fixture, after its two clean and one aborted collective.
            v.extend(tail[3..].iter().cloned());
            v
        };
        let victim = clean.to_vec();
        let (coord, peer) = (rebuild(&coord), rebuild(&peer));
        let run = replay_decentral_run(DMode::Ring, &[&victim, &coord, &peer], &[0]);
        for r in &run.ranks {
            assert!(r.accepted, "rank {}: {:?}", r.rank, r.error);
        }
        assert_eq!(run.unmapped, 0);
    }

    #[test]
    fn wrong_mode_and_p2p_and_divergence_are_rejected() {
        let good = vec![ar(DMode::Ring, "F64", 3), barrier()];
        // Tree ops in a ring-mode replay.
        let tree = vec![ar(DMode::Tree, "F64", 3), barrier()];
        let run = replay_decentral_run(DMode::Ring, &[&good, &tree], &[]);
        assert!(!run.accepted);
        assert!(run.ranks[1]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("allreduce_tree"));
        // A stray p2p event.
        let p2p = vec![
            CommEvent::Send {
                to: 1,
                tag: 9,
                kind: "F32",
                len: 4,
            },
            barrier(),
        ];
        let run = replay_decentral_run(DMode::Ring, &[&good, &p2p], &[]);
        assert!(!run.accepted);
        assert_eq!(run.p2p_events, 1);
        // Shape-divergent but individually grammatical streams.
        let other = vec![ar(DMode::Ring, "F64", 4), barrier()];
        let run = replay_decentral_run(DMode::Ring, &[&good, &other], &[]);
        assert!(!run.accepted);
        assert!(run.ranks[1].error.as_deref().unwrap_or("").contains("SPMD"));
    }

    #[test]
    fn truncated_and_trailing_streams_are_rejected() {
        let no_barrier = vec![ar(DMode::Ring, "F64", 3)];
        let run = replay_decentral_run(DMode::Ring, &[&no_barrier], &[]);
        assert!(!run.accepted);
        let trailing = vec![
            ar(DMode::Ring, "F64", 3),
            barrier(),
            ar(DMode::Ring, "F64", 3),
        ];
        let run = replay_decentral_run(DMode::Ring, &[&trailing], &[]);
        assert!(!run.accepted);
        assert!(run.unmapped > 0);
        // An f32 allreduce with no f64 chaser is legal (curvature
        // products reuse the sample's agreed frame count), but a
        // rooted collective in a masterless stream is not.
        let bare = vec![ar(DMode::Ring, "F32", 100), barrier()];
        let run = replay_decentral_run(DMode::Ring, &[&bare], &[]);
        assert!(run.accepted, "{:?}", run.ranks[0].error);
        let rooted = vec![
            CommEvent::Coll {
                op: DMode::Ring.op_name(),
                root: 1,
                kind: "F32",
                len: 100,
                first: None,
                ok: true,
            },
            barrier(),
        ];
        let run = replay_decentral_run(DMode::Ring, &[&rooted], &[]);
        assert!(!run.accepted);
    }

    fn arf(mode: DMode, kind: &'static str, len: usize, root: usize, ok: bool) -> CommEvent {
        CommEvent::Coll {
            op: mode.op_name(),
            root,
            kind,
            len,
            first: None,
            ok,
        }
    }

    fn barrier_at(root: usize) -> CommEvent {
        CommEvent::Coll {
            op: "barrier",
            root,
            kind: "Empty",
            len: 0,
            first: None,
            ok: true,
        }
    }

    fn p2p_send(to: usize, tag: u64) -> CommEvent {
        CommEvent::Send {
            to,
            tag,
            kind: "U64",
            len: 1,
        }
    }

    fn p2p_recv(from: usize, tag: u64) -> CommEvent {
        CommEvent::Recv {
            from,
            tag,
            kind: "U64",
            len: 1,
        }
    }

    /// A killed 3-rank ring with victim 0: streams the faulted
    /// grammar must accept — silent victim prefix, aborted collective
    /// on the survivors, recovery p2p on tags 17/18/19, resumed
    /// schedule re-rooted at survivor 1.
    fn killed_ring_streams() -> (Vec<CommEvent>, Vec<CommEvent>, Vec<CommEvent>) {
        let m = DMode::Ring;
        let clean = [arf(m, "F32", 100, 0, true), arf(m, "F64", 2, 0, true)];
        let resumed = [
            arf(m, "F32", 100, 1, true),
            arf(m, "F64", 2, 1, true),
            barrier_at(1),
        ];
        let victim = clean.to_vec();
        // Survivor 1 is the new coordinator: collects rank 2's
        // report, agrees, ships the two reshard payloads.
        let mut coord = clean.to_vec();
        coord.push(arf(m, "F32", 100, 0, false));
        coord.extend([
            p2p_recv(2, TAG_RECOVER_REPORT),
            p2p_send(2, TAG_RECOVER_AGREE),
            p2p_send(2, TAG_LOAD_DATA),
            p2p_send(2, TAG_LOAD_DATA),
        ]);
        coord.extend(resumed.clone());
        let mut peer = clean.to_vec();
        peer.push(arf(m, "F32", 100, 0, false));
        peer.extend([
            p2p_send(1, TAG_RECOVER_REPORT),
            p2p_recv(1, TAG_RECOVER_AGREE),
            p2p_recv(1, TAG_LOAD_DATA),
            p2p_recv(1, TAG_LOAD_DATA),
        ]);
        peer.extend(resumed);
        (victim, coord, peer)
    }

    #[test]
    fn a_killed_ring_trace_conforms_with_zero_unmapped() {
        let (victim, coord, peer) = killed_ring_streams();
        let run = replay_decentral_run(DMode::Ring, &[&victim, &coord, &peer], &[0]);
        for r in &run.ranks {
            assert!(r.accepted, "rank {}: {:?}", r.rank, r.error);
        }
        assert!(run.accepted);
        assert_eq!(run.unmapped, 0);
        assert_eq!(run.p2p_events, 8);
    }

    #[test]
    fn recovery_traffic_must_follow_the_lowered_round_and_shipments() {
        let (victim, coord, peer) = killed_ring_streams();
        let rejects = |coord: &[CommEvent], peer: &[CommEvent]| {
            let run = replay_decentral_run(DMode::Ring, &[&victim, coord, peer], &[0]);
            assert!(!run.accepted);
            run.ranks
                .iter()
                .find_map(|r| r.error.clone())
                .unwrap_or_default()
        };
        // AGREE before REPORT on the survivor.
        let mut agree_first = peer.clone();
        agree_first.swap(3, 4);
        assert!(rejects(&coord, &agree_first).contains("recovery expected"));
        // A shipment from a non-coordinator (the dead rank 0).
        let mut stray_shipment = peer.clone();
        stray_shipment[5] = p2p_recv(0, TAG_LOAD_DATA);
        assert!(rejects(&coord, &stray_shipment).contains("recovery expected"));
        // The coordinator ships before it agrees.
        let mut ship_first = coord.clone();
        ship_first.swap(4, 5);
        assert!(rejects(&ship_first, &peer).contains("recovery expected"));
    }

    #[test]
    fn faulted_grammar_rejects_malformed_recovery() {
        let (victim, coord, peer) = killed_ring_streams();
        // A non-recovery p2p tag inside the recovery window.
        let mut stray = coord.clone();
        stray[3] = p2p_recv(2, 9);
        let run = replay_decentral_run(DMode::Ring, &[&victim, &stray, &peer], &[0]);
        assert!(!run.accepted);
        assert!(run.ranks[1]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("non-recovery p2p"));
        // A survivor that never aborted yet reaches the barrier.
        let healthy: Vec<CommEvent> = victim.iter().cloned().chain([barrier_at(1)]).collect();
        let run = replay_decentral_run(DMode::Ring, &[&victim, &coord, &healthy], &[0]);
        assert!(!run.accepted);
        // The resumed schedule keeps the dead root.
        let mut stale_root = coord.clone();
        let n = stale_root.len();
        stale_root[n - 3] = arf(DMode::Ring, "F32", 100, 0, true);
        stale_root[n - 2] = arf(DMode::Ring, "F64", 2, 0, true);
        let run = replay_decentral_run(DMode::Ring, &[&victim, &stale_root, &peer], &[0]);
        assert!(!run.accepted);
        // The victim's stream must be a strict shape-prefix of the
        // survivors' — a diverging victim is an SPMD violation.
        let long_victim: Vec<CommEvent> = victim
            .iter()
            .cloned()
            .chain([arf(DMode::Ring, "F64", 7, 0, true)])
            .collect();
        let run = replay_decentral_run(DMode::Ring, &[&long_victim, &coord, &peer], &[0]);
        assert!(!run.accepted);
        assert!(run.ranks[0].error.as_deref().unwrap_or("").contains("SPMD"));
    }
}
