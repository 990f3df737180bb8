//! Masterless sync-mode automata: explicit-state checking for the
//! ring and tree allreduce schedules (`SyncStrategy::Ring` /
//! `SyncStrategy::Tree`).
//!
//! The master/worker explorer ([`crate::explorer`]) walks a rooted
//! command protocol; the masterless modes have no commands at all —
//! every rank runs the same replicated program whose only
//! communication is symmetric allreduces plus one closing barrier.
//! This module lowers that program into per-rank *micro-step*
//! automata, one [`MOp`] per blocking primitive inside the collective
//! algorithms of `crates/mpisim/src/collectives.rs`:
//!
//! * **ring allreduce** — `P − 1` reduce-scatter hops (send the
//!   outgoing chunk to `(rank + 1) % P`, receive from
//!   `(rank + P − 1) % P` on the `tag + 1` window) followed by
//!   `P − 1` allgather hops on the `tag + 2` window;
//! * **tree allreduce** — a binomial reduce to rank 0 on `tag + 1`
//!   followed by a binomial broadcast from rank 0 on `tag + 2`,
//!   mirroring the exact mask arithmetic of `allreduce_tree`;
//! * **barrier** — the dissemination pattern (`log₂ P` rounds of
//!   send-to-`(rank + step) % P` / receive-from-`(rank − step) % P`).
//!
//! The explorer enumerates every interleaving of those micro-steps on
//! 2–4 rank worlds and proves the shared properties: `p5` (no
//! reachable state wedges a rank), `p6` (no message is left
//! undelivered at a completed terminal), and `p7` (every execution
//! terminates completed — structural here, since program counters only
//! advance and `p5` rules out stuck states).
//!
//! **Recovery model** (`check_recovery_worlds`): since ISSUE 10 the
//! masterless modes accept fault plans, so the failure path is modeled
//! too. For every kill placement — every victim × every collective
//! entry, mirroring `fault_gate` which only fires kills at collective
//! boundaries — the victim's program is truncated at its death and
//! each survivor gains a nondeterministic *abort* transition: once the
//! victim is dead, a survivor blocked on an empty receive window of
//! the aborted collective may abandon it and jump to its recovery
//! program (the membership round to the lowest-surviving-rank
//! coordinator on the `REPORT`/`AGREE` windows, the coordinator's two
//! reshard shipments per survivor, one re-stitched allreduce lowered
//! over the survivor positions, and the survivor-only closing
//! barrier). Interleaving freedom makes the abort fire at *every*
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
//! collectives must carry the mode's op name, follow the
//! `DecentralProblem` phase grammar (an `f32` payload allreduce with
//! an optional `f64` metadata chaser — the gradient always carries
//! one, curvature products agree on the sample's frame count once
//! per draw — or a standalone `f64` allreduce), stay point-to-point
//! silent,
//! be byte-identical in shape across ranks (the SPMD invariant behind
//! the replicated-optimizer design), and end in exactly one barrier.
//! [`replay_decentral_faulted_run`] extends that grammar to real
//! killed runs: the victim's stream is a silent clean prefix, each
//! survivor shows the aborted collective (`ok: false`), recovery
//! point-to-point traffic on the `REPORT`/`AGREE`/`LOAD_DATA` tags,
//! and a resumed schedule rooted at the lowest survivor.

use crate::conformance::{RankReplay, RunReplay};
use crate::explorer::{Violation, P5, P6, P7};
use crate::mutate::MutationResult;
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

    pub fn label(self) -> &'static str {
        match self {
            DMode::Ring => "ring",
            DMode::Tree => "tree",
        }
    }
}

/// One blocking micro-step inside a collective. `coll` numbers the
/// collective within the replicated program (the fresh-tag-window
/// discipline of `with_collective`); `phase` is the sub-window
/// (`1`/`2` for the two halves of an allreduce, `0` for the barrier).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum MOp {
    Send { to: u8, coll: u8, phase: u8 },
    Recv { from: u8, coll: u8, phase: u8 },
}

/// Lower one ring allreduce (collective number `c`) for the rank at
/// position `pos` of the participant list `parts`: the reduce-scatter
/// ring on phase 1, the allgather ring on phase 2. Chunk indices
/// don't affect blocking so they are elided. Fault-free lowering
/// passes `parts = [0, 1, …, P−1]`; the re-stitched post-recovery
/// collectives pass the sorted survivor list, mirroring
/// `allreduce_ring_timed`'s `live_parts`.
fn lower_ring(c: u8, pos: usize, parts: &[usize], out: &mut Vec<MOp>) {
    let m = parts.len();
    if m < 2 {
        return;
    }
    let next = parts[(pos + 1) % m] as u8;
    let prev = parts[(pos + m - 1) % m] as u8;
    for phase in [1u8, 2u8] {
        for _step in 0..m - 1 {
            out.push(MOp::Send {
                to: next,
                coll: c,
                phase,
            });
            out.push(MOp::Recv {
                from: prev,
                coll: c,
                phase,
            });
        }
    }
}

/// Lower one tree allreduce over `parts`: binomial reduce to
/// `parts[0]` (phase 1) then binomial broadcast from `parts[0]`
/// (phase 2), with the same virtual-position mask walk as
/// `Comm::allreduce_tree` / `tree_exchange`.
fn lower_tree(c: u8, pos: usize, parts: &[usize], out: &mut Vec<MOp>) {
    let m = parts.len();
    if m < 2 {
        return;
    }
    let mut mask = 1usize;
    while mask < m {
        if pos & mask == 0 {
            let src = pos | mask;
            if src < m {
                out.push(MOp::Recv {
                    from: parts[src] as u8,
                    coll: c,
                    phase: 1,
                });
            }
        } else {
            let dst = pos & !mask;
            out.push(MOp::Send {
                to: parts[dst] as u8,
                coll: c,
                phase: 1,
            });
            break;
        }
        mask <<= 1;
    }
    let mut mask = 1usize;
    while mask < m {
        if pos & mask != 0 {
            let src = pos - mask;
            out.push(MOp::Recv {
                from: parts[src] as u8,
                coll: c,
                phase: 2,
            });
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if pos + mask < m {
            let dst = pos + mask;
            out.push(MOp::Send {
                to: parts[dst] as u8,
                coll: c,
                phase: 2,
            });
        }
        mask >>= 1;
    }
}

/// Lower the dissemination barrier closing the protocol, over the
/// positions of `parts`.
fn lower_barrier(c: u8, pos: usize, parts: &[usize], out: &mut Vec<MOp>) {
    let m = parts.len();
    let mut step = 1usize;
    while step < m {
        let dst = parts[(pos + step) % m] as u8;
        let src = parts[(pos + m - step) % m] as u8;
        out.push(MOp::Send {
            to: dst,
            coll: c,
            phase: 0,
        });
        out.push(MOp::Recv {
            from: src,
            coll: c,
            phase: 0,
        });
        step <<= 1;
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
                match mode {
                    DMode::Ring => lower_ring(c, rank, &parts, &mut ops),
                    DMode::Tree => lower_tree(c, rank, &parts, &mut ops),
                }
            }
            lower_barrier(CANONICAL_ALLREDUCES, rank, &parts, &mut ops);
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
/// `REC_SHARD` the coordinator's two `TAG_LOAD_DATA` shipments per
/// survivor, `REC_RESUME`/`REC_BARRIER` the re-stitched collectives.
const REC_MEMBER: u8 = 100;
const REC_SHARD: u8 = 101;
const REC_RESUME: u8 = 102;
const REC_BARRIER: u8 = 103;

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

/// Lower the kill placement `(victim, kill_at)` for `size` ranks
/// under `mode`, mirroring `DecentralProblem`'s `Recovering::recover`
/// (what `hf_loop` calls on a masterless replica): membership
/// round to the lowest survivor, two reshard shipments per survivor,
/// one re-issued allreduce over the survivor list, survivor barrier.
fn recovery_scenario(mode: DMode, size: usize, victim: usize, kill_at: u8) -> RecoveryScenario {
    let parts: Vec<usize> = (0..size).collect();
    let main: Vec<Vec<MOp>> = (0..size)
        .map(|rank| {
            let mut ops = Vec::new();
            // The kill fires at `fault_gate`, i.e. at collective
            // entry: the victim completes `kill_at` collectives and
            // emits nothing for the aborted one.
            let colls = if rank == victim { kill_at } else { kill_at + 1 };
            for c in 0..colls {
                match mode {
                    DMode::Ring => lower_ring(c, rank, &parts, &mut ops),
                    DMode::Tree => lower_tree(c, rank, &parts, &mut ops),
                }
            }
            ops
        })
        .collect();
    let live: Vec<usize> = (0..size).filter(|&r| r != victim).collect();
    let coord = live[0];
    let recovery: Vec<Vec<MOp>> = (0..size)
        .map(|rank| {
            let mut ops = Vec::new();
            if rank == victim {
                return ops;
            }
            if rank == coord {
                for &w in live.iter().filter(|&&w| w != coord) {
                    ops.push(MOp::Recv {
                        from: w as u8,
                        coll: REC_MEMBER,
                        phase: 1,
                    });
                }
                for &w in live.iter().filter(|&&w| w != coord) {
                    ops.push(MOp::Send {
                        to: w as u8,
                        coll: REC_MEMBER,
                        phase: 2,
                    });
                }
                for &w in live.iter().filter(|&&w| w != coord) {
                    for _shipment in 0..2 {
                        ops.push(MOp::Send {
                            to: w as u8,
                            coll: REC_SHARD,
                            phase: 1,
                        });
                    }
                }
            } else {
                ops.push(MOp::Send {
                    to: coord as u8,
                    coll: REC_MEMBER,
                    phase: 1,
                });
                ops.push(MOp::Recv {
                    from: coord as u8,
                    coll: REC_MEMBER,
                    phase: 2,
                });
                for _shipment in 0..2 {
                    ops.push(MOp::Recv {
                        from: coord as u8,
                        coll: REC_SHARD,
                        phase: 1,
                    });
                }
            }
            // pdnn-lint: allow(l3-no-unwrap): this program is only built for a survivor, which is in `live` by the membership agreement above; a miss is a checker bug worth a loud stop
            let pos = live.iter().position(|&w| w == rank).unwrap();
            match mode {
                DMode::Ring => lower_ring(REC_RESUME, pos, &live, &mut ops),
                DMode::Tree => lower_tree(REC_RESUME, pos, &live, &mut ops),
            }
            lower_barrier(REC_BARRIER, pos, &live, &mut ops);
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
                ranks,
                kill_placements: placements,
                outcome: agg,
            });
        }
    }
    out
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
    mode: DMode,
    apply: fn(&mut Vec<Vec<MOp>>),
}

const MUT_RANKS: usize = 3;

fn decentral_mutations() -> Vec<DMutation> {
    vec![
        DMutation {
            name: "ring-wrong-neighbor",
            expected_rule: P5,
            summary: "one rank's reduce-scatter hops send upstream instead of downstream",
            mode: DMode::Ring,
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
            mode: DMode::Ring,
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
            mode: DMode::Ring,
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
            mode: DMode::Ring,
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
            mode: DMode::Ring,
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
            mode: DMode::Ring,
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
            mode: DMode::Tree,
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
                lower_ring(REC_RESUME, 2, &old_parts, &mut old_ring);
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
            let mut progs = programs(m.mode, MUT_RANKS);
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

/// Replay one masterless rank's stream against the `DecentralProblem`
/// phase grammar: `(f32-allreduce f64-allreduce? | f64-allreduce)*
/// barrier`, with every allreduce carrying the mode's op name. The
/// f64 metadata chaser is optional per f32 payload: the gradient pair
/// always carries one, but curvature products agree on the sample's
/// frame count once per draw and skip the chaser afterwards
/// (`DecentralProblem::sample_frames_total`).
fn replay_decentral_rank(mode: DMode, rank: usize, events: &[CommEvent]) -> RankReplay {
    let total = events.len();
    let want = mode.op_name();
    let fail = |pos: usize, msg: String| RankReplay {
        rank,
        consumed: pos,
        total,
        completed: false,
        accepted: false,
        error: Some(format!("event {pos}: {msg}")),
    };
    let mut pos = 0usize;
    let mut allreduces = 0usize;
    while pos < total {
        let (op, kind) = match &events[pos] {
            CommEvent::Coll {
                op,
                kind,
                root: 0,
                ok: true,
                ..
            } => (*op, *kind),
            other => {
                let what = match other {
                    CommEvent::Coll { op, root, .. } => {
                        format!("collective {op} with root {root} or a failed verdict")
                    }
                    CommEvent::Send { to, tag, .. } => format!("p2p send(to {to}, tag {tag})"),
                    CommEvent::Recv { from, tag, .. } => {
                        format!("p2p recv(from {from}, tag {tag})")
                    }
                };
                return fail(pos, format!("masterless stream contains {what}"));
            }
        };
        match (op, kind) {
            ("barrier", _) => {
                if pos + 1 != total {
                    return fail(
                        pos,
                        format!("{} event(s) after the closing barrier", total - pos - 1),
                    );
                }
                if allreduces == 0 {
                    return fail(pos, "barrier before any allreduce".to_string());
                }
                return RankReplay {
                    rank,
                    consumed: total,
                    total,
                    completed: true,
                    accepted: true,
                    error: None,
                };
            }
            (o, "F32") | (o, "F64") if o == want => {
                allreduces += 1;
                pos += 1;
            }
            (o, k) => {
                return fail(
                    pos,
                    format!("expected {want} or barrier, saw {o} ({k} payload)"),
                )
            }
        }
    }
    fail(pos, "stream ended without the closing barrier".to_string())
}

/// Replay a whole masterless run. On top of the per-rank grammar,
/// enforces the SPMD invariant: every rank's collective sequence must
/// be shape-identical (op, payload kind, element count) to rank 0's —
/// the property the replicated-optimizer design rests on.
pub fn replay_decentral_run(mode: DMode, rank_events: &[&[CommEvent]]) -> RunReplay {
    let mut ranks = Vec::new();
    let mut unmapped = 0usize;
    let mut p2p_events = 0usize;
    let mut coll_events = 0usize;
    let shape0: Vec<CollShape> = rank_events
        .first()
        .map(|evs| evs.iter().filter_map(coll_shape).collect())
        .unwrap_or_default();
    for (rank, events) in rank_events.iter().enumerate() {
        for ev in events.iter() {
            match ev {
                CommEvent::Coll { .. } => coll_events += 1,
                _ => p2p_events += 1,
            }
        }
        let mut r = replay_decentral_rank(mode, rank, events);
        if r.accepted {
            let shape: Vec<CollShape> = events.iter().filter_map(coll_shape).collect();
            if shape != shape0 {
                let at = shape
                    .iter()
                    .zip(&shape0)
                    .position(|(a, b)| a != b)
                    .unwrap_or(shape.len().min(shape0.len()));
                r.accepted = false;
                r.completed = false;
                r.consumed = at;
                r.error = Some(format!(
                    "SPMD divergence: collective {at} differs in shape from rank 0"
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

/// The recovery sub-protocol's point-to-point tags, mirroring
/// `crates/core/src/distributed.rs`: shard shipment, membership
/// report, membership agreement.
const TAG_LOAD_DATA: u64 = 17;
const TAG_RECOVER_REPORT: u64 = 18;
const TAG_RECOVER_AGREE: u64 = 19;

/// Replay one rank of a *killed* masterless run. The victim's stream
/// is a silent clean prefix (the kill fires at `fault_gate`, before
/// any event for the fatal collective is recorded). A survivor's
/// stream is the clean prefix, the aborted collective (`ok: false`),
/// recovery point-to-point traffic on the report/agree/shard tags,
/// and the resumed schedule — re-stitched over the survivors, so
/// rooted at `post_root` (the lowest survivor) — closed by the
/// survivor barrier.
fn replay_decentral_faulted_rank(
    mode: DMode,
    rank: usize,
    events: &[CommEvent],
    is_victim: bool,
    post_root: usize,
) -> RankReplay {
    let total = events.len();
    let want = mode.op_name();
    let fail = |pos: usize, msg: String| RankReplay {
        rank,
        consumed: pos,
        total,
        completed: false,
        accepted: false,
        error: Some(format!("event {pos}: {msg}")),
    };
    let accept = |consumed: usize| RankReplay {
        rank,
        consumed,
        total,
        completed: true,
        accepted: true,
        error: None,
    };
    // `root` is the expected root of healthy collectives: 0 until the
    // first abort, the lowest survivor afterwards.
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
            CommEvent::Coll { op, ok: false, .. } if *op == want && !is_victim => {
                if aborted {
                    return fail(pos, "second aborted collective in one stream".to_string());
                }
                aborted = true;
                root = post_root;
                pos += 1;
                while matches!(
                    events.get(pos),
                    Some(CommEvent::Coll { op, ok: false, .. }) if *op == want
                ) {
                    pos += 1;
                }
                // Recovery traffic: membership round and reshard
                // shipments, the only p2p a masterless stream may
                // ever contain.
                while let Some(ev @ (CommEvent::Send { tag, .. } | CommEvent::Recv { tag, .. })) =
                    events.get(pos)
                {
                    if !matches!(*tag, TAG_LOAD_DATA | TAG_RECOVER_REPORT | TAG_RECOVER_AGREE) {
                        return fail(
                            pos,
                            format!("non-recovery p2p event during recovery: {ev:?}"),
                        );
                    }
                    pos += 1;
                }
            }
            CommEvent::Coll {
                op: "barrier",
                root: r,
                ok: true,
                ..
            } => {
                if is_victim {
                    return fail(pos, "the victim's stream reaches the barrier".to_string());
                }
                if !aborted {
                    return fail(
                        pos,
                        "survivor stream has a barrier but no aborted collective".to_string(),
                    );
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
                return accept(total);
            }
            CommEvent::Coll {
                op,
                kind,
                root: r,
                ok: true,
                ..
            } if *op == want && *r == root => {
                match *kind {
                    // Payload allreduce or (optional) f64 metadata
                    // chaser: a following aborted collective or the
                    // victim's silent end of stream are handled by the
                    // outer loop's other arms.
                    "F32" | "F64" => pos += 1,
                    other => return fail(pos, format!("{op} carries unexpected {other} payload")),
                }
            }
            other => {
                return fail(
                    pos,
                    format!("unexpected event in a killed masterless stream: {other:?}"),
                )
            }
        }
    }
    if is_victim {
        // The whole stream was clean collectives: the silent death.
        return accept(total);
    }
    fail(
        pos,
        if aborted {
            "survivor stream ended without the closing barrier".to_string()
        } else {
            "survivor stream shows neither an aborted collective nor a barrier".to_string()
        },
    )
}

/// Replay a whole *killed* masterless run: per-rank faulted grammar
/// plus the SPMD invariants of the recovery design — every survivor's
/// collective shape sequence is identical, and each victim's stream
/// is a shape-prefix of it (the victim ran the same replicated
/// program until its death at a collective entry).
pub fn replay_decentral_faulted_run(
    mode: DMode,
    rank_events: &[&[CommEvent]],
    dead_ranks: &[usize],
) -> RunReplay {
    let post_root = (0..rank_events.len())
        .find(|r| !dead_ranks.contains(r))
        .unwrap_or(0);
    let shape0: Vec<CollShape> = rank_events
        .iter()
        .enumerate()
        .find(|(r, _)| !dead_ranks.contains(r))
        .map(|(_, evs)| evs.iter().filter_map(coll_shape).collect())
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
        let is_victim = dead_ranks.contains(&rank);
        let mut r = replay_decentral_faulted_rank(mode, rank, events, is_victim, post_root);
        if r.accepted {
            let shape: Vec<CollShape> = events.iter().filter_map(coll_shape).collect();
            let ok = if is_victim {
                shape0.starts_with(&shape) && shape.len() < shape0.len()
            } else {
                shape == shape0
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
    fn micro_programs_conserve_messages_pairwise() {
        // Every (src, dst, coll, window) send has exactly one matching
        // recv — the static invariant behind the p6 verdict.
        for mode in [DMode::Ring, DMode::Tree] {
            for size in [2usize, 3, 4, 5, 8] {
                let progs = programs(mode, size);
                let mut balance: BTreeMap<(u8, u8, u8, u8), i64> = BTreeMap::new();
                for (rank, prog) in progs.iter().enumerate() {
                    for op in prog {
                        match *op {
                            MOp::Send { to, coll, phase } => {
                                *balance.entry((rank as u8, to, coll, phase)).or_default() += 1;
                            }
                            MOp::Recv { from, coll, phase } => {
                                *balance.entry((from, rank as u8, coll, phase)).or_default() -= 1;
                            }
                        }
                    }
                }
                assert!(
                    balance.values().all(|&v| v == 0),
                    "{} mode, {size} ranks: unbalanced channels {balance:?}",
                    mode.label()
                );
            }
        }
    }

    #[test]
    fn ring_programs_match_the_implementation_hop_count() {
        // 2·(P−1) hops per allreduce per rank (reduce-scatter +
        // allgather), each hop one send and one recv.
        for size in [2usize, 3, 4, 8] {
            let progs = programs(DMode::Ring, size);
            let barrier_ops = 2 * (usize::BITS - (size - 1).leading_zeros()) as usize;
            for prog in &progs {
                assert_eq!(
                    prog.len(),
                    CANONICAL_ALLREDUCES as usize * 4 * (size - 1) + barrier_ops
                );
            }
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
        let run = replay_decentral_run(DMode::Ring, &[&stream, &stream, &stream]);
        assert!(run.accepted, "{:?}", run.ranks[0].error);
        assert_eq!(run.unmapped, 0);
        assert_eq!(run.p2p_events, 0);
    }

    #[test]
    fn wrong_mode_and_p2p_and_divergence_are_rejected() {
        let good = vec![ar(DMode::Ring, "F64", 3), barrier()];
        // Tree ops in a ring-mode replay.
        let tree = vec![ar(DMode::Tree, "F64", 3), barrier()];
        let run = replay_decentral_run(DMode::Ring, &[&good, &tree]);
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
        let run = replay_decentral_run(DMode::Ring, &[&good, &p2p]);
        assert!(!run.accepted);
        assert_eq!(run.p2p_events, 1);
        // Shape-divergent but individually grammatical streams.
        let other = vec![ar(DMode::Ring, "F64", 4), barrier()];
        let run = replay_decentral_run(DMode::Ring, &[&good, &other]);
        assert!(!run.accepted);
        assert!(run.ranks[1].error.as_deref().unwrap_or("").contains("SPMD"));
    }

    #[test]
    fn truncated_and_trailing_streams_are_rejected() {
        let no_barrier = vec![ar(DMode::Ring, "F64", 3)];
        let run = replay_decentral_run(DMode::Ring, &[&no_barrier]);
        assert!(!run.accepted);
        let trailing = vec![
            ar(DMode::Ring, "F64", 3),
            barrier(),
            ar(DMode::Ring, "F64", 3),
        ];
        let run = replay_decentral_run(DMode::Ring, &[&trailing]);
        assert!(!run.accepted);
        assert!(run.unmapped > 0);
        // An f32 allreduce with no f64 chaser is legal (curvature
        // products reuse the sample's agreed frame count), but a
        // rooted collective in a masterless stream is not.
        let bare = vec![ar(DMode::Ring, "F32", 100), barrier()];
        let run = replay_decentral_run(DMode::Ring, &[&bare]);
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
        let run = replay_decentral_run(DMode::Ring, &[&rooted]);
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
        let run = replay_decentral_faulted_run(DMode::Ring, &[&victim, &coord, &peer], &[0]);
        for r in &run.ranks {
            assert!(r.accepted, "rank {}: {:?}", r.rank, r.error);
        }
        assert!(run.accepted);
        assert_eq!(run.unmapped, 0);
        assert_eq!(run.p2p_events, 8);
    }

    #[test]
    fn faulted_grammar_rejects_malformed_recovery() {
        let (victim, coord, peer) = killed_ring_streams();
        // A non-recovery p2p tag inside the recovery window.
        let mut stray = coord.clone();
        stray[3] = p2p_recv(2, 9);
        let run = replay_decentral_faulted_run(DMode::Ring, &[&victim, &stray, &peer], &[0]);
        assert!(!run.accepted);
        assert!(run.ranks[1]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("non-recovery p2p"));
        // A survivor that never aborted yet reaches the barrier.
        let healthy: Vec<CommEvent> = victim.iter().cloned().chain([barrier_at(1)]).collect();
        let run = replay_decentral_faulted_run(DMode::Ring, &[&victim, &coord, &healthy], &[0]);
        assert!(!run.accepted);
        // The resumed schedule keeps the dead root.
        let mut stale_root = coord.clone();
        let n = stale_root.len();
        stale_root[n - 3] = arf(DMode::Ring, "F32", 100, 0, true);
        stale_root[n - 2] = arf(DMode::Ring, "F64", 2, 0, true);
        let run = replay_decentral_faulted_run(DMode::Ring, &[&victim, &stale_root, &peer], &[0]);
        assert!(!run.accepted);
        // The victim's stream must be a strict shape-prefix of the
        // survivors' — a diverging victim is an SPMD violation.
        let long_victim: Vec<CommEvent> = victim
            .iter()
            .cloned()
            .chain([arf(DMode::Ring, "F64", 7, 0, true)])
            .collect();
        let run = replay_decentral_faulted_run(DMode::Ring, &[&long_victim, &coord, &peer], &[0]);
        assert!(!run.accepted);
        assert!(run.ranks[0].error.as_deref().unwrap_or("").contains("SPMD"));
    }
}
