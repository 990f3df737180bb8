//! Trace conformance: replay recorded [`CommEvent`] streams from real
//! training runs through the abstract protocol automata.
//!
//! The model checker's guarantees are only as good as the model's
//! fidelity to `distributed.rs`. This module closes that gap from the
//! other side: every comm event a real run records (per rank, in
//! program order) must be accepted by the same [`ProtoSpec`] the
//! explorer proves properties about. The replayer is positional —
//! startup rendezvous first, then repeatedly: one header broadcast
//! carrying an opcode, dispatched to that command's op sequence —
//! so a run that repeats commands (CG re-issues `GN`, the line search
//! re-issues `HELDOUT`) or interleaves recovery commands after a
//! fault conforms exactly as the protocol allows, with no fixed
//! iteration schedule assumed.
//!
//! Fan-out fidelity: the master's per-worker p2p bursts (startup,
//! shard redistribution) shrink with the believed-live worker count,
//! so runs of consecutive `Send`/`Recv` ops against `EachWorker` are
//! matched greedily and must divide evenly into the per-worker op
//! count. A rank killed mid-run conforms iff its stream is a clean
//! prefix; every surviving rank must reach protocol completion
//! (shutdown barrier, stream exhausted).

use crate::spec::{AOp, APeer, CmdSpec, ProtoSpec};
use pdnn_core::protocol::{Opcode, TAG_LOAD_DATA};
use pdnn_mpisim::CommEvent;

/// Replay verdict for one rank's stream.
#[derive(Clone, Debug)]
pub struct RankReplay {
    pub rank: usize,
    /// Events consumed before the replay stopped.
    pub consumed: usize,
    pub total: usize,
    /// Reached the end of the protocol (shutdown command accepted).
    pub completed: bool,
    /// This rank's stream conforms (see module docs for dead ranks).
    pub accepted: bool,
    /// First mismatch, if any.
    pub error: Option<String>,
}

/// Replay verdict for one whole run.
#[derive(Clone, Debug)]
pub struct RunReplay {
    pub ranks: Vec<RankReplay>,
    /// Events left unconsumed across all ranks (gate: 0).
    pub unmapped: usize,
    pub accepted: bool,
    pub p2p_events: usize,
    pub coll_events: usize,
}

enum Step {
    /// Consumed events up to `pos`; protocol position continues.
    Ok(usize),
    /// Stream ended cleanly mid-protocol at `pos`.
    End(usize),
    /// Mismatch at `pos`.
    Err(usize, String),
}

fn describe(ev: &CommEvent) -> String {
    match ev {
        CommEvent::Send { to, tag, .. } => format!("send(to {to}, tag {tag})"),
        CommEvent::Recv { from, tag, .. } => format!("recv(from {from}, tag {tag})"),
        CommEvent::Coll {
            op, root, first, ..
        } => format!("coll({op}, root {root}, first {first:?})"),
    }
}

/// Match one collective event against the expected op name and root.
fn expect_coll(events: &[CommEvent], pos: usize, want_op: &str, want_root: usize) -> Step {
    match events.get(pos) {
        None => Step::End(pos),
        Some(CommEvent::Coll { op, root, .. }) if *op == want_op && *root == want_root => {
            Step::Ok(pos + 1)
        }
        Some(other) => Step::Err(
            pos,
            format!(
                "expected {want_op}(root {want_root}), saw {}",
                describe(other)
            ),
        ),
    }
}

fn is_send(ev: &CommEvent, want_tag: u64) -> bool {
    matches!(ev, CommEvent::Send { tag, .. } if *tag == want_tag)
}

fn is_recv(ev: &CommEvent, want_tag: u64, want_from: Option<usize>) -> bool {
    matches!(ev, CommEvent::Recv { from, tag, .. }
        if *tag == want_tag && want_from.map(|f| f == *from).unwrap_or(true))
}

/// Consume a greedy burst of matching p2p events for a run of `n_ops`
/// consecutive identical p2p ops. `per_worker` (an `EachWorker` peer
/// in the run) relaxes the count from exactly `n_ops` to any positive
/// multiple of it: the live-worker fan-out width is not part of the
/// abstract spec.
fn expect_p2p_burst(
    events: &[CommEvent],
    mut pos: usize,
    n_ops: usize,
    per_worker: bool,
    matches_ev: impl Fn(&CommEvent) -> bool,
    what: &str,
) -> Step {
    let mut count = 0usize;
    while let Some(ev) = events.get(pos) {
        if !matches_ev(ev) {
            break;
        }
        pos += 1;
        count += 1;
    }
    let fits = if per_worker {
        count > 0 && count.is_multiple_of(n_ops)
    } else {
        count == n_ops
    };
    if fits {
        Step::Ok(pos)
    } else if events.get(pos).is_none() && (count < n_ops || per_worker) {
        // Ran out of events mid-burst: clean prefix.
        Step::End(pos)
    } else {
        Step::Err(
            pos,
            format!(
                "p2p burst mismatch for {what}: consumed {count} event(s) against {n_ops} op(s){}",
                if per_worker { " (per worker)" } else { "" }
            ),
        )
    }
}

/// Key for grouping consecutive identical p2p ops into one burst.
fn p2p_run_key(op: &AOp) -> Option<(bool, u64, bool)> {
    match op {
        AOp::Send { to, tag, .. } => Some((true, *tag, matches!(to, APeer::EachWorker))),
        AOp::Recv { from, tag, .. } => Some((false, *tag, matches!(from, APeer::EachWorker))),
        _ => None,
    }
}

/// Replay one command body for one role.
fn replay_ops(ops: &[AOp], events: &[CommEvent], mut pos: usize) -> Step {
    let mut i = 0usize;
    while i < ops.len() {
        match &ops[i] {
            AOp::Bcast { root, .. } => {
                match expect_coll(events, pos, "bcast", *root) {
                    Step::Ok(p) => pos = p,
                    other => return other,
                }
                i += 1;
            }
            AOp::Reduce { root, .. } => {
                match expect_coll(events, pos, "reduce", *root) {
                    Step::Ok(p) => pos = p,
                    other => return other,
                }
                i += 1;
            }
            AOp::Barrier => {
                match expect_coll(events, pos, "barrier", 0) {
                    Step::Ok(p) => pos = p,
                    other => return other,
                }
                i += 1;
            }
            op @ (AOp::Send { .. } | AOp::Recv { .. }) => {
                let key = p2p_run_key(op);
                let mut n = 1usize;
                while i + n < ops.len() && p2p_run_key(&ops[i + n]) == key {
                    n += 1;
                }
                let (is_send_run, tag, per_worker) = match key {
                    Some(k) => k,
                    None => return Step::Err(pos, "unclassifiable p2p op".to_string()),
                };
                let from = match op {
                    AOp::Recv {
                        from: APeer::Rank(r),
                        ..
                    } => Some(*r),
                    _ => None,
                };
                let step = if is_send_run {
                    expect_p2p_burst(
                        events,
                        pos,
                        n,
                        per_worker,
                        |ev| is_send(ev, tag),
                        &format!("send tag {tag}"),
                    )
                } else {
                    expect_p2p_burst(
                        events,
                        pos,
                        n,
                        per_worker,
                        |ev| is_recv(ev, tag, from),
                        &format!("recv tag {tag}"),
                    )
                };
                match step {
                    Step::Ok(p) => pos = p,
                    other => return other,
                }
                i += n;
            }
        }
    }
    Step::Ok(pos)
}

fn command_for_header<'a>(
    spec: &'a ProtoSpec,
    ev: &CommEvent,
) -> Result<Option<&'a CmdSpec>, String> {
    match ev {
        CommEvent::Coll {
            op: "bcast",
            root,
            first: Some(v),
            ..
        } if *root == spec.dispatch_root => match spec.command_by_opcode(*v) {
            Some(ci) => Ok(Some(&spec.commands[ci])),
            None => Err(format!("header broadcast with unknown opcode {v}")),
        },
        _ => Ok(None),
    }
}

/// Replay one rank's stream. `workers` is the run's worker count
/// (fixes the master's startup burst width).
fn replay_rank(spec: &ProtoSpec, rank: usize, workers: usize, events: &[CommEvent]) -> RankReplay {
    let is_master = rank == 0;
    let total = events.len();
    let fail = |pos: usize, msg: String| RankReplay {
        rank,
        consumed: pos,
        total,
        completed: false,
        accepted: false,
        error: Some(format!("event {pos}: {msg}")),
    };
    let prefix = |pos: usize| RankReplay {
        rank,
        consumed: pos,
        total,
        completed: false,
        accepted: true,
        error: None,
    };

    // Startup rendezvous.
    let mut pos = 0usize;
    let startup = if is_master {
        spec.startup_sends * workers
    } else {
        spec.startup_recvs
    };
    for _ in 0..startup {
        match events.get(pos) {
            None => return prefix(pos),
            Some(ev) => {
                let ok = if is_master {
                    is_send(ev, TAG_LOAD_DATA)
                } else {
                    is_recv(ev, TAG_LOAD_DATA, Some(spec.dispatch_root))
                };
                if !ok {
                    return fail(
                        pos,
                        format!("expected rendezvous p2p, saw {}", describe(ev)),
                    );
                }
                pos += 1;
            }
        }
    }

    // Command loop: header broadcast, dispatch, body.
    loop {
        let header = match events.get(pos) {
            None => return prefix(pos),
            Some(ev) => ev,
        };
        let cmd = match command_for_header(spec, header) {
            Ok(Some(cmd)) => cmd,
            Ok(None) => {
                return fail(
                    pos,
                    format!("expected a command header, saw {}", describe(header)),
                )
            }
            Err(msg) => return fail(pos, msg),
        };
        pos += 1;
        let body = if is_master { &cmd.master } else { &cmd.worker };
        match replay_ops(body, events, pos) {
            Step::Ok(p) => pos = p,
            Step::End(p) => return prefix(p),
            Step::Err(p, msg) => return fail(p, format!("in {}: {msg}", cmd.name)),
        }
        if cmd.opcode == Opcode::Shutdown as u64 {
            return if pos == total {
                RankReplay {
                    rank,
                    consumed: pos,
                    total,
                    completed: true,
                    accepted: true,
                    error: None,
                }
            } else {
                fail(
                    pos,
                    format!("{} trailing event(s) after shutdown", total - pos),
                )
            };
        }
    }
}

/// Replay a whole run: `rank_events[0]` is the master's stream,
/// `rank_events[1..]` the workers'. `dead_ranks` lists ranks whose
/// streams are allowed (and expected) to end mid-protocol.
pub fn replay_run(
    spec: &ProtoSpec,
    rank_events: &[&[CommEvent]],
    dead_ranks: &[usize],
) -> RunReplay {
    let workers = rank_events.len().saturating_sub(1);
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
        let mut r = replay_rank(spec, rank, workers, events);
        if r.accepted && !r.completed && !dead_ranks.contains(&rank) {
            // A clean prefix is only acceptable for a killed rank.
            r.accepted = false;
            r.error = Some(format!(
                "stream ended mid-protocol at event {} but rank {rank} is alive",
                r.consumed
            ));
        }
        unmapped += r.total - r.consumed;
        ranks.push(r);
    }
    let accepted = ranks.iter().all(|r| r.accepted);
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
    use crate::spec;

    fn header(opcode: u64) -> CommEvent {
        CommEvent::Coll {
            op: "bcast",
            root: 0,
            kind: "U64",
            len: 2,
            first: Some(opcode),
            ok: true,
        }
    }

    #[test]
    fn an_empty_stream_is_a_prefix_only_for_dead_ranks() {
        let spec = spec::compile();
        let empty: &[CommEvent] = &[];
        let run = replay_run(&spec, &[empty, empty], &[]);
        assert!(!run.accepted, "alive ranks with empty streams conformed");
        let run = replay_run(&spec, &[empty, empty], &[0, 1]);
        assert!(run.accepted);
        assert_eq!(run.unmapped, 0);
    }

    #[test]
    fn a_wrong_first_event_is_rejected_with_position() {
        let spec = spec::compile();
        // A header broadcast where the rendezvous send should be.
        let master = vec![header(1)];
        let worker: &[CommEvent] = &[];
        let run = replay_run(&spec, &[&master, worker], &[1]);
        assert!(!run.accepted);
        assert_eq!(run.unmapped, 1);
        let err = run.ranks[0].error.clone().unwrap_or_default();
        assert!(err.contains("event 0"), "{err}");
    }

    #[test]
    fn an_unknown_opcode_is_rejected() {
        let spec = spec::compile();
        let mut master = Vec::new();
        for _ in 0..spec.startup_sends {
            master.push(CommEvent::Send {
                to: 1,
                tag: TAG_LOAD_DATA,
                kind: "U64",
                len: 1,
            });
        }
        master.push(header(999));
        let worker: &[CommEvent] = &[];
        let run = replay_run(&spec, &[&master, worker], &[1]);
        assert!(!run.accepted);
        let err = run.ranks[0].error.clone().unwrap_or_default();
        assert!(err.contains("unknown opcode 999"), "{err}");
    }
}
