//! World construction: spawn `n` ranks as threads, wire up their
//! channels, run a closure per rank, and collect results plus
//! communication traces in rank order.

use crate::comm::Comm;
use crate::events::CommEvent;
use crate::fault::FaultPlan;
use crate::hb::HbViolation;
use crate::message::Packet;
use crossbeam::channel::unbounded;
use pdnn_obs::{CommStats, Telemetry};
use pdnn_util::timing::Clock;
use pdnn_util::ManualClock;
use std::sync::Arc;

/// Result of one rank's execution.
#[derive(Clone, Debug)]
pub struct RankOutcome<R> {
    /// Rank id.
    pub rank: usize,
    /// The closure's return value.
    pub result: R,
    /// Communication trace accumulated by the rank (also available as
    /// `telemetry.comm`; kept as a field for convenience).
    pub trace: CommStats,
    /// Full telemetry snapshot for the rank: spans opened by
    /// collectives and user code, counters, gauges, events, and the
    /// communication trace.
    pub telemetry: Telemetry,
    /// Happens-before violations detected by the vector-clock tracker
    /// (always empty unless the world ran under
    /// [`run_world_perturbed`] or tracking was enabled by hand).
    pub hb: Vec<HbViolation>,
    /// Ordered comm-event trace: every point-to-point op outside a
    /// collective plus one entry per completed collective (see
    /// `crate::events`). Replayed by `pdnn-protomc` for trace
    /// conformance against the abstract protocol model.
    pub events: Vec<CommEvent>,
}

/// Build the communicators for an `n`-rank world without spawning
/// threads (for single-threaded tests or custom schedulers).
pub fn build_world(n: usize) -> Vec<Comm> {
    assert!(n > 0, "world needs at least one rank");
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded::<Packet>();
        senders.push(tx);
        receivers.push(rx);
    }
    receivers
        .into_iter()
        .enumerate()
        .map(|(rank, rx)| Comm::new(rank, n, rx, senders.clone()))
        .collect()
}

/// Like [`build_world`], but every rank's trace timing and telemetry
/// recorder read one shared frozen `ManualClock`, so two identical
/// runs produce byte-identical telemetry (all wall-clock reads return
/// the same simulated instant; virtual time from link models is
/// unaffected).
pub fn build_world_deterministic(n: usize) -> Vec<Comm> {
    assert!(n > 0, "world needs at least one rank");
    let clock: Arc<dyn Clock> = ManualClock::shared();
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded::<Packet>();
        senders.push(tx);
        receivers.push(rx);
    }
    receivers
        .into_iter()
        .enumerate()
        .map(|(rank, rx)| Comm::with_clock(rank, n, rx, senders.clone(), clock.clone()))
        .collect()
}

/// Run `f` on every rank of an `n`-rank world (one OS thread per
/// rank) and return outcomes in rank order.
///
/// A panic in any rank propagates out of `run_world` after the other
/// ranks finish or deadlock-free ranks exit; tests rely on this.
pub fn run_world<R, F>(n: usize, f: F) -> Vec<RankOutcome<R>>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    run_on(build_world(n), f)
}

/// [`run_world`] over a world built by [`build_world_deterministic`]:
/// same execution, but all telemetry timestamps come from one frozen
/// simulated clock, so repeated identical runs emit byte-identical
/// telemetry.
pub fn run_world_deterministic<R, F>(n: usize, f: F) -> Vec<RankOutcome<R>>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    run_on(build_world_deterministic(n), f)
}

/// [`run_world_deterministic`] under a seeded schedule perturbation:
/// message delivery and rank progress are jittered within the legal
/// reorderings (per-(src, tag) FIFO preserved; `Src::Any` choice
/// randomized among concurrent sources), and every rank runs a
/// vector-clock happens-before tracker whose findings ride
/// [`RankOutcome::hb`].
///
/// A schedule-independent protocol produces identical results,
/// telemetry, and zero violations for every `seed`; that is exactly
/// what `pdnn-core`'s perturbed-schedule tests assert.
pub fn run_world_perturbed<R, F>(n: usize, seed: u64, f: F) -> Vec<RankOutcome<R>>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    let base = pdnn_util::Prng::new(seed);
    let mut comms = build_world_deterministic(n);
    for comm in &mut comms {
        comm.enable_hb();
        comm.enable_perturbation(base.split(comm.rank() as u64 + 1).next_u64());
    }
    run_on(comms, |comm: &mut Comm| {
        comm.startup_jitter();
        f(comm)
    })
}

/// [`run_world_deterministic`] under a seeded [`FaultPlan`]: every
/// rank applies the plan against its own logical progress, so kills,
/// stalls, and message drops land at the same point run after run and
/// the whole execution — failure, detection, recovery — is
/// bit-deterministic.
///
/// Rank closures must be written against the timed collective
/// semantics: `bcast`/`reduce`/`barrier` return
/// [`CommError::RankDead`](crate::CommError::RankDead) (or
/// `Timeout`) instead of blocking when a peer is gone, and a killed
/// rank sees [`CommError::Killed`](crate::CommError::Killed) from the
/// injection point on (it should unwind its closure normally, not
/// panic).
pub fn run_world_faulted<R, F>(n: usize, plan: &FaultPlan, f: F) -> Vec<RankOutcome<R>>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    assert!(n > 0, "world needs at least one rank");
    let clock: Arc<dyn Clock> = ManualClock::shared();
    let plan = Arc::new(plan.clone());
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded::<Packet>();
        senders.push(tx);
        receivers.push(rx);
    }
    let comms: Vec<Comm> = receivers
        .into_iter()
        .enumerate()
        .map(|(rank, rx)| {
            let mut comm = Comm::with_clock(rank, n, rx, senders.clone(), clock.clone());
            comm.enable_faults(plan.clone());
            comm
        })
        .collect();
    run_on(comms, f)
}

fn run_on<R, F>(comms: Vec<Comm>, f: F) -> Vec<RankOutcome<R>>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    let n = comms.len();
    let mut outcomes: Vec<Option<RankOutcome<R>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (rank, mut comm) in comms.into_iter().enumerate() {
            let f = &f;
            handles.push((
                rank,
                scope.spawn(move || {
                    let result = f(&mut comm);
                    let hb = comm.hb_finish();
                    let events = comm.take_events();
                    let telemetry = comm.take_telemetry();
                    let trace = telemetry.comm.clone();
                    RankOutcome {
                        rank,
                        result,
                        trace,
                        telemetry,
                        hb,
                        events,
                    }
                }),
            ));
        }
        for (rank, handle) in handles {
            match handle.join() {
                Ok(outcome) => outcomes[rank] = Some(outcome),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    outcomes
        .into_iter()
        // pdnn-lint: allow(l3-no-unwrap): the join loop above either filled every slot or resumed a rank panic
        .map(|o| o.expect("every rank joined"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::ReduceOp;

    #[test]
    fn results_are_in_rank_order() {
        let results = run_world(5, |comm| comm.rank() * 2);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.rank, i);
            assert_eq!(r.result, i * 2);
        }
    }

    #[test]
    fn single_rank_world_works() {
        let results = run_world(1, |comm| {
            let mut v = vec![5.0f64];
            comm.allreduce(&mut v, ReduceOp::Sum).unwrap();
            comm.barrier().unwrap();
            v[0]
        });
        assert_eq!(results[0].result, 5.0);
    }

    #[test]
    #[should_panic(expected = "deliberate rank failure")]
    fn rank_panic_propagates() {
        run_world(3, |comm| {
            if comm.rank() == 1 {
                panic!("deliberate rank failure");
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_rank_world_rejected() {
        build_world(0);
    }

    #[test]
    fn build_world_wires_every_pair() {
        use crate::message::{Payload, Src};
        let mut comms = build_world(3);
        // Drive manually without threads: 0 -> 2, then 2 reads.
        comms[0].send(2, 1, Payload::U64(vec![9])).unwrap();
        let pkt = comms[2].recv(Src::Of(0), 1).unwrap();
        assert_eq!(pkt.payload.into_u64(), vec![9]);
    }

    #[test]
    fn traces_survive_into_outcomes() {
        let results = run_world(2, |comm| {
            let mut v = vec![1.0f32; 10];
            comm.allreduce(&mut v, ReduceOp::Sum).unwrap();
        });
        for r in &results {
            assert!(r.trace.collective.seconds >= 0.0);
            assert!(r.trace.collective.bytes_sent > 0);
            // The same numbers ride the telemetry snapshot.
            assert_eq!(r.telemetry.comm, r.trace);
        }
    }

    #[test]
    fn collectives_emit_named_spans() {
        let results = run_world(2, |comm| {
            let mut v = vec![1.0f32; 10];
            comm.allreduce(&mut v, ReduceOp::Sum).unwrap();
            comm.barrier().unwrap();
        });
        for r in &results {
            let names: Vec<&str> = r.telemetry.spans.iter().map(|s| s.name()).collect();
            assert!(names.contains(&"allreduce"), "{names:?}");
            assert!(names.contains(&"barrier"), "{names:?}");
            assert!(r
                .telemetry
                .spans
                .iter()
                .all(|s| s.kind == pdnn_obs::SpanKind::CommCollective));
        }
    }
}
