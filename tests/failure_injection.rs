//! Failure-mode behavior of the message-passing substrate: what
//! happens when ranks die, messages never come, or protocols are
//! violated. The distributed trainer's liveness rests on these
//! semantics.

use pdnn::mpisim::{run_world, run_world_faulted, CommError, FaultPlan, Payload, ReduceOp, Src};
use std::time::Duration;

#[test]
fn waiting_on_a_dead_peer_times_out() {
    // Rank 1 exits immediately; rank 0's timed receive must expire
    // rather than hang (other ranks still hold senders, so the
    // channel never disconnects — the timeout is the safety net).
    let results = run_world(3, |comm| {
        if comm.rank() == 0 {
            let r = comm.recv_timeout(Src::Of(1), 5, Duration::from_millis(50));
            matches!(r, Err(CommError::Timeout))
        } else {
            true
        }
    });
    assert!(results[0].result);
}

#[test]
fn send_to_exited_rank_is_buffered_not_lost() {
    // Unbounded channels: a send to a rank that has not yet received
    // (or never will) succeeds — MPI eager semantics. The sender must
    // not block or error.
    let results = run_world(2, |comm| {
        if comm.rank() == 0 {
            // Rank 1 exits without receiving; these sends still land
            // in its (dropped) mailbox or return Disconnected — either
            // way rank 0 terminates.
            for i in 0..100 {
                let r = comm.send(1, 9, Payload::U64(vec![i]));
                if r.is_err() {
                    return false; // peer endpoint observed closed
                }
            }
            true
        } else {
            true // exit immediately
        }
    });
    // Both outcomes are specified; the world itself must terminate.
    assert_eq!(results.len(), 2);
}

#[test]
fn protocol_type_mismatch_is_a_loud_panic() {
    let outcome = std::panic::catch_unwind(|| {
        run_world(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, Payload::F32(vec![1.0])).unwrap();
            } else {
                // Expecting u64 but receiving f32: must panic with a
                // protocol error, not silently reinterpret.
                let pkt = comm.recv(Src::Of(0), 1).unwrap();
                pkt.payload.into_u64();
            }
        })
    });
    assert!(outcome.is_err(), "type confusion went unnoticed");
}

#[test]
fn worker_panic_propagates_to_the_caller() {
    let outcome = std::panic::catch_unwind(|| {
        run_world(4, |comm| {
            if comm.rank() == 2 {
                panic!("injected worker failure");
            }
            // Other ranks do bounded work and exit (no blocking recv,
            // so the world unwinds cleanly).
            comm.rank()
        })
    });
    assert!(outcome.is_err());
}

#[test]
fn mismatched_collective_lengths_panic() {
    let outcome = std::panic::catch_unwind(|| {
        run_world(2, |comm| {
            let mut buf = vec![0.0f64; comm.rank() + 1]; // 1 vs 2 elements
            comm.reduce(&mut buf, pdnn::mpisim::ReduceOp::Sum, 0)
                .unwrap();
        })
    });
    assert!(
        outcome.is_err(),
        "length mismatch must not silently truncate"
    );
}

#[test]
fn killed_rank_unwinds_and_root_sees_rank_dead() {
    // Rank 2 is killed right before its second collective (the
    // reduce). It must observe `Killed`, every peer must observe
    // `RankDead { rank: 2 }` at a deterministic point, and the
    // world must terminate.
    let plan = FaultPlan::new(1)
        .kill(2, 1)
        .with_timeouts(Duration::from_millis(200), Duration::from_secs(5));
    let results = run_world_faulted(3, &plan, |comm| {
        let mut theta = vec![comm.rank() as f64; 4];
        let b = comm.bcast(&mut theta, 0);
        let mut acc = vec![1.0f64; 4];
        let r = comm.reduce(&mut acc, ReduceOp::Sum, 0);
        (b.is_ok(), r, comm.dead_ranks().to_vec())
    });
    assert!(results[2].result.0, "bcast before the kill point succeeds");
    assert_eq!(results[2].result.1, Err(CommError::Killed));
    assert_eq!(results[0].result.1, Err(CommError::RankDead { rank: 2 }));
    assert_eq!(results[0].result.2, vec![2]);
    assert!(results[1].result.1.is_ok(), "send-side reduce unaffected");
}

#[test]
fn acknowledged_death_lets_survivors_continue() {
    // After the root acknowledges a death, later collectives run
    // cleanly on the survivors; an unacknowledged death keeps being
    // reported so it can never be silently absorbed.
    let plan = FaultPlan::new(2)
        .kill(2, 0)
        .with_timeouts(Duration::from_millis(200), Duration::from_secs(5));
    let results = run_world_faulted(3, &plan, |comm| {
        let mut acc = vec![1.0f64];
        let first = comm.reduce(&mut acc, ReduceOp::Sum, 0);
        if comm.rank() == 0 {
            if let Err(CommError::RankDead { rank }) = &first {
                comm.ack_dead(*rank);
            }
        }
        let mut acc2 = vec![1.0f64];
        let second = comm.reduce(&mut acc2, ReduceOp::Sum, 0);
        (first, second, acc2)
    });
    assert_eq!(results[0].result.0, Err(CommError::RankDead { rank: 2 }));
    assert!(results[0].result.1.is_ok(), "post-ack reduce is clean");
    assert_eq!(results[0].result.2, vec![2.0], "root + rank 1 only");
}

#[test]
fn dropped_message_times_out_but_later_traffic_flows() {
    let plan = FaultPlan::new(3).drop_message(0, 1, 0);
    let results = run_world_faulted(2, &plan, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 5, Payload::U64(vec![9])).unwrap();
            comm.send(1, 6, Payload::U64(vec![10])).unwrap();
            (true, 0)
        } else {
            let first = comm.recv_timeout(Src::Of(0), 5, Duration::from_millis(50));
            let second = comm.recv(Src::Of(0), 6).unwrap().payload.into_u64();
            (matches!(first, Err(CommError::Timeout)), second[0])
        }
    });
    assert_eq!(results[1].result, (true, 10));
}

#[test]
fn stalled_rank_is_evicted_by_the_root() {
    // Rank 1 stalls past the root's detection window: the root must
    // evict it (reporting RankDead) rather than hang, and the
    // stalled rank must observe `Evicted` when it wakes.
    let plan = FaultPlan::new(4)
        .stall(1, 0, 200)
        .with_timeouts(Duration::from_millis(40), Duration::from_secs(5));
    let results = run_world_faulted(2, &plan, |comm| {
        let mut v = vec![1.0f64];
        let r1 = comm.reduce(&mut v, ReduceOp::Sum, 0);
        let mut w = vec![2.0f64];
        let r2 = comm.bcast(&mut w, 0);
        (r1, r2)
    });
    assert_eq!(results[0].result.0, Err(CommError::RankDead { rank: 1 }));
    assert!(results[0].result.1.is_ok());
    assert_eq!(results[1].result.1, Err(CommError::Evicted));
}

#[test]
fn same_fault_plan_reproduces_identical_outcomes() {
    // The whole point of plan-driven injection: two runs under the
    // same plan observe the failure, detect it, and recover at the
    // same logical points, producing identical results and traces.
    let run = || {
        run_world_faulted(
            4,
            &FaultPlan::new(7)
                .kill(3, 2)
                .with_timeouts(Duration::from_millis(200), Duration::from_secs(5)),
            |comm| {
                let mut log: Vec<String> = Vec::new();
                for _ in 0..3 {
                    let mut theta = vec![0.25f64; 8];
                    let b = comm.bcast(&mut theta, 0);
                    log.push(format!("{b:?}"));
                    let mut g = vec![comm.rank() as f64; 8];
                    let r = comm.reduce(&mut g, ReduceOp::Sum, 0);
                    log.push(format!("{r:?}:{g:?}"));
                    if comm.rank() == 0 {
                        if let Err(CommError::RankDead { rank }) = r {
                            comm.ack_dead(rank);
                        }
                    }
                }
                // Only the root's dead-set is compared: when a
                // *bystander* rank pulls the death packet out of its
                // inbox is scheduling-dependent (detection there is
                // lazy), but the root discovers the death at a fixed
                // point in its receive sequence.
                let dead = if comm.rank() == 0 {
                    comm.dead_ranks().to_vec()
                } else {
                    Vec::new()
                };
                (log, dead)
            },
        )
    };
    let a = run();
    let b = run();
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.result, rb.result, "rank {}", ra.rank);
        assert_eq!(ra.trace, rb.trace, "rank {}", ra.rank);
    }
}

#[test]
fn contribution_sent_before_death_is_reduced_not_skipped() {
    // Forced schedule for the race behind the flake the test above
    // used to show: rank 3 contributes to the first reduce and dies at
    // its next collective, while ranks 1–2 are still on their way.
    // The root therefore pulls rank 3's contribution *and* its death
    // notice out of the inbox while waiting on rank 1. The
    // contribution was sent, so it must be reduced; the death is the
    // second reduce's news.
    let outcomes = run_world_faulted(
        4,
        &FaultPlan::new(7)
            .kill(3, 2)
            .with_timeouts(Duration::from_millis(1000), Duration::from_secs(5)),
        |comm| {
            let mut reduces = Vec::new();
            for round in 0..2 {
                let mut theta = vec![0.25f64; 8];
                let _ = comm.bcast(&mut theta, 0);
                if round == 0 {
                    let nap_ms = match comm.rank() {
                        0 => 50,
                        3 => 0,
                        _ => 200,
                    };
                    std::thread::sleep(Duration::from_millis(nap_ms));
                }
                let mut g = vec![comm.rank() as f64; 8];
                let r = comm.reduce(&mut g, ReduceOp::Sum, 0);
                reduces.push((r, g[0]));
            }
            (reduces, comm.pending_len())
        },
    );
    let (reduces, pending) = &outcomes[0].result;
    assert_eq!(
        reduces[0],
        (Ok(()), 6.0),
        "first reduce lost a sent contribution"
    );
    assert_eq!(reduces[1].0, Err(CommError::RankDead { rank: 3 }));
    assert_eq!(*pending, 0, "stale contribution left in the root's inbox");
}

#[test]
fn timeout_leaves_comm_usable() {
    // After a timeout the communicator must still deliver later
    // messages correctly (no corrupted matching state).
    let results = run_world(2, |comm| {
        if comm.rank() == 0 {
            let timed_out = comm
                .recv_timeout(Src::Of(1), 7, Duration::from_millis(20))
                .is_err();
            let got = comm.recv(Src::Of(1), 8).unwrap().payload.into_u64();
            (timed_out, got[0])
        } else {
            std::thread::sleep(Duration::from_millis(50));
            comm.send(0, 8, Payload::U64(vec![99])).unwrap();
            (false, 0)
        }
    });
    assert_eq!(results[0].result, (true, 99));
}
