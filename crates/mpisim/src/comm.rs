//! The communicator: point-to-point messaging with MPI-style tag and
//! source matching.
//!
//! Ranks are OS threads inside one process; each rank owns a `Comm`
//! holding an unbounded receive channel and sender handles to every
//! peer. Messages that arrive before they are wanted are parked in a
//! pending list, so receive order is governed by `(src, tag)` matching
//! exactly like MPI, not by arrival order.

use crate::collectives::CollElem;
use crate::events::CommEvent;
use crate::fault::{FaultAction, FaultPlan, FAULT_TICK};
use crate::hb::{HbTracker, HbViolation};
use crate::message::{Packet, Payload, Src};
use crate::pool::{PayloadPool, WorldPool};
use crate::vtime::LinkModel;
use crate::wire::WireCodec;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use pdnn_obs::{CommClass, CommStats, InMemoryRecorder, Recorder, Telemetry};
use pdnn_util::timing::{Clock, WallClock};
use pdnn_util::Prng;
use std::sync::Arc;
use std::time::Duration;

/// Communication failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The peer's receive endpoint is gone (rank exited or died).
    Disconnected {
        /// Rank whose endpoint is closed.
        peer: usize,
    },
    /// A timed receive expired with no matching message.
    Timeout,
    /// All senders to this rank dropped while waiting.
    WorldShutDown,
    /// A matched message carried the wrong payload kind — a protocol
    /// bug (mismatched send/recv pair), distinct from the transport
    /// faults above so callers and the protocol checker can tell them
    /// apart.
    TypeMismatch {
        /// Sending rank.
        src: usize,
        /// Tag the receive matched on.
        tag: u64,
        /// Payload kind the receiver expected.
        expected: &'static str,
        /// Payload kind actually received.
        got: &'static str,
    },
    /// A rank known to have died was named as the peer of a receive
    /// or collective. Carries the dead rank so a recovery layer can
    /// re-partition its work.
    RankDead {
        /// The dead rank.
        rank: usize,
    },
    /// This rank was killed by the fault plan; every communication
    /// call returns this from the injection point on.
    Killed,
    /// This rank was evicted by a collective root after missing its
    /// timeout window; it must stop participating in the protocol.
    Evicted,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Disconnected { peer } => write!(f, "rank {peer} disconnected"),
            CommError::Timeout => write!(f, "receive timed out"),
            CommError::WorldShutDown => write!(f, "all peers disconnected"),
            CommError::TypeMismatch {
                src,
                tag,
                expected,
                got,
            } => write!(
                f,
                "type-mismatched receive from rank {src} (tag {tag}): \
                 expected {expected}, got {got}"
            ),
            CommError::RankDead { rank } => write!(f, "rank {rank} is dead"),
            CommError::Killed => write!(f, "this rank was killed by the fault plan"),
            CommError::Evicted => write!(f, "this rank was evicted after a missed timeout"),
        }
    }
}

impl std::error::Error for CommError {}

/// Unwrap a communication result in code that cannot return one.
///
/// Rank bodies running under [`run_world`](crate::run_world) often
/// implement traits whose signatures have no error channel (e.g. the
/// `HfProblem` phase methods). In this in-process runtime a failed
/// collective means a peer rank already panicked — its panic is what
/// `run_world` propagates — so the only useful thing left to do on
/// this rank is fail fast with context naming the operation. This
/// helper is the single audited place that does so; call sites stay
/// free of `unwrap`/`expect` (lint rule `l3-no-unwrap`).
pub fn comm_ok<T>(res: Result<T, CommError>, what: &str) -> T {
    match res {
        Ok(v) => v,
        // pdnn-lint: allow(l3-no-unwrap): centralized comm failure path — a failed op means a peer already panicked and that panic is propagating via run_world
        Err(e) => panic!("{what}: {e}"),
    }
}

impl From<CommError> for pdnn_util::Error {
    fn from(e: CommError) -> Self {
        pdnn_util::Error::Comm(e.to_string())
    }
}

/// Per-rank communicator.
pub struct Comm {
    rank: usize,
    size: usize,
    inbox: Receiver<Packet>,
    peers: Vec<Sender<Packet>>,
    pending: Vec<Packet>,
    pub(crate) trace: CommStats,
    /// Ordered protocol-visible event trace (see `crate::events`):
    /// point-to-point ops outside collectives plus one entry per
    /// completed collective invocation. Replayed by `pdnn-protomc`
    /// for trace conformance against the abstract protocol model.
    events: Vec<CommEvent>,
    /// Shared telemetry sink: spans opened by collectives and by user
    /// code running on this rank all land here.
    recorder: Arc<InMemoryRecorder>,
    /// Set while inside a collective so inner p2p traffic is
    /// attributed to the collective class.
    pub(crate) in_collective: bool,
    /// Sequence number giving each collective invocation a unique tag
    /// window (all ranks call collectives in the same order).
    pub(crate) coll_seq: u64,
    /// Virtual clock (seconds) advanced by the link model and by
    /// explicit compute charges; see `crate::vtime`.
    vtime: f64,
    /// Optional cost model driving the virtual clock.
    link_model: Option<Arc<dyn LinkModel>>,
    /// Vector-clock happens-before tracker (`None` = off; see
    /// `crate::hb`). Enabled by perturbed worlds.
    hb: Option<HbTracker>,
    /// Seeded schedule-perturbation stream (`None` = deterministic
    /// FIFO behaviour). When set, sends inject seeded yield points and
    /// `Src::Any` receives pick randomly among the per-source heads of
    /// the parked messages — legal reorderings under MPI's
    /// non-overtaking guarantee (per-(src, tag) order is preserved).
    perturb: Option<Prng>,
    /// Injectable wall-clock source: real elapsed time charged to the
    /// communication trace is read from here, never from
    /// `std::time::Instant` directly, so simulated runs can freeze it
    /// (pdnn-lint rule `l1-sim-wall-clock`).
    clock: Arc<dyn Clock>,
    /// Ranks this rank knows to be dead (learned from `CTRL_DEATH`
    /// packets or by evicting a timed-out peer).
    dead: Vec<usize>,
    /// Dead ranks whose failure the application has acknowledged
    /// (recovered from); timed collectives skip these silently
    /// instead of re-reporting [`CommError::RankDead`].
    acked: Vec<usize>,
    /// This rank's own fault status.
    fate: Fate,
    /// Fault-injection context (`None` = fault-free world; every
    /// injection hook is a no-op).
    fault: Option<FaultCtx>,
    /// Wire codec applied to `F32` payloads by the collectives that are
    /// safe under a lossy codec: broadcast/reduce shapes and the
    /// ring/tree allreduces (see `crate::wire`).
    wire_codec: WireCodec,
    /// Retired collective payloads whose buffers the next sends reuse
    /// (see `crate::pool`).
    pub(crate) pool: PayloadPool,
}

/// Tag bit reserved for collective-internal messages; user tags must
/// stay below this.
pub(crate) const COLLECTIVE_TAG_BASE: u64 = 1 << 48;

/// Tag space reserved for fault-tolerance control packets. Control
/// packets never surface to user code: the receive loop intercepts
/// them, updates the communicator's fault state, and keeps matching.
pub(crate) const CTRL_TAG_BASE: u64 = 1 << 60;
/// "I am dead": a killed rank's farewell. Per-pair FIFO means every
/// real message the dead rank sent is already delivered (or parked)
/// when a peer observes this, so detection is deterministic.
pub(crate) const CTRL_DEATH: u64 = CTRL_TAG_BASE;
/// "You are evicted": sent by a collective root to a rank that missed
/// its timeout window; the recipient must stop participating.
pub(crate) const CTRL_EVICT: u64 = CTRL_TAG_BASE + 1;

/// What the fault plan has done to this rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fate {
    Alive,
    Killed,
    Evicted,
}

/// Per-rank fault-injection state: the shared plan plus this rank's
/// per-link send counters (the logical-progress index that
/// drop actions key on).
struct FaultCtx {
    plan: Arc<FaultPlan>,
    sent_counts: Vec<u64>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        inbox: Receiver<Packet>,
        peers: Vec<Sender<Packet>>,
        world: WorldPool,
    ) -> Self {
        Self::with_clock(rank, size, inbox, peers, world, Arc::new(WallClock::new()))
    }

    /// Build a communicator whose trace timing *and* telemetry
    /// recorder both read the given clock. With a
    /// `pdnn_util::ManualClock` the rank's entire telemetry output
    /// becomes bit-reproducible run to run.
    pub(crate) fn with_clock(
        rank: usize,
        size: usize,
        inbox: Receiver<Packet>,
        peers: Vec<Sender<Packet>>,
        world: WorldPool,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Comm {
            rank,
            size,
            inbox,
            peers,
            pending: Vec::new(),
            trace: CommStats::default(),
            events: Vec::new(),
            recorder: Arc::new(InMemoryRecorder::with_clock(clock.clone())),
            in_collective: false,
            coll_seq: 0,
            vtime: 0.0,
            link_model: None,
            hb: None,
            perturb: None,
            clock,
            dead: Vec::new(),
            acked: Vec::new(),
            fate: Fate::Alive,
            fault: None,
            wire_codec: WireCodec::None,
            pool: PayloadPool::in_world(world, size),
        }
    }

    /// This rank's pool of retired collective payloads.
    pub fn payload_pool(&self) -> &PayloadPool {
        &self.pool
    }

    /// Set the wire codec applied to `F32` payloads inside
    /// codec-armed collectives (default [`WireCodec::None`]).
    pub fn set_wire_codec(&mut self, codec: WireCodec) {
        self.wire_codec = codec;
    }

    /// The wire codec currently configured on this rank.
    pub(crate) fn wire_codec(&self) -> WireCodec {
        self.wire_codec
    }

    /// Arm fault injection against the given plan. Every rank of a
    /// faulted world shares one plan and applies it against its own
    /// logical progress (collective sequence numbers, per-link send
    /// counts), so injection is bit-deterministic.
    pub fn enable_faults(&mut self, plan: Arc<FaultPlan>) {
        self.fault = Some(FaultCtx {
            plan,
            sent_counts: vec![0; self.size],
        });
    }

    /// Whether this rank knows `rank` to be dead.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead.contains(&rank)
    }

    /// Ranks this rank knows to be dead, in discovery order.
    pub fn dead_ranks(&self) -> &[usize] {
        &self.dead
    }

    /// Acknowledge a rank's death after recovering from it: timed
    /// collectives stop reporting [`CommError::RankDead`] for this
    /// rank and simply run without it. An unacknowledged death is
    /// re-reported by every collective that misses the rank, so a
    /// failure can never be silently absorbed.
    pub fn ack_dead(&mut self, rank: usize) {
        self.mark_dead(rank);
        if !self.acked.contains(&rank) {
            self.acked.push(rank);
        }
    }

    pub(crate) fn is_acked(&self, rank: usize) -> bool {
        self.acked.contains(&rank)
    }

    /// Deliberately silent (no telemetry): *when* a rank pulls the
    /// death packet out of its inbox is scheduling-dependent, and an
    /// event here would make telemetry nondeterministic. Deterministic
    /// fault events are emitted by the code that *acts* on a death
    /// (the collective root and the recovery layer).
    pub(crate) fn mark_dead(&mut self, rank: usize) {
        if !self.dead.contains(&rank) {
            self.dead.push(rank);
        }
    }

    /// Whether fault tolerance is armed (collectives dispatch to
    /// their timed variants when it is). An armed but *empty* plan
    /// does not count: the timed variants have different message
    /// shapes (flat star vs tree/dissemination), and a faulted world
    /// running an empty plan must stay byte-identical to the
    /// fault-free run.
    pub(crate) fn ft(&self) -> bool {
        matches!(&self.fault, Some(ctx) if !ctx.plan.actions.is_empty())
    }

    /// Timeout window for a timed collective: the root runs the short
    /// detection window; everyone else waits out the generous worker
    /// window (it must outlast a whole recovery cycle at the root).
    pub(crate) fn ft_timeout_for_root(&self, root: usize) -> Duration {
        match &self.fault {
            Some(ctx) if self.rank == root => ctx.plan.detect_timeout,
            Some(ctx) => ctx.plan.worker_timeout,
            None => Duration::from_secs(30),
        }
    }

    /// Timeout window for a peer hop in the masterless ring/tree
    /// collectives: every survivor runs the short detection window —
    /// there is no asymmetric root to out-wait, and the
    /// membership-agreement round re-synchronizes the survivors after
    /// a failure.
    pub(crate) fn ft_timeout_peer(&self) -> Duration {
        match &self.fault {
            Some(ctx) => ctx.plan.detect_timeout,
            None => Duration::from_secs(30),
        }
    }

    /// Lowest-numbered dead rank whose failure has not been
    /// acknowledged yet — the failure the masterless recovery layer
    /// agrees on next. Rank order, not discovery order, so every
    /// survivor picks the same one.
    pub(crate) fn lowest_unacked_dead(&self) -> Option<usize> {
        self.dead
            .iter()
            .copied()
            .filter(|r| !self.acked.contains(r))
            .min()
    }

    /// Normalize a failed timed hop in a masterless collective into
    /// the death the recovery layer should act on. A timeout while an
    /// unacknowledged peer death is already known is attributed to
    /// that death — the hop peer is merely starved downstream of the
    /// dead rank and must *not* be evicted. A timeout with no known
    /// death evicts the hop peer itself (it went silent). A
    /// `RankDead` report is re-pointed at the lowest unacknowledged
    /// death so every survivor recovers the same failure first.
    pub(crate) fn hop_failure(&mut self, peer: usize, e: CommError) -> CommError {
        match e {
            CommError::Timeout => match self.lowest_unacked_dead() {
                Some(dead) => CommError::RankDead { rank: dead },
                None => {
                    self.evict(peer);
                    CommError::RankDead { rank: peer }
                }
            },
            CommError::RankDead { rank } => {
                let rank = self.lowest_unacked_dead().unwrap_or(rank);
                CommError::RankDead { rank }
            }
            other => other,
        }
    }

    fn fate_check(&self) -> Result<(), CommError> {
        match self.fate {
            Fate::Alive => Ok(()),
            Fate::Killed => Err(CommError::Killed),
            Fate::Evicted => Err(CommError::Evicted),
        }
    }

    /// Raw control-packet send: bypasses tracing, happens-before
    /// stamping, and fault injection. Failures are ignored — the
    /// recipient being gone is exactly the situation control packets
    /// exist to report.
    pub(crate) fn ctrl_send(&mut self, dst: usize, tag: u64) {
        if dst == self.rank {
            return;
        }
        let _ = self.peers[dst].send(Packet {
            src: self.rank,
            tag,
            sent_vtime: self.vtime,
            clock: None,
            payload: Payload::Empty,
        });
    }

    /// Dead ranks whose failure has not been acknowledged yet, in
    /// rank order — the set a masterless recovery round must agree on
    /// and then [`Comm::ack_dead`]. Empty once every known death is
    /// acknowledged.
    pub fn unacked_dead(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .dead
            .iter()
            .copied()
            .filter(|r| !self.acked.contains(r))
            .collect();
        out.sort_unstable();
        out
    }

    /// Declare `rank` dead after it missed a timeout window: mark it
    /// locally and send it `CTRL_EVICT` so that, if it is merely
    /// stalled, it stops participating instead of corrupting later
    /// tag windows. Public so recovery layers (the master's
    /// checkpoint-restart driver, the masterless membership round) can
    /// expel a coordinator or reporter that went silent.
    pub fn evict(&mut self, rank: usize) {
        self.recorder.event(
            "rank_evicted",
            vec![
                ("rank".into(), (rank as u64).into()),
                ("by".into(), (self.rank as u64).into()),
            ],
        );
        self.mark_dead(rank);
        self.ctrl_send(rank, CTRL_EVICT);
    }

    /// Fault-plan hook run at the top of every collective, *before*
    /// the collective claims its tag window. Applies any `Kill` or
    /// `Stall` scheduled for this rank at the current collective
    /// sequence number. A killed rank's last act is sending
    /// `CTRL_DEATH` to every peer.
    pub(crate) fn fault_gate(&mut self) -> Result<(), CommError> {
        self.fate_check()?;
        let Some(ctx) = &self.fault else {
            return Ok(());
        };
        let plan = ctx.plan.clone();
        for action in &plan.actions {
            match *action {
                FaultAction::Kill {
                    rank,
                    before_collective,
                } if rank == self.rank && before_collective == self.coll_seq => {
                    for dst in 0..self.size {
                        self.ctrl_send(dst, CTRL_DEATH);
                    }
                    self.fate = Fate::Killed;
                    self.recorder.event(
                        "fault_kill",
                        vec![
                            ("rank".into(), (self.rank as u64).into()),
                            ("collective".into(), self.coll_seq.into()),
                        ],
                    );
                    return Err(CommError::Killed);
                }
                FaultAction::Stall {
                    rank,
                    before_collective,
                    ticks,
                } if rank == self.rank && before_collective == self.coll_seq => {
                    self.recorder.event(
                        "fault_stall",
                        vec![
                            ("rank".into(), (self.rank as u64).into()),
                            ("collective".into(), self.coll_seq.into()),
                            ("ticks".into(), u64::from(ticks).into()),
                        ],
                    );
                    std::thread::sleep(FAULT_TICK * ticks);
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Switch on vector-clock happens-before tracking: every
    /// subsequent send stamps this rank's clock onto the packet and
    /// every receive checks the delivery/consumption invariants.
    /// Collect results with [`Comm::hb_finish`].
    pub(crate) fn enable_hb(&mut self) {
        self.hb = Some(HbTracker::new(self.rank, self.size));
    }

    /// Switch on seeded schedule perturbation (see the `perturb` field
    /// docs). Distinct seeds explore distinct legal schedules; the
    /// protocol's observable behaviour must not depend on the choice.
    pub(crate) fn enable_perturbation(&mut self, seed: u64) {
        self.perturb = Some(Prng::new(seed));
    }

    /// Seeded yield jitter at rank-body start, so perturbed worlds
    /// also vary which rank's first sends win the initial races.
    pub(crate) fn startup_jitter(&mut self) {
        if let Some(prng) = &mut self.perturb {
            for _ in 0..prng.index(4) {
                std::thread::yield_now();
            }
        }
    }

    /// Finish happens-before tracking: drain in-flight messages, flag
    /// anything parked or undelivered as unconsumed-at-exit, and
    /// return every violation recorded on this rank. Returns empty
    /// when tracking was never enabled.
    pub(crate) fn hb_finish(&mut self) -> Vec<HbViolation> {
        if self.hb.is_none() {
            return Vec::new();
        }
        while let Ok(pkt) = self.inbox.try_recv() {
            if pkt.tag >= CTRL_TAG_BASE {
                self.on_ctrl(&pkt);
                continue;
            }
            if let Some(hb) = &mut self.hb {
                hb.on_delivered(&pkt);
            }
            self.pending.push(pkt);
        }
        let Some(mut hb) = self.hb.take() else {
            return Vec::new();
        };
        for pkt in &self.pending {
            hb.on_unconsumed(pkt);
        }
        hb.take_violations()
    }

    /// Attach a link cost model: every subsequent send advances this
    /// rank's virtual clock by the modeled transfer time, and receives
    /// synchronize the clock with the sender's completion time. The
    /// collectives are built on point-to-point messages, so their
    /// virtual cost emerges as the tree critical path — no separate
    /// collective model is needed.
    pub fn set_link_model(&mut self, model: Arc<dyn LinkModel>) {
        self.link_model = Some(model);
    }

    /// Current virtual time (0 until a link model is attached or
    /// compute is charged).
    pub fn vtime(&self) -> f64 {
        self.vtime
    }

    /// Charge modeled compute time to this rank's virtual clock.
    pub fn advance_vtime(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "cannot advance time backwards");
        self.vtime += seconds;
    }

    /// This rank's id in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Communication trace accumulated so far.
    pub fn trace(&self) -> &CommStats {
        &self.trace
    }

    /// Take the trace, leaving an empty one (used by the runner at
    /// rank exit).
    fn take_trace(&mut self) -> CommStats {
        std::mem::take(&mut self.trace)
    }

    /// Take the comm-event trace, leaving an empty one (used by the
    /// runner at rank exit).
    pub(crate) fn take_events(&mut self) -> Vec<CommEvent> {
        std::mem::take(&mut self.events)
    }

    /// Record one completed collective invocation on the event trace
    /// (called by the collective implementations).
    pub(crate) fn push_event(&mut self, ev: CommEvent) {
        self.events.push(ev);
    }

    /// Timeout window for protocol point-to-point receives outside
    /// collectives (the `LOAD_DATA` shard shipments and
    /// [`Comm::p2p_schedule`]'s membership round): the worker
    /// window when fault tolerance is armed — it must outlast a whole
    /// recovery cycle at the root — else the generous fault-free
    /// default.
    pub fn p2p_timeout(&self) -> Duration {
        match &self.fault {
            Some(ctx) => ctx.plan.worker_timeout,
            None => Duration::from_secs(30),
        }
    }

    /// This rank's telemetry sink. Clone the `Arc` into components
    /// that should record spans, counters, or events for this rank.
    pub fn recorder(&self) -> &Arc<InMemoryRecorder> {
        &self.recorder
    }

    /// Take everything recorded on this rank — spans, counters,
    /// gauges, events, *and* the communication trace — as one
    /// [`Telemetry`] snapshot, leaving the rank's sinks empty.
    pub(crate) fn take_telemetry(&mut self) -> Telemetry {
        let mut telemetry = self.recorder.take();
        telemetry.comm = self.take_trace();
        telemetry
    }

    fn class(&self) -> CommClass {
        if self.in_collective {
            CommClass::Collective
        } else {
            CommClass::PointToPoint
        }
    }

    /// Send `payload` to `dst` with `tag`.
    ///
    /// User tags must be below `2^48` (the collective tag window).
    pub fn send(&mut self, dst: usize, tag: u64, payload: Payload) -> Result<(), CommError> {
        assert!(dst < self.size, "send: rank {dst} out of range");
        debug_assert!(
            self.in_collective || tag < COLLECTIVE_TAG_BASE,
            "user tag {tag} collides with collective tag space"
        );
        self.fate_check()?;
        let start = self.clock.now();
        let bytes = payload.size_bytes();
        let kind = payload.kind();
        let elems = payload.elems();
        let class = self.class();
        // Fault injection: drop actions key on the per-link send
        // count (logical progress), so the same plan hits the same
        // message every run.
        let link_fault = match &mut self.fault {
            Some(ctx) => {
                let n = ctx.sent_counts[dst];
                ctx.sent_counts[dst] += 1;
                Some((ctx.plan.clone(), n))
            }
            None => None,
        };
        if let Some((plan, n)) = link_fault {
            for action in &plan.actions {
                if let FaultAction::DropMessage { from, to, nth } = *action {
                    if from == self.rank && to == dst && nth == n {
                        self.recorder.counter_add("fault_dropped_sends", 1);
                        self.trace.add_seconds(class, self.clock.now() - start);
                        return Ok(());
                    }
                }
            }
        }
        // Virtual timing: injection serializes on the sender (the
        // mechanism behind the master's fan-out bottleneck).
        if let Some(model) = &self.link_model {
            self.vtime += model.p2p_seconds(bytes);
        }
        // Perturbation: a seeded yield before injection varies which
        // sender wins cross-source delivery races.
        if let Some(prng) = &mut self.perturb {
            if prng.bernoulli(0.4) {
                std::thread::yield_now();
            }
        }
        let hb_clock = self.hb.as_mut().map(HbTracker::on_send);
        let result = match self.peers[dst].send(Packet {
            src: self.rank,
            tag,
            sent_vtime: self.vtime,
            clock: hb_clock,
            payload,
        }) {
            Ok(()) => Ok(()),
            // Faulted worlds: a closed channel means the destination
            // rank already exited (it died or finished). The message
            // would never be consumed either way, so treat it as sent
            // — keeping the sender's behaviour and trace independent
            // of how the dead rank's teardown raced this call.
            Err(_) if self.fault.is_some() => Ok(()),
            Err(_) => Err(CommError::Disconnected { peer: dst }),
        };
        self.trace.add_seconds(class, self.clock.now() - start);
        if result.is_ok() {
            self.trace.on_send(class, bytes);
            if !self.in_collective {
                self.events.push(CommEvent::Send {
                    to: dst,
                    tag,
                    kind,
                    len: elems,
                });
            }
        }
        result
    }

    /// Send to self is allowed (the message lands in the pending list
    /// on the next receive).
    fn match_pending(&mut self, src: Src, tag: u64) -> Option<Packet> {
        // Perturbed `Src::Any`: choose randomly among the *heads* of
        // each source's parked subsequence. Per-(src, tag) FIFO is
        // preserved (only the first match per source is a candidate),
        // so this explores exactly the schedules MPI's non-overtaking
        // rule permits.
        if self.perturb.is_some() && matches!(src, Src::Any) {
            let mut heads: Vec<usize> = Vec::new();
            let mut seen_srcs: Vec<usize> = Vec::new();
            for (i, p) in self.pending.iter().enumerate() {
                if p.tag == tag && !seen_srcs.contains(&p.src) {
                    heads.push(i);
                    seen_srcs.push(p.src);
                }
            }
            if heads.is_empty() {
                return None;
            }
            let choice = match &mut self.perturb {
                Some(prng) => heads[prng.index(heads.len())],
                None => heads[0],
            };
            return Some(self.pending.remove(choice));
        }
        let idx = self
            .pending
            .iter()
            .position(|p| p.tag == tag && src.matches(p.src))?;
        Some(self.pending.remove(idx))
    }

    /// Pull every already-delivered message off the transport channel
    /// into the pending list (non-blocking), so perturbed matching
    /// sees the full set of concurrently-available messages.
    fn drain_inbox(&mut self) {
        while let Ok(pkt) = self.inbox.try_recv() {
            if pkt.tag >= CTRL_TAG_BASE {
                self.on_ctrl(&pkt);
                continue;
            }
            if let Some(hb) = &mut self.hb {
                hb.on_delivered(&pkt);
            }
            self.pending.push(pkt);
        }
    }

    /// Apply a fault-tolerance control packet to this rank's state.
    /// Control packets are consumed here; they never reach user code,
    /// tracing, or happens-before tracking.
    fn on_ctrl(&mut self, pkt: &Packet) {
        match pkt.tag {
            CTRL_DEATH => self.mark_dead(pkt.src),
            CTRL_EVICT => self.fate = Fate::Evicted,
            _ => {}
        }
    }

    /// Blocking receive of the next message matching `(src, tag)`.
    pub fn recv(&mut self, src: Src, tag: u64) -> Result<Packet, CommError> {
        self.recv_deadline(src, tag, None)
    }

    /// Receive with a timeout.
    pub fn recv_timeout(
        &mut self,
        src: Src,
        tag: u64,
        timeout: Duration,
    ) -> Result<Packet, CommError> {
        let deadline = self.clock.now() + timeout.as_secs_f64();
        self.recv_deadline(src, tag, Some(deadline))
    }

    fn recv_deadline(
        &mut self,
        src: Src,
        tag: u64,
        deadline: Option<f64>,
    ) -> Result<Packet, CommError> {
        let start = self.clock.now();
        let class = self.class();
        let result = loop {
            if let Err(e) = self.fate_check() {
                break Err(e);
            }
            if self.perturb.is_some() {
                // See the full set of already-delivered messages before
                // matching, so the perturbed Any-source choice is among
                // everything genuinely concurrent.
                self.drain_inbox();
            }
            if let Some(pkt) = self.match_pending(src, tag) {
                break Ok(pkt);
            }
            // Dead-source check *after* match_pending: per-pair FIFO
            // guarantees every real message the dead rank sent was
            // already delivered before its death packet, so anything it
            // owed us is in the pending list by the time it is marked
            // dead — an empty match means the message will never come.
            if let Src::Of(s) = src {
                if self.dead.contains(&s) {
                    break Err(CommError::RankDead { rank: s });
                }
            }
            let received = match deadline {
                None => self.inbox.recv().map_err(|_| CommError::WorldShutDown),
                Some(d) => {
                    let now = self.clock.now();
                    if now >= d {
                        break Err(CommError::Timeout);
                    }
                    let remaining = Duration::from_secs_f64(d - now);
                    self.inbox.recv_timeout(remaining).map_err(|e| match e {
                        RecvTimeoutError::Timeout => CommError::Timeout,
                        RecvTimeoutError::Disconnected => CommError::WorldShutDown,
                    })
                }
            };
            match received {
                Ok(pkt) => {
                    if pkt.tag >= CTRL_TAG_BASE {
                        self.on_ctrl(&pkt);
                        continue;
                    }
                    if let Some(hb) = &mut self.hb {
                        hb.on_delivered(&pkt);
                    }
                    if pkt.tag == tag && src.matches(pkt.src) {
                        break Ok(pkt);
                    }
                    self.pending.push(pkt);
                }
                Err(e) => break Err(e),
            }
        };
        self.trace.add_seconds(class, self.clock.now() - start);
        if let Ok(pkt) = &result {
            if let Some(hb) = &mut self.hb {
                hb.on_consumed(pkt);
            }
            self.trace.on_recv(class, pkt.payload.size_bytes());
            if !self.in_collective {
                self.events.push(CommEvent::Recv {
                    from: pkt.src,
                    tag: pkt.tag,
                    kind: pkt.payload.kind(),
                    len: pkt.payload.elems(),
                });
            }
            // Virtual timing: the message is available no earlier than
            // the sender's completion time.
            if pkt.sent_vtime > self.vtime {
                self.vtime = pkt.sent_vtime;
            }
        }
        result
    }

    /// Typed receive: match `(src, tag)` like [`Comm::recv`], then
    /// check the payload kind against `T`. A mismatch surfaces as
    /// [`CommError::TypeMismatch`] — a protocol bug the caller can
    /// distinguish from transport faults — instead of a panic deep in
    /// a payload extractor.
    pub fn recv_vec<T: CollElem>(&mut self, src: Src, tag: u64) -> Result<Vec<T>, CommError> {
        let pkt = self.recv(src, tag)?;
        Self::typed(pkt, tag)
    }

    /// Typed receive with a timeout: [`Comm::recv_vec`] semantics, but
    /// gives up with [`CommError::Timeout`] after `timeout`, or
    /// [`CommError::RankDead`] as soon as the awaited source is known
    /// dead. The timed collectives are built on this.
    pub fn recv_vec_timeout<T: CollElem>(
        &mut self,
        src: Src,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<T>, CommError> {
        let pkt = self.recv_timeout(src, tag, timeout)?;
        Self::typed(pkt, tag)
    }

    fn typed<T: CollElem>(pkt: Packet, tag: u64) -> Result<Vec<T>, CommError> {
        let src = pkt.src;
        T::unwrap_checked(pkt.payload).map_err(|other| CommError::TypeMismatch {
            src,
            tag,
            expected: T::KIND,
            got: other.kind(),
        })
    }

    /// Number of parked (received but unmatched) messages.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_world;

    #[test]
    fn ping_pong() {
        let results = run_world(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, Payload::F32(vec![1.0, 2.0])).unwrap();
                let back = comm.recv(Src::Of(1), 8).unwrap();
                back.payload.into_f32()
            } else {
                let pkt = comm.recv(Src::Of(0), 7).unwrap();
                let mut v = pkt.payload.into_f32();
                for x in &mut v {
                    *x *= 10.0;
                }
                comm.send(0, 8, Payload::F32(v.clone())).unwrap();
                v
            }
        });
        assert_eq!(results[0].result, vec![10.0, 20.0]);
    }

    #[test]
    fn tag_matching_reorders() {
        let results = run_world(2, |comm| {
            if comm.rank() == 0 {
                // Send tag 2 first, then tag 1.
                comm.send(1, 2, Payload::U64(vec![222])).unwrap();
                comm.send(1, 1, Payload::U64(vec![111])).unwrap();
                vec![]
            } else {
                // Receive tag 1 first — must skip the tag-2 packet.
                let first = comm.recv(Src::Of(0), 1).unwrap().payload.into_u64();
                assert_eq!(comm.pending_len(), 1);
                let second = comm.recv(Src::Of(0), 2).unwrap().payload.into_u64();
                vec![first[0], second[0]]
            }
        });
        assert_eq!(results[1].result, vec![111, 222]);
    }

    #[test]
    fn any_source_matches_whoever_arrives() {
        let results = run_world(3, |comm| {
            if comm.rank() == 0 {
                let a = comm.recv(Src::Any, 5).unwrap();
                let b = comm.recv(Src::Any, 5).unwrap();
                let mut srcs = vec![a.src, b.src];
                srcs.sort_unstable();
                srcs
            } else {
                comm.send(0, 5, Payload::Empty).unwrap();
                vec![]
            }
        });
        assert_eq!(results[0].result, vec![1, 2]);
    }

    #[test]
    fn recv_timeout_expires() {
        let results = run_world(2, |comm| {
            if comm.rank() == 0 {
                let r = comm.recv_timeout(Src::Of(1), 99, Duration::from_millis(30));
                matches!(r, Err(CommError::Timeout))
            } else {
                true // rank 1 sends nothing
            }
        });
        assert!(results[0].result);
    }

    #[test]
    fn trace_counts_bytes_and_ops() {
        let results = run_world(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, Payload::F32(vec![0.0; 100])).unwrap();
            } else {
                comm.recv(Src::Of(0), 1).unwrap();
            }
        });
        assert_eq!(results[0].trace.p2p.bytes_sent, 400);
        assert_eq!(results[0].trace.p2p.sends, 1);
        assert_eq!(results[1].trace.p2p.bytes_received, 400);
        assert_eq!(results[1].trace.p2p.recvs, 1);
    }

    #[test]
    fn self_send_is_received() {
        let results = run_world(1, |comm| {
            comm.send(0, 3, Payload::U64(vec![42])).unwrap();
            comm.recv(Src::Of(0), 3).unwrap().payload.into_u64()[0]
        });
        assert_eq!(results[0].result, 42);
    }

    #[test]
    fn message_order_per_pair_is_fifo() {
        let results = run_world(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..50u64 {
                    comm.send(1, 4, Payload::U64(vec![i])).unwrap();
                }
                vec![]
            } else {
                (0..50u64)
                    .map(|_| comm.recv(Src::Of(0), 4).unwrap().payload.into_u64()[0])
                    .collect()
            }
        });
        assert_eq!(results[1].result, (0..50).collect::<Vec<u64>>());
    }
}
