//! Distributed Hessian-free training: one trainer, two protocols.
//!
//! Paper Section IV: "worker processes distributed over a compute
//! cluster perform data-parallel computation of gradients and
//! curvature matrix–vector products and the master implements the
//! Hessian-free optimization and coordinates the activity of the
//! workers. All communication between the master and workers is via
//! MPI. The master/worker architecture … is a simple one-layer
//! architecture, with one master and many workers."
//!
//! What a rank computes does not depend on how the sums travel, so
//! there is one of everything except the wire protocol:
//!
//! * **Protocol front-ends** — the only code that talks to the
//!   communicator. `MasterProblem` ⇄ `worker_loop` is the paper's
//!   rooted command protocol, both roles interpreting the rows of
//!   [`crate::protocol::COMMANDS`]; `DecentralProblem` is the
//!   symmetric allreduce protocol of [`SyncStrategy::Ring`] /
//!   [`SyncStrategy::Tree`]. Both implement [`HfProblem`], so the
//!   *identical* [`crate::optimizer::HfOptimizer`] drives serial,
//!   master/worker and masterless training — the parity tests exploit
//!   this.
//! * **Shard engine** (`crate::shard`) — the shard-local compute
//!   behind the worker arms and the peers, and behind the serial
//!   [`crate::DnnProblem`]. No communication.
//! * **Fault latch** (`FaultLatch`, `Recovering::settle`) — the first
//!   failure a front-end observes poisons it: later [`HfProblem`]
//!   calls short-circuit to degraded values until the loop takes it.
//! * **Outer loop** (`hf_loop`) — step / stop / snapshot / rewind /
//!   history re-feed over `Recovering`. *How* to recover — master:
//!   ack the death and replay the lost shard via `LOAD_DATA`; peers:
//!   agree on membership under the lowest live rank
//!   (`protocol::agree_membership`), re-stitch the ring/tree, replay
//!   the re-shard on every replica — and whether
//!   snapshots also go to disk is the front-end's business.
//! * **World driver** (`train_impl`) — builds the `ShardLedger`
//!   (who holds which utterance; the one place a dead slot's data is
//!   re-partitioned), runs one closure that picks the master, worker
//!   or peer role, and collects once.
//!
//! The rooted protocol's fan-out is `bcast` from rank 0 and its fan-in
//! `reduce` to rank 0, matching the paper's move from sockets to MPI
//! collectives in Section V.B; [`crate::protocol`] holds its command
//! table. The metadata reduces carry `[Σloss, frames]` (GRADIENT),
//! `[frames]` (GN_PRODUCT, FISHER) and `[Σloss, Σcorrect, frames]`
//! (HELDOUT). At start-up the master distributes per-worker utterance
//! assignments point-to-point (`load_data`, the `LOAD_DATA` row's
//! shipments — the paper's Figures 2 and 4 show this p2p phase growing
//! with rank count). The peers
//! exchange the same sums by allreduce: no command headers, no θ
//! broadcasts, no start-up p2p phase.
//!
//! # Fault tolerance
//!
//! Under [`train_distributed_faulted`] the communicator runs with a
//! [`FaultPlan`]: collectives report a failed rank as
//! [`CommError::RankDead`] instead of hanging. The loop then has the
//! front-end recover the data assignment, restores θ from the last
//! periodic snapshot and resumes from there. Sample seeds are a pure
//! function of the iteration index, so a replay from iteration *k*
//! recomputes exactly what an undisturbed run over the re-sharded
//! data would have: recovery is bit-deterministic given the plan, in
//! every sync mode.

use crate::config::HfConfig;
use crate::optimizer::{HfOptimizer, IterStats};
use crate::problem::{HeldoutEval, HfProblem, Objective};
use crate::protocol::{self, Frame, Opcode};
use crate::shard::{report_memory, RankMemory, ShardEngine};
use crate::stopping::StopState;
use pdnn_dnn::network::Network;
use pdnn_mpisim::{
    CollElem, Comm, CommError, CommEvent, FaultPlan, HbViolation, RankOutcome, ReduceOp, WireCodec,
};
use pdnn_obs::{CommStats, InMemoryRecorder, Recorder, RecorderExt, SpanKind, Telemetry};
use pdnn_speech::{partition, Corpus, Shard, Strategy};
use pdnn_tensor::gemm::GemmContext;
use pdnn_tensor::Workspace;
use pdnn_util::{Error, PhaseTimer};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// How ranks synchronize gradients, curvature products, and weights.
///
/// [`Master`](SyncStrategy::Master) is the paper's one-master
/// architecture (Section IV): rank 0 runs the optimizer and every
/// exchange is a rooted bcast/reduce rendezvousing at the master.
/// [`Ring`](SyncStrategy::Ring) and [`Tree`](SyncStrategy::Tree) are
/// masterless: the world is `workers` peer ranks, each runs a replica
/// of the Hessian-free optimizer in lockstep, and the GRADIENT /
/// GN-product / HELDOUT reductions are symmetric allreduces —
/// bandwidth-optimal ring (reduce-scatter + allgather) or binomial
/// tree — so no phase rendezvouses at rank 0, there are no command
/// headers, no θ broadcasts, and no start-up `load_data` p2p phase.
/// Every decision the replicated optimizers take is a function of
/// bit-identical allreduce results, so all replicas stay bitwise in
/// lockstep (asserted at the end of every run). Under `Ring` they also
/// share the CG state: each rank keeps and updates the ring slice of
/// every CG vector its reduce-scatter leaves it, and gathers whole
/// vectors and folds dot products from the slices
/// ([`HfProblem::cg_range`]); `Tree` replicas keep the whole state.
///
/// All three strategies support fault plans. `Master` recovers via
/// the coordinator's checkpoint-restart; the masterless modes elect
/// the lowest live rank as a per-failure membership coordinator,
/// re-stitch the ring/tree over the survivors, and rewind their
/// replicated optimizers in lockstep (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncStrategy {
    /// One master, many workers; rooted collectives (the paper's
    /// architecture). Supports fault plans.
    #[default]
    Master,
    /// Masterless replicated optimizer over chunked ring allreduce
    /// (bandwidth-optimal: each rank moves `2(P-1)/P · n` elements,
    /// neighbour-only traffic), its CG state sharded over the ring.
    Ring,
    /// Masterless replicated optimizer over binomial-tree allreduce
    /// (latency-optimal: `2⌈log2 P⌉` rounds).
    Tree,
}

impl SyncStrategy {
    /// Short name for CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            SyncStrategy::Master => "master",
            SyncStrategy::Ring => "ring",
            SyncStrategy::Tree => "tree",
        }
    }

    /// Parse a CLI spelling; the inverse of [`SyncStrategy::name`].
    pub fn parse(s: &str) -> Result<Self, String> {
        [Self::Master, Self::Ring, Self::Tree]
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| format!("unknown sync strategy `{s}` (use master|ring|tree)"))
    }
}

/// Distributed training configuration.
#[derive(Clone, Debug)]
pub struct DistributedConfig {
    /// Number of worker ranks. Under [`SyncStrategy::Master`] the
    /// world size is `workers + 1` (rank 0 is the master); under the
    /// masterless strategies the world size is exactly `workers`.
    pub workers: usize,
    /// How gradients, curvature products, and weights synchronize
    /// across ranks.
    pub sync: SyncStrategy,
    /// Wire-level compression applied to `f32` collective payloads
    /// (gradients, Gv products, θ broadcasts). Orthogonal to `sync`.
    pub wire_codec: WireCodec,
    /// Optimizer configuration.
    pub hf: HfConfig,
    /// Utterance-to-worker assignment strategy (paper Section V.C).
    pub strategy: Strategy,
    /// Fraction of utterances held out for the loss evaluations.
    pub heldout_frac: f64,
    /// rayon threads per rank for the GEMM kernels (the paper's
    /// OpenMP-threads-per-rank).
    pub threads_per_rank: usize,
    /// Snapshot θ every this many completed outer iterations for
    /// fault recovery (`0` keeps only the initial snapshot).
    pub checkpoint_every: usize,
    /// Where to persist snapshots (atomic write-tmp/fsync/rename via
    /// `pdnn_dnn::checkpoint`); recovery then restores θ from disk,
    /// exercising the full checkpoint-restart path. `None` keeps
    /// snapshots in memory only.
    pub checkpoint_path: Option<std::path::PathBuf>,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            workers: 4,
            sync: SyncStrategy::default(),
            wire_codec: WireCodec::None,
            hf: HfConfig::small_task(),
            strategy: Strategy::SortedBalanced,
            heldout_frac: 0.2,
            threads_per_rank: 1,
            checkpoint_every: 0,
            checkpoint_path: None,
        }
    }
}

/// Result of a distributed training run.
///
/// All accounting flows through each rank's `pdnn_obs` recorder (the
/// [`Telemetry`] fields); the [`PhaseTimer`] and [`CommStats`] fields
/// are derived views kept for convenience and compatibility.
pub struct TrainOutput {
    /// The trained network (reconstructed on the master).
    pub network: Network<f32>,
    /// Per-iteration optimizer statistics.
    pub stats: Vec<IterStats>,
    /// Master communication trace (p2p vs collective split).
    pub master_trace: CommStats,
    /// Worker communication traces, worker order.
    pub worker_traces: Vec<CommStats>,
    /// Master compute/coordination phase times (derived from
    /// `master_telemetry` spans).
    pub master_phases: PhaseTimer,
    /// Worker phase times (gradient_loss, worker_curvature_product…),
    /// derived from `worker_telemetries` spans.
    pub worker_phases: Vec<PhaseTimer>,
    /// Full master-rank telemetry: spans, counters, events, comm.
    pub master_telemetry: Telemetry,
    /// Full per-worker telemetry, worker order.
    pub worker_telemetries: Vec<Telemetry>,
    /// Happens-before violations `(rank, violation)` from the
    /// vector-clock tracker. Always empty except under
    /// [`train_distributed_perturbed`], where any entry is a protocol
    /// race.
    pub hb_violations: Vec<(usize, HbViolation)>,
    /// Schedule-perturbation seed the run executed under (`None`
    /// outside [`train_distributed_perturbed`]); also stamped on every
    /// rank's telemetry so JSONL dumps record their schedule.
    pub schedule_seed: Option<u64>,
    /// Ranks the master saw die during the run (fault injection only).
    pub dead_ranks: Vec<usize>,
    /// How many worker failures the master recovered from.
    pub recoveries: usize,
    /// Master-rank comm-event trace (one entry per p2p op outside
    /// collectives, one per collective invocation), in program order.
    /// `pdnn-protomc` replays these through the abstract protocol
    /// automata to check trace conformance.
    pub master_events: Vec<CommEvent>,
    /// Per-worker comm-event traces, worker order.
    pub worker_events: Vec<Vec<CommEvent>>,
}

/// A failure a rank observed mid-protocol.
#[derive(Debug)]
enum TrainFault {
    /// The communication layer failed (dead rank, timeout, …).
    Comm(CommError),
    /// A reduction came back with zero total frames: every rank
    /// contributed an empty batch, so the mean is undefined.
    ZeroFrames { phase: &'static str },
}

fn comm_error(e: CommError) -> Error {
    Error::Comm(e.to_string())
}

fn fault_error(fault: TrainFault) -> Error {
    match fault {
        TrainFault::Comm(e) => comm_error(e),
        TrainFault::ZeroFrames { phase } => {
            Error::Train(format!("reduction over zero frames in {phase}"))
        }
    }
}

/// What a poisoned front-end reports for a held-out evaluation.
const DEGRADED_EVAL: HeldoutEval = HeldoutEval {
    loss: f64::NAN,
    accuracy: f64::NAN,
    frames: 0,
};

/// Turn a sum aggregated over `frames` frames into a mean.
fn mean_of(mut sum: Vec<f32>, frames: f64, phase: &'static str) -> Result<Vec<f32>, TrainFault> {
    if frames <= 0.0 {
        return Err(TrainFault::ZeroFrames { phase });
    }
    pdnn_tensor::blas1::scal((1.0 / frames) as f32, &mut sum);
    Ok(sum)
}

/// Turn aggregated `[Σloss, Σcorrect, frames]` into a held-out result.
fn heldout_mean(meta: &[f64]) -> Result<HeldoutEval, TrainFault> {
    let frames = meta[2];
    if frames <= 0.0 {
        return Err(TrainFault::ZeroFrames { phase: "heldout" });
    }
    Ok(HeldoutEval {
        loss: meta[0] / frames,
        accuracy: meta[1] / frames,
        frames: frames as u64,
    })
}

/// The shard of the given corpus utterance ids (the wire format of the
/// assignment messages).
fn shard_of(corpus: &Corpus, ids: &[u64]) -> Shard {
    let ids: Vec<usize> = ids.iter().map(|&id| id as usize).collect();
    corpus.shard(&ids)
}

/// The `LOAD_DATA` shipments giving each worker rank its `(train,
/// held)` ids, in wire order.
fn shipments(
    lists: impl IntoIterator<Item = (usize, (Vec<u64>, Vec<u64>))>,
) -> Vec<(usize, Vec<u64>)> {
    let ship = |(rank, (train, held))| [(rank, train), (rank, held)];
    lists.into_iter().flat_map(ship).collect()
}

/// The first failure a protocol front-end observed. While it is
/// latched the front-end is poisoned — every [`HfProblem`] call
/// short-circuits to a degraded value — until the outer loop takes the
/// fault and decides: recover, or abort.
struct FaultLatch {
    rec: Arc<InMemoryRecorder>,
    fault: Option<TrainFault>,
    /// Without a fault plan a communication error is a harness bug:
    /// fail loudly instead of attempting recovery.
    strict: bool,
}

impl FaultLatch {
    fn poisoned(&self) -> bool {
        self.fault.is_some()
    }

    /// Record a fault and poison the front-end. The first fault wins:
    /// later ones are consequences of the degraded values the
    /// short-circuiting methods return.
    fn on_fault(&mut self, fault: TrainFault) {
        match &fault {
            TrainFault::Comm(e) => {
                if self.strict {
                    // pdnn-lint: allow(l3-no-unwrap): without a fault plan a communication error means the simulated world itself is broken; recovery would mask the harness bug
                    panic!("distributed protocol failure: {e}");
                }
                self.rec
                    .event("comm_fault", vec![("error".into(), e.to_string().into())]);
            }
            TrainFault::ZeroFrames { phase } => {
                self.rec
                    .event("zero_frames", vec![("phase".into(), (*phase).into())]);
            }
        }
        if self.fault.is_none() {
            self.fault = Some(fault);
        }
    }

    fn take_fault(&mut self) -> Option<TrainFault> {
        self.fault.take()
    }
}

/// θ snapshot a rank can rewind to after a failure — the master's
/// checkpoint-restart anchor, or every masterless replica's in-memory
/// rewind point.
struct Snapshot {
    iter: usize,
    theta: Vec<f32>,
    lambda: f64,
}

/// What the recovering outer loop ([`hf_loop`]) needs from a protocol
/// front-end beyond [`HfProblem`].
trait Recovering: HfProblem + Sized {
    fn latch(&mut self) -> &mut FaultLatch;

    /// Bring the live world back to a consistent data assignment after
    /// a collective reported `rank` dead. θ is restored by the caller.
    fn recover(&mut self, rank: usize) -> Result<(), Error>;

    /// Make `snap` durable. Snapshots are in-memory unless a front-end
    /// has somewhere to put them.
    fn persist(&mut self, _snap: &Snapshot) -> Result<(), Error> {
        Ok(())
    }

    /// The θ to rewind to: `snap`'s, or what [`Recovering::persist`]
    /// stored for it.
    fn restore(&mut self, snap: &Snapshot) -> Result<Vec<f32>, Error> {
        Ok(snap.theta.clone())
    }

    /// Run one fallible protocol exchange unless already poisoned;
    /// latch its failure. `None` means "report the degraded value".
    fn settle<T>(&mut self, attempt: impl FnOnce(&mut Self) -> Result<T, TrainFault>) -> Option<T> {
        if self.latch().poisoned() {
            return None;
        }
        match attempt(self) {
            Ok(value) => Some(value),
            Err(fault) => {
                self.latch().on_fault(fault);
                None
            }
        }
    }
}

/// Who holds which utterance: per-slot corpus ids (the wire format of
/// the assignment messages), for training and held-out data. The
/// master keeps the only copy; the masterless peers each keep a
/// replica and replay every change identically, so no ledger owner can
/// die.
#[derive(Clone)]
struct ShardLedger {
    train: Vec<Vec<u64>>,
    held: Vec<Vec<u64>>,
    /// Frame count of every corpus utterance (the LPT weights).
    utt_frames: Vec<usize>,
    strategy: Strategy,
}

impl ShardLedger {
    /// Split off the held-out set and partition both sets over
    /// `config.workers` slots by frame count (the paper's equal-data
    /// objective, Section V.C).
    fn new(corpus: &Corpus, config: &DistributedConfig) -> Self {
        let (train_ids, held_ids) = corpus.split_heldout(config.heldout_frac);
        let as_wire = |ids: Vec<usize>| -> Vec<u64> { ids.iter().map(|&i| i as u64).collect() };
        let mut ledger = ShardLedger {
            train: Vec::new(),
            held: Vec::new(),
            utt_frames: corpus.utterances().iter().map(|u| u.frames()).collect(),
            strategy: config.strategy,
        };
        ledger.train = ledger.spread(&as_wire(train_ids), config.workers);
        ledger.held = ledger.spread(&as_wire(held_ids), config.workers);
        ledger
    }

    /// Partition `ids` into `parts` by frame count.
    fn spread(&self, ids: &[u64], parts: usize) -> Vec<Vec<u64>> {
        let lens: Vec<usize> = ids.iter().map(|&id| self.utt_frames[id as usize]).collect();
        partition(&lens, parts, self.strategy)
            .iter()
            .map(|part| part.iter().map(|&pos| ids[pos]).collect())
            .collect()
    }

    /// Global training frame count.
    fn train_frames(&self) -> u64 {
        let ids = self.train.iter().flatten();
        ids.map(|&id| self.utt_frames[id as usize] as u64).sum()
    }

    /// Move slot `dead`'s utterances onto the `live` slots (same
    /// strategy as start-up). Returns the `(train, held)` extras each
    /// live slot gained, in `live` order.
    fn reassign(&mut self, dead: usize, live: &[usize]) -> Vec<(Vec<u64>, Vec<u64>)> {
        let orphan_train = std::mem::take(&mut self.train[dead]);
        let orphan_held = std::mem::take(&mut self.held[dead]);
        let train = self.spread(&orphan_train, live.len());
        let held = self.spread(&orphan_held, live.len());
        let extras: Vec<_> = train.into_iter().zip(held).collect();
        for (&slot, (t, h)) in live.iter().zip(&extras) {
            self.train[slot].extend(t);
            self.held[slot].extend(h);
        }
        extras
    }
}

/// Master side of the rooted command protocol: [`HfProblem`] over
/// `bcast`/`reduce` with the workers' [`worker_loop`].
struct MasterProblem<'a> {
    comm: &'a mut Comm,
    rec: Arc<InMemoryRecorder>,
    config: &'a DistributedConfig,
    /// Architecture template for writing checkpoints.
    net0: &'a Network<f32>,
    theta: Vec<f32>,
    /// Slot `w` is worker rank `w + 1`.
    ledger: ShardLedger,
    latch: FaultLatch,
    /// Rank 0's memory owner: the optimizer's leases, and the operand
    /// and sum buffers of every command exchange (a reduced sum goes
    /// out as a gradient or curvature product and comes back through
    /// `give_back`).
    ws: Workspace<f32>,
}

impl MasterProblem<'_> {
    /// One command exchange under the row's span (recorded even when
    /// the poisoned front-end skips the exchange): broadcast `operand`,
    /// contribute zeros to the row's reduces, and `finish` the sums
    /// (taking the `sum` buffer if it returns it). The operand and sum
    /// buffers are takes from the problem's arena.
    fn exchange<T>(
        &mut self,
        op: Opcode,
        args: &[u64],
        operand: &[f32],
        finish: impl FnOnce(&mut Frame) -> Result<T, TrainFault>,
    ) -> Option<T> {
        let cmd = op.command();
        let rec = self.rec.clone();
        let _span = cmd
            .span
            .map(|name| rec.span(name, SpanKind::CommCollective));
        self.settle(|p| {
            let mut frame = Frame {
                operand: p.ws.take_vec_scratch(operand.len()),
                meta: vec![0.0f64; cmd.meta],
                ..Frame::default()
            };
            frame.operand.copy_from_slice(operand);
            if cmd.sum {
                frame.sum = p.ws.take_vec(p.theta.len());
            }
            let issued = protocol::issue(p.comm, cmd, args, &mut frame).map_err(TrainFault::Comm);
            let out = issued.and_then(|()| finish(&mut frame));
            p.ws.give_vec(frame.operand);
            p.ws.give_vec(frame.sum);
            out
        })
    }

    /// Re-partition dead worker slot `dead` onto the survivors and
    /// replay the assignments via `LOAD_DATA`. The caller has already
    /// acknowledged the death, so the command broadcast reaches
    /// exactly the live workers.
    fn redistribute(&mut self, dead: usize) -> Result<(), CommError> {
        let live: Vec<usize> = (0..self.config.workers)
            .filter(|&w| !self.comm.is_dead(w + 1))
            .collect();
        let extras = self.ledger.reassign(dead, &live);
        let mut frame = Frame {
            shipments: shipments(live.iter().map(|w| w + 1).zip(extras)),
            ..Frame::default()
        };
        protocol::issue(self.comm, Opcode::LoadData.command(), &[], &mut frame)
    }
}

impl HfProblem for MasterProblem<'_> {
    fn num_params(&self) -> usize {
        self.theta.len()
    }

    fn theta(&self) -> Vec<f32> {
        self.theta.clone()
    }

    fn theta_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(&self.theta);
    }

    fn set_theta(&mut self, theta: &[f32]) {
        self.theta.clear();
        self.theta.extend_from_slice(theta);
        self.exchange(Opcode::SetTheta, &[], theta, |_| Ok(()));
    }

    fn gradient(&mut self) -> (f64, Vec<f32>) {
        self.exchange(Opcode::Gradient, &[], &[], |f| {
            let grad = mean_of(std::mem::take(&mut f.sum), f.meta[1], "gradient")?;
            Ok((f.meta[0] / f.meta[1], grad))
        })
        .unwrap_or_else(|| (f64::NAN, vec![0.0f32; self.theta.len()]))
    }

    fn sample_curvature(&mut self, seed: u64, fraction: f64) {
        let args = [seed, fraction.to_bits()];
        self.exchange(Opcode::Sample, &args, &[], |_| Ok(()));
    }

    fn gn_product(&mut self, v: &[f32]) -> Vec<f32> {
        let gv = self
            .exchange(Opcode::GnProduct, &[], v, |f| {
                mean_of(std::mem::take(&mut f.sum), f.meta[0], "gn_product")
            })
            .unwrap_or_else(|| vec![0.0f32; v.len()]);
        let pool = self.comm.payload_pool().high_water_bytes();
        let mem = RankMemory {
            arena: self.ws.stats(),
            weight_pack_bytes: 0,
            sample_pack_bytes: 0,
            model_bytes: (self.theta.len() * std::mem::size_of::<f32>()) as u64,
        };
        report_memory(&*self.rec, mem, Some(pool));
        gv
    }

    fn fisher_diagonal(&mut self) -> Option<Vec<f32>> {
        self.exchange(Opcode::Fisher, &[], &[], |f| {
            mean_of(std::mem::take(&mut f.sum), f.meta[0], "fisher")
        })
    }

    fn lease(&mut self, len: usize) -> Vec<f32> {
        self.ws.lease_vec(len)
    }

    fn give_back(&mut self, buf: Vec<f32>) {
        self.ws.give_vec(buf);
    }

    fn heldout_eval(&mut self, theta: &[f32]) -> HeldoutEval {
        self.exchange(Opcode::Heldout, &[], theta, |f| heldout_mean(&f.meta))
            .unwrap_or(DEGRADED_EVAL)
    }

    fn train_frames(&self) -> u64 {
        self.ledger.train_frames()
    }
}

/// Checkpoint-restart recovery: acknowledge the death, replay the
/// lost shard onto the survivors; snapshots also go to
/// `checkpoint_path` when one is configured, and θ is then restored
/// from disk, exercising the full checkpoint-restart path.
impl Recovering for MasterProblem<'_> {
    fn latch(&mut self) -> &mut FaultLatch {
        &mut self.latch
    }

    fn recover(&mut self, rank: usize) -> Result<(), Error> {
        self.comm.ack_dead(rank);
        let dead = self.comm.dead_ranks().len();
        self.rec.gauge_set("dead_workers", dead as f64);
        if dead >= self.config.workers {
            return Err(Error::Train("no surviving workers".into()));
        }
        self.redistribute(rank - 1).map_err(comm_error)
    }

    fn persist(&mut self, snap: &Snapshot) -> Result<(), Error> {
        let Some(path) = &self.config.checkpoint_path else {
            return Ok(());
        };
        let mut net = self.net0.clone();
        net.set_flat(&snap.theta);
        pdnn_dnn::checkpoint::save_network(&net, path)
    }

    fn restore(&mut self, snap: &Snapshot) -> Result<Vec<f32>, Error> {
        match &self.config.checkpoint_path {
            Some(path) => Ok(pdnn_dnn::checkpoint::load_network(path)?.to_flat()),
            None => Ok(snap.theta.clone()),
        }
    }
}

/// Worker side of the rooted command protocol: run the command loop
/// until `SHUTDOWN`. Each command runs its row through
/// [`protocol::run`] with this worker's engine call between the
/// received operands and the reduced sums. Reduced sums go back to the
/// engine's arena; received operands are dropped, since the arena
/// never handed them out.
///
/// All phase accounting goes through the communicator's `pdnn_obs`
/// recorder; the caller collects it from [`RankOutcome::telemetry`].
/// A communication failure (including being killed or evicted by a
/// fault plan) unwinds cleanly as an error — the caller decides
/// whether that is expected (fault injection) or a harness bug.
fn worker_loop(
    comm: &mut Comm,
    corpus: &Corpus,
    objective: &Objective,
    net0: &Network<f32>,
    threads: usize,
) -> Result<(), CommError> {
    let rec = comm.recorder().clone();
    let rank = comm.rank();
    let load = Opcode::LoadData.command();

    // load_data: the LOAD_DATA row's shipments without a header. The
    // typed receive surfaces a tag/kind-mismatched sender as a
    // `CommError::TypeMismatch` instead of a payload panic.
    let load_span = rec.span("load_data", SpanKind::CommP2p);
    let mut ids = [Vec::new(), Vec::new()];
    let mut frame = Frame::default();
    protocol::run(comm, load, &mut frame, |f| absorb(&mut ids, f))?;
    // `net0` only fixes the architecture: weights arrive via SET_THETA
    // before any compute command.
    let mut engine = ShardEngine::new(
        rec.clone(),
        // One thread degrades to the sequential context.
        GemmContext::threaded(threads),
        Cow::Borrowed(objective),
        net0.clone(),
        shard_of(corpus, &ids[0]),
        shard_of(corpus, &ids[1]),
    );
    drop(load_span);

    // One frame serves every command: the received operand refills
    // its buffer in place.
    let mut frame = Frame::default();
    loop {
        let (cmd, header) = protocol::next_command(comm)?;
        // A re-shard replay ships data under the start-up span's name.
        let _span = (cmd.shipments > 0).then(|| rec.span("load_data", SpanKind::CommP2p));
        protocol::run(comm, cmd, &mut frame, |f| match cmd.opcode {
            Opcode::Shutdown => {}
            Opcode::SetTheta => {
                let _s = rec.span("sync_weights_worker", SpanKind::MemoryBound);
                engine.set_theta(&f.operand);
            }
            Opcode::Gradient => {
                let (loss_sum, grad, frames) = engine.gradient_sums();
                (f.sum, f.meta) = (grad, vec![loss_sum, frames]);
            }
            Opcode::Sample => engine.draw_sample(header[1], f64::from_bits(header[2]), rank),
            Opcode::GnProduct => {
                let (gv, frames) = engine.gn_sums(&f.operand);
                (f.sum, f.meta) = (gv, vec![frames]);
            }
            Opcode::Heldout => f.meta = engine.heldout_sums(&f.operand).to_vec(),
            Opcode::Fisher => {
                let (diag, frames) = engine.fisher_sums();
                (f.sum, f.meta) = (diag, vec![frames]);
            }
            Opcode::LoadData => {
                // A peer died: the master re-partitioned its shard and
                // shipped this worker its extra utterance assignments.
                absorb(&mut ids, f);
                engine.reshard(shard_of(corpus, &ids[0]), shard_of(corpus, &ids[1]));
                rec.counter_add("shard_reassignments", 1);
            }
        })?;
        match cmd.opcode {
            Opcode::Gradient | Opcode::Fisher => engine.recycle(std::mem::take(&mut frame.sum)),
            Opcode::GnProduct => {
                engine.recycle(std::mem::take(&mut frame.sum));
                let pool = comm.payload_pool().high_water_bytes();
                report_memory(&*engine.rec, engine.memory(), Some(pool));
            }
            // The shutdown row's closing barrier means no rank exits
            // while another may still be mid-collective, so the
            // quiescence check at exit (p6, UnconsumedAtExit) is
            // meaningful.
            Opcode::Shutdown => return Ok(()),
            _ => {}
        }
    }
}

/// Append each received `LOAD_DATA` shipment to its id list (training
/// ids, then held-out ids).
fn absorb(ids: &mut [Vec<u64>; 2], frame: &mut Frame) {
    for (list, (_, extra)) in ids.iter_mut().zip(frame.shipments.drain(..)) {
        list.extend(extra);
    }
}

/// A peer of the symmetric allreduce protocol (the masterless sync
/// strategies): engine call → allreduce → normalise. No command
/// headers, no rooted collectives, no p2p outside recovery.
///
/// Every rank holds one of these and drives its own replicated
/// [`HfOptimizer`]; because ring and tree allreduce return
/// bit-identical results on every rank, the replicas make identical
/// decisions and their θ vectors never diverge. In ring mode the
/// optimizer's CG state is sharded: a rank owns its ring slice
/// ([`HfProblem::cg_range`]), curvature sums are reduce-scattered into
/// it, and dot products and whole vectors come from the slices through
/// scalar allreduces and raw allgathers, so every replica still reads
/// the same bits.
struct DecentralProblem<'a> {
    comm: &'a mut Comm,
    rec: Arc<InMemoryRecorder>,
    sync: SyncStrategy,
    corpus: &'a Corpus,
    engine: ShardEngine<'a>,
    /// Global frame count of the current curvature sample, agreed by
    /// one f64 allreduce the first time the sample is used (fisher or
    /// first CG product) and reused for every later product on the
    /// same sample — the count cannot change between draws, so the
    /// per-CG-step metadata chaser would be pure collective overhead.
    /// Cleared with the sample (redraw, θ update, re-shard).
    sample_frames: Option<f64>,
    /// Slot `r` is rank `r`.
    ledger: ShardLedger,
    latch: FaultLatch,
}

impl DecentralProblem<'_> {
    /// Sum-allreduce under the configured masterless strategy.
    fn allreduce_sum<T: CollElem>(&mut self, buf: &mut [T]) -> Result<(), CommError> {
        match self.sync {
            SyncStrategy::Ring => self.comm.allreduce_ring(buf, ReduceOp::Sum),
            _ => self.comm.allreduce_tree(buf, ReduceOp::Sum),
        }
    }

    /// Global frame count of the current curvature sample: the cached
    /// agreement if one exists, else one f64 metadata allreduce whose
    /// result is cached until the sample changes.
    fn sample_frames_total(&mut self, local: f64) -> Result<f64, CommError> {
        if let Some(total) = self.sample_frames {
            return Ok(total);
        }
        let mut meta = [local];
        self.allreduce_sum(&mut meta)?;
        self.sample_frames = Some(meta[0]);
        Ok(meta[0])
    }

    fn try_gradient(&mut self) -> Result<(f64, Vec<f32>), TrainFault> {
        let (loss_sum, mut grad, frames) = self.engine.gradient_sums();
        let rec = self.rec.clone();
        let _span = rec.span("gradient_allreduce", SpanKind::CommCollective);
        let r1 = self.allreduce_sum(&mut grad);
        let mut meta = [loss_sum, frames];
        let r2 = self.allreduce_sum(&mut meta);
        r1.and(r2).map_err(TrainFault::Comm)?;
        let grad = mean_of(grad, meta[1], "gradient")?;
        Ok((meta[0] / meta[1], grad))
    }

    /// Whether this rank owns only its ring slice of the CG state
    /// ([`HfProblem::cg_range`]). The tree's shape has no scatter half,
    /// so its replicas keep the whole state.
    fn sharded(&self) -> bool {
        self.sync == SyncStrategy::Ring
    }

    /// Aggregate and normalise a sum over the curvature sample (a GN
    /// product or the Fisher diagonal) over [`HfProblem::cg_range`]:
    /// the ring reduce-scatters the sum into this rank's slice, the
    /// tree allreduces the whole of it.
    fn try_curvature(
        &mut self,
        (mut sum, frames): (Vec<f32>, f64),
        phase: &'static str,
    ) -> Result<Vec<f32>, TrainFault> {
        let rec = self.rec.clone();
        let _span = rec.span("curvature_allreduce", SpanKind::CommCollective);
        if !self.sharded() {
            self.allreduce_sum(&mut sum).map_err(TrainFault::Comm)?;
            let total = self.sample_frames_total(frames).map_err(TrainFault::Comm)?;
            return mean_of(sum, total, phase);
        }
        let reduced = self.comm.reduce_scatter(&mut sum, ReduceOp::Sum);
        let total = reduced.and_then(|()| self.sample_frames_total(frames));
        let own = self.cg_range(self.num_params());
        let mut mine = self.engine.lease(own.len());
        mine.copy_from_slice(&sum[own]);
        self.engine.recycle(sum);
        mean_of(mine, total.map_err(TrainFault::Comm)?, phase)
    }

    fn try_heldout(&mut self, theta: &[f32]) -> Result<HeldoutEval, TrainFault> {
        let mut meta = self.engine.heldout_sums(theta);
        let rec = self.rec.clone();
        let _span = rec.span("heldout_allreduce", SpanKind::CommCollective);
        self.allreduce_sum(&mut meta).map_err(TrainFault::Comm)?;
        heldout_mean(&meta)
    }
}

impl HfProblem for DecentralProblem<'_> {
    fn num_params(&self) -> usize {
        self.engine.net().num_params()
    }

    fn theta(&self) -> Vec<f32> {
        self.engine.net().to_flat()
    }

    fn theta_into(&self, out: &mut Vec<f32>) {
        out.resize(self.num_params(), 0.0);
        self.engine.net().write_flat(out);
    }

    fn set_theta(&mut self, theta: &[f32]) {
        // Replicated state: every rank applies the identical update
        // locally. Zero communication — this is the masterless win
        // over the Master-mode θ broadcast.
        let rec = self.rec.clone();
        let _span = rec.span("sync_weights_replicated", SpanKind::MemoryBound);
        self.engine.set_theta(theta);
        self.sample_frames = None;
    }

    fn gradient(&mut self) -> (f64, Vec<f32>) {
        self.settle(Self::try_gradient)
            .unwrap_or_else(|| (f64::NAN, vec![0.0f32; self.num_params()]))
    }

    fn sample_curvature(&mut self, seed: u64, fraction: f64) {
        if self.latch.poisoned() {
            return;
        }
        self.sample_frames = None;
        self.engine.draw_sample(seed, fraction, self.comm.rank());
    }

    fn gn_product(&mut self, v: &[f32]) -> Vec<f32> {
        let gv = self
            .settle(|p| {
                let sums = p.engine.gn_sums(v);
                p.try_curvature(sums, "gn_product")
            })
            .unwrap_or_else(|| vec![0.0f32; self.cg_range(v.len()).len()]);
        let pool = self.comm.payload_pool().high_water_bytes();
        report_memory(&*self.rec, self.engine.memory(), Some(pool));
        gv
    }

    fn fisher_diagonal(&mut self) -> Option<Vec<f32>> {
        self.settle(|p| {
            let sums = p.engine.fisher_sums();
            p.try_curvature(sums, "fisher")
        })
    }

    fn heldout_eval(&mut self, theta: &[f32]) -> HeldoutEval {
        self.settle(|p| p.try_heldout(theta))
            .unwrap_or(DEGRADED_EVAL)
    }

    fn lease(&mut self, len: usize) -> Vec<f32> {
        self.engine.lease(len)
    }

    fn give_back(&mut self, buf: Vec<f32>) {
        self.engine.recycle(buf);
    }

    fn train_frames(&self) -> u64 {
        self.ledger.train_frames()
    }

    /// The ring slice the reduce-scatter leaves this rank; the whole
    /// vector in tree mode.
    fn cg_range(&self, n: usize) -> Range<usize> {
        if self.sharded() {
            self.comm.ring_slice(n)
        } else {
            0..n
        }
    }

    fn fold_partials(&mut self, partials: &mut [f64]) {
        if self.sharded() {
            self.settle(|p| p.allreduce_sum(partials).map_err(TrainFault::Comm));
        }
    }

    /// A raw-`f32` ring allgather under every codec: a trial θ or a CG
    /// operand is its owners' bits on every rank.
    fn gather(&mut self, full: &mut [f32]) {
        if self.sharded() {
            self.settle(|p| p.comm.allgather(full).map_err(TrainFault::Comm));
        }
    }
}

/// Peer-coordinated recovery; snapshots stay in memory — every rank
/// rewinds to its own replica of θ, so there is no checkpoint file to
/// race on and nothing to ship.
impl Recovering for DecentralProblem<'_> {
    fn latch(&mut self) -> &mut FaultLatch {
        &mut self.latch
    }

    /// After a collective aborted on a dead rank: agree on membership,
    /// acknowledge every agreed death (whichever rank the aborted
    /// collective happened to name), and re-partition each dead rank's
    /// shard onto the survivors.
    ///
    /// Every survivor replays the identical re-partition on its
    /// replica of the ledger, and the coordinator *also* ships each
    /// survivor its extras through the `LOAD_DATA` row's shipment step
    /// (`protocol::ship`, rooted at the coordinator) — the step
    /// master-mode recovery runs from rank 0 — which doubles as a
    /// cross-check that the replicas agree on the new assignment.
    fn recover(&mut self, _rank: usize) -> Result<(), Error> {
        let union = protocol::agree_membership(self.comm).map_err(comm_error)?;
        let unacked = self.comm.unacked_dead();
        let newly: Vec<usize> = (0..self.comm.size())
            .filter(|&r| union & (1u64 << r) != 0)
            .filter(|&r| unacked.contains(&r) || !self.comm.is_dead(r))
            .collect();
        for &r in &newly {
            self.comm.ack_dead(r);
        }
        let me = self.comm.rank();
        for &d in &newly {
            let live: Vec<usize> = (0..self.comm.size())
                .filter(|&r| !self.comm.is_dead(r))
                .collect();
            let extras = self.ledger.reassign(d, &live);
            let coord = live[0];
            let lists = shipments(live.iter().copied().zip(extras));
            let (mine, others): (Vec<_>, Vec<_>) = lists.into_iter().partition(|&(w, _)| w == me);
            let mut wire = if me == coord { others } else { Vec::new() };
            protocol::ship(self.comm, coord, &mut wire).map_err(comm_error)?;
            assert!(
                me == coord || wire == mine,
                "replicated re-partition diverged from the coordinator's"
            );
            self.rec.counter_add("shard_reassignments", 1);
        }
        if !newly.is_empty() {
            // The cached curvature sample belongs to the pre-failure θ
            // and shard; `reshard` drops it.
            self.engine.reshard(
                shard_of(self.corpus, &self.ledger.train[me]),
                shard_of(self.corpus, &self.ledger.held[me]),
            );
            self.sample_frames = None;
        }
        self.rec
            .gauge_set("dead_workers", self.comm.dead_ranks().len() as f64);
        Ok(())
    }
}

/// The outer training loop with snapshot-rewind recovery, run by the
/// master and by every masterless replica.
///
/// Drives the identical [`HfOptimizer::step`] sequence as
/// [`HfOptimizer::train`]; a run that observes no fault is op-for-op
/// (and telemetry-byte-for-byte) identical to it. When a step
/// surfaces a dead rank, the front-end recovers the data assignment
/// ([`Recovering::recover`]), θ is restored from the last snapshot,
/// the optimizer is rebuilt at the snapshot's damping level, and the
/// loop replays from the snapshot iteration. Sample seeds are a pure
/// function of the iteration index, so the replay is
/// bit-deterministic. Returns the statistics and the recovery count.
fn hf_loop<P: Recovering>(
    problem: &mut P,
    config: &DistributedConfig,
    rec: &Arc<InMemoryRecorder>,
) -> Result<(Vec<IterStats>, usize), Error> {
    let hf = config.hf;
    let mut opt = HfOptimizer::with_recorder(hf, rec.clone());
    let mut rule = hf.stop;
    rule.target_loss = rule.target_loss.or(hf.target_heldout_loss);
    let mut stop = StopState::new(rule);
    let mut stats: Vec<IterStats> = Vec::with_capacity(hf.max_iters);
    let mut snap = Snapshot {
        iter: 0,
        theta: problem.theta(),
        lambda: opt.lambda(),
    };
    problem.persist(&snap)?;
    let mut recoveries = 0usize;
    let mut iter = 0usize;
    while iter < hf.max_iters {
        let s = opt.step(problem, iter);
        match problem.latch().take_fault() {
            None => {
                let reason = stop.observe(s.heldout_before, s.heldout_after);
                stats.push(s);
                iter += 1;
                if config.checkpoint_every > 0 && iter.is_multiple_of(config.checkpoint_every) {
                    snap = Snapshot {
                        iter,
                        theta: problem.theta(),
                        lambda: opt.lambda(),
                    };
                    problem.persist(&snap)?;
                }
                if reason.is_some() {
                    break;
                }
            }
            Some(TrainFault::Comm(CommError::RankDead { rank })) => {
                let _span = rec.span("recovery", SpanKind::Scalar);
                rec.event(
                    "worker_failure",
                    vec![
                        ("rank".into(), (rank as u64).into()),
                        ("iter".into(), (iter as u64).into()),
                    ],
                );
                problem.recover(rank)?;
                // Replay θ to the survivors. If a further rank dies
                // during the replay, the problem re-poisons and the
                // next loop iteration recovers again.
                let theta = problem.restore(&snap)?;
                problem.set_theta(&theta);
                opt = HfOptimizer::resume_with_recorder(hf, snap.lambda, rec.clone());
                stop = StopState::new(rule);
                stats.truncate(snap.iter);
                // Re-feed the surviving history so patience/target
                // stopping sees the same sequence an undisturbed run
                // would have.
                for s in &stats {
                    let _ = stop.observe(s.heldout_before, s.heldout_after);
                }
                iter = snap.iter;
                recoveries += 1;
                rec.counter_add("recoveries", 1);
                rec.event(
                    "recovery_complete",
                    vec![("resume_iter".into(), (iter as u64).into())],
                );
            }
            Some(fault) => return Err(fault_error(fault)),
        }
    }
    Ok((stats, recoveries))
}

/// Train a network with distributed Hessian-free optimization.
///
/// Under [`SyncStrategy::Master`] spawns `config.workers + 1` ranks
/// (threads): rank 0 runs the optimizer, ranks 1.. run the worker
/// loop. Under the masterless strategies spawns `config.workers` peer
/// ranks, each running a replica of the optimizer.
pub fn train_distributed(
    net0: &Network<f32>,
    corpus: &Corpus,
    objective: &Objective,
    config: &DistributedConfig,
) -> Result<TrainOutput, Error> {
    train_impl(net0, corpus, objective, config, WorldMode::Normal)
}

/// [`train_distributed`] with every rank's telemetry clock frozen at a
/// shared simulated instant (see
/// [`pdnn_mpisim::run_world_deterministic`]): numerically identical
/// training, but two identical runs produce byte-identical telemetry
/// (spans, counters, events, comm traces). Used by the determinism
/// integration test and by figure pipelines that diff telemetry across
/// commits.
pub fn train_distributed_deterministic(
    net0: &Network<f32>,
    corpus: &Corpus,
    objective: &Objective,
    config: &DistributedConfig,
) -> Result<TrainOutput, Error> {
    train_impl(net0, corpus, objective, config, WorldMode::Deterministic)
}

/// [`train_distributed_deterministic`] under a seeded schedule
/// perturbation (see [`pdnn_mpisim::run_world_perturbed`]): message
/// delivery and rank progress are jittered within MPI-legal
/// reorderings and every rank runs a vector-clock happens-before
/// tracker. A schedule-independent protocol produces bit-identical
/// weights and telemetry for every `seed` and an empty
/// [`TrainOutput::hb_violations`], which the determinism tests assert.
pub fn train_distributed_perturbed(
    net0: &Network<f32>,
    corpus: &Corpus,
    objective: &Objective,
    config: &DistributedConfig,
    seed: u64,
) -> Result<TrainOutput, Error> {
    train_impl(net0, corpus, objective, config, WorldMode::Perturbed(seed))
}

/// [`train_distributed_deterministic`] under a seeded [`FaultPlan`]
/// (see [`pdnn_mpisim::run_world_faulted`]): ranks can be killed,
/// stalled, or have messages dropped at plan-chosen points. Under
/// [`SyncStrategy::Master`] the master recovers by re-sharding onto
/// the survivors and replaying from the last checkpoint; under the
/// masterless modes the survivors run the peer-coordinated
/// membership-agreement round, re-stitch the ring/tree, re-shard, and
/// rewind their replicated optimizers in lockstep. Either way, two
/// runs under the same plan produce bit-identical weights and
/// byte-identical telemetry. (Stall and message-drop faults are
/// best-effort in the masterless modes: the protocol only guarantees
/// recovery for kills, which is what the test suite exercises.)
///
/// The masterless membership round packs the dead set into a `u64`
/// bitmap, so a masterless world above 64 peers is an
/// [`Error::Config`], reported before any rank starts.
pub fn train_distributed_faulted(
    net0: &Network<f32>,
    corpus: &Corpus,
    objective: &Objective,
    config: &DistributedConfig,
    plan: &FaultPlan,
) -> Result<TrainOutput, Error> {
    if config.sync != SyncStrategy::Master && config.workers > u64::BITS as usize {
        return Err(Error::Config(format!(
            "a masterless fault plan supports at most {} peers, not {}",
            u64::BITS,
            config.workers
        )));
    }
    train_impl(
        net0,
        corpus,
        objective,
        config,
        WorldMode::Faulted(plan.clone()),
    )
}

/// How the rank world is built and scheduled.
enum WorldMode {
    /// Real clocks, unperturbed schedule.
    Normal,
    /// Frozen shared telemetry clock (byte-identical reruns).
    Deterministic,
    /// Frozen clock plus seeded schedule perturbation + HB tracking.
    Perturbed(u64),
    /// Frozen clock plus deterministic fault injection + recovery.
    Faulted(FaultPlan),
}

/// What a rank that ran an optimizer (the master, or a masterless
/// peer) hands back through the world runner.
struct RankOut {
    /// Statistics and recovery count.
    result: Result<(Vec<IterStats>, usize), Error>,
    /// Final flat θ (compared across replicas at collection time).
    theta: Vec<f32>,
    /// This rank's view of who died.
    dead_ranks: Vec<usize>,
}

/// Fold the protocol's closing exchange into an optimizer outcome. A
/// death first discovered at teardown still reports `RankDead`, which
/// is tolerable — training already finished and the survivors hold
/// the final θ.
fn close<T>(result: Result<T, Error>, teardown: Result<(), CommError>) -> Result<T, Error> {
    result.and_then(|done| match teardown {
        Ok(()) | Err(CommError::RankDead { .. }) => Ok(done),
        Err(e) => Err(comm_error(e)),
    })
}

fn train_impl(
    net0: &Network<f32>,
    corpus: &Corpus,
    objective: &Objective,
    config: &DistributedConfig,
    mode: WorldMode,
) -> Result<TrainOutput, Error> {
    assert!(config.workers >= 1, "need at least one worker");
    config.hf.validate();

    let masterless = config.sync != SyncStrategy::Master;
    let ledger = ShardLedger::new(corpus, config);
    let theta0 = net0.to_flat();
    let faulted = matches!(mode, WorldMode::Faulted(_));

    let body = |comm: &mut Comm| -> Option<RankOut> {
        comm.set_wire_codec(config.wire_codec);
        // The optimizer shares its rank's recorder, so its spans and
        // events land in the same per-rank telemetry stream.
        let rec = comm.recorder().clone();
        let latch = FaultLatch {
            rec: rec.clone(),
            fault: None,
            strict: !faulted,
        };
        if masterless {
            // ---- peer ----
            // Every rank derives its shard from the shared ledger —
            // nothing is shipped point-to-point.
            let rank = comm.rank();
            let mut problem = DecentralProblem {
                engine: ShardEngine::new(
                    rec.clone(),
                    GemmContext::threaded(config.threads_per_rank),
                    Cow::Borrowed(objective),
                    net0.clone(),
                    shard_of(corpus, &ledger.train[rank]),
                    shard_of(corpus, &ledger.held[rank]),
                ),
                comm,
                rec: rec.clone(),
                sync: config.sync,
                corpus,
                sample_frames: None,
                ledger: ledger.clone(),
                latch,
            };
            let result = hf_loop(&mut problem, config, &rec);
            // Quiescence barrier closing the protocol, as in Master mode.
            let result = close(result, problem.comm.barrier());
            if faulted {
                if let Err(e) = &result {
                    rec.event(
                        "worker_comm_abort",
                        vec![("error".into(), e.to_string().into())],
                    );
                }
            }
            Some(RankOut {
                result,
                theta: problem.theta(),
                dead_ranks: problem.comm.dead_ranks().to_vec(),
            })
        } else if comm.rank() == 0 {
            // ---- master ----
            // load_data: ship each worker its utterance id lists (the
            // LOAD_DATA row's shipments without a header).
            let load_span = rec.span("load_data", SpanKind::CommP2p);
            let lists = (0..config.workers)
                .map(|w| (w + 1, (ledger.train[w].clone(), ledger.held[w].clone())));
            let mut frame = Frame {
                shipments: shipments(lists),
                ..Frame::default()
            };
            if let Err(e) = protocol::run(comm, Opcode::LoadData.command(), &mut frame, |_| ()) {
                // pdnn-lint: allow(l3-no-unwrap): a start-up send can only fail if a worker vanished before training began; under a fault plan sends never error, so this is a harness bug either way
                panic!("load_data send failed: {e}");
            }
            drop(load_span);

            let mut problem = MasterProblem {
                comm,
                rec: rec.clone(),
                config,
                net0,
                theta: theta0.clone(),
                ledger: ledger.clone(),
                latch,
                ws: Workspace::new(),
            };
            // Distribute the initial weights.
            problem.set_theta(&theta0);

            let result = hf_loop(&mut problem, config, &rec);
            let theta = problem.theta();
            let shutdown = Opcode::Shutdown.command();
            let shutdown = protocol::issue(comm, shutdown, &[], &mut Frame::default());
            Some(RankOut {
                result: close(result, shutdown),
                theta,
                dead_ranks: comm.dead_ranks().to_vec(),
            })
        } else {
            // ---- worker ----
            if let Err(e) = worker_loop(comm, corpus, objective, net0, config.threads_per_rank) {
                if faulted {
                    // Expected under a fault plan: this rank was
                    // killed, evicted, or orphaned by a peer's death.
                    rec.event(
                        "worker_comm_abort",
                        vec![("error".into(), e.to_string().into())],
                    );
                } else {
                    // pdnn-lint: allow(l3-no-unwrap): without a fault plan a worker-side communication failure is a harness bug, and unwinding the whole world is the loud failure we want
                    panic!("worker communication failure: {e}");
                }
            }
            None
        }
    };
    // Rank 0 of the rooted protocol is the master, on top of the workers.
    let world = config.workers + usize::from(!masterless);
    let outcomes: Vec<RankOutcome<Option<RankOut>>> = match &mode {
        WorldMode::Normal => pdnn_mpisim::run_world(world, body),
        WorldMode::Deterministic => pdnn_mpisim::run_world_deterministic(world, body),
        WorldMode::Perturbed(seed) => pdnn_mpisim::run_world_perturbed(world, *seed, body),
        WorldMode::Faulted(plan) => pdnn_mpisim::run_world_faulted(world, plan, body),
    };
    let schedule_seed = match &mode {
        WorldMode::Perturbed(seed) => Some(*seed),
        _ => None,
    };

    // Outcomes arrive in rank order: rank 0 first, then the workers.
    let mut traces = Vec::new();
    let mut telemetries = Vec::new();
    let mut events = Vec::new();
    let mut hb_violations = Vec::new();
    let mut rank_outs: Vec<(usize, RankOut)> = Vec::new();
    for mut outcome in outcomes {
        outcome.telemetry.schedule_seed = schedule_seed;
        hb_violations.extend(outcome.hb.into_iter().map(|v| (outcome.rank, v)));
        traces.push(outcome.trace);
        telemetries.push(outcome.telemetry);
        events.push(outcome.events);
        rank_outs.extend(outcome.result.map(|out| (outcome.rank, out)));
    }
    // The reference optimizer is the master, or the lowest masterless
    // replica that finished cleanly (a kill victim exits early with an
    // error and carries stale θ). Every other clean replica must match
    // it bitwise — any drift is a determinism bug in the allreduce or
    // recovery layer.
    let reference = rank_outs
        .iter()
        .position(|(_, o)| o.result.is_ok())
        .unwrap_or(0);
    let ref_rank = rank_outs[reference].0;
    for (rank, out) in &rank_outs {
        if *rank != ref_rank && out.result.is_ok() && out.theta != rank_outs[reference].1.theta {
            return Err(Error::Train(format!(
                "replicated optimizers diverged: rank {rank} θ differs from rank {ref_rank}"
            )));
        }
    }
    let (_, out) = rank_outs.swap_remove(reference);
    let (stats, recoveries) = out.result?;
    let mut network = net0.clone();
    network.set_flat(&out.theta);

    let master_telemetry = telemetries.remove(0);
    Ok(TrainOutput {
        network,
        stats,
        master_trace: traces.remove(0),
        worker_traces: traces,
        master_phases: master_telemetry.phase_totals(),
        worker_phases: telemetries.iter().map(Telemetry::phase_totals).collect(),
        master_telemetry,
        worker_telemetries: telemetries,
        hb_violations,
        schedule_seed,
        dead_ranks: out.dead_ranks,
        recoveries,
        master_events: events.remove(0),
        worker_events: events,
    })
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::protocol::TAG_LOAD_DATA;
    use pdnn_speech::CorpusSpec;
    use pdnn_tensor::gemm::GemmContext;
    use pdnn_util::Prng;

    fn small_corpus(seed: u64) -> Corpus {
        Corpus::generate(CorpusSpec::tiny(seed))
    }

    fn small_net(corpus: &Corpus, seed: u64) -> Network<f32> {
        let mut rng = Prng::new(seed);
        Network::new(
            &[corpus.spec().feature_dim, 12, corpus.spec().states],
            pdnn_dnn::Activation::Sigmoid,
            &mut rng,
        )
    }

    #[test]
    fn distributed_training_improves_heldout_accuracy() {
        let corpus = small_corpus(3);
        let net0 = small_net(&corpus, 1);
        let mut config = DistributedConfig::default();
        config.workers = 3;
        config.hf.max_iters = 8;
        let out = train_distributed(&net0, &corpus, &Objective::CrossEntropy, &config).unwrap();
        assert_eq!(out.stats.len(), 8);
        assert_eq!(out.dead_ranks, Vec::<usize>::new());
        assert_eq!(out.recoveries, 0);
        let first_acc = out
            .stats
            .iter()
            .find(|s| s.accepted)
            .map(|s| s.heldout_accuracy)
            .expect("at least one accepted step");
        let last = out.stats.iter().rev().find(|s| s.accepted).unwrap();
        assert!(
            last.heldout_accuracy >= first_acc,
            "accuracy regressed: {first_acc} -> {}",
            last.heldout_accuracy
        );
        assert!(
            last.heldout_accuracy > 0.5,
            "final accuracy {}",
            last.heldout_accuracy
        );
        // The trained network must differ from the initial one.
        assert_ne!(out.network.to_flat(), net0.to_flat());
    }

    #[test]
    fn worker_count_does_not_change_the_math() {
        // Distributed gradients are sums over a partition of the same
        // data: results for 1 worker and 4 workers must agree to f32
        // reduction tolerance, and both must match the serial problem.
        use crate::problem::DnnProblem;
        let corpus = small_corpus(5);
        let net0 = small_net(&corpus, 2);

        // Serial reference.
        let (train_ids, held_ids) = corpus.split_heldout(0.2);
        let mut serial = DnnProblem::new(
            net0.clone(),
            GemmContext::sequential(),
            corpus.shard(&train_ids),
            corpus.shard(&held_ids),
            Objective::CrossEntropy,
        );
        let (serial_loss, serial_grad) = serial.gradient();

        for workers in [1usize, 2, 4] {
            let config = DistributedConfig {
                workers,
                heldout_frac: 0.2,
                ..Default::default()
            };
            // Capture the first gradient via a one-iteration run's
            // recorded train loss.
            let mut cfg = config.clone();
            cfg.hf.max_iters = 1;
            let out = train_distributed(&net0, &corpus, &Objective::CrossEntropy, &cfg).unwrap();
            let s = &out.stats[0];
            assert!(
                (s.train_loss - serial_loss).abs() < 1e-4,
                "workers={workers}: loss {} vs serial {serial_loss}",
                s.train_loss
            );
            assert!(
                (s.grad_norm - pdnn_tensor::blas1::nrm2(&serial_grad)).abs() < 1e-4,
                "workers={workers}: grad norm {} vs {}",
                s.grad_norm,
                pdnn_tensor::blas1::nrm2(&serial_grad)
            );
        }
    }

    #[test]
    fn sequence_objective_trains_distributed() {
        let corpus = small_corpus(7);
        let net0 = small_net(&corpus, 3);
        let objective = Objective::Sequence(corpus.denominator_graph());
        let mut config = DistributedConfig::default();
        config.workers = 2;
        config.hf.max_iters = 4;
        let out = train_distributed(&net0, &corpus, &objective, &config).unwrap();
        let accepted: Vec<_> = out.stats.iter().filter(|s| s.accepted).collect();
        assert!(!accepted.is_empty(), "no accepted steps");
        let first = accepted.first().unwrap();
        let last = accepted.last().unwrap();
        assert!(
            last.heldout_after <= first.heldout_before,
            "sequence loss did not improve: {} -> {}",
            first.heldout_before,
            last.heldout_after
        );
    }

    #[test]
    fn traces_show_master_collective_and_p2p_traffic() {
        let corpus = small_corpus(9);
        let net0 = small_net(&corpus, 4);
        let mut config = DistributedConfig::default();
        config.workers = 3;
        config.hf.max_iters = 2;
        let out = train_distributed(&net0, &corpus, &Objective::CrossEntropy, &config).unwrap();
        // Master: p2p bytes from load_data, collective bytes from the
        // command/theta broadcasts and reduces.
        assert!(out.master_trace.p2p.bytes_sent > 0, "no load_data traffic");
        assert!(out.master_trace.collective.bytes_sent > 0);
        assert_eq!(out.worker_traces.len(), 3);
        for (w, t) in out.worker_traces.iter().enumerate() {
            assert!(t.p2p.bytes_received > 0, "worker {w} got no assignment");
            assert!(t.collective.bytes_received > 0);
        }
        // Worker phases contain the paper's function names.
        for phases in &out.worker_phases {
            assert!(phases.get("gradient_loss").calls > 0);
            assert!(phases.get("eval_heldout").calls > 0);
            assert!(phases.get("sync_weights_worker").calls > 0);
        }
        assert!(out.master_phases.get("sync_weights_master").calls > 0);
        assert!(out.master_phases.get("load_data").calls > 0);
        // Telemetry is the source of truth: the derived views agree
        // with it, and the optimizer's stream landed on the master.
        assert_eq!(out.master_telemetry.comm, out.master_trace);
        assert_eq!(
            out.master_telemetry.counter("hf_iterations"),
            out.stats.len() as u64
        );
        let events: Vec<_> = out
            .master_telemetry
            .events
            .iter()
            .filter(|e| e.name == "hf_iteration")
            .collect();
        assert_eq!(events.len(), out.stats.len());
        assert_eq!(out.worker_telemetries.len(), 3);
        for (w, t) in out.worker_telemetries.iter().enumerate() {
            assert_eq!(&t.comm, &out.worker_traces[w]);
            assert!(t.spans.iter().any(|s| s.name() == "gradient_loss"));
            assert!(t.spans.iter().any(|s| s.name() == "bcast"));
        }
    }

    #[test]
    fn perturbed_schedule_matches_deterministic_run() {
        let corpus = small_corpus(13);
        let net0 = small_net(&corpus, 6);
        let mut config = DistributedConfig::default();
        config.workers = 3;
        config.hf.max_iters = 2;
        let baseline =
            train_distributed_deterministic(&net0, &corpus, &Objective::CrossEntropy, &config)
                .unwrap();
        assert!(baseline.hb_violations.is_empty());
        assert_eq!(baseline.schedule_seed, None);
        for seed in [1u64, 99] {
            let out = train_distributed_perturbed(
                &net0,
                &corpus,
                &Objective::CrossEntropy,
                &config,
                seed,
            )
            .unwrap();
            assert_eq!(
                out.hb_violations,
                vec![],
                "seed {seed}: happens-before violations"
            );
            assert_eq!(out.schedule_seed, Some(seed));
            assert_eq!(out.master_telemetry.schedule_seed, Some(seed));
            // Bit-identical weights: the protocol is schedule-independent.
            assert_eq!(
                out.network.to_flat(),
                baseline.network.to_flat(),
                "seed {seed}: weights diverged under perturbation"
            );
            // ... and so is every rank's telemetry, but for the line
            // stamping the seed itself.
            assert_eq!(
                telemetry_without_seed(&out),
                telemetry_without_seed(&baseline),
                "seed {seed}: telemetry diverged under perturbation"
            );
        }
    }

    /// Every rank's telemetry JSONL minus the `"type":"schedule"` line.
    fn telemetry_without_seed(out: &TrainOutput) -> Vec<String> {
        let ranks = std::iter::once(&out.master_telemetry).chain(&out.worker_telemetries);
        ranks
            .enumerate()
            .map(|(rank, t)| {
                let jsonl = pdnn_obs::jsonl::to_jsonl_string(rank as u64, t);
                let lines = jsonl
                    .lines()
                    .filter(|l| !l.contains("\"type\":\"schedule\""));
                lines.collect::<Vec<_>>().join("\n")
            })
            .collect()
    }

    #[test]
    fn startup_rendezvous_is_the_load_data_rows_shipments() {
        // Before its first collective, the master sends every worker
        // LOAD_DATA's shipments and each worker receives exactly them.
        let corpus = small_corpus(17);
        let mut config = DistributedConfig::default();
        config.workers = 3;
        config.hf.max_iters = 1;
        let out = train_distributed_deterministic(
            &small_net(&corpus, 7),
            &corpus,
            &Objective::CrossEntropy,
            &config,
        )
        .unwrap();
        let p2p_prefix = |events: &[CommEvent]| {
            let n = events
                .iter()
                .position(|e| matches!(e, CommEvent::Coll { .. }));
            events[..n.unwrap_or(events.len())].to_vec()
        };
        let shipments = Opcode::LoadData.command().shipments;
        let sent = p2p_prefix(&out.master_events);
        assert_eq!(sent.len(), shipments * config.workers);
        for (w, events) in out.worker_events.iter().enumerate() {
            let received = p2p_prefix(events);
            assert_eq!(received.len(), shipments, "worker {}", w + 1);
            assert!(received.iter().all(|e| matches!(
                e,
                CommEvent::Recv {
                    from: 0,
                    tag: TAG_LOAD_DATA,
                    kind: "U64",
                    ..
                }
            )));
        }
        assert!(sent.iter().all(|e| matches!(
            e,
            CommEvent::Send {
                tag: TAG_LOAD_DATA,
                ..
            }
        )));
    }

    #[test]
    fn more_workers_than_utterances_still_works() {
        let mut spec = CorpusSpec::tiny(11);
        spec.utterances = 3;
        let corpus = Corpus::generate(spec);
        let net0 = small_net(&corpus, 5);
        let mut config = DistributedConfig::default();
        config.workers = 6; // some workers get empty shards
        config.hf.max_iters = 2;
        let out = train_distributed(&net0, &corpus, &Objective::CrossEntropy, &config).unwrap();
        assert_eq!(out.stats.len(), 2);
        assert!(out.stats.iter().all(|s| s.train_loss.is_finite()));
    }

    fn ledger_for(workers: usize) -> ShardLedger {
        let config = DistributedConfig {
            workers,
            ..Default::default()
        };
        ShardLedger::new(&small_corpus(15), &config)
    }

    #[test]
    fn ledger_partitions_every_utterance_once() {
        let corpus = small_corpus(15);
        let ledger = ledger_for(4);
        let mut all: Vec<u64> = ledger
            .train
            .iter()
            .chain(&ledger.held)
            .flatten()
            .copied()
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..corpus.utterances().len() as u64).collect();
        assert_eq!(all, expected);
        let (train_ids, _) = corpus.split_heldout(0.2);
        let frames: usize = train_ids
            .iter()
            .map(|&i| corpus.utterances()[i].frames())
            .sum();
        assert_eq!(ledger.train_frames(), frames as u64);
    }

    #[test]
    fn reassign_moves_every_orphan_to_exactly_one_live_slot() {
        let mut ledger = ledger_for(4);
        let before = ledger.clone();
        let (dead, live) = (1usize, [0usize, 2, 3]);
        let extras = ledger.reassign(dead, &live);
        assert!(ledger.train[dead].is_empty() && ledger.held[dead].is_empty());
        assert_eq!(extras.len(), live.len());
        for (now, was) in [(&ledger.train, &before.train), (&ledger.held, &before.held)] {
            // Each live slot kept what it had and gained its extras at
            // the end; the gains together are exactly the orphans.
            let mut gained: Vec<u64> = Vec::new();
            for &slot in &live {
                let (kept, new) = now[slot].split_at(was[slot].len());
                assert_eq!(kept, &was[slot][..]);
                gained.extend(new);
            }
            let mut orphans = was[dead].clone();
            assert!(!orphans.is_empty(), "fixture must orphan something");
            gained.sort_unstable();
            orphans.sort_unstable();
            assert_eq!(gained, orphans);
        }
        for (&slot, (t, h)) in live.iter().zip(&extras) {
            assert!(ledger.train[slot].ends_with(t) && ledger.held[slot].ends_with(h));
        }
    }

    #[test]
    fn reassign_is_a_pure_function_of_the_ledger() {
        // The masterless replicas rely on this: equal ledgers replay
        // the identical re-partition with no communication.
        let (mut a, mut b) = (ledger_for(5), ledger_for(5));
        assert_eq!(a.reassign(3, &[0, 1, 4]), b.reassign(3, &[0, 1, 4]));
        assert_eq!(a.reassign(0, &[1, 4]), b.reassign(0, &[1, 4]));
        assert_eq!((&a.train, &a.held), (&b.train, &b.held));
    }
}
