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
//!   rooted command protocol (table below); `DecentralProblem` is the
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
//!   (`TAG_RECOVER_REPORT` / `TAG_RECOVER_AGREE`), re-stitch the
//!   ring/tree, replay the re-shard on every replica — and whether
//!   snapshots also go to disk is the front-end's business.
//! * **World driver** (`train_impl`) — builds the `ShardLedger`
//!   (who holds which utterance; the one place a dead slot's data is
//!   re-partitioned), runs one closure that picks the master, worker
//!   or peer role, and collects once.
//!
//! Rooted protocol (fan-out is `bcast` from rank 0, fan-in `reduce` to
//! rank 0, matching the paper's move from sockets to MPI collectives
//! in Section V.B):
//!
//! | command      | payload after header           | reply (reduce)                 |
//! |--------------|--------------------------------|--------------------------------|
//! | `SET_THETA`  | f32 θ                          | —                              |
//! | `GRADIENT`   | —                              | f32 Σgrad, f64 [Σloss, frames] |
//! | `SAMPLE`     | header carries seed + fraction | —                              |
//! | `GN_PRODUCT` | f32 v                          | f32 ΣGv, f64 [frames]          |
//! | `HELDOUT`    | f32 trial θ                    | f64 [Σloss, Σcorrect, frames]  |
//! | `FISHER`     | —                              | f32 Σdiag, f64 [frames]        |
//! | `LOAD_DATA`  | u64 extra ids ×2 (p2p)         | —                              |
//! | `SHUTDOWN`   | —                              | —                              |
//!
//! At start-up the master distributes per-worker utterance
//! assignments point-to-point (`load_data` — the paper's Figures 2
//! and 4 show this p2p phase growing with rank count). The peers
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
use crate::shard::ShardEngine;
use crate::stopping::StopState;
use pdnn_dnn::network::Network;
use pdnn_mpisim::{
    CollElem, Comm, CommError, CommEvent, CommTrace, FaultPlan, HbViolation, Payload, RankOutcome,
    ReduceOp, Src, WireCodec,
};
use pdnn_obs::{InMemoryRecorder, Recorder, RecorderExt, SpanKind, Telemetry};
use pdnn_speech::{partition, Corpus, Shard, Strategy};
use pdnn_tensor::gemm::GemmContext;
use pdnn_util::{Error, PhaseTimer};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

const CMD_SHUTDOWN: u64 = 0;
const CMD_SET_THETA: u64 = 1;
const CMD_GRADIENT: u64 = 2;
const CMD_SAMPLE: u64 = 3;
const CMD_GN: u64 = 4;
const CMD_HELDOUT: u64 = 5;
const CMD_FISHER: u64 = 6;
/// Shard-reassignment replay after a worker death (fault recovery).
const CMD_LOAD_DATA: u64 = 7;

/// Tag for the utterance-assignment messages (`load_data`, both the
/// start-up distribution and the recovery replay).
const TAG_LOAD_DATA: u64 = 17;

/// Tag for a survivor's dead-set report to the membership coordinator
/// (masterless recovery).
const TAG_RECOVER_REPORT: u64 = 18;

/// Tag for the coordinator's agreed dead-set broadcast back to the
/// survivors (masterless recovery).
const TAG_RECOVER_AGREE: u64 = 19;

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
/// lockstep (asserted at the end of every run).
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
    /// neighbour-only traffic).
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
/// [`Telemetry`] fields); the [`PhaseTimer`] and [`CommTrace`] fields
/// are derived views kept for convenience and compatibility.
pub struct TrainOutput {
    /// The trained network (reconstructed on the master).
    pub network: Network<f32>,
    /// Per-iteration optimizer statistics.
    pub stats: Vec<IterStats>,
    /// Master communication trace (p2p vs collective split).
    pub master_trace: CommTrace,
    /// Worker communication traces, worker order.
    pub worker_traces: Vec<CommTrace>,
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
}

impl MasterProblem<'_> {
    fn command(&mut self, header: Vec<u64>) -> Result<(), CommError> {
        let mut buf = header;
        self.comm.bcast(&mut buf, 0)
    }

    /// One command exchange under its collective span (recorded even
    /// when the poisoned front-end skips the exchange).
    fn exchange<T>(
        &mut self,
        phase: &'static str,
        attempt: impl FnOnce(&mut Self) -> Result<T, TrainFault>,
    ) -> Option<T> {
        let rec = self.rec.clone();
        let _span = rec.span(phase, SpanKind::CommCollective);
        self.settle(attempt)
    }

    fn try_set_theta(&mut self) -> Result<(), TrainFault> {
        let c = self.command(vec![CMD_SET_THETA]);
        let mut buf = self.theta.clone();
        let b = self.comm.bcast(&mut buf, 0);
        c.and(b).map_err(TrainFault::Comm)
    }

    fn try_gradient(&mut self) -> Result<(f64, Vec<f32>), TrainFault> {
        // Issue every collective of the command before inspecting any
        // error (`Result::and` keeps the first), so master and workers
        // never skew even when an op in the middle fails.
        let c = self.command(vec![CMD_GRADIENT]);
        let mut grad = vec![0.0f32; self.theta.len()];
        let r1 = self.comm.reduce(&mut grad, ReduceOp::Sum, 0);
        let mut meta = vec![0.0f64; 2];
        let r2 = self.comm.reduce(&mut meta, ReduceOp::Sum, 0);
        c.and(r1).and(r2).map_err(TrainFault::Comm)?;
        let grad = mean_of(grad, meta[1], "gradient")?;
        Ok((meta[0] / meta[1], grad))
    }

    fn try_sample(&mut self, seed: u64, fraction: f64) -> Result<(), TrainFault> {
        self.command(vec![CMD_SAMPLE, seed, fraction.to_bits()])
            .map_err(TrainFault::Comm)
    }

    fn try_gn_product(&mut self, v: &[f32]) -> Result<Vec<f32>, TrainFault> {
        let c = self.command(vec![CMD_GN]);
        let mut buf = v.to_vec();
        let b = self.comm.bcast(&mut buf, 0);
        let mut gv = vec![0.0f32; v.len()];
        let r1 = self.comm.reduce(&mut gv, ReduceOp::Sum, 0);
        let mut meta = vec![0.0f64; 1];
        let r2 = self.comm.reduce(&mut meta, ReduceOp::Sum, 0);
        c.and(b).and(r1).and(r2).map_err(TrainFault::Comm)?;
        mean_of(gv, meta[0], "gn_product")
    }

    fn try_fisher(&mut self) -> Result<Vec<f32>, TrainFault> {
        let c = self.command(vec![CMD_FISHER]);
        let mut diag = vec![0.0f32; self.theta.len()];
        let r1 = self.comm.reduce(&mut diag, ReduceOp::Sum, 0);
        let mut meta = vec![0.0f64; 1];
        let r2 = self.comm.reduce(&mut meta, ReduceOp::Sum, 0);
        c.and(r1).and(r2).map_err(TrainFault::Comm)?;
        mean_of(diag, meta[0], "fisher")
    }

    fn try_heldout(&mut self, theta: &[f32]) -> Result<HeldoutEval, TrainFault> {
        let c = self.command(vec![CMD_HELDOUT]);
        let mut buf = theta.to_vec();
        let b = self.comm.bcast(&mut buf, 0);
        let mut meta = vec![0.0f64; 3];
        let r = self.comm.reduce(&mut meta, ReduceOp::Sum, 0);
        c.and(b).and(r).map_err(TrainFault::Comm)?;
        heldout_mean(&meta)
    }

    /// Re-partition dead worker slot `dead` onto the survivors and
    /// replay the assignments via `LOAD_DATA`. The caller has already
    /// acknowledged the death, so the command broadcast reaches
    /// exactly the live workers.
    fn try_redistribute(&mut self, dead: usize) -> Result<(), TrainFault> {
        let live: Vec<usize> = (0..self.config.workers)
            .filter(|&w| !self.comm.is_dead(w + 1))
            .collect();
        let extras = self.ledger.reassign(dead, &live);
        self.command(vec![CMD_LOAD_DATA])
            .map_err(TrainFault::Comm)?;
        for (&w, (t, h)) in live.iter().zip(extras) {
            let s1 = self.comm.send(w + 1, TAG_LOAD_DATA, Payload::U64(t));
            let s2 = self.comm.send(w + 1, TAG_LOAD_DATA, Payload::U64(h));
            s1.and(s2).map_err(TrainFault::Comm)?;
        }
        Ok(())
    }
}

impl HfProblem for MasterProblem<'_> {
    fn num_params(&self) -> usize {
        self.theta.len()
    }

    fn theta(&self) -> Vec<f32> {
        self.theta.clone()
    }

    fn set_theta(&mut self, theta: &[f32]) {
        self.theta = theta.to_vec();
        self.exchange("sync_weights_master", Self::try_set_theta);
    }

    fn gradient(&mut self) -> (f64, Vec<f32>) {
        self.exchange("gradient_reduce", Self::try_gradient)
            .unwrap_or_else(|| (f64::NAN, vec![0.0f32; self.theta.len()]))
    }

    fn sample_curvature(&mut self, seed: u64, fraction: f64) {
        self.exchange("sample_curvature", |p| p.try_sample(seed, fraction));
    }

    fn gn_product(&mut self, v: &[f32]) -> Vec<f32> {
        self.exchange("curvature_reduce", |p| p.try_gn_product(v))
            .unwrap_or_else(|| vec![0.0f32; v.len()])
    }

    fn fisher_diagonal(&mut self) -> Option<Vec<f32>> {
        self.exchange("curvature_reduce", Self::try_fisher)
    }

    fn heldout_eval(&mut self, theta: &[f32]) -> HeldoutEval {
        self.exchange("heldout_reduce", |p| p.try_heldout(theta))
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
        self.try_redistribute(rank - 1).map_err(fault_error)
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
/// until `SHUTDOWN`. Each arm is "receive operands → engine call →
/// reduce".
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

    // load_data: receive this worker's utterance assignments. The
    // typed receive surfaces a tag/kind-mismatched sender as a
    // `CommError::TypeMismatch` instead of a payload panic.
    let load_span = rec.span("load_data", SpanKind::CommP2p);
    let mut train_ids = comm
        // pdnn-lint: allow(l8-timed-recv): initial rendezvous — the master sends both assignment messages before training starts and faults are only armed at collectives, so blocking here cannot outlive a live master
        .recv_vec::<u64>(Src::Of(0), TAG_LOAD_DATA)?;
    let mut held_ids = comm
        // pdnn-lint: allow(l8-timed-recv): initial rendezvous — second half of the startup shard transfer, same reasoning as the first receive
        .recv_vec::<u64>(Src::Of(0), TAG_LOAD_DATA)?;
    // `net0` only fixes the architecture: weights arrive via SET_THETA
    // before any compute command.
    let mut engine = ShardEngine::new(
        rec.clone(),
        // One thread degrades to the sequential context.
        GemmContext::threaded(threads),
        Cow::Borrowed(objective),
        net0.clone(),
        shard_of(corpus, &train_ids),
        shard_of(corpus, &held_ids),
    );
    drop(load_span);

    // The typed re-bindings (`let mut grad: Vec<f32> = grad`) are what
    // pdnn-protocheck's lexical pass reads a reduce buffer's element
    // kind from.
    loop {
        let mut header = vec![0u64; 1];
        comm.bcast(&mut header, 0)?;
        match header[0] {
            CMD_SHUTDOWN => break,
            CMD_SET_THETA => {
                let mut theta: Vec<f32> = Vec::new();
                comm.bcast(&mut theta, 0)?;
                {
                    let _s = rec.span("sync_weights_worker", SpanKind::MemoryBound);
                    engine.set_theta(&theta);
                }
                engine.recycle(theta);
            }
            CMD_GRADIENT => {
                let (loss_sum, grad, frames) = engine.gradient_sums();
                let mut grad: Vec<f32> = grad;
                comm.reduce(&mut grad, ReduceOp::Sum, 0)?;
                let mut meta: Vec<f64> = vec![loss_sum, frames];
                comm.reduce(&mut meta, ReduceOp::Sum, 0)?;
                engine.recycle(grad);
            }
            CMD_SAMPLE => {
                assert_eq!(header.len(), 3, "SAMPLE header must carry seed+fraction");
                engine.draw_sample(header[1], f64::from_bits(header[2]), comm.rank());
            }
            CMD_GN => {
                let mut v: Vec<f32> = Vec::new();
                comm.bcast(&mut v, 0)?;
                let (gv, frames) = engine.gn_sums(&v);
                let mut gv: Vec<f32> = gv;
                comm.reduce(&mut gv, ReduceOp::Sum, 0)?;
                let mut meta: Vec<f64> = vec![frames];
                comm.reduce(&mut meta, ReduceOp::Sum, 0)?;
                engine.recycle(gv);
                engine.recycle(v);
                engine.report_arena();
            }
            CMD_FISHER => {
                let (diag, frames) = engine.fisher_sums();
                let mut diag: Vec<f32> = diag;
                comm.reduce(&mut diag, ReduceOp::Sum, 0)?;
                let mut meta: Vec<f64> = vec![frames];
                comm.reduce(&mut meta, ReduceOp::Sum, 0)?;
            }
            CMD_HELDOUT => {
                let mut trial: Vec<f32> = Vec::new();
                comm.bcast(&mut trial, 0)?;
                let [loss_sum, correct, frames] = engine.heldout_sums(&trial);
                let mut meta: Vec<f64> = vec![loss_sum, correct, frames];
                comm.reduce(&mut meta, ReduceOp::Sum, 0)?;
                engine.recycle(trial);
            }
            CMD_LOAD_DATA => {
                // A peer died: the master re-partitioned its shard and
                // ships this worker its extra utterance assignments.
                // The timed receive keeps recovery itself recoverable:
                // if the master dies mid-redistribute, the worker
                // surfaces Timeout instead of blocking forever.
                let _s = rec.span("load_data", SpanKind::CommP2p);
                let timeout = comm.p2p_timeout();
                let extra = comm.recv_vec_timeout::<u64>(Src::Of(0), TAG_LOAD_DATA, timeout)?;
                train_ids.extend(extra);
                let extra = comm.recv_vec_timeout::<u64>(Src::Of(0), TAG_LOAD_DATA, timeout)?;
                held_ids.extend(extra);
                engine.reshard(shard_of(corpus, &train_ids), shard_of(corpus, &held_ids));
                rec.counter_add("shard_reassignments", 1);
            }
            // pdnn-lint: allow(l3-no-unwrap): an unknown opcode is a protocol bug between master and worker builds, not a runtime condition to recover from
            other => panic!("unknown command {other}"),
        }
    }
    // Epoch barrier closing the protocol: no rank exits while another
    // may still be mid-collective, so the quiescence check at exit
    // (static p3 / dynamic UnconsumedAtExit) is meaningful.
    comm.barrier()?;
    Ok(())
}

/// A peer of the symmetric allreduce protocol (the masterless sync
/// strategies): engine call → allreduce → normalise. No command
/// headers, no rooted collectives, no p2p outside recovery.
///
/// Every rank holds one of these and drives its own replicated
/// [`HfOptimizer`]; because ring and tree allreduce return
/// bit-identical results on every rank, the replicas make identical
/// decisions and their θ vectors never diverge.
struct DecentralProblem<'a> {
    comm: &'a mut Comm,
    rec: Arc<InMemoryRecorder>,
    sync: SyncStrategy,
    theta: Vec<f32>,
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
    /// Window for the membership-agreement round.
    recover_timeout: Duration,
}

impl DecentralProblem<'_> {
    /// Sum-allreduce under the configured masterless strategy.
    fn allreduce_sum<T: CollElem>(&mut self, buf: &mut [T]) -> Result<(), CommError> {
        match self.sync {
            SyncStrategy::Ring => self.comm.allreduce_ring(buf, ReduceOp::Sum),
            _ => self.comm.allreduce_tree(buf, ReduceOp::Sum),
        }
    }

    /// Bitmap of this rank's locally observed dead set (acknowledged
    /// or not).
    fn dead_bitmap(&self) -> u64 {
        debug_assert!(
            self.comm.size() <= 64,
            "membership bitmap holds at most 64 ranks"
        );
        let dead = self.comm.dead_ranks();
        dead.iter().fold(0u64, |acc, &r| acc | (1u64 << r))
    }

    /// Membership-agreement round: every survivor reports its locally
    /// observed dead set to a coordinator — the lowest rank it does
    /// not know to be dead — which unions the reports and sends the
    /// agreed set back. Deterministic: the coordinator is a pure
    /// function of the dead set, reports are collected in ascending
    /// rank order, and the agreed bitmap is identical on every
    /// survivor.
    ///
    /// Survivors abort the failed collective up to one detect-timeout
    /// apart, so this round runs under the generous `timeout`
    /// (the plan's worker timeout); once AGREE lands everybody is
    /// re-synchronized to within one hop and the re-stitched
    /// collectives can safely use the short detect-timeout again. A
    /// reporter that stays silent past the window is evicted and
    /// folded into the agreed set; a dead coordinator makes the
    /// survivors retry under the next candidate.
    fn agree_membership(&mut self, timeout: Duration) -> Result<u64, CommError> {
        loop {
            let me = self.comm.rank();
            let Some(coord) = (0..self.comm.size()).find(|&r| !self.comm.is_dead(r)) else {
                return Err(CommError::WorldShutDown);
            };
            if coord == me {
                let mut union = self.dead_bitmap();
                for src in 0..self.comm.size() {
                    if src == me || self.comm.is_dead(src) {
                        continue;
                    }
                    match self.comm.recv_vec_timeout::<u64>(
                        Src::Of(src),
                        TAG_RECOVER_REPORT,
                        timeout,
                    ) {
                        Ok(bits) => union |= bits.first().copied().unwrap_or(0),
                        Err(CommError::RankDead { rank }) => union |= 1u64 << rank,
                        Err(CommError::Timeout) => {
                            self.comm.evict(src);
                            union |= 1u64 << src;
                        }
                        Err(e) => return Err(e),
                    }
                }
                for dst in 0..self.comm.size() {
                    if dst == me || union & (1u64 << dst) != 0 {
                        continue;
                    }
                    self.comm
                        .send(dst, TAG_RECOVER_AGREE, Payload::U64(vec![union]))?;
                }
                return Ok(union);
            }
            self.comm.send(
                coord,
                TAG_RECOVER_REPORT,
                Payload::U64(vec![self.dead_bitmap()]),
            )?;
            match self
                .comm
                .recv_vec_timeout::<u64>(Src::Of(coord), TAG_RECOVER_AGREE, timeout)
            {
                Ok(bits) => return Ok(bits.first().copied().unwrap_or(0)),
                Err(CommError::RankDead { .. }) => {
                    // Already marked dead by the receive path; the next
                    // pass picks the next candidate coordinator.
                }
                Err(CommError::Timeout) => self.comm.evict(coord),
                Err(e) => return Err(e),
            }
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

    /// Aggregate and normalise a sum over the curvature sample (a GN
    /// product or the Fisher diagonal).
    fn try_curvature(
        &mut self,
        (mut sum, frames): (Vec<f32>, f64),
        phase: &'static str,
    ) -> Result<Vec<f32>, TrainFault> {
        let rec = self.rec.clone();
        let _span = rec.span("curvature_allreduce", SpanKind::CommCollective);
        self.allreduce_sum(&mut sum).map_err(TrainFault::Comm)?;
        let total = self.sample_frames_total(frames).map_err(TrainFault::Comm)?;
        mean_of(sum, total, phase)
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
        self.theta.len()
    }

    fn theta(&self) -> Vec<f32> {
        self.theta.clone()
    }

    fn set_theta(&mut self, theta: &[f32]) {
        // Replicated state: every rank applies the identical update
        // locally. Zero communication — this is the masterless win
        // over the Master-mode θ broadcast.
        let rec = self.rec.clone();
        let _span = rec.span("sync_weights_replicated", SpanKind::MemoryBound);
        self.theta = theta.to_vec();
        self.engine.set_theta(theta);
        self.sample_frames = None;
    }

    fn gradient(&mut self) -> (f64, Vec<f32>) {
        self.settle(Self::try_gradient)
            .unwrap_or_else(|| (f64::NAN, vec![0.0f32; self.theta.len()]))
    }

    fn sample_curvature(&mut self, seed: u64, fraction: f64) {
        if self.latch.poisoned() {
            return;
        }
        self.sample_frames = None;
        self.engine.draw_sample(seed, fraction, self.comm.rank());
    }

    fn gn_product(&mut self, v: &[f32]) -> Vec<f32> {
        self.settle(|p| {
            let sums = p.engine.gn_sums(v);
            p.try_curvature(sums, "gn_product")
        })
        .unwrap_or_else(|| vec![0.0f32; v.len()])
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

    fn train_frames(&self) -> u64 {
        self.ledger.train_frames()
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
    /// survivor its extras over `TAG_LOAD_DATA` — the same wire
    /// exchange as master-mode `CMD_LOAD_DATA` recovery — which
    /// doubles as a cross-check that the replicas agree on the new
    /// assignment.
    fn recover(&mut self, _rank: usize) -> Result<(), Error> {
        let timeout = self.recover_timeout;
        let union = self.agree_membership(timeout).map_err(comm_error)?;
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
            if me == coord {
                // `live[0]` is the coordinator itself.
                for (&w, (t, h)) in live.iter().zip(extras).skip(1) {
                    let s1 = self.comm.send(w, TAG_LOAD_DATA, Payload::U64(t));
                    let s2 = self.comm.send(w, TAG_LOAD_DATA, Payload::U64(h));
                    s1.and(s2).map_err(comm_error)?;
                }
            } else {
                let t = self
                    .comm
                    .recv_vec_timeout::<u64>(Src::Of(coord), TAG_LOAD_DATA, timeout)
                    .map_err(comm_error)?;
                let h = self
                    .comm
                    .recv_vec_timeout::<u64>(Src::Of(coord), TAG_LOAD_DATA, timeout)
                    .map_err(comm_error)?;
                let mine = live.iter().position(|&w| w == me);
                assert!(
                    (t, h) == mine.map(|i| extras[i].clone()).unwrap_or_default(),
                    "replicated re-partition diverged from the coordinator's"
                );
            }
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
/// [`TrainOutput::hb_violations`]; `pdnn-protocheck` pass 2 sweeps K
/// seeds asserting exactly that.
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
pub fn train_distributed_faulted(
    net0: &Network<f32>,
    corpus: &Corpus,
    objective: &Objective,
    config: &DistributedConfig,
    plan: &FaultPlan,
) -> Result<TrainOutput, Error> {
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
    let (faulted, recover_timeout) = match &mode {
        WorldMode::Faulted(plan) => (true, plan.worker_timeout),
        _ => (false, Duration::from_secs(60)),
    };

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
                theta: theta0.clone(),
                corpus,
                sample_frames: None,
                ledger: ledger.clone(),
                latch,
                recover_timeout,
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
            // load_data: ship each worker its utterance id lists.
            let load_span = rec.span("load_data", SpanKind::CommP2p);
            for w in 0..config.workers {
                let s1 = comm.send(w + 1, TAG_LOAD_DATA, Payload::U64(ledger.train[w].clone()));
                let s2 = comm.send(w + 1, TAG_LOAD_DATA, Payload::U64(ledger.held[w].clone()));
                if let Err(e) = s1.and(s2) {
                    // pdnn-lint: allow(l3-no-unwrap): a start-up send can only fail if a worker vanished before training began; under a fault plan sends never error, so this is a harness bug either way
                    panic!("load_data send to worker {w} failed: {e}");
                }
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
            };
            // Distribute the initial weights.
            problem.set_theta(&theta0);

            let result = hf_loop(&mut problem, config, &rec);
            let theta = problem.theta();
            let shutdown = problem.command(vec![CMD_SHUTDOWN]);
            // Matching half of the workers' shutdown barrier.
            let barrier = comm.barrier();
            Some(RankOut {
                result: close(result, shutdown.and(barrier)),
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
        }
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
