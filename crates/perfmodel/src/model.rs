//! The composed timing model: HF iteration structure × machine model.
//!
//! A run is decomposed into the paper's named phases. Each phase has
//! wire time (shared by master and workers), worker compute time
//! (master blocks inside the pending collective — exactly why the
//! paper's Figure 4 shows the master spending most of its MPI time in
//! collectives), and master compute time (workers block waiting for
//! the next command — Figure 5's worker-side collective time).
//!
//! Wall time of a phase = wire + worker compute + master compute,
//! because the protocol is synchronous: the master cannot issue the
//! next command until the reduce lands, and workers cannot proceed
//! until the next broadcast arrives.

use crate::bgq::comm_model::Network;
use crate::bgq::counters::PhaseKind;
use crate::bgq::node::{rank_effective_flops, NodeConfig};
use crate::workload::JobSpec;
use pdnn_util::cast;
use pdnn_util::Prng;

/// Application-level efficiency on top of the kernel-level node model:
/// activation functions, Python^W glue, short GEMMs from per-rank
/// batch fragmentation, I/O. Calibrated against Table I (BG/Q 4096
/// ranks, 50 h CE ≈ 1.3 h).
const BGQ_APP_EFFICIENCY: f64 = 0.15;

/// Master scalar throughput for CG vector arithmetic: a single
/// in-order A2 hardware thread doing memory-bound AXPY/dot chains on
/// 10-100 M-element vectors — roughly 0.1 GFLOP/s. This serial
/// component is the Amdahl term behind the paper's sub-linear scaling
/// beyond 4096 ranks (the workers scale; the master does not).
const MASTER_SCALAR_FLOPS: f64 = 0.1e9;

/// Parameter-length vector operations the master performs per CG
/// iteration (residual/direction updates, dots, iterate-series
/// bookkeeping for the backtracking pass).
const CG_MASTER_VECTOR_OPS: f64 = 20.0;

/// Master-side per-rank coordination cost per collective operation
/// (command dispatch, completion bookkeeping). Grows linearly with
/// rank count — the term behind the master-side MPI-time growth in
/// Figure 4.
const MASTER_PER_RANK_OP_SECONDS: f64 = 50e-6;

/// The Xeon cluster master runs on an out-of-order core with a real
/// memory subsystem; its vector arithmetic is ~10x the A2 thread.
const XEON_MASTER_SCALAR_FLOPS: f64 = 1.0e9;

/// Per-worker handshake during initial data distribution.
const LOAD_DATA_HANDSHAKE_SECONDS: f64 = 1.2e-3;

/// Xeon cluster: effective FLOP/s per process (a multi-core node
/// socket running threaded BLAS; calibrated against Table I's 9 h /
/// 96 processes for the 50 h CE job).
const XEON_PROCESS_FLOPS: f64 = 2.9e9 * 8.0 * 8.0 * 0.28;

/// A BG/Q run configuration, `ranks-ranksPerNode-threads` in the
/// paper's notation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BgqRun {
    /// Total MPI ranks (one is the master).
    pub ranks: usize,
    /// Ranks per node.
    pub ranks_per_node: usize,
    /// Threads per rank.
    pub threads_per_rank: usize,
}

impl BgqRun {
    /// `(ranks, ranks/node, threads)` constructor.
    pub fn new(ranks: usize, ranks_per_node: usize, threads_per_rank: usize) -> Self {
        assert!(ranks >= 2, "need a master and at least one worker");
        assert_eq!(ranks % ranks_per_node, 0, "ranks must fill whole nodes");
        BgqRun {
            ranks,
            ranks_per_node,
            threads_per_rank,
        }
    }

    /// Paper-style label, e.g. `4096-4-16`.
    pub(crate) fn label(&self) -> String {
        format!(
            "{}-{}-{}",
            self.ranks, self.ranks_per_node, self.threads_per_rank
        )
    }

    /// Nodes occupied.
    pub(crate) fn nodes(&self) -> usize {
        self.ranks / self.ranks_per_node
    }

    /// Node-level execution configuration.
    pub(crate) fn node_config(&self) -> NodeConfig {
        NodeConfig {
            ranks_per_node: self.ranks_per_node,
            threads_per_rank: self.threads_per_rank,
        }
        .validated()
    }
}

/// One modeled phase of the run.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Paper function name (`gradient_loss`, `sync_weights_master`…).
    pub name: &'static str,
    /// Counter profile of the compute part.
    pub kind: PhaseKind,
    /// Collective wire time (seconds, whole run).
    pub wire_coll_s: f64,
    /// Point-to-point wire time.
    pub wire_p2p_s: f64,
    /// Worker compute (slowest worker, includes imbalance).
    pub worker_compute_s: f64,
    /// Master compute (serial).
    pub master_compute_s: f64,
}

impl Phase {
    /// Wall-clock contribution of the phase.
    fn wall_s(&self) -> f64 {
        self.wire_coll_s + self.wire_p2p_s + self.worker_compute_s + self.master_compute_s
    }

    /// Master MPI time in collectives: wire time plus the wait for
    /// worker compute (the master blocks inside MPI_Reduce).
    pub(crate) fn master_mpi_coll_s(&self) -> f64 {
        if self.wire_coll_s > 0.0 {
            self.wire_coll_s + self.worker_compute_s
        } else {
            0.0
        }
    }

    /// Master MPI time in point-to-point calls.
    pub(crate) fn master_mpi_p2p_s(&self) -> f64 {
        self.wire_p2p_s
    }

    /// Worker MPI time in collectives: wire plus the wait for master
    /// compute (workers block inside the next MPI_Bcast).
    pub(crate) fn worker_mpi_coll_s(&self) -> f64 {
        if self.wire_coll_s > 0.0 {
            self.wire_coll_s + self.master_compute_s
        } else {
            0.0
        }
    }

    /// Worker MPI time in point-to-point calls.
    pub(crate) fn worker_mpi_p2p_s(&self) -> f64 {
        self.wire_p2p_s
    }
}

/// A fully decomposed modeled run.
#[derive(Clone, Debug)]
pub struct RunBreakdown {
    /// Configuration label (`4096-4-16` or `xeon-96`).
    pub label: String,
    /// Phases in execution order.
    pub phases: Vec<Phase>,
}

impl RunBreakdown {
    /// Total wall-clock seconds.
    pub fn total_seconds(&self) -> f64 {
        self.phases.iter().map(Phase::wall_s).sum()
    }

    /// Total hours.
    pub fn total_hours(&self) -> f64 {
        self.total_seconds() / 3600.0
    }

    /// Look up a phase by name.
    pub fn phase(&self, name: &str) -> Option<&Phase> {
        self.phases.iter().find(|p| p.name == name)
    }
}

/// Model a job on a BG/Q partition.
pub fn bgq_time(job: &JobSpec, run: &BgqRun) -> RunBreakdown {
    job.validate();
    let cfg = run.node_config();
    let workers = cast::exact_f64_usize(run.ranks - 1);
    let net = Network::bgq(run.nodes());
    let rank_flops = rank_effective_flops(cfg) * BGQ_APP_EFFICIENCY;

    let frames = cast::exact_f64(job.frames());
    let train_frames = frames * (1.0 - job.heldout_fraction);
    let fpw = train_frames / workers * job.imbalance;
    let heldout_fpw = frames * job.heldout_fraction / workers * job.imbalance;
    let pbytes = job.param_bytes();
    let iters = cast::exact_f64_usize(job.hf_iters);
    let cg = cast::exact_f64_usize(job.cg_iters);
    let evals = cast::exact_f64_usize(job.backtrack_evals);

    // Deterministic per-config jitter for the curvature sample (the
    // paper: the random resample makes worker_curvature_product
    // noisy).
    // pdnn-lint: allow(l6-lossy-cast): usize -> u64 widening is lossless on supported targets
    let mut jrng = Prng::new(run.ranks as u64 * 31 + run.threads_per_rank as u64);
    let curvature_jitter = 1.0 + 0.015 * (2.0 * jrng.uniform() - 1.0);

    // Per-collective master bookkeeping (grows with ranks).
    let master_op = MASTER_PER_RANK_OP_SECONDS * cast::exact_f64_usize(run.ranks);

    // ---- load_data -------------------------------------------------
    let data_bytes = cast::exact_f64(job.data_bytes());
    let load_wire =
        data_bytes / (crate::bgq::torus::LINK_BANDWIDTH) + workers * LOAD_DATA_HANDSHAKE_SECONDS;
    let load_data = Phase {
        name: "load_data",
        kind: PhaseKind::MemoryBound,
        wire_coll_s: 0.0,
        wire_p2p_s: load_wire,
        worker_compute_s: data_bytes / workers / 2.0e9, // local unpack
        master_compute_s: data_bytes / 8.0e9,           // I/O staging
    };

    // ---- sync_weights ----------------------------------------------
    // One parameter broadcast per HF iteration plus the initial one.
    let n_sync = iters + 1.0;
    let sync_weights = Phase {
        name: "sync_weights",
        kind: PhaseKind::CommWait,
        wire_coll_s: n_sync * net.bcast_time(pbytes, run.ranks),
        wire_p2p_s: 0.0,
        worker_compute_s: 0.0,
        master_compute_s: n_sync * master_op,
    };

    // ---- gradient_loss ---------------------------------------------
    let grad_compute =
        iters * fpw * job.gradient_batch_fraction * job.gradient_flops_per_frame() / rank_flops;
    let gradient_loss = Phase {
        name: "gradient_loss",
        kind: PhaseKind::DenseCompute,
        wire_coll_s: iters * net.reduce_time(pbytes, run.ranks),
        wire_p2p_s: 0.0,
        worker_compute_s: grad_compute,
        master_compute_s: iters * master_op,
    };

    // ---- worker_curvature_product ----------------------------------
    let sample_fpw = fpw * job.curvature_fraction * curvature_jitter;
    let gn_compute = iters * cg * sample_fpw * job.gn_flops_per_frame() / rank_flops;
    // Master CG vector arithmetic: P-length ops per CG iteration.
    let cg_master = iters
        * cg
        * (CG_MASTER_VECTOR_OPS * cast::exact_f64(job.params()) / MASTER_SCALAR_FLOPS + master_op);
    let curvature = Phase {
        name: "worker_curvature_product",
        kind: PhaseKind::DenseCompute,
        wire_coll_s: iters
            * cg
            * (net.bcast_time(pbytes, run.ranks) + net.reduce_time(pbytes, run.ranks)),
        wire_p2p_s: 0.0,
        worker_compute_s: gn_compute,
        master_compute_s: cg_master,
    };

    // ---- eval_heldout ----------------------------------------------
    let heldout_compute = iters * evals * heldout_fpw * job.heldout_flops_per_frame() / rank_flops;
    let eval_heldout = Phase {
        name: "eval_heldout",
        kind: PhaseKind::DenseCompute,
        wire_coll_s: iters
            * evals
            * (net.bcast_time(pbytes, run.ranks) + net.reduce_time(24, run.ranks)),
        wire_p2p_s: 0.0,
        worker_compute_s: heldout_compute,
        master_compute_s: iters * evals * master_op,
    };

    RunBreakdown {
        label: run.label(),
        phases: vec![
            load_data,
            sync_weights,
            gradient_loss,
            curvature,
            eval_heldout,
        ],
    }
}

/// Model a job on the Intel Xeon cluster baseline (Table I).
pub fn xeon_time(job: &JobSpec, processes: usize) -> RunBreakdown {
    job.validate();
    assert!(processes >= 2, "need a master and at least one worker");
    let workers = cast::exact_f64_usize(processes - 1);
    let net = crate::bgq::comm_model::ethernet_1g();
    let proc_flops = XEON_PROCESS_FLOPS;

    let frames = cast::exact_f64(job.frames());
    let train_frames = frames * (1.0 - job.heldout_fraction);
    let fpw = train_frames / workers * job.imbalance;
    let heldout_fpw = frames * job.heldout_fraction / workers * job.imbalance;
    let pbytes = job.param_bytes();
    let iters = cast::exact_f64_usize(job.hf_iters);
    let cg = cast::exact_f64_usize(job.cg_iters);
    let evals = cast::exact_f64_usize(job.backtrack_evals);

    let load_data = Phase {
        name: "load_data",
        kind: PhaseKind::MemoryBound,
        wire_coll_s: 0.0,
        wire_p2p_s: cast::exact_f64(job.data_bytes()) / 125e6,
        worker_compute_s: cast::exact_f64(job.data_bytes()) / workers / 1.0e9,
        master_compute_s: cast::exact_f64(job.data_bytes()) / 2.0e9,
    };
    let sync_weights = Phase {
        name: "sync_weights",
        kind: PhaseKind::CommWait,
        wire_coll_s: (iters + 1.0) * net.bcast_time(pbytes, processes),
        wire_p2p_s: 0.0,
        worker_compute_s: 0.0,
        master_compute_s: 0.0,
    };
    let gradient_loss = Phase {
        name: "gradient_loss",
        kind: PhaseKind::DenseCompute,
        wire_coll_s: iters * net.reduce_time(pbytes, processes),
        wire_p2p_s: 0.0,
        worker_compute_s: iters
            * fpw
            * job.gradient_batch_fraction
            * job.gradient_flops_per_frame()
            / proc_flops,
        master_compute_s: 0.0,
    };
    let curvature = Phase {
        name: "worker_curvature_product",
        kind: PhaseKind::DenseCompute,
        wire_coll_s: iters
            * cg
            * (net.bcast_time(pbytes, processes) + net.reduce_time(pbytes, processes)),
        wire_p2p_s: 0.0,
        worker_compute_s: iters * cg * fpw * job.curvature_fraction * job.gn_flops_per_frame()
            / proc_flops,
        master_compute_s: iters * cg * CG_MASTER_VECTOR_OPS * cast::exact_f64(job.params())
            / XEON_MASTER_SCALAR_FLOPS,
    };
    let eval_heldout = Phase {
        name: "eval_heldout",
        kind: PhaseKind::DenseCompute,
        wire_coll_s: iters
            * evals
            * (net.bcast_time(pbytes, processes) + net.reduce_time(24, processes)),
        wire_p2p_s: 0.0,
        worker_compute_s: iters * evals * heldout_fpw * job.heldout_flops_per_frame() / proc_flops,
        master_compute_s: 0.0,
    };

    RunBreakdown {
        label: format!("xeon-{processes}"),
        phases: vec![
            load_data,
            sync_weights,
            gradient_loss,
            curvature,
            eval_heldout,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_labels_match_paper_notation() {
        assert_eq!(BgqRun::new(4096, 4, 16).label(), "4096-4-16");
        assert_eq!(BgqRun::new(4096, 4, 16).nodes(), 1024);
        assert_eq!(BgqRun::new(8192, 4, 16).nodes(), 2048);
    }

    #[test]
    #[should_panic(expected = "whole nodes")]
    fn ragged_rank_placement_rejected() {
        BgqRun::new(100, 3, 16);
    }

    #[test]
    fn phase_wall_is_sum_of_parts() {
        let p = Phase {
            name: "x",
            kind: PhaseKind::DenseCompute,
            wire_coll_s: 1.0,
            wire_p2p_s: 0.5,
            worker_compute_s: 2.0,
            master_compute_s: 0.25,
        };
        assert!((p.wall_s() - 3.75).abs() < 1e-12);
        assert!((p.master_mpi_coll_s() - 3.0).abs() < 1e-12);
        assert!((p.worker_mpi_coll_s() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn more_nodes_is_faster_up_to_master_bottleneck() {
        let job = JobSpec::ce_50h();
        let t1024 = bgq_time(&job, &BgqRun::new(1024, 4, 16)).total_seconds();
        let t4096 = bgq_time(&job, &BgqRun::new(4096, 4, 16)).total_seconds();
        assert!(t4096 < t1024, "{t4096} !< {t1024}");
        // Near-linear in this range: 4x nodes gives >2.2x.
        assert!(t1024 / t4096 > 2.2, "speedup {}", t1024 / t4096);
    }

    #[test]
    fn gradient_compute_dominates_on_big_data() {
        let job = JobSpec::ce_400h();
        let run = bgq_time(&job, &BgqRun::new(4096, 4, 16));
        let grad = run.phase("gradient_loss").unwrap();
        assert!(grad.worker_compute_s > grad.wire_coll_s);
    }

    #[test]
    fn xeon_is_much_slower_than_bgq_partition() {
        let job = JobSpec::ce_50h();
        let xeon = xeon_time(&job, 96).total_seconds();
        let bgq = bgq_time(&job, &BgqRun::new(4096, 4, 16)).total_seconds();
        assert!(xeon / bgq > 3.0, "speedup only {}", xeon / bgq);
    }

    #[test]
    fn curvature_jitter_is_bounded_and_deterministic() {
        let job = JobSpec::ce_50h();
        let a = bgq_time(&job, &BgqRun::new(2048, 2, 32)).total_seconds();
        let b = bgq_time(&job, &BgqRun::new(2048, 2, 32)).total_seconds();
        assert_eq!(a, b);
    }
}
