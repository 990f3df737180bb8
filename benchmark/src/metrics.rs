//! The metric registry: every name the benchmark emits, with its unit,
//! direction and (for end-to-end metrics) regression bound.
//!
//! `BENCHMARK.json` at the repository root lists exactly these names;
//! `tests/registry.rs` keeps the two in step. Later issues claim gains
//! by these names, so renaming one is a benchmark change, not a
//! refactor.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the trainer would see: one value per workload
/// and invocation, the median over the rounds.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's value by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Absolute difference `compare` always tolerates, in `unit`: the
    /// tolerance is `max(bound * value, floor)`.
    pub floor: f64,
}

impl EndToEnd {
    /// Largest difference from `value` that still counts as agreement.
    pub fn tolerance(&self, value: f64) -> f64 {
        (self.bound * value).max(self.floor)
    }
}

/// End-to-end metrics, all lower-is-better. The time bounds are the
/// contract's ceiling: a third of it is about what medians of rounds
/// hold on this host (see the README's noise section).
pub const END_TO_END: [EndToEnd; 5] = [
    // A few milliseconds of process start on three workloads: spawn
    // jitter alone is a quarter of that, hence the absolute floor.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "train_s",
        unit: "s",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "iter_s",
        unit: "s",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.25,
        floor: 0.0,
    },
    // The seed alone moves peak memory 2-5.5% (corpus size, allocator
    // arenas of the rank threads).
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.2,
        floor: 0.0,
    },
];

/// A metric of a single layer (no bound).
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Counts made by the program that must repeat exactly between two
    /// runs of the same code at the same seed.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics; layers are this repository's modules.
pub const PER_LAYER: [PerLayer; 49] = [
    layer("speech.corpus_generate_s", "s", Lower),
    layer("speech.partition_imbalance", "ratio", Lower),
    layer("tensor.peak_probe_gflops", "GFLOP/s", Higher),
    layer("tensor.stream_gbs", "GB/s", Higher),
    layer("tensor.gemm_gflops", "GFLOP/s", Higher),
    layer("tensor.gemm_frac_of_peak", "ratio", Higher),
    layer("tensor.gemm_packed_gflops", "GFLOP/s", Higher),
    layer("tensor.gemm_small_m_gflops", "GFLOP/s", Higher),
    layer("dnn.forward_gflops", "GFLOP/s", Higher),
    layer("dnn.gradient_gflops", "GFLOP/s", Higher),
    layer("dnn.gn_product_gflops", "GFLOP/s", Higher),
    layer("dnn.mmi_frames_per_s", "1/s", Higher),
    layer("core.problem.gradient_s", "s", Lower),
    layer("core.problem.gn_product_s", "s", Lower),
    count("core.problem.gn_product_calls", "count"),
    layer("core.problem.sample_curvature_s", "s", Lower),
    layer("core.problem.heldout_eval_s", "s", Lower),
    count("core.problem.heldout_eval_calls", "count"),
    layer("core.problem.theta_sync_s", "s", Lower),
    layer("core.optimizer.self_s", "s", Lower),
    count("core.optimizer.hf_iters", "count"),
    count("core.optimizer.cg_iters", "count"),
    layer("core.optimizer.accept_ratio", "ratio", Higher),
    layer("core.optimizer.heldout_loss_final", "nats", Lower),
    count("core.distributed.collective_calls", "count"),
    count("core.distributed.rank0_bytes", "B"),
    count("core.distributed.wire_bytes_total", "B"),
    layer("core.distributed.comm_s_rank0", "s", Lower),
    layer("core.distributed.blocked_s_rank0", "s", Lower),
    layer("core.distributed.worker_compute_s_max", "s", Lower),
    layer("core.distributed.worker_busy_share", "ratio", Higher),
    layer("core.distributed.load_imbalance", "ratio", Lower),
    layer("core.distributed.speedup_vs_serial", "ratio", Higher),
    layer("mpisim.world_spawn_us", "us", Lower),
    layer("mpisim.bcast_reduce_us", "us", Lower),
    layer("mpisim.allreduce_ring_us", "us", Lower),
    layer("mpisim.allreduce_tree_us", "us", Lower),
    layer("mpisim.allreduce_ring_f16_us", "us", Lower),
    layer("mpisim.allreduce_ring_int8_us", "us", Lower),
    count("mpisim.allreduce_ring_bytes_per_call", "B"),
    layer("mpisim.wire_encode_int8_gbs", "GB/s", Higher),
    layer("mpisim.wire_decode_int8_gbs", "GB/s", Higher),
    layer("bench.converged_share", "ratio", Higher),
    layer("bench.trace_overhead_frac", "ratio", Lower),
    layer("bench.probe_frames", "count", Lower),
    layer("bench.stream_array_mib", "MiB", Higher),
    layer("bench.llc_mib", "MiB", Higher),
    layer("bench.root_span_s", "s", Lower),
    layer("bench.span_sum_residual_frac", "ratio", Lower),
];
