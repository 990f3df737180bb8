//! Per-layer metrics: what the traced child derives from its spans and
//! from `TrainOutput`, and the layer probes.
//!
//! Everything here is measured from outside the layers — timing calls
//! into their public functions and reading what a run already
//! returns. Spans inside the program are a later change.
//!
//! A value is `None` when the layer does no work on the workload
//! (`core.distributed.*` on a serial run) or when a phase name this
//! file looks up is gone from `TrainOutput`; neither is a failure.

use crate::procstat;
use crate::stats::median;
use crate::trace::{self, Recorder};
use crate::workload::{self, Mode, WorkloadSpec, HELDOUT_FRAC, STATES};
use pdnn::core::{IterStats, SyncStrategy, TrainOutput};
use pdnn::dnn::flops;
use pdnn::dnn::{
    gn_product_ws, loss_and_gradient, mmi_batch, softmax_rows, Curvature, FrameLoss, Network,
    PackedActivations, PackedWeights,
};
use pdnn::mpisim::wire::{decode, encode};
use pdnn::mpisim::{run_world, Comm, CommError, CommTrace, Payload, ReduceOp, WireCodec};
use pdnn::obs::{SpanKind, Telemetry};
use pdnn::speech::{assignment_imbalance, partition, Corpus, Strategy};
use pdnn::tensor::gemm::{GemmOp, PackedA, PackedB, Trans, MR, NR};
use pdnn::tensor::{GemmContext, Matrix, Workspace};
use pdnn::util::{PhaseTimer, Prng};
use std::hint::black_box;
use std::time::Instant;

/// `(metric name, value)` pairs; names are those of
/// `crate::metrics::PER_LAYER`.
pub type Values = Vec<(&'static str, Option<f64>)>;

/// Seconds of `name` in a phase timer, `None` if the phase never ran.
fn phase(timer: &PhaseTimer, name: &str) -> Option<f64> {
    let total = timer.get(name);
    (total.calls > 0).then_some(total.seconds)
}

/// Sum of the phases that exist; `None` if none does.
fn phases(timer: &PhaseTimer, names: &[&str]) -> Option<f64> {
    let found: Vec<f64> = names.iter().filter_map(|n| phase(timer, n)).collect();
    (!found.is_empty()).then(|| found.iter().sum())
}

/// Phases in which a rank computes on its shard.
const COMPUTE_PHASES: [&str; 4] = [
    "gradient_loss",
    "worker_curvature_product",
    "worker_curvature_sample",
    "eval_heldout",
];

fn bytes_both_ways(t: &CommTrace) -> u64 {
    t.p2p.bytes_sent + t.p2p.bytes_received + t.collective.bytes_sent + t.collective.bytes_received
}

fn bytes_sent(t: &CommTrace) -> u64 {
    t.p2p.bytes_sent + t.collective.bytes_sent
}

/// Seconds a rank spends inside communication calls: the union of its
/// spans of a communication kind (a problem-level `gradient_reduce`
/// and the `reduce` nested in it count once). This is waiting *and*
/// the work done in the call — packing, the wire codec, the combine;
/// `CommTrace::total_seconds` is the waiting alone.
fn comm_seconds(telemetry: &Telemetry) -> f64 {
    // Telemetry times are seconds at nanosecond resolution.
    let ns = |seconds: f64| (seconds * 1e9).round() as u64;
    let intervals = telemetry
        .spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::CommCollective | SpanKind::CommP2p))
        .map(|s| (ns(s.start), ns(s.end)))
        .collect();
    trace::union_ns(intervals) as f64 * 1e-9
}

/// Time the optimizer spends inside each problem operation, seen from
/// the rank that runs the optimizer, and what is left over.
struct ProblemTimes {
    gradient: Option<f64>,
    gn: Option<f64>,
    gn_calls: Option<f64>,
    sample: Option<f64>,
    heldout: Option<f64>,
    heldout_calls: Option<f64>,
    theta_sync: Option<f64>,
    /// The optimizer's own time: total minus the operations above.
    self_s: Option<f64>,
}

/// From the `Traced` decorator's spans: every trait call is a child of
/// the root span, so its self time is exactly the optimizer's own work.
fn serial_problem_times(spans: &[trace::Span]) -> ProblemTimes {
    let by = |name| trace::total_by_name(spans, name);
    ProblemTimes {
        gradient: Some(by(trace::SPAN_GRADIENT).0),
        gn: Some(by(trace::SPAN_GN).0),
        gn_calls: Some(by(trace::SPAN_GN).1 as f64),
        sample: Some(by(trace::SPAN_SAMPLE).0),
        heldout: Some(by(trace::SPAN_HELDOUT).0),
        heldout_calls: Some(by(trace::SPAN_HELDOUT).1 as f64),
        theta_sync: Some(by(trace::SPAN_THETA).0 + by(trace::SPAN_SET_THETA).0),
        self_s: trace::find(spans, trace::SPAN_ROOT)
            .map(|id| trace::self_ns(spans, id) as f64 * 1e-9),
    }
}

/// From rank 0's phase totals. In master mode an operation is the
/// rooted reduce that waits for the workers; in the masterless modes
/// it is rank 0's own compute plus the allreduce.
fn distributed_problem_times(p: &PhaseTimer) -> ProblemTimes {
    let calls = |names: &[&str]| {
        names
            .iter()
            .map(|n| p.get(n).calls)
            .max()
            .filter(|&c| c > 0)
            .map(|c| c as f64)
    };
    let mut t = ProblemTimes {
        gradient: phases(
            p,
            &["gradient_reduce", "gradient_loss", "gradient_allreduce"],
        ),
        gn: phases(
            p,
            &[
                "curvature_reduce",
                "worker_curvature_product",
                "curvature_allreduce",
            ],
        ),
        gn_calls: calls(&["curvature_reduce", "curvature_allreduce"]),
        sample: phases(p, &["sample_curvature", "worker_curvature_sample"]),
        heldout: phases(p, &["heldout_reduce", "eval_heldout", "heldout_allreduce"]),
        heldout_calls: calls(&["heldout_reduce", "heldout_allreduce"]),
        theta_sync: phases(p, &["sync_weights_master", "sync_weights_replicated"]),
        self_s: None,
    };
    let parts = [t.gradient, t.gn, t.sample, t.heldout, t.theta_sync];
    t.self_s = phase(p, "hf_iteration")
        .filter(|_| parts.iter().all(Option::is_some))
        .map(|total| total - parts.iter().flatten().sum::<f64>());
    t
}

/// Metrics of the traced training run itself.
pub fn from_run(
    spec: &WorkloadSpec,
    rec: &Recorder,
    stats: &[IterStats],
    dist: Option<&TrainOutput>,
    train_s: f64,
) -> Values {
    let spans = rec.spans();
    let root_s = trace::find(&spans, trace::SPAN_ROOT)
        .map(|id| spans[id as usize].duration_ns() as f64 * 1e-9);
    let cg_iters: usize = stats.iter().map(|s| s.cg_iters).sum();
    let accepted = stats.iter().filter(|s| s.accepted).count();
    let times = match dist {
        None => serial_problem_times(&spans),
        Some(run) => distributed_problem_times(&run.master_phases),
    };
    // On a serial run the parts must add up to the root span; a
    // residual means the recorder lost or double-counted an interval.
    let residual = match (dist, root_s, times.self_s) {
        (None, Some(root_s), Some(self_s)) if root_s > 0.0 => {
            let parts = [
                times.gradient,
                times.gn,
                times.sample,
                times.heldout,
                times.theta_sync,
            ];
            let sum = self_s + parts.iter().flatten().sum::<f64>();
            Some((sum - root_s).abs() / root_s)
        }
        _ => None,
    };
    let mut out: Values = vec![
        ("core.problem.gradient_s", times.gradient),
        ("core.problem.gn_product_s", times.gn),
        ("core.problem.gn_product_calls", times.gn_calls),
        ("core.problem.sample_curvature_s", times.sample),
        ("core.problem.heldout_eval_s", times.heldout),
        ("core.problem.heldout_eval_calls", times.heldout_calls),
        ("core.problem.theta_sync_s", times.theta_sync),
        ("core.optimizer.self_s", times.self_s),
        ("core.optimizer.hf_iters", Some(stats.len() as f64)),
        ("core.optimizer.cg_iters", Some(cg_iters as f64)),
        (
            "core.optimizer.accept_ratio",
            Some(accepted as f64 / stats.len().max(1) as f64),
        ),
        (
            "core.optimizer.heldout_loss_final",
            stats.last().map(|s| s.heldout_after),
        ),
        ("bench.root_span_s", root_s),
        ("bench.span_sum_residual_frac", residual),
    ];

    let Some(run) = dist else {
        // mpisim does no work on a serial workload: exact zeros, which
        // a comms change must leave at zero.
        out.extend([
            ("core.distributed.collective_calls", Some(0.0)),
            ("core.distributed.rank0_bytes", Some(0.0)),
            ("core.distributed.wire_bytes_total", Some(0.0)),
            ("core.distributed.comm_s_rank0", Some(0.0)),
            ("core.distributed.blocked_s_rank0", Some(0.0)),
            ("core.distributed.worker_compute_s_max", None),
            ("core.distributed.worker_busy_share", None),
            ("core.distributed.load_imbalance", None),
        ]);
        return out;
    };
    // Ranks that compute: the workers, plus rank 0 when it is a peer.
    let mut compute_ranks: Vec<&PhaseTimer> = run.worker_phases.iter().collect();
    if !matches!(spec.mode, Mode::Distributed(SyncStrategy::Master, _)) {
        compute_ranks.push(&run.master_phases);
    }
    let compute: Vec<f64> = compute_ranks
        .iter()
        .filter_map(|p| phases(p, &COMPUTE_PHASES))
        .collect();
    let max = compute.iter().copied().reduce(f64::max);
    let mean = max.map(|_| compute.iter().sum::<f64>() / compute.len() as f64);
    let wire_total =
        bytes_sent(&run.master_trace) + run.worker_traces.iter().map(bytes_sent).sum::<u64>();
    out.extend([
        (
            "core.distributed.collective_calls",
            Some(run.master_trace.collectives_completed as f64),
        ),
        (
            "core.distributed.rank0_bytes",
            Some(bytes_both_ways(&run.master_trace) as f64),
        ),
        ("core.distributed.wire_bytes_total", Some(wire_total as f64)),
        (
            "core.distributed.comm_s_rank0",
            Some(comm_seconds(&run.master_telemetry)),
        ),
        (
            "core.distributed.blocked_s_rank0",
            Some(run.master_trace.total_seconds()),
        ),
        ("core.distributed.worker_compute_s_max", max),
        (
            "core.distributed.worker_busy_share",
            mean.map(|m| m / train_s),
        ),
        (
            "core.distributed.load_imbalance",
            max.zip(mean).map(|(max, mean)| max / mean),
        ),
    ]);
    out
}

/// Median seconds per call of `f`: a warm-up, then at least
/// `min_calls` calls and at least `min_seconds` of them.
fn time_calls(min_calls: usize, min_seconds: f64, mut f: impl FnMut()) -> f64 {
    time_consuming(min_calls, min_seconds, || (), |()| f())
}

/// Like [`time_calls`] for an operation that consumes its input:
/// `make` runs outside the timing, `consume` inside.
fn time_consuming<T>(
    min_calls: usize,
    min_seconds: f64,
    mut make: impl FnMut() -> T,
    mut consume: impl FnMut(T),
) -> f64 {
    consume(make());
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < min_calls || started.elapsed().as_secs_f64() < min_seconds {
        let input = make();
        let t = Instant::now();
        consume(input);
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Prng) -> Matrix<f32> {
    Matrix::random_normal(rows, cols, 1.0, rng)
}

fn bitwise_equal(a: &Matrix<f32>, b: &Matrix<f32>) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The tolerance `pdnn-tensor`'s own tests hold the blocked driver to
/// against the naive reference (the two associate the k-sum
/// differently once `k` exceeds one `kc` block).
fn near_reference(c: &Matrix<f32>, reference: &Matrix<f32>, k: usize) -> bool {
    c.max_abs_diff(reference) < 1e-4 * (k as f64).sqrt().max(1.0)
}

/// Size in bytes of the largest cache level the kernel reports for
/// cpu0; 32 MiB when sysfs has no answer.
fn last_level_cache_bytes() -> usize {
    let mut best = 0usize;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, scale) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1usize << 10),
            Some(b'M') => (&text[..text.len() - 1], 1 << 20),
            Some(b'G') => (&text[..text.len() - 1], 1 << 30),
            _ => (text, 1),
        };
        if let Ok(n) = digits.parse::<usize>() {
            best = best.max(n.saturating_mul(scale));
        }
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// `MemAvailable` in bytes, if `/proc/meminfo` says.
fn mem_available_bytes() -> Option<usize> {
    let kib = procstat::kib_field(
        &std::fs::read_to_string("/proc/meminfo").ok()?,
        "MemAvailable:",
    )?;
    Some(kib as usize * 1024)
}

/// Peak of the unfused multiply-add chain the GEMM kernels are held
/// to, measured by calling the dispatched microkernel on panels that
/// stay in L1.
fn peak_probe_gflops(ctx: &GemmContext, rng: &mut Prng) -> f64 {
    const KC: usize = 256;
    const REPS: usize = 2000;
    let mut ap = vec![0.0f32; KC * MR];
    let mut bp = vec![0.0f32; KC * NR];
    rng.fill_uniform_f32(&mut ap, -1.0, 1.0);
    rng.fill_uniform_f32(&mut bp, -1.0, 1.0);
    let kernel = ctx.backend().acc_f32();
    let seconds = time_calls(5, 0.1, || {
        let mut acc = [[0.0f32; NR]; MR];
        for _ in 0..REPS {
            kernel(KC, black_box(&ap), black_box(&bp), &mut acc);
        }
        black_box(acc);
    });
    (2 * MR * NR * KC * REPS) as f64 / seconds * 1e-9
}

/// Largest STREAM array. First-touching memory costs ~4 s per GiB on
/// the reference VM, so the arrays cannot always reach the 4×LLC rule
/// of thumb (the VM reports the whole socket's 260 MiB L3); three
/// arrays of this size still exceed that L3 together, and both sizes
/// are reported.
const STREAM_ARRAY_CAP_BYTES: usize = 128 << 20;

/// STREAM triad `a = b + s*c` over f64 arrays of four times the
/// last-level cache each, capped at [`STREAM_ARRAY_CAP_BYTES`] and an
/// eighth of available memory. Returns `(GB/s, array MiB, LLC MiB)`.
fn stream_triad(quick: bool) -> (f64, f64, f64) {
    let llc = last_level_cache_bytes();
    let wanted = if quick { 8 << 20 } else { 4 * llc };
    let cap = mem_available_bytes().map_or(STREAM_ARRAY_CAP_BYTES, |m| {
        (m / 8).min(STREAM_ARRAY_CAP_BYTES)
    });
    let n = wanted.min(cap) / 8;
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let mut a = vec![0.0f64; n];
    let scale = 3.0f64;
    let mut best = f64::INFINITY;
    // First pass faults the pages of `a` in; keep the best of the rest.
    for pass in 0..3 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + scale * *c;
        }
        black_box(&mut a);
        if pass > 0 {
            best = best.min(t.elapsed().as_secs_f64());
        }
    }
    let mib = |bytes: usize| bytes as f64 / (1u64 << 20) as f64;
    ((3 * n * 8) as f64 / best * 1e-9, mib(n * 8), mib(llc))
}

/// The collectives of one workload's vector length, timed on rank 0 of
/// a 2-rank world: 5 warm-ups, median of `calls`.
struct CollectiveTimes {
    bcast_reduce_us: f64,
    ring_us: f64,
    tree_us: f64,
    ring_f16_us: f64,
    ring_int8_us: f64,
    ring_bytes_per_call: f64,
    /// Worst relative error of an uncompressed allreduce against the
    /// f64 sum.
    allreduce_rel_err: f64,
}

fn rank_vector(n: usize, seed: u64, rank: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; n];
    Prng::new(seed ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9)).fill_normal_f32(&mut v, 0.1);
    v
}

/// Median microseconds of `op` on this rank: `WARMUPS` untimed calls,
/// then `calls` timed ones, each on a fresh copy of `mine`.
fn time_collective(
    comm: &mut Comm,
    mine: &[f32],
    buf: &mut Vec<f32>,
    calls: usize,
    op: impl Fn(&mut Comm, &mut Vec<f32>) -> Result<(), CommError>,
) -> f64 {
    let mut samples = Vec::with_capacity(calls);
    for call in 0..WARMUPS + calls {
        buf.copy_from_slice(mine);
        let t = Instant::now();
        op(comm, buf).expect("fault-free 2-rank collective");
        if call >= WARMUPS {
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&samples)
}

const WARMUPS: usize = 5;

fn collective_probe(n: usize, seed: u64, calls: usize) -> CollectiveTimes {
    let body = |comm: &mut Comm| {
        let mine = rank_vector(n, seed, comm.rank());
        let mut buf = mine.clone();
        let bcast_reduce_us = time_collective(comm, &mine, &mut buf, calls, |c, b| {
            c.bcast(b, 0)?;
            c.reduce(b, ReduceOp::Sum, 0)
        });
        let sent_before = comm.trace().collective.bytes_sent;
        let ring = |c: &mut Comm, b: &mut Vec<f32>| c.allreduce_ring(b, ReduceOp::Sum);
        let ring_us = time_collective(comm, &mine, &mut buf, calls, ring);
        let ring_bytes_per_call =
            (comm.trace().collective.bytes_sent - sent_before) as f64 / (WARMUPS + calls) as f64;
        let tree_us = time_collective(comm, &mine, &mut buf, calls, |c, b| {
            c.allreduce_tree(b, ReduceOp::Sum)
        });
        // `buf` now holds the tree allreduce of the two rank vectors.
        let other = rank_vector(n, seed, 1 - comm.rank());
        let allreduce_rel_err = buf
            .iter()
            .zip(mine.iter().zip(&other))
            .map(|(&got, (&a, &b))| {
                let (a, b) = (f64::from(a), f64::from(b));
                (f64::from(got) - (a + b)).abs() / (a.abs() + b.abs()).max(f64::MIN_POSITIVE)
            })
            .fold(0.0, f64::max);
        comm.set_wire_codec(WireCodec::F16);
        let ring_f16_us = time_collective(comm, &mine, &mut buf, calls, ring);
        comm.set_wire_codec(WireCodec::Int8);
        let ring_int8_us = time_collective(comm, &mine, &mut buf, calls, ring);
        CollectiveTimes {
            bcast_reduce_us,
            ring_us,
            tree_us,
            ring_f16_us,
            ring_int8_us,
            ring_bytes_per_call,
            allreduce_rel_err,
        }
    };
    run_world(2, body)
        .into_iter()
        .next()
        .expect("2-rank world has a rank 0")
        .result
}

/// Round-trip error checks against the bounds `mpisim/wire.rs`
/// documents: f16 within half an ulp (2^-11 relative), int8 within
/// half a quantisation step (`max_abs / 127 / 2`).
fn check_codecs(v: &[f32], problems: &mut Vec<String>) {
    let round_trip = |codec| decode(encode(codec, Payload::F32(v.to_vec()))).into_f32();
    let f16 = round_trip(WireCodec::F16);
    if f16.len() != v.len()
        || v.iter()
            .zip(&f16)
            .any(|(a, b)| (a - b).abs() > a.abs() * 2f32.powi(-11) + 1e-7)
    {
        problems.push("f16 wire round trip exceeds 2^-11 relative error".into());
    }
    let int8 = round_trip(WireCodec::Int8);
    let step = v.iter().fold(0.0f32, |m, x| m.max(x.abs())) / 127.0;
    if int8.len() != v.len()
        || v.iter()
            .zip(&int8)
            .any(|(a, b)| (a - b).abs() > step * 0.5 + 1e-7)
    {
        problems.push("int8 wire round trip exceeds half a quantisation step".into());
    }
}

/// Run every layer probe at `spec`'s shapes, each in a span of `rec`,
/// appending failed output checks to `problems`.
pub fn probes(
    spec: &WorkloadSpec,
    seed: u64,
    corpus: &Corpus,
    net: &Network<f32>,
    rec: &Recorder,
    quick: bool,
    problems: &mut Vec<String>,
) -> Values {
    let mut out: Values = Vec::new();
    let ctx = GemmContext::sequential();
    let mut rng = Prng::new(seed ^ 0x000B_E7C4);
    let min_seconds = if quick { 0.01 } else { 0.1 };
    let dims = spec.dims();
    let hidden = spec.hidden[0];

    // ---- speech ----------------------------------------------------
    let (train_ids, _) = corpus.split_heldout(HELDOUT_FRAC);
    let train_lens: Vec<usize> = train_ids
        .iter()
        .map(|&i| corpus.utterances()[i].frames())
        .collect();
    rec.time("probe.speech", || {
        let generate_s = time_calls(3, min_seconds, || {
            black_box(workload::generate_corpus(spec, seed));
        });
        let assignment = partition(&train_lens, workload::WORKERS, Strategy::SortedBalanced);
        out.push(("speech.corpus_generate_s", Some(generate_s)));
        out.push((
            "speech.partition_imbalance",
            Some(assignment_imbalance(&train_lens, &assignment)),
        ));
    });

    // Curvature-sample frames one rank multiplies per GN product: the
    // `m` of the workload's dominant GEMMs.
    let train_frames: usize = train_lens.iter().sum();
    let m =
        ((train_frames as f64 * spec.curvature_fraction) as usize / spec.compute_ranks()).max(MR);
    out.push(("bench.probe_frames", Some(m as f64)));

    // ---- tensor ----------------------------------------------------
    let peak = rec.time("probe.tensor.peak", || peak_probe_gflops(&ctx, &mut rng));
    out.push(("tensor.peak_probe_gflops", Some(peak)));
    let (stream_gbs, array_mib, llc_mib) = rec.time("probe.tensor.stream", || stream_triad(quick));
    out.extend([
        ("tensor.stream_gbs", Some(stream_gbs)),
        ("bench.stream_array_mib", Some(array_mib)),
        ("bench.llc_mib", Some(llc_mib)),
    ]);
    rec.time("probe.tensor.gemm", || {
        let a = random_matrix(m, hidden, &mut rng);
        let b = random_matrix(hidden, hidden, &mut rng);
        let gflops = |flops: usize, seconds: f64| flops as f64 / seconds * 1e-9;
        let mut c = Matrix::zeros(m, hidden);
        let plain = time_calls(5, min_seconds, || {
            GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut c);
        });
        let mut reference = Matrix::zeros(m, hidden);
        GemmOp::ab(&a, Trans::N, &b, Trans::N).run_reference(&mut reference);
        if !near_reference(&c, &reference, hidden) {
            problems.push("GemmOp::ab is not within tolerance of GemmOp::run_reference".into());
        }
        let blocked = c.clone();
        let pa = PackedA::new(&a, Trans::N, ctx.blocking());
        let pb = PackedB::new(&b, Trans::N, ctx.blocking());
        let packed = time_calls(5, min_seconds, || {
            GemmOp::packed_ab(&pa, &pb).run(&ctx, &mut c);
        });
        if !bitwise_equal(&c, &blocked) {
            problems.push("GemmOp::packed_ab differs bitwise from GemmOp::ab".into());
        }
        // The weight-gradient shape: a short left operand (one output
        // unit per row) against frame-major activations streamed as B^T.
        let delta_t = random_matrix(STATES, m, &mut rng);
        let acts_t = random_matrix(hidden, m, &mut rng);
        let pd = PackedA::new(&delta_t, Trans::N, ctx.blocking());
        let mut small = Matrix::zeros(STATES, hidden);
        let small_m = time_calls(5, min_seconds, || {
            GemmOp::packed_a_bt(&pd, acts_t.as_slice()).run(&ctx, &mut small);
        });
        let mut small_blocked = Matrix::zeros(STATES, hidden);
        GemmOp::ab(&delta_t, Trans::N, &acts_t, Trans::T).run(&ctx, &mut small_blocked);
        if !bitwise_equal(&small, &small_blocked) {
            problems.push("GemmOp::packed_a_bt differs bitwise from GemmOp::ab".into());
        }
        let flops = 2 * m * hidden * hidden;
        out.extend([
            ("tensor.gemm_gflops", Some(gflops(flops, plain))),
            (
                "tensor.gemm_frac_of_peak",
                Some(gflops(flops, plain) / peak),
            ),
            ("tensor.gemm_packed_gflops", Some(gflops(flops, packed))),
            (
                "tensor.gemm_small_m_gflops",
                Some(gflops(2 * STATES * hidden * m, small_m)),
            ),
        ]);
    });

    // ---- dnn -------------------------------------------------------
    // Whole training utterances adding up to about `m` frames.
    let mut batch_ids = Vec::new();
    let mut batch_frames = 0usize;
    for (&id, &len) in train_ids.iter().zip(&train_lens) {
        if batch_frames >= m {
            break;
        }
        batch_ids.push(id);
        batch_frames += len;
    }
    let batch = corpus.shard(&batch_ids);
    rec.time("probe.dnn", || {
        let frames = batch.frames() as f64;
        let rate =
            |flops_per_frame: u64, seconds: f64| flops_per_frame as f64 * frames / seconds * 1e-9;
        let forward = time_calls(5, min_seconds, || {
            black_box(net.forward(&ctx, &batch.x));
        });
        let gradient = time_calls(5, min_seconds, || {
            black_box(loss_and_gradient(
                net,
                &ctx,
                &batch.x,
                &batch.labels,
                None,
                FrameLoss::CrossEntropy,
            ));
        });
        let cache = net.forward(&ctx, &batch.x);
        let dist = softmax_rows(cache.logits());
        let packs = PackedWeights::new(net, &ctx);
        let acts = PackedActivations::new(&cache, &ctx);
        let mut ws = Workspace::new();
        let mut v = vec![0.0f32; net.num_params()];
        rng.fill_normal_f32(&mut v, 0.01);
        let gn = time_calls(5, min_seconds, || {
            let gv = gn_product_ws(
                net,
                &ctx,
                &cache,
                Curvature::Fisher(&dist),
                &v,
                Some(&packs),
                Some(&acts),
                &mut ws,
            );
            ws.give_vec(black_box(gv));
        });
        let graph = corpus.denominator_graph();
        let mmi = time_calls(3, min_seconds, || {
            black_box(mmi_batch(
                cache.logits(),
                &batch.labels,
                &batch.utt_lens,
                &graph,
            ));
        });
        out.extend([
            (
                "dnn.forward_gflops",
                Some(rate(flops::forward_flops_per_frame(&dims), forward)),
            ),
            (
                "dnn.gradient_gflops",
                Some(rate(flops::gradient_flops_per_frame(&dims), gradient)),
            ),
            (
                "dnn.gn_product_gflops",
                Some(rate(flops::gn_product_flops_per_frame(&dims, false), gn)),
            ),
            ("dnn.mmi_frames_per_s", Some(frames / mmi)),
        ]);
    });

    // ---- mpisim ----------------------------------------------------
    let n = net.num_params();
    rec.time("probe.mpisim", || {
        let spawn_s = time_calls(10, min_seconds, || {
            black_box(run_world(2, |comm| comm.rank()));
        });
        out.push(("mpisim.world_spawn_us", Some(spawn_s * 1e6)));
        let times = collective_probe(n, seed, if quick { 5 } else { 50 });
        if times.allreduce_rel_err > 1e-5 {
            problems.push(format!(
                "uncompressed allreduce is {} (relative) away from the f64 sum",
                times.allreduce_rel_err
            ));
        }
        let vector = rank_vector(n, seed, 0);
        check_codecs(&vector, problems);
        // Payloads are consumed by value: built outside the timing.
        let bytes = (4 * n) as f64;
        let encode_s = time_consuming(
            5,
            min_seconds,
            || Payload::F32(vector.clone()),
            |p| {
                black_box(encode(WireCodec::Int8, p));
            },
        );
        let image = encode(WireCodec::Int8, Payload::F32(vector.clone()));
        let decode_s = time_consuming(
            5,
            min_seconds,
            || image.clone(),
            |p| {
                black_box(decode(p));
            },
        );
        out.extend([
            ("mpisim.bcast_reduce_us", Some(times.bcast_reduce_us)),
            ("mpisim.allreduce_ring_us", Some(times.ring_us)),
            ("mpisim.allreduce_tree_us", Some(times.tree_us)),
            ("mpisim.allreduce_ring_f16_us", Some(times.ring_f16_us)),
            ("mpisim.allreduce_ring_int8_us", Some(times.ring_int8_us)),
            (
                "mpisim.allreduce_ring_bytes_per_call",
                Some(times.ring_bytes_per_call),
            ),
            ("mpisim.wire_encode_int8_gbs", Some(bytes / encode_s * 1e-9)),
            ("mpisim.wire_decode_int8_gbs", Some(bytes / decode_s * 1e-9)),
        ]);
    });
    out
}
