//! Telemetry determinism: the same 4-rank distributed training run,
//! executed twice, must emit byte-identical `*_telemetry.jsonl`.
//!
//! This is the end-to-end guarantee the `pdnn-lint` rules exist to
//! protect: `l1-sim-wall-clock` keeps nondeterministic wall-clock
//! reads out of the simulation crates (the deterministic runner
//! freezes one shared `ManualClock` across all ranks), and
//! `l2-iteration-order` keeps hash-order iteration out of the
//! emission paths. If either regresses, the byte comparison below is
//! the test that goes red.

use pdnn_core::problem::{extract_utterances, sample_utterances};
use pdnn_core::{
    train_distributed_deterministic, DistributedConfig, DnnProblem, HeldoutEval, HfConfig,
    HfOptimizer, HfProblem, Objective, TrainOutput,
};
use pdnn_dnn::loss::cross_entropy_loss_only;
use pdnn_dnn::{
    backprop_dlogits, cross_entropy, gn_product, softmax_rows, Activation, Curvature, ForwardCache,
    Network,
};
use pdnn_mpisim::{events_from_jsonl, events_to_jsonl};
use pdnn_obs::jsonl::to_jsonl_string;
use pdnn_obs::Telemetry;
use pdnn_speech::{Corpus, CorpusSpec, Shard};
use pdnn_tensor::gemm::{scalar_backend, GemmContext};
use pdnn_tensor::Matrix;
use pdnn_util::Prng;
use std::sync::Arc;

fn run_once(corpus: &Corpus) -> TrainOutput {
    let mut rng = Prng::new(11);
    let net0 = Network::new(
        &[corpus.spec().feature_dim, 10, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    );
    let mut config = DistributedConfig {
        workers: 3, // 4 ranks: master + 3 workers
        ..DistributedConfig::default()
    };
    config.hf.max_iters = 3;
    train_distributed_deterministic(&net0, corpus, &Objective::CrossEntropy, &config)
        .expect("training failed")
}

/// Serialize a run's per-rank telemetry exactly as the figure
/// pipelines write `*_telemetry.jsonl` (rank 0 = master).
fn telemetry_jsonl(out: &TrainOutput) -> String {
    let mut ranks: Vec<&Telemetry> = vec![&out.master_telemetry];
    ranks.extend(out.worker_telemetries.iter());
    let mut jsonl = String::new();
    for (rank, telemetry) in ranks.into_iter().enumerate() {
        jsonl.push_str(&to_jsonl_string(rank as u64, telemetry));
    }
    jsonl
}

#[test]
fn identical_runs_emit_byte_identical_telemetry() {
    let corpus = Corpus::generate(CorpusSpec::tiny(23));
    let first = run_once(&corpus);
    let second = run_once(&corpus);

    // Training itself must agree before telemetry can.
    assert_eq!(first.stats.len(), second.stats.len());
    for (a, b) in first.stats.iter().zip(&second.stats) {
        assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
        assert_eq!(a.grad_norm.to_bits(), b.grad_norm.to_bits());
    }

    let jsonl_a = telemetry_jsonl(&first);
    let jsonl_b = telemetry_jsonl(&second);
    assert!(
        !jsonl_a.is_empty(),
        "deterministic run produced no telemetry"
    );
    if jsonl_a != jsonl_b {
        // Point at the first differing line rather than dumping both
        // multi-thousand-line files.
        for (i, (la, lb)) in jsonl_a.lines().zip(jsonl_b.lines()).enumerate() {
            assert_eq!(la, lb, "telemetry diverges at line {}", i + 1);
        }
        panic!(
            "telemetry line counts diverge: {} vs {}",
            jsonl_a.lines().count(),
            jsonl_b.lines().count()
        );
    }
}

/// The serial problem written out against the plain kernels: no weight
/// packs, no activation packs, no arena. CE only.
struct UnpackedProblem {
    net: Network<f32>,
    scratch: Network<f32>,
    ctx: GemmContext,
    train: Shard,
    heldout: Shard,
    /// Forward cache and softmax rows of the curvature sample.
    sample: Option<(ForwardCache<f32>, Matrix<f32>)>,
}

fn mean_of(mut sum: Vec<f32>, frames: usize) -> Vec<f32> {
    pdnn_tensor::blas1::scal((1.0 / frames as f64) as f32, &mut sum);
    sum
}

impl HfProblem for UnpackedProblem {
    fn num_params(&self) -> usize {
        self.net.num_params()
    }

    fn theta(&self) -> Vec<f32> {
        self.net.to_flat()
    }

    fn set_theta(&mut self, theta: &[f32]) {
        self.net.set_flat(theta);
        self.sample = None;
    }

    fn gradient(&mut self) -> (f64, Vec<f32>) {
        let cache = self.net.forward(&self.ctx, &self.train.x);
        let out = cross_entropy(cache.logits(), &self.train.labels);
        let grad = backprop_dlogits(&self.net, &self.ctx, &cache, &out.dlogits);
        let frames = self.train.frames();
        (out.loss / frames as f64, mean_of(grad, frames))
    }

    fn sample_curvature(&mut self, seed: u64, fraction: f64) {
        let ids = sample_utterances(&self.train.utt_lens, fraction, seed);
        let (x, _, _) = extract_utterances(&self.train, &ids);
        let cache = self.net.forward(&self.ctx, &x);
        let dist = softmax_rows(cache.logits());
        self.sample = Some((cache, dist));
    }

    fn gn_product(&mut self, v: &[f32]) -> Vec<f32> {
        let (cache, dist) = self.sample.as_ref().expect("sample drawn");
        let gv = gn_product(&self.net, &self.ctx, cache, Curvature::Fisher(dist), v);
        mean_of(gv, dist.rows())
    }

    fn heldout_eval(&mut self, theta: &[f32]) -> HeldoutEval {
        self.scratch.set_flat(theta);
        let logits = self.scratch.logits(&self.ctx, &self.heldout.x);
        let (loss, correct) = cross_entropy_loss_only(&logits, &self.heldout.labels);
        let frames = self.heldout.frames();
        HeldoutEval {
            loss: loss / frames as f64,
            accuracy: correct as f64 / frames as f64,
            frames: frames as u64,
        }
    }

    fn train_frames(&self) -> u64 {
        self.train.frames() as u64
    }
}

/// The prepacked-weight / workspace-arena hot path must be a pure
/// optimization: multiple HF iterations (CG solve → line-search
/// weight update → repack → next solve) on [`DnnProblem`] and on the
/// plain-kernel [`UnpackedProblem`] must agree on every parameter, bit
/// for bit.
#[test]
fn packed_hot_path_is_bit_identical_to_unpacked() {
    let corpus = Corpus::generate(CorpusSpec::tiny(17));
    let (train_ids, held_ids) = corpus.split_heldout(0.25);
    let mut rng = Prng::new(5);
    let net = Network::new(
        &[corpus.spec().feature_dim, 12, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    );
    fn train(problem: &mut impl HfProblem) -> (Vec<f32>, Vec<u64>) {
        let mut config = HfConfig::small_task();
        config.max_iters = 3; // 3 solves → 2 line-search updates in between
        let stats = HfOptimizer::new(config).train(problem);
        assert_eq!(stats.len(), 3);
        let loss_bits = stats.iter().map(|s| s.train_loss.to_bits()).collect();
        (problem.theta(), loss_bits)
    }

    let recorder = Arc::new(pdnn_obs::InMemoryRecorder::new());
    let mut packed = DnnProblem::new(
        net.clone(),
        GemmContext::sequential(),
        corpus.shard(&train_ids),
        corpus.shard(&held_ids),
        Objective::CrossEntropy,
    )
    .with_recorder(recorder.clone());
    let (theta_packed, loss_packed) = train(&mut packed);
    let data = recorder.take();
    assert!(
        data.counter("pack_cache_miss") >= 1,
        "packing run never built a pack"
    );
    assert!(
        data.counter("pack_cache_hit") > data.counter("pack_cache_miss"),
        "weights are constant across each CG solve, so hits must dominate"
    );

    let mut plain = UnpackedProblem {
        scratch: net.clone(),
        net,
        ctx: GemmContext::sequential(),
        train: corpus.shard(&train_ids),
        heldout: corpus.shard(&held_ids),
        sample: None,
    };
    let (theta_plain, loss_plain) = train(&mut plain);

    assert_eq!(loss_packed, loss_plain, "per-iteration losses diverge");
    assert_eq!(theta_packed.len(), theta_plain.len());
    for (i, (a, b)) in theta_packed.iter().zip(&theta_plain).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "theta[{i}] diverges: packed {a} vs unpacked {b}"
        );
    }
}

/// The compute backend must be invisible to training: the forced-
/// scalar reference and the runtime-dispatched SIMD backend (whatever
/// `default_backend()` resolves to on this host) must produce
/// bit-identical trained weights, per-iteration losses, AND
/// byte-identical serialized telemetry. This is the end-to-end check
/// on the microkernels' bit-exactness contract (`gemm::backend`);
/// `backend_parity` in pdnn-tensor covers the kernel level.
///
/// Backends are forced through explicit [`GemmContext::with_backend`]
/// contexts, not `PDNN_BACKEND`: the env override is resolved once
/// per process, so in-process comparisons must bypass it (the
/// env-driven equivalent runs as separate processes in verify.sh).
#[test]
fn forced_scalar_and_auto_backends_train_identically() {
    let corpus = Corpus::generate(CorpusSpec::tiny(31));
    let (train_ids, held_ids) = corpus.split_heldout(0.25);

    let run = |ctx: GemmContext| -> (Vec<f32>, Vec<u64>, String) {
        let mut rng = Prng::new(7);
        let net = Network::new(
            &[corpus.spec().feature_dim, 12, corpus.spec().states],
            Activation::Sigmoid,
            &mut rng,
        );
        // Manual clock: the problem's compute spans are part of the
        // bytes compared.
        let recorder = Arc::new(pdnn_obs::InMemoryRecorder::with_manual_clock());
        let mut problem = DnnProblem::new(
            net,
            ctx,
            corpus.shard(&train_ids),
            corpus.shard(&held_ids),
            Objective::CrossEntropy,
        )
        .with_recorder(recorder.clone());
        let mut config = HfConfig::small_task();
        config.max_iters = 3;
        let mut opt = HfOptimizer::new(config);
        let stats = opt.train(&mut problem);
        let loss_bits = stats.iter().map(|s| s.train_loss.to_bits()).collect();
        let jsonl = to_jsonl_string(0, &recorder.take());
        (problem.theta(), loss_bits, jsonl)
    };

    let (theta_scalar, loss_scalar, jsonl_scalar) =
        run(GemmContext::sequential().with_backend(scalar_backend()));
    let (theta_auto, loss_auto, jsonl_auto) = run(GemmContext::sequential());

    assert_eq!(loss_scalar, loss_auto, "per-iteration losses diverge");
    for (i, (a, b)) in theta_scalar.iter().zip(&theta_auto).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "theta[{i}] diverges: scalar {a} vs auto-backend {b}"
        );
    }
    assert!(!jsonl_scalar.is_empty(), "run produced no telemetry");
    assert_eq!(
        jsonl_scalar, jsonl_auto,
        "telemetry bytes diverge across backends"
    );
}

/// Serialize a run's per-rank comm-event traces exactly as
/// `pdnn-protomc` consumes them for trace conformance (rank 0 =
/// master; each rank's events are one JSONL block, ranks separated by
/// a `# rank N` header line so byte comparison covers rank order too).
fn events_jsonl(out: &TrainOutput) -> String {
    let mut blocks = vec![events_to_jsonl(&out.master_events)];
    blocks.extend(out.worker_events.iter().map(|e| events_to_jsonl(e)));
    let mut jsonl = String::new();
    for (rank, block) in blocks.iter().enumerate() {
        jsonl.push_str(&format!("# rank {rank}\n"));
        jsonl.push_str(block);
    }
    jsonl
}

/// The comm-event trace hook is part of the determinism contract:
/// two identically-seeded runs must record byte-identical serialized
/// event streams on every rank, and the hand-rolled JSONL codec must
/// round-trip each stream exactly (pdnn-protomc replays traces
/// through this codec, so a lossy serialization would silently
/// weaken trace conformance).
#[test]
fn identical_runs_emit_byte_identical_comm_events() {
    let corpus = Corpus::generate(CorpusSpec::tiny(23));
    let first = run_once(&corpus);
    let second = run_once(&corpus);

    assert!(
        !first.master_events.is_empty(),
        "master recorded no comm events"
    );
    assert_eq!(first.worker_events.len(), 3);
    for (w, events) in first.worker_events.iter().enumerate() {
        assert!(!events.is_empty(), "worker {w} recorded no comm events");
    }

    let jsonl_a = events_jsonl(&first);
    let jsonl_b = events_jsonl(&second);
    if jsonl_a != jsonl_b {
        for (i, (la, lb)) in jsonl_a.lines().zip(jsonl_b.lines()).enumerate() {
            assert_eq!(la, lb, "comm events diverge at line {}", i + 1);
        }
        panic!(
            "comm event line counts diverge: {} vs {}",
            jsonl_a.lines().count(),
            jsonl_b.lines().count()
        );
    }

    // Round trip every rank's stream through the codec.
    let mut ranks = vec![&first.master_events];
    ranks.extend(first.worker_events.iter());
    for (rank, events) in ranks.into_iter().enumerate() {
        let encoded = events_to_jsonl(events);
        let decoded = events_from_jsonl(&encoded)
            .unwrap_or_else(|e| panic!("rank {rank} stream failed to parse: {e}"));
        assert_eq!(&decoded, events, "rank {rank} events do not round-trip");
    }
}

#[test]
fn deterministic_telemetry_has_frozen_timestamps() {
    let corpus = Corpus::generate(CorpusSpec::tiny(29));
    let out = run_once(&corpus);
    // All wall-clock span endpoints read the one frozen ManualClock,
    // so every span is zero-length at t = 0. (Virtual-time spans from
    // the link model are exempt; this run records none.)
    for span in &out.master_telemetry.spans {
        assert_eq!(span.start.to_bits(), 0.0f64.to_bits(), "{}", span.name());
        assert_eq!(span.end.to_bits(), 0.0f64.to_bits(), "{}", span.name());
    }
    assert!(
        !out.master_telemetry.spans.is_empty(),
        "master recorded no spans"
    );
}
