//! `pdnn-train` — command-line distributed Hessian-free DNN training
//! on a synthetic speech corpus.
//!
//! ```sh
//! cargo run --release --bin pdnn-train -- \
//!     --utterances 200 --workers 4 --iters 8 \
//!     --objective ce --hidden 32 --save model.pdnn
//! cargo run --release --bin pdnn-train -- \
//!     --resume model.pdnn --objective sequence --iters 4
//! ```
//!
//! Flags (all optional):
//! ```text
//!   --utterances N     corpus size                      [160]
//!   --states N         HMM states / output classes      [6]
//!   --features N       acoustic feature dimension       [10]
//!   --noise X          emission noise stddev            [0.5]
//!   --hidden A,B,...   hidden layer widths              [24]
//!   --objective ce|sequence                             [ce]
//!   --workers N        0 = serial, else master+N workers [0]
//!   --sync master|ring|tree  distributed sync strategy  [master]
//!                      master: rank 0 coordinates via rooted
//!                      bcast/reduce (the paper's architecture);
//!                      ring/tree: masterless replicated optimizer
//!                      over symmetric allreduces (world = N peers)
//!   --codec none|f16|int8    wire compression for f32 collective
//!                      payloads                         [none]
//!   --threads N        GEMM threads per rank            [1]
//!   --backend NAME     GEMM microkernel ISA: auto|scalar|avx2|avx512|neon
//!                      (default auto; `PDNN_BACKEND` overrides)
//!   --iters N          HF iterations                    [10]
//!   --seed N           corpus/init seed                 [2024]
//!   --strategy lpt|rr|contiguous  utterance assignment  [lpt]
//!   --context N        stack ±N context frames (serial mode) [0]
//!   --stats            print corpus statistics before training
//!   --precondition     enable the Fisher CG preconditioner
//!   --save PATH        write a checkpoint after training
//!   --resume PATH      initialize from a checkpoint
//! ```

use pdnn::core::config::Preconditioner;
use pdnn::core::{
    train_distributed, DistributedConfig, DnnProblem, HfConfig, HfOptimizer, IterStats, Objective,
    SyncStrategy,
};
use pdnn::dnn::{load_network, save_network, Activation, Network};
use pdnn::mpisim::WireCodec;
use pdnn::obs::{InMemoryRecorder, Recorder, Value};
use pdnn::speech::{stack_context, Corpus, CorpusSpec, Strategy};
use pdnn::tensor::{BackendConfig, GemmContext, BACKEND_ENV};
use pdnn::util::Prng;
use std::process::ExitCode;
use std::sync::Arc;

fn arg_value(key: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == key {
            return args.next();
        }
    }
    None
}

/// Parse `key`'s value, or `default` when the flag is absent. An
/// unparsable value exits with status 1, naming the flag, like
/// `--sync` and `--backend`.
fn arg_num<T: std::str::FromStr>(key: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match arg_value(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|e| {
            eprintln!("invalid {key}: `{v}` ({e})");
            std::process::exit(1)
        }),
    }
}

fn arg_flag(key: &str) -> bool {
    std::env::args().skip(1).any(|a| a == key)
}

fn print_stats(stats: &[IterStats]) {
    println!("iter  train loss  heldout loss  accuracy  cg  alpha  accepted");
    for s in stats {
        println!(
            "{:>4}  {:>10.4}  {:>12.4}  {:>8.3}  {:>3}  {:>5.2}  {}",
            s.iter,
            s.train_loss,
            s.heldout_after,
            if s.heldout_accuracy.is_nan() {
                0.0
            } else {
                s.heldout_accuracy
            },
            s.cg_iters,
            s.alpha,
            s.accepted
        );
    }
}

fn main() -> ExitCode {
    let utterances: usize = arg_num("--utterances", 160);
    let states: usize = arg_num("--states", 6);
    let features: usize = arg_num("--features", 10);
    let noise: f64 = arg_num("--noise", 0.5);
    let workers: usize = arg_num("--workers", 0);
    let threads: usize = arg_num("--threads", 1);
    let iters: usize = arg_num("--iters", 10);
    if iters == 0 {
        eprintln!("--iters must be at least 1");
        return ExitCode::FAILURE;
    }
    let seed: u64 = arg_num("--seed", 2024);

    // Resolve the compute backend before any GemmContext exists. The
    // builder validates the name and rejects ISAs this machine lacks;
    // exporting the validated choice through PDNN_BACKEND makes every
    // rank's context (distributed workers build their own) dispatch
    // the same microkernels. Numerically this is a no-op: every
    // backend is bit-identical to forced scalar (gemm::backend docs).
    let requested = arg_value("--backend").unwrap_or_else(|| "auto".into());
    let backend = {
        let backend_cfg = match BackendConfig::builder().select_name(&requested).build() {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("invalid --backend {requested}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if backend_cfg.selection().is_some() {
            // A forced flag beats a stale environment: propagate it.
            std::env::set_var(
                BACKEND_ENV,
                backend_cfg.selection().map_or("auto", |i| i.name()),
            );
        }
        match backend_cfg.resolve() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{BACKEND_ENV}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!(
        "compute backend: requested {requested}, dispatching {} microkernels",
        backend.isa()
    );
    let context: usize = arg_num("--context", 0);
    let sync = match SyncStrategy::parse(&arg_value("--sync").unwrap_or_else(|| "master".into())) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invalid --sync: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wire_codec = match WireCodec::parse(&arg_value("--codec").unwrap_or_else(|| "none".into()))
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("invalid --codec: {e}");
            return ExitCode::FAILURE;
        }
    };
    let objective_name = arg_value("--objective").unwrap_or_else(|| "ce".into());
    let strategy = match arg_value("--strategy").as_deref() {
        None | Some("lpt") => Strategy::SortedBalanced,
        Some("rr") => Strategy::RoundRobin,
        Some("contiguous") => Strategy::Contiguous,
        Some(other) => {
            eprintln!("unknown --strategy {other} (use lpt|rr|contiguous)");
            return ExitCode::FAILURE;
        }
    };

    let corpus = Corpus::generate(CorpusSpec {
        states,
        feature_dim: features,
        utterances,
        emission_noise: noise,
        seed,
        ..CorpusSpec::tiny(seed)
    });
    println!(
        "corpus: {} utterances, {} frames, {} states",
        corpus.utterances().len(),
        corpus.total_frames(),
        states
    );
    if arg_flag("--stats") {
        print!("{}", corpus.stats().table().render());
    }

    let objective = match objective_name.as_str() {
        "ce" => Objective::CrossEntropy,
        "sequence" | "seq" => Objective::Sequence(corpus.denominator_graph()),
        other => {
            eprintln!("unknown --objective {other} (use ce|sequence)");
            return ExitCode::FAILURE;
        }
    };

    // Context stacking widens the input features.
    let input_dim = features * (2 * context + 1);
    let net0: Network<f32> = match arg_value("--resume") {
        Some(path) => match load_network(&path) {
            Ok(net) => {
                if net.input_dim() != input_dim || net.output_dim() != states {
                    eprintln!(
                        "checkpoint shape {:?} does not match --features {features} (context {context}) / --states {states}",
                        net.dims()
                    );
                    return ExitCode::FAILURE;
                }
                println!("resumed from {path} ({} parameters)", net.num_params());
                net
            }
            Err(e) => {
                eprintln!("failed to load {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let hidden: Vec<usize> = arg_value("--hidden")
                .map(|s| s.split(',').filter_map(|t| t.parse().ok()).collect())
                .unwrap_or_else(|| vec![24]);
            let mut dims = vec![input_dim];
            dims.extend(hidden);
            dims.push(states);
            let mut rng = Prng::new(seed ^ 0xABCD);
            let net = Network::new(&dims, Activation::Sigmoid, &mut rng);
            println!(
                "fresh network: dims {:?}, {} parameters",
                net.dims(),
                net.num_params()
            );
            net
        }
    };

    let mut hf_builder = HfConfig::small_task().into_builder().max_iters(iters);
    if arg_flag("--precondition") {
        hf_builder = hf_builder.preconditioner(Preconditioner::EmpiricalFisher { exponent: 0.75 });
        println!("CG preconditioner: empirical Fisher, ξ = 0.75");
    }
    let hf = hf_builder.build().expect("invalid HF configuration");

    let trained = if workers == 0 {
        if sync != SyncStrategy::Master || wire_codec != WireCodec::None {
            eprintln!("--sync/--codec apply to distributed runs only (use --workers N)");
            return ExitCode::FAILURE;
        }
        println!("mode: serial\n");
        let (train_ids, held_ids) = corpus.split_heldout(0.2);
        let ctx = if threads > 1 {
            GemmContext::threaded(threads)
        } else {
            GemmContext::sequential()
        }
        .with_backend(backend);
        let train_shard = stack_context(&corpus.shard(&train_ids), context);
        let held_shard = stack_context(&corpus.shard(&held_ids), context);
        let recorder = Arc::new(InMemoryRecorder::new());
        recorder.event(
            "compute_backend",
            vec![
                ("requested".into(), Value::Str(requested.clone())),
                ("dispatched".into(), Value::Str(backend.isa().name().into())),
            ],
        );
        let mut problem =
            DnnProblem::new(net0, ctx, train_shard, held_shard, objective).with_recorder(recorder);
        let stats = HfOptimizer::new(hf).train(&mut problem);
        print_stats(&stats);
        problem.into_network()
    } else {
        if context > 0 {
            eprintln!("--context is only supported in serial mode (workers = 0)");
            return ExitCode::FAILURE;
        }
        match sync {
            SyncStrategy::Master => {
                println!("mode: 1 master + {workers} workers ({threads} threads/rank)")
            }
            other => println!(
                "mode: {workers} peer ranks, {} allreduce sync ({threads} threads/rank)",
                other.name()
            ),
        }
        if wire_codec != WireCodec::None {
            println!(
                "wire codec: {} on f32 collective payloads",
                wire_codec.name()
            );
        }
        println!();
        let config = DistributedConfig {
            workers,
            sync,
            wire_codec,
            hf,
            strategy,
            heldout_frac: 0.2,
            threads_per_rank: threads,
            ..DistributedConfig::default()
        };
        let out = match train_distributed(&net0, &corpus, &objective, &config) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("distributed training failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        print_stats(&out.stats);
        println!("\nmaster phases:\n{}", out.master_phases.report());
        out.network
    };

    if let Some(path) = arg_value("--save") {
        match save_network(&trained, &path) {
            Ok(()) => println!("\ncheckpoint written to {path}"),
            Err(e) => {
                eprintln!("failed to save {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
