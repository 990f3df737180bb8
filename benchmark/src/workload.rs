//! The four workloads and the one code path that runs them.
//!
//! Construction mirrors `src/bin/pdnn-train.rs` call for call —
//! `Corpus::generate(CorpusSpec { .., ..CorpusSpec::tiny(seed) })`,
//! `Network::new(dims, Sigmoid, Prng::new(seed ^ 0xABCD))`,
//! `HfConfig::small_task()`, `split_heldout(0.2)`, then either
//! `DnnProblem` + `HfOptimizer::train` or `train_distributed` — so the
//! numbers are those of the trainer a user runs
//! (`tests/cli_parity.rs` proves it against the CLI's own output).

use crate::trace::{Recorder, Traced, SPAN_ROOT};
use pdnn::core::{
    train_distributed, DistributedConfig, DnnProblem, HfConfig, HfOptimizer, IterStats, Objective,
    SyncStrategy, TrainOutput,
};
use pdnn::dnn::{Activation, Network};
use pdnn::mpisim::WireCodec;
use pdnn::speech::{Corpus, CorpusSpec, Strategy};
use pdnn::tensor::GemmContext;
use pdnn::util::Prng;

/// Corpus shape shared by every workload (the acoustic task).
pub const STATES: usize = 32;
pub const FEATURE_DIM: usize = 40;
pub const EMISSION_NOISE: f64 = 1.5;
pub const HELDOUT_FRAC: f64 = 0.2;
/// Utterance-length spread of the benchmark corpora. `CorpusSpec::tiny`
/// uses 0.4, which moves total frames (and every time with them) by
/// ±5% from seed to seed; 0.1 holds that to ±1.5%.
pub const LENGTH_SIGMA: f64 = 0.1;
/// CG iterations per HF iteration. `HfConfig::small_task()` allows 60
/// and stops on relative progress after 13–30, a count that swings
/// ±12% with the seed; every workload here hits this cap instead, so
/// one HF iteration is the same work on every seed, and the held-out
/// targets are reached in as many iterations as with the uncapped
/// solve.
pub const CG_CAP: usize = 12;
/// `nproc` is 2 on the reference host: two compute ranks, one GEMM
/// thread each. In master mode rank 0 blocks in `recv` while the two
/// workers compute, so at most two threads are runnable.
pub const WORKERS: usize = 2;
pub const THREADS_PER_RANK: usize = 1;
/// Iteration cap of every run to a held-out loss (the issue's 14).
/// Of 200 seeds 198 reached `serial_ce`'s target within 11.
pub const ITER_CAP: usize = 14;
/// Problem instances a run cycles through: round `r` trains instance
/// `r % INSTANCES` (see [`instance_seed`]). The time to a held-out loss
/// is a whole number of HF iterations, 6 to 9 depending on the seed, so
/// one instance per run would put runs at different seeds 16% of the
/// median apart (quartile distance; past a 25% bound one time in ten),
/// the median over seven instances 5-8%.
pub const INSTANCES: usize = 7;

/// Seed of problem instance `instance` of a run at `seed`. Instance 0
/// is `seed` itself, the job `pdnn-train --seed <seed>` runs; the rest
/// are SplitMix64 outputs, so neighbouring seeds share no instance.
pub fn instance_seed(seed: u64, instance: usize) -> u64 {
    if instance == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((instance as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where the optimizer runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// `DnnProblem` + `HfOptimizer::train` in this thread.
    Serial,
    /// `train_distributed` over `WORKERS` ranks.
    Distributed(SyncStrategy, WireCodec),
}

/// What one measured run does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Task {
    /// Cross-entropy from a fresh net until held-out loss ≤ `target`
    /// or for `max_iters` iterations, whichever comes first.
    Ce {
        target: Option<f64>,
        max_iters: usize,
    },
    /// The paper's CE → sequence recipe: set-up pre-trains with CE
    /// until held-out CE ≤ `pretrain_target` (so MMI starts from the
    /// same quality on every seed; from a fresh net it rejects every
    /// step), the measured run is a fixed budget of `iters` MMI
    /// iterations (MMI loss has no seed-independent target).
    Seq { pretrain_target: f64, iters: usize },
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why it is in the set (also BENCHMARK.json's `why`).
    pub why: &'static str,
    pub utterances: usize,
    pub length_sigma: f64,
    pub hidden: [usize; 2],
    pub curvature_fraction: f64,
    pub cg_cap: usize,
    pub mode: Mode,
    pub task: Task,
}

/// Held-out CE loss at which `serial_ce` and `master_ce` are trained.
pub const CE_TARGET: f64 = 0.60;
/// The same for `ring_int8_wide`: a tenth of the curvature sample and
/// an int8 wire get the wide net less far in as many iterations.
pub const WIDE_CE_TARGET: f64 = 1.0;
/// `--smoke` target: half the corpus and a quarter of the width never
/// reach the targets above.
pub const SMOKE_CE_TARGET: f64 = 2.0;

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "serial_ce",
        why: "plain single-worker CE baseline: tensor+dnn do ~97% of it and mpisim nothing, so a comms change must not move it",
        utterances: 80,
        length_sigma: LENGTH_SIGMA,
        hidden: [256, 256],
        curvature_fraction: 0.5,
        cg_cap: CG_CAP,
        mode: Mode::Serial,
        task: Task::Ce {
            target: Some(CE_TARGET),
            max_iters: ITER_CAP,
        },
    },
    WorkloadSpec {
        name: "serial_seq",
        why: "CE then sequence (MMI) training on the same net: per-utterance forward-backward and another curvature, so a CE-only shortcut that costs MMI shows",
        utterances: 80,
        length_sigma: LENGTH_SIGMA,
        hidden: [256, 256],
        curvature_fraction: 0.5,
        cg_cap: CG_CAP,
        mode: Mode::Serial,
        task: Task::Seq {
            pretrain_target: 1.5,
            iters: 4,
        },
    },
    WorkloadSpec {
        name: "master_ce",
        why: "the serial_ce job on the paper's master/worker architecture at 2 workers: coordination and balance show, a codec or ring change predicts no change",
        utterances: 80,
        length_sigma: LENGTH_SIGMA,
        hidden: [256, 256],
        curvature_fraction: 0.5,
        cg_cap: CG_CAP,
        mode: Mode::Distributed(SyncStrategy::Master, WireCodec::None),
        task: Task::Ce {
            target: Some(CE_TARGET),
            max_iters: ITER_CAP,
        },
    },
    WorkloadSpec {
        name: "ring_int8_wide",
        why: "wide net, 10% curvature sample, ring allreduce with int8 wire: most vector bytes per frame, so comm/codec/CG-vector changes show and a GEMM gain moves it least",
        utterances: 80,
        length_sigma: LENGTH_SIGMA,
        hidden: [512, 512],
        curvature_fraction: 0.1,
        cg_cap: CG_CAP,
        mode: Mode::Distributed(SyncStrategy::Ring, WireCodec::Int8),
        task: Task::Ce {
            target: Some(WIDE_CE_TARGET),
            max_iters: ITER_CAP,
        },
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl WorkloadSpec {
    pub fn dims(&self) -> Vec<usize> {
        vec![FEATURE_DIM, self.hidden[0], self.hidden[1], STATES]
    }

    /// Ranks that compute (1 for serial).
    pub fn compute_ranks(&self) -> usize {
        match self.mode {
            Mode::Serial => 1,
            Mode::Distributed(..) => WORKERS,
        }
    }

    /// `--smoke` shrinks the corpus, the net and the distance to the
    /// target, not the code path.
    pub fn shrunk(&self) -> WorkloadSpec {
        WorkloadSpec {
            utterances: self.utterances / 2,
            hidden: [self.hidden[0] / 4, self.hidden[1] / 4],
            task: match self.task {
                Task::Ce { max_iters, .. } => Task::Ce {
                    target: Some(SMOKE_CE_TARGET),
                    max_iters,
                },
                seq => seq,
            },
            ..*self
        }
    }
}

/// Everything the program under test receives: generated inputs only.
pub struct Inputs {
    pub corpus: Corpus,
    pub net0: Network<f32>,
    pub objective: Objective,
    pub hf: HfConfig,
    /// Set-up got the net to where the task starts from (false when
    /// the sequence task's pre-training ran into the iteration cap).
    pub ready: bool,
}

pub fn generate_corpus(spec: &WorkloadSpec, seed: u64) -> Corpus {
    Corpus::generate(CorpusSpec {
        states: STATES,
        feature_dim: FEATURE_DIM,
        utterances: spec.utterances,
        emission_noise: EMISSION_NOISE,
        length_sigma: spec.length_sigma,
        seed,
        ..CorpusSpec::tiny(seed)
    })
}

fn hf_config(spec: &WorkloadSpec, max_iters: usize, target: Option<f64>) -> HfConfig {
    HfConfig::small_task()
        .into_builder()
        .max_iters(max_iters)
        .cg_iters(spec.cg_cap)
        .sample_fraction(spec.curvature_fraction)
        .target_heldout_loss(target)
        .build()
        .expect("workload HF configuration is valid")
}

fn serial_problem(corpus: &Corpus, net: Network<f32>, objective: Objective) -> DnnProblem {
    let (train_ids, held_ids) = corpus.split_heldout(HELDOUT_FRAC);
    DnnProblem::new(
        net,
        GemmContext::sequential(),
        corpus.shard(&train_ids),
        corpus.shard(&held_ids),
        objective,
    )
}

/// Set-up: generate the corpus and the network from `seed`; for the
/// sequence workload also run the CE pre-training.
pub fn prepare(spec: &WorkloadSpec, seed: u64) -> Inputs {
    let corpus = generate_corpus(spec, seed);
    let mut rng = Prng::new(seed ^ 0xABCD);
    let net0 = Network::new(&spec.dims(), Activation::Sigmoid, &mut rng);
    match spec.task {
        Task::Ce { target, max_iters } => Inputs {
            hf: hf_config(spec, max_iters, target),
            objective: Objective::CrossEntropy,
            corpus,
            net0,
            ready: true,
        },
        Task::Seq {
            pretrain_target,
            iters,
        } => {
            let mut problem = serial_problem(&corpus, net0, Objective::CrossEntropy);
            let stats = HfOptimizer::new(hf_config(spec, ITER_CAP, Some(pretrain_target)))
                .train(&mut problem);
            Inputs {
                ready: stats
                    .last()
                    .is_some_and(|s| s.heldout_after <= pretrain_target),
                hf: hf_config(spec, iters, None),
                objective: Objective::Sequence(corpus.denominator_graph()),
                net0: problem.into_network(),
                corpus,
            }
        }
    }
}

/// What a training run hands back for checking and reporting.
pub struct Trained {
    pub stats: Vec<IterStats>,
    pub theta: Vec<f32>,
    /// Present on distributed workloads.
    pub dist: Option<Box<TrainOutput>>,
}

/// The measured operation. With a recorder (the traced pass) a serial
/// run goes through the `Traced` decorator, a span per trait call; a
/// distributed run is spanned as a whole, its inner timeline comes
/// from `TrainOutput`. Without one nothing is recorded.
pub fn train(spec: &WorkloadSpec, inputs: Inputs, rec: Option<&Recorder>) -> Trained {
    let Inputs {
        corpus,
        net0,
        objective,
        hf,
        ..
    } = inputs;
    match spec.mode {
        Mode::Serial => {
            let mut problem = serial_problem(&corpus, net0, objective);
            let mut optimizer = HfOptimizer::new(hf);
            let stats = match rec {
                None => optimizer.train(&mut problem),
                Some(rec) => {
                    let mut traced = Traced::new(&mut problem, rec);
                    rec.time(SPAN_ROOT, || optimizer.train(&mut traced))
                }
            };
            Trained {
                stats,
                theta: problem.into_network().to_flat(),
                dist: None,
            }
        }
        Mode::Distributed(sync, wire_codec) => {
            let config = DistributedConfig {
                workers: WORKERS,
                sync,
                wire_codec,
                hf,
                strategy: Strategy::SortedBalanced,
                heldout_frac: HELDOUT_FRAC,
                threads_per_rank: THREADS_PER_RANK,
                ..DistributedConfig::default()
            };
            let run = || {
                train_distributed(&net0, &corpus, &objective, &config)
                    .expect("fault-free distributed training succeeds")
            };
            let out = match rec {
                None => run(),
                Some(rec) => rec.time(SPAN_ROOT, run),
            };
            Trained {
                stats: out.stats.clone(),
                theta: out.network.to_flat(),
                dist: Some(Box::new(out)),
            }
        }
    }
}
