//! No rank allocates a large buffer in steady state.
//!
//! After the first HF iteration every buffer of 64 KiB or more that a
//! rank needs — GEMM pack panels, activation and curvature-sample
//! buffers, gradient and Gauss–Newton sums, CG work vectors, wire
//! payloads — is one it already holds. So a 4-iteration run makes no
//! more such allocations than a 2-iteration run, and holds no more
//! bytes in such blocks at its peak, in serial, master, ring (int8
//! wire) and tree (f16 wire) mode under cross-entropy, and in serial
//! and ring mode under the sequence objective. The curvature fraction
//! is 1, so every sample has the same size and no buffer has a
//! high-water mark still to reach after the first iteration.
//!
//! The problem is large enough that every buffer class crosses 64 KiB,
//! and small enough to run in a debug build: θ is ~640 KiB, an int8
//! ring chunk between two ranks ~80 KiB, and a worker's cross-entropy
//! gradient with respect to the logits (~190 frames of 128 classes)
//! ~95 KiB. The per-rank recorders' span and event lists stay well
//! below 64 KiB at these iteration counts, so nothing needs excluding.
//!
//! The allocator counts the whole process, so this is the only test in
//! its binary.

use pdnn_core::{
    train_distributed_deterministic, DistributedConfig, DnnProblem, HfConfig, HfOptimizer,
    Objective, SyncStrategy,
};
use pdnn_dnn::{Activation, Network};
use pdnn_mpisim::WireCodec;
use pdnn_speech::{Corpus, CorpusSpec};
use pdnn_tensor::gemm::GemmContext;
use pdnn_util::alloc_count::{self, CountingAlloc};
use pdnn_util::Prng;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations at least this large are the ones steady state must not
/// make.
const LARGE: usize = 64 << 10;

#[derive(Clone, Copy, Debug)]
enum Mode {
    Serial,
    Distributed(SyncStrategy, WireCodec),
}

fn corpus() -> Corpus {
    Corpus::generate(CorpusSpec {
        states: 128,
        feature_dim: 128,
        ..CorpusSpec::tiny(31)
    })
}

fn hf(iters: usize) -> HfConfig {
    let mut hf = HfConfig::small_task();
    hf.max_iters = iters;
    hf.cg.max_iters = 6;
    hf.curvature_fraction = 1.0;
    hf
}

/// Large allocations of one `iters`-iteration run in `mode` under
/// `objective`, and the most bytes live in large blocks at once
/// during it beyond those live before it.
fn large_allocs(corpus: &Corpus, mode: Mode, objective: &Objective, iters: usize) -> (u64, i64) {
    let mut rng = Prng::new(3);
    let spec = corpus.spec();
    let net0 = Network::new(
        &[spec.feature_dim, 640, spec.states],
        Activation::Sigmoid,
        &mut rng,
    );
    let before = alloc_count::large_allocs();
    let live_before = alloc_count::reset_large_peak();
    let ran = match mode {
        // On a thread of its own, like a rank: the thread's GEMM
        // scratch starts empty in every run, as it does in the ranks.
        Mode::Serial => std::thread::scope(|s| {
            s.spawn(|| {
                let (train_ids, held_ids) = corpus.split_heldout(0.2);
                let mut problem = DnnProblem::new(
                    net0,
                    GemmContext::sequential(),
                    corpus.shard(&train_ids),
                    corpus.shard(&held_ids),
                    objective.clone(),
                );
                HfOptimizer::new(hf(iters)).train(&mut problem).len()
            })
            .join()
            .expect("serial run panicked")
        }),
        Mode::Distributed(sync, wire_codec) => {
            let config = DistributedConfig {
                workers: 2,
                sync,
                wire_codec,
                hf: hf(iters),
                ..DistributedConfig::default()
            };
            train_distributed_deterministic(&net0, corpus, objective, &config)
                .expect("training failed")
                .stats
                .len()
        }
    };
    assert_eq!(ran, iters, "{mode:?}: training stopped early");
    let peak = alloc_count::large_peak_bytes() - live_before;
    (alloc_count::large_allocs() - before, peak)
}

#[test]
fn later_iterations_allocate_no_large_buffer_in_any_mode() {
    alloc_count::set_large(LARGE);
    let corpus = corpus();
    let ce = Objective::CrossEntropy;
    let mmi = Objective::Sequence(corpus.denominator_graph());
    for (mode, objective) in [
        (Mode::Serial, &ce),
        (
            Mode::Distributed(SyncStrategy::Master, WireCodec::None),
            &ce,
        ),
        (Mode::Distributed(SyncStrategy::Ring, WireCodec::Int8), &ce),
        (Mode::Distributed(SyncStrategy::Tree, WireCodec::F16), &ce),
        (Mode::Serial, &mmi),
        (Mode::Distributed(SyncStrategy::Ring, WireCodec::Int8), &mmi),
    ] {
        let what = format!("{mode:?}, {}", objective_name(objective));
        let (short, short_peak) = large_allocs(&corpus, mode, objective, 2);
        let (long, long_peak) = large_allocs(&corpus, mode, objective, 4);
        assert!(
            long <= short,
            "{what}: {short} allocations of 64 KiB or more in 2 iterations, {long} in 4"
        );
        assert_eq!(
            long_peak, short_peak,
            "{what}: peak bytes live in 64 KiB+ blocks grew from 2 iterations to 4"
        );
    }
}

fn objective_name(objective: &Objective) -> &'static str {
    match objective {
        Objective::CrossEntropy => "cross-entropy",
        Objective::Sequence(_) => "sequence",
    }
}
