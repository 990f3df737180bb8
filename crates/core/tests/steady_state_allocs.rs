//! No rank allocates a large buffer in steady state.
//!
//! After the first HF iteration every buffer of 64 KiB or more that a
//! rank needs — GEMM pack panels, activation and curvature-sample
//! buffers, gradient and Gauss–Newton sums, CG work vectors, wire
//! payloads — is one it already holds. So a 4-iteration run makes no
//! more such allocations than a 2-iteration run, in serial, master,
//! ring (int8 wire) and tree (f16 wire) mode. The curvature fraction
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
use pdnn_util::Prng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting large allocation calls.
struct CountingAlloc;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocations at least this large are the ones steady state must not
/// make.
const LARGE: usize = 64 << 10;

fn count_large(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// pdnn-lint: allow(l7-unsafe-outside-kernel): GlobalAlloc is an unsafe trait; this wrapper only counts and delegates to System
unsafe impl GlobalAlloc for CountingAlloc {
    // pdnn-lint: allow(l7-unsafe-outside-kernel): unsafe signature required by the GlobalAlloc trait; body delegates to System
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_large(layout.size());
        System.alloc(layout)
    }

    // pdnn-lint: allow(l7-unsafe-outside-kernel): unsafe signature required by the GlobalAlloc trait; body delegates to System
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // pdnn-lint: allow(l7-unsafe-outside-kernel): unsafe signature required by the GlobalAlloc trait; body delegates to System
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_large(new_size);
        System.realloc(ptr, layout, new_size)
    }

    // pdnn-lint: allow(l7-unsafe-outside-kernel): unsafe signature required by the GlobalAlloc trait; body delegates to System
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_large(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

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

/// Large allocations of one `iters`-iteration CE run in `mode`.
fn large_allocs(corpus: &Corpus, mode: Mode, iters: usize) -> u64 {
    let mut rng = Prng::new(3);
    let spec = corpus.spec();
    let net0 = Network::new(
        &[spec.feature_dim, 640, spec.states],
        Activation::Sigmoid,
        &mut rng,
    );
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
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
                    Objective::CrossEntropy,
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
            train_distributed_deterministic(&net0, corpus, &Objective::CrossEntropy, &config)
                .expect("training failed")
                .stats
                .len()
        }
    };
    assert_eq!(ran, iters, "{mode:?}: training stopped early");
    LARGE_ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn later_iterations_allocate_no_large_buffer_in_any_mode() {
    let corpus = corpus();
    for mode in [
        Mode::Serial,
        Mode::Distributed(SyncStrategy::Master, WireCodec::None),
        Mode::Distributed(SyncStrategy::Ring, WireCodec::Int8),
        Mode::Distributed(SyncStrategy::Tree, WireCodec::F16),
    ] {
        let short = large_allocs(&corpus, mode, 2);
        let long = large_allocs(&corpus, mode, 4);
        assert!(
            long <= short,
            "{mode:?}: {short} allocations of 64 KiB or more in 2 iterations, {long} in 4"
        );
    }
}
