//! Zero steady-state heap growth of the packed training step.
//!
//! The `_ws` API family draws every temporary from a [`Workspace`]
//! arena and hands it back, and the GEMM drivers pack into per-thread
//! retained scratch, so once both have reached their high-water marks
//! a training step allocates nothing that is not kept. Three measures
//! over three more steps check that:
//!
//! * a counting global allocator: live heap bytes do not move, so
//!   nothing accumulates, in the arena or elsewhere;
//! * the same allocator counts allocation calls of 64 KiB or more,
//!   which must be 0. A buffer allocated and freed inside one step
//!   (a per-stripe pack buffer) leaves live bytes flat, so only this
//!   count sees it. The batch is 300 frames deep, so the `dW` GEMMs
//!   block `k` at 256 and their pack buffers cross 64 KiB;
//! * the arena's own counter: no `take_*` allocates a fresh buffer. A
//!   buffer that is dropped instead of handed back is freed and
//!   allocated again every step, which leaves live bytes flat, so only
//!   the arena counter sees a small one.
//!
//! The allocator counts the whole process, so this is the only test in
//! its binary and nothing prints inside the measured window.

use pdnn_dnn::backprop::backprop_ws;
use pdnn_dnn::gauss_newton::{gn_product_ws, Curvature};
use pdnn_dnn::loss::{cross_entropy, softmax_rows};
use pdnn_dnn::{Activation, Network, PackedActivations, PackedWeights};
use pdnn_tensor::gemm::GemmContext;
use pdnn_tensor::{Matrix, Workspace};
use pdnn_util::Prng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// System allocator wrapper tracking live heap bytes and counting
/// large allocation calls.
struct CountingAlloc;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocations at least this large are the ones a steady-state step
/// must not make.
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
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        count_large(layout.size());
        System.alloc(layout)
    }

    // pdnn-lint: allow(l7-unsafe-outside-kernel): unsafe signature required by the GlobalAlloc trait; body delegates to System
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    // pdnn-lint: allow(l7-unsafe-outside-kernel): unsafe signature required by the GlobalAlloc trait; body delegates to System
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        count_large(new_size);
        System.realloc(ptr, layout, new_size)
    }

    // pdnn-lint: allow(l7-unsafe-outside-kernel): unsafe signature required by the GlobalAlloc trait; body delegates to System
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        count_large(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn packed_step_has_zero_steady_state_heap_growth() {
    let dims = [40usize, 96, 48];
    let frames = 300;
    let mut rng = Prng::new(4);
    let net: Network<f32> = Network::new(&dims, Activation::Sigmoid, &mut rng);
    let ctx = GemmContext::sequential();
    let x: Matrix<f32> = Matrix::random_normal(frames, dims[0], 1.0, &mut rng);
    let labels: Vec<u32> = (0..frames)
        .map(|_| (rng.next_u64() % dims[2] as u64) as u32)
        .collect();
    let v: Vec<f32> = (0..net.num_params())
        .map(|_| rng.normal() as f32 * 0.01)
        .collect();
    let cache = net.forward(&ctx, &x);
    let dlogits = cross_entropy(cache.logits(), &labels).dlogits;
    let dist = softmax_rows(cache.logits());
    let packs = PackedWeights::new(&net, &ctx);
    let acts = PackedActivations::new(&cache, &ctx);
    let mut ws: Workspace<f32> = Workspace::new();

    // Forward, gradient and GN product with the forward cache held
    // throughout, every buffer handed back to the arena.
    let step = |ws: &mut Workspace<f32>| {
        let c = net.forward_ws(&ctx, &x, Some(&packs), ws);
        let g = backprop_ws(&net, &ctx, &c, &dlogits, Some(&packs), ws);
        let gv = gn_product_ws(
            &net,
            &ctx,
            &c,
            Curvature::Fisher(&dist),
            &v,
            Some(&packs),
            Some(&acts),
            ws,
        );
        ws.give_vec(gv);
        ws.give_vec(g);
        c.give_back(ws);
    };

    // One unmeasured step brings the arena to its high-water mark.
    step(&mut ws);
    let live0 = LIVE_BYTES.load(Ordering::Relaxed);
    let large0 = LARGE_ALLOCS.load(Ordering::Relaxed);
    let fresh0 = ws.stats().allocs;
    for _ in 0..3 {
        step(&mut ws);
    }
    let growth = LIVE_BYTES.load(Ordering::Relaxed) - live0;
    let large = LARGE_ALLOCS.load(Ordering::Relaxed) - large0;
    let fresh = ws.stats().allocs - fresh0;
    assert_eq!(
        growth, 0,
        "arena steady state violated: heap grew by {growth} bytes over 3 steps"
    );
    assert_eq!(
        large, 0,
        "steady state violated: {large} allocations of 64 KiB or more over 3 steps"
    );
    assert_eq!(
        fresh, 0,
        "arena steady state violated: {fresh} fresh buffers over 3 steps (a buffer not handed back?)"
    );
}
