//! A CG solver allocates its work vectors once, not per step or per
//! solve.
//!
//! Each step of a solve runs its vector algebra in place, and the
//! solver gives the previous product back to its operator before it
//! asks for the next, so a product allocates nothing once two exist.
//! A first solve on a fresh [`CgSolver`], against an operator with
//! nothing to lend yet, therefore allocates exactly: the leased
//! direction `p` and iterate `d`, the quadratic history and the
//! iterate list (plus `z` under a preconditioner), one leased copy per
//! stored iterate, and two vectors that found no returned buffer: the
//! residual and the first `Ap`. From an explicit start `d0` the
//! residual is the product `A·d0`; from the cold start (`d0 = None`)
//! it is a lease filled from `g`. Once the result's iterates are given
//! back, a second solve of the same length allocates nothing at all. A
//! counting global allocator checks both counts exactly, from both
//! starts, with and without a preconditioner, for solves of 12 and 30
//! steps.
//!
//! The allocator counts the whole process, so this is the only test in
//! its binary and nothing prints inside the measured window.

use pdnn_core::{CgConfig, CgOperator, CgResult, CgSolver};
use pdnn_obs::NullRecorder;
use pdnn_util::alloc_count::{self, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn config(steps: usize) -> CgConfig {
    CgConfig {
        max_iters: steps,
        min_iters: steps,
        epsilon: 0.0,
        store_gamma: 1.3,
    }
}

/// A diagonal curvature whose products and leases come from a free
/// list, which allocates only when it is empty.
struct Diagonal<'a> {
    diag: &'a [f32],
    free: Vec<Vec<f32>>,
}

impl CgOperator for Diagonal<'_> {
    fn product(&mut self, v: &[f32]) -> Vec<f32> {
        let mut out = self.lease(v.len());
        for ((o, &x), &a) in out.iter_mut().zip(v).zip(self.diag) {
            *o = x * a;
        }
        out
    }

    fn lease(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.resize(len, 0.0);
        buf
    }

    fn give_back(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }
}

/// Run one solve from `d0` on `solver`, forced to its configured step
/// count on an ill-conditioned diagonal system; return it with the
/// allocations it made. The operator's free list holds every vector the
/// solver gives back.
fn solve(
    solver: &mut CgSolver,
    op: &mut Diagonal<'_>,
    d0: Option<&[f32]>,
    precond: Option<&[f32]>,
    g: &[f32],
) -> (CgResult, u64) {
    let before = alloc_count::allocs();
    let result = solver.solve(g, d0, op, 0.5, precond, &NullRecorder);
    let allocs = alloc_count::allocs() - before;
    (result, allocs)
}

#[test]
fn cg_solver_allocates_its_buffers_once_and_then_nothing() {
    let n = 4099;
    let diag: Vec<f32> = (0..n)
        .map(|i| 10f32.powf(4.0 * i as f32 / n as f32))
        .collect();
    let g: Vec<f32> = (0..n).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.1).collect();
    let m: Vec<f32> = diag.iter().map(|&a| a.sqrt()).collect();
    // The optimizer's explicit start under momentum, allocated outside
    // the measured windows.
    let d0 = vec![0.0f32; n];

    // Work buffers: p, d, the q history and the iterate list; `d`
    // itself becomes the final iterate (neither 12 nor 30 is in the
    // thinned series 1…9, 11, 14, 18, 24, 31, …), so the stored copies
    // are all the other iterates. A preconditioner adds z.
    for start in [None, Some(&d0[..])] {
        for (precond, buffers) in [(None, 4), (Some(&m[..]), 5)] {
            let what = format!(
                "explicit d0: {}, preconditioned: {}",
                start.is_some(),
                precond.is_some()
            );
            let mut stored = Vec::new();
            for steps in [12, 30] {
                let mut solver = CgSolver::new(config(steps));
                let mut op = Diagonal {
                    diag: &diag,
                    free: Vec::with_capacity(64),
                };
                let (first, cold) = solve(&mut solver, &mut op, start, precond, &g);
                assert_eq!(first.iters, steps, "solve stopped early ({what})");
                let copies = first.iterates.len() as u64 - 1;
                stored.push(copies);
                assert_eq!(
                    cold,
                    buffers + copies + 2,
                    "first {steps}-step solve ({what})"
                );
                solver.reclaim(first, |d| op.give_back(d));
                let (second, warm) = solve(&mut solver, &mut op, start, precond, &g);
                assert_eq!(second.iters, steps);
                assert_eq!(warm, 0, "second {steps}-step solve ({what})");
            }
            assert!(
                stored[1] > stored[0],
                "the longer solve stores more iterates"
            );
        }
    }
}
