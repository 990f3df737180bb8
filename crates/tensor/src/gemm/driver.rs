//! The one blocked driver behind every [`GemmOp`](super::GemmOp) form.
//!
//! It follows the BLIS loop structure (Van Zee & van de Geijn, TOMS
//! 2015), with the k-block loop outermost and the same for every thread
//! count. For each `kc`-deep k-block:
//!
//! * the `kc x n` block row of `op(B)` is borrowed from a
//!   [`super::PackedB`] or packed once into this thread's B scratch
//!   (both hold it in the [`block_at`] layout);
//! * the `sh`-row stripes of C run, as a plain loop on one thread or as
//!   one `par_chunks_mut` region on the context's pool;
//! * each stripe borrows its A panels from a [`PackedA`] or packs them
//!   into its thread's A scratch, then walks the `nc` column blocks,
//!   the `NR` column panels and the `MR` row panels into the one tile
//!   kernel call.
//!
//! Every C tile meets the k-blocks in `pc` order with the same
//! [`Merge`], and a pack's panels are the ones the driver would have
//! packed, so every form is bitwise the same product at every thread
//! count.
//!
//! The streamed-`B^T` form ([`GemmOp::packed_a_bt`](super::GemmOp::packed_a_bt))
//! shares the prologue and the stripe split but keeps its own loop,
//! because its kernel consumes whole rows of `B` instead of a packed
//! panel.

use rayon::prelude::*;

use crate::matrix::MatMut;
use crate::scalar::Scalar;

use super::backend::Merge;
use super::op::{OpA, OpB};
use super::prepacked::{block_at, PackedA};
use super::scratch::{self, Slot};
use super::{op_shape, pack, GemmContext, BT_COLS, MR, NR};

/// What the prologue resolves for one product: `op(A)` is `m x k`,
/// `op(B)` is `k x n`, stripes are `sh` rows of C, blocks `kc` deep and
/// `nc` wide.
#[derive(Clone, Copy)]
struct Dims {
    m: usize,
    n: usize,
    k: usize,
    sh: usize,
    kc: usize,
    nc: usize,
}

/// `C = alpha * op(A) * op(B) + beta * C`.
///
/// # Panics
/// On an inner-dimension or `C` shape mismatch, a streamed `B^T` slice
/// that is not `n x k`, or two packs built under different blockings
/// (their panel grids would disagree).
pub(super) fn run<T: Scalar>(
    ctx: &GemmContext,
    a: OpA<'_, T>,
    b: OpB<'_, T>,
    alpha: T,
    beta: T,
    c: MatMut<'_, T>,
) {
    let (m, k) = match a {
        OpA::Mat(a, ta) => op_shape(ta, a.shape()),
        OpA::Packed(pa) => (pa.m(), pa.k()),
    };
    let (kb, n) = match b {
        OpB::Mat(b, tb) => op_shape(tb, b.shape()),
        OpB::Packed(pb) => (pb.k(), pb.n()),
        OpB::RowsT(rows) => {
            let n = c.shape().1;
            assert_eq!(rows.len(), n * k, "gemm: B slice is not n x k");
            (k, n)
        }
    };
    assert_eq!(k, kb, "gemm: inner dimensions {k} != {kb}");
    assert_eq!(
        c.shape(),
        (m, n),
        "gemm: C is {:?}, want ({m},{n})",
        c.shape()
    );
    // A pack's panels were laid out under its own blocking, so the
    // product runs under it.
    let blocking = match (a, b) {
        (OpA::Packed(pa), OpB::Packed(pb)) => {
            assert_eq!(
                pa.blocking(),
                pb.blocking(),
                "gemm: operands packed under different blockings"
            );
            pa.blocking()
        }
        (OpA::Packed(pa), _) => pa.blocking(),
        (_, OpB::Packed(pb)) => pb.blocking(),
        _ => ctx.blocking,
    };
    let c = c.into_slice();
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // No k-block to merge: C = beta * C, and beta = 0 overwrites
        // (NaN-safe) exactly as a first-block merge would.
        match Merge::first_block(beta) {
            Merge::Overwrite => c.fill(T::ZERO),
            _ => c.iter_mut().for_each(|v| *v *= beta),
        }
        return;
    }
    // Stripe height: small enough to give the pool ~3 stripes per
    // thread for load balance, never below the micro-tile and never
    // above MC (the L2 A-panel budget), rounded down to MR. Both bounds
    // are multiples of MR whatever MC is, so every stripe starts on a
    // row panel of a `PackedA` and its A panels fit the `sh`-row
    // scratch.
    let sh = m
        .div_ceil(ctx.threads * 3)
        .next_multiple_of(MR)
        .clamp(MR, (blocking.mc / MR * MR).max(MR));
    let dims = Dims {
        m,
        n,
        k,
        sh,
        kc: blocking.kc.min(k),
        nc: blocking.nc.min(n),
    };
    ctx.run_pool(|| match (a, b) {
        (OpA::Packed(pa), OpB::RowsT(rows)) => stream_bt(ctx, dims, alpha, beta, pa, rows, c),
        (OpA::Mat(..), OpB::RowsT(..)) => {
            unreachable!("no constructor builds a plain-A x streamed-B^T op")
        }
        _ => nest(ctx, dims, alpha, beta, a, b, c),
    });
}

/// Run `f` on every `(index, stripe)` of `c` cut into `len`-element
/// stripes: in order on one thread, or as one parallel region on the
/// context's pool (the caller is already inside it).
fn for_each_stripe<T: Scalar>(
    ctx: &GemmContext,
    c: &mut [T],
    len: usize,
    f: impl Fn((usize, &mut [T])) + Sync + Send,
) {
    if ctx.pool.is_some() {
        c.par_chunks_mut(len).enumerate().for_each(f);
    } else {
        c.chunks_mut(len).enumerate().for_each(f);
    }
}

/// The packed-panel loop nest, for every form but the streamed `B^T`.
fn nest<T: Scalar>(
    ctx: &GemmContext,
    dims: Dims,
    alpha: T,
    beta: T,
    a: OpA<'_, T>,
    b: OpB<'_, T>,
    c: &mut [T],
) {
    let Dims {
        m,
        n,
        k,
        sh,
        kc,
        nc,
    } = dims;
    let tile_fn = T::tile_kernel(ctx.backend());
    // One block row of a plain B; a pack is borrowed instead.
    let mut b_buf = match b {
        OpB::Mat(..) => scratch::take::<T>(Slot::B, block_at(NR, n, nc, kc, 0, 0)),
        _ => Vec::new(),
    };
    for pc in (0..k).step_by(kc) {
        let kc_eff = kc.min(k - pc);
        let merge = if pc == 0 {
            Merge::first_block(beta)
        } else {
            Merge::Accumulate
        };
        if let OpB::Mat(b, tb) = b {
            for jc in (0..n).step_by(nc) {
                let at = block_at(NR, n, nc, 0, kc_eff, jc);
                pack::pack_b(b, tb, pc, kc_eff, jc, nc.min(n - jc), &mut b_buf[at..]);
            }
        }
        let b_row = match b {
            OpB::Packed(pb) => &pb.panels()[block_at(NR, n, nc, pc, kc_eff, 0)..],
            _ => &b_buf[..],
        };
        for_each_stripe(ctx, c, sh * n, |(si, stripe)| {
            let ic0 = si * sh;
            let mc_eff = stripe.len() / n;
            let mut a_buf = Vec::new();
            let ap = match a {
                OpA::Packed(pa) => &pa.panels()[block_at(MR, m, MR, pc, kc_eff, ic0)..],
                OpA::Mat(a, ta) => {
                    a_buf = scratch::take::<T>(Slot::A, sh * kc);
                    pack::pack_a(a, ta, ic0, mc_eff, pc, kc_eff, &mut a_buf);
                    &a_buf[..]
                }
            };
            for jc in (0..n).step_by(nc) {
                let nc_eff = nc.min(n - jc);
                let bp = &b_row[block_at(NR, n, nc, 0, kc_eff, jc)..];
                for jr in 0..nc_eff.div_ceil(NR) {
                    let nr_eff = NR.min(nc_eff - jr * NR);
                    let bp_panel = &bp[jr * kc_eff * NR..(jr + 1) * kc_eff * NR];
                    for ir in 0..mc_eff.div_ceil(MR) {
                        let mr_eff = MR.min(mc_eff - ir * MR);
                        let ap_panel = &ap[ir * kc_eff * MR..(ir + 1) * kc_eff * MR];
                        let c_off = ir * MR * n + jc + jr * NR;
                        tile_fn(
                            kc_eff,
                            ap_panel,
                            bp_panel,
                            alpha,
                            merge,
                            &mut stripe[c_off..],
                            n,
                            mr_eff,
                            nr_eff,
                        );
                    }
                }
            }
            if let OpA::Mat(..) = a {
                scratch::put_back(Slot::A, a_buf);
            }
        });
    }
    if let OpB::Mat(..) = b {
        scratch::put_back(Slot::B, b_buf);
    }
}

/// `A_packed * B^T` with `B` an `n x k` row-major slice read in place.
///
/// Because `op(B)(kk, j) = B[j * k + kk]`, each output column `j`
/// consumes one contiguous row of `B`, so the kernel streams `B`
/// stride-one — `BT_COLS` rows, i.e. that many independent column
/// chains, per call — without the reformat a [`super::PackedB`]
/// performs. That wins when `op(A)` is short (few row panels): the
/// whole of `B` is read once per stripe and the pack's extra
/// write+reread of `B`-sized memory never happens. For tall `op(A)` the
/// register-blocked packed path amortizes better — callers should
/// prefer [`super::GemmOp::packed_ab`] once `m` spans several row
/// panels.
///
/// Bitwise identical to the packed forms with `tb = Trans::T`: the k
/// loop is split on the same `kc` grid, each element's FMA chain runs
/// `kk` ascending within a block, and the per-block merge is the
/// [`Merge`] arithmetic the tile kernels apply.
fn stream_bt<T: Scalar>(
    ctx: &GemmContext,
    dims: Dims,
    alpha: T,
    beta: T,
    pa: &PackedA<T>,
    b_rows: &[T],
    c: &mut [T],
) {
    let Dims {
        m, n, k, sh, kc, ..
    } = dims;
    let bt_fn = T::bt_kernel(ctx.backend());
    for_each_stripe(ctx, c, sh * n, |(si, stripe)| {
        let ic0 = si * sh;
        let mc_eff = stripe.len() / n;
        // BT_COLS output columns at a time: their rows of B are
        // streamed front to back exactly once per stripe while the A
        // panels stay cache-resident.
        for (group, chunk) in b_rows.chunks(BT_COLS * k).enumerate() {
            let j0 = group * BT_COLS;
            let live = chunk.len() / k;
            // A ragged last group repeats its final row: the kernel
            // shape stays fixed and the surplus columns are never
            // written to C.
            let rows: [&[T]; BT_COLS] = std::array::from_fn(|c| {
                let c = c.min(live - 1);
                &chunk[c * k..(c + 1) * k]
            });
            for pc in (0..k).step_by(kc) {
                let kc_eff = kc.min(k - pc);
                let merge = if pc == 0 {
                    Merge::first_block(beta)
                } else {
                    Merge::Accumulate
                };
                let ap = &pa.panels()[block_at(MR, m, MR, pc, kc_eff, ic0)..];
                for ir in 0..mc_eff.div_ceil(MR) {
                    let mr_eff = MR.min(mc_eff - ir * MR);
                    let ap_panel = &ap[ir * kc_eff * MR..(ir + 1) * kc_eff * MR];
                    // Backend-dispatched column kernel, same FMA chain
                    // as the tile kernels: kk ascending within the
                    // block, acc = a.fma(b, acc); padded panel rows
                    // compute zeros that the masked C write below
                    // discards.
                    let mut acc = [[T::ZERO; MR]; BT_COLS];
                    bt_fn(
                        kc_eff,
                        ap_panel,
                        rows.map(|r| &r[pc..pc + kc_eff]),
                        &mut acc,
                    );
                    for i in 0..mr_eff {
                        let row0 = (ir * MR + i) * n + j0;
                        let dst = &mut stripe[row0..row0 + live];
                        match merge {
                            Merge::Overwrite => {
                                for (d, col) in dst.iter_mut().zip(&acc) {
                                    *d = alpha * col[i];
                                }
                            }
                            Merge::Scale(b0) => {
                                for (d, col) in dst.iter_mut().zip(&acc) {
                                    *d = alpha.mul_add(col[i], b0 * *d);
                                }
                            }
                            Merge::Accumulate => {
                                for (d, col) in dst.iter_mut().zip(&acc) {
                                    *d = alpha.mul_add(col[i], *d);
                                }
                            }
                        }
                    }
                }
            }
        }
    });
}
