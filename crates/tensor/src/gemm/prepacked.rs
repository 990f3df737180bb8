//! Prepacked-operand GEMM.
//!
//! DNN training multiplies every batch against the *same* weight
//! matrices, so repacking B on every call wastes both time and — the
//! paper's Section V.A.4 point — allocation churn: "We manage memory
//! by essentially keeping track of what we have allocated so that we
//! can reallocate out of that memory instead of repeatedly freeing
//! and allocating … it greatly reduces timing jitter."
//!
//! [`PackedB`] packs `op(B)` once into the micro-panel layout the
//! kernel consumes; [`super::GemmOp::packed_b`] then runs the blocked driver
//! reading panels straight out of it. [`PackedA`] is the mirror for
//! the *left* operand: a CG solve holds the curvature-minibatch
//! activations fixed across dozens of Gauss–Newton products, so the
//! `a_prev * Vw^T` R-forward GEMMs can read a once-packed A while
//! only the small direction matrix is packed per call
//! ([`super::GemmOp::packed_a`]). Results are bitwise identical to
//! [`super::GemmOp::ab`] with the same blocking: packing is pure data
//! movement and both drivers issue the identical microkernel
//! sequence.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::workspace::Workspace;
use rayon::prelude::*;

use super::backend::{AccFn, BtFn};
use super::{kernel, pack, Blocking, GemmContext, Trans, BT_COLS, MR, NR};

/// One `(pc, jc)` block of the packed B operand.
#[derive(Clone, Copy, Debug)]
struct BlockInfo {
    /// k-offset of the block.
    pc: usize,
    /// k-extent.
    kc_eff: usize,
    /// column offset.
    jc: usize,
    /// column extent.
    nc_eff: usize,
    /// start offset in the packed buffer.
    offset: usize,
}

/// `op(B)` packed once for repeated multiplication.
#[derive(Clone, Debug)]
pub struct PackedB<T: Scalar> {
    data: Vec<T>,
    blocks: Vec<BlockInfo>,
    blocking: Blocking,
    k: usize,
    n: usize,
}

impl<T: Scalar> PackedB<T> {
    /// Pack `op(B)` (shape `k x n`) under `blocking`.
    ///
    /// Degenerate shapes (`k == 0` or `n == 0`) produce an empty pack
    /// that [`super::GemmOp::packed_b`] handles through the same early-return
    /// paths as [`super::GemmOp::ab`] (pure `beta` scaling of C).
    pub fn new(b: &Matrix<T>, tb: Trans, blocking: Blocking) -> Self {
        Self::build(b.rows(), b.cols(), b.as_slice(), tb, blocking, |total| {
            vec![T::ZERO; total]
        })
    }

    /// [`Self::new`] with the packed buffer drawn from a [`Workspace`]
    /// arena instead of a fresh allocation.
    ///
    /// This is the per-call packing path of the CG hot loop: the small
    /// direction matrix `Vw` is packed once per Gauss–Newton product
    /// and retired straight back via [`Self::give_back`], so steady
    /// state packs into recycled memory. The scratch take is safe
    /// because [`pack::pack_b`] fully overwrites every block region,
    /// ragged-panel zero padding included.
    pub fn new_in(b: &Matrix<T>, tb: Trans, blocking: Blocking, ws: &mut Workspace<T>) -> Self {
        Self::build(b.rows(), b.cols(), b.as_slice(), tb, blocking, |total| {
            ws.take_vec_scratch(total)
        })
    }

    /// [`Self::new_in`] reading `op(B)` straight from a row-major
    /// slice of `rows x cols` — no intermediate [`Matrix`] needed, so
    /// a layer's region of a flat direction vector packs without the
    /// copy that building a matrix first would cost.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn new_in_from_rows(
        rows: usize,
        cols: usize,
        data: &[T],
        tb: Trans,
        blocking: Blocking,
        ws: &mut Workspace<T>,
    ) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "PackedB::new_in_from_rows: slice length != rows * cols"
        );
        Self::build(rows, cols, data, tb, blocking, |total| {
            ws.take_vec_scratch(total)
        })
    }

    /// Return the packed buffer to `ws` for reuse.
    pub fn give_back(self, ws: &mut Workspace<T>) {
        ws.give_vec(self.data);
    }

    fn build(
        rows: usize,
        cols: usize,
        src: &[T],
        tb: Trans,
        blocking: Blocking,
        alloc: impl FnOnce(usize) -> Vec<T>,
    ) -> Self {
        let blocking = blocking.sanitized();
        let (k, n) = match tb {
            Trans::N => (rows, cols),
            Trans::T => (cols, rows),
        };
        if k == 0 || n == 0 {
            return PackedB {
                data: Vec::new(),
                blocks: Vec::new(),
                blocking,
                k,
                n,
            };
        }
        let kc = blocking.kc.min(k.max(1));
        let nc = blocking.nc.min(n.max(1));

        let mut blocks = Vec::new();
        let mut total = 0usize;
        let mut pc = 0;
        while pc < k {
            let kc_eff = kc.min(k - pc);
            let mut jc = 0;
            while jc < n {
                let nc_eff = nc.min(n - jc);
                let size = nc_eff.div_ceil(NR) * NR * kc_eff;
                blocks.push(BlockInfo {
                    pc,
                    kc_eff,
                    jc,
                    nc_eff,
                    offset: total,
                });
                total += size;
                jc += nc_eff;
            }
            pc += kc_eff;
        }

        let mut data = alloc(total);
        debug_assert_eq!(data.len(), total);
        for info in &blocks {
            let size = info.nc_eff.div_ceil(NR) * NR * info.kc_eff;
            pack::pack_b_rows(
                src,
                cols,
                tb,
                info.pc,
                info.kc_eff,
                info.jc,
                info.nc_eff,
                &mut data[info.offset..info.offset + size],
            );
        }
        PackedB {
            data,
            blocks,
            blocking,
            k,
            n,
        }
    }

    /// Logical `op(B)` row count (the GEMM inner dimension).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Logical `op(B)` column count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Blocking the panels were packed under (the multiply must use
    /// the same).
    pub fn blocking(&self) -> Blocking {
        self.blocking
    }

    /// Packed bytes held.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    fn block(&self, pc: usize, jc: usize) -> (&[T], usize, usize) {
        // Blocks are laid out pc-major, jc-minor on a regular grid,
        // so the index is computable without scanning.
        let kc = self.blocking.kc.min(self.k.max(1));
        let nc = self.blocking.nc.min(self.n.max(1));
        let jc_blocks = self.n.div_ceil(nc).max(1);
        let idx = (pc / kc) * jc_blocks + jc / nc;
        let info = &self.blocks[idx];
        debug_assert_eq!(
            (info.pc, info.jc),
            (pc, jc),
            "block lookup: driver and packer disagree on blocking"
        );
        let size = info.nc_eff.div_ceil(NR) * NR * info.kc_eff;
        (
            &self.data[info.offset..info.offset + size],
            info.kc_eff,
            info.nc_eff,
        )
    }
}

/// `C = alpha * op(A) * B_packed + beta * C` with a prepacked B.
///
/// # Panics
/// On shape mismatch between `op(A)`, the packed operand, and `C`.
pub(crate) fn prepacked_impl<T: Scalar>(
    ctx: &GemmContext,
    ta: Trans,
    alpha: T,
    a: &Matrix<T>,
    b: &PackedB<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let (m, k) = match ta {
        Trans::N => a.shape(),
        Trans::T => {
            let (r, cc) = a.shape();
            (cc, r)
        }
    };
    assert_eq!(
        k,
        b.k(),
        "gemm_prepacked: inner dimensions {k} != {}",
        b.k()
    );
    let n = b.n();
    assert_eq!(c.shape(), (m, n), "gemm_prepacked: C shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // pdnn-lint: allow(l4-float-exact-compare): BLAS beta sentinel dispatch — exact 0/1 select the overwrite/no-scale fast paths (0 must overwrite, 0*NaN != 0); this is discrimination on a sentinel, not a numeric tolerance test
        if beta == T::ZERO {
            c.as_mut_slice().fill(T::ZERO);
        // pdnn-lint: allow(l4-float-exact-compare): BLAS beta sentinel dispatch — exact 0/1 select the overwrite/no-scale fast paths (0 must overwrite, 0*NaN != 0); this is discrimination on a sentinel, not a numeric tolerance test
        } else if beta != T::ONE {
            c.scale(beta);
        }
        return;
    }

    let blocking = b.blocking();
    let acc_fn = T::acc_kernel(ctx.backend());
    let target_tasks = ctx.threads() * 3;
    let sh = m
        .div_ceil(target_tasks)
        .next_multiple_of(MR)
        .clamp(MR, blocking.mc.max(MR));

    let c_slice = c.as_mut_slice();
    ctx.run_pool(|| {
        if ctx.threads() == 1 {
            for (si, stripe) in c_slice.chunks_mut(sh * n).enumerate() {
                stripe_prepacked(
                    acc_fn,
                    ta,
                    alpha,
                    a,
                    b,
                    beta,
                    stripe,
                    si * sh,
                    k,
                    n,
                    blocking,
                );
            }
        } else {
            c_slice
                .par_chunks_mut(sh * n)
                .enumerate()
                .for_each(|(si, stripe)| {
                    stripe_prepacked(
                        acc_fn,
                        ta,
                        alpha,
                        a,
                        b,
                        beta,
                        stripe,
                        si * sh,
                        k,
                        n,
                        blocking,
                    );
                });
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn stripe_prepacked<T: Scalar>(
    acc_fn: AccFn<T>,
    ta: Trans,
    alpha: T,
    a: &Matrix<T>,
    b: &PackedB<T>,
    beta: T,
    stripe: &mut [T],
    ic0: usize,
    k: usize,
    n: usize,
    blocking: Blocking,
) {
    let mc_eff = stripe.len() / n;
    let kc = blocking.kc.min(k);
    let nc = blocking.nc.min(n);
    let a_panels = mc_eff.div_ceil(MR);
    let mut ap = vec![T::ZERO; a_panels * MR * kc];

    let mut pc = 0;
    let mut first_block = true;
    while pc < k {
        let kc_eff = kc.min(k - pc);
        pack::pack_a(a, ta, ic0, mc_eff, pc, kc_eff, &mut ap);
        let merge = if first_block { Some(beta) } else { None };

        let mut jc = 0;
        while jc < n {
            let nc_eff = nc.min(n - jc);
            let (bp, bk, bn) = b.block(pc, jc);
            debug_assert_eq!(bk, kc_eff);
            debug_assert_eq!(bn, nc_eff);

            let jr_panels = nc_eff.div_ceil(NR);
            let ir_panels = mc_eff.div_ceil(MR);
            for jr in 0..jr_panels {
                let nr_eff = NR.min(nc_eff - jr * NR);
                let bp_panel = &bp[jr * kc_eff * NR..(jr + 1) * kc_eff * NR];
                for ir in 0..ir_panels {
                    let mr_eff = MR.min(mc_eff - ir * MR);
                    let ap_panel = &ap[ir * kc_eff * MR..(ir + 1) * kc_eff * MR];
                    let c_off = (ir * MR) * n + jc + jr * NR;
                    kernel::microkernel(
                        acc_fn, kc_eff, alpha, ap_panel, bp_panel, stripe, c_off, n, mr_eff,
                        nr_eff, merge,
                    );
                }
            }
            jc += nc_eff;
        }
        pc += kc_eff;
        first_block = false;
    }
}

/// One k-block of the packed A operand.
#[derive(Clone, Copy, Debug)]
struct ABlockInfo {
    /// k-offset of the block.
    pc: usize,
    /// k-extent.
    kc_eff: usize,
    /// start offset in the packed buffer.
    offset: usize,
}

/// `op(A)` packed once for repeated multiplication.
///
/// All `ceil(m / MR)` row micro-panels are packed per k-block, blocked
/// only over `kc` (there is no `mc` blocking in the pack: the stripe
/// driver slices whole panels out of each k-block, which works because
/// stripe offsets are always `MR` multiples). Panel `ir` of k-block
/// `pc` lives at `block_offset + ir * kc_eff * MR` — the exact layout
/// [`pack::pack_a`] produces for a stripe starting at row `ir * MR`,
/// so [`super::GemmOp::packed_a`] is bitwise identical to [`super::GemmOp::ab`].
#[derive(Clone, Debug)]
pub struct PackedA<T: Scalar> {
    data: Vec<T>,
    blocks: Vec<ABlockInfo>,
    blocking: Blocking,
    m: usize,
    k: usize,
}

impl<T: Scalar> PackedA<T> {
    /// Pack `op(A)` (shape `m x k`) under `blocking`.
    ///
    /// Degenerate shapes (`m == 0` or `k == 0`) produce an empty pack
    /// that [`super::GemmOp::packed_a`] handles through the same early-return
    /// paths as [`super::GemmOp::ab`].
    pub fn new(a: &Matrix<T>, ta: Trans, blocking: Blocking) -> Self {
        let blocking = blocking.sanitized();
        let (m, k) = match ta {
            Trans::N => a.shape(),
            Trans::T => {
                let (r, c) = a.shape();
                (c, r)
            }
        };
        if m == 0 || k == 0 {
            return PackedA {
                data: Vec::new(),
                blocks: Vec::new(),
                blocking,
                m,
                k,
            };
        }
        let kc = blocking.kc.min(k);
        let panels = m.div_ceil(MR);

        let mut blocks = Vec::new();
        let mut total = 0usize;
        let mut pc = 0;
        while pc < k {
            let kc_eff = kc.min(k - pc);
            blocks.push(ABlockInfo {
                pc,
                kc_eff,
                offset: total,
            });
            total += panels * kc_eff * MR;
            pc += kc_eff;
        }

        let mut data = vec![T::ZERO; total];
        for info in &blocks {
            let size = panels * info.kc_eff * MR;
            pack::pack_a(
                a,
                ta,
                0,
                m,
                info.pc,
                info.kc_eff,
                &mut data[info.offset..info.offset + size],
            );
        }
        PackedA {
            data,
            blocks,
            blocking,
            m,
            k,
        }
    }

    /// Logical `op(A)` row count.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Logical `op(A)` column count (the GEMM inner dimension).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Blocking the panels were packed under (the multiply must use
    /// the same).
    pub fn blocking(&self) -> Blocking {
        self.blocking
    }

    /// Packed bytes held.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    fn block(&self, pc: usize) -> (&[T], usize) {
        // Blocks are laid out on a regular k grid, so the index is
        // computable without scanning.
        let kc = self.blocking.kc.min(self.k.max(1));
        let idx = pc / kc;
        let info = &self.blocks[idx];
        debug_assert_eq!(
            info.pc, pc,
            "block lookup: driver and packer disagree on blocking"
        );
        let panels = self.m.div_ceil(MR);
        let size = panels * info.kc_eff * MR;
        (&self.data[info.offset..info.offset + size], info.kc_eff)
    }
}

/// `C = alpha * A_packed * op(B) + beta * C` with a prepacked A.
///
/// # Panics
/// On shape mismatch between the packed operand, `op(B)`, and `C`.
pub(crate) fn prepacked_a_impl<T: Scalar>(
    ctx: &GemmContext,
    alpha: T,
    a: &PackedA<T>,
    tb: Trans,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let m = a.m();
    let k = a.k();
    let (kb, n) = match tb {
        Trans::N => b.shape(),
        Trans::T => {
            let (r, cc) = b.shape();
            (cc, r)
        }
    };
    assert_eq!(k, kb, "gemm_prepacked_a: inner dimensions {k} != {kb}");
    assert_eq!(c.shape(), (m, n), "gemm_prepacked_a: C shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // pdnn-lint: allow(l4-float-exact-compare): BLAS beta sentinel dispatch — exact 0/1 select the overwrite/no-scale fast paths (0 must overwrite, 0*NaN != 0); this is discrimination on a sentinel, not a numeric tolerance test
        if beta == T::ZERO {
            c.as_mut_slice().fill(T::ZERO);
        // pdnn-lint: allow(l4-float-exact-compare): BLAS beta sentinel dispatch — exact 0/1 select the overwrite/no-scale fast paths (0 must overwrite, 0*NaN != 0); this is discrimination on a sentinel, not a numeric tolerance test
        } else if beta != T::ONE {
            c.scale(beta);
        }
        return;
    }

    let blocking = a.blocking();
    let acc_fn = T::acc_kernel(ctx.backend());
    let target_tasks = ctx.threads() * 3;
    let sh = m
        .div_ceil(target_tasks)
        .next_multiple_of(MR)
        .clamp(MR, blocking.mc.max(MR));

    let c_slice = c.as_mut_slice();
    ctx.run_pool(|| {
        if ctx.threads() == 1 {
            for (si, stripe) in c_slice.chunks_mut(sh * n).enumerate() {
                stripe_prepacked_a(
                    acc_fn,
                    alpha,
                    a,
                    tb,
                    b,
                    beta,
                    stripe,
                    si * sh,
                    k,
                    n,
                    blocking,
                );
            }
        } else {
            c_slice
                .par_chunks_mut(sh * n)
                .enumerate()
                .for_each(|(si, stripe)| {
                    stripe_prepacked_a(
                        acc_fn,
                        alpha,
                        a,
                        tb,
                        b,
                        beta,
                        stripe,
                        si * sh,
                        k,
                        n,
                        blocking,
                    );
                });
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn stripe_prepacked_a<T: Scalar>(
    acc_fn: AccFn<T>,
    alpha: T,
    a: &PackedA<T>,
    tb: Trans,
    b: &Matrix<T>,
    beta: T,
    stripe: &mut [T],
    ic0: usize,
    k: usize,
    n: usize,
    blocking: Blocking,
) {
    let mc_eff = stripe.len() / n;
    let kc = blocking.kc.min(k);
    let nc = blocking.nc.min(n);
    let b_panels = nc.div_ceil(NR);
    let mut bp = vec![T::ZERO; b_panels * NR * kc];
    // ic0 is a multiple of MR (sh is rounded up to MR), so the
    // stripe's rows start exactly at a packed panel boundary.
    let panel0 = ic0 / MR;

    let mut pc = 0;
    let mut first_block = true;
    while pc < k {
        let (ap, kc_eff) = a.block(pc);
        debug_assert_eq!(kc_eff, kc.min(k - pc));
        let merge = if first_block { Some(beta) } else { None };

        let mut jc = 0;
        while jc < n {
            let nc_eff = nc.min(n - jc);
            pack::pack_b(b, tb, pc, kc_eff, jc, nc_eff, &mut bp);

            let jr_panels = nc_eff.div_ceil(NR);
            let ir_panels = mc_eff.div_ceil(MR);
            for jr in 0..jr_panels {
                let nr_eff = NR.min(nc_eff - jr * NR);
                let bp_panel = &bp[jr * kc_eff * NR..(jr + 1) * kc_eff * NR];
                for ir in 0..ir_panels {
                    let mr_eff = MR.min(mc_eff - ir * MR);
                    let p = panel0 + ir;
                    let ap_panel = &ap[p * kc_eff * MR..(p + 1) * kc_eff * MR];
                    let c_off = (ir * MR) * n + jc + jr * NR;
                    kernel::microkernel(
                        acc_fn, kc_eff, alpha, ap_panel, bp_panel, stripe, c_off, n, mr_eff,
                        nr_eff, merge,
                    );
                }
            }
            jc += nc_eff;
        }
        pc += kc_eff;
        first_block = false;
    }
}

/// `C = alpha * A_packed * B_packed + beta * C` with **both** operands
/// prepacked — the innermost CG-loop configuration, where every stripe
/// reads straight out of the packs and no packing or buffer
/// allocation happens inside the multiply at all.
///
/// Bitwise identical to [`super::GemmOp::ab`] under the same blocking: the
/// stripe driver issues the exact microkernel sequence, and both pack
/// layouts are the ones the per-call drivers would have produced.
///
/// # Panics
/// On inner-dimension or `C` shape mismatch, or if the two packs were
/// built under different blockings (their panel grids would disagree).
pub(crate) fn prepacked_ab_impl<T: Scalar>(
    ctx: &GemmContext,
    alpha: T,
    a: &PackedA<T>,
    b: &PackedB<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let m = a.m();
    let k = a.k();
    assert_eq!(
        k,
        b.k(),
        "gemm_prepacked_ab: inner dimensions {k} != {}",
        b.k()
    );
    assert_eq!(
        a.blocking(),
        b.blocking(),
        "gemm_prepacked_ab: operands packed under different blockings"
    );
    let n = b.n();
    assert_eq!(c.shape(), (m, n), "gemm_prepacked_ab: C shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // pdnn-lint: allow(l4-float-exact-compare): BLAS beta sentinel dispatch — exact 0/1 select the overwrite/no-scale fast paths (0 must overwrite, 0*NaN != 0); this is discrimination on a sentinel, not a numeric tolerance test
        if beta == T::ZERO {
            c.as_mut_slice().fill(T::ZERO);
        // pdnn-lint: allow(l4-float-exact-compare): BLAS beta sentinel dispatch — exact 0/1 select the overwrite/no-scale fast paths (0 must overwrite, 0*NaN != 0); this is discrimination on a sentinel, not a numeric tolerance test
        } else if beta != T::ONE {
            c.scale(beta);
        }
        return;
    }

    let blocking = a.blocking();
    let acc_fn = T::acc_kernel(ctx.backend());
    let target_tasks = ctx.threads() * 3;
    let sh = m
        .div_ceil(target_tasks)
        .next_multiple_of(MR)
        .clamp(MR, blocking.mc.max(MR));

    let c_slice = c.as_mut_slice();
    ctx.run_pool(|| {
        if ctx.threads() == 1 {
            for (si, stripe) in c_slice.chunks_mut(sh * n).enumerate() {
                stripe_prepacked_ab(acc_fn, alpha, a, b, beta, stripe, si * sh, k, n, blocking);
            }
        } else {
            c_slice
                .par_chunks_mut(sh * n)
                .enumerate()
                .for_each(|(si, stripe)| {
                    stripe_prepacked_ab(acc_fn, alpha, a, b, beta, stripe, si * sh, k, n, blocking);
                });
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn stripe_prepacked_ab<T: Scalar>(
    acc_fn: AccFn<T>,
    alpha: T,
    a: &PackedA<T>,
    b: &PackedB<T>,
    beta: T,
    stripe: &mut [T],
    ic0: usize,
    k: usize,
    n: usize,
    blocking: Blocking,
) {
    let mc_eff = stripe.len() / n;
    let kc = blocking.kc.min(k);
    let nc = blocking.nc.min(n);
    // ic0 is a multiple of MR (sh is rounded up to MR), so the
    // stripe's rows start exactly at a packed panel boundary.
    let panel0 = ic0 / MR;

    let mut pc = 0;
    let mut first_block = true;
    while pc < k {
        let (ap, kc_eff) = a.block(pc);
        debug_assert_eq!(kc_eff, kc.min(k - pc));
        let merge = if first_block { Some(beta) } else { None };

        let mut jc = 0;
        while jc < n {
            let nc_eff = nc.min(n - jc);
            let (bp, bk, bn) = b.block(pc, jc);
            debug_assert_eq!(bk, kc_eff);
            debug_assert_eq!(bn, nc_eff);

            let jr_panels = nc_eff.div_ceil(NR);
            let ir_panels = mc_eff.div_ceil(MR);
            for jr in 0..jr_panels {
                let nr_eff = NR.min(nc_eff - jr * NR);
                let bp_panel = &bp[jr * kc_eff * NR..(jr + 1) * kc_eff * NR];
                for ir in 0..ir_panels {
                    let mr_eff = MR.min(mc_eff - ir * MR);
                    let p = panel0 + ir;
                    let ap_panel = &ap[p * kc_eff * MR..(p + 1) * kc_eff * MR];
                    let c_off = (ir * MR) * n + jc + jr * NR;
                    kernel::microkernel(
                        acc_fn, kc_eff, alpha, ap_panel, bp_panel, stripe, c_off, n, mr_eff,
                        nr_eff, merge,
                    );
                }
            }
            jc += nc_eff;
        }
        pc += kc_eff;
        first_block = false;
    }
}

/// `C = alpha * A_packed * B^T + beta * C` with `B` supplied as an
/// `n x k` **row-major slice read in place** — no packing of the right
/// operand at all.
///
/// Because `op(B)(kk, j) = B[j * k + kk]`, each output column `j`
/// consumes one contiguous row of `B`, so the kernel streams `B`
/// stride-one — `BT_COLS` rows, i.e. that many independent column
/// chains, per call — without the reformat that [`PackedB`] performs. That
/// wins when `op(A)` is short (few row panels): the whole of `B` is
/// read once per stripe and the pack's extra write+reread of `B`-sized
/// memory never happens. For tall `op(A)` the register-blocked packed
/// path amortizes better — callers should prefer
/// [`super::GemmOp::packed_ab`] once `m` spans several row panels.
///
/// Bitwise identical to [`super::GemmOp::ab`] with `tb = Trans::T` under the
/// same blocking: the k loop is split on the same `kc` grid, each
/// element's FMA chain runs `kk` ascending within a block, and the
/// per-block beta merge matches [`kernel::microkernel`]'s exactly.
///
/// # Panics
/// On inner-dimension or `C` shape mismatch, or if `b_rows.len()`
/// differs from `n * k`.
pub(crate) fn prepacked_a_bt_impl<T: Scalar>(
    ctx: &GemmContext,
    alpha: T,
    a: &PackedA<T>,
    b_rows: &[T],
    beta: T,
    c: &mut Matrix<T>,
) {
    let m = a.m();
    let k = a.k();
    let n = c.cols();
    assert_eq!(c.rows(), m, "gemm_prepacked_a_bt: C row count mismatch");
    assert_eq!(
        b_rows.len(),
        n * k,
        "gemm_prepacked_a_bt: B slice is not n x k"
    );
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // pdnn-lint: allow(l4-float-exact-compare): BLAS beta sentinel dispatch — exact 0/1 select the overwrite/no-scale fast paths (0 must overwrite, 0*NaN != 0); this is discrimination on a sentinel, not a numeric tolerance test
        if beta == T::ZERO {
            c.as_mut_slice().fill(T::ZERO);
        // pdnn-lint: allow(l4-float-exact-compare): BLAS beta sentinel dispatch — exact 0/1 select the overwrite/no-scale fast paths (0 must overwrite, 0*NaN != 0); this is discrimination on a sentinel, not a numeric tolerance test
        } else if beta != T::ONE {
            c.scale(beta);
        }
        return;
    }

    let blocking = a.blocking();
    let bt_fn = T::bt_kernel(ctx.backend());
    let target_tasks = ctx.threads() * 3;
    let sh = m
        .div_ceil(target_tasks)
        .next_multiple_of(MR)
        .clamp(MR, blocking.mc.max(MR));

    let c_slice = c.as_mut_slice();
    ctx.run_pool(|| {
        if ctx.threads() == 1 {
            for (si, stripe) in c_slice.chunks_mut(sh * n).enumerate() {
                stripe_prepacked_a_bt(bt_fn, alpha, a, b_rows, beta, stripe, si * sh, k, n);
            }
        } else {
            c_slice
                .par_chunks_mut(sh * n)
                .enumerate()
                .for_each(|(si, stripe)| {
                    stripe_prepacked_a_bt(bt_fn, alpha, a, b_rows, beta, stripe, si * sh, k, n);
                });
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn stripe_prepacked_a_bt<T: Scalar>(
    bt_fn: BtFn<T>,
    alpha: T,
    a: &PackedA<T>,
    b_rows: &[T],
    beta: T,
    stripe: &mut [T],
    ic0: usize,
    k: usize,
    n: usize,
) {
    let mc_eff = stripe.len() / n;
    // ic0 is a multiple of MR (sh is rounded up to MR), so the
    // stripe's rows start exactly at a packed panel boundary.
    let panel0 = ic0 / MR;
    let ir_panels = mc_eff.div_ceil(MR);

    // BT_COLS output columns at a time: their rows of B are streamed
    // front to back exactly once per stripe while the A panels stay
    // cache-resident.
    for (group, chunk) in b_rows.chunks(BT_COLS * k).enumerate() {
        let j0 = group * BT_COLS;
        let live = chunk.len() / k;
        // A ragged last group repeats its final row: the kernel shape
        // stays fixed and the surplus columns are never written to C.
        let rows: [&[T]; BT_COLS] = std::array::from_fn(|c| {
            let c = c.min(live - 1);
            &chunk[c * k..(c + 1) * k]
        });
        let mut pc = 0;
        let mut first_block = true;
        while pc < k {
            let (ap, kc_eff) = a.block(pc);
            let merge = if first_block { Some(beta) } else { None };
            for ir in 0..ir_panels {
                let mr_eff = MR.min(mc_eff - ir * MR);
                let p = panel0 + ir;
                let ap_panel = &ap[p * kc_eff * MR..(p + 1) * kc_eff * MR];

                // Backend-dispatched column kernel, same FMA chain
                // as kernel::microkernel: kk ascending within the
                // block, acc = a.fma(b, acc); padded panel rows
                // compute garbage-free zeros that the masked C write
                // below discards.
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
                        // pdnn-lint: allow(l4-float-exact-compare): BLAS beta sentinel dispatch — exact 0/1 select the overwrite/no-scale fast paths (0 must overwrite, 0*NaN != 0); this is discrimination on a sentinel, not a numeric tolerance test
                        Some(b0) if b0 == T::ZERO => {
                            for (d, col) in dst.iter_mut().zip(&acc) {
                                *d = alpha * col[i];
                            }
                        }
                        Some(b0) => {
                            for (d, col) in dst.iter_mut().zip(&acc) {
                                *d = alpha.mul_add(col[i], b0 * *d);
                            }
                        }
                        None => {
                            for (d, col) in dst.iter_mut().zip(&acc) {
                                *d = alpha.mul_add(col[i], *d);
                            }
                        }
                    }
                }
            }
            pc += kc_eff;
            first_block = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_impl as gemm;
    use pdnn_util::Prng;

    fn rand(r: usize, c: usize, seed: u64) -> Matrix<f32> {
        let mut rng = Prng::new(seed);
        Matrix::random_normal(r, c, 1.0, &mut rng)
    }

    #[test]
    fn matches_plain_gemm_bitwise() {
        let ctx = GemmContext::sequential();
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (17, 23, 9),
            (64, 64, 64),
            (130, 77, 33),
        ] {
            let a = rand(m, k, 1);
            let b = rand(k, n, 2);
            let packed = PackedB::new(&b, Trans::N, ctx.blocking());
            let mut c1 = Matrix::zeros(m, n);
            let mut c2 = Matrix::zeros(m, n);
            gemm(&ctx, Trans::N, Trans::N, 1.0f32, &a, &b, 0.0, &mut c1);
            prepacked_impl(&ctx, Trans::N, 1.0f32, &a, &packed, 0.0, &mut c2);
            assert_eq!(c1, c2, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn transposed_b_packs_correctly() {
        // The layer-forward shape: X [frames x in] times W^T with
        // W [out x in].
        let ctx = GemmContext::sequential();
        let x = rand(50, 30, 3);
        let w = rand(20, 30, 4); // out x in
        let packed = PackedB::new(&w, Trans::T, ctx.blocking());
        assert_eq!(packed.k(), 30);
        assert_eq!(packed.n(), 20);
        let mut c1 = Matrix::zeros(50, 20);
        let mut c2 = Matrix::zeros(50, 20);
        gemm(&ctx, Trans::N, Trans::T, 1.0f32, &x, &w, 0.0, &mut c1);
        prepacked_impl(&ctx, Trans::N, 1.0f32, &x, &packed, 0.0, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn reuse_across_many_batches() {
        let ctx = GemmContext::sequential();
        let w = rand(16, 24, 5);
        let packed = PackedB::new(&w, Trans::T, ctx.blocking());
        for seed in 10..15 {
            let x = rand(31, 24, seed);
            let mut c1 = Matrix::zeros(31, 16);
            let mut c2 = Matrix::zeros(31, 16);
            gemm(&ctx, Trans::N, Trans::T, 1.0f32, &x, &w, 0.0, &mut c1);
            prepacked_impl(&ctx, Trans::N, 1.0f32, &x, &packed, 0.0, &mut c2);
            assert_eq!(c1, c2);
        }
    }

    #[test]
    fn alpha_beta_and_ta_combinations() {
        let ctx = GemmContext::sequential();
        let a = rand(12, 40, 6); // will be used transposed: op(A) 40x12
        let b = rand(12, 25, 7);
        let packed = PackedB::new(&b, Trans::N, ctx.blocking());
        let c0 = rand(40, 25, 8);
        let mut c1 = c0.clone();
        let mut c2 = c0;
        gemm(&ctx, Trans::T, Trans::N, 1.5f32, &a, &b, -0.5, &mut c1);
        prepacked_impl(&ctx, Trans::T, 1.5f32, &a, &packed, -0.5, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn custom_blocking_respected() {
        let blocking = Blocking {
            mc: 16,
            kc: 8,
            nc: 24,
        };
        let ctx = GemmContext::sequential().with_blocking(blocking);
        let a = rand(37, 53, 9);
        let b = rand(53, 29, 10);
        let packed = PackedB::new(&b, Trans::N, blocking);
        let mut c1 = Matrix::zeros(37, 29);
        let mut c2 = Matrix::zeros(37, 29);
        gemm(&ctx, Trans::N, Trans::N, 1.0f32, &a, &b, 0.0, &mut c1);
        prepacked_impl(&ctx, Trans::N, 1.0f32, &a, &packed, 0.0, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn packed_size_is_padded_panels() {
        let b: Matrix<f32> = Matrix::zeros(10, NR + 2);
        let packed = PackedB::new(&b, Trans::N, Blocking::default());
        // NR + 2 cols pad to 2 panels: 2*NR cols x 10 k x 4 bytes.
        assert_eq!(packed.bytes(), 2 * NR * 10 * 4);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let ctx = GemmContext::sequential();
        let a = rand(4, 5, 11);
        let b = rand(6, 3, 12);
        let packed = PackedB::new(&b, Trans::N, ctx.blocking());
        let mut c = Matrix::zeros(4, 3);
        prepacked_impl(&ctx, Trans::N, 1.0f32, &a, &packed, 0.0, &mut c);
    }

    #[test]
    fn packed_b_degenerate_k_zero_scales_c_only() {
        let ctx = GemmContext::sequential();
        let a: Matrix<f32> = Matrix::zeros(3, 0);
        let b: Matrix<f32> = Matrix::zeros(0, 4);
        let packed = PackedB::new(&b, Trans::N, ctx.blocking());
        assert_eq!((packed.k(), packed.n()), (0, 4));
        assert_eq!(packed.bytes(), 0);
        let mut c: Matrix<f32> = Matrix::filled(3, 4, 2.0);
        prepacked_impl(&ctx, Trans::N, 1.0f32, &a, &packed, 0.5, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 1.0));
        // beta = 0 with NaN in C must overwrite with zeros.
        let mut c2: Matrix<f32> = Matrix::filled(3, 4, f32::NAN);
        prepacked_impl(&ctx, Trans::N, 1.0f32, &a, &packed, 0.0, &mut c2);
        assert!(c2.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn packed_b_degenerate_n_zero_is_noop() {
        let ctx = GemmContext::sequential();
        let a = rand(5, 7, 13);
        let b: Matrix<f32> = Matrix::zeros(7, 0);
        let packed = PackedB::new(&b, Trans::N, ctx.blocking());
        assert_eq!((packed.k(), packed.n()), (7, 0));
        let mut c: Matrix<f32> = Matrix::zeros(5, 0);
        prepacked_impl(&ctx, Trans::N, 1.0f32, &a, &packed, 0.0, &mut c);
    }

    #[test]
    fn packed_a_matches_plain_gemm_bitwise_odd_shapes() {
        // Mirrors the shape coverage of results/gemm_odd_shapes.csv at
        // unit-test scale: ragged, prime-ish, and tile-crossing dims.
        let ctx = GemmContext::sequential();
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (9, 7, 13),
            (17, 23, 9),
            (17, 31, 29),
            (33, 129, 65),
            (130, 77, 33),
        ] {
            let a = rand(m, k, m as u64);
            let b = rand(k, n, n as u64);
            let packed = PackedA::new(&a, Trans::N, ctx.blocking());
            assert_eq!((packed.m(), packed.k()), (m, k));
            let mut c1 = Matrix::zeros(m, n);
            let mut c2 = Matrix::zeros(m, n);
            gemm(&ctx, Trans::N, Trans::N, 1.0f32, &a, &b, 0.0, &mut c1);
            prepacked_a_impl(&ctx, 1.0f32, &packed, Trans::N, &b, 0.0, &mut c2);
            assert_eq!(c1, c2, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn packed_a_transposed_operands_and_alpha_beta() {
        // The R-forward shape: a_prev [frames x in] times Vw^T with
        // Vw [out x in], accumulating into rz (beta = 1).
        let ctx = GemmContext::sequential();
        let a = rand(31, 24, 20); // packed as op(A) via Trans::N
        let at = rand(24, 31, 21); // packed as op(A) via Trans::T
        let vw = rand(16, 24, 22); // out x in, used as B^T
        for (label, packed) in [
            ("N", PackedA::new(&a, Trans::N, ctx.blocking())),
            ("T", PackedA::new(&at, Trans::T, ctx.blocking())),
        ] {
            let src = if label == "N" { &a } else { &at };
            let ta = if label == "N" { Trans::N } else { Trans::T };
            let c0 = rand(31, 16, 23);
            let mut c1 = c0.clone();
            let mut c2 = c0;
            gemm(&ctx, ta, Trans::T, 1.5f32, src, &vw, 1.0, &mut c1);
            prepacked_a_impl(&ctx, 1.5f32, &packed, Trans::T, &vw, 1.0, &mut c2);
            assert_eq!(c1, c2, "ta={label}");
        }
    }

    #[test]
    fn packed_a_threaded_matches_sequential() {
        let seq = GemmContext::sequential();
        let thr = GemmContext::threaded(4);
        let a = rand(200, 150, 30);
        let b = rand(150, 170, 31);
        let packed = PackedA::new(&a, Trans::N, seq.blocking());
        let mut c1 = Matrix::zeros(200, 170);
        let mut c2 = Matrix::zeros(200, 170);
        gemm(&seq, Trans::N, Trans::N, 1.0f32, &a, &b, 0.0, &mut c1);
        prepacked_a_impl(&thr, 1.0f32, &packed, Trans::N, &b, 0.0, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn packed_a_custom_blocking_respected() {
        let blocking = Blocking {
            mc: 16,
            kc: 8,
            nc: 24,
        };
        let ctx = GemmContext::sequential().with_blocking(blocking);
        let a = rand(37, 53, 32);
        let b = rand(53, 29, 33);
        let packed = PackedA::new(&a, Trans::N, blocking);
        let mut c1 = Matrix::zeros(37, 29);
        let mut c2 = Matrix::zeros(37, 29);
        gemm(&ctx, Trans::N, Trans::N, 1.0f32, &a, &b, 0.0, &mut c1);
        prepacked_a_impl(&ctx, 1.0f32, &packed, Trans::N, &b, 0.0, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn packed_a_degenerate_shapes() {
        let ctx = GemmContext::sequential();
        // k == 0: pure C scaling.
        let a0: Matrix<f32> = Matrix::zeros(3, 0);
        let packed = PackedA::new(&a0, Trans::N, ctx.blocking());
        assert_eq!((packed.m(), packed.k()), (3, 0));
        assert_eq!(packed.bytes(), 0);
        let b0: Matrix<f32> = Matrix::zeros(0, 4);
        let mut c: Matrix<f32> = Matrix::filled(3, 4, 2.0);
        prepacked_a_impl(&ctx, 1.0f32, &packed, Trans::N, &b0, 0.5, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 1.0));
        // m == 0: empty output, no-op.
        let am: Matrix<f32> = Matrix::zeros(0, 5);
        let packed = PackedA::new(&am, Trans::N, ctx.blocking());
        let b = rand(5, 4, 34);
        let mut c: Matrix<f32> = Matrix::zeros(0, 4);
        prepacked_a_impl(&ctx, 1.0f32, &packed, Trans::N, &b, 0.0, &mut c);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn packed_a_shape_mismatch_panics() {
        let ctx = GemmContext::sequential();
        let a = rand(4, 5, 35);
        let b = rand(6, 3, 36);
        let packed = PackedA::new(&a, Trans::N, ctx.blocking());
        let mut c = Matrix::zeros(4, 3);
        prepacked_a_impl(&ctx, 1.0f32, &packed, Trans::N, &b, 0.0, &mut c);
    }

    #[test]
    fn packed_ab_matches_plain_gemm_bitwise_odd_shapes() {
        let ctx = GemmContext::sequential();
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (17, 23, 9),
            (17, 31, 29),
            (33, 129, 65),
            (130, 77, 33),
        ] {
            let a = rand(m, k, m as u64 + 100);
            let b = rand(k, n, n as u64 + 200);
            let pa = PackedA::new(&a, Trans::N, ctx.blocking());
            let pb = PackedB::new(&b, Trans::N, ctx.blocking());
            let mut c1 = Matrix::zeros(m, n);
            let mut c2 = Matrix::zeros(m, n);
            gemm(&ctx, Trans::N, Trans::N, 1.0f32, &a, &b, 0.0, &mut c1);
            prepacked_ab_impl(&ctx, 1.0f32, &pa, &pb, 0.0, &mut c2);
            assert_eq!(c1, c2, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn packed_ab_r_forward_shape_accumulates() {
        // The CG R-forward term: rz += a_prev * Vw^T with both packed.
        let ctx = GemmContext::sequential();
        let a = rand(31, 24, 60);
        let vw = rand(16, 24, 61); // out x in, used transposed
        let pa = PackedA::new(&a, Trans::N, ctx.blocking());
        let pvw = PackedB::new(&vw, Trans::T, ctx.blocking());
        let c0 = rand(31, 16, 62);
        let mut c1 = c0.clone();
        let mut c2 = c0;
        gemm(&ctx, Trans::N, Trans::T, 1.5f32, &a, &vw, 1.0, &mut c1);
        prepacked_ab_impl(&ctx, 1.5f32, &pa, &pvw, 1.0, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn packed_ab_degenerate_k_zero_scales_c_only() {
        let ctx = GemmContext::sequential();
        let a0: Matrix<f32> = Matrix::zeros(3, 0);
        let b0: Matrix<f32> = Matrix::zeros(0, 4);
        let pa = PackedA::new(&a0, Trans::N, ctx.blocking());
        let pb = PackedB::new(&b0, Trans::N, ctx.blocking());
        let mut c: Matrix<f32> = Matrix::filled(3, 4, f32::NAN);
        prepacked_ab_impl(&ctx, 1.0f32, &pa, &pb, 0.0, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "different blockings")]
    fn packed_ab_blocking_mismatch_panics() {
        let ctx = GemmContext::sequential();
        let a = rand(8, 8, 63);
        let b = rand(8, 8, 64);
        let pa = PackedA::new(&a, Trans::N, ctx.blocking());
        let pb = PackedB::new(
            &b,
            Trans::N,
            Blocking {
                mc: 16,
                kc: 4,
                nc: 16,
            },
        );
        let mut c = Matrix::zeros(8, 8);
        prepacked_ab_impl(&ctx, 1.0f32, &pa, &pb, 0.0, &mut c);
    }

    #[test]
    fn packed_b_new_in_matches_new_and_recycles() {
        let ctx = GemmContext::sequential();
        let mut ws: Workspace<f32> = Workspace::new();
        // Poison the arena so a recycled scratch buffer starts dirty.
        let mut dirt = ws.take_vec(4096);
        dirt.fill(f32::NAN);
        ws.give_vec(dirt);
        for seed in 70..73 {
            let b = rand(40, 33, seed);
            let heap = PackedB::new(&b, Trans::T, ctx.blocking());
            let arena = PackedB::new_in(&b, Trans::T, ctx.blocking(), &mut ws);
            assert_eq!(heap.bytes(), arena.bytes());
            // op(B) = B^T is 33 x 40: inner dim 33, output width 40.
            let x = rand(21, 33, seed + 10);
            let mut c1 = Matrix::zeros(21, 40);
            let mut c2 = Matrix::zeros(21, 40);
            prepacked_impl(&ctx, Trans::N, 1.0f32, &x, &heap, 0.0, &mut c1);
            prepacked_impl(&ctx, Trans::N, 1.0f32, &x, &arena, 0.0, &mut c2);
            assert_eq!(c1, c2, "seed {seed}");
            arena.give_back(&mut ws);
        }
        assert!(
            ws.stats().reuses >= 3,
            "per-call packs should recycle the arena buffer"
        );
    }

    #[test]
    fn packed_b_from_rows_matches_matrix_pack_bitwise() {
        // Packing straight from a flat row-major slice must produce
        // the exact packed buffer that packing via a Matrix does —
        // this is what lets the GN product pack a direction-vector
        // region without materializing Vw.
        let ctx = GemmContext::sequential();
        let mut ws: Workspace<f32> = Workspace::new();
        for &(rows, cols) in &[(40usize, 33usize), (8, 8), (13, 70)] {
            let b = rand(rows, cols, 90 + rows as u64);
            let flat: Vec<f32> = b.as_slice().to_vec();
            for tb in [Trans::N, Trans::T] {
                let via_matrix = PackedB::new(&b, tb, ctx.blocking());
                let via_rows =
                    PackedB::new_in_from_rows(rows, cols, &flat, tb, ctx.blocking(), &mut ws);
                assert_eq!(via_matrix.k(), via_rows.k());
                assert_eq!(via_matrix.n(), via_rows.n());
                assert_eq!(
                    via_matrix.data, via_rows.data,
                    "{rows}x{cols} tb={tb:?}: packed buffers must be bit-identical"
                );
                via_rows.give_back(&mut ws);
            }
        }
    }

    #[test]
    #[should_panic(expected = "slice length")]
    fn packed_b_from_rows_checks_slice_len() {
        let mut ws: Workspace<f32> = Workspace::new();
        let data = vec![0.0f32; 11];
        let _ = PackedB::new_in_from_rows(3, 4, &data, Trans::N, Blocking::default(), &mut ws);
    }

    #[test]
    fn prepacked_a_bt_matches_plain_gemm_bitwise() {
        // The in-place B^T driver must issue the exact FMA chains of
        // the plain driver: same kc grid, same per-block beta merge.
        // Cover m below, at, and above a row panel; k below and above
        // one kc block; alpha/beta combos including the beta = 0
        // overwrite (C seeded with NaN to prove it).
        let ctx = GemmContext::sequential();
        for &(m, k, n) in &[
            (4usize, 33usize, 40usize),
            (8, 300, 17),
            (21, 513, 64),
            (64, 256, 96),
        ] {
            let a = rand(m, k, (m + k) as u64);
            let b = rand(n, k, (n + k) as u64);
            let pa = PackedA::new(&a, Trans::N, ctx.blocking());
            for &(alpha, beta) in &[(1.0f32, 0.0f32), (1.0, 1.0), (0.5, -2.0)] {
                let mut c1 = if beta == 0.0 {
                    Matrix::from_vec(m, n, vec![f32::NAN; m * n])
                } else {
                    rand(m, n, 7)
                };
                let mut c2 = c1.clone();
                if beta == 0.0 {
                    // Plain gemm's beta = 0 path also overwrites, but
                    // seed c1 clean so the reference is well-defined.
                    c1.as_mut_slice().fill(0.0);
                    c2.as_mut_slice().fill(f32::NAN);
                }
                gemm(&ctx, Trans::N, Trans::T, alpha, &a, &b, beta, &mut c1);
                prepacked_a_bt_impl(&ctx, alpha, &pa, b.as_slice(), beta, &mut c2);
                assert_eq!(
                    c1.as_slice(),
                    c2.as_slice(),
                    "{m}x{k}x{n} alpha={alpha} beta={beta}"
                );
            }
        }
    }

    #[test]
    fn prepacked_a_bt_degenerate_k_zero_scales_c_only() {
        let ctx = GemmContext::sequential();
        let a = Matrix::<f32>::zeros(5, 0);
        let pa = PackedA::new(&a, Trans::N, ctx.blocking());
        let mut c = rand(5, 9, 3);
        let orig = c.clone();
        prepacked_a_bt_impl(&ctx, 1.0f32, &pa, &[], 0.5, &mut c);
        for (x, y) in c.as_slice().iter().zip(orig.as_slice()) {
            assert_eq!(*x, 0.5 * y);
        }
        prepacked_a_bt_impl(&ctx, 1.0f32, &pa, &[], 0.0, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "B slice is not n x k")]
    fn prepacked_a_bt_checks_b_len() {
        let ctx = GemmContext::sequential();
        let a = rand(4, 6, 1);
        let pa = PackedA::new(&a, Trans::N, ctx.blocking());
        let mut c = Matrix::zeros(4, 5);
        let b = vec![0.0f32; 29]; // needs 5 * 6 = 30
        prepacked_a_bt_impl(&ctx, 1.0f32, &pa, &b, 0.0, &mut c);
    }

    #[test]
    fn packed_a_reuse_across_many_directions() {
        // The CG inner loop: fixed activations, fresh direction each
        // iteration.
        let ctx = GemmContext::sequential();
        let a = rand(31, 24, 40);
        let packed = PackedA::new(&a, Trans::N, ctx.blocking());
        for seed in 50..55 {
            let vw = rand(16, 24, seed);
            let mut c1 = Matrix::zeros(31, 16);
            let mut c2 = Matrix::zeros(31, 16);
            gemm(&ctx, Trans::N, Trans::T, 1.0f32, &a, &vw, 0.0, &mut c1);
            prepacked_a_impl(&ctx, 1.0f32, &packed, Trans::T, &vw, 0.0, &mut c2);
            assert_eq!(c1, c2);
        }
    }
}
