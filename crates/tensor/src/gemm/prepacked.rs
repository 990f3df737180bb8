//! Prepacked operands.
//!
//! DNN training multiplies every batch against the *same* weight
//! matrices, so repacking B on every call wastes both time and — the
//! paper's Section V.A.4 point — allocation churn: "We manage memory
//! by essentially keeping track of what we have allocated so that we
//! can reallocate out of that memory instead of repeatedly freeing
//! and allocating … it greatly reduces timing jitter."
//!
//! [`PackedB`] packs `op(B)` once into the micro-panel layout the
//! kernel consumes; [`super::GemmOp::packed_b`] then runs the blocked
//! driver reading panels straight out of it. [`PackedA`] is the mirror
//! for the *left* operand: a CG solve holds the curvature-minibatch
//! activations fixed across dozens of Gauss–Newton products, so the
//! `a_prev * Vw^T` R-forward GEMMs can read a once-packed A while only
//! the small direction matrix is packed per call
//! ([`super::GemmOp::packed_a`]).
//!
//! Both packs lie on the regular grid `block_at` computes, which is
//! also the layout the driver packs a plain operand into: a `PackedB`
//! k-block row is byte for byte the driver's B scratch, and a `PackedA`
//! k-block is every stripe's A scratch back to back. So the driver
//! borrows panels from a pack exactly where it would otherwise pack
//! them, and every form is bitwise [`super::GemmOp::ab`] under the same
//! blocking.

use crate::matrix::MatRef;
use crate::scalar::Scalar;
use crate::workspace::Workspace;

use super::{op_shape, pack, scratch, Blocking, Trans, MR, NR};

/// Offset of block `(pc, jc)` of an operand `n` wide, packed in
/// `kc`-deep block rows (pc-major), each cut into `nc`-wide blocks of
/// zero-padded `w`-wide panels (jc-minor); `kc_eff` is the depth of
/// block row `pc`.
///
/// Every block row above `pc` is a full `kc` deep and every block left
/// of `jc` a full `nc` wide, so the offset is arithmetic and no pack
/// keeps a block index. `op(B)` lies on the grid with `w = NR`; `op(A)`
/// with `w = nc = MR` and the row index for `jc`, so one "block" is one
/// row panel and `jc = ic0` finds a stripe's first panel.
pub(super) fn block_at(
    w: usize,
    n: usize,
    nc: usize,
    pc: usize,
    kc_eff: usize,
    jc: usize,
) -> usize {
    let block = nc.div_ceil(w) * w;
    let row = n / nc * block + (n % nc).div_ceil(w) * w;
    pc * row + jc / nc * block * kc_eff
}

/// `op(B)` packed once for repeated multiplication. Two packs are equal
/// when they hold the same panels under the same blocking, whatever
/// tail a repack left in either buffer.
#[derive(Clone, Debug)]
pub struct PackedB<T: Scalar> {
    data: Vec<T>,
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
    pub fn new<'b>(b: impl Into<MatRef<'b, T>>, tb: Trans, blocking: Blocking) -> Self {
        let b = b.into();
        let (rows, cols) = b.shape();
        Self::build(rows, cols, b.as_slice(), tb, blocking, |total| {
            vec![T::ZERO; total]
        })
    }

    /// Pack `op(B)` into workspace scratch, reading it straight from a
    /// row-major slice of `rows x cols` — no intermediate matrix
    /// needed, so a layer's region of a flat direction vector packs
    /// without the copy that building a matrix first would cost.
    ///
    /// This is the per-call packing path of the CG hot loop: the small
    /// direction matrix `Vw` is packed once per Gauss–Newton product
    /// and retired straight back via [`Self::give_back`], so steady
    /// state packs into recycled memory. The scratch take is safe
    /// because `pack::pack_b` fully overwrites every block region,
    /// ragged-panel zero padding included.
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

    /// Re-pack `op(B)` into this pack's own buffer, which grows only
    /// if the new operand needs more room: when the weights (or the
    /// sampled activations) change, the pack is refilled instead of
    /// freed and rebuilt. Bitwise the pack [`Self::new`] would build.
    pub fn repack<'b>(&mut self, b: impl Into<MatRef<'b, T>>, tb: Trans, blocking: Blocking) {
        let b = b.into();
        let (rows, cols) = b.shape();
        let data = std::mem::take(&mut self.data);
        *self = Self::build(rows, cols, b.as_slice(), tb, blocking, |total| {
            let mut data = data;
            scratch::grow_to(&mut data, total);
            data
        });
    }

    /// Pack `src` into the buffer `alloc` returns for the pack's
    /// element count; the buffer may be longer (a repacked buffer keeps
    /// its high-water length), and the tail past the blocks is unused.
    fn build(
        rows: usize,
        cols: usize,
        src: &[T],
        tb: Trans,
        blocking: Blocking,
        alloc: impl FnOnce(usize) -> Vec<T>,
    ) -> Self {
        let blocking = blocking.sanitized();
        let (k, n) = op_shape(tb, (rows, cols));
        if k == 0 || n == 0 {
            return PackedB {
                data: Vec::new(),
                blocking,
                k,
                n,
            };
        }
        let kc = blocking.kc.min(k);
        let nc = blocking.nc.min(n);
        let mut data = alloc(block_at(NR, n, nc, k, 0, 0));
        for pc in (0..k).step_by(kc) {
            let kc_eff = kc.min(k - pc);
            for jc in (0..n).step_by(nc) {
                let at = block_at(NR, n, nc, pc, kc_eff, jc);
                let nc_eff = nc.min(n - jc);
                pack::pack_b_rows(src, cols, tb, pc, kc_eff, jc, nc_eff, &mut data[at..]);
            }
        }
        PackedB {
            data,
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

    /// Bytes the pack holds: its panels, plus any tail a repack into
    /// a larger buffer left unused.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Row `kk` of `op(B)`, read back out of the panels: its columns in
    /// order, as the `NR`-wide runs one per panel (the last run of an
    /// `nc` block ragged), so the runs laid end to end are the row.
    ///
    /// # Panics
    /// If `kk >= k()`.
    pub fn row_runs(&self, kk: usize) -> impl Iterator<Item = &[T]> + '_ {
        assert!(kk < self.k, "PackedB::row_runs: row {kk} of {}", self.k);
        let kc = self.blocking.kc.min(self.k);
        let nc = self.blocking.nc.min(self.n);
        let pc = kk / kc * kc;
        let kc_eff = kc.min(self.k - pc);
        (0..self.n).step_by(nc).flat_map(move |jc| {
            let nc_eff = nc.min(self.n - jc);
            let block = block_at(NR, self.n, nc, pc, kc_eff, jc);
            // Panel `j / NR` of the block starts `j * kc_eff` in.
            (0..nc_eff).step_by(NR).map(move |j| {
                let start = block + j * kc_eff + (kk - pc) * NR;
                &self.data[start..start + NR.min(nc_eff - j)]
            })
        })
    }

    /// Blocking the panels were packed under (the multiply must use
    /// the same).
    pub(crate) fn blocking(&self) -> Blocking {
        self.blocking
    }

    /// The packed panels, laid out as `block_at` says.
    pub(super) fn panels(&self) -> &[T] {
        &self.data
    }
}

/// `op(A)` packed once for repeated multiplication.
///
/// All `ceil(m / MR)` row micro-panels are packed per k-block, blocked
/// only over `kc` (there is no `mc` blocking in the pack: the driver
/// borrows a stripe's panels out of each k-block, which works because
/// stripe offsets are always `MR` multiples). Panel `ir` of k-block
/// `pc` lives at `block_at(MR, m, MR, pc, kc_eff, ir * MR)` — the exact
/// layout `pack::pack_a` produces for a stripe starting at row
/// `ir * MR`, so [`super::GemmOp::packed_a`] is bitwise identical to
/// [`super::GemmOp::ab`].
///
/// Two packs are equal as [`PackedB`]s are.
#[derive(Clone, Debug)]
pub struct PackedA<T: Scalar> {
    data: Vec<T>,
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
    pub fn new<'a>(a: impl Into<MatRef<'a, T>>, ta: Trans, blocking: Blocking) -> Self {
        Self::build(a.into(), ta, blocking, |total| vec![T::ZERO; total])
    }

    /// Re-pack `op(A)` into this pack's own buffer, which grows only
    /// if the new operand needs more room (see [`PackedB::repack`]).
    pub fn repack<'a>(&mut self, a: impl Into<MatRef<'a, T>>, ta: Trans, blocking: Blocking) {
        let data = std::mem::take(&mut self.data);
        *self = Self::build(a.into(), ta, blocking, |total| {
            let mut data = data;
            scratch::grow_to(&mut data, total);
            data
        });
    }

    /// Pack into the buffer `alloc` returns for the pack's element
    /// count; it may be longer (a repacked buffer keeps its high-water
    /// length), and the tail past the blocks is unused.
    fn build(
        a: MatRef<'_, T>,
        ta: Trans,
        blocking: Blocking,
        alloc: impl FnOnce(usize) -> Vec<T>,
    ) -> Self {
        let blocking = blocking.sanitized();
        let (m, k) = op_shape(ta, a.shape());
        if m == 0 || k == 0 {
            return PackedA {
                data: Vec::new(),
                blocking,
                m,
                k,
            };
        }
        let kc = blocking.kc.min(k);
        let mut data = alloc(block_at(MR, m, MR, k, 0, 0));
        for pc in (0..k).step_by(kc) {
            let kc_eff = kc.min(k - pc);
            let at = block_at(MR, m, MR, pc, kc_eff, 0);
            pack::pack_a(a, ta, 0, m, pc, kc_eff, &mut data[at..]);
        }
        PackedA {
            data,
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

    /// Bytes the pack holds: its panels, plus any tail a repack into
    /// a larger buffer left unused.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// The packed panels, laid out as `block_at` says.
    pub(super) fn panels(&self) -> &[T] {
        &self.data
    }
}

impl<T: Scalar> PartialEq for PackedB<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.blocking, self.k, self.n) == (other.blocking, other.k, other.n)
            && self.used() == other.used()
    }
}

impl<T: Scalar> PackedB<T> {
    /// The panels, without a repack's unused tail.
    fn used(&self) -> &[T] {
        let nc = self.blocking.nc.min(self.n);
        let empty = self.k == 0 || self.n == 0;
        &self.data[..if empty {
            0
        } else {
            block_at(NR, self.n, nc, self.k, 0, 0)
        }]
    }
}

impl<T: Scalar> PartialEq for PackedA<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.blocking, self.m, self.k) == (other.blocking, other.m, other.k)
            && self.used() == other.used()
    }
}

impl<T: Scalar> PackedA<T> {
    /// The panels, without a repack's unused tail.
    fn used(&self) -> &[T] {
        let empty = self.m == 0 || self.k == 0;
        &self.data[..if empty {
            0
        } else {
            block_at(MR, self.m, MR, self.k, 0, 0)
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{GemmContext, GemmOp};
    use crate::matrix::Matrix;
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
            GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut c1);
            GemmOp::packed_b(&a, Trans::N, &packed).run(&ctx, &mut c2);
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
        GemmOp::ab(&x, Trans::N, &w, Trans::T).run(&ctx, &mut c1);
        GemmOp::packed_b(&x, Trans::N, &packed).run(&ctx, &mut c2);
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
            GemmOp::ab(&x, Trans::N, &w, Trans::T).run(&ctx, &mut c1);
            GemmOp::packed_b(&x, Trans::N, &packed).run(&ctx, &mut c2);
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
        GemmOp::ab(&a, Trans::T, &b, Trans::N)
            .alpha(1.5f32)
            .beta(-0.5)
            .run(&ctx, &mut c1);
        GemmOp::packed_b(&a, Trans::T, &packed)
            .alpha(1.5f32)
            .beta(-0.5)
            .run(&ctx, &mut c2);
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
        GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut c1);
        GemmOp::packed_b(&a, Trans::N, &packed).run(&ctx, &mut c2);
        assert_eq!(c1, c2);
    }

    /// The runs of every row, end to end, are that row of `op(B)`,
    /// whatever the blocking cuts of k and n.
    #[test]
    fn row_runs_read_back_each_row() {
        let b = rand(45, 2 * NR + 9, 30);
        for (kc, nc) in [(256, 1024), (7, 1024), (16, NR + 5), (1, NR)] {
            let blocking = Blocking { mc: 8, kc, nc };
            for (tb, op_b) in [(Trans::N, b.clone()), (Trans::T, b.transposed())] {
                let packed = PackedB::new(&op_b, tb, blocking);
                for kk in 0..packed.k() {
                    let row: Vec<f32> = packed.row_runs(kk).flatten().copied().collect();
                    assert_eq!(row, b.row(kk), "kc={kc} nc={nc} {tb:?} row {kk}");
                }
            }
        }
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
        GemmOp::packed_b(&a, Trans::N, &packed).run(&ctx, &mut c);
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
        GemmOp::packed_b(&a, Trans::N, &packed)
            .beta(0.5)
            .run(&ctx, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 1.0));
        // beta = 0 with NaN in C must overwrite with zeros.
        let mut c2: Matrix<f32> = Matrix::filled(3, 4, f32::NAN);
        GemmOp::packed_b(&a, Trans::N, &packed).run(&ctx, &mut c2);
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
        GemmOp::packed_b(&a, Trans::N, &packed).run(&ctx, &mut c);
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
            GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut c1);
            GemmOp::packed_a(&packed, &b, Trans::N).run(&ctx, &mut c2);
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
            GemmOp::ab(src, ta, &vw, Trans::T)
                .alpha(1.5f32)
                .beta(1.0)
                .run(&ctx, &mut c1);
            GemmOp::packed_a(&packed, &vw, Trans::T)
                .alpha(1.5f32)
                .beta(1.0)
                .run(&ctx, &mut c2);
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
        GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&seq, &mut c1);
        GemmOp::packed_a(&packed, &b, Trans::N).run(&thr, &mut c2);
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
        GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut c1);
        GemmOp::packed_a(&packed, &b, Trans::N).run(&ctx, &mut c2);
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
        GemmOp::packed_a(&packed, &b0, Trans::N)
            .beta(0.5)
            .run(&ctx, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 1.0));
        // m == 0: empty output, no-op.
        let am: Matrix<f32> = Matrix::zeros(0, 5);
        let packed = PackedA::new(&am, Trans::N, ctx.blocking());
        let b = rand(5, 4, 34);
        let mut c: Matrix<f32> = Matrix::zeros(0, 4);
        GemmOp::packed_a(&packed, &b, Trans::N).run(&ctx, &mut c);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn packed_a_shape_mismatch_panics() {
        let ctx = GemmContext::sequential();
        let a = rand(4, 5, 35);
        let b = rand(6, 3, 36);
        let packed = PackedA::new(&a, Trans::N, ctx.blocking());
        let mut c = Matrix::zeros(4, 3);
        GemmOp::packed_a(&packed, &b, Trans::N).run(&ctx, &mut c);
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
            GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut c1);
            GemmOp::packed_ab(&pa, &pb).run(&ctx, &mut c2);
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
        GemmOp::ab(&a, Trans::N, &vw, Trans::T)
            .alpha(1.5f32)
            .beta(1.0)
            .run(&ctx, &mut c1);
        GemmOp::packed_ab(&pa, &pvw)
            .alpha(1.5f32)
            .beta(1.0)
            .run(&ctx, &mut c2);
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
        GemmOp::packed_ab(&pa, &pb).run(&ctx, &mut c);
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
        GemmOp::packed_ab(&pa, &pb).run(&ctx, &mut c);
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
            let arena = PackedB::new_in_from_rows(
                b.rows(),
                b.cols(),
                b.as_slice(),
                Trans::T,
                ctx.blocking(),
                &mut ws,
            );
            assert_eq!(heap.bytes(), arena.bytes());
            // op(B) = B^T is 33 x 40: inner dim 33, output width 40.
            let x = rand(21, 33, seed + 10);
            let mut c1 = Matrix::zeros(21, 40);
            let mut c2 = Matrix::zeros(21, 40);
            GemmOp::packed_b(&x, Trans::N, &heap).run(&ctx, &mut c1);
            GemmOp::packed_b(&x, Trans::N, &arena).run(&ctx, &mut c2);
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
                GemmOp::ab(&a, Trans::N, &b, Trans::T)
                    .alpha(alpha)
                    .beta(beta)
                    .run(&ctx, &mut c1);
                GemmOp::packed_a_bt(&pa, b.as_slice())
                    .alpha(alpha)
                    .beta(beta)
                    .run(&ctx, &mut c2);
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
        GemmOp::packed_a_bt(&pa, &[]).beta(0.5).run(&ctx, &mut c);
        for (x, y) in c.as_slice().iter().zip(orig.as_slice()) {
            assert_eq!(*x, 0.5 * y);
        }
        GemmOp::packed_a_bt(&pa, &[]).run(&ctx, &mut c);
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
        GemmOp::packed_a_bt(&pa, &b).run(&ctx, &mut c);
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
            GemmOp::ab(&a, Trans::N, &vw, Trans::T).run(&ctx, &mut c1);
            GemmOp::packed_a(&packed, &vw, Trans::T).run(&ctx, &mut c2);
            assert_eq!(c1, c2);
        }
    }
}
