//! The `GemmOp` descriptor: one entry point for every product form.
//!
//! Every product runs on the same blocked driver. [`GemmOp`]
//! names the operands once — a plain row-major view ([`MatRef`]: a
//! `&Matrix` or any slice, such as a layer's region of a flat parameter
//! vector), prepacked panel set, or streamed row-major `B^T` slice —
//! and writes C into a [`MatMut`] view (a `&mut Matrix` or any slice),
//! scales
//! with [`GemmOp::alpha`]/[`GemmOp::beta`], and executes through the
//! context's [`crate::gemm::backend::ComputeBackend`] with
//! [`GemmOp::run`]. Operand combinations that have no driver (a plain
//! left matrix against a streamed `B^T`) are unrepresentable: the only
//! constructor taking a row slice also takes a [`PackedA`], and the
//! only one reading A out of a right pack ([`GemmOp::rows_ab`]) takes a
//! [`PackedB`] on the right.
//!
//! ```
//! use pdnn_tensor::{Matrix, gemm::{GemmContext, GemmOp, Trans}};
//!
//! let a: Matrix<f32> = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
//! let b: Matrix<f32> = Matrix::from_fn(3, 2, |r, c| (r * c) as f32);
//! let mut c: Matrix<f32> = Matrix::zeros(2, 2);
//! GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&GemmContext::sequential(), &mut c);
//! assert_eq!(c[(1, 1)], 1.0 * 0.0 + 2.0 * 1.0 + 3.0 * 2.0);
//! ```

use crate::matrix::{MatMut, MatRef};
use crate::scalar::Scalar;

use super::{driver, naive, GemmContext, PackedA, PackedB, Trans};

/// Left operand of a [`GemmOp`].
#[derive(Clone, Copy, Debug)]
pub(super) enum OpA<'a, T: Scalar> {
    /// `op(A)` from a plain row-major view.
    Mat(MatRef<'a, T>, Trans),
    /// A prepacked left operand.
    Packed(&'a PackedA<T>),
    /// `op(A)` read in place from the rows of a one-k-block right pack.
    Rows(&'a PackedB<T>),
}

/// Right operand of a [`GemmOp`].
#[derive(Clone, Copy, Debug)]
pub(super) enum OpB<'a, T: Scalar> {
    /// `op(B)` from a plain row-major view.
    Mat(MatRef<'a, T>, Trans),
    /// A prepacked right operand.
    Packed(&'a PackedB<T>),
    /// `B^T` streamed in place from an `n x k` row-major slice.
    RowsT(&'a [T]),
}

/// A described product `C = alpha * op(A) * op(B) + beta * C`, built
/// from named operands and executed on a [`GemmContext`].
///
/// `alpha` defaults to one and `beta` to zero (overwrite, NaN-safe).
#[derive(Clone, Copy, Debug)]
pub struct GemmOp<'a, T: Scalar> {
    a: OpA<'a, T>,
    b: OpB<'a, T>,
    alpha: T,
    beta: T,
}

impl<'a, T: Scalar> GemmOp<'a, T> {
    fn new(a: OpA<'a, T>, b: OpB<'a, T>) -> Self {
        GemmOp {
            a,
            b,
            alpha: T::ONE,
            beta: T::ZERO,
        }
    }

    /// Plain two-matrix product `op(A) * op(B)`.
    pub fn ab(
        a: impl Into<MatRef<'a, T>>,
        ta: Trans,
        b: impl Into<MatRef<'a, T>>,
        tb: Trans,
    ) -> Self {
        Self::new(OpA::Mat(a.into(), ta), OpB::Mat(b.into(), tb))
    }

    /// `op(A) * B_packed` — the training forward/backward hot path,
    /// where the weights are packed once per step.
    pub fn packed_b(a: impl Into<MatRef<'a, T>>, ta: Trans, b: &'a PackedB<T>) -> Self {
        Self::new(OpA::Mat(a.into(), ta), OpB::Packed(b))
    }

    /// `A_packed * op(B)` — the CG loop's fixed-activations side.
    pub fn packed_a(a: &'a PackedA<T>, b: impl Into<MatRef<'a, T>>, tb: Trans) -> Self {
        Self::new(OpA::Packed(a), OpB::Mat(b.into(), tb))
    }

    /// `A_packed * B_packed` — both operands prepacked; nothing is
    /// packed or allocated inside the multiply.
    pub fn packed_ab(a: &'a PackedA<T>, b: &'a PackedB<T>) -> Self {
        Self::new(OpA::Packed(a), OpB::Packed(b))
    }

    /// `A · B_packed` with `A` the `k x n` matrix the right pack `a`
    /// holds, read in place from its panels: no left pack is built or
    /// kept. The tile kernel broadcasts one A value per tile row per
    /// step, and in `a`'s panels row `i` sits `NR` values after row
    /// `i − 1`, so it reads them there as it reads a [`PackedA`]'s.
    /// Bitwise [`Self::packed_ab`] over `PackedA` of the same matrix.
    ///
    /// This is how a chunk of the curvature sample, held once as the
    /// right operand of the backward's `δᵀ·a`, is also the left operand
    /// of the R-forward's `a·Vwᵀ`.
    ///
    /// # Panics
    /// At [`Self::run`], if `a` holds more than one k-block of rows
    /// (`a.k()` past its blocking's `kc`), or the two packs were built
    /// under different blockings.
    pub fn rows_ab(a: &'a PackedB<T>, b: &'a PackedB<T>) -> Self {
        Self::new(OpA::Rows(a), OpB::Packed(b))
    }

    /// `A_packed * B^T` with `B` an `n x k` row-major slice streamed
    /// in place (no packing of the right operand at all) — wins when
    /// `op(A)` is short; see the prepacked module docs.
    pub fn packed_a_bt(a: &'a PackedA<T>, b_rows: &'a [T]) -> Self {
        Self::new(OpA::Packed(a), OpB::RowsT(b_rows))
    }

    /// Set the product scale (default one).
    pub fn alpha(mut self, alpha: T) -> Self {
        self.alpha = alpha;
        self
    }

    /// Set the existing-C scale (default zero = overwrite, NaN-safe).
    pub fn beta(mut self, beta: T) -> Self {
        self.beta = beta;
        self
    }

    /// Execute on `ctx` through the blocked driver into `c` (a
    /// `&mut Matrix` or a [`MatMut`] over any slice); the microkernels
    /// come from `ctx`'s backend.
    ///
    /// # Panics
    /// On shape mismatch between the operands and `c`, a streamed `B^T`
    /// slice that is not `n x k`, two packs built under different
    /// blockings, or a [`Self::rows_ab`] left pack of more than one
    /// k-block.
    pub fn run<'c>(self, ctx: &GemmContext, c: impl Into<MatMut<'c, T>>) {
        driver::run(ctx, self.a, self.b, self.alpha, self.beta, c.into());
    }

    /// Execute via the naive triple-loop reference instead of the
    /// blocked driver — the correctness oracle for tests and the
    /// "untuned library" baseline in benches.
    ///
    /// # Panics
    /// If either operand is prepacked (the reference reads plain
    /// matrices only), or on shape mismatch.
    pub fn run_reference<'c>(self, c: impl Into<MatMut<'c, T>>) {
        match (self.a, self.b) {
            (OpA::Mat(a, ta), OpB::Mat(b, tb)) => {
                naive::reference(ta, tb, self.alpha, a, b, self.beta, c.into())
            }
            // pdnn-lint: allow(l3-no-unwrap): API misuse guard — the reference path is defined for plain matrices only, and silently falling back to the blocked driver would defeat its oracle role
            _ => panic!("GemmOp::run_reference requires plain matrix operands"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{scalar_backend, Blocking};
    use crate::matrix::Matrix;
    use pdnn_util::Prng;

    fn rand(r: usize, c: usize, seed: u64) -> Matrix<f32> {
        let mut rng = Prng::new(seed);
        Matrix::random_normal(r, c, 1.0, &mut rng)
    }

    #[test]
    fn ab_matches_driver_bitwise() {
        let ctx = GemmContext::sequential();
        let a = rand(17, 23, 1);
        let b = rand(23, 9, 2);
        let c0 = rand(17, 9, 3);
        let mut c1 = c0.clone();
        let mut c2 = c0;
        driver::run(
            &ctx,
            OpA::Mat((&a).into(), Trans::N),
            OpB::Mat((&b).into(), Trans::N),
            1.5,
            -0.5,
            (&mut c1).into(),
        );
        GemmOp::ab(&a, Trans::N, &b, Trans::N)
            .alpha(1.5)
            .beta(-0.5)
            .run(&ctx, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn default_alpha_beta_overwrite() {
        let ctx = GemmContext::sequential();
        let a: Matrix<f32> = Matrix::eye(3);
        let b = rand(3, 4, 4);
        // beta defaults to 0: NaN-seeded C must be overwritten.
        let mut c = Matrix::filled(3, 4, f32::NAN);
        GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn every_packed_form_matches_plain_bitwise() {
        let ctx = GemmContext::sequential();
        let (m, k, n) = (21, 33, 17);
        let a = rand(m, k, 5);
        let b = rand(n, k, 6); // used transposed: op(B) = B^T is k x n
        let pa = PackedA::new(&a, Trans::N, ctx.blocking());
        let pb = PackedB::new(&b, Trans::T, ctx.blocking());
        let c0 = rand(m, n, 7);

        let mut want = c0.clone();
        GemmOp::ab(&a, Trans::N, &b, Trans::T)
            .alpha(0.5)
            .beta(2.0)
            .run(&ctx, &mut want);

        let forms: [(&str, GemmOp<'_, f32>); 4] = [
            ("packed_b", GemmOp::packed_b(&a, Trans::N, &pb)),
            ("packed_a", GemmOp::packed_a(&pa, &b, Trans::T)),
            ("packed_ab", GemmOp::packed_ab(&pa, &pb)),
            ("packed_a_bt", GemmOp::packed_a_bt(&pa, b.as_slice())),
        ];
        for (label, op) in forms {
            let mut c = c0.clone();
            op.alpha(0.5).beta(2.0).run(&ctx, &mut c);
            assert_eq!(c, want, "{label}");
        }
    }

    #[test]
    fn run_reference_is_the_naive_oracle() {
        let a = rand(9, 7, 8);
        let b = rand(9, 13, 9); // used transposed
        let mut c1: Matrix<f32> = Matrix::zeros(7, 13);
        let mut c2 = c1.clone();
        naive::reference(Trans::T, Trans::N, 1.0f32, &a, &b, 0.0, &mut c1);
        GemmOp::ab(&a, Trans::T, &b, Trans::N).run_reference(&mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    #[should_panic(expected = "plain matrix operands")]
    fn run_reference_rejects_packed_operands() {
        let a = rand(8, 8, 10);
        let pa = PackedA::new(&a, Trans::N, Blocking::default());
        let mut c: Matrix<f32> = Matrix::zeros(8, 8);
        GemmOp::packed_a_bt(&pa, a.as_slice()).run_reference(&mut c);
    }

    #[test]
    fn respects_context_backend() {
        // Forced-scalar and default-backend contexts must agree
        // bitwise (the backend contract).
        let a = rand(40, 31, 11);
        let b = rand(31, 26, 12);
        let mut c1: Matrix<f32> = Matrix::zeros(40, 26);
        let mut c2 = c1.clone();
        GemmOp::ab(&a, Trans::N, &b, Trans::N).run(
            &GemmContext::sequential().with_backend(scalar_backend()),
            &mut c1,
        );
        GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&GemmContext::sequential(), &mut c2);
        assert_eq!(c1, c2);
    }
}
