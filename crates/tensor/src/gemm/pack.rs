//! Operand packing.
//!
//! The paper reformats the A and B operands "in such a way so as to
//! allow strictly stride-one access to both matrices" so the L1
//! prefetch engine engages (Section V.A.2). We do the same: before the
//! inner kernel runs, the A block is rearranged into column-major
//! micro-panels of [`MR`] rows and the B block into row-major
//! micro-panels of [`NR`] columns. The microkernel then walks both
//! buffers with unit stride. Ragged edges are zero-padded so the
//! kernel never branches on panel width.

use crate::matrix::Matrix;
use crate::scalar::Scalar;

use super::{Trans, MR, NR};

/// Pack an `mc x kc` block of `op(A)` starting at (`ic`, `pc`) into
/// `MR`-row micro-panels.
///
/// Output layout: panel-major; within panel `p`, element `(kk, i)` of
/// the panel lives at `p * kc * MR + kk * MR + i`. Rows beyond `mc`
/// are zero.
///
/// `out` must have room for `ceil(mc / MR) * kc * MR` elements.
pub fn pack_a<T: Scalar>(
    a: &Matrix<T>,
    trans: Trans,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    out: &mut [T],
) {
    let panels = mc.div_ceil(MR);
    assert!(
        out.len() >= panels * kc * MR,
        "pack_a: output buffer too small"
    );
    for p in 0..panels {
        let row0 = p * MR;
        let rows = MR.min(mc - row0);
        let dst = &mut out[p * kc * MR..(p + 1) * kc * MR];
        match trans {
            Trans::N => {
                // op(A)(i, kk) = A[ic + i, pc + kk]; source rows are
                // contiguous, so walk k in the inner loop per row to
                // keep reads stride-one, writing strided into the
                // panel (the panel is small and cache-resident).
                for i in 0..rows {
                    let src = &a.row(ic + row0 + i)[pc..pc + kc];
                    for (kk, &v) in src.iter().enumerate() {
                        dst[kk * MR + i] = v;
                    }
                }
            }
            Trans::T => {
                // op(A)(i, kk) = A[pc + kk, ic + i]; source row kk is
                // contiguous in i, which matches the panel layout, so
                // both sides are stride-one.
                for kk in 0..kc {
                    let src = &a.row(pc + kk)[ic + row0..ic + row0 + rows];
                    dst[kk * MR..kk * MR + rows].copy_from_slice(src);
                }
            }
        }
        if rows < MR {
            for kk in 0..kc {
                for i in rows..MR {
                    dst[kk * MR + i] = T::ZERO;
                }
            }
        }
    }
}

/// Pack a `kc x nc` block of `op(B)` starting at (`pc`, `jc`) into
/// `NR`-column micro-panels.
///
/// Output layout: panel-major; within panel `p`, element `(kk, j)` of
/// the panel lives at `p * kc * NR + kk * NR + j`. Columns beyond `nc`
/// are zero.
///
/// `out` must have room for `ceil(nc / NR) * kc * NR` elements.
pub fn pack_b<T: Scalar>(
    b: &Matrix<T>,
    trans: Trans,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    out: &mut [T],
) {
    pack_b_rows(b.as_slice(), b.cols(), trans, pc, kc, jc, nc, out);
}

/// [`pack_b`] reading from a row-major slice (`stride` elements per
/// row) instead of a [`Matrix`] — lets callers holding a flat
/// parameter region (e.g. a layer's slice of a direction vector) pack
/// without first copying into a matrix.
#[allow(clippy::too_many_arguments)]
pub fn pack_b_rows<T: Scalar>(
    data: &[T],
    stride: usize,
    trans: Trans,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    out: &mut [T],
) {
    let row = |r: usize| &data[r * stride..(r + 1) * stride];
    let panels = nc.div_ceil(NR);
    assert!(
        out.len() >= panels * kc * NR,
        "pack_b: output buffer too small"
    );
    for p in 0..panels {
        let col0 = p * NR;
        let cols = NR.min(nc - col0);
        let dst = &mut out[p * kc * NR..(p + 1) * kc * NR];
        match trans {
            Trans::N => {
                // op(B)(kk, j) = B[pc + kk, jc + j]; row kk contiguous
                // in j: stride-one on both sides.
                for kk in 0..kc {
                    let src = &row(pc + kk)[jc + col0..jc + col0 + cols];
                    dst[kk * NR..kk * NR + cols].copy_from_slice(src);
                }
            }
            Trans::T => {
                // op(B)(kk, j) = B[jc + j, pc + kk]; source rows are
                // the j dimension.
                for j in 0..cols {
                    let src = &row(jc + col0 + j)[pc..pc + kc];
                    for (kk, &v) in src.iter().enumerate() {
                        dst[kk * NR + j] = v;
                    }
                }
            }
        }
        if cols < NR {
            for kk in 0..kc {
                for j in cols..NR {
                    dst[kk * NR + j] = T::ZERO;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize) -> Matrix<f32> {
        Matrix::from_fn(rows, cols, |r, c| (r * 100 + c) as f32)
    }

    #[test]
    fn pack_a_notrans_layout() {
        let a = sample(10, 6);
        let (ic, mc, pc, kc): (usize, usize, usize, usize) = (1, 10 - 1, 2, 3);
        let panels = mc.div_ceil(MR);
        let mut buf = vec![-1.0f32; panels * kc * MR];
        pack_a(&a, Trans::N, ic, mc, pc, kc, &mut buf);
        // Element (i=0, kk=0) of panel 0 is A[1, 2].
        assert_eq!(buf[0], a[(1, 2)]);
        // Element (i=3, kk=2) of panel 0 is A[4, 4].
        assert_eq!(buf[2 * MR + 3], a[(4, 4)]);
        // Panel 1 row 0 is A[1 + MR, 2].
        assert_eq!(buf[kc * MR], a[(1 + MR, 2)]);
        // Panel 1 has a single live row (mc=9, MR=8); the next row
        // slot is padding and must be zero.
        assert_eq!(buf[kc * MR], a[(1 + mc - 1, 2)]);
        assert_eq!(buf[kc * MR + 1], 0.0);
    }

    #[test]
    fn pack_a_trans_matches_notrans_of_transpose() {
        let a = sample(7, 9);
        let at = a.transposed();
        let (ic, mc, pc, kc): (usize, usize, usize, usize) = (2, 5, 1, 6);
        let panels = mc.div_ceil(MR);
        let mut buf1 = vec![0.0f32; panels * kc * MR];
        let mut buf2 = vec![0.0f32; panels * kc * MR];
        // op(A) = A^T with A 7x9 → op is 9x7; block from (ic, pc).
        pack_a(&a, Trans::T, ic, mc, pc, kc, &mut buf1);
        pack_a(&at, Trans::N, ic, mc, pc, kc, &mut buf2);
        assert_eq!(buf1, buf2);
    }

    #[test]
    fn pack_b_notrans_layout() {
        // Two full panels plus one live column, whatever NR is.
        let (pc, kc, jc, nc): (usize, usize, usize, usize) = (1, 4, 3, 2 * NR + 1);
        let b = sample(5, jc + nc);
        let panels = nc.div_ceil(NR);
        assert_eq!(panels, 3);
        let mut buf = vec![-1.0f32; panels * kc * NR];
        pack_b(&b, Trans::N, pc, kc, jc, nc, &mut buf);
        // (kk=0, j=0) of panel 0 is B[1, 3].
        assert_eq!(buf[0], b[(1, 3)]);
        // (kk=2, j=5) of panel 0 is B[3, 8].
        assert_eq!(buf[2 * NR + 5], b[(3, 8)]);
        // Panel 2 starts at column 3 + 2*NR and has 1 live column.
        let p2 = &buf[2 * kc * NR..3 * kc * NR];
        assert_eq!(p2[0], b[(1, 3 + 2 * NR)]);
        assert_eq!(p2[1], 0.0); // padded column
    }

    #[test]
    fn pack_b_trans_matches_notrans_of_transpose() {
        let b = sample(11, 6);
        let bt = b.transposed();
        let (pc, kc, jc, nc): (usize, usize, usize, usize) = (0, 6, 2, 9);
        let panels = nc.div_ceil(NR);
        let mut buf1 = vec![0.0f32; panels * kc * NR];
        let mut buf2 = vec![0.0f32; panels * kc * NR];
        pack_b(&b, Trans::T, pc, kc, jc, nc, &mut buf1);
        pack_b(&bt, Trans::N, pc, kc, jc, nc, &mut buf2);
        assert_eq!(buf1, buf2);
    }

    #[test]
    #[should_panic(expected = "output buffer too small")]
    fn pack_a_checks_capacity() {
        let a = sample(8, 8);
        let mut buf = vec![0.0f32; 4];
        pack_a(&a, Trans::N, 0, 8, 0, 8, &mut buf);
    }
}
