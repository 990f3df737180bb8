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

use crate::matrix::MatRef;
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
pub(crate) fn pack_a<T: Scalar>(
    a: MatRef<'_, T>,
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
pub(crate) fn pack_b<T: Scalar>(
    b: MatRef<'_, T>,
    trans: Trans,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    out: &mut [T],
) {
    pack_b_rows(b.as_slice(), b.shape().1, trans, pc, kc, jc, nc, out);
}

/// [`pack_b`] reading from a row-major slice (`stride` elements per
/// row) instead of a view.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_b_rows<T: Scalar>(
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
                // op(B)(kk, j) = B[jc + j, pc + kk]; source rows are the
                // j dimension, contiguous in kk: transposing tiles.
                let src: [&[T]; NR] = std::array::from_fn(|j| {
                    if j < cols {
                        &row(jc + col0 + j)[pc..pc + kc]
                    } else {
                        &[]
                    }
                });
                transpose_into(&src[..cols], dst);
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

/// Panel rows [`transpose_into`] fills per block: 64 rows of an
/// `NR`-wide panel are 8 KiB of `f32`.
const PACK_DEPTH: usize = 64;

/// Write columns `j < src.len()` of a `kc x NR` B panel,
/// `dst[kk * NR + j] = src[j][kk]`, from up to `NR` source rows of `kc`
/// elements each; the caller pads the rest. Column by column,
/// [`PACK_DEPTH`] panel rows at a time so the block stays in L1: each
/// source row is read stride-one, and a column's bounds check is
/// loop-invariant, so the compiler hoists it out of the copy. The
/// element-at-a-time loop it replaced packed 512-column blocks about 3x
/// slower.
fn transpose_into<T: Scalar>(src: &[&[T]], dst: &mut [T]) {
    let (rows, _) = dst.as_chunks_mut::<NR>();
    for (b, block) in rows.chunks_mut(PACK_DEPTH).enumerate() {
        for (j, s) in src.iter().enumerate() {
            for (out, &v) in block.iter_mut().zip(&s[b * PACK_DEPTH..]) {
                out[j] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn sample(rows: usize, cols: usize) -> Matrix<f32> {
        Matrix::from_fn(rows, cols, |r, c| (r * 100 + c) as f32)
    }

    #[test]
    fn pack_a_notrans_layout() {
        // One full panel plus one live row, whatever MR is.
        let a = sample(MR + 2, 6);
        let (ic, mc, pc, kc): (usize, usize, usize, usize) = (1, MR + 1, 2, 3);
        let panels = mc.div_ceil(MR);
        assert_eq!(panels, 2);
        let mut buf = vec![-1.0f32; panels * kc * MR];
        pack_a((&a).into(), Trans::N, ic, mc, pc, kc, &mut buf);
        // Element (i=0, kk=0) of panel 0 is A[1, 2].
        assert_eq!(buf[0], a[(1, 2)]);
        // Element (i=3, kk=2) of panel 0 is A[4, 4].
        assert_eq!(buf[2 * MR + 3], a[(4, 4)]);
        // Panel 1 row 0 is A[1 + MR, 2], the block's last live row.
        assert_eq!(buf[kc * MR], a[(1 + MR, 2)]);
        assert_eq!(buf[kc * MR], a[(1 + mc - 1, 2)]);
        // The next row slot of panel 1 is padding and must be zero.
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
        pack_a((&a).into(), Trans::T, ic, mc, pc, kc, &mut buf1);
        pack_a((&at).into(), Trans::N, ic, mc, pc, kc, &mut buf2);
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
        pack_b((&b).into(), Trans::N, pc, kc, jc, nc, &mut buf);
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
        pack_b((&b).into(), Trans::T, pc, kc, jc, nc, &mut buf1);
        pack_b((&bt).into(), Trans::N, pc, kc, jc, nc, &mut buf2);
        assert_eq!(buf1, buf2);
    }

    /// `pack_a` one element at a time, the reference.
    fn pack_a_by_element(
        a: &Matrix<f32>,
        trans: Trans,
        (ic, mc, pc, kc): (usize, usize, usize, usize),
        out: &mut [f32],
    ) {
        for p in 0..mc.div_ceil(MR) {
            for kk in 0..kc {
                for i in 0..MR {
                    let r = p * MR + i;
                    out[p * kc * MR + kk * MR + i] = match (r < mc, trans) {
                        (false, _) => 0.0,
                        (true, Trans::N) => a[(ic + r, pc + kk)],
                        (true, Trans::T) => a[(pc + kk, ic + r)],
                    };
                }
            }
        }
    }

    /// `pack_b` one element at a time: the loops the tiled copy
    /// replaced, kept as the reference.
    fn pack_b_by_element(
        b: &Matrix<f32>,
        trans: Trans,
        (pc, kc, jc, nc): (usize, usize, usize, usize),
        out: &mut [f32],
    ) {
        for p in 0..nc.div_ceil(NR) {
            for kk in 0..kc {
                for j in 0..NR {
                    let c = p * NR + j;
                    out[p * kc * NR + kk * NR + j] = match (c < nc, trans) {
                        (false, _) => 0.0,
                        (true, Trans::N) => b[(pc + kk, jc + c)],
                        (true, Trans::T) => b[(jc + c, pc + kk)],
                    };
                }
            }
        }
    }

    /// The packs write the bytes of the element loops, padding
    /// included, on shapes ragged against `MR`, `NR` and the tile
    /// depths, from offset blocks.
    #[test]
    fn packs_match_the_element_loops_on_ragged_shapes() {
        let m = sample(2 * NR + 11, 2 * NR + 13);
        let sizes = [
            1,
            3,
            MR - 1,
            MR,
            MR + 1,
            2 * MR + 5,
            NR - 1,
            NR + 3,
            2 * NR + 1,
        ];
        for trans in [Trans::N, Trans::T] {
            for &outer in &sizes {
                for &depth in &sizes {
                    for (off_o, off_d) in [(0, 0), (3, 7), (9, 1)] {
                        // op(M) of `trans`: the outer dimension indexes
                        // op's rows (A) or columns (B).
                        let (rows, cols) = match trans {
                            Trans::N => (off_o + outer, off_d + depth),
                            Trans::T => (off_d + depth, off_o + outer),
                        };
                        if rows > m.rows() || cols > m.cols() {
                            continue;
                        }
                        let case =
                            format!("{trans:?} outer={outer} depth={depth} at ({off_o}, {off_d})");
                        let len = outer.div_ceil(MR) * depth * MR;
                        let (mut got, mut want) = (vec![-1.0f32; len], vec![-2.0f32; len]);
                        pack_a((&m).into(), trans, off_o, outer, off_d, depth, &mut got);
                        pack_a_by_element(&m, trans, (off_o, outer, off_d, depth), &mut want);
                        assert_eq!(got, want, "pack_a {case}");
                        // For B, op(B) is depth x outer from (off_d, off_o).
                        let (rows, cols) = match trans {
                            Trans::N => (off_d + depth, off_o + outer),
                            Trans::T => (off_o + outer, off_d + depth),
                        };
                        if rows > m.rows() || cols > m.cols() {
                            continue;
                        }
                        let len = outer.div_ceil(NR) * depth * NR;
                        let (mut got, mut want) = (vec![-1.0f32; len], vec![-2.0f32; len]);
                        pack_b((&m).into(), trans, off_d, depth, off_o, outer, &mut got);
                        pack_b_by_element(&m, trans, (off_d, depth, off_o, outer), &mut want);
                        assert_eq!(got, want, "pack_b {case}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "output buffer too small")]
    fn pack_a_checks_capacity() {
        let a = sample(8, 8);
        let mut buf = vec![0.0f32; 4];
        pack_a((&a).into(), Trans::N, 0, 8, 0, 8, &mut buf);
    }
}
