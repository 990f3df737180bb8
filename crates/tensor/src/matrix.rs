//! Dense row-major matrix.
//!
//! `Matrix<T>` is the storage type used throughout the workspace:
//! activations are `[frames x units]`, weights `[out x in]`. Row-major
//! layout means a batch of frames is a contiguous stack of feature
//! rows, which is what the packing routines in [`crate::gemm`] expect.

use crate::scalar::Scalar;
use pdnn_util::Prng;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of `rows x cols` elements.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix<T: Scalar = f32> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from an existing row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer length {} != {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Reshape to `rows x cols` in this matrix's own buffer, for a
    /// caller that overwrites every element: the buffer keeps its
    /// memory, grows (by exactly what it lacks) only past its high
    /// water, and the elements hold whatever they held, or zero where
    /// it grew.
    pub fn reshape_reusing(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        if len > self.data.len() {
            self.data.reserve_exact(len - self.data.len());
        }
        self.data.resize(len, T::ZERO);
        (self.rows, self.cols) = (rows, cols);
    }

    /// Build by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Matrix with i.i.d. `N(0, stddev^2)` entries from `rng`.
    pub fn random_normal(rows: usize, cols: usize, stddev: f64, rng: &mut Prng) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(T::from_f64(rng.normal() * stddev));
        }
        Matrix { rows, cols, data }
    }

    /// Matrix with i.i.d. uniform entries in `[lo, hi)`.
    pub fn random_uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut Prng) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(T::from_f64(rng.range(lo, hi)));
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable row-major backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the backing vector.
    pub(crate) fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A new matrix holding rows `r0..r1` (half-open), copied.
    pub fn rows_copy(&self, r0: usize, r1: usize) -> Matrix<T> {
        assert!(r0 <= r1 && r1 <= self.rows, "rows_copy range {r0}..{r1}");
        Matrix {
            rows: r1 - r0,
            cols: self.cols,
            data: self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        }
    }

    /// Borrow rows `r0..r1` as one contiguous slice (row-major).
    pub fn rows_slice(&self, r0: usize, r1: usize) -> &[T] {
        assert!(r0 <= r1 && r1 <= self.rows, "rows_slice range {r0}..{r1}");
        &self.data[r0 * self.cols..r1 * self.cols]
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// New matrix with `f` applied elementwise.
    pub fn map(&self, mut f: impl FnMut(T) -> T) -> Matrix<T> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Scale every element by `alpha`.
    pub(crate) fn scale(&mut self, alpha: T) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Add `bias[c]` to every element of column `c` (row-vector broadcast).
    pub fn add_row_broadcast(&mut self, bias: &[T]) {
        assert_eq!(bias.len(), self.cols, "bias length != cols");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, &b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    }

    /// Sum over rows: returns a length-`cols` vector of column sums.
    pub fn column_sums(&self) -> Vec<T> {
        let mut out = vec![T::ZERO; self.cols];
        self.column_sums_into(&mut out);
        out
    }

    /// Add the rows, in order, onto a caller-provided buffer. On a
    /// zeroed `out` this is [`Self::column_sums`] bit for bit; on the
    /// sums of earlier rows it continues them, so a batch summed in
    /// row blocks, block after block, is bitwise the whole batch's sum.
    pub fn column_sums_into(&self, out: &mut [T]) {
        assert_eq!(out.len(), self.cols, "column_sums_into: out length != cols");
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
    }

    /// Index of the largest element in each row (ties -> lowest index).
    pub fn row_argmax(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Largest absolute elementwise difference to `other`.
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
impl<T: Scalar> Matrix<T> {
    /// Identity-like matrix (ones on the main diagonal).
    pub(crate) fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { T::ONE } else { T::ZERO })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m: Matrix<f32> = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_checks_length() {
        let _: Matrix<f32> = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let m: Matrix<f64> = Matrix::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn reshape_reusing_keeps_the_buffer() {
        let mut m: Matrix<f32> = Matrix::filled(4, 5, 2.0);
        let ptr = m.as_slice().as_ptr();
        m.reshape_reusing(2, 3);
        assert_eq!((m.shape(), m.as_slice().as_ptr()), ((2, 3), ptr));
        assert!(m.as_slice().iter().all(|&v| v == 2.0));
        m.reshape_reusing(5, 4);
        assert_eq!((m.shape(), m.as_slice().as_ptr()), ((5, 4), ptr));
        m.reshape_reusing(3, 7);
        assert_eq!(m.len(), 21);
        assert_eq!(m[(2, 6)], 0.0, "grown elements are zero");
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = Prng::new(1);
        let m: Matrix<f32> = Matrix::random_normal(5, 7, 1.0, &mut rng);
        let tt = m.transposed().transposed();
        assert_eq!(m, tt);
    }

    #[test]
    fn transpose_swaps_entries() {
        let m: Matrix<f32> = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let t = m.transposed();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], m[(1, 2)]);
    }

    #[test]
    fn scale_multiplies_in_place() {
        let mut b: Matrix<f32> = Matrix::filled(2, 2, 3.5);
        b.scale(2.0);
        assert_eq!(b[(0, 1)], 7.0);
    }

    #[test]
    fn broadcast_and_column_sums() {
        let mut m: Matrix<f32> = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(m[(2, 0)], 1.0);
        assert_eq!(m[(0, 1)], 2.0);
        let sums = m.column_sums();
        assert_eq!(sums, vec![3.0, 6.0]);
    }

    #[test]
    fn row_argmax_breaks_ties_low() {
        let m: Matrix<f32> = Matrix::from_vec(2, 3, vec![0.0, 5.0, 5.0, 7.0, 1.0, 2.0]);
        assert_eq!(m.row_argmax(), vec![1, 0]);
    }

    #[test]
    fn rows_copy_extracts_contiguous_block() {
        let m: Matrix<f32> = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let sub = m.rows_copy(1, 3);
        assert_eq!(sub.shape(), (2, 2));
        assert_eq!(sub[(0, 0)], 2.0);
        assert_eq!(sub[(1, 1)], 5.0);
        assert_eq!(m.rows_slice(1, 3), sub.as_slice());
    }

    #[test]
    fn max_abs_diff_detects_divergence() {
        let a: Matrix<f32> = Matrix::zeros(2, 2);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b[(1, 0)] = 0.25;
        assert!((a.max_abs_diff(&b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn random_normal_has_requested_spread() {
        let mut rng = Prng::new(99);
        let m: Matrix<f64> = Matrix::random_normal(100, 100, 2.0, &mut rng);
        let mean: f64 = m.as_slice().iter().sum::<f64>() / 10_000.0;
        let var: f64 = m
            .as_slice()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f64>()
            / 10_000.0;
        assert!(mean.abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.3, "var={var}");
    }

    #[test]
    fn map_does_not_mutate_original() {
        let a: Matrix<f32> = Matrix::filled(2, 2, 2.0);
        let b = a.map(|x| x * x);
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(b[(0, 0)], 4.0);
    }
}
