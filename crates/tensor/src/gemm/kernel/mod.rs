//! Register-blocked micro-tile kernels.
//!
//! Mirrors the paper's Section V.A.2: an `MR x NR` block of C is
//! updated by a sequence of rank-1 updates read with unit stride from
//! the packed panels. On BG/Q this was hand-scheduled QPX assembly;
//! here each backend supplies one [`crate::gemm::backend::TileFn`] per
//! element type — the portable [`scalar`] reference or an explicit
//! `std::arch` kernel ([`x86`], [`neon`]) — selected by the active
//! [`crate::gemm::backend::ComputeBackend`]. A tile kernel owns the
//! whole tile update: it accumulates from zeroed registers for the
//! whole `kc` loop, then merges `α·Σ` into C (overwrite, `β`-scale or
//! accumulate; [`crate::gemm::backend::Merge`]) straight from the
//! registers, so C traffic is one read-modify-write per block
//! regardless of `kc` — the property the paper's "reduce bandwidth to
//! a level the caches can feed" goal is about. A ragged edge tile
//! touches only its live corner: masked loads and stores where the ISA
//! has them, live lanes one by one where it does not.
//!
//! [`elementwise`] holds the other hot loop of training built the same
//! way: the vectorized `exp` and bias + activation row passes of
//! [`crate::vmath`], one loop instantiated per ISA; [`codec`] does the
//! same for the wire codecs of [`crate::codec`].
//!
//! The SIMD tile and B^T kernels are each written once, as the macro
//! bodies [`tile_kernel!`] and [`bt_kernel!`], stamped per (ISA,
//! element type) as BLIS keeps one micro-kernel per architecture. A
//! body uses the ops module of its (ISA, element type), one [`ops!`]
//! line in [`x86`] or `neon`: `T`, the register `V` of `W` lanes,
//! `splat`, `zero`, `fma` (`a·b + c`, one rounding), `mul`, `add`, and
//! `mem`'s `load`/`store` (a whole register) and
//! `load_masked`/`store_masked` (the first `len().min(W)` lanes). The
//! tile body runs `G` of its `W`-lane column groups per pass of the `kk`
//! loop: `G = 2` only for the AVX-512 f32 tile, whose two groups span
//! the tile, so a step feeds `2·MR` chains. The tile body is stamped
//! once per A addressing ([`ATile`]): a packed panel, `MR` values a step
//! side by side ([`crate::gemm::backend::TileFn`]), or the rows of a
//! `PackedB` read in place ([`crate::gemm::backend::RowsTileFn`]), where
//! a step's values lie `NR` apart and the steps run panel by panel. A
//! step broadcasts one A value per tile row either way, so both read
//! `MR` broadcasts, `G` loads and `MR·G` fused multiply-adds a step.
//! The B^T body takes its row count `R` (`MR` in every table) and keeps
//! `R / W` registers per column, plus one masked register when `W` does
//! not divide `R`. The tests instantiate both bodies over emulated
//! `[T; W]` lanes at every (T, W, G) a table uses, the tile body under
//! both addressings and the B^T body at 8, 12 and 14 rows, so every
//! width's group loop and edge masks run on any host.
//!
//! Every kernel is safe Rust over slices. The SIMD ones are
//! `#[target_feature]` fns whose intrinsics need no `unsafe`; each
//! takes the zero-sized ISA token that proves the CPU has its features
//! (`gemm::dispatch` constructs the tokens and makes the one `unsafe`
//! call per kernel entry). A kernel and its ops take their token's
//! features by sitting in the token's wrapper (`avx2_kernel! { ... }`
//! and so on), which enables exactly the features the token's `detect`
//! probes. Their loads and stores go through one small `mem` module
//! per ISA, and those modules hold the only `unsafe` blocks here (lint
//! rule `l7-unsafe-outside-kernel`). An index past a panel or a C tile
//! panics; it cannot read or write outside the slice.

pub(crate) mod codec;
pub(crate) mod elementwise;
pub(crate) mod scalar;

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

#[cfg(target_arch = "aarch64")]
pub(crate) mod neon;

use super::backend::PanelRows;
use super::{MR, NR};

/// The first `kc` rows of a packed panel (`kk`-major, `N` values a
/// row) as fixed-size arrays, so a loop over them indexes nothing it
/// has to check.
///
/// # Panics
/// If the panel is shorter than `kc` rows.
#[inline(always)]
fn rows<T, const N: usize>(panel: &[T], kc: usize) -> &[[T; N]] {
    &panel.as_chunks().0[..kc]
}

/// Where a tile kernel reads its A micro-panel: a packed panel (`&[T]`,
/// [`crate::gemm::backend::TileFn`]) or panel rows ([`PanelRows`],
/// [`crate::gemm::backend::RowsTileFn`]). The kernels are written once
/// over this, and stamped once per addressing.
pub(crate) trait ATile<'a, T: 'a>: Copy {
    /// The steps of one run, each the step's `MR` A values in tile row
    /// order.
    type Steps: Iterator<Item: IntoIterator<Item = &'a T>>;
    /// The runs of a tile, each its steps beside as many rows of the B
    /// panel (`NR` values a step, one per tile column).
    type Runs: Iterator<Item = (Self::Steps, &'a [[T; NR]])>;

    /// The `kc` steps in `kk` order as runs, beside the rows of `bp`. A
    /// tile row at or past `mr_eff` may read another row's values: its
    /// chains are never stored.
    ///
    /// # Panics
    /// If either side is shorter than `kc` steps.
    fn step_runs(self, kc: usize, mr_eff: usize, bp: &'a [T]) -> Self::Runs;
}

/// Packed: one run, step `kk` row `kk` of the A panel, `MR` values side
/// by side.
impl<'a, T: 'a> ATile<'a, T> for &'a [T] {
    type Steps = std::slice::Iter<'a, [T; MR]>;
    type Runs = std::iter::Once<(Self::Steps, &'a [[T; NR]])>;

    #[inline(always)]
    fn step_runs(self, kc: usize, _: usize, bp: &'a [T]) -> Self::Runs {
        std::iter::once((rows::<_, MR>(self, kc).iter(), rows(bp, kc)))
    }
}

/// Panel rows: tile row `i` is the pack's row `row0 + i`, so step
/// `kk`'s values lie `NR` apart, one run per panel ([`RowRuns`]). A dead
/// row reads the last live row, never past the pack's `depth` rows.
impl<'a, T: Copy + 'a> ATile<'a, T> for &'a PanelRows<'a, T> {
    type Steps = RowSteps<'a, T>;
    type Runs = RowRuns<'a, T>;

    #[inline(always)]
    fn step_runs(self, kc: usize, mr_eff: usize, bp: &'a [T]) -> RowRuns<'a, T> {
        let live = mr_eff.max(1);
        assert!(
            self.row0 + live <= self.depth,
            "tile: rows {}..{} of a {}-row pack",
            self.row0,
            self.row0 + live,
            self.depth
        );
        let PanelRows {
            block,
            depth,
            nc,
            cols,
            col,
            row0,
        } = *self;
        RowRuns {
            block,
            panel: col / NR * depth * NR + row0 * NR,
            stride: depth * NR,
            lane: col % NR,
            nc,
            cols: cols - col,
            in_block: nc.min(cols) - col,
            live,
            b_rows: rows(bp, kc),
            steps: kc,
        }
    }
}

/// The runs of a [`PanelRows`] tile: its `steps` left, each the rest
/// of one panel's live columns (cut at the k-block's end) with as many
/// B rows. A run moves to the next panel, and the last panel of an `nc`
/// block (ragged when `NR` does not divide `nc`) to the next block's
/// first: every panel of the pack lies `stride` values after the one
/// before, so a run's setup divides nothing.
pub(crate) struct RowRuns<'a, T> {
    /// The pack's panels from the `nc` block of step 0 on.
    block: &'a [T],
    /// Where the tile's first row of the current panel starts in
    /// `block`, and the values in one panel.
    panel: usize,
    stride: usize,
    /// The run's first lane in the panel.
    lane: usize,
    /// The block width, the pack's columns from the current one on, and
    /// the current block's.
    nc: usize,
    cols: usize,
    in_block: usize,
    /// The tile's live rows (at least one).
    live: usize,
    b_rows: &'a [[T; NR]],
    steps: usize,
}

impl<'a, T> Iterator for RowRuns<'a, T> {
    type Item = (RowSteps<'a, T>, &'a [[T; NR]]);

    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        if self.steps == 0 {
            return None;
        }
        let lane = self.lane;
        let len = (NR - lane).min(self.in_block).min(self.steps);
        let (b_run, rest) = self.b_rows.split_at(len);
        // The tile's live rows of the panel, whole: a lane past the run
        // is never read, and a dead row reads the last live one.
        let live = rows::<_, NR>(&self.block[self.panel..], self.live);
        let tile_rows: [&[T; NR]; MR] = std::array::from_fn(|i| &live[i.min(self.live - 1)]);
        let steps = RowSteps {
            rows: tile_rows.map(|row| &row[lane..lane + len]),
            len,
            t: 0,
        };
        self.b_rows = rest;
        self.steps -= len;
        self.cols -= len;
        self.in_block -= len;
        self.lane += len;
        if self.lane == NR || self.in_block == 0 {
            self.panel += self.stride;
            self.lane = 0;
        }
        if self.in_block == 0 {
            self.in_block = self.nc.min(self.cols);
        }
        Some((steps, b_run))
    }
}

/// The A steps of one run: step `t` reads value `t` of each of the
/// tile's rows of the run, all `len` long, so no index is checked.
pub(crate) struct RowSteps<'a, T> {
    rows: [&'a [T]; MR],
    len: usize,
    t: usize,
}

impl<'a, T> Iterator for RowSteps<'a, T> {
    type Item = [&'a T; MR];

    #[inline(always)]
    fn next(&mut self) -> Option<[&'a T; MR]> {
        if self.t == self.len {
            return None;
        }
        let (rows, t) = (&self.rows, self.t);
        self.t += 1;
        Some(std::array::from_fn(|i| &rows[i][t]))
    }
}

/// Module `$name`: the ops of one (ISA, element type), each a safe
/// `#[inline]` fn compiled by `$enable!`. `$v` holds `$w` lanes of `$t`
/// (`f32` or `f64`); `load` .. `store_masked` are mem module `$mem`'s
/// `_$t` fns; `fma` is written in the ISA's operand order.
macro_rules! ops {
    ($name:ident = $enable:ident($t:tt x $w:literal in $v:ty, $($mem:ident)::+):
     $splat:ident, |$a:ident, $b:ident, $c:ident| $fma:expr, $mul:ident, $add:ident) => {
        mod $name {
            use super::*;
            pub type T = $t;
            pub type V = $v;
            pub const W: usize = $w;
            const _: () = assert!(size_of::<V>() == W * size_of::<T>());
            $crate::gemm::kernel::ops!(@mem $t, super::$($mem)::+);
            $enable! { #[inline] pub fn splat(x: T) -> V { $splat(x) } }
            $enable! { #[inline] pub fn zero() -> V { splat(0.0) } }
            $enable! { #[inline] pub fn fma($a: V, $b: V, $c: V) -> V { $fma } }
            $enable! { #[inline] pub fn mul(a: V, b: V) -> V { $mul(a, b) } }
            $enable! { #[inline] pub fn add(a: V, b: V) -> V { $add(a, b) } }
        }
    };
    (@mem f32, $($mem:ident)::+) => {
        #[allow(unused_imports)] // An ISA need not use every op.
        pub use $($mem)::+::{load_f32 as load, store_f32 as store,
            load_masked_f32 as load_masked, store_masked_f32 as store_masked};
    };
    (@mem f64, $($mem:ident)::+) => {
        #[allow(unused_imports)] // An ISA need not use every op.
        pub use $($mem)::+::{load_f64 as load, store_f64 as store,
            load_masked_f64 as load_masked, store_masked_f64 as store_masked};
    };
}
pub(crate) use ops;

/// Tile kernels `$packed` ([`crate::gemm::backend::TileFn`] after the
/// `$token`) and `$rows` ([`crate::gemm::backend::RowsTileFn`] after
/// it): one body over ops `$o`, compiled by `$enable!`, `$g` column
/// groups a pass, stamped once per [`ATile`] addressing. A pass
/// accumulates its `MR x G·W` block from zero over the whole `kc` loop
/// (each element's `fma` chain is the scalar one), then merges `α·Σ`
/// into C rows sliced to the live columns. Passes and groups wholly
/// past `nr_eff` are skipped. A step is `MR` broadcasts, `G` loads and
/// `MR·G` fused multiply-adds under either addressing.
macro_rules! tile_kernel {
    ($enable:ident fn $packed:ident, $rows:ident($token:ty, $o:ident, G = $g:literal)) => {
        $crate::gemm::kernel::tile_kernel!(@one $enable fn $packed($token, $o, $g, &[$o::T]));
        $crate::gemm::kernel::tile_kernel!(@one $enable fn $rows(
            $token, $o, $g, &$crate::gemm::backend::PanelRows<'_, $o::T>
        ));
    };
    (@one $enable:ident fn $name:ident($token:ty, $o:ident, $g:literal, $a:ty)) => {
        $enable! {
            #[allow(clippy::too_many_arguments)]
            pub fn $name(
                _: $token,
                kc: usize,
                a: $a,
                bp: &[$o::T],
                alpha: $o::T,
                merge: $crate::gemm::backend::Merge<$o::T>,
                c: &mut [$o::T],
                ldc: usize,
                mr_eff: usize,
                nr_eff: usize,
            ) {
                use $crate::gemm::backend::Merge;
                use $crate::gemm::{MR, NR};
                use $o::W;
                const G: usize = $g;
                const { assert!(NR % (G * W) == 0) };
                assert!(
                    mr_eff <= MR && nr_eff <= NR,
                    concat!(stringify!($name), ": tile overrun")
                );
                let va = $o::splat(alpha);
                for p in 0..NR / (G * W) {
                    if p * G * W >= nr_eff {
                        break; // Columns past the edge: no chain to run.
                    }
                    // r[i][h]: row i of group p·G + h.
                    let mut r = [[$o::zero(); G]; MR];
                    for (steps, b_run) in $crate::gemm::kernel::ATile::step_runs(a, kc, mr_eff, bp) {
                        for (a, b) in steps.zip(b_run) {
                            let (groups, _) = b.as_chunks::<W>();
                            let mut bv = [$o::zero(); G];
                            for (h, v) in bv.iter_mut().enumerate() {
                                *v = $o::load(&groups[p * G + h]);
                            }
                            for (ri, &ai) in r.iter_mut().zip(a) {
                                // One rounding per step: the scalar chain's `fma`.
                                let av = $o::splat(ai);
                                for (rh, &bh) in ri.iter_mut().zip(&bv) {
                                    *rh = $o::fma(av, bh, *rh);
                                }
                            }
                        }
                    }
                    for h in 0..G {
                        let g = p * G + h;
                        if g * W >= nr_eff {
                            break; // Columns past the edge: nothing to merge.
                        }
                        let live = (nr_eff - g * W).min(W);
                        for (i, ri) in r.iter().enumerate().take(mr_eff) {
                            let row = &mut c[i * ldc + g * W..][..live];
                            let s = $o::mul(va, ri[h]);
                            let v = match merge {
                                Merge::Overwrite => s,
                                Merge::Scale(beta) => {
                                    $o::add(s, $o::mul($o::splat(beta), $o::load_masked(row)))
                                }
                                Merge::Accumulate => $o::add(s, $o::load_masked(row)),
                            };
                            $o::store_masked(row, v);
                        }
                    }
                }
            }
        }
    };
}
pub(crate) use tile_kernel;

/// Streamed-B^T kernel `$name` ([`crate::gemm::backend::BtFn`] after
/// the `$token`, at `R = MR`) over ops `$o`, compiled by `$enable!`,
/// for an `R`-row A micro-panel. A column's `R` accumulators are
/// `R / W` whole registers, plus one register of the `R % W` tail rows
/// when `W` does not divide `R`, loaded and stored masked (its dead
/// lanes run chains that are never stored). A step is one load per
/// register of the contiguous A column and `BT_COLS` broadcasts
/// feeding `BT_COLS · ⌈R / W⌉` independent chains.
macro_rules! bt_kernel {
    ($enable:ident fn $name:ident($token:ty, $o:ident, R = $r:expr)) => {
        $enable! {
            pub fn $name(
                _: $token,
                kc: usize,
                ap: &[$o::T],
                b: [&[$o::T]; $crate::gemm::BT_COLS],
                acc: &mut [[$o::T; $r]; $crate::gemm::BT_COLS],
            ) {
                use $crate::gemm::BT_COLS;
                use $o::W;
                const R: usize = $r;
                // Whole registers, then the masked tail's (none or one).
                const Q: usize = R / W;
                const G: usize = R.div_ceil(W);
                let [b0, b1, b2, b3] = b;
                let (b0, b1, b2, b3) = (&b0[..kc], &b1[..kc], &b2[..kc], &b3[..kc]);
                let a_rows = $crate::gemm::kernel::rows::<_, R>(ap, kc).iter();
                let steps = a_rows.zip(b0).zip(b1).zip(b2).zip(b3);
                // r[c][q]: lanes q·W.. of column c.
                let mut r = [[$o::zero(); G]; BT_COLS];
                for (rc, col) in r.iter_mut().zip(acc.iter()) {
                    let (whole, tail) = col.as_chunks::<W>();
                    for (rq, q) in rc.iter_mut().zip(whole) {
                        *rq = $o::load(q);
                    }
                    for rq in &mut rc[Q..] {
                        *rq = $o::load_masked(tail);
                    }
                }
                for ((((a, &x0), &x1), &x2), &x3) in steps {
                    let (whole, tail) = a.as_chunks::<W>();
                    let mut av = [$o::zero(); G];
                    for (v, q) in av.iter_mut().zip(whole) {
                        *v = $o::load(q);
                    }
                    for v in &mut av[Q..] {
                        *v = $o::load_masked(tail);
                    }
                    for (rc, x) in r.iter_mut().zip([x0, x1, x2, x3]) {
                        let xv = $o::splat(x);
                        for (rq, &aq) in rc.iter_mut().zip(&av) {
                            *rq = $o::fma(aq, xv, *rq);
                        }
                    }
                }
                for (col, rc) in acc.iter_mut().zip(&r) {
                    let (whole, tail) = col.as_chunks_mut::<W>();
                    for (q, &rq) in whole.iter_mut().zip(rc) {
                        $o::store(q, rq);
                    }
                    for &rq in &rc[Q..] {
                        $o::store_masked(tail, rq);
                    }
                }
            }
        }
    };
}
pub(crate) use bt_kernel;

#[cfg(test)]
mod tests {
    //! The two bodies over emulated registers (`V = [T; W]`, one
    //! [`Scalar::fma`] per lane), at every (T, W, G) a real kernel
    //! table uses: NEON's 4 f32 / 2 f64 lanes, AVX2's 8 / 4 and
    //! AVX-512's 16 / 8 (both AVX-512 f32 groups in one pass). So every
    //! width's group loop, register count and edge masks run on any
    //! host, bit for bit against [`scalar`]. The real ISAs' ops are
    //! covered only where the host has the ISA (`backend_parity`,
    //! `kernel_fuzz`).

    use super::scalar;
    use crate::gemm::backend::{Merge, PanelRows};
    use crate::gemm::{BT_COLS, MR, NR};
    use crate::scalar::Scalar;

    /// Ops module `$name` over `$w` emulated lanes of `$t`.
    macro_rules! emulated_ops {
        ($name:ident, $t:ty, $w:literal) => {
            #[allow(dead_code)] // 16 f32 lanes have no B^T kernel.
            mod $name {
                use crate::scalar::Scalar;
                pub type T = $t;
                pub const W: usize = $w;
                pub type V = [T; W];
                pub fn splat(x: T) -> V {
                    [x; W]
                }
                pub fn zero() -> V {
                    [0.0; W]
                }
                pub fn fma(a: V, b: V, c: V) -> V {
                    std::array::from_fn(|l| a[l].fma(b[l], c[l]))
                }
                pub fn mul(a: V, b: V) -> V {
                    std::array::from_fn(|l| a[l] * b[l])
                }
                pub fn add(a: V, b: V) -> V {
                    std::array::from_fn(|l| a[l] + b[l])
                }
                pub fn load(src: &[T; W]) -> V {
                    *src
                }
                pub fn store(dst: &mut [T; W], v: V) {
                    *dst = v;
                }
                pub fn load_masked(src: &[T]) -> V {
                    let mut v = zero();
                    let live = src.len().min(W);
                    v[..live].copy_from_slice(&src[..live]);
                    v
                }
                pub fn store_masked(dst: &mut [T], v: V) {
                    let live = dst.len().min(W);
                    dst[..live].copy_from_slice(&v[..live]);
                }
            }
        };
    }

    /// The enable macro of the emulated ISA: no features.
    macro_rules! emulated {
        ($item:item) => {
            $item
        };
    }

    emulated_ops!(f32x4, f32, 4);
    emulated_ops!(f32x8, f32, 8);
    emulated_ops!(f32x16, f32, 16);
    emulated_ops!(f64x2, f64, 2);
    emulated_ops!(f64x4, f64, 4);
    emulated_ops!(f64x8, f64, 8);

    tile_kernel!(emulated fn tile_f32x4, tile_rows_f32x4((), f32x4, G = 1));
    tile_kernel!(emulated fn tile_f32x8, tile_rows_f32x8((), f32x8, G = 1));
    tile_kernel!(emulated fn tile_f32x16, tile_rows_f32x16((), f32x16, G = 2));
    tile_kernel!(emulated fn tile_f64x2, tile_rows_f64x2((), f64x2, G = 1));
    tile_kernel!(emulated fn tile_f64x4, tile_rows_f64x4((), f64x4, G = 1));
    tile_kernel!(emulated fn tile_f64x8, tile_rows_f64x8((), f64x8, G = 1));

    /// The B^T body over lanes `$o` at `MR` and at 12 and 14 rows, the
    /// two taller tiles a table might take; 12 and 14 leave a tail
    /// register at every width but 2 and 4 (and 14 at 4 too).
    macro_rules! bt_at_every_height {
        ($o:ident: $mr:ident, $r12:ident, $r14:ident) => {
            bt_kernel!(emulated fn $mr((), $o, R = MR));
            bt_kernel!(emulated fn $r12((), $o, R = 12));
            bt_kernel!(emulated fn $r14((), $o, R = 14));
        };
    }
    bt_at_every_height!(f32x4: bt_f32x4, bt12_f32x4, bt14_f32x4);
    bt_at_every_height!(f32x8: bt_f32x8, bt12_f32x8, bt14_f32x8);
    bt_at_every_height!(f64x2: bt_f64x2, bt12_f64x2, bt14_f64x2);
    bt_at_every_height!(f64x4: bt_f64x4, bt12_f64x4, bt14_f64x4);
    bt_at_every_height!(f64x8: bt_f64x8, bt12_f64x8, bt14_f64x8);

    type Tile<T> = fn((), usize, &[T], &[T], T, Merge<T>, &mut [T], usize, usize, usize);
    type RowsTile<T> =
        fn((), usize, &PanelRows<'_, T>, &[T], T, Merge<T>, &mut [T], usize, usize, usize);
    type Bt<T, const R: usize> = fn((), usize, &[T], [&[T]; BT_COLS], &mut [[T; R]; BT_COLS]);

    /// Non-round values, so a reassociated or unfused step shows in the
    /// low bits.
    fn values<T: Scalar>(n: usize, f: impl Fn(f64) -> f64) -> Vec<T> {
        (0..n).map(|i| T::from_f64(f(i as f64))).collect()
    }

    /// Every merge mode, at every `nr_eff` (so every group edge of every
    /// width) and a full, a ragged and a one-row `mr_eff`, in a C wider
    /// than the tile, against the scalar reference.
    fn tile_matches_scalar<T: Scalar>(tile: Tile<T>) {
        let ldc = NR + 3;
        let c0: Vec<T> = values(MR * ldc, |x| x * 0.37 - 5.0);
        for kc in [0, 1, 3, 17] {
            let ap: Vec<T> = values(kc.max(1) * MR, |x| x.sin() * 3.7);
            let bp: Vec<T> = values(kc * NR, |x| x.cos() * 1.3 - 0.4);
            let alpha = T::from_f64(-1.5);
            for merge in [
                Merge::Overwrite,
                Merge::Scale(T::from_f64(0.5)),
                Merge::Accumulate,
            ] {
                for mr_eff in [MR, MR - 3, 1] {
                    for nr_eff in 0..=NR {
                        let (mut got, mut want) = (c0.clone(), c0.clone());
                        tile(
                            (),
                            kc,
                            &ap,
                            &bp,
                            alpha,
                            merge,
                            &mut got,
                            ldc,
                            mr_eff,
                            nr_eff,
                        );
                        scalar::tile(kc, &ap, &bp, alpha, merge, &mut want, ldc, mr_eff, nr_eff);
                        assert!(got == want, "tile kc={kc} {merge:?} {mr_eff}x{nr_eff}");
                    }
                }
            }
        }
    }

    /// The B^T body at `R` rows against the scalar reference, from
    /// non-zero accumulators.
    fn bt_matches_scalar<T: Scalar, const R: usize>(bt: Bt<T, R>) {
        for kc in [0, 1, 3, 17] {
            let ap: Vec<T> = values(kc.max(1) * R, |x| x.sin() * 3.7);
            let rows: Vec<Vec<T>> = (0..BT_COLS)
                .map(|c| values(kc, |x| ((x + 7.0 * c as f64) * 0.9).tan()))
                .collect();
            let b: [&[T]; BT_COLS] = std::array::from_fn(|c| rows[c].as_slice());
            let mut got: [[T; R]; BT_COLS] =
                std::array::from_fn(|c| std::array::from_fn(|i| T::from_f64((c * R + i) as f64)));
            let mut want = got;
            bt((), kc, &ap, b, &mut got);
            scalar::bt(kc, &ap, b, &mut want);
            assert!(got == want, "bt R={R} kc={kc}");
        }
    }

    /// The panel-row addressing against the packed one: a tile read in
    /// place from the rows of a `PackedB` merges into C bit for bit as
    /// the scalar tile over the same values packed, at every lane width,
    /// for runs that start off a panel edge (`kk0 % NR != 0`) or cross
    /// an `nc` block (`nc = 33`), ragged tiles (`mr_eff < MR`, whose
    /// dead rows read the last live row of the pack) and one-step runs.
    fn rows_tile_matches_packed<T: Scalar>(tile: RowsTile<T>) {
        use crate::gemm::{Blocking, PackedB, Trans};
        use crate::matrix::Matrix;
        let ldc = NR + 3;
        let c0: Vec<T> = values(MR * ldc, |x| x * 0.37 - 5.0);
        let (depth, n) = (2 * MR + 3, 75);
        let x = Matrix::from_fn(depth, n, |r, c| {
            T::from_f64(((r * n + c) as f64).sin() * 3.7)
        });
        for nc in [33, 40, 1024] {
            let blocking = Blocking {
                mc: 16,
                kc: depth,
                nc,
            };
            let pack = PackedB::new(&x, Trans::N, blocking);
            for (kk0, kc) in [(0, 75), (7, 40), (30, 1), (31, 3), (33, 42), (64, 11)] {
                let bp: Vec<T> = values(kc * NR, |v| v.cos() * 1.3 - 0.4);
                for (row0, mr_eff) in [(0, MR), (MR, MR), (2 * MR, 3), (depth - 1, 1)] {
                    // The same values packed, dead rows repeating the
                    // last live one.
                    let ap: Vec<T> = (0..kc * MR)
                        .map(|at| x[(row0 + (at % MR).min(mr_eff - 1), kk0 + at / MR)])
                        .collect();
                    let a = PanelRows {
                        row0,
                        ..pack.panel_rows(kk0)
                    };
                    for merge in [Merge::Overwrite, Merge::Accumulate] {
                        for nr_eff in [NR, NR - 5, 1] {
                            let (mut got, mut want, mut reference) =
                                (c0.clone(), c0.clone(), c0.clone());
                            let alpha = T::from_f64(-1.5);
                            tile((), kc, &a, &bp, alpha, merge, &mut got, ldc, mr_eff, nr_eff);
                            scalar::tile(
                                kc, &ap, &bp, alpha, merge, &mut want, ldc, mr_eff, nr_eff,
                            );
                            scalar::tile_rows(
                                kc,
                                &a,
                                &bp,
                                alpha,
                                merge,
                                &mut reference,
                                ldc,
                                mr_eff,
                                nr_eff,
                            );
                            let at = format!(
                                "nc={nc} kk0={kk0} kc={kc} row0={row0} {mr_eff}x{nr_eff} {merge:?}"
                            );
                            assert!(got == want, "rows tile {at}");
                            assert!(reference == want, "scalar rows tile {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_width_reads_panel_rows_bitwise_as_packed() {
        rows_tile_matches_packed::<f32>(tile_rows_f32x4);
        rows_tile_matches_packed::<f32>(tile_rows_f32x8);
        rows_tile_matches_packed::<f32>(tile_rows_f32x16);
        rows_tile_matches_packed::<f64>(tile_rows_f64x2);
        rows_tile_matches_packed::<f64>(tile_rows_f64x4);
        rows_tile_matches_packed::<f64>(tile_rows_f64x8);
    }

    /// A tile whose rows run past the pack panics instead of reading
    /// the next panel.
    #[test]
    #[should_panic(expected = "of a 9-row pack")]
    fn rows_tile_rejects_rows_past_the_pack() {
        use crate::gemm::{Blocking, PackedB, Trans};
        use crate::matrix::Matrix;
        let x: Matrix<f32> = Matrix::zeros(9, 40);
        let pack = PackedB::new(&x, Trans::N, Blocking::default());
        let a = PanelRows {
            row0: 8,
            ..pack.panel_rows(0)
        };
        let mut c = vec![0.0f32; MR * NR];
        scalar::tile_rows(
            4,
            &a,
            &[0.0; 4 * NR],
            1.0,
            Merge::Overwrite,
            &mut c,
            NR,
            2,
            NR,
        );
    }

    #[test]
    fn every_width_of_both_bodies_bitwise_matches_scalar() {
        tile_matches_scalar::<f32>(tile_f32x4);
        tile_matches_scalar::<f32>(tile_f32x8);
        tile_matches_scalar::<f32>(tile_f32x16);
        tile_matches_scalar::<f64>(tile_f64x2);
        tile_matches_scalar::<f64>(tile_f64x4);
        tile_matches_scalar::<f64>(tile_f64x8);
        // No table has a 16-lane f32 B^T kernel.
        bt_matches_scalar::<f32, MR>(bt_f32x4);
        bt_matches_scalar::<f32, MR>(bt_f32x8);
        bt_matches_scalar::<f64, MR>(bt_f64x2);
        bt_matches_scalar::<f64, MR>(bt_f64x4);
        bt_matches_scalar::<f64, MR>(bt_f64x8);
    }

    /// A B^T tile taller than `MR`, or not a multiple of the lane
    /// count, runs its masked tail register bit for bit like the
    /// scalar chains.
    #[test]
    fn bt_body_takes_any_row_count() {
        bt_matches_scalar::<f32, 12>(bt12_f32x4);
        bt_matches_scalar::<f32, 14>(bt14_f32x4);
        bt_matches_scalar::<f32, 12>(bt12_f32x8);
        bt_matches_scalar::<f32, 14>(bt14_f32x8);
        bt_matches_scalar::<f64, 12>(bt12_f64x2);
        bt_matches_scalar::<f64, 14>(bt14_f64x2);
        bt_matches_scalar::<f64, 12>(bt12_f64x4);
        bt_matches_scalar::<f64, 14>(bt14_f64x4);
        bt_matches_scalar::<f64, 12>(bt12_f64x8);
        bt_matches_scalar::<f64, 14>(bt14_f64x8);
    }
}
