//! The ISA tokens and the kernel tables: the `unsafe` of the dispatch.
//!
//! Every SIMD kernel under [`kernel`] is a safe `#[target_feature]` fn
//! over slices: its intrinsics need no `unsafe`, and an out-of-bounds
//! index panics. What stays unsafe is calling such a fn from code
//! compiled without those features, so each kernel takes, as its
//! first argument, a zero-sized token ([`Avx2`], [`Avx512`], [`Fma`],
//! `Neon`) that proves the running CPU has them. The tokens live in a
//! private `token` submodule, so their field is private even to the
//! tables below: the only safe constructor is a token's `detect`,
//! which probes the CPU, and writing `Avx2(())` here does not compile.
//!
//! One list of features per token, in its `isa_token!` line, drives
//! both sides: `detect` probes exactly those features, and the token's
//! enable macro (`fma_kernel!`, `avx2_kernel!`, `avx512_kernel!`,
//! `neon_kernel!`) compiles each kernel that takes the token with
//! exactly those features enabled. A kernel cannot enable a feature its
//! token's `detect` skips. The `mem` modules' loads and stores take no
//! token and name their features themselves; a kernel that calls one
//! needing a feature it lacks would need `unsafe`, which lint rule
//! `l7-unsafe-outside-kernel` rejects in kernel files.
//!
//! Each ISA's kernel table is built by a fn of this module that takes
//! that ISA's token, and the table's entries are fns nested in that
//! constructor: nothing else can name them, and the constructor runs
//! only with a token its `detect` made. Each entry makes the one
//! `unsafe` call into its kernel (one per kernel entry; the
//! element-wise and codec instantiations are built the same way),
//! re-making the token it was built under with the token's one
//! `unsafe fn remake`, so the table that holds an entry's fn pointer is
//! the proof that the CPU can run it. With the per-ISA `mem` modules
//! these are the only `unsafe` of the kernels (l7). No kernel call
//! probes the CPU again.

use std::sync::OnceLock;

use super::backend::{AccFn, BtFn, ComputeBackend, Isa, Merge, TileFn};
use super::kernel;
use super::{BT_COLS, MR, NR};
use crate::codec::{CodecFn, CodecPass};
use crate::scalar::Scalar;
use crate::vmath::{RowOp, RowOpFn};

pub use token::*;

/// The ISA tokens, apart from the tables so that their field is private
/// to the tokens' own code.
mod token {
    /// Define ISA token `$token` from the features `$feature` its
    /// kernels may assume: the token, its `detect` (probing each
    /// feature with `$probe!`) and `remake`, and `$enable!`, which
    /// compiles one item with each feature enabled.
    macro_rules! isa_token {
        ($(#[$doc:meta])* $token:ident, $enable:ident, $probe:ident, [$($feature:tt),+]) => {
            $(#[$doc])*
            #[derive(Clone, Copy, Debug)]
            pub struct $token(());

            impl $token {
                /// The token, if the running CPU has every feature of
                /// the kernels that take it.
                pub fn detect() -> Option<$token> {
                    ($($probe!($feature))&&+).then_some($token(()))
                }

                /// The token again, for a table entry to call its
                /// kernel with.
                ///
                /// # Safety
                /// The running CPU has the token's features: the caller
                /// is an entry of a table built from a detected token.
                pub(in crate::gemm::dispatch) unsafe fn remake() -> $token {
                    $token(())
                }
            }

            /// Compile one kernel that takes the token with its
            /// features.
            macro_rules! $enable {
                ($item:item) => {
                    $(#[target_feature(enable = $feature)])+
                    $item
                };
            }
            pub(crate) use $enable;
        };
    }

    #[cfg(target_arch = "x86_64")]
    isa_token! {
        /// Proof that the running CPU has FMA, the one feature of the
        /// FMA-enabled reference loops
        /// (`crate::gemm::kernel::scalar::tile_fma`, the `fma`
        /// element-wise pass). Only [`Fma::detect`] makes one.
        Fma, fma_kernel, is_x86_feature_detected, ["fma"]
    }

    #[cfg(target_arch = "x86_64")]
    isa_token! {
        /// Proof that the running CPU has AVX2 and FMA, the features of
        /// the AVX2 kernels of `crate::gemm::kernel::x86`. Only
        /// [`Avx2::detect`] makes one.
        Avx2, avx2_kernel, is_x86_feature_detected, ["avx2", "fma"]
    }

    #[cfg(target_arch = "x86_64")]
    isa_token! {
        /// Proof that the running CPU has AVX-512F, AVX2 and FMA, the
        /// features of the AVX-512 kernels; a superset of [`Avx2`]'s,
        /// so the AVX-512 table may also run the AVX2 f32 B^T kernel.
        /// Only [`Avx512::detect`] makes one.
        Avx512, avx512_kernel, is_x86_feature_detected, ["avx512f", "avx2", "fma"]
    }

    #[cfg(target_arch = "aarch64")]
    isa_token! {
        /// Proof that the CPU has NEON, which is baseline on aarch64.
        /// Only `Neon::detect` makes one.
        Neon, neon_kernel, is_aarch64_feature_detected, ["neon"]
    }
}

// The entries of a kernel table are fns nested in the constructor that
// takes the ISA's token (`Kernels::avx2(_: Avx2)`, ...), so nothing
// outside that constructor can name them, and the constructor runs only
// with a token its `detect` made. Each entry makes the one `unsafe`
// call into its `#[target_feature]` kernel, re-making the token it was
// built under (`remake`): the table that holds the fn pointer is the
// proof.

/// The [`TileFn`] entry of tile kernel `$kernel` for element type `$t`,
/// under ISA token type `$isa`.
macro_rules! tile_entry {
    ($t:ty, $isa:ident, $kernel:path) => {{
        #[allow(clippy::too_many_arguments)]
        fn entry(
            kc: usize,
            ap: &[$t],
            bp: &[$t],
            alpha: $t,
            merge: Merge<$t>,
            c: &mut [$t],
            ldc: usize,
            mr_eff: usize,
            nr_eff: usize,
        ) {
            // SAFETY: nameable only in the constructor that got a detected
            // `$isa` token (see above), so the CPU has its features.
            unsafe {
                let isa = $isa::remake();
                $kernel(isa, kc, ap, bp, alpha, merge, c, ldc, mr_eff, nr_eff)
            }
        }
        entry as TileFn<$t>
    }};
}

/// The [`AccFn`] entry of f32 tile kernel `$kernel` under `$isa`: the
/// whole tile in overwrite mode, `acc` standing in for C.
macro_rules! acc_entry {
    ($isa:ident, $kernel:path) => {{
        fn entry(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
            let c = acc.as_flattened_mut();
            // SAFETY: as in `tile_entry!`.
            unsafe {
                let isa = $isa::remake();
                $kernel(isa, kc, ap, bp, 1.0, Merge::Overwrite, c, NR, MR, NR)
            }
        }
        entry as AccFn<f32>
    }};
}

/// The [`BtFn`] entry of streaming-B^T kernel `$kernel` under `$isa`.
macro_rules! bt_entry {
    ($t:ty, $isa:ident, $kernel:path) => {{
        fn entry(kc: usize, ap: &[$t], b: [&[$t]; BT_COLS], acc: &mut [[$t; MR]; BT_COLS]) {
            // SAFETY: as in `tile_entry!`.
            unsafe { $kernel($isa::remake(), kc, ap, b, acc) }
        }
        entry as BtFn<$t>
    }};
}

/// The kernel table of one ISA, built from its token by detection.
pub(crate) struct Kernels {
    isa: Isa,
    tile_f32: TileFn<f32>,
    tile_f64: TileFn<f64>,
    acc_f32: AccFn<f32>,
    bt_f32: BtFn<f32>,
    bt_f64: BtFn<f64>,
}

impl Kernels {
    /// The portable reference loops (libm `fma` on an SSE2 baseline).
    fn portable() -> Kernels {
        use kernel::scalar::{acc, bt, tile};
        Kernels {
            isa: Isa::Scalar,
            tile_f32: tile::<f32>,
            tile_f64: tile::<f64>,
            acc_f32: acc::<f32>,
            bt_f32: bt::<f32, MR>,
            bt_f64: bt::<f64, MR>,
        }
    }

    /// The reference loops compiled with the FMA instruction.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn scalar_fma(_: Fma) -> Kernels {
        use kernel::scalar::{bt_fma, tile_fma};
        Kernels {
            isa: Isa::Scalar,
            tile_f32: tile_entry!(f32, Fma, tile_fma::<f32>),
            tile_f64: tile_entry!(f64, Fma, tile_fma::<f64>),
            acc_f32: acc_entry!(Fma, tile_fma::<f32>),
            bt_f32: bt_entry!(f32, Fma, bt_fma::<f32>),
            bt_f64: bt_entry!(f64, Fma, bt_fma::<f64>),
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn avx2(_: Avx2) -> Kernels {
        use kernel::x86::*;
        Kernels {
            isa: Isa::Avx2,
            tile_f32: tile_entry!(f32, Avx2, tile_f32_avx2),
            tile_f64: tile_entry!(f64, Avx2, tile_f64_avx2),
            acc_f32: acc_entry!(Avx2, tile_f32_avx2),
            bt_f32: bt_entry!(f32, Avx2, bt_f32_avx2),
            bt_f64: bt_entry!(f64, Avx2, bt_f64_avx2),
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn avx512(_: Avx512) -> Kernels {
        use kernel::x86::*;
        Kernels {
            isa: Isa::Avx512,
            tile_f32: tile_entry!(f32, Avx512, tile_f32_avx512),
            tile_f64: tile_entry!(f64, Avx512, tile_f64_avx512),
            acc_f32: acc_entry!(Avx512, tile_f32_avx512),
            // One ymm covers the MR=8 accumulators of a column; the
            // AVX2 kernel is already the right shape (and chain). An
            // `Avx512` token implies the `Avx2` one.
            bt_f32: bt_entry!(f32, Avx2, bt_f32_avx2),
            bt_f64: bt_entry!(f64, Avx512, bt_f64_avx512),
        }
    }

    #[cfg(target_arch = "aarch64")]
    fn neon(_: Neon) -> Kernels {
        use kernel::neon::*;
        Kernels {
            isa: Isa::Neon,
            tile_f32: tile_entry!(f32, Neon, tile_f32_neon),
            tile_f64: tile_entry!(f64, Neon, tile_f64_neon),
            acc_f32: acc_entry!(Neon, tile_f32_neon),
            bt_f32: bt_entry!(f32, Neon, bt_f32_neon),
            bt_f64: bt_entry!(f64, Neon, bt_f64_neon),
        }
    }
}

impl std::fmt::Debug for Kernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernels({})", self.isa)
    }
}

impl ComputeBackend for Kernels {
    fn isa(&self) -> Isa {
        self.isa
    }
    fn tile_f32(&self) -> TileFn<f32> {
        self.tile_f32
    }
    fn tile_f64(&self) -> TileFn<f64> {
        self.tile_f64
    }
    fn acc_f32(&self) -> AccFn<f32> {
        self.acc_f32
    }
    fn bt_f32(&self) -> BtFn<f32> {
        self.bt_f32
    }
    fn bt_f64(&self) -> BtFn<f64> {
        self.bt_f64
    }
}

/// The kernel table of every ISA the running machine has, scalar
/// first, detected once per process.
pub(crate) fn detected() -> &'static [Kernels] {
    static ALL: OnceLock<Vec<Kernels>> = OnceLock::new();
    ALL.get_or_init(|| {
        #[allow(unused_mut)] // only the portable table off x86_64/aarch64
        let mut all = vec![Kernels::portable()];
        #[cfg(target_arch = "x86_64")]
        {
            if let Some(t) = Fma::detect() {
                all[0] = Kernels::scalar_fma(t);
            }
            all.extend(Avx2::detect().map(Kernels::avx2));
            all.extend(Avx512::detect().map(Kernels::avx512));
        }
        #[cfg(target_arch = "aarch64")]
        all.extend(Neon::detect().map(Kernels::neon));
        all
    })
}

/// Every instantiation of the element-wise row kernel the running CPU
/// can execute, portable first, each named after its features (see
/// [`crate::vmath::instantiations`]).
pub(crate) fn row_op_instantiations<T: Scalar>() -> Vec<(&'static str, RowOpFn<T>)> {
    #[allow(unused_mut)] // only the portable loop off x86_64
    let mut out: Vec<(&'static str, RowOpFn<T>)> =
        vec![("portable", kernel::elementwise::row_op::<T>)];
    #[cfg(target_arch = "x86_64")]
    {
        out.extend(Fma::detect().map(|t| ("fma", x86_entries::row_op_fma(t))));
        out.extend(Avx2::detect().map(|t| ("avx2", x86_entries::row_op_avx2(t))));
        out.extend(Avx512::detect().map(|t| ("avx512", x86_entries::row_op_avx512(t))));
    }
    out
}

/// Every instantiation of the wire-codec pass the running CPU can
/// execute, portable first (see [`crate::codec::instantiations`]).
pub(crate) fn codec_instantiations() -> Vec<(&'static str, CodecFn)> {
    #[allow(unused_mut)] // only the portable loop off x86_64
    let mut out: Vec<(&'static str, CodecFn)> =
        vec![("portable", kernel::codec::codec_pass as CodecFn)];
    #[cfg(target_arch = "x86_64")]
    {
        out.extend(Avx2::detect().map(|t| ("avx2", x86_entries::codec_avx2(t))));
        out.extend(Avx512::detect().map(|t| ("avx512", x86_entries::codec_avx512(t))));
    }
    out
}

/// The element-wise and codec entries of the x86 instantiations, each
/// nested in a constructor that takes its token, like the tables'.
#[cfg(target_arch = "x86_64")]
mod x86_entries {
    use super::*;
    use kernel::{codec, elementwise};

    /// A [`RowOpFn`] entry calling `$kernel` under `$isa`.
    macro_rules! row_op_entry {
        ($isa:ident, $kernel:path) => {{
            fn entry<U: Scalar>(op: RowOp, row: &mut [U], bias: &[U]) {
                // SAFETY: as in `tile_entry!`.
                unsafe { $kernel($isa::remake(), op, row, bias) }
            }
            entry::<T> as RowOpFn<T>
        }};
    }

    /// A [`CodecFn`] entry calling `$kernel` under `$isa`.
    macro_rules! codec_entry {
        ($isa:ident, $kernel:path) => {{
            fn entry(pass: CodecPass<'_>) {
                // SAFETY: as in `tile_entry!`.
                unsafe { $kernel($isa::remake(), pass) }
            }
            entry as CodecFn
        }};
    }

    pub(super) fn row_op_fma<T: Scalar>(_: Fma) -> RowOpFn<T> {
        row_op_entry!(Fma, elementwise::row_op_fma)
    }

    pub(super) fn row_op_avx2<T: Scalar>(_: Avx2) -> RowOpFn<T> {
        row_op_entry!(Avx2, elementwise::row_op_avx2)
    }

    pub(super) fn row_op_avx512<T: Scalar>(_: Avx512) -> RowOpFn<T> {
        row_op_entry!(Avx512, elementwise::row_op_avx512)
    }

    pub(super) fn codec_avx2(_: Avx2) -> CodecFn {
        codec_entry!(Avx2, codec::codec_pass_avx2)
    }

    pub(super) fn codec_avx512(_: Avx512) -> CodecFn {
        codec_entry!(Avx512, codec::codec_pass_avx512)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_reference_runs_the_fma_instantiation_where_the_cpu_has_fma() {
        // The portable instantiation compiles each fused multiply-add
        // to a libm `fma` call on the x86-64 baseline, ~60x slower, and
        // agrees bitwise, so only the kernel pointers can tell the two
        // apart. Each entry of the FMA table is one nested fn item, so
        // every build of that table holds the same five pointers.
        #[cfg(target_arch = "x86_64")]
        if let Some(t) = Fma::detect() {
            let (s, fma, portable) = (
                crate::gemm::scalar_backend(),
                Kernels::scalar_fma(t),
                Kernels::portable(),
            );
            macro_rules! check {
                ($($entry:ident),*) => {$(
                    let name = stringify!($entry);
                    assert!(std::ptr::fn_addr_eq(s.$entry(), fma.$entry), "{name}: not the FMA table's");
                    assert!(!std::ptr::fn_addr_eq(fma.$entry, portable.$entry), "{name}: the FMA table runs the portable loop");
                )*};
            }
            check!(tile_f32, tile_f64, acc_f32, bt_f32, bt_f64);
        }
    }
}
