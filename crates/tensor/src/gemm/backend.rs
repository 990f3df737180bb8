//! The compute-backend seam: runtime-dispatched microkernels.
//!
//! The paper's single-node speed comes from a hand-scheduled QPX
//! microkernel (Section V.A.2). Portable Rust reaches part of that via
//! autovectorization, but the baseline `x86-64` target only licenses
//! SSE2 — half (AVX2) or a quarter (AVX-512) of the register width the
//! host actually has. A [`ComputeBackend`] closes that gap: it hands
//! the blocked drivers explicit `std::arch` kernels selected *at
//! runtime* from the detected ISA, so one portable binary runs the
//! fastest kernel the machine supports — the same role the QPX kernel
//! played for BG/Q, behind a seam that later admits other devices.
//!
//! ## The bit-exactness contract
//!
//! Every backend must produce **bit-identical** results to
//! [`ScalarBackend`] for the same logical GEMM. Two properties make
//! that possible:
//!
//! 1. The blocked drivers accumulate each C element along a single
//!    dependency chain — `kk` ascending within a k-block, k-blocks
//!    merged in order — and the chain of one element never mixes with
//!    another's. A backend may therefore vectorize *across* elements
//!    (the `j` lanes of a micro-tile row) freely, as long as each lane
//!    performs the same scalar operations in the same order.
//! 2. Every step of a chain is **one fused multiply-add**,
//!    [`crate::scalar::Scalar::fma`]: `a * b + acc` with a single
//!    rounding. IEEE 754 fusedMultiplyAdd is exactly rounded, so
//!    `vfmadd`, FMLA, `f32::mul_add` and libm's `fmaf` all return the
//!    same bits; a kernel that multiplies and then adds (two
//!    roundings) does not, and fails the fusion-witness tests.
//!
//! Only the chains fuse. The merge of a finished tile into C and
//! everything in `blas1`/`matrix` use the unfused
//! [`crate::scalar::Scalar::mul_add`]: that code is shared by all
//! backends (identical by construction), and compiled for a baseline
//! without FMA a fused form would be a libm call per element.
//!
//! The contract is what keeps the determinism gates (byte-identical
//! telemetry, the protocheck race detector, bitwise trained weights)
//! valid under every backend, and it is enforced by the parity tests
//! in `tests/backend_parity.rs`.
//!
//! ## Selection
//!
//! [`BackendConfig`] is a validating builder mirroring `HfConfig`:
//! `auto()` detection, forced selection, and a `PDNN_BACKEND`
//! environment override (`scalar | avx2 | avx512 | neon | auto`).
//! [`default_backend`] resolves once per process and is what
//! [`super::GemmContext`] constructors embed; tests that compare
//! backends in-process use [`super::GemmContext::with_backend`].
//!
//! The scalar backend additionally chooses, from CPUID and nothing
//! else, between two instantiations of the same reference loops (see
//! [`kernel::scalar`]): on an x86_64 CPU with FMA the one compiled
//! with the instruction enabled, otherwise the portable one. They
//! agree bitwise; the choice only keeps the reference off libm.

use std::sync::OnceLock;

use super::kernel;
use super::{BT_COLS, MR, NR};

/// Packed-panel accumulate kernel: add the `kc`-deep product of one
/// `MR`-row A micro-panel (`kk`-major, first `kc * MR` elements of
/// `ap`) and one `NR`-column B micro-panel (first `kc * NR` elements
/// of `bp`) into `acc`.
///
/// Contract: `acc[i][j] += sum_kk ap(kk, i) * bp(kk, j)`, evaluated
/// per element as a fused multiply-add chain with `kk` ascending —
/// the exact chain [`kernel::scalar::acc`] runs.
pub type AccFn<T> = fn(kc: usize, ap: &[T], bp: &[T], acc: &mut [[T; NR]; MR]);

/// Streaming-B^T kernel for the `GemmOp::packed_a_bt` driver: add the
/// `kc`-deep products of one A micro-panel with `BT_COLS` contiguous
/// B-row segments (each at least `kc` long; they may coincide) into
/// `BT_COLS` columns of `MR` accumulators.
///
/// Contract: `acc[c][i] += sum_kk ap(kk, i) * b[c][kk]`, per element a
/// fused multiply-add chain with `kk` ascending — the exact chain
/// [`kernel::scalar::bt`] runs.
pub type BtFn<T> = fn(kc: usize, ap: &[T], b: [&[T]; BT_COLS], acc: &mut [[T; MR]; BT_COLS]);

/// Name of the environment variable that overrides backend selection.
pub const BACKEND_ENV: &str = "PDNN_BACKEND";

/// Instruction-set architectures a backend can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// Reference kernels (autovectorized by LLVM; on x86_64 compiled
    /// with FMA enabled where the CPU has it, portable otherwise).
    Scalar,
    /// 256-bit AVX2+FMA kernels (x86_64).
    Avx2,
    /// 512-bit AVX-512F kernels (x86_64).
    Avx512,
    /// 128-bit NEON kernels (aarch64).
    Neon,
}

impl Isa {
    /// Every ISA the workspace knows about, scalar first.
    pub const ALL: [Isa; 4] = [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon];

    /// Stable lowercase name, accepted back by [`parse_selection`].
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Neon => "neon",
        }
    }

    /// Is this ISA usable on the running machine?
    pub fn available(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            // The AVX-512 backend reuses the AVX2 f32 B^T kernel.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f") && Isa::Avx2.available(),
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => true, // NEON is baseline on aarch64
            #[allow(unreachable_patterns)] // foreign-arch ISAs
            _ => false,
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The fastest ISA the running machine supports.
///
/// On x86_64 that is the widest: with the micro-tile one zmm wide the
/// AVX-512 f32 kernel measures about twice the AVX2 one (ROADMAP item
/// 5(a)).
pub fn detect_best() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if Isa::Avx512.available() {
            return Isa::Avx512;
        }
        if Isa::Avx2.available() {
            return Isa::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    if Isa::Neon.available() {
        return Isa::Neon;
    }
    Isa::Scalar
}

/// All ISAs usable on the running machine, scalar first.
pub fn available_isas() -> Vec<Isa> {
    Isa::ALL.into_iter().filter(|i| i.available()).collect()
}

/// One set of microkernels for the blocked GEMM drivers.
///
/// Implementations are stateless singletons handed out as `&'static`
/// references by [`backend_for`]; a [`super::GemmContext`] carries one
/// and the drivers fetch per-type kernel function pointers through
/// [`crate::scalar::Scalar::acc_kernel`] /
/// [`crate::scalar::Scalar::bt_kernel`] once per call. Every kernel a
/// backend returns must honor the module-level bit-exactness contract.
pub trait ComputeBackend: Send + Sync + std::fmt::Debug {
    /// Which ISA the kernels target.
    fn isa(&self) -> Isa;
    /// f32 packed-panel accumulate kernel.
    fn acc_f32(&self) -> AccFn<f32>;
    /// f64 packed-panel accumulate kernel.
    fn acc_f64(&self) -> AccFn<f64>;
    /// f32 streaming-B^T column kernel.
    fn bt_f32(&self) -> BtFn<f32>;
    /// f64 streaming-B^T column kernel.
    fn bt_f64(&self) -> BtFn<f64>;
}

/// Forced-scalar reference backend (always available): one of the two
/// bitwise-equal instantiations of the [`kernel::scalar`] loops, fixed
/// when the backend is constructed.
#[derive(Debug)]
struct ScalarBackend {
    acc_f32: AccFn<f32>,
    acc_f64: AccFn<f64>,
    bt_f32: BtFn<f32>,
    bt_f64: BtFn<f64>,
}

impl ScalarBackend {
    /// The FMA-enabled instantiation where the CPU has the
    /// instruction, the portable one (libm `fma` on an SSE2 baseline)
    /// otherwise.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("fma") {
            return ScalarBackend {
                acc_f32: kernel::scalar::acc_fma::<f32>,
                acc_f64: kernel::scalar::acc_fma::<f64>,
                bt_f32: kernel::scalar::bt_fma::<f32>,
                bt_f64: kernel::scalar::bt_fma::<f64>,
            };
        }
        ScalarBackend {
            acc_f32: kernel::scalar::acc::<f32>,
            acc_f64: kernel::scalar::acc::<f64>,
            bt_f32: kernel::scalar::bt::<f32>,
            bt_f64: kernel::scalar::bt::<f64>,
        }
    }
}

impl ComputeBackend for ScalarBackend {
    fn isa(&self) -> Isa {
        Isa::Scalar
    }
    fn acc_f32(&self) -> AccFn<f32> {
        self.acc_f32
    }
    fn acc_f64(&self) -> AccFn<f64> {
        self.acc_f64
    }
    fn bt_f32(&self) -> BtFn<f32> {
        self.bt_f32
    }
    fn bt_f64(&self) -> BtFn<f64> {
        self.bt_f64
    }
}

#[cfg(target_arch = "x86_64")]
#[derive(Debug)]
struct Avx2Backend;

#[cfg(target_arch = "x86_64")]
impl ComputeBackend for Avx2Backend {
    fn isa(&self) -> Isa {
        Isa::Avx2
    }
    fn acc_f32(&self) -> AccFn<f32> {
        kernel::x86::acc_f32_avx2
    }
    fn acc_f64(&self) -> AccFn<f64> {
        kernel::x86::acc_f64_avx2
    }
    fn bt_f32(&self) -> BtFn<f32> {
        kernel::x86::bt_f32_avx2
    }
    fn bt_f64(&self) -> BtFn<f64> {
        kernel::x86::bt_f64_avx2
    }
}

#[cfg(target_arch = "x86_64")]
#[derive(Debug)]
struct Avx512Backend;

#[cfg(target_arch = "x86_64")]
impl ComputeBackend for Avx512Backend {
    fn isa(&self) -> Isa {
        Isa::Avx512
    }
    fn acc_f32(&self) -> AccFn<f32> {
        kernel::x86::acc_f32_avx512
    }
    fn acc_f64(&self) -> AccFn<f64> {
        kernel::x86::acc_f64_avx512
    }
    fn bt_f32(&self) -> BtFn<f32> {
        // One ymm covers the MR=8 accumulators of a column; the AVX2
        // kernel is already the right shape (and chain).
        kernel::x86::bt_f32_avx2
    }
    fn bt_f64(&self) -> BtFn<f64> {
        kernel::x86::bt_f64_avx512
    }
}

#[cfg(target_arch = "aarch64")]
#[derive(Debug)]
struct NeonBackend;

#[cfg(target_arch = "aarch64")]
impl ComputeBackend for NeonBackend {
    fn isa(&self) -> Isa {
        Isa::Neon
    }
    fn acc_f32(&self) -> AccFn<f32> {
        kernel::neon::acc_f32_neon
    }
    fn acc_f64(&self) -> AccFn<f64> {
        kernel::neon::acc_f64_neon
    }
    fn bt_f32(&self) -> BtFn<f32> {
        kernel::neon::bt_f32_neon
    }
    fn bt_f64(&self) -> BtFn<f64> {
        kernel::neon::bt_f64_neon
    }
}

static SCALAR: OnceLock<ScalarBackend> = OnceLock::new();
#[cfg(target_arch = "x86_64")]
static AVX2: Avx2Backend = Avx2Backend;
#[cfg(target_arch = "x86_64")]
static AVX512: Avx512Backend = Avx512Backend;
#[cfg(target_arch = "aarch64")]
static NEON: NeonBackend = NeonBackend;

/// The forced-scalar reference backend.
pub fn scalar_backend() -> &'static dyn ComputeBackend {
    SCALAR.get_or_init(ScalarBackend::detect)
}

/// Backend for `isa`, or an error if the running machine lacks it.
pub fn backend_for(isa: Isa) -> Result<&'static dyn ComputeBackend, BackendError> {
    if !isa.available() {
        return Err(BackendError::Unavailable(isa));
    }
    Ok(match isa {
        Isa::Scalar => scalar_backend(),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => &AVX2,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => &AVX512,
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => &NEON,
        #[allow(unreachable_patterns)] // foreign-arch ISAs fail available() above
        _ => unreachable!("ISA {isa} passed the availability check on an arch without it"),
    })
}

/// Why a backend selection could not be honored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// The requested ISA is not available on the running machine.
    Unavailable(Isa),
    /// The selection string is not a known ISA name or `auto`.
    UnknownName(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Unavailable(isa) => {
                write!(
                    f,
                    "compute backend `{isa}` is not available on this machine"
                )
            }
            BackendError::UnknownName(name) => write!(
                f,
                "unknown compute backend `{name}` (use scalar|avx2|avx512|neon|auto)"
            ),
        }
    }
}

impl std::error::Error for BackendError {}

/// Parse a selection string: `auto` means detect (`Ok(None)`), an ISA
/// name forces that ISA, anything else is an error.
pub fn parse_selection(s: &str) -> Result<Option<Isa>, BackendError> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("auto") {
        return Ok(None);
    }
    Isa::ALL
        .into_iter()
        .find(|isa| s.eq_ignore_ascii_case(isa.name()))
        .map(Some)
        .ok_or_else(|| BackendError::UnknownName(s.to_string()))
}

/// Validated backend selection policy.
///
/// Mirrors `HfConfig`: construct via [`BackendConfig::auto`] or the
/// [`BackendConfigBuilder`] (whose `build` rejects forcing an ISA the
/// machine lacks), then [`BackendConfig::resolve`] to a backend. By
/// default the `PDNN_BACKEND` environment variable overrides the
/// built selection at resolve time, so a whole process tree — tests
/// included — can be switched without touching call sites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendConfig {
    /// `None` = auto-detect the widest available ISA.
    selection: Option<Isa>,
    /// Honor `PDNN_BACKEND` at resolve time.
    env_override: bool,
}

impl Default for BackendConfig {
    fn default() -> Self {
        Self::auto()
    }
}

impl BackendConfig {
    /// Auto-detect, with the environment override honored.
    pub fn auto() -> Self {
        BackendConfig {
            selection: None,
            env_override: true,
        }
    }

    /// Fresh builder (auto selection, env override on).
    pub fn builder() -> BackendConfigBuilder {
        Self::auto().into_builder()
    }

    /// Builder seeded from this config.
    pub fn into_builder(self) -> BackendConfigBuilder {
        BackendConfigBuilder {
            selection: self.selection,
            by_name: None,
            env_override: self.env_override,
        }
    }

    /// The built selection (`None` = auto-detect), before any
    /// environment override.
    pub fn selection(&self) -> Option<Isa> {
        self.selection
    }

    /// Resolve to a backend: environment override (if enabled and
    /// set), else the built selection, else the detected best.
    pub fn resolve(&self) -> Result<&'static dyn ComputeBackend, BackendError> {
        let mut selection = self.selection;
        if self.env_override {
            if let Ok(v) = std::env::var(BACKEND_ENV) {
                if !v.trim().is_empty() {
                    selection = parse_selection(&v)?;
                }
            }
        }
        backend_for(selection.unwrap_or_else(detect_best))
    }
}

/// Builder for [`BackendConfig`]; `build` validates the selection.
#[derive(Clone, Debug)]
pub struct BackendConfigBuilder {
    selection: Option<Isa>,
    by_name: Option<String>,
    env_override: bool,
}

impl BackendConfigBuilder {
    /// Auto-detect the widest available ISA (the default).
    pub fn auto(mut self) -> Self {
        self.selection = None;
        self.by_name = None;
        self
    }

    /// Force a specific ISA.
    pub fn force(mut self, isa: Isa) -> Self {
        self.selection = Some(isa);
        self.by_name = None;
        self
    }

    /// Select by name (`scalar|avx2|avx512|neon|auto`), e.g. from a
    /// command-line flag; parsing is deferred to [`Self::build`].
    pub fn select_name(mut self, name: &str) -> Self {
        self.by_name = Some(name.to_string());
        self
    }

    /// Honor or ignore the `PDNN_BACKEND` environment variable at
    /// resolve time (on by default).
    pub fn env_override(mut self, on: bool) -> Self {
        self.env_override = on;
        self
    }

    /// Validate and build: a name must parse, and a forced ISA must be
    /// available on the running machine.
    pub fn build(self) -> Result<BackendConfig, BackendError> {
        let selection = match &self.by_name {
            Some(name) => parse_selection(name)?,
            None => self.selection,
        };
        if let Some(isa) = selection {
            if !isa.available() {
                return Err(BackendError::Unavailable(isa));
            }
        }
        Ok(BackendConfig {
            selection,
            env_override: self.env_override,
        })
    }
}

/// The process-wide default backend: `BackendConfig::auto()` resolved
/// once (so `PDNN_BACKEND` is read once) and cached.
///
/// This is what [`super::GemmContext::sequential`] and
/// [`super::GemmContext::threaded`] embed, which is how the selected
/// backend reaches every training call site without threading a new
/// parameter through `pdnn-dnn`/`pdnn-core`.
///
/// # Panics
/// If `PDNN_BACKEND` names an unknown or unavailable backend — a
/// misconfigured environment must fail loudly, not silently fall back
/// to a different kernel set.
pub fn default_backend() -> &'static dyn ComputeBackend {
    static DEFAULT: OnceLock<&'static dyn ComputeBackend> = OnceLock::new();
    *DEFAULT.get_or_init(|| match BackendConfig::auto().resolve() {
        Ok(backend) => backend,
        // pdnn-lint: allow(l3-no-unwrap): env misconfiguration is a startup contract violation; silently substituting a different kernel set would invalidate determinism comparisons
        Err(e) => panic!("{BACKEND_ENV}: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(Isa::Scalar.available());
        assert_eq!(scalar_backend().isa(), Isa::Scalar);
        assert!(available_isas().contains(&Isa::Scalar));
    }

    #[test]
    fn detect_best_is_available() {
        let best = detect_best();
        assert!(best.available());
        assert_eq!(backend_for(best).map(|b| b.isa()), Ok(best));
    }

    #[test]
    fn auto_dispatch_prefers_avx512_over_avx2() {
        // With one zmm per tile row the AVX-512 kernel is the faster
        // one, so auto resolves to it wherever it is available and to
        // AVX2 only on hosts without it.
        let want = [Isa::Avx512, Isa::Avx2, Isa::Neon]
            .into_iter()
            .find(|isa| isa.available())
            .unwrap_or(Isa::Scalar);
        assert_eq!(detect_best(), want);
        let cfg = BackendConfig::builder()
            .auto()
            .env_override(false)
            .build()
            .expect("auto must build");
        assert_eq!(cfg.resolve().map(|b| b.isa()), Ok(want));
    }

    #[test]
    fn names_round_trip() {
        for isa in Isa::ALL {
            assert_eq!(parse_selection(isa.name()), Ok(Some(isa)));
        }
        assert_eq!(parse_selection("AUTO"), Ok(None));
        assert_eq!(parse_selection(" avx2 "), Ok(Some(Isa::Avx2)));
        assert!(matches!(
            parse_selection("qpx"),
            Err(BackendError::UnknownName(_))
        ));
    }

    #[test]
    fn builder_validates_availability() {
        // Scalar can always be forced.
        let cfg = BackendConfig::builder()
            .force(Isa::Scalar)
            .env_override(false)
            .build()
            .expect("scalar must build");
        assert_eq!(cfg.selection(), Some(Isa::Scalar));
        assert_eq!(cfg.resolve().map(|b| b.isa()), Ok(Isa::Scalar));

        // A foreign-arch ISA must be rejected at build time.
        let foreign = if cfg!(target_arch = "x86_64") {
            Isa::Neon
        } else {
            Isa::Avx2
        };
        assert_eq!(
            BackendConfig::builder().force(foreign).build(),
            Err(BackendError::Unavailable(foreign))
        );
    }

    #[test]
    fn builder_parses_names_at_build_time() {
        let cfg = BackendConfig::builder()
            .select_name("scalar")
            .env_override(false)
            .build()
            .expect("scalar by name must build");
        assert_eq!(cfg.selection(), Some(Isa::Scalar));
        assert_eq!(
            BackendConfig::builder().select_name("qpx").build(),
            Err(BackendError::UnknownName("qpx".into()))
        );
        let auto = BackendConfig::builder()
            .select_name("auto")
            .env_override(false)
            .build()
            .expect("auto by name must build");
        assert_eq!(auto.selection(), None);
        assert_eq!(auto.resolve().map(|b| b.isa()), Ok(detect_best()));
    }

    #[test]
    fn default_backend_is_consistent() {
        // Whatever the environment says, the cached default must be
        // one of the available ISAs and stable across calls.
        let a = default_backend();
        let b = default_backend();
        assert!(std::ptr::eq(a, b));
        assert!(a.isa().available());
    }

    /// Run `backend`'s kernels for `T` on a tiny panel pair against
    /// the scalar reference.
    fn kernels_run_and_match_scalar<T: crate::scalar::Scalar>(backend: &dyn ComputeBackend) {
        let isa = backend.isa();
        let kc = 3;
        let ap: Vec<T> = (0..kc * MR)
            .map(|i| T::from_f64(i as f64 * 0.25 - 1.0))
            .collect();
        let bp: Vec<T> = (0..kc * NR)
            .map(|i| T::from_f64(2.0 - i as f64 * 0.125))
            .collect();
        let mut acc = [[T::ZERO; NR]; MR];
        let mut want = [[T::ZERO; NR]; MR];
        T::acc_kernel(backend)(kc, &ap, &bp, &mut acc);
        T::acc_kernel(scalar_backend())(kc, &ap, &bp, &mut want);
        assert_eq!(acc, want, "acc parity for {isa}");

        let b: [&[T]; BT_COLS] = std::array::from_fn(|c| &bp[c..c + kc]);
        let mut col = [[T::ZERO; MR]; BT_COLS];
        let mut col_want = [[T::ZERO; MR]; BT_COLS];
        T::bt_kernel(backend)(kc, &ap, b, &mut col);
        T::bt_kernel(scalar_backend())(kc, &ap, b, &mut col_want);
        assert_eq!(col, col_want, "bt parity for {isa}");
    }

    #[test]
    fn every_available_isa_runs_its_kernels() {
        // `available()` must imply every CPU feature the ISA's kernels
        // assert at entry (AVX2 needs FMA, AVX-512 borrows an AVX2
        // kernel): a gap would panic here, not in a training run.
        // Full parity coverage lives in tests/backend_parity.rs.
        for isa in available_isas() {
            let backend = backend_for(isa).expect("listed as available");
            assert_eq!(backend.isa(), isa);
            kernels_run_and_match_scalar::<f32>(backend);
            kernels_run_and_match_scalar::<f64>(backend);
        }
    }
}
