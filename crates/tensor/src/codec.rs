//! Wire-codec passes for collective payloads: `f32` ↔ binary16 and
//! int8 quantization, the hot loops of `pdnn_mpisim::wire`.
//!
//! Like [`crate::vmath`]'s row passes, each is one loop of IEEE and
//! integer operations with no data-dependent branch
//! (`kernel::codec::codec_pass`), compiled once per ISA
//! ([`instantiations`]). All instantiations agree bitwise; the one used
//! is picked once per process from the default backend's ISA
//! ([`selected`]), so `PDNN_BACKEND=scalar` runs the portable loop.

use crate::gemm::backend::{default_backend, Isa};
use std::sync::OnceLock;

pub use crate::gemm::kernel::codec::CodecPass;

/// One instantiation of the codec pass.
pub type CodecFn = fn(pass: CodecPass<'_>);

/// Every instantiation this CPU can run, portable first, by name. A
/// feature-gated one is listed only with the ISA token its features
/// were detected into ([`crate::gemm::backend`]).
pub fn instantiations() -> Vec<(&'static str, CodecFn)> {
    crate::gemm::dispatch::codec_instantiations()
}

/// Name of the instantiation for a backend ISA: the one of the same
/// width, the portable loop for the scalar and NEON backends.
fn instantiation_for(isa: Isa) -> &'static str {
    match isa {
        Isa::Avx2 => "avx2",
        Isa::Avx512 => "avx512",
        Isa::Scalar | Isa::Neon => "portable",
    }
}

/// The instantiation this process runs, resolved on first use.
pub fn selected() -> CodecFn {
    static PASS: OnceLock<CodecFn> = OnceLock::new();
    *PASS.get_or_init(|| {
        let want = instantiation_for(default_backend().isa());
        let all = instantiations();
        let portable = all[0].1;
        all.into_iter()
            .find(|(name, _)| *name == want)
            .map_or(portable, |(_, f)| f)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_available_isa_has_its_instantiation() {
        for isa in crate::available_isas() {
            let want = instantiation_for(isa);
            assert!(
                instantiations().iter().any(|(name, _)| *name == want),
                "{isa} selects `{want}`, which is not listed"
            );
        }
        assert_eq!(instantiation_for(Isa::Scalar), "portable");
    }
}
