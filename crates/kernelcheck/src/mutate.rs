//! Mutation self-test: prove the checker has teeth.
//!
//! Each [`Mutation`] is a seeded, realistic bug — an off-by-one panel
//! index, a dropped precondition, a widened contract, a stale dispatch
//! table — applied to an in-memory copy of the tree. The static pass
//! must flag every mutated tree with the expected rule, and the clean
//! tree must stay silent; together those two facts are the evidence
//! that a green kernelcheck run means something.

use crate::{analyze, StaticOutcome, Tree, K1, K2, K3, K4, K5, K6, K7};
use std::collections::BTreeSet;

/// One seeded bug: replace the first occurrence of `from` with `to`
/// in `path`, expect `expected_rule` to fire.
pub struct Mutation {
    pub name: &'static str,
    pub path: &'static str,
    pub from: &'static str,
    pub to: &'static str,
    pub expected_rule: &'static str,
    /// What the bug models, for the report.
    pub what: &'static str,
}

/// Result of analyzing one mutated tree.
pub struct MutationResult {
    pub name: &'static str,
    pub expected_rule: &'static str,
    /// The expected rule fired.
    pub caught: bool,
    /// Any rule fired (a consolation if `caught` is false).
    pub flagged: bool,
    /// Distinct rules that fired on the mutated tree.
    pub fired_rules: Vec<String>,
    pub what: &'static str,
}

const X86: &str = "crates/tensor/src/gemm/kernel/x86.rs";
const SCALAR: &str = "crates/tensor/src/gemm/kernel/scalar.rs";
const NEON: &str = "crates/tensor/src/gemm/kernel/neon.rs";
const DRIVER: &str = "crates/tensor/src/gemm/driver.rs";
const BACKEND: &str = "crates/tensor/src/gemm/backend.rs";
const ELEMENTWISE: &str = "crates/tensor/src/gemm/kernel/elementwise.rs";
const VMATH: &str = "crates/tensor/src/vmath.rs";
const CODEC_KERNEL: &str = "crates/tensor/src/gemm/kernel/codec.rs";
const CODEC: &str = "crates/tensor/src/codec.rs";

/// The battery. Every entry must be caught for the self-test to pass.
pub fn mutations() -> Vec<Mutation> {
    vec![
        Mutation {
            name: "m01-bp-off-by-one",
            path: X86,
            from: "let bv = _mm256_loadu_ps(bp.add(kk * NR + g * 8));",
            to: "let bv = _mm256_loadu_ps(bp.add(kk * NR + g * 8 + 1));",
            expected_rule: K1,
            what: "B-panel load shifted one element past the packed stride",
        },
        Mutation {
            name: "m02-inclusive-k-loop",
            path: X86,
            from: "for kk in 0..kc {",
            to: "for kk in 0..=kc {",
            expected_rule: K1,
            what: "k-loop runs one extra iteration past the panel depth",
        },
        Mutation {
            name: "m03-c-row-off-by-one",
            path: X86,
            from: "let p = c.add(i * ldc + g * 8);",
            to: "let p = c.add(i * ldc + g * 8 + 1);",
            expected_rule: K1,
            what: "masked C merge lands one lane past the tile's live columns",
        },
        Mutation {
            name: "m04-extra-register-row",
            path: X86,
            from: "let mut r = [_mm256_setzero_ps(); MR];",
            to: "let mut r = [_mm256_setzero_ps(); MR + 1];",
            expected_rule: K1,
            what: "register file grows a row, so the enumerate walks off the tile",
        },
        Mutation {
            name: "m05-a-broadcast-off-by-one",
            path: X86,
            from: "let av = _mm256_set1_ps(*a.add(i));",
            to: "let av = _mm256_set1_ps(*a.add(i + 1));",
            expected_rule: K1,
            what: "A-element broadcast reads one past the micro-panel column",
        },
        Mutation {
            name: "m06-aligned-load-on-packed",
            path: X86,
            from: "let bv = _mm256_loadu_ps(",
            to: "let bv = _mm256_load_ps(",
            expected_rule: K3,
            what: "unaligned load swapped for the 32-byte-aligned variant",
        },
        Mutation {
            name: "m07-weakened-target-feature",
            path: X86,
            from: "#[target_feature(enable = \"avx2,fma\")]\nunsafe fn tile_f32_avx2_imp",
            to: "#[target_feature(enable = \"sse2\")]\nunsafe fn tile_f32_avx2_imp",
            expected_rule: K4,
            what: "kernel attribute no longer enables the ISA its intrinsics need",
        },
        Mutation {
            name: "m08-dropped-runtime-detect",
            path: X86,
            from: "    kernel_precondition!(\n        is_x86_feature_detected!(\"avx2\") && is_x86_feature_detected!(\"fma\"),\n        \"avx2/fma not available\"\n    );\n",
            to: "",
            expected_rule: K4,
            what: "wrapper stops runtime-checking the CPU before entering the kernel",
        },
        Mutation {
            name: "m09-widened-contract",
            path: X86,
            from: "// kernel-contract: ap points-to len >= kc * MR, noalias",
            to: "// kernel-contract: ap points-to len >= kc * MR * 2, noalias",
            expected_rule: K5,
            what: "contract demands more than the wrapper's precondition establishes",
        },
        Mutation {
            name: "m10-dropped-length-precondition",
            path: X86,
            from: "    kernel_precondition!(ap.len() >= kc * MR, \"tile_f32_avx2: A panel too short\");\n",
            to: "",
            expected_rule: K5,
            what: "wrapper stops asserting the A-panel length the contract relies on",
        },
        Mutation {
            name: "m11-contracts-deleted",
            path: X86,
            from: "// kernel-contract: ap points-to len >= kc * MR, noalias\n// kernel-contract: b0 points-to len >= kc\n// kernel-contract: b1 points-to len >= kc\n// kernel-contract: b2 points-to len >= kc\n// kernel-contract: b3 points-to len >= kc\n// kernel-contract: acc points-to len >= BT_COLS * MR, noalias\n// kernel-contract: requires target_feature(avx512f)\n#[target_feature(enable = \"avx512f\")]\nunsafe fn bt_f64_avx512_imp",
            to: "#[target_feature(enable = \"avx512f\")]\nunsafe fn bt_f64_avx512_imp",
            expected_rule: K2,
            what: "an unsafe kernel loses its contract block entirely",
        },
        Mutation {
            name: "m12-contract-names-ghost-param",
            path: X86,
            from: "// kernel-contract: b2 points-to len >= kc",
            to: "// kernel-contract: b2z points-to len >= kc",
            expected_rule: K2,
            what: "contract names a parameter that does not exist (typo drift)",
        },
        Mutation {
            name: "m13-dropped-c-tile-bound",
            path: X86,
            from: "    kernel_precondition!(\n        c.len() >= (mr_eff - 1) * ldc + nr_eff,\n        \"tile_f32_avx512: C tile too short\"\n    );\n",
            to: "",
            expected_rule: K5,
            what: "tile wrapper stops asserting the C-tile length the merge writes through",
        },
        Mutation {
            name: "m14-dropped-b-panel-bound",
            path: X86,
            from: "    kernel_precondition!(bp.len() >= kc * NR, \"tile_f64_avx512: B panel too short\");\n",
            to: "",
            expected_rule: K5,
            what: "AVX-512 f64 tile wrapper stops asserting the B-panel length",
        },
        Mutation {
            name: "m15-overlong-driver-panel",
            path: DRIVER,
            from: "let ap_panel = &ap[ir * kc_eff * MR..(ir + 1) * kc_eff * MR];",
            to: "let ap_panel = &ap[ir * kc_eff * MR..(ir + 2) * kc_eff * MR];",
            expected_rule: K6,
            what: "driver slices two micro-panels where the kernel consumes one",
        },
        Mutation {
            name: "m16-short-brow-segment",
            path: DRIVER,
            from: "&r[pc..pc + kc_eff]",
            to: "&r[pc..pc + kc_eff - 1]",
            expected_rule: K6,
            what: "streaming-B^T row segments one element shorter than kc",
        },
        Mutation {
            name: "m17-aliased-noalias-operands",
            path: X86,
            from: "            ap.as_ptr(),\n            bp.as_ptr(),",
            to: "            ap.as_ptr(),\n            ap.as_ptr(),",
            expected_rule: K7,
            what: "wrapper feeds the same slice to two noalias pointer operands",
        },
        Mutation {
            name: "m18-stale-dispatch-table",
            path: BACKEND,
            from: "        kernel::x86::acc_f32_avx2\n",
            to: "        kernel::x86::acc_f32_avx512\n",
            expected_rule: K4,
            what: "AVX2 backend dispatches an AVX-512 kernel its gate never checks for",
        },
        Mutation {
            name: "m19-neon-stride-bug",
            path: NEON,
            from: "*rq = vld1q_f64(acc.add(q * 2));",
            to: "*rq = vld1q_f64(acc.add(q * 3));",
            expected_rule: K1,
            what: "NEON accumulator walk uses the wrong stride",
        },
        Mutation {
            name: "m20-brow-off-by-one",
            path: X86,
            from: "_mm256_set1_ps(*b2.add(kk))",
            to: "_mm256_set1_ps(*b2.add(kk + 1))",
            expected_rule: K1,
            what: "streaming-B^T broadcast reads one past its row segment",
        },
        Mutation {
            name: "m21-fma-not-enabled",
            path: X86,
            from: "#[target_feature(enable = \"avx2,fma\")]\nunsafe fn tile_f64_avx2_imp",
            to: "#[target_feature(enable = \"avx2\")]\nunsafe fn tile_f64_avx2_imp",
            expected_rule: K4,
            what: "kernel issues fmadd without enabling the FMA feature",
        },
        Mutation {
            name: "m22-wrapper-forgets-fma-probe",
            path: X86,
            from: "is_x86_feature_detected!(\"avx2\") && is_x86_feature_detected!(\"fma\"),",
            to: "is_x86_feature_detected!(\"avx2\"),",
            expected_rule: K4,
            what: "wrapper probes AVX2 but not FMA before a kernel that needs both",
        },
        Mutation {
            name: "m23-scalar-fma-unprobed",
            path: SCALAR,
            from: "    kernel_precondition!(is_x86_feature_detected!(\"fma\"), \"fma not available\");\n",
            to: "",
            expected_rule: K4,
            what: "fma-enabled reference instantiation entered without a CPU check",
        },
        Mutation {
            name: "m24-scalar-selection-ungated",
            path: BACKEND,
            from: "        if is_x86_feature_detected!(\"fma\") {\n            return ScalarBackend {",
            to: "        {\n            return ScalarBackend {",
            expected_rule: K4,
            what: "scalar backend hands out the fma instantiation without consulting CPUID",
        },
        Mutation {
            name: "m25-dropped-b-row-precondition",
            path: X86,
            from: "    kernel_precondition!(b3.len() >= kc, \"bt_f32_avx2: B row 3 too short\");\n",
            to: "",
            expected_rule: K5,
            what: "wrapper stops asserting the length of the fourth B row",
        },
        Mutation {
            name: "m26-extra-column-group",
            path: NEON,
            from: "for g in 0..NR / 4 {",
            to: "for g in 0..NR / 4 + 1 {",
            expected_rule: K1,
            what: "NEON kernel walks a ninth 4-lane group past the 32-column tile",
        },
        Mutation {
            name: "m27-elementwise-drops-fma",
            path: ELEMENTWISE,
            from: "#[target_feature(enable = \"avx2,fma\")]\nunsafe fn row_op_avx2_imp",
            to: "#[target_feature(enable = \"avx2\")]\nunsafe fn row_op_avx2_imp",
            expected_rule: K4,
            what: "element-wise instantiation compiled without the FMA its contract declares",
        },
        Mutation {
            name: "m28-elementwise-wrapper-forgets-fma-probe",
            path: ELEMENTWISE,
            from: "is_x86_feature_detected!(\"avx512f\") && is_x86_feature_detected!(\"fma\"),",
            to: "is_x86_feature_detected!(\"avx512f\"),",
            expected_rule: K4,
            what: "AVX-512 element-wise wrapper enters its kernel without probing FMA",
        },
        Mutation {
            name: "m29-elementwise-fma-listed-unprobed",
            path: VMATH,
            from: "        if is_x86_feature_detected!(\"fma\") {\n",
            to: "        {\n",
            expected_rule: K4,
            what: "element-wise dispatch names the FMA instantiations without consulting CPUID",
        },
        Mutation {
            name: "m30-elementwise-avx512-listed-unprobed",
            path: VMATH,
            from: "            if is_x86_feature_detected!(\"avx512f\") {\n",
            to: "            {\n",
            expected_rule: K4,
            what: "element-wise dispatch names the AVX-512 instantiation on an FMA-only probe",
        },
        Mutation {
            name: "m31-mask-past-the-edge",
            path: X86,
            from: "let m = mask16(lanes(nr_eff, g * 16));",
            to: "let m = mask16(lanes(nr_eff + 1, g * 16));",
            expected_rule: K1,
            what: "AVX-512 merge mask enables one lane past the tile's live columns",
        },
        Mutation {
            name: "m32-inclusive-merge-rows",
            path: X86,
            from: "for (i, &ri) in r.iter().enumerate().take(mr_eff) {",
            to: "for (i, &ri) in r.iter().enumerate().take(mr_eff + 1) {",
            expected_rule: K1,
            what: "merge walks one row past the tile's live rows",
        },
        Mutation {
            name: "m33-widened-c-contract",
            path: X86,
            from: "// kernel-contract: c points-to len >= (mr_eff - 1) * ldc + nr_eff, noalias",
            to: "// kernel-contract: c points-to len >= mr_eff * ldc + nr_eff, noalias",
            expected_rule: K5,
            what: "C-tile contract claims a whole extra row the wrapper never asserts",
        },
        Mutation {
            name: "m34-neon-lane-past-the-edge",
            path: NEON,
            from: "let p = c.add(i * ldc + g * 4 + j);",
            to: "let p = c.add(i * ldc + g * 4 + j + 1);",
            expected_rule: K1,
            what: "NEON lane-wise merge writes one column past the live corner",
        },
        Mutation {
            name: "m35-codec-instantiation-drops-avx512",
            path: CODEC_KERNEL,
            from: "#[target_feature(enable = \"avx512f\")]\nunsafe fn codec_pass_avx512_imp",
            to: "#[target_feature(enable = \"avx2\")]\nunsafe fn codec_pass_avx512_imp",
            expected_rule: K4,
            what: "wire-codec instantiation compiled without the AVX-512 its contract declares",
        },
        Mutation {
            name: "m36-codec-wrapper-unprobed",
            path: CODEC_KERNEL,
            from: "    kernel_precondition!(is_x86_feature_detected!(\"avx2\"), \"avx2 not available\");\n",
            to: "",
            expected_rule: K4,
            what: "AVX2 wire-codec wrapper enters its kernel without probing the CPU",
        },
        Mutation {
            name: "m37-codec-avx512-listed-unprobed",
            path: CODEC,
            from: "        if is_x86_feature_detected!(\"avx512f\") {\n",
            to: "        {\n",
            expected_rule: K4,
            what: "wire-codec dispatch names the AVX-512 instantiation without consulting CPUID",
        },
    ]
}

/// Run the battery. `baseline` must be the clean tree's outcome;
/// refusing to run on a dirty baseline keeps "caught" honest (a
/// pre-existing finding would count as a catch for every mutation).
pub fn run_mutations(tree: &Tree, baseline: &StaticOutcome) -> Result<Vec<MutationResult>, String> {
    if !baseline.findings.is_empty() || !baseline.meta.is_empty() {
        return Err(format!(
            "baseline tree is dirty ({} findings, {} meta); fix those before mutation testing",
            baseline.findings.len(),
            baseline.meta.len()
        ));
    }
    let mut out = Vec::new();
    for m in mutations() {
        let Some(mutated) = tree.with_replacement(m.path, m.from, m.to) else {
            return Err(format!(
                "mutation {} is stale: pattern not found in {}",
                m.name, m.path
            ));
        };
        let outcome = analyze(&mutated);
        let fired: BTreeSet<String> = outcome
            .findings
            .iter()
            .map(|f| f.rule.to_string())
            .collect();
        out.push(MutationResult {
            name: m.name,
            expected_rule: m.expected_rule,
            caught: fired.contains(m.expected_rule),
            flagged: !fired.is_empty(),
            fired_rules: fired.into_iter().collect(),
            what: m.what,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_is_large_and_covers_every_rule() {
        let ms = mutations();
        assert!(ms.len() >= 30, "need >= 30 mutations, have {}", ms.len());
        let names: BTreeSet<_> = ms.iter().map(|m| m.name).collect();
        assert_eq!(names.len(), ms.len(), "mutation names must be unique");
        let rules: BTreeSet<_> = ms.iter().map(|m| m.expected_rule).collect();
        for r in [K1, K2, K3, K4, K5, K6, K7] {
            assert!(rules.contains(r), "no mutation exercises {r}");
        }
    }
}
