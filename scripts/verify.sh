#!/usr/bin/env bash
# Repo verification: tier-1 build + tests, then the full style and
# static-analysis gates.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: test suite =="
cargo test -q

echo "== backends: tier-1 under forced-scalar, forced-avx2 and auto dispatch =="
# The ComputeBackend contract: every runtime-dispatched SIMD kernel is
# bit-identical to the forced-scalar reference, so the whole suite
# (determinism byte-gates included) must pass under each. Separate
# processes because the backend choice is resolved once per process.
# Auto resolves to AVX-512 where the CPU has it, so AVX2 gets a pass of
# its own there. In each pass the pdnn-tensor backend tests check the
# ISA the process dispatched against PDNN_BACKEND, that auto picks the
# widest ISA, and that the scalar reference runs its FMA instantiation
# (not libm `fma`) where the CPU has FMA; pdnn-dnn's steady_state_heap
# checks zero heap growth and no large allocation per packed training
# step. Each pass also runs pdnn-core's steady_state_allocs gate in
# release: no rank allocates a 64 KiB+ buffer after the first HF
# iteration, in serial, master, ring and tree mode.
backend_suite=(-p pdnn-tensor -p pdnn-dnn -p pdnn-core)
cpu_has() { grep -qw "$1" /proc/cpuinfo 2>/dev/null; }
backend_pass() {
  PDNN_BACKEND="$1" cargo test -q "${backend_suite[@]}"
  PDNN_BACKEND="$1" cargo test -q --release -p pdnn-core --test steady_state_allocs
}
backend_pass scalar
if cpu_has avx2 && cpu_has fma; then
  backend_pass avx2
else
  echo "avx2+fma unavailable; skipping the PDNN_BACKEND=avx2 pass"
fi
backend_pass auto

echo "== identity: run_digest against results/run_digest.txt, per backend =="
# One hash line per trainer configuration (theta bits, stats, per-rank
# telemetry, comm events). A refactor must leave every line equal; a
# change that means to move one regenerates the file and says which
# lines moved and why. Every backend must reproduce the file byte for
# byte (GEMM chains and the vmath exp/ln are IEEE operations in a fixed
# order). Training calls no libm; only the corpus generator's
# Prng::normal/log_normal do, so on a host whose libm rounds ln/exp
# differently first regenerate at the parent commit.
cargo build -q --release --example run_digest
digest_backends=(scalar auto)
if cpu_has avx2 && cpu_has fma; then digest_backends+=(avx2); fi
for b in "${digest_backends[@]}"; do
  PDNN_BACKEND="$b" cargo run -q --release --example run_digest | diff results/run_digest.txt - \
    || { echo "run_digest under PDNN_BACKEND=$b differs from results/run_digest.txt; if intended, regenerate with:" >&2
         echo "  cargo run --release --example run_digest > results/run_digest.txt" >&2; exit 1; }
done
echo "run_digest: identical under PDNN_BACKEND=${digest_backends[*]}"

echo "== numerics: exhaustive f32 exp/sigmoid sweep (all 2^32 inputs) =="
# exp within 2 ulp and sigmoid within 3 ulp of f64 libm over every f32
# pattern; the test splits the sweep over all available cores.
cargo test -q --release --test vmath_accuracy -- --ignored

echo "== style: rustfmt =="
cargo fmt --check

echo "== style: clippy (workspace) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== static analysis: pdnn-lint =="
cargo run -q -p pdnn-lint

echo "== protocol: pdnn-protomc model check + mutation self-test + trace conformance =="
# Exhaustive interleaving exploration of the master/worker automata
# lowered from pdnn_core::protocol::COMMANDS (the command table both
# roles interpret) on the 2/3/4-rank worlds with a one-kill fault
# budget, cross-checked against a sleep-set-reduced
# run, plus the masterless ring/tree worlds at the same sizes —
# fault-free and with a one-kill budget at every (victim,
# collective-entry) placement of the peer-coordinated recovery model,
# their automata lowered from the hop lists of pdnn_mpisim::schedule
# that the runtime interprets; then the seeded-mutation battery
# (master + decentral + recovery) and replay of five real 4-rank
# training traces (fault-free, injected kill, ring sync, tree sync,
# ring sync with a mid-training kill) through the automata.
cargo run -q --release -p pdnn-protomc
pm_report=results/protomc_report.json
grep -q '"findings": 0,' "$pm_report" \
  || { echo "protomc report shows property violations" >&2; exit 1; }
grep -q '"reduction_ok": true,' "$pm_report" \
  || { echo "protomc partial-order reduction disagrees with the full exploration" >&2; exit 1; }
grep -q '"decentral": {"findings": 0,' "$pm_report" \
  || { echo "protomc masterless (ring/tree) worlds show property violations" >&2; exit 1; }
grep -q '"mode": "ring", "ranks": 4, "kill_placements": 8,' "$pm_report" \
  || { echo "protomc decentral recovery model did not explore the 4-rank ring kill placements" >&2; exit 1; }
pm_muts="$(sed -n 's/.*"mutations": \([0-9]*\),.*/\1/p' "$pm_report")"
pm_caught="$(sed -n 's/.*"caught": \([0-9]*\),.*/\1/p' "$pm_report" | head -n1)"
[ -n "$pm_muts" ] && [ "$pm_muts" -ge 33 ] && [ "$pm_caught" = "$pm_muts" ] \
  || { echo "protomc mutation self-test: $pm_caught/$pm_muts caught (need all of >= 33)" >&2; exit 1; }
grep -q '"conformance": {"unmapped": 0, "accepted": 5,' "$pm_report" \
  || { echo "protomc trace conformance: a real training trace did not conform" >&2; exit 1; }
echo "protomc: $pm_caught/$pm_muts mutations caught, 5/5 traces conform"

echo "== sync strategies: masterless suite + trainer ring smoke =="
# The masterless contract end to end (bit-determinism, byte gates,
# codec parity, peer-coordinated kill-and-recover in ring and tree
# modes), then the CLI trainer under --sync ring must actually run
# masterless.
cargo test -q --release -p pdnn-core --test sync_strategies
ring_out="$(cargo run -q --release --bin pdnn-train -- --workers 4 --sync ring --iters 2 --utterances 48)"
echo "$ring_out" | grep -q "peer ranks, ring allreduce sync" \
  || { echo "pdnn-train --sync ring did not run in masterless ring mode" >&2; exit 1; }

echo "== kernel safety: pdnn-kernelcheck static + mutation self-test =="
cargo run -q -p pdnn-kernelcheck -- --static --mutations
# The report is an acceptance artifact: the clean tree must verify
# with zero findings and zero waivers, every unsafe site covered by a
# verified contract, and the full mutation battery caught.
kc_report=results/kernelcheck_report.json
grep -q '"findings": 0,' "$kc_report" \
  || { echo "kernelcheck report shows findings" >&2; exit 1; }
grep -q '"suppressed": 0,' "$kc_report" \
  || { echo "kernelcheck report shows waivers; the kernel zone must verify without allows" >&2; exit 1; }
grep -q '"meta": 0,' "$kc_report" \
  || { echo "kernelcheck report shows suppression-directive problems" >&2; exit 1; }
kc_sites="$(sed -n 's/.*"unsafe_sites": \([0-9]*\),.*/\1/p' "$kc_report")"
kc_covered="$(sed -n 's/.*"covered": \([0-9]*\),.*/\1/p' "$kc_report")"
# 36 = 18 unsafe kernels (7 x86, 4 NEON, 2 fma-enabled scalar
# instantiations, 3 element-wise instantiations: fma, avx2, avx512,
# 2 wire-codec instantiations: avx2, avx512) plus the unsafe block in
# each one's safe wrapper.
[ -n "$kc_sites" ] && [ "$kc_sites" -ge 36 ] && [ "$kc_sites" = "$kc_covered" ] \
  || { echo "kernelcheck coverage gap: $kc_covered/$kc_sites unsafe sites covered (need all of >= 36)" >&2; exit 1; }
kc_muts="$(sed -n 's/.*"mutations": \([0-9]*\),.*/\1/p' "$kc_report")"
kc_caught="$(sed -n 's/.*"caught": \([0-9]*\),.*/\1/p' "$kc_report")"
[ -n "$kc_muts" ] && [ "$kc_muts" -ge 37 ] && [ "$kc_caught" = "$kc_muts" ] \
  || { echo "kernelcheck mutation self-test: $kc_caught/$kc_muts caught (need all of >= 37)" >&2; exit 1; }
echo "kernelcheck: $kc_covered/$kc_sites sites covered, $kc_caught/$kc_muts mutations caught"

echo "== kernel safety: miri (pack / tail / scalar-kernel tests) =="
# Miri interprets the safe packing and scalar-kernel paths with full
# UB checking. SIMD wrapper tests are excluded by the filters (runtime
# CPU detection and vendor intrinsics are outside Miri's remit).
if cargo +nightly miri --version >/dev/null 2>&1; then
  cargo +nightly miri test -q -p pdnn-tensor --lib -- \
    gemm::pack gemm::kernel::scalar gemm::kernel::elementwise blas1
else
  echo "miri is not installed for the nightly toolchain; skipping"
  echo "(offline image cannot add rustup components; gate runs where miri is available)"
fi

echo "== kernel safety: AddressSanitizer smoke (parity + fuzz sweeps) =="
# ASan catches any out-of-bounds the static contracts might have
# missed, on exactly the adversarial shapes the fuzz sweep and the
# wire-codec parity sweep drive through every ISA. Separate target dir
# so sanitized artifacts never mix with the normal cache.
if [ "$(uname -m)" = "x86_64" ] && cargo +nightly --version >/dev/null 2>&1; then
  RUSTFLAGS="-Zsanitizer=address" CARGO_TARGET_DIR=target/asan \
    cargo +nightly test -q -p pdnn-tensor --test backend_parity --test kernel_fuzz \
    --test codec_parity --target x86_64-unknown-linux-gnu
else
  echo "nightly toolchain or x86_64 target unavailable; skipping the sanitizer smoke"
fi

echo "== fault tolerance: mpisim failure-injection suite =="
cargo test -q --release --test failure_injection

echo "== fault tolerance: core recovery suite (kill, re-shard, resume) =="
cargo test -q --release -p pdnn-core --test fault_tolerance

echo "== fault tolerance: kill-and-recover smoke (checkpoint restore) =="
# Capture first (grep -q would SIGPIPE the example under pipefail).
smoke_out="$(cargo run -q --release --example fault_recovery)"
echo "$smoke_out" | grep -q "fault recovery OK: dead_ranks=\[1\] recoveries=1 iters=3" \
  || { echo "fault_recovery smoke did not report a clean recovery" >&2; exit 1; }

echo "== benchmark: frozen harness smoke run =="
# benchmark/ builds against the public API (MR, NR,
# ComputeBackend::acc_f32, GemmOp::packed_*): an API change that breaks
# it, or a kernel change that fails one of its output checks, must fail
# here rather than only in a later benchmark run.
bench_out="$(benchmark/run.sh --smoke)" \
  || { echo "$bench_out" >&2; echo "benchmark smoke run exited non-zero" >&2; exit 1; }
echo "$bench_out" | grep -q ": failed 0 of attempted " \
  || { echo "$bench_out" >&2; echo "benchmark smoke run reports failed operations" >&2; exit 1; }
echo "benchmark smoke: failed 0"

echo "== tracked numbers (print-only, no gate) =="
scripts/tracked_numbers.sh

echo "verify: OK"
