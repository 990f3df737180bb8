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
# its own there.
backend_suite=(-p pdnn-tensor -p pdnn-dnn -p pdnn-core)
cpu_has() { grep -qw "$1" /proc/cpuinfo 2>/dev/null; }
PDNN_BACKEND=scalar cargo test -q "${backend_suite[@]}"
if cpu_has avx2 && cpu_has fma; then
  PDNN_BACKEND=avx2 cargo test -q "${backend_suite[@]}"
else
  echo "avx2+fma unavailable; skipping the PDNN_BACKEND=avx2 pass"
fi
PDNN_BACKEND=auto cargo test -q "${backend_suite[@]}"

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

echo "== protocol: pdnn-protocheck static + mutation self-test =="
cargo run -q -p pdnn-protocheck -- --static --mutations

echo "== protocol: pdnn-protocheck dynamic sweep =="
cargo run -q --release -p pdnn-protocheck -- --dynamic 8 --workers 3 --iters 2

echo "== protocol: pdnn-protomc model check + mutation self-test + trace conformance =="
# Exhaustive interleaving exploration of the 2/3/4-rank worlds with a
# one-kill fault budget, cross-checked against a sleep-set-reduced
# run, plus the masterless ring/tree worlds at the same sizes —
# fault-free and with a one-kill budget at every (victim,
# collective-entry) placement of the peer-coordinated recovery model;
# then the seeded-mutation battery (master + decentral + recovery)
# and replay of five real 4-rank training traces (fault-free,
# injected kill, ring sync, tree sync, ring sync with a mid-training
# kill) through the automata.
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
[ -n "$pm_muts" ] && [ "$pm_muts" -ge 26 ] && [ "$pm_caught" = "$pm_muts" ] \
  || { echo "protomc mutation self-test: $pm_caught/$pm_muts caught (need all of >= 26)" >&2; exit 1; }
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

echo "== sync strategies: sync-modes bench smoke (BENCH_6 byte gates) =="
# The --smoke run itself asserts the 8-rank gates (ring rank-0 p2p
# ≤ 25% of master's, ≥2x plain-ring and ≥4x compressed-ring rank-0
# byte reduction); the greps assert the emitted JSON carries them.
mkdir -p target/bench_smoke
cargo run -q --release -p pdnn-bench --bin sync_modes -- --smoke \
  --out target/bench_smoke/BENCH_6.json >/dev/null
for key in '"bench": "sync_modes"' \
           '"ring_rank0_p2p_le_quarter_of_master": true' \
           '"ring_rank0_ge_2x_reduction": true' \
           '"ring_int8_rank0_ge_4x_reduction": true'; do
  grep -q "$key" target/bench_smoke/BENCH_6.json \
    || { echo "sync_modes smoke JSON missing $key" >&2; exit 1; }
done
# The 16-rank wall gate (ring within noise of master) needs the full
# paired-round measurement, which the smoke run skips; assert the
# committed artifact carries it so a regression can't be checked in.
grep -q '"ring_wall_le_master": true' BENCH_6.json \
  || { echo "committed BENCH_6.json does not carry the 16-rank ring-wall gate" >&2; exit 1; }

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
# 32 = 16 unsafe kernels (7 x86, 4 NEON, 2 fma-enabled scalar
# instantiations, 3 element-wise instantiations: fma, avx2, avx512)
# plus the unsafe block in each one's safe wrapper.
[ -n "$kc_sites" ] && [ "$kc_sites" -ge 32 ] && [ "$kc_sites" = "$kc_covered" ] \
  || { echo "kernelcheck coverage gap: $kc_covered/$kc_sites unsafe sites covered (need all of >= 32)" >&2; exit 1; }
kc_muts="$(sed -n 's/.*"mutations": \([0-9]*\),.*/\1/p' "$kc_report")"
kc_caught="$(sed -n 's/.*"caught": \([0-9]*\),.*/\1/p' "$kc_report")"
[ -n "$kc_muts" ] && [ "$kc_muts" -ge 30 ] && [ "$kc_caught" = "$kc_muts" ] \
  || { echo "kernelcheck mutation self-test: $kc_caught/$kc_muts caught (need all of >= 30)" >&2; exit 1; }
echo "kernelcheck: $kc_covered/$kc_sites sites covered, $kc_caught/$kc_muts mutations caught"

echo "== kernel safety: miri (pack / tail / scalar-kernel tests) =="
# Miri interprets the safe packing and scalar-kernel paths with full
# UB checking. SIMD wrapper tests are excluded by the filters (runtime
# CPU detection and vendor intrinsics are outside Miri's remit).
if cargo +nightly miri --version >/dev/null 2>&1; then
  cargo +nightly miri test -q -p pdnn-tensor --lib -- \
    gemm::pack gemm::kernel::scalar gemm::kernel::elementwise gemm::kernel::tests blas1
else
  echo "miri is not installed for the nightly toolchain; skipping"
  echo "(offline image cannot add rustup components; gate runs where miri is available)"
fi

echo "== kernel safety: AddressSanitizer smoke (parity + fuzz sweeps) =="
# ASan catches any out-of-bounds the static contracts might have
# missed, on exactly the adversarial shapes the fuzz sweep drives
# through every ISA. Separate target dir so sanitized artifacts never
# mix with the normal cache.
if [ "$(uname -m)" = "x86_64" ] && cargo +nightly --version >/dev/null 2>&1; then
  RUSTFLAGS="-Zsanitizer=address" CARGO_TARGET_DIR=target/asan \
    cargo +nightly test -q -p pdnn-tensor --test backend_parity --test kernel_fuzz \
    --target x86_64-unknown-linux-gnu
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

echo "== perf: training-step bench smoke (arena zero-growth gate) =="
# The --smoke run itself asserts zero steady-state heap growth (the
# workspace-arena guarantee); the greps assert the emitted JSON has
# the phase schema consumers of BENCH_4.json rely on.
mkdir -p target/bench_smoke
smoke_bench="$(PDNN_BACKEND=scalar cargo run -q --release -p pdnn-bench --bin training_step -- --smoke \
  --out target/bench_smoke/BENCH_4.json --out-isa target/bench_smoke/BENCH_5.json)"
for key in '"gn_solve"' '"ns_per_frame"' '"steady_state_heap_growth_bytes": 0'; do
  grep -q "$key" target/bench_smoke/BENCH_4.json \
    || { echo "bench smoke JSON missing $key" >&2; exit 1; }
done

echo "== backends: dispatch assertions (smoke) =="
# Forced scalar must report scalar dispatch...
echo "$smoke_bench" | grep -q "compute backend: dispatching scalar microkernels" \
  || { echo "forced-scalar smoke did not dispatch scalar kernels" >&2; exit 1; }
grep -q '"scalar"' target/bench_smoke/BENCH_5.json \
  || { echo "BENCH_5 smoke JSON missing the scalar ISA row" >&2; exit 1; }
# ...and must not have fallen onto libm: the reference chain is a
# fused multiply-add, which on the x86-64 baseline is a call to `fmaf`
# unless the scalar backend picked its fma-enabled instantiation. That
# cliff is ~60x at the kernel (the suites above barely move: their
# GEMMs are tiny), so it is read off the per-ISA GFLOPS of this run —
# the best SIMD ISA is 2-4x the healthy scalar reference.
cliff="$(sed -n 's/.*"gn_product_speedup": \([0-9.]*\).*/\1/p' target/bench_smoke/BENCH_5.json)"
[ -n "$cliff" ] && awk -v r="$cliff" 'BEGIN { exit !(r < 12) }' \
  || { echo "scalar gn_product is ${cliff}x slower than the best SIMD ISA: reference kernels on libm fma?" >&2; exit 1; }
# ...and auto dispatch must pick the widest ISA the CPU offers: with
# one zmm per tile row the AVX-512 kernel is the fastest we have, so
# auto resolving to avx2 on an AVX-512 host is the dispatch regression.
auto_out="$(cargo run -q --release -p pdnn-bench --bin training_step -- --smoke \
  --out target/bench_smoke/BENCH_4_auto.json --out-isa target/bench_smoke/BENCH_5_auto.json)"
auto_isa="$(echo "$auto_out" | sed -n 's/^compute backend: dispatching \([a-z0-9]*\) microkernels$/\1/p')"
if cpu_has avx512f && cpu_has avx2 && cpu_has fma; then
  want_isa=avx512
elif cpu_has avx2 && cpu_has fma; then
  want_isa=avx2
else
  want_isa=
fi
if [ -n "$want_isa" ]; then
  [ "$auto_isa" = "$want_isa" ] \
    || { echo "auto dispatch picked '$auto_isa' on a $want_isa-capable host" >&2; exit 1; }
else
  [ -n "$auto_isa" ] || { echo "auto smoke never reported its dispatched ISA" >&2; exit 1; }
fi
echo "auto dispatch: $auto_isa"

echo "verify: OK"
