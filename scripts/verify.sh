#!/usr/bin/env bash
# Repo verification: tier-1 build + tests, then the full style and
# static-analysis gates. Every gate runs, whatever an earlier one did;
# the failed ones, with the tests each names as failing, are listed at
# the end, and the script exits non-zero unless every gate passed.
set -euo pipefail
cd "$(dirname "$0")/.."

log="$(mktemp)"
trap 'rm -f "$log"' EXIT
failures=()

# gate NAME CMD...: run CMD with `set -e` in a subshell, so its first
# failing command ends it; on failure, record NAME and the tests a test
# harness listed as failing, and go on to the next gate.
gate() {
  local name="$1"
  shift
  echo "== $name =="
  set +e
  (set -e; "$@") 2>&1 | tee "$log"
  local rc="${PIPESTATUS[0]}"
  set -e
  [ "$rc" -eq 0 ] && return 0
  local tests
  tests="$(awk '/^failures:$/ { f = 1; next } f && /^    [^ ]/ { print $1; next } { f = 0 }' "$log" \
    | sort -u | paste -sd ' ' -)"
  failures+=("$name (exit $rc)${tests:+; failing tests: $tests}")
}

gate "tier-1: release build" cargo build --release

gate "tier-1: test suite" cargo test -q

# Backends: tier-1 under forced-scalar, forced-avx2 and auto dispatch.
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
# iteration, in serial, master, ring and tree mode. That gate is left
# out of the debug suite, where it took minutes per backend; the
# release run checks the same property. `--no-fail-fast` runs every
# test binary of the suite past a failing one.
core_tests=()
for t in crates/core/tests/*.rs; do
  t="$(basename "$t" .rs)"
  [ "$t" = steady_state_allocs ] || core_tests+=(--test "$t")
done
backend_suite() {
  export PDNN_BACKEND="$1"
  local rc=0
  cargo test -q --no-fail-fast -p pdnn-tensor -p pdnn-dnn || rc=1
  cargo test -q --no-fail-fast -p pdnn-core --lib "${core_tests[@]}" || rc=1
  cargo test -q -p pdnn-core --doc || rc=1
  return "$rc"
}
cpu_has() { grep -qw "$1" /proc/cpuinfo 2>/dev/null; }
backend_passes=(scalar)
if cpu_has avx2 && cpu_has fma; then
  backend_passes+=(avx2)
else
  echo "avx2+fma unavailable; skipping the PDNN_BACKEND=avx2 pass"
fi
backend_passes+=(auto)
for b in "${backend_passes[@]}"; do
  gate "backends: suite under PDNN_BACKEND=$b" backend_suite "$b"
  gate "backends: steady_state_allocs under PDNN_BACKEND=$b" \
    env PDNN_BACKEND="$b" cargo test -q --release -p pdnn-core --test steady_state_allocs
done

# Identity: run_digest against results/run_digest.txt, per backend.
# One hash line per trainer configuration (theta bits, stats, per-rank
# telemetry, comm events). A refactor must leave every line equal; a
# change that means to move one regenerates the file and says which
# lines moved and why. Every backend must reproduce the file byte for
# byte (GEMM chains and the vmath exp/ln are IEEE operations in a fixed
# order). Training calls no libm; only the corpus generator's
# Prng::normal/log_normal do, so on a host whose libm rounds ln/exp
# differently first regenerate at the parent commit.
digest() {
  cargo build -q --release --example run_digest
  PDNN_BACKEND="$1" cargo run -q --release --example run_digest | diff results/run_digest.txt - \
    || { echo "run_digest under PDNN_BACKEND=$1 differs from results/run_digest.txt; if intended, regenerate with:" >&2
         echo "  cargo run --release --example run_digest > results/run_digest.txt" >&2; exit 1; }
  echo "run_digest: identical under PDNN_BACKEND=$1"
}
digest_backends=(scalar auto)
if cpu_has avx2 && cpu_has fma; then digest_backends+=(avx2); fi
for b in "${digest_backends[@]}"; do
  gate "identity: run_digest under PDNN_BACKEND=$b" digest "$b"
done

# exp within 2 ulp and sigmoid within 3 ulp of f64 libm over every f32
# pattern; the test splits the sweep over all available cores.
gate "numerics: exhaustive f32 exp/sigmoid sweep (all 2^32 inputs)" \
  cargo test -q --release --test vmath_accuracy -- --ignored

gate "style: rustfmt" cargo fmt --check

gate "style: clippy (workspace)" cargo clippy --workspace --all-targets -- -D warnings

gate "static analysis: pdnn-lint" cargo run -q -p pdnn-lint

gate "docs: rustdoc, warnings denied" \
  env RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

# Public API: one line per `pub` item reachable from a crate root
# (`pdnn-lint --api`), against results/public_api.txt, so every change
# shows its API delta. A change that means to move it regenerates the
# file and says which lines moved.
api_listing() {
  cargo run -q -p pdnn-lint -- --api | diff results/public_api.txt - \
    || { echo "public API differs from results/public_api.txt; if intended, regenerate with:" >&2
         echo "  cargo run -q -p pdnn-lint -- --api > results/public_api.txt" >&2; exit 1; }
  echo "public API: identical to results/public_api.txt"
}
gate "api: public-API listing" api_listing

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
protomc() {
  cargo run -q --release -p pdnn-protomc
  local pm_report=results/protomc_report.json
  grep -q '"findings": 0,' "$pm_report" \
    || { echo "protomc report shows property violations" >&2; exit 1; }
  grep -q '"reduction_ok": true,' "$pm_report" \
    || { echo "protomc partial-order reduction disagrees with the full exploration" >&2; exit 1; }
  grep -q '"decentral": {"findings": 0,' "$pm_report" \
    || { echo "protomc masterless (ring/tree) worlds show property violations" >&2; exit 1; }
  grep -q '"mode": "ring", "ranks": 4, "kill_placements": 8,' "$pm_report" \
    || { echo "protomc decentral recovery model did not explore the 4-rank ring kill placements" >&2; exit 1; }
  local pm_muts pm_caught
  pm_muts="$(sed -n 's/.*"mutations": \([0-9]*\),.*/\1/p' "$pm_report")"
  pm_caught="$(sed -n 's/.*"caught": \([0-9]*\),.*/\1/p' "$pm_report" | head -n1)"
  [ -n "$pm_muts" ] && [ "$pm_muts" -ge 33 ] && [ "$pm_caught" = "$pm_muts" ] \
    || { echo "protomc mutation self-test: $pm_caught/$pm_muts caught (need all of >= 33)" >&2; exit 1; }
  grep -q '"conformance": {"unmapped": 0, "accepted": 5,' "$pm_report" \
    || { echo "protomc trace conformance: a real training trace did not conform" >&2; exit 1; }
  echo "protomc: $pm_caught/$pm_muts mutations caught, 5/5 traces conform"
}
gate "protocol: pdnn-protomc model check + mutation self-test + trace conformance" protomc

# The masterless contract end to end (bit-determinism, byte gates,
# codec parity, peer-coordinated kill-and-recover in ring and tree
# modes), then the CLI trainer under --sync ring must actually run
# masterless.
gate "sync strategies: masterless suite" \
  cargo test -q --release -p pdnn-core --test sync_strategies
ring_smoke() {
  local ring_out
  ring_out="$(cargo run -q --release --bin pdnn-train -- --workers 4 --sync ring --iters 2 --utterances 48)"
  echo "$ring_out" | grep -q "peer ranks, ring allreduce sync" \
    || { echo "pdnn-train --sync ring did not run in masterless ring mode" >&2; exit 1; }
}
gate "sync strategies: trainer ring smoke" ring_smoke

# Miri interprets the safe packing and scalar-kernel paths, and the
# one tile and B^T bodies over emulated lanes (`gemm::kernel::tests`),
# with full UB checking. SIMD kernel tests are excluded by the filters
# (runtime CPU detection and vendor intrinsics are outside Miri's
# remit).
miri() {
  if cargo +nightly miri --version >/dev/null 2>&1; then
    cargo +nightly miri test -q -p pdnn-tensor --lib -- \
      gemm::pack gemm::kernel::scalar gemm::kernel::elementwise gemm::kernel::tests blas1
  else
    echo "miri is not installed for the nightly toolchain; skipping"
    echo "(offline image cannot add rustup components; gate runs where miri is available)"
  fi
}
gate "kernel safety: miri (pack / scalar-kernel / emulated-body tests)" miri

# The kernels are safe Rust; their `unsafe` is the per-ISA `mem` loads
# and stores and the token-guarded dispatch calls (lint l7). ASan
# catches any out-of-bounds access those might still make, on exactly
# the adversarial shapes the fuzz sweep and the wire-codec parity sweep
# drive through every ISA. Separate target dir so sanitized artifacts
# never mix with the normal cache.
asan() {
  if [ "$(uname -m)" = "x86_64" ] && cargo +nightly --version >/dev/null 2>&1; then
    RUSTFLAGS="-Zsanitizer=address" CARGO_TARGET_DIR=target/asan \
      cargo +nightly test -q -p pdnn-tensor --test backend_parity --test kernel_fuzz \
      --test codec_parity --target x86_64-unknown-linux-gnu
  else
    echo "nightly toolchain or x86_64 target unavailable; skipping the sanitizer smoke"
  fi
}
gate "kernel safety: AddressSanitizer smoke (parity + fuzz sweeps)" asan

gate "fault tolerance: mpisim failure-injection suite" \
  cargo test -q --release --test failure_injection

gate "fault tolerance: core recovery suite (kill, re-shard, resume)" \
  cargo test -q --release -p pdnn-core --test fault_tolerance

recovery_smoke() {
  # Capture first (grep -q would SIGPIPE the example under pipefail).
  local smoke_out
  smoke_out="$(cargo run -q --release --example fault_recovery)"
  echo "$smoke_out" | grep -q "fault recovery OK: dead_ranks=\[1\] recoveries=1 iters=3" \
    || { echo "fault_recovery smoke did not report a clean recovery" >&2; exit 1; }
}
gate "fault tolerance: kill-and-recover smoke (checkpoint restore)" recovery_smoke

# benchmark/ builds against the public API (MR, NR,
# ComputeBackend::acc_f32, GemmOp::packed_*): an API change that breaks
# it, or a kernel change that fails one of its output checks, must fail
# here rather than only in a later benchmark run.
# The offline build rewrites benchmark/Cargo.lock (it lacks pdnn-obs
# under pdnn-dnn and still names pdnn-bgq), and benchmark/ is frozen:
# the file is saved first and put back when the gate's subshell exits,
# on success and on failure alike.
bench_smoke() {
  local bench_out lock=benchmark/Cargo.lock saved
  saved="$(mktemp)"
  cp "$lock" "$saved"
  trap "cp '$saved' '$lock'; rm -f '$saved'" EXIT
  bench_out="$(benchmark/run.sh --smoke)" \
    || { echo "$bench_out" >&2; echo "benchmark smoke run exited non-zero" >&2; exit 1; }
  echo "$bench_out" | grep -q ": failed 0 of attempted " \
    || { echo "$bench_out" >&2; echo "benchmark smoke run reports failed operations" >&2; exit 1; }
  echo "benchmark smoke: failed 0"
}
gate "benchmark: frozen harness smoke run" bench_smoke

echo "== tracked numbers (print-only, no gate) =="
scripts/tracked_numbers.sh

if [ "${#failures[@]}" -gt 0 ]; then
  echo "verify: ${#failures[@]} gate(s) failed:" >&2
  printf '  %s\n' "${failures[@]}" >&2
  exit 1
fi
echo "verify: OK"
