#!/usr/bin/env bash
# Print the vector-instruction sequence of every GEMM kernel fn and
# kernel-table entry in pdnn-tensor's release assembly, one block per
# function, for diffing two commits. Print-only: it gates nothing.
#
#   scripts/kernel_asm.sh > after.txt     # at the change
#   (cd ../parent && scripts/kernel_asm.sh) > before.txt
#   diff before.txt after.txt
#
# The lib is built with `--emit asm -C codegen-units=1` (one .s file)
# into its own target directory, target/kernel-asm, so the main build
# cache is untouched. Within a function only instructions on vector or
# mask registers, and calls into other pdnn-tensor fns, are kept; local
# labels, constant-pool labels, symbol hash suffixes and panic location
# constants are stripped, and the blocks are sorted, so what a diff
# shows is the vector dataflow and the registers and addresses it uses,
# not where LLVM placed a function.
set -euo pipefail
cd "$(dirname "$0")/.."

target="$PWD/target/kernel-asm"
CARGO_TARGET_DIR="$target" cargo rustc -q --release -p pdnn-tensor --lib -- \
  --emit asm -C codegen-units=1
# The newest one: cargo leaves a fresh build's .s in place.
asm=$(ls -t "$target"/release/deps/pdnn_tensor-*.s | head -n1)

awk '
# Legacy Rust symbol `_ZN<len><part>...17h<hash>E` to `a::b::c`.
function demangle(sym,    out, n, part) {
  if (sym !~ /^_ZN/) return sym
  sym = substr(sym, 4)
  out = ""
  while (match(sym, /^[0-9]+/)) {
    n = substr(sym, 1, RLENGTH) + 0
    part = substr(sym, RLENGTH + 1, n)
    sym = substr(sym, RLENGTH + 1 + n)
    if (length(part) == 17 && part ~ /^h[0-9a-f]+$/) break
    out = out (out == "" ? "" : "::") part
  }
  gsub(/\$LT\$/, "<", out); gsub(/\$GT\$/, ">", out)
  gsub(/\$u20\$/, " ", out); gsub(/\$C\$/, ",", out)
  gsub(/\.\./, "::", out)
  return out
}
# A function label starts a block; keep the GEMM kernels and the
# kernel-table entries.
# Each kept function is one line of the output, its instructions
# joined by \001, so that `sort` orders whole blocks.
function flush() {
  if (keep) print block "\001"
  keep = 0
}
/^[_A-Za-z][_A-Za-z0-9.$]*:/ && $0 !~ /^\.L/ {
  flush()
  name = demangle(substr($1, 1, length($1) - 1))
  keep = name ~ /gemm::kernel::(x86|neon|scalar)::/ || name ~ /gemm::dispatch::Kernels::/
  block = "== " name
  next
}
/^\t\.cfi_endproc/ { flush(); next }
!keep { next }
# A call or jump into another pdnn-tensor fn (the kernel a table entry calls).
/^\t(call|jmp)/ && $2 ~ /^_ZN11pdnn_tensor/ {
  block = block "\001  " $1 " " demangle($2)
  next
}
# An instruction on a vector (xmm/ymm/zmm) or mask (k) register, or a
# v-prefixed one (vzeroupper).
/^\t[a-z]/ && ($1 ~ /^v/ || $0 ~ /%[xyz]mm[0-9]|%k[0-7]/) {
  line = $0
  sub(/^\t/, "", line)
  gsub(/\.LBB[0-9_]+/, ".LBB", line)
  gsub(/\.LCPI[0-9_]+/, ".LCPI", line)
  gsub(/\.Lanon\.[0-9a-f.]+/, ".Lanon", line)
  gsub(/\.Lalloc_[0-9a-f]+/, ".Lalloc", line)
  gsub(/\t/, " ", line)
  block = block "\001  " line
}
END { flush() }
' "$asm" | LC_ALL=C sort | tr '\001' '\n'
