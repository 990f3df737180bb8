#!/usr/bin/env bash
# Print every tracked number of ROADMAP.md, each by the method the
# ROADMAP states for it, over the files git tracks plus the untracked
# ones it does not ignore, so new files count before they are staged.
# Print-only: it gates nothing. Run from anywhere:
# scripts/tracked_numbers.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test lines of the given files: each file counts up to its first
# `#[cfg(test)]` line.
nontest() {
  [ "$#" -gt 0 ] || { echo 0; return; }
  awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }' "$@"
}

# Every tracked line of the given files.
total() {
  [ "$#" -gt 0 ] || { echo 0; return; }
  cat "$@" | wc -l | tr -d ' '
}

# Tracked and untracked-but-not-ignored files matching the pathspecs.
files() {
  git ls-files --cached --others --exclude-standard -- "$@"
}

# `.rs` files matching the pathspecs, minus `benchmark/`, every
# `tests/` directory and `run_digest.rs`.
sources() {
  files "$@" | grep -v -e '^benchmark/' -e '/tests/' -e '^tests/' -e 'run_digest\.rs$' || true
}

mapfile -t workspace < <(sources '*.rs')
mapfile -t core < <(files 'crates/core/src/*.rs')
echo "workspace non-test .rs lines: $(nontest "${workspace[@]}")"
echo "pdnn-core non-test lines: $(nontest "${core[@]}")"

# The two checker crates: every tracked `.rs` line (src, tests,
# benches), and the non-test lines of their sources.
all=0
src=0
parts=()
for c in lint protomc; do
  mapfile -t every < <(files "crates/$c/*.rs")
  mapfile -t srcs < <(sources "crates/$c/*.rs")
  n=$(total "${every[@]}")
  all=$((all + n))
  src=$((src + $(nontest "${srcs[@]}")))
  parts+=("$c $n")
done
joined=$(printf ' / %s' "${parts[@]}")
echo "checker crates: $all lines all told (${joined:3}), $src non-test"

echo "pdnn-lint: allow( sites: $(files '*.rs' | xargs grep -hF 'pdnn-lint: allow(' | wc -l | tr -d ' ')"

coll=crates/mpisim/src/collectives.rs
echo "mpisim/collectives.rs: $(total "$coll") lines ($(nontest "$coll") non-test)"

mapfile -t gemm_driver < <(files crates/tensor/src/gemm/mod.rs crates/tensor/src/gemm/prepacked.rs crates/tensor/src/gemm/driver.rs)
echo "GEMM driver (gemm/{mod,prepacked,driver}.rs): $(nontest "${gemm_driver[@]}") non-test lines"

# The GEMM kernels, each file by name (its path under kernel/, less
# `.rs`), then the total.
kdir=crates/tensor/src/gemm/kernel
mapfile -t kernel < <(files "$kdir/*.rs" | sort)
kparts=()
for f in "${kernel[@]}"; do
  name=${f#"$kdir/"}
  kparts+=("${name%.rs} $(nontest "$f")")
done
kjoined=$(printf ', %s' "${kparts[@]}")
echo "gemm/kernel/** non-test lines: $(nontest "${kernel[@]}") (${kjoined:2})"

mapfile -t crate_srcs < <(files 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' | sort -u)
pub_re='^\s*pub (fn|struct|enum|trait|type|const|static|mod|use) '
echo "public-API proxy (pub declarations in crates/*/src): $(cat "${crate_srcs[@]}" | grep -cE "$pub_re")"
echo "public-API listing (results/public_api.txt, pdnn-lint --api): $(total results/public_api.txt) items"
