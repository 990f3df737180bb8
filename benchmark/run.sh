#!/usr/bin/env bash
# Offline build + full benchmark run. Run from anywhere:
#   benchmark/run.sh                 full run at seed 2024
#   benchmark/run.sh --seed 7        another seed
#   benchmark/run.sh --smoke         1 round, shrunken corpora, < 15 s
# Extra arguments go to pdnn-benchmark (see `src/main.rs`).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
