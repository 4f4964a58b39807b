#!/usr/bin/env bash
# The benchmark's one command: build lexequald and lexbench in release
# mode (offline, into $CARGO_TARGET_DIR or target/), then hand every
# argument to lexbench. See README.md beside this file.
#
#   bash crates/lexbench/run.sh --workload scan_hot --seed 1 --seconds 25 --trace 0
#   bash crates/lexbench/run.sh                  # every workload, then the traces
#   bash crates/lexbench/run.sh --repeat 2       # two sets and the noise report
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
cargo build --release --offline -p lexequal-service -p lexequal-lexbench \
    --bin lexequald --bin lexbench >&2
exec "${CARGO_TARGET_DIR:-target}/release/lexbench" "$@"
