#!/usr/bin/env bash
# Tier-1 verification, exactly what CI runs. Fully offline: the
# workspace has no external dependencies (see the workspace Cargo.toml
# for how to restore the optional proptest/criterion extras).
#
# Each thing runs once. What each suite holds is listed in README.md
# ("What tier-1 holds"); a step appears here a second time only when it
# runs under a different environment.
#
#   scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc -D warnings (a doc link to a deleted item fails)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== cargo build --release"
cargo build --workspace --release --offline

echo "== cargo test"
cargo test --workspace --offline -q

echo "== batched verification on the forced-scalar dispatch"
# The runtime dispatch is cached per process (a OnceLock), so holding the
# batched kernel to the scalar Verifier on the scalar DP column needs a
# process of its own.
LEXEQUAL_FORCE_SCALAR=1 cargo test -p lexequal --offline -q --test verify_batch_equiv

echo "== Table 2 at full size: zero false dismissals"
cargo run --release -p lexequal-bench --offline --bin table2_qgram \
    | grep "false dismissals vs exact answer: scan 0, join 0"

echo "== lexbench smoke: the release daemon over a socket, oracle-checked"
# All four workloads (the three index builds, write_mix's compaction
# cycles and SIGKILL + replay, a first probe that lands on a daemon still
# covering), every reply checked against the in-process oracle.
bash crates/lexbench/run.sh --smoke

echo "== cargo bench --no-run"
# Compile-checks the bench harnesses. The criterion micro-benchmarks are
# behind required-features = ["criterion-benches"], so without the
# restored criterion dependency this covers the bench *binaries* only.
cargo bench --workspace --offline --no-run

echo "== line counts (whole .rs files, bin/ included; ROADMAP item 2's exit criterion)"
for dir in crates/service/src crates/core/src; do
    echo "$dir $(find "$dir" -name '*.rs' -exec cat {} + | wc -l)"
done

echo "ci: all green"
