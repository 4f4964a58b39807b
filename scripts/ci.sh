#!/usr/bin/env bash
# Tier-1 verification, exactly what CI runs. Fully offline: the
# workspace has no external dependencies.
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

echo "== no cargo features, no test gates, no proptest"
# Every test runs under a plain `cargo test`; property tests run on
# `lexequal_phoneme::testkit`, which needs no crate the offline build
# cannot fetch.
if grep -nE '^\[features\]|required-features' Cargo.toml crates/*/Cargo.toml; then
    echo "ci: a manifest declares a cargo feature or a required-features gate" >&2
    exit 1
fi
if grep -rln --include='*.rs' --include='*.toml' --exclude-dir=target --exclude-dir=.git \
    --exclude-dir=.bench_build proptest . | grep -v '^\./crates/lexbench/'; then
    echo "ci: the files above name proptest" >&2
    exit 1
fi

echo "== the daemon keeps no embedding"
# The embedding screen is retired (DESIGN §5j): no row, image section or
# kernel stage carries one, and the serving crate names none of it.
if grep -rnE 'EMBED_DIM|lexequal_embed|embed_for' crates/service/src; then
    echo "ci: crates/service/src names the retired embedding (lines above)" >&2
    exit 1
fi

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc -D warnings (a doc link to a deleted item fails)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== cargo build --release"
cargo build --workspace --release --offline

echo "== the examples run in release, not only compile"
# They drive `MatchConfig` and `NameStore` the way a library user does; a
# panic or a non-zero exit fails the step.
for example in quickstart books_catalog author_join phonetic_search tune_parameters; do
    echo "-- $example"
    cargo run --release --offline -q -p lexequal-bench --example "$example" > /dev/null
done

echo "== cargo test"
cargo test --workspace --offline -q

echo "== batched verification on the forced-scalar dispatch"
# The runtime dispatch is cached per process (a OnceLock), so holding the
# batched kernel to the scalar Verifier on the scalar DP column needs a
# process of its own.
LEXEQUAL_FORCE_SCALAR=1 cargo test -p lexequal --offline -q --test verify_batch_equiv

echo "== the store concurrency suites again, in release"
# The searches, appends, covers and direct reads these race interleave at
# other speeds when optimised: appends and searches run on callers'
# threads under the one store lock. The lock discipline (the store's
# module docs, crates/service/src/shard.rs) must hold at both.
cargo test --release -p lexequal-service --offline -q \
    --test shard_equivalence --test cover_on_use --test checkpoint_stream --test bulk_load

echo "== Table 2 at full size: zero false dismissals"
cargo run --release -p lexequal-bench --offline --bin table2_qgram \
    | grep "false dismissals vs exact answer: scan 0, join 0"

echo "== lexbench smoke: the release daemon over a socket, oracle-checked"
# All four workloads (qgram_hot and phonidx_cold each cover the one path
# they name on its first request, scan_hot and write_mix cover nothing;
# write_mix's compaction cycles and SIGKILL + replay), every reply checked
# against the in-process oracle.
bash crates/lexbench/run.sh --smoke

echo "== line counts (whole .rs files, bin/ included; ROADMAP item 3's exit criterion, its crate exit for crates/embed among them)"
for dir in crates/service/src crates/core/src crates/embed/src; do
    echo "$dir $(find "$dir" -name '*.rs' -exec cat {} + | wc -l)"
done
echo "crates/mdb/src $(find crates/mdb/src -name '*.rs' -exec cat {} + | wc -l) (ROADMAP item 15's exit: below 5 356)"
for file in crates/service/src/shard.rs crates/core/src/rows.rs crates/service/src/event_loop.rs; do
    echo "$file $(wc -l < "$file")"
done

echo "== benchmark trajectory: the newest BENCH_*.json, printed, not gated (bounded and reported metrics)"
newest="$(printf '%s\n' BENCH_*.json | sort -V | tail -n 1)"
if [[ -f "$newest" ]]; then
    jq -r --arg file "$newest" '
        "\($file): parent \(.parent[0:12]) -> change \(.change[0:12])"
          + (if .change_tree == null then "" else " + tree \(.change_tree[0:12]) (\(.change_diffstat | ltrimstr(" ")))" end)
          + ", \(.pairs) pairs",
        (.summary | to_entries[] | .key as $w
         | "  \($w) failures: \(.value.fail_share.verdict)",
           (.value.metrics | to_entries[]
            | "  \($w) \(.key): median \(.value.parent.median) -> \(.value.change.median) (\(.value.verdict // "no bound"))"
              + (if .value.claim == null then ""
                 else "; wins/losses/ties \(.value.wins)/\(.value.losses)/\(.value.ties), claim: \(.value.claim)" end)))' \
        "$newest"
fi

echo "== benchmark trajectory from BENCH_31: within-pair ratios chained, hosts and gaps flagged, printed, not gated (scripts/trajectory.jq)"
prev=""
for point in $(printf '%s\n' BENCH_*.json | sort -V); do
    number="${point//[!0-9]/}"
    (( number >= 31 )) || continue
    parent="$(jq -r .parent "$point")"
    # Commits from the previous point's parent to this one's: more than one
    # means a commit in between was never measured.
    gap=null
    if [[ -n $prev ]]; then
        gap="$(git rev-list --count "$prev..$parent" 2>/dev/null || echo null)"
    fi
    jq -c --arg file "$point" --argjson gap "$gap" \
        '{file: $file, gap: $gap, parent, kernel: .host.kernel, runs}' "$point"
    prev="$parent"
done | jq -s -r -f scripts/trajectory.jq

echo "ci: all green"
