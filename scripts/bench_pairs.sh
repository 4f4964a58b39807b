#!/usr/bin/env bash
# Alternating parent/change pairs of the repository's benchmark, recorded
# as one JSON trajectory point.
#
#   scripts/bench_pairs.sh <parent-rev> [pairs] [out]
#
# Builds <parent-rev> in a local clone (target/bench_pairs/<rev>/src, with
# its own CARGO_TARGET_DIR beside it) and the working tree as it stands,
# then runs, for every workload in BENCHMARK.json and every pair i = 1 ..
# pairs (default 3):
#
#   crates/lexbench/run.sh --workload W --seed i --seconds 25 --trace 0
#
# on both sides, parent first in odd pairs and change first in even ones.
# Writes <out> (default BENCH_pairs.json) at the repository root: both
# revisions — and, when the working tree differs from HEAD, `change_tree`
# (its `git write-tree`, taken through a scratch index) and
# `change_diffstat` (`git diff --shortstat` against HEAD) — host facts
# (nproc, CPU model, kernel, /proc/loadavg before and after every run,
# the first CPU's MHz and a SHA-256 of its flags line from /proc/cpuinfo,
# and the seconds one fixed calibration loop — SHA-256 over 256 MiB of
# /dev/zero, run by this script — took before the first run and after
# the last; none of them normalises or gates anything),
# every run's result line verbatim beside `reported`, the metrics lexbench
# printed on stdout that the result line does not carry (closed_ops_s,
# the closed/open_lo/open_hi p50 and p99, and on write_mix add_p50/p99_us
# and restart_ready_s). Per workload and metric, scripts/bench_summary.jq
# gives the medians and IQRs of both sides, a verdict against the
# relative bound BENCHMARK.json gives the metric (null for the reported
# ones, which hold none), the pair-by-pair record in the direction the
# metric calls better — `wins`, `losses` and `ties` (a tie, or a pair
# missing a side, counts for neither) — and a `claim`: "gain" only when
# wins >= ceil(0.9 x pairs), the medians differ, the better way, by more
# than the parent's IQR, and the workload's failure verdict is "no more
# failures"; "no gain" otherwise. The claim gates nothing. Needs bash,
# git and jq. Compile nothing else while it runs.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [[ $# -lt 1 || $# -gt 3 ]]; then
    echo "usage: scripts/bench_pairs.sh <parent-rev> [pairs] [out]" >&2
    exit 2
fi
parent_rev="$(git rev-parse --verify "$1^{commit}")"
pairs="${2:-3}"
out="${3:-BENCH_pairs.json}"
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "pairs must be a positive integer" >&2; exit 2; }
change_rev="$(git rev-parse HEAD)"
# The tree measured: the working tree as `git add -A` would stage it,
# written through a scratch index so the real one is left alone.
scratch_index="$(mktemp -d)"
GIT_INDEX_FILE="$scratch_index/index" git read-tree HEAD
GIT_INDEX_FILE="$scratch_index/index" git add -A
change_tree="$(GIT_INDEX_FILE="$scratch_index/index" git write-tree)"
change_diffstat="$(GIT_INDEX_FILE="$scratch_index/index" git diff --cached --shortstat HEAD)"
rm -rf "$scratch_index"
change_dirty=false
if [[ $change_tree == "$(git rev-parse 'HEAD^{tree}')" ]]; then
    change_tree="" change_diffstat=""
else
    change_dirty=true
fi

# The parent: a clone sharing this repository's objects, so nothing is
# registered in (or left behind by) this repository's .git.
work="target/bench_pairs/${parent_rev:0:12}"
parent_src="$root/$work/src"
parent_target="$root/$work/target"
if [[ ! -d "$parent_src/.git" ]]; then
    mkdir -p "$(dirname "$parent_src")"
    git clone --quiet --shared --no-checkout "$root" "$parent_src"
fi
git -C "$parent_src" checkout --quiet --force --detach "$parent_rev"

build() { # <checkout> [target dir]
    (cd "$1" && CARGO_TARGET_DIR="${2:-${CARGO_TARGET_DIR:-target}}" cargo build --release \
        --offline -q -p lexequal-service -p lexequal-lexbench --bin lexequald --bin lexbench)
}
echo "bench_pairs: building parent ${parent_rev:0:12}" >&2
build "$parent_src" "$parent_target"
echo "bench_pairs: building change ${change_rev:0:12}$($change_dirty && echo +dirty)" >&2
build "$root"

runs="$(mktemp)"
trap 'rm -f "$runs"' EXIT

# One fixed piece of CPU work, timed where it runs: in this script's own
# processes, touching no machine setting. Its drift between the start and
# the end of a run, and between points, says how much the host moved.
calibrate() {
    local start=$EPOCHREALTIME
    head -c 268435456 /dev/zero | sha256sum >/dev/null
    echo "$EPOCHREALTIME - $start" | awk '{ printf "%.3f", $1 - $3 }'
}
calibration_start="$(calibrate)"

run_one() { # <side> <pair> <workload>
    local side=$1 pair=$2 workload=$3 dir=$root target=${CARGO_TARGET_DIR:-target}
    if [[ $side == parent ]]; then dir=$parent_src target=$parent_target; fi
    local before after log status=0 line
    before="$(cat /proc/loadavg)"
    log="$(cd "$dir" && CARGO_TARGET_DIR="$target" bash crates/lexbench/run.sh \
        --workload "$workload" --seed "$pair" --seconds 25 --trace 0 2>/dev/null)" || status=$?
    after="$(cat /proc/loadavg)"
    line="$(grep '^{' <<<"$log" | tail -n 1 || true)"
    echo "bench_pairs: pair $pair $workload $side exit=$status" >&2
    # `reported`: the metric lines lexbench printed that the result line
    # does not carry, `  <workload> <metric> <value> <unit> (<lower|higher>
    # is better, ...)`.
    jq -cn --arg side "$side" --argjson pair "$pair" --arg workload "$workload" \
        --argjson exit "$status" --arg before "$before" --arg after "$after" --arg line "$line" \
        --arg log "$log" '
        ($line | if . == "" then {} else fromjson.metrics end) as $bounded
        | {workload: $workload, pair: $pair, side: $side, seed: $pair, exit: $exit,
           loadavg_before: $before, loadavg_after: $after,
           line: (if $line == "" then null else $line end),
           reported: ([$log | splits("\n")
               | capture("^  (?<w>\\S+) +(?<m>\\S+) +(?<v>\\S+) +(?<unit>\\S*) *\\((?<better>lower|higher) is better")
               | select(.w == $workload and $bounded[.m] == null)
               | {key: .m, value: {value: (.v | tonumber? // null), unit, better}}]
               | from_entries)}' >>"$runs"
}

mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then order=(parent change); else order=(change parent); fi
    for workload in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            run_one "$side" "$pair" "$workload"
        done
    done
done
calibration_end="$(calibrate)"

jq -s --slurpfile bench BENCHMARK.json \
    --arg parent "$parent_rev" --arg change "$change_rev" --argjson dirty "$change_dirty" \
    --arg tree "$change_tree" --arg diffstat "$change_diffstat" \
    --arg nproc "$(nproc)" --arg kernel "$(uname -r)" \
    --arg cpu "$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)" \
    --arg cpu_mhz "$(sed -n 's/^cpu MHz[[:space:]]*: //p' /proc/cpuinfo | head -n 1)" \
    --arg cpu_flags_sha256 "$(grep -m 1 '^flags' /proc/cpuinfo | sha256sum | cut -c 1-64)" \
    --arg calibration_start "$calibration_start" --arg calibration_end "$calibration_end" \
    --argjson pairs "$pairs" -f scripts/bench_summary.jq "$runs" >"$out"
echo "bench_pairs: wrote $out" >&2
