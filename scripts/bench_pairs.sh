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
# revisions, host facts (nproc, CPU model, kernel, /proc/loadavg before and
# after every run), every run's result line verbatim, and per workload and
# metric the medians and IQRs of both sides with a verdict against the
# relative bound BENCHMARK.json gives the metric (null where it gives
# none). Each bounded metric also gets its pair-by-pair record in the
# direction BENCHMARK.json calls better — `wins`, `losses` and `ties` (a
# tie, or a pair missing a side, counts for neither) — and a `claim`:
# "gain" only when wins >= ceil(0.9 x pairs), the medians differ, the
# better way, by more than the parent's IQR, and the workload's failure
# verdict is "no more failures"; "no gain" otherwise. The claim gates
# nothing. Needs bash, git and jq. Compile nothing else while
# it runs.
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
change_dirty=false
[[ -z "$(git status --porcelain --untracked-files=no)" ]] || change_dirty=true

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
    jq -cn --arg side "$side" --argjson pair "$pair" --arg workload "$workload" \
        --argjson exit "$status" --arg before "$before" --arg after "$after" --arg line "$line" \
        '{workload: $workload, pair: $pair, side: $side, seed: $pair, exit: $exit,
          loadavg_before: $before, loadavg_after: $after,
          line: (if $line == "" then null else $line end)}' >>"$runs"
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

jq -s \
    --slurpfile bench BENCHMARK.json \
    --arg parent "$parent_rev" --arg change "$change_rev" --argjson dirty "$change_dirty" \
    --arg nproc "$(nproc)" --arg kernel "$(uname -r)" \
    --arg cpu "$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)" \
    --argjson pairs "$pairs" '
    def quantile($q): sort as $s | ($s | length) as $n
        | if $n == 0 then null
          else (($n - 1) * $q) as $p | ($p | floor) as $i
            | $s[$i] + ($s[[$i + 1, $n - 1] | min] - $s[$i]) * ($p - $i) end;
    def summary: {median: quantile(0.5), iqr: (quantile(0.75) - quantile(0.25)), n: length};
    ($bench[0].end_to_end | map({key: .name, value: .}) | from_entries) as $bounds
    | map(. + {result: (.line | if . == null then null else fromjson end)}) as $runs
    | {
        parent: $parent, change: $change, change_dirty: $dirty,
        command: "crates/lexbench/run.sh --workload W --seed <pair> --seconds 25 --trace 0",
        pairs: $pairs,
        host: {nproc: ($nproc | tonumber), cpu: $cpu, kernel: $kernel},
        runs: ($runs | map(del(.result))),
        summary: ($runs | group_by(.workload) | map(
            . as $w
            | ($w | map(.result.metrics // {} | keys) | add // [] | unique) as $names
            | def fail_share($side): $w | map(select(.side == $side and .result != null)
                                           | .result.failed / .result.attempted) | summary;
            {key: $w[0].workload, value: (
                (fail_share("parent") as $p | fail_share("change") as $c
                    | {parent: $p, change: $c,
                       runs_without_result: ($w | map(select(.result == null)) | length),
                       verdict: (if $c.median == null or $p.median == null then null
                                 elif $c.median > $p.median then "more failures"
                                 else "no more failures" end)}) as $fails
              | {fail_share: $fails,
                metrics: ($names | map(. as $m | {key: $m, value: (
                    ($w | map(select(.side == "parent") | .result.metrics[$m].value // empty) | summary) as $p
                    | ($w | map(select(.side == "change") | .result.metrics[$m].value // empty) | summary) as $c
                    | $bounds[$m] as $b
                    | (if $p.median == null or $c.median == null or $p.median == 0 then null
                       else ($c.median - $p.median) / $p.median end) as $rel
                    | def value($pair; $side): $w
                        | map(select(.pair == $pair and .side == $side) | .result.metrics[$m].value)
                        | .[0];
                      ([range(1; $pairs + 1)] | map(value(.; "parent") as $pv | value(.; "change") as $cv
                        | if $b == null or $pv == null or $cv == null or $pv == $cv then "tie"
                          elif ($b.better == "lower") == ($cv < $pv) then "win"
                          else "loss" end)) as $outcomes
                    | ($outcomes | map(select(. == "win")) | length) as $wins
                    | (if $b.better == "lower" then $p.median - $c.median
                       else $c.median - $p.median end) as $gained
                    | {parent: $p, change: $c, relative_change: $rel,
                       better: ($b.better // null), bound: ($b.bound // null),
                       verdict: (if $b == null or $rel == null then null
                                 elif ($b.better == "lower" and $rel > $b.bound)
                                   or ($b.better == "higher" and -$rel > $b.bound) then "outside bound"
                                 else "within bound" end),
                       wins: (if $b == null then null else $wins end),
                       losses: (if $b == null then null
                                else $outcomes | map(select(. == "loss")) | length end),
                       ties: (if $b == null then null
                              else $outcomes | map(select(. == "tie")) | length end),
                       claim: (if $b == null or $rel == null then null
                               elif $fails.verdict == "no more failures"
                                 and $wins >= ($pairs * 0.9 | ceil) and $gained > $p.iqr then "gain"
                               else "no gain" end)})}) | from_entries)
              })})
            | from_entries)
      }' "$runs" >"$out"
echo "bench_pairs: wrote $out" >&2
