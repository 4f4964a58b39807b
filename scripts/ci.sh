#!/usr/bin/env bash
# Tier-1 verification, exactly what CI runs. Fully offline: the
# workspace has no external dependencies (see the workspace Cargo.toml
# for how to restore the optional proptest/criterion extras).
#
#   scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo clippy -p lexequal-service -p lexequal-mdb -D warnings"
# The serving and snapshot crates get their own pass so a crate-local
# change can't hide behind a cached workspace run.
cargo clippy -p lexequal-service -p lexequal-mdb --all-targets --offline -- -D warnings

echo "== cargo build --release"
cargo build --workspace --release --offline

echo "== cargo test"
cargo test --workspace --offline -q

echo "== evented serving: framing + 1024-connection soak"
cargo test -p lexequal-service --offline -q --test framing --test evented_soak

echo "== snapshot persistence: round-trip equivalence + corrupt files + CLI"
cargo test -p lexequal-service --offline -q --test snapshot_roundtrip --test cli_flags
cargo test -p lexequal-mdb --offline -q snapshot

echo "== mmap store: hostile-binary battery + bit-identical round trip"
# The binary format's own pass (the serving crate, where mmapstore
# lives, had its clippy pass near the top): the corruption battery
# (truncation sweep, header byte sweep, OOB/misaligned sections, checksum
# flips — named errors, zero panics), and the round-trip suite (save →
# mmap-load → full MATCH battery vs the rebuilt store, both serve modes,
# replica raw-transfer).
cargo test -p lexequal-service --offline -q --test mmap_corruption --test mmap_roundtrip

echo "== replication: WAL corruption matrix + primary/replica e2e"
# repl_e2e includes the kill-primary / restart-from-snapshot+WAL cycle
# through the real binary, asserting byte-identical MATCH answers.
cargo test -p lexequal-service --offline -q --test wal_recovery --test repl_e2e

echo "== WAL compaction: crash-state battery + bounded-log e2e"
# wal_compaction replays recovery from every on-disk state the
# checkpoint/rename/truncate protocol can crash in; compaction_e2e
# soaks a capped WAL through >=3 cycles with a live replica and walks
# SIGKILL across the compactor's cycle through the real binary.
cargo test -p lexequal-service --offline -q --test wal_compaction --test compaction_e2e

echo "== untagged queries: script routing + g2p + wire/replica e2e"
# clippy over the new modules specifically, then the pinned goldens
# (fan-out union, byte-identical unambiguous answers, NORESOURCE,
# resolved-tag replication) over real sockets in both serve modes.
cargo clippy -p lexequal-g2p --all-targets --offline -- -D warnings
cargo test -p lexequal-g2p --offline -q
cargo test -p lexequal-service --offline -q --test untagged

echo "== batched verification: differential suite on both SIMD backends"
# The batched kernel must return bit-identical verdicts to the scalar
# Verifier on every access path, batch width and backend. The second
# pass re-runs the suite in a fresh process with the runtime dispatch
# pinned to the scalar DP column (the OnceLock caches the level per
# process, so the override needs its own invocation).
cargo clippy -p lexequal-matcher -p lexequal --all-targets --offline -- -D warnings
cargo test -p lexequal --offline -q --test verify_batch_equiv --test verify_zero_alloc
LEXEQUAL_FORCE_SCALAR=1 cargo test -p lexequal --offline -q --test verify_batch_equiv

echo "== BK-tree: Myers-vs-DP differential + the cluster ball"
# The bit-parallel probe may change how fast the tree is built and
# walked, never the tree: unit tests (fallback lengths, duplicate
# chains), the node-for-node differential over the paper corpus and the
# 20 418-name preload set, and bktree == scan under every cost regime.
# A store keys the tree on the cluster strings: pipeline_consistency
# holds what it hands the verifier to the ball measured row by row with
# the DP (finite radius in every regime, the same rows as the q-gram
# path) and pins how small that ball is on the preload set at e = 0.35.
# (The socket smoke run that drives this path of the *release* daemon
# is the one run further down, after the flat-store step.)
cargo test -p lexequal-matcher --offline -q bktree
cargo test -p lexequal-bench --offline -q --test bktree_differential --test pipeline_consistency
cargo test -p lexequal --offline -q --test verify_batch_equiv batched_bktree

echo "== q-gram: flat-vs-reference differential + zero false dismissals"
# The flat index may change how the candidates are found, never which:
# unit tests (posting widths, an index over no row, overflow list,
# long/empty/repeated names, the confirmed ball at any coverage), the
# call-for-call differential against the kept hash-map algorithm over the
# paper corpus and the preload set — keyed on phoneme ids and, projected,
# on the cluster strings a store indexes — qgram == scan under every cost
# regime, the selectivity pin (posting survivors <= n / 8, the ball
# <= n / 64 at e = 0.35), allocation counts and the build's peak heap
# (no more than the finished index plus 64 KiB: every posting is written
# where it stays), Table 2 at full size with its own exact-answer check;
# the socket smoke run with this path's build in it follows the
# flat-store step below.
cargo test -p lexequal-matcher --offline -q qgram
cargo test -p lexequal --offline -q qgram
cargo test -p lexequal-bench --offline -q --test qgram_differential --test pipeline_consistency
cargo run --release -p lexequal-bench --offline --bin table2_qgram \
    | grep "false dismissals vs exact answer: scan 0, join 0"

echo "== checkpoint: byte-identical image, commits flow, bounded memory"
# A checkpoint is an O(1) cut under the commit lock plus a chunked,
# lock-free stream of the store's immutable prefix. checkpoint_stream
# holds the streamed image to the old whole-store encoder byte for byte,
# blocks the sink mid-file and requires commit_add and STATS to return,
# replays the WAL tail over checkpoints cut under an ADD storm, races
# two savers on one path, and bounds the writer's live heap with a
# counting allocator; the crash matrix and the e2e suite kill a writer
# mid-stream and restart; the corruption battery reads what the new
# writer wrote. (write_mix's compaction cycles are driven by the one
# smoke run after the flat-store step.)
cargo test -p lexequal-service --offline -q --test checkpoint_stream \
    --test wal_compaction --test compaction_e2e --test mmap_corruption

echo "== coverage: candidate sets independent of cover + paths survive ADD and restart"
# A declared access path answers exactly whatever its index covers: the
# rows past the index are put to the path's own pair-wise rule. The three
# differential/consistency suites walk every path, both q-gram modes,
# q = 1..4, four thresholds and three cost regimes through indices over
# 0, 1, n/3, n-1 and n rows (ids and verification counts, paper corpus
# and preload set); shard_equivalence runs an ADD storm beside searches
# beside covers that never stop; checkpoint_stream parks a cover in its
# first chunk and requires BUILD ALL, commit_add, STATS and every path's
# MATCH to return; the e2e regressions restart a daemon after ADDs + a
# compaction cycle + SIGKILL, and a replica after Op::Build then Op::Add,
# and require method=<requested> with the oracle's ids (the parent said
# NOTBUILT); cli_flags pins preloaded -> serving on -> covered.
# compaction_e2e also holds the door every build spec comes in through:
# BUILD QGRAM 5 STRICT is an ERR that logs, applies and ships nothing
# (it used to kill the shard workers for good, restart after restart),
# and a log already holding one is a named start-up error.
cargo test -p lexequal-bench --offline -q --test pipeline_consistency \
    --test qgram_differential --test bktree_differential
cargo test -p lexequal --offline -q --test verify_zero_alloc
cargo test -p lexequal-service --offline -q --test shard_equivalence \
    --test checkpoint_stream --test compaction_e2e --test repl_e2e --test cli_flags

echo "== bulk load: generator pin + chunk seams + allocation pins + preload ceiling"
# Every way into the store is one loader, the prefix reader run
# backwards. The lexicon's pair enumerator is held to the nested loop it
# replaced, entry for entry, and sized from the names there are (a target
# past the lexicon's 2 004 918 used to abort on a 224 GB allocation);
# bulk_load fills stores through every door across every chunk seam and
# stripe phase, on empty, non-empty and image-based stores, and holds
# each to the store `insert` fills row by row (entries, four paths
# before and after a cover, image bytes), ends a load at a refused row,
# and counts the loading thread's allocations (none a name, none an ADD);
# the core pins do the same for chunks into one store; the replica's
# snapshot delta is one load; checkpoint_stream parks a load mid-way and
# requires SAVE to return with the rows published before it, commit_add
# to follow it, and the next SAVE to hold every row; cli_flags reads the
# new start-up line.
cargo test -p lexequal-lexicon --offline -q synthetic
cargo test -p lexequal --offline -q --test verify_zero_alloc
cargo test -p lexequal --offline -q --lib -- store::tests::a_chunk_takes
cargo test -p lexequal-service --offline -q --test bulk_load
cargo test -p lexequal-service --offline -q --lib -- a_snapshot_delta_is_one_load
cargo test -p lexequal-service --offline -q --test checkpoint_stream a_save_neither_waits
cargo test -p lexequal-service --offline -q --test cli_flags preload_listens

echo "== flat store: allocation pins + base/tail equivalence + oversize ADD"
# Rows are flat columns: an immutable base read in place out of a loaded
# image plus an owned tail, behind one accessor. verify_zero_alloc pins
# the layout (a bulk load of n and of 2n names allocates the same, a
# base or a phonetic index a handful whatever n, a scan over base + tail
# what a scan over owned rows does); the store's unit tests read across
# the seam and refuse a row too long to save; mmap_roundtrip holds a
# loaded-then-grown store to a bulk-loaded one (1-3 shards, n % N != 0,
# ids and verified on all four paths, uncovered, covered, replica, save
# and reload, image bytes); compaction_e2e's oversize ADD is refused
# before it is logged, and SAVE and COMPACT keep working; then the
# corruption battery, unedited in every check it makes of a hostile
# image, and the round-trip suite again as a whole.
cargo test -p lexequal --offline -q --test verify_zero_alloc
cargo test -p lexequal --offline -q --lib -- rows:: store::
cargo test -p lexequal-service --offline -q --test compaction_e2e an_oversize_add
cargo test -p lexequal-service --offline -q --test mmap_corruption --test mmap_roundtrip
# The socket smoke run, once, for this step and the BK-tree, q-gram,
# checkpoint and coverage steps above: lexbench drives the *release*
# daemon through all four workloads (the three index builds, write_mix's
# compaction cycles, a first probe that lands on a daemon still
# covering) and checks each reply against its oracle.
bash crates/lexbench/run.sh --smoke

echo "== embedding prefilter: crate pass + differential suite + A/B smoke"
# The embedding crate gets its own clippy pass; the differential suite
# (screen on/off, byte-identical verdicts across widths, backends and
# access paths) runs on both the SIMD and forced-scalar dispatch; the
# A/B smoke run must report embed rejections without changing a single
# answer (the bench asserts ids-identical internally).
cargo clippy -p lexequal-embed --all-targets --offline -- -D warnings
cargo test -p lexequal-embed --offline -q
cargo test -p lexequal --offline -q --test verify_batch_equiv
LEXEQUAL_FORCE_SCALAR=1 cargo test -p lexequal --offline -q --test verify_batch_equiv
cargo run --release -p lexequal-service --offline --bin loadgen -- \
    --prefilter-bench --size 2000 --pool 16 \
    --prefilter-out results/prefilter_bench_ci.json
rm -f results/prefilter_bench_ci.json

echo "== replication bench (small run; full size via --size/--repl-ops)"
cargo run --release -p lexequal-service --offline --bin loadgen -- \
    --repl-bench --size 2000 --repl-ops 200 --repl-out results/repl_bench_ci.json
rm -f results/repl_bench_ci.json

echo "== snapshot cold-start timing (small run; full size via --size)"
# Scratch dir: --snapshot-bench also writes a sibling mmap_bench.json,
# and the CI smoke run must not clobber the full-size artifacts.
mkdir -p results/ci_scratch
cargo run --release -p lexequal-service --offline --bin loadgen -- \
    --snapshot-bench --size 5000 --snapshot-out results/ci_scratch/snapshot_bench_ci.json
rm -rf results/ci_scratch

echo "== compaction soak (small run; full size via --size/--compaction-ops)"
# Self-checking: the bench exits non-zero if the replica ends lagged or
# any battery answer differs between primary and replica.
cargo run --release -p lexequal-service --offline --bin loadgen -- \
    --compaction-bench --size 1500 --compaction-ops 600 --wal-max-bytes 16384 \
    --compaction-out results/compaction_bench_ci.json
rm -f results/compaction_bench_ci.json

echo "== untagged bench (small run; full size via --size/--ops)"
cargo run --release -p lexequal-service --offline --bin loadgen -- \
    --untagged-bench --size 2000 --ops 100 \
    --untagged-out results/untagged_bench_ci.json
rm -f results/untagged_bench_ci.json

echo "== cargo bench --no-run"
# Compile-checks the bench harnesses. The criterion micro-benchmarks are
# behind required-features = ["criterion-benches"], so without the
# restored criterion dependency this covers the bench *binaries* only.
cargo bench --workspace --offline --no-run

echo "ci: all green"
