//! The benchmark's fixed vocabulary: workload names and their frozen
//! rates and limits, every end-to-end and per-layer metric with unit and
//! direction, and the `BENCHMARK.json` those tables render to.
//!
//! Later changes are judged by these names; nothing here is computed at
//! run time.

use lexequal::SearchMethod;

/// Names per synthetic corpus (paper §5 set; yields 20 418 names).
pub const CORPUS_TARGET: usize = 20_000;
/// Corpus size of a `--smoke` run.
pub const SMOKE_CORPUS_TARGET: usize = 2_000;
/// Threshold sent explicitly on every `MATCH`.
pub const THRESHOLD: f64 = 0.35;
/// Load-generator connections (and threads): `nproc` of the reference host.
pub const CONNECTIONS: usize = 2;
/// Queries in the hot pool — fits the daemon's 4096-entry transform cache.
pub const HOT_POOL: usize = 256;
/// Distinct queries in the cold pool — far past the cache's capacity.
pub const COLD_POOL: usize = 50_000;
/// WAL size that triggers a checkpoint-and-truncate cycle on `write_mix`.
pub const WAL_MAX_BYTES: u64 = 16_384;
/// Share of `write_mix` requests that are `ADD`s, in percent.
pub const ADD_PERCENT: usize = 20;
/// Daemon starts per run behind `setup_s` (median).
pub const SETUP_REPEATS: usize = 15;
/// Requests replayed in-process by the traced run (after as many again
/// to warm the transform cache).
pub const TRACE_REQUESTS: usize = 2_000;

/// Daemon flags shared by every workload.
pub const DAEMON_FLAGS: [&str; 8] = [
    "--shards",
    "2",
    "--workers",
    "2",
    "--cache",
    "4096",
    "--mode",
    "evented",
];

/// Shares of `--seconds` the three timed phases take.
pub const PHASE_SHARES: [(&str, f64); 3] = [("closed", 0.40), ("open_lo", 0.25), ("open_hi", 0.35)];
/// Rounds the timed phases are interleaved in (closed, open_lo, open_hi,
/// closed, …): a phase's five sub-windows, spread over the whole run so a
/// slow stretch of the host costs each phase a window, not one phase all
/// of its windows. A latency or throughput figure is the median over its
/// rounds, `open_hi_within_limit` the mean over its best three.
pub const ROUNDS: usize = 5;
/// Samples a round must hold for its own median to count.
pub const P50_MIN_PER_ROUND: usize = 20;
/// Samples a round must hold for its own p99 to count (ten beyond it);
/// with a thinner round the p99 is the whole phase's, pooled.
pub const P99_MIN_PER_ROUND: usize = 1_000;
/// Rounds of `open_hi` behind `open_hi_within_limit`: the mean share over
/// the three best of the five. The host stalls for 0.1–1 s a few times a
/// minute, and one such round of a `write_mix` run on the reference host
/// missed 666 of its 1 155 requests (README, *Noise*). Pooled over all
/// rounds, `write_mix`'s figure spread 0.20 and 0.08 over ten seeds on the
/// driver's host, which refused it at a bound of 0.10. On the reference
/// host under synthetic CPU and fsync bursts the pooled figure spread
/// 0.12, the median of five 0.12 and this one 0.06; on the quiet host
/// 0.025, 0.018 and 0.009. What it cannot see is a stall confined to two
/// rounds or fewer. By arithmetic, not measurement: a `write_mix`
/// compaction cycle comes every 2.1 s at the `open_hi` ADD rate (132 ADD/s
/// × 59 B against the 16 KiB cap) and a round is 1.75 s, so about four
/// rounds in five hold a cycle and at least two of the best three do.
pub const WITHIN_LIMIT_BEST_ROUNDS: usize = 3;
/// Kill→restart cycles behind `write_mix`'s `restart_ready_s` (median).
pub const RESTART_REPEATS: usize = 9;

/// One workload: its traffic and the constants frozen at the seed commit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Final name; later issues cite it.
    pub name: &'static str,
    /// Why it exists ([`Workload::why_line`] goes into `BENCHMARK.json`).
    pub why: &'static str,
    /// Access path every `MATCH` of this workload names.
    pub method: SearchMethod,
    /// `open_lo` arrival rate in requests/s (0.25 × seed `closed_ops_s`).
    pub rate_lo: f64,
    /// `open_hi` arrival rate in requests/s (0.5 × seed `closed_ops_s`).
    pub rate_hi: f64,
    /// Latency limit in µs for `open_hi_within_limit` (3 × seed `closed_p99_us`).
    pub limit_us: f64,
}

impl Workload {
    /// The `why` of `BENCHMARK.json`: the rationale, then the frozen rates
    /// and limit (the file's schema has no field of their own for them).
    pub fn why_line(&self) -> String {
        format!(
            "{} (open {}/{} req/s, limit {} ms)",
            self.why,
            self.rate_lo,
            self.rate_hi,
            self.limit_us / 1e3
        )
    }
}

/// The four workloads, in run order. Rates and limits were calibrated
/// once on the seed commit (2-core Xeon @ 2.1 GHz, avx2) and are frozen.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "scan_hot",
        why: "MATCH scan over a 256-query hot pool: ~20K pair verifications per request, so the verify kernel and its screens are the work and framing, cache, G2P are noise",
        method: SearchMethod::Scan,
        rate_lo: 330.0,
        rate_hi: 660.0,
        limit_us: 8_400.0,
    },
    Workload {
        name: "qgram_hot",
        why: "same hot pool through the q=3 STRICT q-gram path: candidate generation plus a verify of its survivors; slower than scan_hot at the seed, the number to explain",
        method: SearchMethod::Qgram,
        rate_lo: 140.0,
        rate_hi: 280.0,
        limit_us: 20_000.0,
    },
    Workload {
        name: "phonidx_cold",
        why: "MATCH phonidx over 50000 distinct queries (cache hit ratio <15%), half untagged with Latin fan-out: the search is microseconds, so the serving path is the request",
        method: SearchMethod::PhoneticIndex,
        rate_lo: 2_500.0,
        rate_hi: 5_000.0,
        limit_us: 2_000.0,
    },
    Workload {
        name: "write_mix",
        why: "mmap image + 16 KiB WAL cap: 20% fsynced ADD beside 80% MATCH scan, so commit lock, fsync and compaction cycles meet the read path; ends with SIGKILL and replay",
        method: SearchMethod::Scan,
        rate_lo: 330.0,
        rate_hi: 660.0,
        limit_us: 12_000.0,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// One end-to-end metric: what a user of the daemon sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Final name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen; `None` for a
    /// metric that is reported but holds no bound (see [`REPORTED`]).
    pub bound: Option<f64>,
    /// Glossary line.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    what: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        what,
    }
}

/// The **bounded** end-to-end metrics: the result line of every workload
/// with `--trace 0`, and `end_to_end` in `BENCHMARK.json`. The driver
/// refuses a benchmark whose ten-seed spread (quartile distance over
/// median) passes a metric's bound on any workload, and a bound is at most
/// 0.25; these three keep within a third of theirs on the reference host,
/// whose speed shifts by a quarter for minutes at a time.
/// `open_hi_within_limit` is the coarse speed gate among them: it falls
/// when capacity halves (the open_hi rate is half the seed's closed
/// throughput) or the tail triples (the limit is 3 × the seed's p99) in
/// most rounds (see [`WITHIN_LIMIT_BEST_ROUNDS`]).
pub const END_TO_END: [EndToEnd; 3] = [
    e2e("setup_s", "s", Lower, Some(0.25), "daemon spawn to first oracle-correct reply on the workload's method (median of 15 starts)"),
    e2e("open_hi_within_limit", "ratio", Higher, Some(0.20), "share of requests due in open_hi answered correctly within the workload's latency limit, mean over the 3 best of the 5 rounds; failed, refused or unanswered requests miss it"),
    e2e("rss_mb", "MB", Lower, Some(0.20), "daemon peak resident set (VmHWM) at the end of the last round"),
];

/// End-to-end metrics that are **reported by name but hold no bound**.
/// `BENCHMARK.json` can only list a metric that every workload reports
/// and that keeps a bound of at most 0.25 on each of them. The first
/// three keep 0.25 in a quiet hour (spreads 0.04–0.23) and lose it when
/// the host shifts speed mid-sweep (0.15–0.36); the tails and
/// `open_hi_p50_us` pass it on `phonidx_cold` (a chain of thread wake-ups
/// a microVM makes erratic) and the pooled open-loop tails on every
/// workload (they hold the host's freezes and the compaction stalls
/// alike); the last three exist on `write_mix` only ([`WRITE_MIX_ONLY`]).
/// They are printed by every run and judged by the noise report, which
/// says when a spread would resolve them; a change that claims a gain on
/// one of them runs its own parent/change pairs.
pub const REPORTED: [EndToEnd; 10] = [
    e2e("closed_ops_s", "1/s", Higher, None, "replies per second, 2 connections each waiting for its reply (write_mix: ADD and MATCH together)"),
    e2e("closed_p50_us", "us", Lower, None, "closed-loop MATCH latency, median"),
    e2e("closed_p99_us", "us", Lower, None, "closed-loop MATCH latency, 99th percentile"),
    e2e("open_lo_p50_us", "us", Lower, None, "MATCH latency from the due time at the low fixed arrival rate, median"),
    e2e("open_lo_p99_us", "us", Lower, None, "MATCH latency from the due time at the low rate, 99th percentile"),
    e2e("open_hi_p50_us", "us", Lower, None, "MATCH latency from the due time at the high fixed arrival rate, median"),
    e2e("open_hi_p99_us", "us", Lower, None, "MATCH latency from the due time at the high rate, 99th percentile"),
    e2e("add_p50_us", "us", Lower, None, "write_mix only: ADD latency (fsynced before OK, in the closed rounds beside reads), median"),
    e2e("add_p99_us", "us", Lower, None, "write_mix only: ADD latency, 99th percentile (same samples as add_p50_us)"),
    e2e("restart_ready_s", "s", Lower, None, "write_mix only: SIGKILL to first correct MATCH after a restart from checkpoint + WAL tail (median of 9)"),
];

/// The [`REPORTED`] metrics only `write_mix` produces: the other workloads
/// send no `ADD` and keep no log to restart from.
pub const WRITE_MIX_ONLY: [&str; 3] = ["add_p50_us", "add_p99_us", "restart_ready_s"];

/// One per-layer metric: a single module's cost or count, taken from
/// outside the module by the traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    /// Final name; the prefix is the module.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// How it is taken from outside.
    pub how: &'static str,
    /// End-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    how: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        how,
        moves,
    }
}

/// The per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [PerLayer; 50] = [
    pl("proto.frame_parse_ns", "ns", Lower, "LineFramer::push/next_line + parse_request, median span", "closed_p50_us on phonidx_cold; nothing on scan_hot"),
    pl("proto.format_ns", "ns", Lower, "format_outcome, median span", "closed_p50_us on phonidx_cold"),
    pl("proto.resp_bytes", "bytes", Lower, "mean reply line length", "closed_p50_us on phonidx_cold"),
    pl("g2p.transform_ns", "ns", Lower, "registry.transform per cache miss, median span", "closed_p50_us on phonidx_cold"),
    pl("g2p.route_ns", "ns", Lower, "ScriptProfile::of + Router::route per untagged query, median span", "closed_p50_us on phonidx_cold"),
    pl("cache.get_ns", "ns", Lower, "TransformCache::get_or_try_insert_with self time (lookup, plus insert on a miss), median", "closed_p50_us on phonidx_cold"),
    pl("cache.hit_ratio", "ratio", Higher, "TransformCache::stats delta over the replay", "closed_p50_us on phonidx_cold; ~1 on the hot workloads"),
    pl("untagged.fanout_mean", "count", Lower, "MatchService::stats untagged fanout_width_sum / requests over the replay", "closed_p50_us on phonidx_cold"),
    pl("service.lookup_ns", "ns", Lower, "MatchService::lookup in-process, median over tagged requests", "closed_p50_us everywhere"),
    pl("service.lookup_auto_ns", "ns", Lower, "MatchService::lookup_auto in-process, median over untagged requests", "closed_p50_us on phonidx_cold"),
    pl("net.overhead_us", "us", Lower, "1-connection socket p50 minus service.lookup p50 minus proto.* p50", "closed_ops_s, open_hi_p99_us on phonidx_cold"),
    pl("shard.search_ns", "ns", Lower, "ShardedStore::begin_search -> merge, median span", "closed_p50_us on phonidx_cold"),
    pl("shard.overhead_ns", "ns", Lower, "shard.search_ns minus NameStore::search_phonemes_batched on one stripe", "closed_p50_us on phonidx_cold; <2% on scan_hot"),
    pl("qgram.candidates_ns", "ns", Lower, "own QgramFilter::build over phoneme_strings(), then candidates(), median per query", "closed_p50_us, closed_ops_s on qgram_hot only"),
    pl("qgram.candidates_per_query", "count", Lower, "mean QgramFilter::candidates length (exact)", "closed_ops_s on qgram_hot"),
    pl("qgram.survivor_ratio", "ratio", Higher, "true matches / q-gram candidates (exact)", "closed_ops_s on qgram_hot"),
    pl("phonidx.candidates_ns", "ns", Lower, "PhoneticIndex::candidates, median per query", "closed_p50_us on phonidx_cold"),
    pl("phonidx.candidates_per_query", "count", Lower, "mean PhoneticIndex::candidates length (exact)", "closed_p50_us on phonidx_cold"),
    pl("bktree.search_ns", "ns", Lower, "NameStore::search_phonemes_batched(.., BkTree), median per query", "none (access-path table only)"),
    pl("bktree.verified_per_query", "count", Lower, "mean verifications of the BK-tree search (exact)", "none (access-path table only)"),
    pl("verify.batch_ns_per_pair", "ns", Lower, "BatchVerifier::verify_ids over every id at default width", "closed_ops_s on scan_hot and write_mix"),
    pl("verify.width1_ns_per_pair", "ns", Lower, "BatchVerifier::verify_ids at width 1", "closed_p50_us on phonidx_cold"),
    pl("verify.scalar_ns_per_pair", "ns", Lower, "Verifier::matches pair at a time", "none (the scalar reference)"),
    pl("verify.lanes_mean", "count", Higher, "BatchCounters lanes_sum / calls at default width (exact)", "closed_ops_s on scan_hot"),
    pl("verify.length_reject_ratio", "ratio", Higher, "pairs settled by the inline length filter / pairs (exact)", "closed_ops_s on scan_hot"),
    pl("verify.embed_reject_ratio", "ratio", Higher, "ScreenCounters embed_reject / pairs (exact)", "closed_ops_s on scan_hot; decides the embed column keep-or-drop"),
    pl("verify.myers_reject_ratio", "ratio", Higher, "(BatchCounters lane_reject - embed_reject) / pairs (exact)", "closed_ops_s on scan_hot"),
    pl("verify.myers_accept_ratio", "ratio", Higher, "BatchCounters lane_accept / pairs (exact)", "closed_ops_s on scan_hot"),
    pl("verify.dp_ratio", "ratio", Lower, "BatchCounters lane_dp / pairs (exact)", "closed_ops_s on scan_hot"),
    pl("verify.lookup_share", "ratio", Lower, "verify time on one stripe for the workload's access path / service.lookup_ns", "none (shows which workloads the kernel owns: >0.8 scan_hot, <0.25 phonidx_cold)"),
    pl("embed.l1_ns_per_pair", "ns", Lower, "lexequal_embed::l1 over the pairs that pass the length filter", "closed_ops_s on scan_hot"),
    pl("myers.batch_ns_per_lane", "ns", Lower, "MyersPattern::distance_batch over the lanes that reach the Myers screens", "closed_ops_s on scan_hot"),
    pl("dp.banded_ns_per_pair", "ns", Lower, "within_distance_dense over the pairs that reach the DP", "closed_ops_s on scan_hot"),
    pl("wal.append_fsync_us", "us", Lower, "Wal::append (write + fsync), median", "add_p50_us, add_p99_us on write_mix"),
    pl("wal.bytes_per_add", "bytes", Lower, "WalMetrics bytes / appends (exact)", "add_p50_us on write_mix"),
    pl("wal.fsyncs_per_add", "count", Lower, "WalMetrics fsyncs / appends (exact)", "add_p50_us on write_mix"),
    pl("repl.commit_add_us", "us", Lower, "Replicator::commit_add (transform, append, apply), median", "add_p50_us, add_p99_us on write_mix"),
    pl("compaction.cycles", "count", Lower, "Replicator::compact runs while committing 1500 ADDs against the 16 KiB cap (exact)", "add_p99_us, open_hi_p99_us on write_mix"),
    pl("compaction.cycle_ms", "ms", Lower, "Replicator::compact, median", "add_p99_us, open_hi_p99_us on write_mix"),
    pl("compaction.bytes_rewritten_per_add_byte", "ratio", Lower, "(checkpoint images + rewritten WAL bytes) / ADD record bytes", "add_p99_us on write_mix"),
    pl("mmapstore.encode_ms", "ms", Lower, "mmapstore::encode", "restart_ready_s, add_p99_us on write_mix"),
    pl("mmapstore.load_ms", "ms", Lower, "mmapstore::load_file", "setup_s, restart_ready_s on write_mix"),
    pl("mmapstore.image_bytes_per_name", "bytes", Lower, "image length / names (exact)", "rss_mb on write_mix"),
    pl("build.qgram_ms", "ms", Lower, "MatchService::build(Qgram q=3 STRICT)", "setup_s on the read workloads"),
    pl("build.phonidx_ms", "ms", Lower, "MatchService::build(PhoneticIndex)", "setup_s on the read workloads"),
    pl("build.bktree_ms", "ms", Lower, "MatchService::build(BkTree)", "setup_s on the read workloads"),
    pl("store.extend_ms", "ms", Lower, "MatchService::extend_transformed over the corpus", "setup_s on the read workloads"),
    pl("trace.coverage", "ratio", Higher, "sum of span self times under the request (proto excluded) / sum of MatchService::lookup times", "neither (validity: must be 0.9-1.1)"),
    pl("trace.overhead_ratio", "ratio", Lower, "traced replay time / untraced replay time", "neither (validity)"),
    pl("trace.spans", "count", Lower, "spans written to results/trace_<workload>.json", "neither"),
];

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render the repository's `BENCHMARK.json` from the tables above (the
/// crate's tests hold the checked-in file to this text).
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"crates/lexbench/run.sh\"],\n");
    s.push_str("  \"paths\": [\"crates/lexbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            json_str(w.name),
            json_str(&w.why_line()),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            m.bound.expect("every END_TO_END metric is bounded"),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let ok_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(REPORTED.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(ok_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            let why = w.why_line();
            assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
            assert!(w.rate_lo < w.rate_hi && w.limit_us > 0.0);
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("bounded");
            assert!(
                ok_unit(m.unit) && bound > 0.0 && bound <= 0.25,
                "{}",
                m.name
            );
        }
        assert!(REPORTED
            .iter()
            .all(|m| ok_unit(m.unit) && m.bound.is_none()));
        for m in &PER_LAYER {
            assert!(ok_unit(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert_eq!(
            END_TO_END.len() + REPORTED.len() + 1,
            14,
            "13 named here, plus fail_ratio"
        );
        assert!(benchmark_json().len() < 64 * 1024);
        let shares: f64 = PHASE_SHARES.iter().map(|p| p.1).sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }
}
